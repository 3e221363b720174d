"""Independent brute-force oracles.

Everything here avoids the library's algorithms on purpose: no extended
Euclid, no shared enumeration code.  Expected values in the test suite
were computed with these and frozen.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction


def gcd_by_scan(x, y):
    """Largest common divisor found by scanning downward."""
    if x == 0 and y == 0:
        raise ValueError("gcd(0, 0) undefined")
    if x == 0:
        return y
    if y == 0:
        return x
    for d in range(min(x, y), 0, -1):
        if x % d == 0 and y % d == 0:
            return d


def bezout_solutions_by_search(p, q):
    """All (a, b) in the box 0 < a <= p, 0 <= b < q with a*q - b*p == 1.

    Scans every admissible a and solves for b by divisibility; no
    Euclid involved.
    """
    found = []
    for a in range(1, p + 1):
        num = a * q - 1
        if num % p == 0:
            b = num // p
            if 0 <= b < q:
                found.append((a, b))
    return found


def bezout_solutions_full_box(p, q):
    """Same solutions by scanning the entire 2-D box (small p*q only)."""
    return [
        (a, b)
        for a in range(1, p + 1)
        for b in range(q)
        if a * q - b * p == 1
    ]


def neighbors_by_bbox_scan(p, q, radius):
    """Coprime pairs in the disk, by bounding-box scan + filters."""
    out = []
    r_lo, r_hi = max(1, math.ceil(p - radius)), math.floor(p + radius)
    s_lo, s_hi = max(1, math.ceil(q - radius)), math.floor(q + radius)
    for r in range(r_lo, r_hi + 1):
        for s in range(s_lo, s_hi + 1):
            if (r - p) ** 2 + (s - q) ** 2 <= radius * radius:
                if math.gcd(r, s) == 1:
                    out.append((r, s))
    return out


def envelope_scan_by_pairs(p, q, radius):
    """The per-pair envelope scan, one modular inverse per pair.

    A frozen copy of the loop that ``_kernels_py.envelope_scan`` ran
    before it inverted each row in one batch; the kernel's rows must
    equal these, floats included, bit for bit.
    """
    if radius < 0.0:
        return []
    rr = radius * radius
    r_lo = max(1, math.ceil(p - radius))
    r_hi = math.floor(p + radius)
    s_lo = max(1, math.ceil(q - radius))
    s_hi = math.floor(q + radius)
    out = []
    for r in range(r_lo, r_hi + 1):
        dr2 = (r - p) * (r - p)
        for s in range(s_lo, s_hi + 1):
            ds = s - q
            if float(dr2 + ds * ds) > rr or math.gcd(r, s) != 1:
                continue
            a = pow(s, -1, r) or r
            b = (a * s - 1) // r
            af = s - b
            bf = r - a
            t = 1.0 - float(a * r + b * s) / float(r * r + s * s)
            u = 1.0 - t
            gax = a - u * p
            gay = b - u * q
            gbx = af - t * q
            gby = bf - t * p
            gap_a = math.sqrt(gax * gax + gay * gay)
            gap_b = math.sqrt(gbx * gbx + gby * gby)
            lx = u * a + t * af
            ly = u * b + t * bf
            cx = u * u * p + t * t * q
            cy = u * u * q + t * t * p
            dx = lx - cx
            dy = ly - cy
            dev = math.sqrt(dx * dx + dy * dy)
            out.append((r, s, a, b, af, bf, t, gap_a, gap_b, dev))
    return out


def contact_parameter_exact(r, s, a, b):
    """The contact parameter t = 1 - (a*r + b*s) / (r*r + s*s) of the
    pair (r, s), as an exact Fraction.

    (a, b) must be the normalized Bezout coefficients of (r, s), checked
    here by their identity a*s - b*r == 1 and box 0 < a <= r, 0 <= b < s,
    which fix them uniquely; no inverse is computed.
    """
    if a * s - b * r != 1 or not (0 < a <= r and 0 <= b < s):
        raise ValueError(f"({a}, {b}) are not the coefficients of ({r}, {s})")
    return 1 - Fraction(a * r + b * s, r * r + s * s)


def coprime_pairs_upto(limit):
    """All coprime (p, q) with 1 <= p, q <= limit, row by row."""
    for p in range(1, limit + 1):
        for q in range(1, limit + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def _sqrt_60_digits(x):
    """The square root of the nonnegative Fraction x, as a 60-digit Decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()


def gaps_and_deviation_exact(p, q, r, s, a, b):
    """(gap_alpha, gap_beta, deviation) of the pair (r, s) for the center
    (p, q), each as a 60-digit Decimal.

    Every value before the square roots is an exact Fraction of the
    integers: t = 1 - (a*r + b*s) / (r*r + s*s) and u = 1 - t, the
    chord endpoints u*(p, q) and t*(q, p), the segment point
    u*(a, b) + t*(a_flip, b_flip) and the curve point
    u*u*(p, q) + t*t*(q, p), with (a_flip, b_flip) = (s - b, r - a).
    """
    t = contact_parameter_exact(r, s, a, b)
    u = 1 - t
    af, bf = s - b, r - a
    gap_a = (a - u * p) ** 2 + (b - u * q) ** 2
    gap_b = (af - t * q) ** 2 + (bf - t * p) ** 2
    dx = u * a + t * af - (u * u * p + t * t * q)
    dy = u * b + t * bf - (u * u * q + t * t * p)
    return tuple(map(_sqrt_60_digits, (gap_a, gap_b, dx * dx + dy * dy)))
