"""The kernels: the hot loops behind enumeration and verification.

``envelope_scan`` inlines the contact and gap formulas of
``envelope.contact_parameter`` and ``envelope.endpoint_gaps`` with the
same operation order, so that its rows agree with them bit for bit;
tests/test_kernels.py enforces this.  Callers validate inputs
(positive, coprime where required, within the supported integer range),
so the kernels do not.
"""

from math import ceil, floor, gcd, sqrt


def bezout_normalized(r, s):
    """Return (a, b) with a*s - b*r == 1, 0 < a <= r and 0 <= b < s.

    a is the inverse of s modulo r, taken in (0, r] (r when r == 1,
    where the inverse is 0); that pins b = (a*s - 1) / r into [0, s).
    Assumes r, s positive and coprime.
    """
    a = pow(s, -1, r) or r
    return a, (a * s - 1) // r


def coprime_pairs_in_disk(p, q, radius):
    """All positive coprime (r, s) with ||(r,s)-(p,q)|| <= radius.

    Lexicographic (r, s) order.  Disk membership is decided on the exact
    integer squared distance cast to float, as in ``envelope_scan``.
    """
    if radius < 0.0:
        return []
    rr = radius * radius
    r_lo = max(1, ceil(p - radius))
    r_hi = floor(p + radius)
    s_lo = max(1, ceil(q - radius))
    s_hi = floor(q + radius)
    out = []
    for r in range(r_lo, r_hi + 1):
        dr2 = (r - p) * (r - p)
        for s in range(s_lo, s_hi + 1):
            ds = s - q
            if float(dr2 + ds * ds) <= rr and gcd(r, s) == 1:
                out.append((r, s))
    return out


def envelope_scan(p, q, radius):
    """Segment data for every coprime pair within `radius` of (p, q).

    For each pair (r, s), in lexicographic order, yields the tuple

        (r, s, a, b, a_flip, b_flip, t_contact, gap_alpha, gap_beta,
         deviation)

    where (a, b) are the normalized Bezout coefficients of (r, s),
    (a_flip, b_flip) = (s - b, r - a) those of (s, r), t_contact is the
    parameter at which the segment touches the chord family of the
    curve for (p, q), the gaps measure how far the segment endpoints
    sit from the chord endpoints at t_contact, and deviation is the
    distance from the segment point to the curve point at t_contact.
    """
    if radius < 0.0:
        return []
    rr = radius * radius
    r_lo = max(1, ceil(p - radius))
    r_hi = floor(p + radius)
    s_lo = max(1, ceil(q - radius))
    s_hi = floor(q + radius)
    out = []
    for r in range(r_lo, r_hi + 1):
        dr2 = (r - p) * (r - p)
        for s in range(s_lo, s_hi + 1):
            ds = s - q
            if float(dr2 + ds * ds) > rr or gcd(r, s) != 1:
                continue
            a = pow(s, -1, r) or r  # inline bezout_normalized
            b = (a * s - 1) // r
            af = s - b
            bf = r - a
            t = 1.0 - float(a * r + b * s) / float(r * r + s * s)
            u = 1.0 - t
            gax = a - u * p
            gay = b - u * q
            gbx = af - t * q
            gby = bf - t * p
            gap_a = sqrt(gax * gax + gay * gay)
            gap_b = sqrt(gbx * gbx + gby * gby)
            lx = u * a + t * af
            ly = u * b + t * bf
            cx = u * u * p + t * t * q
            cy = u * u * q + t * t * p
            dx = lx - cx
            dy = ly - cy
            dev = sqrt(dx * dx + dy * dy)
            out.append((r, s, a, b, af, bf, t, gap_a, gap_b, dev))
    return out
