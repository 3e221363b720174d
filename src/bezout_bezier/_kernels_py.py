"""The kernels: the hot loops behind enumeration and verification.

Both scans walk the disk row by row: ``_disk_rows`` gathers the coprime
s of each row r with one comprehension.  Disk membership is one integer
rule, ``disk_limit``: the squared distance is exact, the limit is the
floor of the rounded float radius * radius; ``_disk_rows`` solves it
for each row's bounds, and ``envelope.endpoint_gaps`` tests one pair
with it.  ``envelope_scan`` then needs s**-1 mod r for every s of the
row (the normalized coefficient a); ``_inverses_mod`` gets them all
from one ``pow(x, -1, r)`` by batch inversion: prefix products mod r,
one inverse of the last product, and a backward pass that peels the
inverses off one at a time.  That is three small multiplications per
pair instead of one extended Euclid per pair.

``_row`` is the one copy of the contact/gap formula and of the
normalization of the Bezout coefficients: the row of one pair from the
center as floats and a = s**-1 mod r.  It takes the inverse as an
argument so that ``envelope_scan`` keeps its one ``pow`` per row: the
scan calls it once per pair with the inverse its batch already holds,
and ``pair_row``, which the single-pair functions of ``envelope`` and
``numtheory.bezout_coefficients`` read, calls it with one
``pow(s, -1, r)``.  The integers that enter the float formulas are
converted with ``float()`` first, since all-float operands let CPython
specialise the arithmetic.  In the supported range p, q, a, b, a_flip
and b_flip are at most 2**31, so their conversions are exact.  Those of
M = a*r + b*s and D = r*r + s*s are not: M <= D <= 2**63, and above
2**53 ``float()`` rounds each to nearest (at (r, s) = (2**31 - 1,
2**30 + 7), M has 61 bits and D 63).  The float t = 1 - M/D is still
within 2**-51 of the exact one: the two conversions and the division
each err by a factor of at most 1 + 2**-53 on a quotient below 1, and
the subtraction by at most 2**-54, about 3.5 * 2**-53 in all.  The
error of the gaps and of the deviation is not bounded here.  Callers
validate inputs (positive, coprime where required, within the supported
integer range, a nonnegative radius), so the kernels do not.
"""

from math import floor, gcd, isqrt, sqrt


def disk_limit(radius):
    """The disk rule: the lattice point (r, s) lies within `radius` of
    the lattice point (p, q) iff (r - p)**2 + (s - q)**2 <= disk_limit(radius).

    The limit is floor(radius * radius), or -1 (no point) for a negative
    radius.  The squared distance is an exact integer, but for a float
    radius the product radius * radius is rounded to nearest, so the
    limit may differ from the exact radius**2 by up to half an ulp (a
    relative 2**-53).  A point whose squared distance lies that close to
    radius**2 can fall on the wrong side.  Below 2**53 every integer is
    a float, so the rounding can only carry radius**2 up onto an integer:
    at radius = sqrt(41), whose exact square is below 41, the points at
    distance sqrt(41) are kept.  Above 2**53 it can also carry an
    integer radius**2 down: at radius = 300000001.0 the limit is
    radius**2 - 1, and a point at exactly the radius is left out.  An
    int radius gives the exact limit.
    """
    return floor(radius * radius) if radius >= 0 else -1


def _disk_rows(p, q, radius):
    """(r, [s, ...]) for every row r of the disk that holds a coprime pair.

    The s of a row are those with s >= 1, gcd(r, s) == 1 and (r, s) in
    the disk by ``disk_limit``, in increasing order: the slice of one
    shared column of s between q -/+ isqrt(limit - (r - p)**2), so every
    row's s are the same int objects.  A negative radius gives no row.
    """
    limit = disk_limit(radius)
    reach = isqrt(limit) if limit >= 0 else -1  # -1: no row and no column
    s0 = max(1, q - reach)
    column = list(range(s0, q + reach + 1))
    for r in range(max(1, p - reach), p + reach + 1):
        h = isqrt(limit - (r - p) * (r - p))
        row = [s for s in column[max(1, q - h) - s0:q + h + 1 - s0] if gcd(r, s) == 1]
        if row:
            yield r, row


def _inverses_mod(xs, r):
    """[x**-1 mod r for x in xs], each x coprime to r, by batch inversion.

    All zeros when r == 1.
    """
    prefix = []
    acc = 1
    for x in xs:
        acc = acc * x % r
        prefix.append(acc)
    inv = pow(acc, -1, r)  # (x_0 * ... * x_k)**-1, k = len(xs) - 1
    out = prefix  # overwritten from the back, each slot after its last read
    for i in range(len(xs) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % r
        inv = inv * xs[i] % r
    out[0] = inv
    return out


def coprime_pairs_in_disk(p, q, radius):
    """All positive coprime (r, s) with ||(r,s)-(p,q)|| <= radius.

    Lexicographic (r, s) order; disk membership is ``disk_limit``'s
    integer rule, as in ``envelope_scan``, so a point within half an ulp
    of the circle can fall on either side of it.
    """
    return [(r, s) for r, row in _disk_rows(p, q, radius) for s in row]


def _row(pf, qf, r, s, a):
    """The envelope_scan row of (r, s) for the center (pf, qf), as floats.

    Its (a, b) are the normalized Bezout coefficients of (r, s): the
    unique a*s - b*r == 1 with 0 < a <= r and 0 <= b < s.  a is the
    inverse of s modulo r, taken in (0, r] (r when r == 1, where the
    inverse is 0); that pins b = (a*s - 1) / r into [0, s).
    """
    b = (a * s - 1) // r
    af = s - b
    bf = r - a
    t = 1.0 - float(a * r + b * s) / float(r * r + s * s)
    u = 1.0 - t
    fa = float(a)
    fb = float(b)
    faf = float(af)
    fbf = float(bf)
    gax = fa - u * pf
    gay = fb - u * qf
    gbx = faf - t * qf
    gby = fbf - t * pf
    lx = u * fa + t * faf
    ly = u * fb + t * fbf
    uu = u * u
    tt = t * t
    dx = lx - (uu * pf + tt * qf)
    dy = ly - (uu * qf + tt * pf)
    gap_a = sqrt(gax * gax + gay * gay)
    gap_b = sqrt(gbx * gbx + gby * gby)
    return (r, s, a, b, af, bf, t, gap_a, gap_b, sqrt(dx * dx + dy * dy))


def pair_row(p, q, r, s):
    """The envelope_scan row of the coprime pair (r, s) for center (p, q).

    Its a and b, row[2:4], do not depend on the center.
    """
    return _row(float(p), float(q), r, s, pow(s, -1, r) or r)


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
    pf, qf = float(p), float(q)
    return [
        _row(pf, qf, r, s, inv or r)
        for r, row in _disk_rows(p, q, radius)
        for s, inv in zip(row, _inverses_mod(row, r))
    ]
