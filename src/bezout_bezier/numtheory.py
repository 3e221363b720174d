"""Exact integer arithmetic on coprime pairs.

Normalized Bezout coefficients, the flip and extension identities that
relate a pair to its mirror image, and enumeration of coprime lattice
pairs inside a Euclidean disk.  All identities here are exact; nothing
is allowed to round.
"""

from __future__ import annotations

import math
from itertools import chain, starmap

from . import _kernels_py as kernels
from ._frozen import INT_RANGE, Frozen, require_disk, require_instance, require_int
from ._frozen import require_number, setfields, show
from .errors import DomainError


class CoprimePair(Frozen):
    """A validated pair of positive coprime integers (r, s)."""

    __slots__ = ("r", "s")
    r: int
    s: int

    def __init__(self, r: int, s: int):
        require_int("coprime pair", "r", r, minimum=1, in_range=True)
        require_int("coprime pair", "s", s, minimum=1, in_range=True)
        g = math.gcd(r, s)
        if g != 1:
            raise DomainError(f"({r}, {s}) is not coprime: gcd = {g}")
        setfields(self, r, s)

    def as_tuple(self) -> tuple[int, int]:
        return (self.r, self.s)

    def flipped(self) -> "CoprimePair":
        return CoprimePair(self.s, self.r)


# The slots' own setters: they bypass the frozen __setattr__.
_set_r, _set_s = CoprimePair._setters


def _verified_pair(r: int, s: int) -> CoprimePair:
    """A CoprimePair from entries already verified in bulk.

    Sets the fields directly: the constructor's checks would only repeat
    the bulk check, at several times the cost.
    """
    pair = object.__new__(CoprimePair)
    _set_r(pair, r)
    _set_s(pair, s)
    return pair


class BezoutCoeffs(Frozen):
    """Normalized Bezout coefficients (a, b) of a coprime pair (p, q).

    Satisfies a*q - b*p = 1 with 0 < a <= p and 0 <= b < q; those box
    constraints make the solution unique.
    """

    __slots__ = ("a", "b", "pair")
    a: int
    b: int
    pair: CoprimePair

    def __init__(self, a: int, b: int, pair: CoprimePair):
        require_int("BezoutCoeffs", "a", a)
        require_int("BezoutCoeffs", "b", b)
        require_instance("BezoutCoeffs", "pair", pair, CoprimePair)
        p, q = pair.r, pair.s
        if a * q - b * p != 1:
            raise DomainError(
                f"({show(a, b)}) does not satisfy the identity for "
                f"({p}, {q}): {show(a)}*{q} - {show(b)}*{p} != 1"
            )
        if not (0 < a <= p and 0 <= b < q):
            raise DomainError(
                f"({show(a, b)}) lies outside the normalization box "
                f"0 < a <= {p}, 0 <= b < {q}"
            )
        setfields(self, a, b, pair)

    def as_tuple(self) -> tuple[int, int]:
        return (self.a, self.b)


class Center(Frozen):
    """Enumeration center (p, q).  Coprimality is not required."""

    __slots__ = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int):
        require_int("center", "p", p, minimum=1, in_range=True)
        require_int("center", "q", q, minimum=0, in_range=True)
        setfields(self, p, q)


def gcd(x: int, y: int) -> int:
    """Greatest common divisor of two nonnegative integers, not both zero."""
    require_int("gcd", "x", x, minimum=0)
    require_int("gcd", "y", y, minimum=0)
    if x == 0 and y == 0:
        raise DomainError("gcd(0, 0) is undefined")
    return math.gcd(x, y)


def bezout_coefficients(pair: CoprimePair) -> BezoutCoeffs:
    """The unique (a, b) with a*s - b*r = 1, 0 < a <= r, 0 <= b < s.

    Read from the pair's kernel row (the pair as its own center), which
    holds the one copy of the normalization rule.
    """
    require_instance("bezout_coefficients", "pair", pair, CoprimePair)
    a, b = kernels.pair_row(pair.r, pair.s, pair.r, pair.s)[2:4]
    return BezoutCoeffs(a, b, pair)


def flip_bezout(coeffs: BezoutCoeffs) -> BezoutCoeffs:
    """Coefficients of the flipped pair, via B(q,p) = (q-b, p-a).

    No second Euclid run: the identity transfers the solution directly.
    """
    require_instance("flip_bezout", "coeffs", coeffs, BezoutCoeffs)
    p, q = coeffs.pair.r, coeffs.pair.s
    return BezoutCoeffs(q - coeffs.b, p - coeffs.a, CoprimePair(q, p))


def extend_pair(coeffs: BezoutCoeffs) -> CoprimePair:
    """The coprime pair (b+q, a+p), whose coefficients are exactly (q, p).

    An entry beyond the supported range 2**31 raises DomainError, as
    CoprimePair does.
    """
    require_instance("extend_pair", "coeffs", coeffs, BezoutCoeffs)
    p, q = coeffs.pair.r, coeffs.pair.s
    return CoprimePair(coeffs.b + q, coeffs.a + p)


def coprime_neighbors(center: Center, radius: float) -> list[CoprimePair]:
    """All coprime pairs (r, s), r, s >= 1, within `radius` of the center.

    Within is the kernels' integer disk rule, ``_kernels_py.disk_limit``:
    the squared distance is exact, and a float radius**2 is rounded, so
    a pair within half an ulp of the circle can fall on either side of
    it.  Sorted lexicographically by (r, s).  The
    center itself is included when it qualifies.  An empty list is a
    valid result.  The kernel's pairs are checked in bulk for everything
    CoprimePair checks one at a time (entries in [1, 2**31], gcd 1), at
    C speed; a pair that fails raises DomainError naming it.  `radius`
    is an int or a float, not a bool (``require_number``), at least 0,
    and keeps the disk in the supported range (``require_disk``);
    anything else raises DomainError.
    """
    require_instance("coprime_neighbors", "center", center, Center)
    require_number("radius", radius)
    if not radius >= 0:
        raise DomainError(f"radius must be nonnegative (got {show(radius)})")
    require_disk(center.p, center.q, radius, "radius")
    pairs = kernels.coprime_pairs_in_disk(center.p, center.q, radius)
    entries = list(chain.from_iterable(pairs))
    if entries and (
        min(entries) < 1
        or max(entries) > INT_RANGE
        or max(starmap(math.gcd, pairs)) != 1
    ):
        for r, s in pairs:
            try:
                CoprimePair(r, s)
            except DomainError as exc:
                raise DomainError(
                    f"kernel pair ({r}, {s}) fails verification: {exc}"
                ) from None
    return [_verified_pair(r, s) for r, s in pairs]
