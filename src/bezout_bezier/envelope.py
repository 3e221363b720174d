"""Bezier-Bezout segments and verification of the approximation bound.

For a center (p, q) and tolerance epsilon, every coprime pair (r, s)
within distance epsilon - 1 contributes the segment joining the Bezout
coefficients of (r, s) and (s, r).  At its contact parameter that
segment passes within epsilon of the quadratic Bezier curve for
(p, q), (0, 0), (q, p); this module measures the actual deviations and
aggregates them into a report.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from . import _kernels_py as kernels
from ._frozen import Frozen, require_disk, require_instance, require_number
from ._frozen import setfields, show
from .errors import DomainError, HypothesisError
from .numtheory import (
    INT_RANGE,
    BezoutCoeffs,
    Center,
    CoprimePair,
    _verified_pair,
)


class EnvelopeParams(Frozen):
    """A center and tolerance satisfying the approximation hypotheses.

    Requires p > 3, 0 <= q < p and 1 < epsilon <= ||(p, q)|| / 2, and
    p + epsilon <= 2**31 so that every neighbor stays in the supported
    integer range (``require_disk``, whose bound on q follows here from
    q < p).  epsilon must be an int or a float, not a bool
    (``require_number``); a nan or an infinite epsilon fails one of the
    bounds.  radius = epsilon - 1, the enumeration radius for the
    deviation bound, and gap_limit = ``_kernels_py.disk_limit(epsilon)``,
    the squared distance up to which ``endpoint_gaps`` takes a pair.
    """

    __slots__ = ("center", "epsilon", "radius", "gap_limit")
    _fields = ("center", "epsilon")
    center: Center
    epsilon: float

    def __init__(self, center: Center, epsilon: float):
        require_instance("EnvelopeParams", "center", center, Center)
        p, q = center.p, center.q
        if p <= 3:
            raise HypothesisError(f"requires p > 3 (got p = {p})")
        if q >= p:
            raise HypothesisError(f"requires 0 <= q < p (got p = {p} and q = {q})")
        require_number("epsilon", epsilon)
        if not epsilon > 1:
            raise HypothesisError(
                f"requires epsilon > 1 (got epsilon = {show(epsilon)})"
            )
        half_norm = 0.5 * math.hypot(p, q)
        if epsilon > half_norm:
            raise HypothesisError(
                f"requires epsilon <= ||(p,q)||/2 = {half_norm} "
                f"(got epsilon = {show(epsilon)})"
            )
        require_disk(p, q, epsilon, "epsilon")
        setfields(self, center, epsilon, epsilon - 1.0, kernels.disk_limit(epsilon))


class EnvelopeRecord(Frozen):
    """One coprime neighbor of a center, measured by the kernel.

    EnvelopeRecord(pair, params) holds the pair's kernel row (r, s, a,
    b, a_flip, b_flip, t_contact, gap_alpha, gap_beta, deviation) for
    params.center, computed by ``_kernels_py.pair_row``, and the params.
    Its fields are the pair and the params: it compares, hashes, prints,
    pickles and copies as those two.  The other attributes are read-only
    properties of the row; the objects among them (pair, coeffs,
    flipped, segment) are built each time they are read, and bound_ok
    is deviation < params.epsilon.  A record is a view of one row that
    its store shares: unlike the other value types it derives its
    values on read, so that taking a record from a store copies none of
    them.  A pair that is not a CoprimePair, or params that are not
    EnvelopeParams, raise DomainError naming the field.
    """

    __slots__ = ("_row", "params")
    _fields = ("pair", "params")
    params: EnvelopeParams

    def __init__(self, pair: CoprimePair, params: EnvelopeParams):
        require_instance("EnvelopeRecord", "pair", pair, CoprimePair)
        require_instance("EnvelopeRecord", "params", params, EnvelopeParams)
        center = params.center
        setfields(self, kernels.pair_row(center.p, center.q, pair.r, pair.s), params)

    # The attributes, read from the row; the objects are built on each read.
    pair = property(lambda self: _verified_pair(self._row[0], self._row[1]))
    # B(r, s): segment start, and B(s, r): segment end
    coeffs = property(lambda self: BezoutCoeffs(*self._row[2:4], self.pair))
    flipped = property(lambda self: BezoutCoeffs(*self._row[4:6], self.pair.flipped()))
    segment = property(lambda self: _segment(self._row))
    t_contact = property(lambda self: self._row[6])
    gap_alpha = property(lambda self: self._row[7])
    gap_beta = property(lambda self: self._row[8])
    deviation = property(lambda self: self._row[9])
    bound_ok = property(lambda self: self._row[9] < self.params.epsilon)
    # only (1, 1): the segment collapses to a point
    degenerate = property(lambda self: self._row[0] == self._row[1])


def _segment(row: tuple):
    """The segment from B(r, s) to B(s, r) of a kernel row, as a
    geometry.Segment of real points.

    geometry is loaded here, on the first segment, so that a run that
    makes none (verify, audit-sweep, text and CSV) never compiles it.
    """
    from .geometry import Point2, Segment

    _, _, a, b, af, bf = row[:6]
    return Segment(Point2(float(a), float(b)), Point2(float(af), float(bf)))


# The slots' own setters: they bypass the frozen __setattr__.
_new = object.__new__
_set_row, _set_params = EnvelopeRecord._setters


class EnvelopeRecords(Frozen, Sequence):
    """Immutable sequence of the EnvelopeRecord of every coprime
    neighbor within radius epsilon - 1 of params.center.

    EnvelopeRecords(params) runs ``_kernels_py.envelope_scan`` and keeps
    its rows; a record, one object over its row and the params, is
    built only when it is accessed, and a slice is a tuple of records.
    Its one field is the params: it compares, hashes, prints, pickles
    and copies as them, so == and hash take O(1), and unpickling or
    copying a store scans again.  Params that are not EnvelopeParams
    raise DomainError naming the field.
    """

    __slots__ = ("params", "_rows")
    _fields = ("params",)
    params: EnvelopeParams

    def __init__(self, params: EnvelopeParams):
        require_instance("EnvelopeRecords", "params", params, EnvelopeParams)
        center = params.center
        rows = kernels.envelope_scan(center.p, center.q, params.radius)
        setfields(self, params, rows)

    def _record(self, row: tuple) -> EnvelopeRecord:
        # The row is the kernel's: the constructor would only compute it again.
        rec = _new(EnvelopeRecord)
        _set_row(rec, row)
        _set_params(rec, self.params)
        return rec

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._record, self._rows[index]))
        return self._record(self._rows[index])

    def __iter__(self):
        return map(self._record, self._rows)


class VerificationReport(Frozen):
    """One (center, epsilon) run: its params and the records of its scan.

    VerificationReport(params) holds EnvelopeRecords(params), the
    records of every coprime neighbor within radius epsilon - 1, and
    verifies their kernel rows in one pass that also derives the
    summary: neighbor_count, all_bounds_hold (every deviation <
    epsilon), max_deviation, max_endpoint_gap and extent, the largest
    (x, y) of any segment endpoint ((0, 0) for no records).  A row that
    fails raises DomainError naming its pair, and params that are not
    EnvelopeParams raise DomainError.  So every record in a report is a
    neighbor the kernel measured for its params.

    Its one field is the params: it compares, hashes, prints, pickles
    and copies as them.  The records, rows and summary are read-only
    slots that the constructor sets once.
    Unpickling or copying a report scans again: about 0.1 s for a disk
    of 75 k pairs (Python 3.11, one core of a shared 2-core machine).
    """

    __slots__ = ("params", "records", "rows", "neighbor_count", "all_bounds_hold",
                 "max_deviation", "max_endpoint_gap", "extent")
    _fields = ("params",)
    params: EnvelopeParams
    records: EnvelopeRecords

    def __init__(self, params: EnvelopeParams):
        require_instance("VerificationReport", "params", params, EnvelopeParams)
        records = EnvelopeRecords(params)
        rows = records._rows
        setfields(self, params, records, rows, *_fold(rows, params.epsilon))


def _fold(rows: Sequence[tuple], eps: float) -> tuple:
    """Verify every kernel row and fold the rows into (count, all_ok,
    max_dev, max_gap, (x_max, y_max)): the report's derived slots
    neighbor_count, all_bounds_hold, max_deviation, max_endpoint_gap and
    extent, in slot order.

    A row must have a*s - b*r == 1, the box 0 < a <= r, 0 <= b < s, the
    flip (a_flip, b_flip) == (s - b, r - a) and r, s <= 2**31.  Those
    imply what the record types check one at a time: gcd(r, s) == 1,
    r, s >= 1, the flipped pair's identity and box, and finite (integer)
    segment endpoints.
    """
    max_dev = max_gap = 0.0
    x_max = y_max = 0
    all_ok = True
    for r, s, a, b, af, bf, _, gap_a, gap_b, dev in rows:
        if (
            a * s - b * r != 1
            or not (0 < a <= r and 0 <= b < s)
            or af != s - b
            or bf != r - a
            or r > INT_RANGE
            or s > INT_RANGE
        ):
            raise DomainError(
                f"kernel row for ({r}, {s}) fails verification: B = ({a}, {b}), "
                f"flip = ({af}, {bf}); needs a*s - b*r == 1, 0 < a <= r, "
                f"0 <= b < s, flip == (s - b, r - a) and r, s <= 2**31"
            )
        if not dev < eps:
            all_ok = False
        if dev > max_dev:
            max_dev = dev
        if gap_a > max_gap:
            max_gap = gap_a
        if gap_b > max_gap:
            max_gap = gap_b
        if a > x_max:
            x_max = a
        if af > x_max:
            x_max = af
        if b > y_max:
            y_max = b
        if bf > y_max:
            y_max = bf
    return len(rows), all_ok, max_dev, max_gap, (x_max, y_max)


def bezout_segment(pair: CoprimePair):
    """The segment from B(r, s) to B(s, r), as a geometry.Segment of
    real points."""
    require_instance("bezout_segment", "pair", pair, CoprimePair)
    return _segment(kernels.pair_row(pair.r, pair.s, pair.r, pair.s))


def contact_parameter(pair: CoprimePair) -> float:
    """Parameter at which the pair's segment meets the chord family.

    t = 1 - (a*r + b*s) / (r^2 + s^2) for (a, b) = B(r, s); always
    strictly inside (0, 1).  Note the complement: the projection of
    B(r, s) onto the (r, s) ray sits at 1 - t, not t.
    """
    require_instance("contact_parameter", "pair", pair, CoprimePair)
    # t does not depend on the center, so the pair serves as one
    return kernels.pair_row(pair.r, pair.s, pair.r, pair.s)[6]


def endpoint_gaps(pair: CoprimePair, params: EnvelopeParams) -> tuple[float, float]:
    """Distances from the segment endpoints to the chord endpoints.

    gap_alpha = ||B(r,s) - alpha(t0)|| and gap_beta = ||B(s,r) - beta(t0)||
    at t0 = contact_parameter(pair).  Requires the pair to lie within
    distance epsilon of the center, by the kernels' integer disk rule:
    its squared distance at most params.gap_limit
    (``_kernels_py.disk_limit``); both gaps are then below epsilon + 1.
    The squared distance is exact but epsilon**2 is rounded, so a pair
    within half an ulp of the circle can fall on either side of it.
    """
    require_instance("endpoint_gaps", "pair", pair, CoprimePair)
    require_instance("endpoint_gaps", "params", params, EnvelopeParams)
    p, q = params.center.p, params.center.q
    r, s = pair.r, pair.s
    dr, ds = r - p, s - q
    if dr * dr + ds * ds > params.gap_limit:
        raise HypothesisError(
            f"requires ||(r,s)-(p,q)|| <= epsilon (pair ({r}, {s}) lies "
            f"{math.hypot(dr, ds)} from ({p}, {q}) with epsilon = "
            f"{params.epsilon})"
        )
    return kernels.pair_row(p, q, r, s)[7:9]


def build_envelope(params: EnvelopeParams) -> VerificationReport:
    """Measure every coprime neighbor within radius epsilon - 1: the
    report VerificationReport(params).

    Records are sorted lexicographically by (r, s); an empty
    enumeration yields a vacuously passing report.  The report verifies
    every kernel row as it is built, and raises DomainError naming the
    pair of a row that fails.
    """
    return VerificationReport(params)

