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
from ._frozen import Frozen, setfield
from .errors import DomainError, HypothesisError
from .geometry import Point2, Segment
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
    integer range (q < p makes the bound on q follow).
    """

    __slots__ = ("center", "epsilon")
    center: Center
    epsilon: float

    def __init__(self, center: Center, epsilon: float):
        p, q = center.p, center.q
        if p <= 3:
            raise HypothesisError(f"requires p > 3 (got p = {p})")
        if q >= p:
            raise HypothesisError(f"requires 0 <= q < p (got p = {p} and q = {q})")
        if not isinstance(epsilon, (int, float)) or not math.isfinite(epsilon):
            raise HypothesisError(f"requires a finite epsilon (got {epsilon!r})")
        if epsilon <= 1:
            raise HypothesisError(f"requires epsilon > 1 (got epsilon = {epsilon})")
        half_norm = 0.5 * math.hypot(p, q)
        if epsilon > half_norm:
            raise HypothesisError(
                f"requires epsilon <= ||(p,q)||/2 = {half_norm} "
                f"(got epsilon = {epsilon})"
            )
        if p + epsilon > INT_RANGE:
            raise DomainError(
                f"requires p + epsilon <= 2**31 "
                f"(got p = {p} and epsilon = {epsilon})"
            )
        setfield(self, "center", center)
        setfield(self, "epsilon", epsilon)

    @property
    def radius(self) -> float:
        """Enumeration radius for the deviation bound: epsilon - 1."""
        return self.epsilon - 1.0


class EnvelopeRecord(Frozen):
    """One coprime neighbor with its segment and measured deviations.

    Holds its kernel row (r, s, a, b, a_flip, b_flip, t_contact,
    gap_alpha, gap_beta, deviation) and bound_ok.  The fields that are
    objects (pair, coeffs, flipped, segment) are built from the row each
    time they are read.  The constructor takes all ten fields; coeffs,
    flipped, segment and degenerate must be the ones the pair
    determines, or it raises DomainError.
    """

    __slots__ = ("_row", "bound_ok")
    _fields = (
        "pair", "coeffs", "flipped", "segment", "t_contact",
        "gap_alpha", "gap_beta", "deviation", "bound_ok", "degenerate",
    )
    bound_ok: bool

    def __init__(
        self,
        pair: CoprimePair,
        coeffs: BezoutCoeffs,
        flipped: BezoutCoeffs,
        segment: Segment,
        t_contact: float,
        gap_alpha: float,
        gap_beta: float,
        deviation: float,
        bound_ok: bool,
        degenerate: bool,
    ):
        r, s = pair.r, pair.s
        a, b = coeffs.a, coeffs.b
        row = (r, s, a, b, s - b, r - a, t_contact, gap_alpha, gap_beta, deviation)
        setfield(self, "_row", row)
        setfield(self, "bound_ok", bound_ok)
        for name, given in (
            ("coeffs", coeffs),
            ("flipped", flipped),
            ("segment", segment),
            ("degenerate", degenerate),
        ):
            implied = getattr(self, name)
            if given != implied:
                raise DomainError(
                    f"record for ({r}, {s}): {name} = {given!r} contradicts "
                    f"the pair, which gives {implied!r}"
                )

    # The fields, read from the row; the objects are built on each read.
    pair = property(lambda self: _verified_pair(self._row[0], self._row[1]))
    # B(r, s): segment start, and B(s, r): segment end
    coeffs = property(lambda self: BezoutCoeffs(*self._row[2:4], self.pair))
    flipped = property(
        lambda self: BezoutCoeffs(*self._row[4:6], self.pair.flipped())
    )
    segment = property(lambda self: _segment(self._row))
    t_contact = property(lambda self: self._row[6])
    gap_alpha = property(lambda self: self._row[7])
    gap_beta = property(lambda self: self._row[8])
    deviation = property(lambda self: self._row[9])
    # only (1, 1): the segment collapses to a point
    degenerate = property(lambda self: self._row[0] == self._row[1])


def _segment(row: tuple) -> Segment:
    """The segment from B(r, s) to B(s, r) of a kernel row, as real points."""
    _, _, a, b, af, bf = row[:6]
    return Segment(Point2(float(a), float(b)), Point2(float(af), float(bf)))


# The slots' own setters: they bypass the frozen __setattr__.
_new = object.__new__
_set_row = EnvelopeRecord._row.__set__
_set_bound_ok = EnvelopeRecord.bound_ok.__set__


class EnvelopeRecords(Sequence):
    """Immutable sequence of EnvelopeRecord over verified kernel rows.

    A record, one object over its row, is built only when it is
    accessed.  Compares equal to any sequence of equal records.
    """

    __slots__ = ("_rows", "_epsilon")

    def __init__(self, rows: Sequence[tuple], epsilon: float):
        self._rows = rows
        self._epsilon = epsilon

    def _record(self, row: tuple) -> EnvelopeRecord:
        # The row is verified: the constructor's checks would only repeat
        # build_envelope's bulk pass.
        rec = _new(EnvelopeRecord)
        _set_row(rec, row)
        _set_bound_ok(rec, row[9] < self._epsilon)
        return rec

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EnvelopeRecords(self._rows[index], self._epsilon)
        return self._record(self._rows[index])

    def __iter__(self):
        return map(self._record, self._rows)

    def __eq__(self, other):
        if isinstance(other, EnvelopeRecords) and self._epsilon == other._epsilon:
            return self._rows == other._rows
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        # the hash of the tuple of the same records, which compares equal
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<{len(self)} envelope records>"


def kernel_rows(records: Sequence[EnvelopeRecord]) -> Sequence[tuple]:
    """The records as kernel row tuples, the shape EnvelopeRecords keeps."""
    if isinstance(records, EnvelopeRecords):
        return records._rows
    return [rec._row for rec in records]


class VerificationReport(Frozen):
    """Aggregate outcome of one (center, epsilon) run.

    build_envelope fills ``records`` with an EnvelopeRecords; any other
    sequence of EnvelopeRecord works for the writers too.
    """

    __slots__ = (
        "params", "records", "neighbor_count", "all_bounds_hold",
        "max_deviation", "max_endpoint_gap",
    )
    params: EnvelopeParams
    records: Sequence[EnvelopeRecord]
    neighbor_count: int
    all_bounds_hold: bool
    max_deviation: float
    max_endpoint_gap: float

    def __init__(
        self,
        params: EnvelopeParams,
        records: Sequence[EnvelopeRecord],
        neighbor_count: int,
        all_bounds_hold: bool,
        max_deviation: float,
        max_endpoint_gap: float,
    ):
        setfield(self, "params", params)
        setfield(self, "records", records)
        setfield(self, "neighbor_count", neighbor_count)
        setfield(self, "all_bounds_hold", all_bounds_hold)
        setfield(self, "max_deviation", max_deviation)
        setfield(self, "max_endpoint_gap", max_endpoint_gap)


class SweepResult(Frozen):
    """One (center, epsilon) combination: a report, or why it was skipped."""

    __slots__ = ("center", "epsilon", "report", "skip_reason")
    center: Center
    epsilon: float
    report: VerificationReport | None
    skip_reason: str | None

    def __init__(
        self,
        center: Center,
        epsilon: float,
        report: VerificationReport | None,
        skip_reason: str | None,
    ):
        setfield(self, "center", center)
        setfield(self, "epsilon", epsilon)
        setfield(self, "report", report)
        setfield(self, "skip_reason", skip_reason)


def bezout_segment(pair: CoprimePair) -> Segment:
    """The segment from B(r, s) to B(s, r), as real points."""
    return _segment(kernels.pair_row(pair.r, pair.s, pair.r, pair.s))


def contact_parameter(pair: CoprimePair) -> float:
    """Parameter at which the pair's segment meets the chord family.

    t = 1 - (a*r + b*s) / (r^2 + s^2) for (a, b) = B(r, s); always
    strictly inside (0, 1).  Note the complement: the projection of
    B(r, s) onto the (r, s) ray sits at 1 - t, not t.
    """
    # t does not depend on the center, so the pair serves as one
    return kernels.pair_row(pair.r, pair.s, pair.r, pair.s)[6]


def endpoint_gaps(pair: CoprimePair, params: EnvelopeParams) -> tuple[float, float]:
    """Distances from the segment endpoints to the chord endpoints.

    gap_alpha = ||B(r,s) - alpha(t0)|| and gap_beta = ||B(s,r) - beta(t0)||
    at t0 = contact_parameter(pair).  Requires the pair to lie within
    distance epsilon of the center; both gaps are then below epsilon + 1.
    """
    p, q = params.center.p, params.center.q
    r, s = pair.r, pair.s
    dr = r - p
    ds = s - q
    if float(dr * dr + ds * ds) > params.epsilon * params.epsilon:
        raise HypothesisError(
            f"requires ||(r,s)-(p,q)|| <= epsilon (pair ({r}, {s}) lies "
            f"{math.hypot(dr, ds)} from ({p}, {q}) with epsilon = "
            f"{params.epsilon})"
        )
    return kernels.pair_row(p, q, r, s)[7:9]


def build_envelope(params: EnvelopeParams) -> VerificationReport:
    """Measure every coprime neighbor within radius epsilon - 1.

    Records are sorted lexicographically by (r, s); an empty
    enumeration yields a vacuously passing report.  One pass over the
    kernel rows verifies, for every row, a*s - b*r == 1, the box
    0 < a <= r, 0 <= b < s, the flip (a_flip, b_flip) == (s - b, r - a)
    and r, s <= 2**31.  Those imply what the record types check one at
    a time: gcd(r, s) == 1, r, s >= 1, the flipped pair's identity and
    box, and finite (integer) segment endpoints.  A row that fails
    raises DomainError naming its pair.
    """
    p, q = params.center.p, params.center.q
    eps = params.epsilon
    rows = kernels.envelope_scan(p, q, params.radius)
    max_dev = 0.0
    max_gap = 0.0
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
    return VerificationReport(
        params=params,
        records=EnvelopeRecords(rows, eps),
        neighbor_count=len(rows),
        all_bounds_hold=all_ok,
        max_deviation=max_dev,
        max_endpoint_gap=max_gap,
    )


def sweep_one(center: Center, epsilon: float) -> SweepResult:
    """Run one combination, capturing invalid parameters as skips."""
    try:
        params = EnvelopeParams(center, epsilon)
    except (DomainError, HypothesisError) as exc:
        return SweepResult(center, epsilon, None, str(exc))
    return SweepResult(center, epsilon, build_envelope(params), None)


def audit_sweep(
    centers: list[Center], epsilons: list[float]
) -> list[SweepResult]:
    """Run every (center, epsilon) combination, centers outermost.

    Invalid combinations come back as skips naming the violated
    hypothesis.
    """
    return [sweep_one(center, eps) for center in centers for eps in epsilons]
