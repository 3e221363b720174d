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

from ._backend import kernels
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
    """One coprime neighbor with its segment and measured deviations."""

    __slots__ = (
        "pair", "coeffs", "flipped", "segment", "t_contact",
        "gap_alpha", "gap_beta", "deviation", "bound_ok", "degenerate",
    )
    pair: CoprimePair
    coeffs: BezoutCoeffs  # B(r, s): segment start
    flipped: BezoutCoeffs  # B(s, r): segment end
    segment: Segment
    t_contact: float
    gap_alpha: float
    gap_beta: float
    deviation: float
    bound_ok: bool
    degenerate: bool  # only (1, 1): the segment collapses to a point

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
        setfield(self, "pair", pair)
        setfield(self, "coeffs", coeffs)
        setfield(self, "flipped", flipped)
        setfield(self, "segment", segment)
        setfield(self, "t_contact", t_contact)
        setfield(self, "gap_alpha", gap_alpha)
        setfield(self, "gap_beta", gap_beta)
        setfield(self, "deviation", deviation)
        setfield(self, "bound_ok", bound_ok)
        setfield(self, "degenerate", degenerate)


# Records built from rows that build_envelope has verified set their
# fields directly: the constructors' checks would only repeat the bulk
# verification, at several times the cost.
_new = object.__new__


def _coeffs(a: int, b: int, pair: CoprimePair) -> BezoutCoeffs:
    coeffs = _new(BezoutCoeffs)
    setfield(coeffs, "a", a)
    setfield(coeffs, "b", b)
    setfield(coeffs, "pair", pair)
    return coeffs


def _point(x: float, y: float) -> Point2:
    point = _new(Point2)
    setfield(point, "x", x)
    setfield(point, "y", y)
    return point


class EnvelopeRecords(Sequence):
    """Immutable sequence of EnvelopeRecord over verified kernel rows.

    Holds the kernel's tuples (r, s, a, b, a_flip, b_flip, t_contact,
    gap_alpha, gap_beta, deviation), already checked by build_envelope;
    a record is built only when it is accessed.
    Compares equal to any sequence of equal records.
    """

    __slots__ = ("_rows", "_epsilon")

    def __init__(self, rows: Sequence[tuple], epsilon: float):
        self._rows = rows
        self._epsilon = epsilon

    def _record(self, row: tuple) -> EnvelopeRecord:
        r, s, a, b, af, bf, t, gap_a, gap_b, dev = row
        pair = _verified_pair(r, s)
        # positional, in field order: keywords would cost a dict per record
        return EnvelopeRecord(
            pair,
            _coeffs(a, b, pair),
            _coeffs(af, bf, _verified_pair(s, r)),
            Segment(_point(float(a), float(b)), _point(float(af), float(bf))),
            t,
            gap_a,
            gap_b,
            dev,
            dev < self._epsilon,
            r == s,
        )

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

    def __repr__(self) -> str:
        return f"<{len(self)} envelope records>"


def kernel_rows(records: Sequence[EnvelopeRecord]) -> Sequence[tuple]:
    """The records as kernel row tuples, the shape EnvelopeRecords keeps.

    build_envelope's records give their rows back as they are; any other
    sequence of records is converted.
    """
    if isinstance(records, EnvelopeRecords):
        return records._rows
    return [
        (
            rec.pair.r,
            rec.pair.s,
            rec.coeffs.a,
            rec.coeffs.b,
            rec.flipped.a,
            rec.flipped.b,
            rec.t_contact,
            rec.gap_alpha,
            rec.gap_beta,
            rec.deviation,
        )
        for rec in records
    ]


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
    a, b = kernels.bezout_normalized(pair.r, pair.s)
    return Segment(
        Point2(float(a), float(b)),
        Point2(float(pair.s - b), float(pair.r - a)),
    )


def contact_parameter(pair: CoprimePair) -> float:
    """Parameter at which the pair's segment meets the chord family.

    t = 1 - (a*r + b*s) / (r^2 + s^2) for (a, b) = B(r, s); always
    strictly inside (0, 1).  Note the complement: the projection of
    B(r, s) onto the (r, s) ray sits at 1 - t, not t.
    """
    a, b = kernels.bezout_normalized(pair.r, pair.s)
    r, s = pair.r, pair.s
    return 1.0 - float(a * r + b * s) / float(r * r + s * s)


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
    a, b = kernels.bezout_normalized(r, s)
    t = 1.0 - float(a * r + b * s) / float(r * r + s * s)
    u = 1.0 - t
    gax = a - u * p
    gay = b - u * q
    gbx = (s - b) - t * q
    gby = (r - a) - t * p
    return math.sqrt(gax * gax + gay * gay), math.sqrt(gbx * gbx + gby * gby)


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
    rows = kernels.envelope_scan(p, q, eps - 1.0)
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
