import copy
import math
import pickle
import random

import pytest

from bezout_bezier import (
    BezoutCoeffs,
    Center,
    CoprimePair,
    DomainError,
    EnvelopeParams,
    EnvelopeRecord,
    HypothesisError,
    Point2,
    QuadBezier,
    Segment,
    VerificationReport,
    audit_sweep,
    bezout_coefficients,
    bezout_segment,
    build_envelope,
    contact_parameter,
    coprime_neighbors,
    endpoint_gaps,
    quad_point,
    segment_distance,
    sweep_one,
    tangent_segment,
    to_csv,
    to_svg,
)

from bezout_bezier import envelope
from bezout_bezier.envelope import EnvelopeRecords
from oracles import bezout_solutions_by_search


class TestEnvelopeParams:
    def test_valid(self):
        params = EnvelopeParams(Center(300, 21), 2.0)
        assert params.radius == 1.0

    def test_p_too_small(self):
        with pytest.raises(HypothesisError, match="p > 3"):
            EnvelopeParams(Center(3, 1), 2.0)

    def test_q_not_below_p(self):
        with pytest.raises(HypothesisError, match="q < p"):
            EnvelopeParams(Center(4, 7), 2.0)

    def test_epsilon_lower_bound(self):
        with pytest.raises(HypothesisError, match="epsilon > 1"):
            EnvelopeParams(Center(10, 3), 0.5)
        with pytest.raises(HypothesisError, match="epsilon > 1"):
            EnvelopeParams(Center(10, 3), 1.0)

    def test_epsilon_upper_bound(self):
        half = 0.5 * math.hypot(10, 3)
        EnvelopeParams(Center(10, 3), half)  # boundary is allowed
        with pytest.raises(HypothesisError, match="epsilon <="):
            EnvelopeParams(Center(10, 3), half + 0.01)

    def test_epsilon_must_be_finite(self):
        with pytest.raises(HypothesisError):
            EnvelopeParams(Center(10, 3), float("nan"))

    def test_range_top(self):
        EnvelopeParams(Center(2**31 - 8, 2**31 - 9), 8.0)  # boundary is allowed
        with pytest.raises(DomainError, match=r"p \+ epsilon <= 2\*\*31"):
            EnvelopeParams(Center(2**31 - 8, 2**31 - 9), 8.5)
        with pytest.raises(DomainError, match="p = 2147483648 and epsilon = 3"):
            EnvelopeParams(Center(2**31, 2**31 - 1), 3.0)


class TestBezoutSegment:
    def test_small_pair(self):
        # B(3,5) = (2,3), B(5,3) = (2,1), both frozen from the search oracle
        seg = bezout_segment(CoprimePair(3, 5))
        assert seg == Segment(Point2(2.0, 3.0), Point2(2.0, 1.0))

    def test_degenerate_pair(self):
        seg = bezout_segment(CoprimePair(1, 1))
        assert seg == Segment(Point2(1.0, 0.0), Point2(1.0, 0.0))
        assert seg.length() == 0.0

    def test_reference_pair(self):
        seg = bezout_segment(CoprimePair(299, 21))
        assert seg == Segment(Point2(57.0, 4.0), Point2(17.0, 242.0))


class TestContactParameter:
    def test_degenerate_pair(self):
        assert contact_parameter(CoprimePair(1, 1)) == 0.5

    def test_small_pair(self):
        # 1 - (2*3 + 3*5)/34
        assert contact_parameter(CoprimePair(3, 5)) == pytest.approx(
            13 / 34, abs=1e-15
        )

    def test_reference_pair(self):
        # 1 - (57*299 + 4*21)/89842
        assert contact_parameter(CoprimePair(299, 21)) == pytest.approx(
            72715 / 89842, abs=1e-15
        )

    def test_always_strictly_interior(self):
        rng = random.Random(23)
        seen = 0
        while seen < 100_000:
            r = rng.randint(1, 10**4)
            s = rng.randint(1, 10**4)
            if math.gcd(r, s) != 1:
                continue
            seen += 1
            t = contact_parameter(CoprimePair(r, s))
            assert 0.0 < t < 1.0


class TestEndpointGaps:
    def test_reference_neighbor(self):
        # gaps are independent of epsilon; any admissible epsilon shows
        # the epsilon + 1 bound for the distance-1 neighbor
        params = EnvelopeParams(Center(300, 21), 1.5)
        gap_a, gap_b = endpoint_gaps(CoprimePair(299, 21), params)
        assert gap_a < 2.0
        assert gap_b < 2.0

    def test_center_itself(self):
        # the pair (p, q) collapses both gaps to the projection distance
        # 1 / ||(p, q)||
        params = EnvelopeParams(Center(10, 3), 2.0)
        gap_a, gap_b = endpoint_gaps(CoprimePair(10, 3), params)
        expected = 1.0 / math.hypot(10, 3)
        assert gap_a == pytest.approx(expected, abs=1e-12)
        assert gap_b == pytest.approx(expected, abs=1e-12)

    def test_distant_pair_rejected(self):
        # ||(4,5) - (5,4)|| = sqrt(2) > 1.2
        params = EnvelopeParams(Center(5, 4), 1.2)
        with pytest.raises(HypothesisError, match="<= epsilon"):
            endpoint_gaps(CoprimePair(4, 5), params)

    def test_pair_on_the_circle_is_accepted(self):
        # (27, 11) - (30, 7) = (-3, 4): exactly epsilon away
        params = EnvelopeParams(Center(30, 7), 5.0)
        gap_a, gap_b = endpoint_gaps(CoprimePair(27, 11), params)
        assert gap_a < 6.0 and gap_b < 6.0

    def test_nearest_lattice_point_outside_is_refused(self):
        # (35, 8) - (30, 7) = (5, 1): squared distance 26, the next one past 25
        params = EnvelopeParams(Center(30, 7), 5.0)
        with pytest.raises(HypothesisError) as excinfo:
            endpoint_gaps(CoprimePair(35, 8), params)
        assert str(excinfo.value) == (
            "requires ||(r,s)-(p,q)|| <= epsilon (pair (35, 8) lies "
            "5.0990195135927845 from (30, 7) with epsilon = 5.0)"
        )

    def test_membership_is_exact_beyond_2_53(self):
        # squared distance 2**54 + 1 against epsilon**2 = 2**54: cast to a
        # float, the distance rounds to 2**54 and the pair would pass
        p = 2**30
        params = EnvelopeParams(Center(p, 0), 2.0**27)
        assert float(2**54 + 1) == params.epsilon**2
        with pytest.raises(HypothesisError, match=r"pair \(939524096, 1\) lies"):
            endpoint_gaps(CoprimePair(p - 2**27, 1), params)


class TestBuildEnvelope:
    def test_reference_center(self):
        report = build_envelope(EnvelopeParams(Center(300, 21), 2.0))
        assert report.neighbor_count == 1
        assert report.all_bounds_hold
        rec = report.records[0]
        assert rec.pair.as_tuple() == (299, 21)
        assert rec.coeffs.as_tuple() == (57, 4)
        assert rec.flipped.as_tuple() == (17, 242)
        assert rec.deviation < 2.0
        assert rec.bound_ok
        assert not rec.degenerate
        assert 0.0 < rec.t_contact < 1.0

    def test_record_fields_are_consistent(self):
        report = build_envelope(EnvelopeParams(Center(40, 17), 4.0))
        assert report.neighbor_count > 1
        for rec in report.records:
            # segment endpoints are exactly the coefficients
            assert rec.segment.start == Point2(
                float(rec.coeffs.a), float(rec.coeffs.b)
            )
            assert rec.segment.end == Point2(
                float(rec.flipped.a), float(rec.flipped.b)
            )
            # flipped really is the flipped pair's coefficients
            assert rec.flipped.pair.as_tuple() == (rec.pair.s, rec.pair.r)
            # the search oracle confirms the coefficients
            assert [rec.coeffs.as_tuple()] == bezout_solutions_by_search(
                rec.pair.r, rec.pair.s
            )
            assert rec.bound_ok == (rec.deviation < 4.0)
            assert contact_parameter(rec.pair) == rec.t_contact
            gap_a, gap_b = endpoint_gaps(rec.pair, report.params)
            assert gap_a == rec.gap_alpha
            assert gap_b == rec.gap_beta

    def test_deviation_matches_direct_evaluation(self):
        report = build_envelope(EnvelopeParams(Center(40, 17), 4.0))
        curve = QuadBezier(40, 17)
        for rec in report.records:
            on_segment = rec.segment.point_at(rec.t_contact)
            on_curve = quad_point(curve, rec.t_contact)
            assert on_segment.distance_to(on_curve) == pytest.approx(
                rec.deviation, abs=1e-12
            )

    def test_records_sorted_lexicographically(self):
        report = build_envelope(EnvelopeParams(Center(50, 29), 5.0))
        tuples = [rec.pair.as_tuple() for rec in report.records]
        assert tuples == sorted(tuples)

    def test_empty_enumeration_passes_vacuously(self):
        # radius 0.5 around the non-coprime (300, 21) holds no pair
        report = build_envelope(EnvelopeParams(Center(300, 21), 1.5))
        assert report.neighbor_count == 0
        assert report.records == []
        assert report.all_bounds_hold
        assert report.max_deviation == 0.0
        assert report.max_endpoint_gap == 0.0

    def test_figure_scale_center(self):
        report = build_envelope(EnvelopeParams(Center(10**6, 2 * 10**5), 10.0))
        assert report.neighbor_count >= 1
        assert report.all_bounds_hold
        assert report.max_deviation < 10.0

    def test_aggregates(self):
        report = build_envelope(EnvelopeParams(Center(30, 13), 3.0))
        assert report.max_deviation == max(r.deviation for r in report.records)
        assert report.max_endpoint_gap == max(
            max(r.gap_alpha, r.gap_beta) for r in report.records
        )
        assert report.all_bounds_hold == all(r.bound_ok for r in report.records)


class TestDeviationBound:
    """deviation < epsilon for every neighbor within epsilon - 1."""

    def test_moderate_sweep(self):
        # the acceptance suite runs the full sweep; this covers a slice
        # and additionally checks each segment against the tangent chord
        # at its contact parameter (the step the deviation bound rides on)
        for p in range(5, 26):
            for q in range(0, p):
                curve = QuadBezier(p, q)
                half = 0.5 * math.hypot(p, q)
                for eps in (2.0, 3.0, half):
                    if not 1.0 < eps <= half:
                        continue
                    report = build_envelope(EnvelopeParams(Center(p, q), eps))
                    for rec in report.records:
                        assert rec.deviation < eps
                        assert rec.bound_ok
                        chord = tangent_segment(curve, rec.t_contact)
                        assert segment_distance(rec.segment, chord) < eps

    def test_segment_stays_near_tangent_chord_large_center(self):
        params = EnvelopeParams(Center(50, 20), 5.0)
        curve = QuadBezier(50, 20)
        report = build_envelope(params)
        assert report.neighbor_count > 0
        for rec in report.records:
            chord = tangent_segment(curve, rec.t_contact)
            assert segment_distance(rec.segment, chord) < 5.0


class TestEndpointGapBound:
    """gap_alpha, gap_beta < epsilon + 1 for neighbors within epsilon."""

    def test_moderate_sweep(self):
        for p in range(5, 26):
            for q in range(0, p):
                half = 0.5 * math.hypot(p, q)
                for eps in (2.0, 3.0, half):
                    if not 1.0 < eps <= half:
                        continue
                    params = EnvelopeParams(Center(p, q), eps)
                    for pair in coprime_neighbors(Center(p, q), eps):
                        gap_a, gap_b = endpoint_gaps(pair, params)
                        assert gap_a < eps + 1.0
                        assert gap_b < eps + 1.0


class TestAuditSweep:
    def test_single_valid_combination(self):
        results = audit_sweep([Center(10, 3)], [2.0])
        assert len(results) == 1
        result = results[0]
        assert result.skip_reason is None
        assert result.report is not None
        assert result.report.all_bounds_hold
        for rec in result.report.records:
            assert rec.deviation < 2.0

    def test_epsilon_hypothesis_skip(self):
        results = audit_sweep([Center(10, 3)], [0.5])
        assert results[0].report is None
        assert "epsilon > 1" in results[0].skip_reason

    def test_center_hypothesis_skip(self):
        results = audit_sweep([Center(4, 7)], [2.0])
        assert results[0].report is None
        assert "q < p" in results[0].skip_reason

    def test_combination_order(self):
        centers = [Center(10, 3), Center(20, 7)]
        epsilons = [2.0, 3.0]
        results = audit_sweep(centers, epsilons)
        combos = [(r.center.p, r.center.q, r.epsilon) for r in results]
        assert combos == [(10, 3, 2.0), (10, 3, 3.0), (20, 7, 2.0), (20, 7, 3.0)]

    def test_matches_sweep_one(self):
        centers = [Center(p, 3) for p in range(5, 15)]
        epsilons = [2.0, 2.5]
        assert audit_sweep(centers, epsilons) == [
            sweep_one(c, e) for c in centers for e in epsilons
        ]

    def test_out_of_range_skip(self):
        (result,) = audit_sweep([Center(2**31, 2**31 - 1)], [3.0])
        assert result.report is None
        assert "p + epsilon <= 2**31" in result.skip_reason

    def test_sweep_one_matches_build_envelope(self):
        result = sweep_one(Center(12, 5), 2.0)
        direct = build_envelope(EnvelopeParams(Center(12, 5), 2.0))
        assert result.report == direct


class TestBulkVerification:
    """build_envelope checks every kernel row before keeping it."""

    # B(10, 3) = (7, 2), B(3, 10) = (1, 3)
    VALID = (10, 3, 7, 2, 1, 3, 0.5, 0.1, 0.1, 0.1)
    TOP = 2**31 + 1  # (TOP, 1) and (1, TOP) are coprime with B = (1, 0), (1, TOP - 1)

    def build_with_row(self, monkeypatch, row):
        monkeypatch.setattr(envelope.kernels, "envelope_scan", lambda p, q, r: [row])
        return build_envelope(EnvelopeParams(Center(10, 3), 2.0))

    def test_valid_row_is_kept(self, monkeypatch):
        report = self.build_with_row(monkeypatch, self.VALID)
        assert report.neighbor_count == 1
        assert report.records[0].coeffs == BezoutCoeffs(7, 2, CoprimePair(10, 3))

    @pytest.mark.parametrize(
        "row",
        [
            (10, 3, 6, 2, 1, 4, 0.5, 0.1, 0.1, 0.1),  # 6*3 - 2*10 != 1
            (10, 3, 17, 5, -2, -7, 0.5, 0.1, 0.1, 0.1),  # identity holds, a > r
            (10, 3, 7, 2, 1, 4, 0.5, 0.1, 0.1, 0.1),  # flip != (s - b, r - a)
            (TOP, 1, 1, 0, 1, TOP - 1, 0.5, 0.1, 0.1, 0.1),  # r > 2**31
            (1, TOP, 1, TOP - 1, 1, 0, 0.5, 0.1, 0.1, 0.1),  # s > 2**31
        ],
        ids=["identity", "box", "flip", "range-r", "range-s"],
    )
    def test_broken_row_raises(self, monkeypatch, row):
        with pytest.raises(DomainError, match=rf"\({row[0]}, {row[1]}\)"):
            self.build_with_row(monkeypatch, row)


class TestEnvelopeRecords:
    """report.records builds records on access from the verified rows."""

    def test_sequence_protocol(self):
        report = build_envelope(EnvelopeParams(Center(50, 29), 5.0))
        records = report.records
        listed = list(records)
        assert len(records) == len(listed) == report.neighbor_count > 3
        assert records[-1] == listed[-1]
        assert records[1:3] == listed[1:3]
        assert records[::-2] == listed[::-2]
        assert records == listed and listed == records
        assert records != listed[:-1]
        assert records[1:] != listed[:-1]
        with pytest.raises(IndexError):
            records[len(listed)]
        with pytest.raises(TypeError):
            records[0] = listed[0]

    def test_stores_of_a_list_and_a_tuple_are_equal(self):
        params = EnvelopeParams(Center(10, 3), 2.0)
        built = build_envelope(params)
        rows = built.rows
        as_list = EnvelopeRecords(list(rows), 2.0)
        as_tuple = EnvelopeRecords(tuple(rows), 2.0)
        assert as_list == as_tuple and as_tuple == as_list
        assert hash(as_list) == hash(as_tuple)
        assert as_list != EnvelopeRecords(tuple(rows[:-1]), 2.0)
        assert as_list != EnvelopeRecords(tuple(reversed(rows)), 2.0)
        assert VerificationReport(params, as_tuple) == built

    def test_unequal_to_a_non_sequence_and_printed_by_length(self):
        records = build_envelope(EnvelopeParams(Center(50, 29), 5.0)).records
        assert (records == 5) is False
        assert (records != 5) is True
        assert repr(records) == f"<{len(records)} envelope records>"

    def test_records_equal_validated_construction(self):
        report = build_envelope(EnvelopeParams(Center(40, 17), 4.0))
        for rec in report.records:
            pair = CoprimePair(rec.pair.r, rec.pair.s)
            coeffs = BezoutCoeffs(rec.coeffs.a, rec.coeffs.b, pair)
            flipped = BezoutCoeffs(
                rec.flipped.a, rec.flipped.b, CoprimePair(pair.s, pair.r)
            )
            assert rec == EnvelopeRecord(
                pair=pair,
                coeffs=coeffs,
                flipped=flipped,
                segment=Segment(
                    Point2(float(coeffs.a), float(coeffs.b)),
                    Point2(float(flipped.a), float(flipped.b)),
                ),
                t_contact=rec.t_contact,
                gap_alpha=rec.gap_alpha,
                gap_beta=rec.gap_beta,
                deviation=rec.deviation,
                bound_ok=rec.deviation < 4.0,
                degenerate=pair.r == pair.s,
            )

    def test_record_contract_matches_validated_construction(self):
        report = build_envelope(EnvelopeParams(Center(40, 17), 4.0))
        for rec in report.records:
            pair = CoprimePair(rec.pair.r, rec.pair.s)
            flipped_pair = CoprimePair(pair.s, pair.r)
            built = EnvelopeRecord(
                pair,
                bezout_coefficients(pair),
                bezout_coefficients(flipped_pair),
                bezout_segment(pair),
                contact_parameter(pair),
                rec.gap_alpha,
                rec.gap_beta,
                rec.deviation,
                rec.deviation < 4.0,
                pair.r == pair.s,
            )
            assert repr(rec) == repr(built)
            assert rec == built and built == rec
            assert hash(rec) == hash(built)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copied = pickle.loads(pickle.dumps(rec, protocol))
                assert copied == rec and repr(copied) == repr(rec)
            copied = copy.deepcopy(rec)
            assert copied == rec and repr(copied) == repr(rec)

    def test_one_object_per_record(self):
        report = build_envelope(EnvelopeParams(Center(50, 29), 5.0))
        records, rows = report.records, report.rows
        assert len(rows) == len(records) > 3
        for i, rec in enumerate(records):
            assert rec._row is rows[i]
            assert records[i]._row is rows[i]

    def test_report_hash(self):
        report = build_envelope(EnvelopeParams(Center(50, 29), 5.0))
        same = VerificationReport(report.params, tuple(report.records))
        assert report == same
        assert hash(report) == hash(same)
        assert hash(report.records) == hash(tuple(report.records))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("coeffs", BezoutCoeffs(2, 3, CoprimePair(5, 8))),
            ("flipped", BezoutCoeffs(1, 0, CoprimePair(2, 1))),
            ("segment", Segment(Point2(2.0, 1.0), Point2(2.0, 3.0))),
            ("degenerate", True),
        ],
    )
    def test_contradicting_record_raises(self, field, value):
        fields = _record_fields()
        EnvelopeRecord(**fields)
        fields[field] = value
        with pytest.raises(DomainError, match=rf"^record for \(3, 5\): {field} = "):
            EnvelopeRecord(**fields)

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("t_contact", "0.5", "a number"),
            ("gap_alpha", None, "a number"),
            ("gap_beta", True, "a number"),
            ("deviation", [0.1], "a number"),
            ("bound_ok", 1, "a bool"),
            ("bound_ok", "true", "a bool"),
            ("bound_ok", None, "a bool"),
        ],
    )
    def test_field_of_the_wrong_type_raises(self, field, value, kind):
        fields = _record_fields()
        fields[field] = value
        with pytest.raises(DomainError) as excinfo:
            EnvelopeRecord(**fields)
        assert str(excinfo.value) == (
            f"record for (3, 5): {field} must be {kind} (got {value!r})"
        )

    def test_int_reals_are_accepted(self):
        fields = _record_fields()
        fields.update(t_contact=1, gap_alpha=0, gap_beta=2, deviation=0)
        rec = EnvelopeRecord(**fields)
        assert (rec.t_contact, rec.deviation) == (1, 0)
        report = VerificationReport(EnvelopeParams(Center(10, 3), 2.0), [rec])
        assert report.max_deviation == 0 and report.all_bounds_hold


def _record_fields():
    """The ten fields of a consistent record for (3, 5): B(3, 5) = (2, 3)
    and B(5, 3) = (2, 1)."""
    pair = CoprimePair(3, 5)
    return dict(
        pair=pair,
        coeffs=BezoutCoeffs(2, 3, pair),
        flipped=BezoutCoeffs(2, 1, CoprimePair(5, 3)),
        segment=Segment(Point2(2.0, 3.0), Point2(2.0, 1.0)),
        t_contact=0.5,
        gap_alpha=0.25,
        gap_beta=0.125,
        deviation=0.75,
        bound_ok=True,
        degenerate=False,
    )


def _with_bound_ok(rec, bound_ok):
    """`rec` with its bound_ok replaced."""
    return EnvelopeRecord(
        rec.pair, rec.coeffs, rec.flipped, rec.segment, rec.t_contact,
        rec.gap_alpha, rec.gap_beta, rec.deviation, bound_ok, rec.degenerate,
    )


_REFUSED = (
    r"^records\[{}\] must be an EnvelopeRecord "
    r"with bound_ok = \(deviation < epsilon\)$"
)


class TestReportBoundary:
    """A report converts its records once, in its constructor, into one
    EnvelopeRecords at its epsilon; the fold, the writers and the text
    format read that store's rows."""

    PARAMS = EnvelopeParams(Center(10, 3), 2.0)

    @pytest.fixture
    def built(self):
        report = build_envelope(self.PARAMS)
        assert report.neighbor_count == 2
        return report

    def test_build_envelope_keeps_the_scanned_list(self, monkeypatch):
        scans = []
        scan = envelope.kernels.envelope_scan

        def recording_scan(*args):
            scans.append(scan(*args))
            return scans[-1]

        monkeypatch.setattr(envelope.kernels, "envelope_scan", recording_scan)
        report = build_envelope(self.PARAMS)
        assert report.rows is scans[0]
        assert report.records._rows is scans[0]

    @pytest.mark.parametrize(
        "make",
        [
            lambda report: list(report.records),
            lambda report: tuple(report.records),
            lambda report: (rec for rec in report.records),
            lambda report: EnvelopeRecords(list(report.rows), 2.0),
            lambda report: EnvelopeRecords(list(report.rows), 3.0),
        ],
        ids=["list", "tuple", "generator", "records", "records at epsilon 3"],
    )
    def test_accepted_records_become_one_store(self, built, make):
        report = VerificationReport(self.PARAMS, make(built))
        assert type(report.records) is EnvelopeRecords
        assert report.records._epsilon == self.PARAMS.epsilon
        assert report.rows == built.rows
        assert report == built and hash(report) == hash(built)
        assert repr(report) == (
            f"VerificationReport(params={self.PARAMS!r}, records=<2 envelope records>)"
        )
        assert to_csv(report) == to_csv(built)
        assert to_svg(report) == to_svg(built)

    def test_a_list_cleared_after_the_report_changes_nothing(self, built):
        records = list(built.records)
        report = VerificationReport(self.PARAMS, records)
        records.clear()
        assert report.neighbor_count == len(report.records) == 2
        assert to_csv(report) == to_csv(built)
        assert to_svg(report) == to_svg(built)

    def test_a_contradicting_bound_ok_is_refused(self, built):
        first, second = built.records
        assert first.deviation == pytest.approx(0.086, abs=1e-3) and first.bound_ok
        with pytest.raises(DomainError, match=_REFUSED.format(0)):
            VerificationReport(self.PARAMS, [_with_bound_ok(first, False)])
        with pytest.raises(DomainError, match=_REFUSED.format(1)):
            VerificationReport(self.PARAMS, [first, _with_bound_ok(second, False)])

    @pytest.mark.parametrize(
        "item",
        [
            (10, 3, 7, 2, 1, 3, 0.5, 0.1, 0.1, 0.1),
            CoprimePair(10, 3),
            None,
        ],
        ids=["row tuple", "pair", "None"],
    )
    def test_an_item_that_is_not_a_record_is_refused(self, built, item):
        with pytest.raises(DomainError, match=_REFUSED.format(0)):
            VerificationReport(self.PARAMS, [item])
        with pytest.raises(DomainError, match=_REFUSED.format(2)):
            VerificationReport(self.PARAMS, [*built.records, item])

    def test_records_at_another_epsilon_are_checked(self):
        # (3, 5) with deviation 2.5: within epsilon 3, not within 2
        row = (3, 5, 2, 3, 2, 1, 0.5, 0.25, 0.125, 2.5)
        at_3 = EnvelopeRecords([row], 3.0)
        assert at_3[0].bound_ok
        with pytest.raises(DomainError, match=_REFUSED.format(0)):
            VerificationReport(self.PARAMS, at_3)
        # at the report's own epsilon the store is kept, and its bound fails
        at_2 = EnvelopeRecords([row], 2.0)
        report = VerificationReport(self.PARAMS, at_2)
        assert report.records is at_2
        assert not report.all_bounds_hold and not report.records[0].bound_ok

    def test_rows_is_a_read_only_property(self, built):
        assert "rows" not in VerificationReport._fields
        with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
            built.rows = []
        # nor can the store's rows be swapped after the fold
        with pytest.raises(AttributeError, match="cannot assign to field '_rows'"):
            built.records._rows = []
        assert len(built.rows) == 2

    def test_hand_built_report_pickles_and_copies(self, built):
        report = VerificationReport(self.PARAMS, list(built.records))
        copies = [
            pickle.loads(pickle.dumps(obj, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            for obj in (report, built)
        ]
        copies += [copy.copy(report), copy.deepcopy(report), copy.deepcopy(built)]
        for copied in copies:
            assert type(copied.records) is EnvelopeRecords
            assert copied == report and repr(copied) == repr(report)
            assert copied.rows == built.rows
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            records = pickle.loads(pickle.dumps(built.records, protocol))
            assert type(records) is EnvelopeRecords and records == built.records
