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
    bezout_coefficients,
    bezout_segment,
    build_envelope,
    contact_parameter,
    coprime_neighbors,
    endpoint_gaps,
    quad_point,
    segment_distance,
    tangent_segment,
    to_csv,
)

from bezout_bezier import _kernels_py, envelope
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
        with pytest.raises(DomainError) as excinfo:
            EnvelopeParams(Center(2**31, 2**31 - 1), 3.0)
        assert str(excinfo.value) == (
            "requires p + epsilon <= 2**31 and q + epsilon <= 2**31 so that every "
            "neighbor stays in the supported range "
            "(got p = 2147483648, q = 2147483647 and epsilon = 3.0)"
        )

    @pytest.mark.parametrize("epsilon", [300000003.0, 300000001.0])
    def test_gap_limit_is_the_disk_rule(self, epsilon):
        # the kernels' rounded limit, set once: epsilon**2 rounds up at the
        # first and down at the second (tests/test_kernels.py)
        params = EnvelopeParams(Center(600000016, 0), epsilon)
        assert params.gap_limit == _kernels_py.disk_limit(epsilon)


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
        assert list(report.records) == [] and report.rows == []
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
    """report.records builds records on access from the rows of its own
    scan; a store is its params."""

    PARAMS = EnvelopeParams(Center(50, 29), 5.0)

    def test_sequence_protocol(self):
        report = build_envelope(self.PARAMS)
        records = report.records
        listed = list(records)
        assert len(records) == len(listed) == report.neighbor_count > 3
        assert records[-1] == listed[-1]
        assert records[1:3] == tuple(listed[1:3])
        assert records[::-2] == tuple(listed[::-2])
        assert list(reversed(records)) == listed[::-1]
        assert records.index(listed[2]) == 2 and listed[2] in records
        with pytest.raises(IndexError):
            records[len(listed)]
        with pytest.raises(TypeError):
            records[0] = listed[0]

    @pytest.mark.parametrize(
        "i, j, step", [(1, 3, None), (None, None, -2), (-4, None, None), (3, 3, None)]
    )
    def test_a_slice_is_a_tuple_of_records(self, i, j, step):
        report = build_envelope(self.PARAMS)
        records = report.records
        part = records[i:j:step]
        assert type(part) is tuple
        assert part == tuple(records)[i:j:step]
        assert [rec._row for rec in part] == report.rows[i:j:step]

    def test_unequal_to_any_sequence_and_printed_as_its_params(self):
        records = build_envelope(self.PARAMS).records
        assert (records == 5) is False
        assert (records != 5) is True
        listed = list(records)
        assert records != listed and listed != records
        assert records != tuple(listed)
        assert repr(records) == f"EnvelopeRecords(params={self.PARAMS!r})"

    def test_no_store_holds_invented_rows(self):
        # a store's class, reached through a report, takes no rows
        params = EnvelopeParams(Center(10, 3), 2.0)
        invented = [(10, 3, 7, 2, 1, 3, 0.5, 0.0, 0.0, 0.0)]
        with pytest.raises(TypeError):
            type(build_envelope(params).records)(invented, params)
        # its one constructor scans: the record holds the kernel's deviation
        rec = EnvelopeRecords(params)[0]
        assert rec == EnvelopeRecord(CoprimePair(10, 3), params)
        assert rec.deviation == pytest.approx(0.0862, abs=1e-4)

    def test_records_equal_validated_construction(self):
        report = build_envelope(EnvelopeParams(Center(40, 17), 4.0))
        for rec in report.records:
            pair = CoprimePair(rec.pair.r, rec.pair.s)
            built = EnvelopeRecord(pair, report.params)
            assert rec == built
            assert repr(rec._row) == repr(built._row)
            assert rec.coeffs == bezout_coefficients(pair)
            assert rec.flipped == bezout_coefficients(CoprimePair(pair.s, pair.r))
            assert rec.segment == bezout_segment(pair)
            assert rec.degenerate == (pair.r == pair.s)

    def test_record_contract_matches_validated_construction(self):
        report = build_envelope(EnvelopeParams(Center(40, 17), 4.0))
        for rec in report.records:
            built = EnvelopeRecord(CoprimePair(rec.pair.r, rec.pair.s), report.params)
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
        same = VerificationReport(report.params)
        assert report == same and report.records == same.records
        assert hash(report) == hash(same) == hash((report.params,))
        assert hash(report.records) == hash(same.records) == hash((report.params,))

    def test_compare_and_hash_scan_nothing(self, monkeypatch):
        scans, records_built = [], []
        scan, record = envelope.kernels.envelope_scan, EnvelopeRecords._record

        def counting_scan(*args):
            scans.append(args)
            return scan(*args)

        def counting_record(self, row):
            records_built.append(row)
            return record(self, row)

        monkeypatch.setattr(envelope.kernels, "envelope_scan", counting_scan)
        monkeypatch.setattr(EnvelopeRecords, "_record", counting_record)
        a, b = EnvelopeRecords(self.PARAMS), EnvelopeRecords(self.PARAMS)
        other = EnvelopeRecords(EnvelopeParams(Center(50, 29), 4.0))
        assert len(scans) == 3 and len(a) > 3
        assert a == b and not a != b and a != other
        assert hash(a) == hash(b) != hash(other)
        assert len(scans) == 3 and records_built == []

    def test_pickles_and_copies_as_its_params(self):
        records = build_envelope(self.PARAMS).records
        copies = [
            pickle.loads(pickle.dumps(records, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        copies += [copy.copy(records), copy.deepcopy(records)]
        for copied in copies:
            assert type(copied) is EnvelopeRecords and copied == records
            assert copied._rows is not records._rows
            assert repr(copied._rows) == repr(records._rows)


class TestReportBoundary:
    """A report is its params: its constructor runs the one scan and keeps
    the rows as one EnvelopeRecords; the fold, the writers and the text
    format read that store's rows.  No record list can enter a report."""

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

    def test_a_record_holds_the_numbers_the_kernel_computed(self, built):
        # its numbers cannot be given, only the pair and params
        with pytest.raises(TypeError):
            EnvelopeRecord(CoprimePair(10, 3), self.PARAMS, 0.0)
        rec = EnvelopeRecord(CoprimePair(10, 3), self.PARAMS)
        assert rec == built.records[0]
        assert rec.deviation == pytest.approx(0.0862, abs=1e-4)
        assert rec.gap_alpha == pytest.approx(0.0958, abs=1e-4)
        assert rec.gap_beta == pytest.approx(0.0958, abs=1e-4)
        line = to_csv(built).splitlines()[1]
        assert line.startswith("10,3,")
        assert line.endswith(",0.0957826285221,0.0957826285221,0.0862155212583,true")

    def test_no_record_list_enters_a_report(self, built):
        # out-of-disk and repeated pairs: (3, 5) lies 7.3 from (10, 3)
        rec = EnvelopeRecord(CoprimePair(3, 5), self.PARAMS)
        with pytest.raises(TypeError):
            VerificationReport(self.PARAMS, [rec] * 2)
        # nor a store, not even one of the report's own scan (and no store
        # of invented rows can be built: test_no_store_holds_invented_rows)
        with pytest.raises(TypeError):
            VerificationReport(self.PARAMS, built.records)
        # the kernel still measures the FAIL, per record: deviation 2.28
        assert rec.deviation == pytest.approx(2.2838, abs=1e-4)
        assert not rec.bound_ok
        assert built.all_bounds_hold

    def test_hand_built_report_pickles_and_copies(self, built):
        # a report from the constructor pickles and copies as its params
        report = VerificationReport(self.PARAMS)
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
            assert repr(copied.rows) == repr(built.rows)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            records = pickle.loads(pickle.dumps(built.records, protocol))
            assert type(records) is EnvelopeRecords and records == built.records

    def test_a_pickle_holds_only_the_params(self):
        report = build_envelope(EnvelopeParams(Center(5000, 1234), 20.0))
        # 678 rows: the rows alone pickle to about 38 kB
        assert report.neighbor_count == 678
        assert len(pickle.dumps(report)) < 1000
