"""The kernels against the brute-force oracles and exact arithmetic."""

import math
import random
from fractions import Fraction
from operator import attrgetter, itemgetter

import pytest

from bezout_bezier import (
    Center,
    CoprimePair,
    DomainError,
    EnvelopeParams,
    EnvelopeRecord,
    HypothesisError,
    _kernels_py,
    build_envelope,
    contact_parameter,
    endpoint_gaps,
)
from oracles import (
    contact_parameter_exact,
    envelope_scan_by_pairs,
    gaps_and_deviation_exact,
    neighbors_by_bbox_scan,
)

CASES = [
    (300, 21, 1.0),
    (300, 21, 9.0),
    (5, 5, 1.0),
    (1, 0, 2.5),
    (1, 1, 3.0),
    (60, 59, 41.0),
    (10**6, 2 * 10**5, 9.0),
    (10**6, 6 * 10**5, 9.0),
]


def check_scan_row(row):
    r, s, a, b, af, bf, t, _gap_a, _gap_b, _dev = row
    assert a * s - b * r == 1
    assert 0 < a <= r
    assert 0 <= b < s
    assert (af, bf) == (s - b, r - a)
    assert 0.0 < t < 1.0


@pytest.mark.parametrize("p, q, radius", CASES)
def test_envelope_scan_rows(p, q, radius):
    rows = _kernels_py.envelope_scan(p, q, radius)
    assert [(row[0], row[1]) for row in rows] == neighbors_by_bbox_scan(p, q, radius)
    for row in rows:
        check_scan_row(row)


# Scans beyond CASES where the batch inversion meets its edge cases:
# rows with r == 1 (every inverse is 0), a row whose only coprime s is
# 5 (r = 6 in the disk around (6, 4)), the range top and the big disk.
PARITY_CASES = CASES + [
    (2, 1, 1.5),
    (6, 4, 1.0),
    (2**31 - 2, 2**31 - 7, 2.0),
    (100000, 30000, 199.0),
]


def _params(p, q, radius):
    """The params whose enumeration radius is `radius`, or None where the
    center or epsilon = radius + 1 breaks a hypothesis."""
    try:
        return EnvelopeParams(Center(p, q), radius + 1.0)
    except (DomainError, HypothesisError):
        return None


def random_small_scans(n, seed=41):
    rng = random.Random(seed)
    for _ in range(n):
        p = int(10 ** rng.uniform(0, 9))
        yield p, rng.randint(0, p), rng.uniform(0, 7)


@pytest.mark.parametrize("p, q, radius", PARITY_CASES)
def test_envelope_scan_equals_per_pair_loop(p, q, radius):
    assert _kernels_py.envelope_scan(p, q, radius) == envelope_scan_by_pairs(
        p, q, radius
    )


@pytest.mark.parametrize("p, q, radius", PARITY_CASES)
def test_disk_enumeration_matches_oracle(p, q, radius):
    assert _kernels_py.coprime_pairs_in_disk(p, q, radius) == (
        neighbors_by_bbox_scan(p, q, radius)
    )


def test_random_small_scans_equal_oracles():
    for p, q, radius in random_small_scans(2000):
        rows = _kernels_py.envelope_scan(p, q, radius)
        expected = envelope_scan_by_pairs(p, q, radius)
        assert rows == expected, (p, q, radius)
        for row in expected:
            single = _kernels_py.pair_row(p, q, row[0], row[1])
            assert single == row and repr(single) == repr(row), (p, q, radius)
        pairs = _kernels_py.coprime_pairs_in_disk(p, q, radius)
        assert pairs == neighbors_by_bbox_scan(p, q, radius), (p, q, radius)
        assert pairs == [(row[0], row[1]) for row in rows]


def test_envelope_scan_range_top():
    # every neighbor sits just below 2**31; the integer parts must be
    # exact and the floats must stay within rounding of exact rationals
    p, q, radius = 2**31 - 2, 2**31 - 7, 2.0
    rows = _kernels_py.envelope_scan(p, q, radius)
    assert [(row[0], row[1]) for row in rows] == neighbors_by_bbox_scan(p, q, radius)
    assert len(rows) == 8
    tol = 8 * p * 2.0**-53  # a few roundings of values near p
    for row in rows:
        check_scan_row(row)
        r, s, a, b, af, bf, t, gap_a, gap_b, dev = row
        t = Fraction(t)
        assert abs(t - contact_parameter_exact(r, s, a, b)) <= 2.0**-52
        u = 1 - t
        exact_gap_a = math.sqrt((a - u * p) ** 2 + (b - u * q) ** 2)
        exact_gap_b = math.sqrt((af - t * q) ** 2 + (bf - t * p) ** 2)
        dx = u * a + t * af - (u * u * p + t * t * q)
        dy = u * b + t * bf - (u * u * q + t * t * p)
        assert abs(gap_a - exact_gap_a) <= tol
        assert abs(gap_b - exact_gap_b) <= tol
        assert abs(dev - math.sqrt(dx * dx + dy * dy)) <= tol


def test_contact_parameter_error_at_the_range_top():
    # D = r*r + s*s has 63 bits here and M = a*r + b*s up to as many, so
    # float() rounds them; t still lies within the kernel docstring's 2**-51
    p, q, radius = 2**31 - 201, 2**30 + 5, 19.0
    rows = _kernels_py.envelope_scan(p, q, radius)
    assert len(rows) == 689
    assert any(float(r * r + s * s) != r * r + s * s for r, s, *_ in rows)
    for r, s, a, b, _af, _bf, t, *_ in rows:
        assert abs(Fraction(t) - contact_parameter_exact(r, s, a, b)) <= 2.0**-51


def test_bezout_box_and_identity_random():
    rng = random.Random(37)
    seen = 0
    while seen < 2000:
        r = rng.randint(1, 10**9)
        s = rng.randint(1, 10**9)
        if math.gcd(r, s) != 1:
            continue
        seen += 1
        a, b = _kernels_py.pair_row(r, s, r, s)[2:4]
        assert a * s - b * r == 1
        assert 0 < a <= r
        assert 0 <= b < s


# Radii where the integer disk rule meets its boundary: 5.0 puts the
# (+-3, +-4) and (+-5, 0) offsets on the circle; (3 * 2**0.5)**2 rounds to
# just above 18, so the (+-3, +-3) offsets are in; 7.3 and the float just
# below 3.0 fall between lattice circles; 0 and 0.5 hold the center alone,
# and a negative radius holds nothing.
BOUNDARY_RADII = [5.0, 3 * 2**0.5, 7.3, math.nextafter(3.0, 0), 0, 0.5, -0.5, -3]
# (10, 7) is unclamped; q = 0 clamps every disk at s >= 1, and p - radius
# < 1 at r >= 1.
BOUNDARY_CENTERS = [(10, 7), (50, 0), (1, 0), (3, 2), (2, 9), (4, 1)]


@pytest.mark.parametrize("radius", BOUNDARY_RADII)
@pytest.mark.parametrize("p, q", BOUNDARY_CENTERS)
def test_disk_boundary_matches_oracles(p, q, radius):
    pairs = _kernels_py.coprime_pairs_in_disk(p, q, radius)
    assert pairs == neighbors_by_bbox_scan(p, q, radius)
    rows = _kernels_py.envelope_scan(p, q, radius)
    assert rows == envelope_scan_by_pairs(p, q, radius)


def test_disk_limit_is_the_integer_rule():
    limit = _kernels_py.disk_limit
    assert limit(5.0) == 25
    assert limit(3 * 2**0.5) == 18
    assert limit(math.nextafter(3.0, 0)) == 8
    assert limit(7.3) == 53
    assert limit(0) == limit(0.5) == 0
    assert limit(-0.5) == limit(-3) == -1
    assert limit(2.0**27) == 2**54


def test_points_on_and_off_the_circle():
    # (10, 7) plus (+-3, +-4) and (+-5, 0): exactly 5 away, all coprime
    on_circle = {(13, 11), (7, 3), (13, 3), (7, 11), (15, 7), (5, 7)}
    assert on_circle <= set(_kernels_py.coprime_pairs_in_disk(10, 7, 5.0))
    # (+-3, +-3) offsets are in at 3 * 2**0.5
    assert (13, 10) in _kernels_py.coprime_pairs_in_disk(10, 7, 3 * 2**0.5)
    # just below 3: (3, 0) is out, (-2, -2) and (2, -2) are still in
    below = _kernels_py.coprime_pairs_in_disk(10, 7, math.nextafter(3.0, 0))
    assert (13, 7) not in below
    assert (8, 5) in below and (12, 5) in below
    assert (13, 7) in _kernels_py.coprime_pairs_in_disk(10, 7, 3.0)


def test_disk_limit_rounds_the_float_square_up_below_2_53():
    # The squared distance is exact, the float radius * radius is not:
    # sqrt(41)'s exact square is below 41, its float square is 41.0, so
    # the six coprime points at distance sqrt(41) are kept.
    radius = math.sqrt(41)
    assert Fraction(radius) ** 2 < 41
    assert _kernels_py.disk_limit(radius) == 41
    pairs = _kernels_py.coprime_pairs_in_disk(1000, 500, radius)
    beyond = [(r, s) for r, s in pairs if Fraction(r - 1000) ** 2
              + Fraction(s - 500) ** 2 > Fraction(radius) ** 2]
    assert beyond == [
        (995, 496), (995, 504), (996, 505), (1004, 495), (1004, 505), (1005, 496)
    ]
    assert len(pairs) == 79
    # endpoint_gaps reads the same rule: d**2 = eps**2 + 1, and eps**2
    # rounds up to d**2 beyond 2**53
    eps = 300000003.0
    params = EnvelopeParams(Center(600000016, 0), eps)
    assert Fraction(eps) ** 2 < 300000003**2 + 1 <= _kernels_py.disk_limit(eps)
    assert endpoint_gaps(CoprimePair(900000019, 1), params)[0] < eps + 1


def test_disk_limit_rounds_the_float_square_down_beyond_2_53():
    # Beyond 2**53 an integer square need not be a float: 300000001**2
    # rounds down, so the pair at exactly epsilon is refused.
    eps = 300000001.0
    assert _kernels_py.disk_limit(eps) == 300000001**2 - 1
    assert _kernels_py.disk_limit(300000001) == 300000001**2
    params = EnvelopeParams(Center(600000016, 1), eps)
    with pytest.raises(HypothesisError, match="lies 300000001.0 from"):
        endpoint_gaps(CoprimePair(900000017, 1), params)


def test_negative_radius_yields_empty():
    assert _kernels_py.coprime_pairs_in_disk(10, 10, -1.0) == []
    assert _kernels_py.envelope_scan(10, 3, -0.5) == []


def test_scan_tuples_match_single_call_ops():
    # every scan row must equal what the one-pair code paths produce;
    # repr tells apart floats that == does not (0.0 and -0.0)
    for p, q, radius in PARITY_CASES + [(50, 29, 4.0)]:
        params = _params(p, q, radius)  # None: no gaps, endpoint_gaps needs params
        for row in _kernels_py.envelope_scan(p, q, radius):
            r, s, a, b, af, bf, t, gap_a, gap_b, _dev = row
            single = _kernels_py.pair_row(p, q, r, s)
            assert single == row and repr(single) == repr(row), (p, q, radius)
            pair = CoprimePair(r, s)
            assert (af, bf) == (s - b, r - a)
            assert contact_parameter(pair) == t
            if params is not None:
                assert endpoint_gaps(pair, params) == (gap_a, gap_b)
        if params is not None:
            report = build_envelope(params)
            assert all(
                rec == EnvelopeRecord(rec.pair, report.params) for rec in report.records
            )


_summary = attrgetter(
    "neighbor_count", "all_bounds_hold", "max_deviation", "max_endpoint_gap", "extent"
)


@pytest.mark.parametrize(
    "p, q, radius", [case for case in PARITY_CASES if _params(*case)]
)
def test_report_summary_is_a_fold_over_the_records(p, q, radius):
    report = build_envelope(_params(p, q, radius))
    records, rows = report.records, report.rows
    assert _summary(report) == (
        len(records),
        all(rec.deviation < radius + 1.0 and rec.bound_ok for rec in records),
        max((rec.deviation for rec in records), default=0.0),
        max((max(rec.gap_alpha, rec.gap_beta) for rec in records), default=0.0),
        tuple(
            max(max(map(itemgetter(i), rows), default=0) for i in columns)
            for columns in ((2, 4), (3, 5))
        ),
    )


@pytest.mark.parametrize(
    "p, q, texts, wrong, wrong_by_decimal_format",
    [(10**6, 2 * 10**5, 447, 411, 418), (10**6, 6 * 10**5, 444, 402, 405)],
)
def test_printed_gap_and_deviation_digits(p, q, texts, wrong, wrong_by_decimal_format):
    # the counts that README and _row's docstring state, at epsilon = 10:
    # a printed text is wrong if it differs from '%.12g' % float(exact);
    # the Decimal's own '.12g' format turns to exponent notation below
    # 1e-6, not 1e-4, and so counts a few right texts as wrong
    printed, exact = [], []
    for row in _kernels_py.envelope_scan(p, q, 9.0):
        printed += ["%.12g" % value for value in row[7:]]
        exact += gaps_and_deviation_exact(p, q, *row[:4])
    assert len(printed) == texts
    assert sum(a != "%.12g" % float(b) for a, b in zip(printed, exact)) == wrong
    assert sum(a != format(b, ".12g") for a, b in zip(printed, exact)) == (
        wrong_by_decimal_format
    )
