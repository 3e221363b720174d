import math
import random

import pytest

from bezout_bezier import (
    INT_RANGE,
    BezoutCoeffs,
    Center,
    CoprimePair,
    DomainError,
    bezout_coefficients,
    coprime_neighbors,
    extend_pair,
    flip_bezout,
    gcd,
    numtheory,
)

from oracles import (
    bezout_solutions_by_search,
    bezout_solutions_full_box,
    coprime_pairs_upto,
    gcd_by_scan,
    neighbors_by_bbox_scan,
)


class TestGcd:
    def test_with_zero(self):
        assert gcd(5, 0) == 5
        assert gcd(0, 5) == 5

    def test_matches_divisor_scan(self):
        # expected values frozen from gcd_by_scan
        assert gcd_by_scan(12, 18) == 6
        assert gcd(12, 18) == 6
        assert gcd_by_scan(300, 21) == 3
        assert gcd(300, 21) == 3

    def test_random_against_scan(self):
        rng = random.Random(1)
        for _ in range(200):
            x, y = rng.randint(0, 500), rng.randint(0, 500)
            if x == 0 and y == 0:
                continue
            assert gcd(x, y) == gcd_by_scan(x, y)

    def test_both_zero_rejected(self):
        with pytest.raises(DomainError, match=r"^gcd\(0, 0\) is undefined$"):
            gcd(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError) as excinfo:
            gcd(-3, 5)
        assert str(excinfo.value) == "gcd expects nonnegative integers (got -3, 5)"

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (True, 3, "gcd needs an integer x (got x = True)"),
            (2.5, 3, "gcd needs an integer x (got x = 2.5)"),
            (3, False, "gcd needs an integer y (got y = False)"),
        ],
        ids=["bool", "float", "bool y"],
    )
    def test_non_int_rejected(self, x, y, message):
        # True would pass math.gcd as 1, and 2.5 raise its TypeError
        with pytest.raises(DomainError) as excinfo:
            gcd(x, y)
        assert str(excinfo.value) == message


class TestBezoutCoefficients:
    def test_unit_pair(self):
        assert bezout_coefficients(CoprimePair(1, 1)).as_tuple() == (1, 0)

    def test_small_pair(self):
        # frozen from bezout_solutions_by_search(3, 5) == [(2, 3)]
        assert bezout_solutions_by_search(3, 5) == [(2, 3)]
        assert bezout_coefficients(CoprimePair(3, 5)).as_tuple() == (2, 3)

    def test_reference_pair(self):
        # frozen from bezout_solutions_by_search(299, 21) == [(57, 4)]
        assert bezout_solutions_by_search(299, 21) == [(57, 4)]
        coeffs = bezout_coefficients(CoprimePair(299, 21))
        assert coeffs.as_tuple() == (57, 4)
        assert 57 * 21 - 4 * 299 == 1

    def test_search_oracle_agrees_with_full_box_scan(self):
        # the two oracle formulations must agree where both are feasible
        for p, q in coprime_pairs_upto(30):
            assert bezout_solutions_by_search(p, q) == bezout_solutions_full_box(p, q)

    def test_oracle_equivalence_sweep(self):
        for p, q in coprime_pairs_upto(80):
            solutions = bezout_solutions_by_search(p, q)
            assert len(solutions) == 1, f"non-unique solution for ({p}, {q})"
            assert bezout_coefficients(CoprimePair(p, q)).as_tuple() == solutions[0]

    def test_non_coprime_rejected_with_gcd(self):
        with pytest.raises(DomainError, match="gcd = 3"):
            bezout_coefficients(CoprimePair(300, 21))

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            CoprimePair(0, 5)
        with pytest.raises(DomainError):
            CoprimePair(5, 0)
        with pytest.raises(DomainError):
            CoprimePair(-3, 5)

    def test_invalid_coeffs_rejected(self):
        with pytest.raises(DomainError):
            BezoutCoeffs(1, 1, CoprimePair(3, 5))  # identity fails
        with pytest.raises(DomainError):
            BezoutCoeffs(5, 8, CoprimePair(3, 5))  # outside the box


class TestFlipBezout:
    def test_small_pair(self):
        # frozen: bezout_solutions_by_search(5, 3) == [(2, 1)]
        assert bezout_solutions_by_search(5, 3) == [(2, 1)]
        flipped = flip_bezout(bezout_coefficients(CoprimePair(3, 5)))
        assert flipped.pair.as_tuple() == (5, 3)
        assert flipped.as_tuple() == (2, 1)

    def test_symmetric_fixed_point(self):
        coeffs = bezout_coefficients(CoprimePair(1, 1))
        assert flip_bezout(coeffs) == coeffs

    def test_reference_pair(self):
        # frozen: bezout_solutions_by_search(21, 299) == [(17, 242)]
        assert bezout_solutions_by_search(21, 299) == [(17, 242)]
        flipped = flip_bezout(bezout_coefficients(CoprimePair(299, 21)))
        assert flipped.as_tuple() == (17, 242)
        assert 17 * 299 - 242 * 21 == 1

    def test_involution_sweep(self):
        for p, q in coprime_pairs_upto(60):
            coeffs = bezout_coefficients(CoprimePair(p, q))
            assert flip_bezout(flip_bezout(coeffs)) == coeffs

    def test_flip_equals_direct_computation_sweep(self):
        for p, q in coprime_pairs_upto(60):
            flipped = flip_bezout(bezout_coefficients(CoprimePair(p, q)))
            direct = bezout_coefficients(CoprimePair(q, p))
            assert flipped == direct


class TestExtendPair:
    @pytest.mark.parametrize(
        "pair, extended, extended_coeffs",
        [
            # frozen via bezout_solutions_by_search on the extended pair
            ((3, 5), (8, 5), (5, 3)),
            ((1, 1), (1, 2), (1, 1)),
            ((5, 3), (4, 7), (3, 5)),
        ],
    )
    def test_examples(self, pair, extended, extended_coeffs):
        assert bezout_solutions_by_search(*extended) == [extended_coeffs]
        result = extend_pair(bezout_coefficients(CoprimePair(*pair)))
        assert result.as_tuple() == extended
        assert bezout_coefficients(result).as_tuple() == extended_coeffs

    def test_extension_identity_sweep(self):
        for p, q in coprime_pairs_upto(60):
            coeffs = bezout_coefficients(CoprimePair(p, q))
            extended = extend_pair(coeffs)
            assert extended.as_tuple() == (coeffs.b + q, coeffs.a + p)
            assert bezout_coefficients(extended).as_tuple() == (q, p)

    def test_overflow(self):
        # 2**31 - 1 is prime, so the pair below is coprime; extending
        # pushes a + p past the supported range
        top = INT_RANGE - 1
        coeffs = bezout_coefficients(CoprimePair(top, top - 1))
        with pytest.raises(OverflowError):
            extend_pair(coeffs)


class TestCoprimeNeighbors:
    def test_unique_neighbor_of_reference_center(self):
        pairs = coprime_neighbors(Center(300, 21), 1.0)
        assert [p.as_tuple() for p in pairs] == [(299, 21)]

    def test_zero_radius_keeps_coprime_center(self):
        pairs = coprime_neighbors(Center(3, 5), 0.0)
        assert [p.as_tuple() for p in pairs] == [(3, 5)]

    def test_zero_radius_non_coprime_center_is_empty(self):
        assert coprime_neighbors(Center(4, 2), 0.0) == []

    def test_diagonal_center(self):
        # frozen from neighbors_by_bbox_scan(5, 5, 1)
        assert neighbors_by_bbox_scan(5, 5, 1.0) == [(4, 5), (5, 4), (5, 6), (6, 5)]
        pairs = coprime_neighbors(Center(5, 5), 1.0)
        assert [p.as_tuple() for p in pairs] == [(4, 5), (5, 4), (5, 6), (6, 5)]

    def test_axis_center(self):
        # q = 0 centers are fine; neighbors still need s >= 1
        pairs = coprime_neighbors(Center(10, 0), 1.0)
        assert [p.as_tuple() for p in pairs] == [(10, 1)]

    def test_lexicographic_order(self):
        pairs = coprime_neighbors(Center(50, 50), 4.5)
        tuples = [p.as_tuple() for p in pairs]
        assert tuples == sorted(tuples)

    def test_completeness_against_bbox_scan(self):
        rng = random.Random(7)
        cases = [(1, 0, 2.0), (1, 1, 3.0), (2, 1, 0.5), (10, 0, 3.7)]
        for _ in range(30):
            cases.append(
                (rng.randint(1, 10**4), rng.randint(0, 10**4), rng.uniform(0, 50))
            )
        for p, q, radius in cases:
            expected = neighbors_by_bbox_scan(p, q, radius)
            got = [x.as_tuple() for x in coprime_neighbors(Center(p, q), radius)]
            assert got == expected, f"mismatch at center ({p}, {q}) radius {radius}"

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            coprime_neighbors(Center(3, 3), -1.0)

    def test_nan_radius_rejected(self):
        # the one `not radius >= 0` test refuses nan too
        with pytest.raises(DomainError) as excinfo:
            coprime_neighbors(Center(10, 3), float("nan"))
        assert str(excinfo.value) == "radius must be nonnegative (got nan)"

    @pytest.mark.parametrize("radius", ["2", True, None, 2 + 0j])
    def test_radius_that_is_not_a_number_rejected(self, radius):
        with pytest.raises(DomainError) as excinfo:
            coprime_neighbors(Center(10, 3), radius)
        assert str(excinfo.value) == f"radius must be a number (got {radius!r})"

    @pytest.mark.parametrize(
        "radius, message",
        [
            (10**400, "neighborhood extends beyond the supported range 2**31 "
                      f"(got p = 10, q = 3 and radius = {10**400})"),
            (-10**400, f"radius must be nonnegative (got {-10**400})"),
            (10**5000, "neighborhood extends beyond the supported range 2**31 "
                       "(got p = 10, q = 3 and radius = <16610-bit integer>)"),
        ],
        ids=["10**400", "-10**400", "10**5000"],
    )
    def test_int_beyond_the_floats_refused(self, radius, message):
        with pytest.raises(DomainError) as excinfo:
            coprime_neighbors(Center(10, 3), radius)
        assert str(excinfo.value) == message

    def test_int_radius_is_its_float(self):
        # an int radius reaches the kernel unconverted, with the same disk
        for center in (Center(10, 3), Center(300, 21), Center(50, 50)):
            for radius in (0, 1, 3, 7):
                assert coprime_neighbors(center, radius) == coprime_neighbors(
                    center, float(radius)
                )

    def test_center_validation(self):
        with pytest.raises(DomainError):
            Center(0, 5)
        with pytest.raises(DomainError):
            Center(5, -1)
        # non-coprime centers are allowed
        Center(10**6, 2 * 10**5)

    def test_range_guard(self):
        with pytest.raises(DomainError):
            coprime_neighbors(Center(INT_RANGE, 5), 10.0)


class TestNeighborsBulkVerification:
    """coprime_neighbors checks the kernel's pairs before wrapping them."""

    def neighbors_with(self, monkeypatch, pairs):
        monkeypatch.setattr(
            numtheory.kernels, "coprime_pairs_in_disk", lambda p, q, r: pairs
        )
        return coprime_neighbors(Center(10, 3), 2.0)

    def test_valid_pairs_are_kept(self, monkeypatch):
        pairs = self.neighbors_with(monkeypatch, [(9, 4), (10, 3)])
        assert pairs == [CoprimePair(9, 4), CoprimePair(10, 3)]

    @pytest.mark.parametrize(
        "bad",
        [(10, 4), (0, 1), (INT_RANGE + 1, 1), (1, INT_RANGE + 1)],
        ids=["gcd", "zero", "range-r", "range-s"],
    )
    def test_broken_pair_raises(self, monkeypatch, bad):
        with pytest.raises(DomainError, match=rf"\({bad[0]}, {bad[1]}\)"):
            self.neighbors_with(monkeypatch, [(9, 4), bad, (10, 3)])


def test_pair_magnitude_guard():
    with pytest.raises(DomainError):
        CoprimePair(INT_RANGE + 1, 2)


def test_unit_fraction_sweep_matches_math_gcd():
    # sanity for the oracle itself on a dense grid
    for x in range(0, 40):
        for y in range(0, 40):
            if x == y == 0:
                continue
            assert gcd_by_scan(x, y) == math.gcd(x, y)
