import math
import random

import pytest

from bezout_bezier import (
    CoprimePair,
    DomainError,
    Point2,
    QuadBezier,
    Segment,
    alpha,
    beta,
    bezout_coefficients,
    dist_to_origin_line,
    flip_bezout,
    gamma,
    linear_bezier,
    project_onto_ray,
    quad_point,
    scale_tolerance,
    segment_distance,
    segment_distance_symmetric,
    tangent_segment,
)

from oracles import coprime_pairs_upto


def pt(x, y):
    return Point2(float(x), float(y))


class TestLinearBezier:
    def test_endpoints(self):
        a, b = pt(0, 0), pt(4, 2)
        assert linear_bezier(a, b, 0.0) == a
        assert linear_bezier(a, b, 1.0) == b

    def test_midpoint(self):
        assert linear_bezier(pt(2, 0), pt(0, 2), 0.5) == pt(1, 1)


class TestControlRays:
    def test_alpha_endpoints(self):
        curve = QuadBezier(3, 5)
        assert alpha(curve, 0.0) == pt(3, 5)
        assert alpha(curve, 1.0) == pt(0, 0)
        assert alpha(QuadBezier(300, 21), 0.5) == pt(150, 10.5)

    def test_beta_endpoints(self):
        curve = QuadBezier(3, 5)
        assert beta(curve, 0.0) == pt(0, 0)
        assert beta(curve, 1.0) == pt(5, 3)
        assert beta(QuadBezier(300, 21), 0.5) == pt(10.5, 150)


class TestGamma:
    def test_chord_endpoints(self):
        curve = QuadBezier(3, 5)
        assert gamma(curve, 0.5, 0.0) == pt(1.5, 2.5)
        assert gamma(curve, 0.5, 1.0) == pt(2.5, 1.5)

    def test_chord_midpoint(self):
        # hand evaluation of the affine combination
        assert gamma(QuadBezier(3, 5), 0.5, 0.5) == pt(2, 2)

    def test_contact_with_curve(self):
        rng = random.Random(11)
        for _ in range(300):
            curve = QuadBezier(rng.randint(1, 10**4), rng.randint(0, 10**4))
            t0 = rng.uniform(1e-6, 1 - 1e-6)
            tol = scale_tolerance(curve.p, curve.q)
            on_chord = gamma(curve, t0, t0)
            on_curve = quad_point(curve, t0)
            assert on_chord.distance_to(on_curve) <= tol

    def test_tangent_line_identity(self):
        # the chord at t0 is the curve's tangent at t0:
        # gamma(t0, t) == c(t0) + (t - t0)/2 * c'(t0)
        rng = random.Random(13)
        for _ in range(300):
            p, q = rng.randint(1, 10**4), rng.randint(0, 10**4)
            curve = QuadBezier(p, q)
            t0 = rng.uniform(1e-6, 1 - 1e-6)
            t = rng.uniform(0, 1)
            tol = scale_tolerance(p, q)
            derivative = pt(
                -2 * (1 - t0) * p + 2 * t0 * q,
                -2 * (1 - t0) * q + 2 * t0 * p,
            )
            expected = quad_point(curve, t0) + derivative.scaled(0.5 * (t - t0))
            assert gamma(curve, t0, t).distance_to(expected) <= tol


class TestQuadPoint:
    def test_endpoints(self):
        curve = QuadBezier(3, 5)
        assert quad_point(curve, 0.0) == pt(3, 5)
        assert quad_point(curve, 1.0) == pt(5, 3)

    def test_apex(self):
        # (1-t)^2 (p,q) + t^2 (q,p) at 1/2 is ((p+q)/4, (p+q)/4)
        assert quad_point(QuadBezier(3, 5), 0.5) == pt(2, 2)

    def test_control_points(self):
        points = QuadBezier(300, 21).control_points()
        assert points == (pt(300, 21), pt(0, 0), pt(21, 300))
        assert all(
            type(c) is float for point in points for c in (point.x, point.y)
        )

    def test_degenerate_flag(self):
        assert QuadBezier(7, 7).is_degenerate
        assert not QuadBezier(7, 3).is_degenerate
        with pytest.raises(DomainError):
            QuadBezier(0, 3)

    def test_top_of_the_supported_range(self):
        assert quad_point(QuadBezier(2**31, 2**31 - 1), 1.0) == pt(2**31 - 1, 2**31)


class TestTangentSegment:
    def test_small_curve(self):
        seg = tangent_segment(QuadBezier(3, 5), 0.5)
        assert seg == Segment(pt(1.5, 2.5), pt(2.5, 1.5))

    def test_axis_curve(self):
        seg = tangent_segment(QuadBezier(4, 0), 0.5)
        assert seg == Segment(pt(2, 0), pt(0, 2))

    def test_reference_curve(self):
        seg = tangent_segment(QuadBezier(300, 21), 0.25)
        assert seg == Segment(pt(225, 15.75), pt(5.25, 75))

    @pytest.mark.parametrize("t0", [0.0, 1.0, -0.1, 1.5])
    def test_parameter_domain(self, t0):
        with pytest.raises(DomainError):
            tangent_segment(QuadBezier(3, 5), t0)


class TestProjectOntoRay:
    def test_general_position(self):
        # dot product by hand: (2,3).(3,5) = 21, |(3,5)|^2 = 34
        t, foot = project_onto_ray(pt(2, 3), pt(3, 5))
        assert t == pytest.approx(21 / 34, abs=1e-15)
        assert foot.x == pytest.approx(63 / 34, abs=1e-12)
        assert foot.y == pytest.approx(105 / 34, abs=1e-12)
        # residual is orthogonal to the direction
        residual = pt(2, 3) - foot
        assert abs(residual.dot(pt(3, 5))) < 1e-12

    def test_point_on_ray(self):
        t, foot = project_onto_ray(pt(3, 5), pt(3, 5))
        assert t == 1.0
        assert foot == pt(3, 5)

    def test_orthogonal_point(self):
        t, foot = project_onto_ray(pt(1, 0), pt(0, 1))
        assert t == 0.0
        assert foot == pt(0, 0)

    def test_zero_direction(self):
        with pytest.raises(DomainError):
            project_onto_ray(pt(1, 2), pt(0, 0))


class TestDistToOriginLine:
    def test_general_position(self):
        # |2*5 - 3*3| / sqrt(34)
        assert dist_to_origin_line(pt(2, 3), pt(3, 5)) == pytest.approx(
            1 / math.sqrt(34), abs=1e-15
        )

    def test_point_on_line(self):
        assert dist_to_origin_line(pt(3, 5), pt(3, 5)) == 0.0

    def test_reference_pair(self):
        # |57*21 - 4*299| / sqrt(299^2 + 21^2)
        assert dist_to_origin_line(pt(57, 4), pt(299, 21)) == pytest.approx(
            1 / math.sqrt(89842), abs=1e-15
        )

    def test_zero_direction(self):
        with pytest.raises(DomainError):
            dist_to_origin_line(pt(1, 2), pt(0, 0))


class TestSegmentDistance:
    def test_identical(self):
        seg = Segment(pt(0, 0), pt(1, 0))
        assert segment_distance(seg, seg) == 0.0

    def test_parallel_unit_offset(self):
        l1 = Segment(pt(0, 0), pt(1, 0))
        l2 = Segment(pt(0, 1), pt(1, 1))
        # max(min(1, sqrt(2)), min(sqrt(2), 1))
        assert segment_distance(l1, l2) == 1.0

    def test_reversed_orientation(self):
        l1 = Segment(pt(0, 0), pt(1, 0))
        assert segment_distance(l1, l1.reversed()) == 0.0

    def test_asymmetry(self):
        # endpoint-based, not Hausdorff: l1's far endpoint is 1 away from
        # l2's nearest endpoint even though it lies on l2
        l1 = Segment(pt(0, 0), pt(1, 0))
        l2 = Segment(pt(0, 0), pt(10, 0))
        assert segment_distance(l1, l2) == 1.0
        assert segment_distance(l2, l1) == 9.0
        assert segment_distance_symmetric(l1, l2) == 9.0
        assert segment_distance_symmetric(l2, l1) == 9.0

    def test_zero_length_segments(self):
        dot1 = Segment(pt(1, 1), pt(1, 1))
        dot2 = Segment(pt(4, 5), pt(4, 5))
        assert segment_distance(dot1, dot2) == 5.0


class TestCoefficientRayIdentities:
    """Identities tying Bezout coefficients to the control rays."""

    LIMIT = 120

    def test_norm_symmetry(self):
        # ||B(p,q) - (p,q)|| == ||B(q,p)||
        for p, q in coprime_pairs_upto(self.LIMIT):
            tol = scale_tolerance(p, q)
            coeffs = bezout_coefficients(CoprimePair(p, q))
            flipped = flip_bezout(coeffs)
            lhs = pt(coeffs.a, coeffs.b).distance_to(pt(p, q))
            rhs = pt(flipped.a, flipped.b).norm()
            assert abs(lhs - rhs) <= tol

    def test_distance_to_rays(self):
        # both distances equal 1 / ||(p,q)||
        for p, q in coprime_pairs_upto(self.LIMIT):
            tol = scale_tolerance(p, q)
            expected = 1.0 / math.hypot(p, q)
            coeffs = bezout_coefficients(CoprimePair(p, q))
            flipped = flip_bezout(coeffs)
            d1 = dist_to_origin_line(pt(coeffs.a, coeffs.b), pt(p, q))
            d2 = dist_to_origin_line(pt(flipped.a, flipped.b), pt(q, p))
            assert abs(d1 - expected) <= tol
            assert abs(d2 - expected) <= tol

    def test_projection_complement(self):
        # projection parameters of B(p,q) on (p,q) and B(q,p) on (q,p)
        # sum to 1
        for p, q in coprime_pairs_upto(self.LIMIT):
            tol = scale_tolerance(p, q)
            coeffs = bezout_coefficients(CoprimePair(p, q))
            flipped = flip_bezout(coeffs)
            t0 = project_onto_ray(pt(coeffs.a, coeffs.b), pt(p, q)).t
            t1 = project_onto_ray(pt(flipped.a, flipped.b), pt(q, p)).t
            assert abs(t1 - (1.0 - t0)) <= tol

    def test_projection_distance_symmetry(self):
        # distance from (p,q) to the first foot equals distance from the
        # origin to the second foot
        for p, q in coprime_pairs_upto(self.LIMIT):
            tol = scale_tolerance(p, q)
            coeffs = bezout_coefficients(CoprimePair(p, q))
            flipped = flip_bezout(coeffs)
            foot1 = project_onto_ray(pt(coeffs.a, coeffs.b), pt(p, q)).foot
            foot2 = project_onto_ray(pt(flipped.a, flipped.b), pt(q, p)).foot
            assert abs(foot1.distance_to(pt(p, q)) - foot2.norm()) <= tol


class TestMatchedEndpointGapBound:
    """Close endpoints imply a close parametrized sweep (convexity)."""

    @staticmethod
    def _matched(l1, l2):
        d_aa = l1.start.distance_to(l2.start)
        d_ab = l1.start.distance_to(l2.end)
        d_bb = l1.end.distance_to(l2.end)
        d_ba = l1.end.distance_to(l2.start)
        return d_aa <= d_ab and d_bb <= d_ba

    def test_pointwise_gap_below_distance_bound(self):
        rng = random.Random(17)
        checked = 0
        while checked < 500:
            l1 = Segment(
                pt(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                pt(rng.uniform(-10, 10), rng.uniform(-10, 10)),
            )
            l2 = Segment(
                l1.start + pt(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                l1.end + pt(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            if not self._matched(l1, l2):
                continue
            checked += 1
            eps = segment_distance(l1, l2) + rng.uniform(1e-6, 0.5)
            for i in range(100):
                t = i / 99
                gap = l1.point_at(t).distance_to(l2.point_at(t))
                assert gap < eps


def test_point_arithmetic():
    assert pt(1, 2) + pt(3, 4) == pt(4, 6)
    assert pt(3, 4) - pt(1, 2) == pt(2, 2)
    assert pt(3, 4).scaled(2.0) == pt(6, 8)
    assert pt(3, 4).norm() == 5.0


def test_points_must_be_finite():
    with pytest.raises(DomainError):
        Point2(float("nan"), 0.0)
    with pytest.raises(DomainError):
        Point2(0.0, float("inf"))


def test_tolerance_scales_with_magnitude():
    assert scale_tolerance(0, 0) == 1e-9
    assert scale_tolerance(3, 4) == pytest.approx(5e-9)
    assert scale_tolerance(10**6, 0) == pytest.approx(1e-3)
