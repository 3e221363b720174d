"""Planar geometry for the symmetric quadratic Bezier family.

Linear and quadratic Bezier evaluation for control points (p, q),
(0, 0), (q, p); the chord family joining the two control rays; ray
projections; and the endpoint-based segment distance used to compare a
replacement segment against a chord.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._frozen import Frozen, require_int, setfields, show
from .errors import DomainError


class Point2(Frozen):
    """A point (or vector) in the plane."""

    __slots__ = ("x", "y")
    x: float
    y: float

    def __init__(self, x: float, y: float):
        try:
            finite = math.isfinite(x) and math.isfinite(y)
        except OverflowError:  # an int beyond every float
            finite = False
        if not finite:
            raise DomainError(f"coordinates must be finite (got {show(x, y)})")
        setfields(self, x, y)

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def scaled(self, k: float) -> "Point2":
        return Point2(k * self.x, k * self.y)

    def dot(self, other: "Point2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class Segment(Frozen):
    """An ordered pair of endpoints; zero length is permitted."""

    __slots__ = ("start", "end")
    start: Point2
    end: Point2

    def __init__(self, start: Point2, end: Point2):
        setfields(self, start, end)

    def point_at(self, t: float) -> Point2:
        return linear_bezier(self.start, self.end, t)

    def length(self) -> float:
        return self.start.distance_to(self.end)

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)


class QuadBezier(Frozen):
    """The quadratic Bezier curve with control points (p, q), (0, 0), (q, p).

    p == q collapses the curve onto a straight path; such curves are
    permitted but flagged degenerate so callers can report rather than
    crash.
    """

    __slots__ = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int):
        require_int("curve", "p", p, minimum=1)
        require_int("curve", "q", q, minimum=0)
        setfields(self, p, q)

    @property
    def is_degenerate(self) -> bool:
        return self.p == self.q

    def control_points(self) -> tuple[Point2, Point2, Point2]:
        return (
            Point2(float(self.p), float(self.q)),
            Point2(0.0, 0.0),
            Point2(float(self.q), float(self.p)),
        )


# What project_onto_ray returns: the parameter t along the direction,
# and the foot t*direction as a Point2.
RayProjection = namedtuple("RayProjection", ["t", "foot"])


def linear_bezier(a: Point2, b: Point2, t: float) -> Point2:
    """The affine path (1-t)*a + t*b (t outside [0,1] extrapolates)."""
    u = 1.0 - t
    return Point2(u * a.x + t * b.x, u * a.y + t * b.y)


def alpha(curve: QuadBezier, t: float) -> Point2:
    """First control ray: (1-t)*(p, q), from (p, q) down to the origin."""
    u = 1.0 - t
    return Point2(u * curve.p, u * curve.q)


def beta(curve: QuadBezier, t: float) -> Point2:
    """Second control ray: t*(q, p), from the origin out to (q, p)."""
    return Point2(t * curve.q, t * curve.p)


def gamma(curve: QuadBezier, s: float, t: float) -> Point2:
    """Point at parameter t on the chord from alpha(s) to beta(s).

    The chord at s is tangent to the curve at parameter s; the curve is
    the envelope of this family.
    """
    return linear_bezier(alpha(curve, s), beta(curve, s), t)


def quad_point(curve: QuadBezier, t: float) -> Point2:
    """Curve point (1-t)^2 * (p, q) + t^2 * (q, p)."""
    u = 1.0 - t
    return Point2(
        u * u * curve.p + t * t * curve.q,
        u * u * curve.q + t * t * curve.p,
    )


def tangent_segment(curve: QuadBezier, t0: float) -> Segment:
    """The chord from alpha(t0) to beta(t0); tangent to the curve at t0.

    Its affine parametrization coincides with gamma(curve, t0, .).
    """
    if not 0.0 < t0 < 1.0:
        raise DomainError(
            f"tangent parameter must lie strictly between 0 and 1 (got {show(t0)})"
        )
    return Segment(alpha(curve, t0), beta(curve, t0))


def project_onto_ray(point: Point2, direction: Point2) -> RayProjection:
    """Orthogonal projection onto the line through the origin.

    Returns t = point.direction / ||direction||^2 and the foot
    t*direction, the closest point on the line.
    """
    dd = direction.dot(direction)
    if dd == 0.0:
        raise DomainError("cannot project onto a zero direction")
    t = point.dot(direction) / dd
    return RayProjection(t, direction.scaled(t))


def dist_to_origin_line(point: Point2, direction: Point2) -> float:
    """Distance from a point to the line through the origin with `direction`.

    |x*dy - y*dx| / ||direction||.
    """
    n = direction.norm()
    if n == 0.0:
        raise DomainError("line direction must be nonzero")
    return abs(point.x * direction.y - point.y * direction.x) / n


def segment_distance(l1: Segment, l2: Segment) -> float:
    """Endpoint max-of-mins distance from l1 to l2.

    max over l1's endpoints of the min distance to l2's endpoints.
    Asymmetric in general (the first argument is outermost), and not
    the Hausdorff distance; see segment_distance_symmetric for a
    symmetrized diagnostic.
    """
    d_start = min(l1.start.distance_to(l2.start), l1.start.distance_to(l2.end))
    d_end = min(l1.end.distance_to(l2.start), l1.end.distance_to(l2.end))
    return max(d_start, d_end)


def segment_distance_symmetric(l1: Segment, l2: Segment) -> float:
    """Max of segment_distance over both argument orders (diagnostic)."""
    return max(segment_distance(l1, l2), segment_distance(l2, l1))


def scale_tolerance(p: float, q: float) -> float:
    """Float comparison tolerance for geometry at the scale of (p, q).

    Absolute at unit scale, relative beyond it.
    """
    return 1e-9 * max(1.0, math.hypot(p, q))
