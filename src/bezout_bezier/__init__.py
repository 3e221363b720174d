"""Approximate quadratic Bezier curves with Bezout-coefficient segments.

For a center (p, q), the quadratic Bezier curve with control points
(p, q), (0, 0), (q, p) is the envelope of the chords joining its two
control rays.  Each coprime pair (r, s) near (p, q) supplies a
replacement chord: the segment from the Bezout coefficients of (r, s)
to those of (s, r).  This package enumerates those pairs, builds the
segments, verifies the deviation bounds, and renders the figures.

The package is pure Python; the hot loops live in ``_kernels_py``.
The value types (``Point2``, ``CoprimePair``, ``EnvelopeParams``,
``RenderOptions`` and the rest) are frozen classes with ``__slots__``.
They compare, hash, print, pickle and copy as frozen dataclasses do,
but they are not dataclasses: ``dataclasses.replace``, ``fields`` and
``asdict`` do not apply to them.
"""

from ._backend import backend_name
from .envelope import (
    EnvelopeParams,
    EnvelopeRecord,
    SweepResult,
    VerificationReport,
    audit_sweep,
    bezout_segment,
    build_envelope,
    contact_parameter,
    endpoint_gaps,
    sweep_one,
)
from .errors import DomainError, HypothesisError
from .geometry import (
    Point2,
    QuadBezier,
    RayProjection,
    Segment,
    alpha,
    beta,
    dist_to_origin_line,
    gamma,
    linear_bezier,
    project_onto_ray,
    quad_point,
    scale_tolerance,
    segment_distance,
    segment_distance_symmetric,
    tangent_segment,
)
from .io_render import RenderOptions, to_csv, to_svg
from .numtheory import (
    INT_RANGE,
    BezoutCoeffs,
    Center,
    CoprimePair,
    bezout_coefficients,
    coprime_neighbors,
    extend_pair,
    flip_bezout,
    gcd,
)

__version__ = "0.1.0"

__all__ = [
    "BezoutCoeffs",
    "Center",
    "CoprimePair",
    "DomainError",
    "EnvelopeParams",
    "EnvelopeRecord",
    "HypothesisError",
    "INT_RANGE",
    "Point2",
    "QuadBezier",
    "RayProjection",
    "RenderOptions",
    "Segment",
    "SweepResult",
    "VerificationReport",
    "alpha",
    "audit_sweep",
    "backend_name",
    "beta",
    "bezout_coefficients",
    "bezout_segment",
    "build_envelope",
    "contact_parameter",
    "coprime_neighbors",
    "dist_to_origin_line",
    "endpoint_gaps",
    "extend_pair",
    "flip_bezout",
    "gamma",
    "gcd",
    "linear_bezier",
    "project_onto_ray",
    "quad_point",
    "scale_tolerance",
    "segment_distance",
    "segment_distance_symmetric",
    "sweep_one",
    "to_csv",
    "to_svg",
]
