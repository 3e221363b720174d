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

``import bezout_bezier`` imports none of the submodules.  Each public
name, and each submodule named in ``_EXPORTS``, is imported on first
access (PEP 562), so a command that builds no envelope never compiles
``envelope``, ``geometry`` or ``io_render``.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "_backend": ("backend_name",),
    "envelope": (
        "EnvelopeParams",
        "EnvelopeRecord",
        "VerificationReport",
        "bezout_segment",
        "build_envelope",
        "contact_parameter",
        "endpoint_gaps",
    ),
    "errors": ("DomainError", "HypothesisError"),
    "geometry": (
        "Point2",
        "QuadBezier",
        "RayProjection",
        "Segment",
        "alpha",
        "beta",
        "dist_to_origin_line",
        "gamma",
        "linear_bezier",
        "project_onto_ray",
        "quad_point",
        "scale_tolerance",
        "segment_distance",
        "segment_distance_symmetric",
        "tangent_segment",
    ),
    "io_render": ("RenderOptions", "to_csv", "to_svg"),
    "numtheory": (
        "INT_RANGE",
        "BezoutCoeffs",
        "Center",
        "CoprimePair",
        "bezout_coefficients",
        "coprime_neighbors",
        "extend_pair",
        "flip_bezout",
        "gcd",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _SOURCE.keys() | _EXPORTS.keys())
