"""Serialization of verification reports: CSV rows and SVG figures.

Both writers are pure functions of their inputs, so identical reports
always serialize to byte-identical text (golden-file friendly).

Each format is one generator of chunks: a header chunk, then the rows
CHUNK_ROWS at a time, then, for SVG, a trailer chunk (the control
markers, the curve overlay and the closing tag).  to_csv and to_svg
join the chunks; the CLI writes each chunk as it is made, so no more
than one chunk of a document is held at a time.  The SVG header holds
the viewBox, and the stroke width and the number format of every line
depend on the whole document: svg_chunks takes them from the report's
extent, which the report derived from every row when it was built, so
it reads no row before its header and decides nothing about the format
per chunk.
"""

from __future__ import annotations

import math

# CHUNK_ROWS, the rows per chunk of these documents, is also read from here
from ._frozen import CHUNK_ROWS, Frozen, chunked, setfields, show
from ._frozen import require_instance, require_int, require_number
from .envelope import VerificationReport
from .errors import DomainError

CSV_HEADER = (
    "r,s,a_rs,b_rs,a_sr,b_sr,t_contact,x1,y1,x2,y2,"
    "gap_alpha,gap_beta,deviation,bound_ok"
)
# The segment coordinates x1..y2 are the coefficients: integers below
# 10**12, which ".12g" prints exactly as "%d" does.
_CSV_ROW = "%d,%d,%d,%d,%d,%d,%.12g,%d,%d,%d,%d,%.12g,%.12g,%.12g,%s\n"

PADDING_FRACTION = 0.05

SEGMENT_STROKE = "#000000"
CURVE_STROKE = "#d62728"
CONTROL_FILL = "#1f77b4"


def _coord(value: float) -> str:
    """SVG coordinates: 9 significant digits is plenty at screen scale."""
    return format(value, ".9g")


class RenderOptions(Frozen):
    """Knobs for the SVG rendering (stored coordinates stay mathematical)."""

    __slots__ = (
        "width_px", "show_curve", "show_controls", "curve_samples",
        "stroke_width_fraction",
    )
    width_px: int
    show_curve: bool
    show_controls: bool
    curve_samples: int
    stroke_width_fraction: float

    def __init__(
        self,
        width_px: int = 800,
        show_curve: bool = False,
        show_controls: bool = False,
        curve_samples: int = 256,
        stroke_width_fraction: float = 0.0008,
    ):
        require_int("RenderOptions", "width_px", width_px, minimum=16, in_range=True)
        # the curve is one polyline string of at most about 31 B a sample,
        # so the ceiling holds it near 2 MiB
        require_int(
            "RenderOptions", "curve_samples", curve_samples, minimum=2, maximum=2**16
        )
        require_instance("RenderOptions", "show_curve", show_curve, bool)
        require_instance("RenderOptions", "show_controls", show_controls, bool)
        frac = stroke_width_fraction
        require_number("stroke_width_fraction", frac)
        if not 0.0 < frac < 1.0:
            raise DomainError(
                f"stroke_width_fraction must lie in (0, 1) (got {show(frac)})"
            )
        setfields(self, width_px, show_curve, show_controls, curve_samples, frac)


def csv_chunks(report: VerificationReport):
    """Yield the text of to_csv: the header, then the rows in chunks."""
    require_instance("csv_chunks", "report", report, VerificationReport)
    eps = report.params.epsilon
    yield CSV_HEADER + "\n"
    for chunk in chunked(report.rows):
        yield "".join([
            _CSV_ROW
            % (r, s, a, b, af, bf, t, a, b, af, bf, gap_a, gap_b, dev,
               "true" if dev < eps else "false")
            for r, s, a, b, af, bf, t, gap_a, gap_b, dev in chunk
        ])


def to_csv(report: VerificationReport) -> str:
    """One row per record in lexicographic (r, s) order, LF-terminated.

    Integer columns exactly; reals with 12 significant digits; booleans
    as true/false.  The segment columns are the coefficients and
    bound_ok is deviation < epsilon.
    """
    return "".join(csv_chunks(report))


def svg_chunks(report: VerificationReport, opts: RenderOptions = RenderOptions()):
    """Yield the text of to_svg: header, lines in chunks, then trailer."""
    require_instance("svg_chunks", "report", report, VerificationReport)
    require_instance("svg_chunks", "opts", opts, RenderOptions)
    p, q = report.params.center.p, report.params.center.q
    # The box starts at the origin: it is a control point, and every
    # other coordinate is >= 0 (p > q >= 0, and the normalization box
    # keeps all coefficients >= 0).  Its far corner comes from the
    # report's extent, so no row is read before the first chunk.
    x_max, y_max = report.extent
    x_hi = float(max(p, q, x_max))
    y_hi = float(max(p, q, y_max))
    pad_x = PADDING_FRACTION * x_hi or 1.0
    pad_y = PADDING_FRACTION * y_hi or 1.0
    width = x_hi + pad_x + pad_x
    height = y_hi + pad_y + pad_y
    diagonal = math.sqrt(width * width + height * height)
    stroke = opts.stroke_width_fraction * diagonal
    height_px = max(1, round(opts.width_px * height / width))

    # Flip: emit (x, -y); the viewBox covers [-y_hi - pad_y, pad_y].
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opts.width_px}" height="{height_px}" '
        f'viewBox="{_coord(-pad_x)} {_coord(-(y_hi + pad_y))} '
        f'{_coord(width)} {_coord(height)}">\n'
    )
    # Segment endpoints (a, b) and (a_flip, b_flip) are never negative
    # (normalization box), so y = -b prints as "-" before b's digits,
    # "-0" included, as _coord(-float(b)) does.  They are integers, and
    # below 10**9 "%.9g" prints an integer with the same digits as "%d";
    # at or above it "%.9g" switches to an exponent, so a document with
    # such a coordinate keeps "%.9g" for all of its lines.
    num = "%d" if max(x_max, y_max) < 10**9 else "%.9g"
    line = (
        f'<line x1="{num}" y1="-{num}" x2="{num}" y2="-{num}" '
        f'stroke="{SEGMENT_STROKE}" stroke-width="{_coord(stroke)}"/>\n'
    )
    for chunk in chunked(report.rows):
        yield "".join([
            line % (a, b, af, bf) for _, _, a, b, af, bf, _, _, _, _ in chunk
        ])
    trailer = []
    # geometry is loaded only for an overlay, so a plain document never
    # compiles it
    if opts.show_controls or opts.show_curve:
        from .geometry import QuadBezier, quad_point

        curve = QuadBezier(p, q)
    if opts.show_controls:
        marker_r = _coord(0.005 * diagonal)
        for pt in curve.control_points():
            trailer.append(
                f'<circle cx="{_coord(pt.x)}" cy="{_coord(-pt.y)}" r="{marker_r}" '
                f'fill="{CONTROL_FILL}"/>\n'
            )
    if opts.show_curve:
        n = opts.curve_samples
        points = " ".join(
            "{},{}".format(_coord(pt.x), _coord(-pt.y))
            for pt in (quad_point(curve, i / (n - 1)) for i in range(n))
        )
        trailer.append(
            f'<polyline points="{points}" fill="none" '
            f'stroke="{CURVE_STROKE}" stroke-width="{_coord(1.5 * stroke)}"/>\n'
        )
    trailer.append("</svg>\n")
    yield "".join(trailer)


def to_svg(report: VerificationReport, opts: RenderOptions = RenderOptions()) -> str:
    """Standalone SVG 1.1 document with one line element per record.

    Each line runs from B(r, s) to B(s, r), the record's coefficients.

    The viewBox is the bounding box of all segment endpoints plus the
    three control points, padded 5% per side; the y-axis is flipped at
    render time only, so mathematical "up" draws upward.  Element order
    is deterministic: segments in record order, then control markers,
    then the curve overlay last.
    """
    return "".join(svg_chunks(report, opts))
