import csv
import hashlib
import io
import math
import xml.etree.ElementTree as ET
from collections.abc import Sequence

import pytest

from bezout_bezier import (
    Center,
    CoprimePair,
    DomainError,
    EnvelopeParams,
    RenderOptions,
    VerificationReport,
    build_envelope,
    to_csv,
    to_svg,
)
from bezout_bezier import _kernels_py
from bezout_bezier.io_render import CHUNK_ROWS, CSV_HEADER, csv_chunks, svg_chunks

SVG_NS = "{http://www.w3.org/2000/svg}"


def empty_report(p=300, q=21, eps=1.5):
    return build_envelope(EnvelopeParams(Center(p, q), eps))


def reference_report():
    return build_envelope(EnvelopeParams(Center(300, 21), 2.0))


class TestToCsv:
    def test_empty_report_is_header_only(self):
        assert to_csv(empty_report()) == CSV_HEADER + "\n"

    def test_header_exact(self):
        assert CSV_HEADER == (
            "r,s,a_rs,b_rs,a_sr,b_sr,t_contact,x1,y1,x2,y2,"
            "gap_alpha,gap_beta,deviation,bound_ok"
        )

    def test_reference_row_prefix(self):
        text = to_csv(reference_report())
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("299,21,57,4,17,242,")
        assert lines[1].endswith(",true")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_round_trip(self):
        report = build_envelope(EnvelopeParams(Center(50, 29), 5.0))
        assert report.neighbor_count > 3
        rows = list(csv.DictReader(io.StringIO(to_csv(report))))
        assert len(rows) == report.neighbor_count
        for row, rec in zip(rows, report.records):
            assert int(row["r"]) == rec.pair.r
            assert int(row["s"]) == rec.pair.s
            assert int(row["a_rs"]) == rec.coeffs.a
            assert int(row["b_rs"]) == rec.coeffs.b
            assert int(row["a_sr"]) == rec.flipped.a
            assert int(row["b_sr"]) == rec.flipped.b
            # integer-valued coordinates survive exactly
            assert float(row["x1"]) == rec.segment.start.x
            assert float(row["y2"]) == rec.segment.end.y
            # reals survive to 12 significant digits
            for key, value in (
                ("t_contact", rec.t_contact),
                ("gap_alpha", rec.gap_alpha),
                ("gap_beta", rec.gap_beta),
                ("deviation", rec.deviation),
            ):
                assert float(row[key]) == pytest.approx(
                    value, rel=1e-11, abs=1e-15
                )
            assert row["bound_ok"] == ("true" if rec.bound_ok else "false")

    def test_determinism(self):
        report = build_envelope(EnvelopeParams(Center(40, 11), 3.0))
        assert to_csv(report) == to_csv(report)


class TestToSvg:
    def test_well_formed_and_line_count(self):
        report = build_envelope(EnvelopeParams(Center(50, 29), 5.0))
        root = ET.fromstring(to_svg(report))
        assert root.tag == f"{SVG_NS}svg"
        lines = root.findall(f"{SVG_NS}line")
        assert len(lines) == report.neighbor_count

    def test_empty_report_with_controls(self):
        text = to_svg(empty_report(), RenderOptions(show_controls=True))
        root = ET.fromstring(text)
        assert len(root.findall(f"{SVG_NS}line")) == 0
        assert len(root.findall(f"{SVG_NS}circle")) == 3

    def test_curve_overlay_is_last(self):
        text = to_svg(
            reference_report(),
            RenderOptions(show_curve=True, show_controls=True, curve_samples=64),
        )
        root = ET.fromstring(text)
        children = list(root)
        assert children[-1].tag == f"{SVG_NS}polyline"
        points = children[-1].attrib["points"].split()
        assert len(points) == 64

    def test_viewbox_covers_everything_padded(self):
        report = reference_report()
        root = ET.fromstring(to_svg(report))
        x0, y0, w, h = (float(v) for v in root.attrib["viewBox"].split())
        # mathematical points, flipped: y -> -y
        pts = [(300.0, 21.0), (0.0, 0.0), (21.0, 300.0)]
        for rec in report.records:
            pts.append((rec.segment.start.x, rec.segment.start.y))
            pts.append((rec.segment.end.x, rec.segment.end.y))
        for px, py in pts:
            assert x0 <= px <= x0 + w
            assert y0 <= -py <= y0 + h
        # 5% padding on each side of the raw bounding box
        raw_w = max(p[0] for p in pts) - min(p[0] for p in pts)
        assert w == pytest.approx(1.1 * raw_w, rel=1e-6)

    def test_viewbox_covers_hand_built_records(self, monkeypatch):
        # a scan that yields one row far from the center: B(3, 50) = (2, 33)
        # and its flip (17, 1) set the box, not the control points (10, 3)
        # and (3, 10)
        row = _kernels_py.pair_row(10, 3, 3, 50)
        monkeypatch.setattr(_kernels_py, "envelope_scan", lambda p, q, radius: [row])
        report = VerificationReport(EnvelopeParams(Center(10, 3), 2.0))
        assert report.records[0].pair == CoprimePair(3, 50)
        root = ET.fromstring(to_svg(report))
        x0, y0, w, h = (float(v) for v in root.attrib["viewBox"].split())
        assert (x0, x0 + w) == pytest.approx((-0.85, 17.85))
        assert (y0, y0 + h) == pytest.approx((-34.65, 1.65))

    def test_y_axis_points_up(self):
        # the high-y control point (q, p) must land at a *smaller* svg y
        # than the origin
        report = reference_report()
        root = ET.fromstring(
            to_svg(report, RenderOptions(show_controls=True))
        )
        circles = root.findall(f"{SVG_NS}circle")
        by_cx = {float(c.attrib["cx"]): float(c.attrib["cy"]) for c in circles}
        assert by_cx[21.0] < by_cx[0.0]  # (21, 300) drawn above (0, 0)

    def test_determinism(self):
        report = build_envelope(EnvelopeParams(Center(40, 11), 3.0))
        opts = RenderOptions(show_curve=True, show_controls=True)
        assert to_svg(report, opts) == to_svg(report, opts)

    def test_figure_scale(self):
        report = build_envelope(EnvelopeParams(Center(10**6, 2 * 10**5), 10.0))
        root = ET.fromstring(to_svg(report, RenderOptions(show_curve=True)))
        assert len(root.findall(f"{SVG_NS}line")) == report.neighbor_count
        # stroke width scales with the box diagonal, keeping lines legible
        line = root.find(f"{SVG_NS}line")
        x0, y0, w, h = (float(v) for v in root.attrib["viewBox"].split())
        expected = 0.0008 * math.hypot(w, h)
        assert float(line.attrib["stroke-width"]) == pytest.approx(
            expected, rel=1e-6
        )


class TestRenderOptions:
    def test_defaults(self):
        opts = RenderOptions()
        assert opts.width_px == 800
        assert opts.curve_samples == 256
        assert opts.stroke_width_fraction == 0.0008

    def test_invalid_width(self):
        with pytest.raises(DomainError):
            RenderOptions(width_px=8)

    def test_invalid_samples(self):
        with pytest.raises(DomainError):
            RenderOptions(curve_samples=1)

    def test_invalid_stroke_fraction(self):
        with pytest.raises(DomainError):
            RenderOptions(stroke_width_fraction=0.0)


@pytest.mark.parametrize(
    "write, message",
    [
        pytest.param(
            lambda: to_csv(None),
            "csv_chunks needs report of type VerificationReport (got report = None)",
            id="to_csv None",
        ),
        pytest.param(
            lambda: to_svg(EnvelopeParams(Center(300, 21), 2.0)),
            "svg_chunks needs report of type VerificationReport (got report = "
            "EnvelopeParams(center=Center(p=300, q=21), epsilon=2.0))",
            id="to_svg params",
        ),
        pytest.param(
            lambda: to_svg(empty_report(), None),
            "svg_chunks needs opts of type RenderOptions (got opts = None)",
            id="to_svg None opts",
        ),
        pytest.param(
            lambda: next(csv_chunks((300, 21, 2.0))),
            "csv_chunks needs report of type VerificationReport "
            "(got report = (300, 21, 2.0))",
            id="csv_chunks tuple",
        ),
        pytest.param(
            lambda: next(svg_chunks(empty_report(), {"width_px": 400})),
            "svg_chunks needs opts of type RenderOptions "
            "(got opts = {'width_px': 400})",
            id="svg_chunks dict opts",
        ),
    ],
)
def test_writers_refuse_what_is_not_a_report(write, message):
    # the generators check at their first next(); to_csv and to_svg at once
    with pytest.raises(DomainError) as excinfo:
        write()
    assert str(excinfo.value) == message


class TestWriterBytes:
    """Reports from build_envelope and from the constructor, called by
    hand, write the same bytes.

    The digests were recorded before the writers formatted straight from
    the kernel rows, when every record was validated and written field
    by field.  (10, 0) and (60, 0) hold s = 1 pairs, whose b = 0 must
    print as y = -0 in the SVG.  The last two were recorded before the
    SVG writer took its box from column maxima and printed coordinates
    below 10**9 with "%d": near 2**31 the coefficients reach 10**9 and
    the lines keep "%.9g", and (300, 21) with epsilon 1.5 has no
    records at all.  (100000, 30000) with epsilon 60 has 6,628 records,
    four chunks of rows; its digests were recorded before the writers
    made their documents in chunks.
    """

    OPTS = RenderOptions(show_curve=True, show_controls=True)
    CASES = {
        (10, 0, 3.0): (
            "abb8f6862e57abee6ea6644a2589aaa574e9e35fa477044dbb2ec10e3a95eec7",
            "d75fee64987f47ed836b14d257e6d0b9228614b2b2e125b73a1fa161c5e1f6a6",
        ),
        (60, 0, 2.0): (
            "37d219e7ad16beb06230e92079832c31b542ef4d4aa9daac68c376e63c18bb2b",
            "d3db481b7b77c22ffafd3c5fc4972a84f38b36e1e0448635e014160c456fdf61",
        ),
        (5000, 1234, 20.0): (
            "e02dad781a15527f079b09feb4e46977372ea9e8956868641b5a3930a9dc020c",
            "01778bcc137c1f193e5b723ecd4ad73db350e60b56a4947752747458e540aeac",
        ),
        (2**31 - 10, 2**31 - 15, 3.0): (
            "a05048a20b5df4b715c4b974bb75d5f86aac2b58b14a392df8b0fc97567a4b4d",
            "7e5717faa4eccd0736ccfdfe5b292b784b9fc6a017248b25599e87e1ab21c2c7",
        ),
        (300, 21, 1.5): (
            "7592efd5a08c47a5f859761fff9d3e4519b16fad93d7109069feba92e951bb6f",
            "e2535f34e6a9009534fe1cf26b37514244f673bf7fad2ed84e38ff75219bb972",
        ),
        (100000, 30000, 60.0): (
            "d21d2220f3da845755bca63d8b09f89f0c71288cdf72c5296b1de5639204744f",
            "4a05ddad9fe13fddbf5fee83b000758d3f520201b6001c10510d19a2a6696db8",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES), ids=str)
    def test_built_and_hand_built_match_digests(self, case):
        p, q, eps = case
        report = build_envelope(EnvelopeParams(Center(p, q), eps))
        hand_built = VerificationReport(report.params)
        csv_text = to_csv(report)
        svg_text = to_svg(report, self.OPTS)
        assert to_csv(hand_built) == csv_text
        assert to_svg(hand_built, self.OPTS) == svg_text
        digests = tuple(
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            for text in (csv_text, svg_text)
        )
        assert digests == self.CASES[case]


class CountingRows(Sequence):
    """A row sequence that counts the reads of its rows: iterations and
    indexing, slices included (chunked slices)."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        self.reads += 1
        return self.rows[index]

    def __iter__(self):
        self.reads += 1
        return iter(self.rows)


class TestChunks:
    """The writers' documents come in chunks of at most CHUNK_ROWS rows."""

    OPTS = RenderOptions(show_curve=True, show_controls=True)

    @pytest.fixture(scope="class")
    def report(self):
        report = build_envelope(EnvelopeParams(Center(100000, 30000), 60.0))
        assert report.neighbor_count > 3 * CHUNK_ROWS
        return report

    def test_joined_chunks_are_the_documents(self, report):
        assert "".join(csv_chunks(report)) == to_csv(report)
        assert "".join(svg_chunks(report, self.OPTS)) == to_svg(report, self.OPTS)

    def test_csv_chunks_hold_whole_rows(self, report):
        header, *chunks = csv_chunks(report)
        assert header == CSV_HEADER + "\n"
        sizes = [chunk.count("\n") for chunk in chunks]
        assert all(chunk.endswith("\n") for chunk in chunks)
        assert max(sizes) == CHUNK_ROWS
        assert sum(sizes) == report.neighbor_count
        assert len(chunks) == -(-report.neighbor_count // CHUNK_ROWS)

    def test_svg_chunks_hold_whole_lines(self, report):
        header, *chunks, trailer = svg_chunks(report, self.OPTS)
        assert header.startswith("<?xml") and header.endswith(">\n")
        assert "<line" not in header and "<line" not in trailer
        assert trailer.endswith("</svg>\n")
        sizes = [chunk.count("<line ") for chunk in chunks]
        assert [chunk.count("\n") for chunk in chunks] == sizes
        assert max(sizes) == CHUNK_ROWS
        assert sum(sizes) == report.neighbor_count

    def test_svg_header_is_decided_from_every_row(self, report, monkeypatch):
        # The box and stroke width come from all rows, not the first
        # chunk: a scan that yields the rows reversed puts other rows
        # first and must not change the header or any line.
        rows = report.rows[::-1]
        monkeypatch.setattr(_kernels_py, "envelope_scan", lambda p, q, radius: rows)
        reversed_report = VerificationReport(report.params)
        header, *chunks = svg_chunks(report, self.OPTS)
        header_rev, *chunks_rev = svg_chunks(reversed_report, self.OPTS)
        assert header_rev == header
        lines = "".join(chunks).splitlines()
        assert sorted("".join(chunks_rev).splitlines()) == sorted(lines)

    def test_svg_header_reads_no_row(self, report, monkeypatch):
        # the report reads its rows once, as it is built; the header
        # comes from that pass, so no row is read before the first chunk
        rows = CountingRows(report.rows)
        monkeypatch.setattr(_kernels_py, "envelope_scan", lambda p, q, radius: rows)
        counted = VerificationReport(report.params)
        assert rows.reads == 1
        chunks = svg_chunks(counted, self.OPTS)
        header = next(chunks)
        assert rows.reads == 1
        assert header + "".join(chunks) == to_svg(report, self.OPTS)
        assert rows.reads > 1

    def test_empty_report_is_header_and_trailer(self):
        report = empty_report()
        assert list(csv_chunks(report)) == [CSV_HEADER + "\n"]
        chunks = list(svg_chunks(report, self.OPTS))
        assert len(chunks) == 2
        assert "".join(chunks) == to_svg(report, self.OPTS)
