"""Command-line front end.

Subcommands: bezout, neighbors, envelope, verify, audit-sweep.
Exit codes: 0 success, 1 usage or parse error, 2 domain or hypothesis
violation, 3 verification failure (a measured deviation at or above
epsilon, which would falsify the approximation bound).

Output is written as it is made: neighbors and envelope write their
rows in chunks of CHUNK_ROWS, and audit-sweep writes each summary row
when its combination is done.  A reader that closes stdout before the
output ends (``neighbors ... | head -1``) gives exit code 1 and no
traceback; any other failed write, to stdout or to ``envelope
--output``, gives exit code 1 and the message ``error: cannot write
<target>: <reason>``.  Either leaves the output written so far.

Each command imports the modules it runs when it runs: ``bezout`` and
``neighbors`` load none of envelope, geometry and io_render, ``verify``
and ``audit-sweep`` load envelope and geometry, and only ``envelope``
loads io_render.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._frozen import chunked
from .errors import DomainError, HypothesisError
from .numtheory import Center, CoprimePair, bezout_coefficients, coprime_neighbors

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_BOUND_FAILED = 3

AUDIT_HEADER = "p,q,epsilon,neighbor_count,max_deviation,bound_slack,all_ok"


def format_real(value: float) -> str:
    """Reals in the text outputs: 12 significant digits, as in the CSV."""
    return format(value, ".12g")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, expected: str):
    """An argparse type: `convert` the text and require `ok(value)`.

    Text that does not convert gets the same message as a value out of
    range, so argparse never names this function in its error.
    """

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{expected}, got {text}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bezout-bezier",
        description=(
            "Approximate the quadratic Bezier curve for control points "
            "(p,q), (0,0), (q,p) by segments joining Bezout coefficients "
            "of coprime pairs near (p,q), and verify the deviation bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive_int = _checked(int, lambda v: v >= 1, "expected a positive integer")
    nonnegative_int = _checked(int, lambda v: v >= 0, "expected a nonnegative integer")

    sp = sub.add_parser("bezout", parents=[], help="normalized Bezout coefficients")
    sp.add_argument("p", type=positive_int)
    sp.add_argument("q", type=positive_int)
    sp.set_defaults(func=cmd_bezout)

    sp = sub.add_parser("neighbors", help="coprime pairs within a disk")
    sp.add_argument("p", type=positive_int)
    sp.add_argument("q", type=nonnegative_int)
    sp.add_argument(
        "radius",
        type=_checked(float, lambda v: v >= 0.0, "expected a nonnegative number"),
    )
    sp.set_defaults(func=cmd_neighbors)

    for name, func, help_text in (
        ("envelope", cmd_envelope, "build the segment family and write CSV/SVG"),
        ("verify", cmd_verify, "check the deviation bound and print PASS/FAIL"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("p", type=positive_int)
        sp.add_argument("q", type=nonnegative_int)
        sp.add_argument("epsilon", type=float)
        if name == "envelope":
            sp.add_argument(
                "--format",
                choices=("csv", "svg", "text"),
                default="csv",
                help="output format (default: csv)",
            )
            sp.add_argument(
                "--output", default=None, help="write to this file instead of stdout"
            )
            sp.add_argument(
                "--width-px",
                type=_checked(int, lambda v: v >= 16, "width must be at least 16 px"),
                default=800,
            )
            sp.add_argument("--show-curve", action="store_true")
            sp.add_argument("--show-controls", action="store_true")
            sp.add_argument(
                "--curve-samples",
                type=_checked(int, lambda v: v >= 2, "need at least 2 samples"),
                default=256,
            )
            sp.add_argument(
                "--stroke-width-fraction",
                type=_checked(
                    float,
                    lambda v: 0.0 < v < 1.0,
                    "stroke fraction must lie in (0, 1)",
                ),
                default=0.0008,
            )
        sp.set_defaults(func=func)

    sp = sub.add_parser(
        "audit-sweep",
        help="run many (p, q, epsilon) combinations from a spec file",
    )
    sp.add_argument(
        "spec_path", help="file of 'p q epsilon' lines; '#' starts a comment"
    )
    sp.set_defaults(func=cmd_audit_sweep)

    return parser


def _write_stdout(text: str) -> None:
    """Write all of `text` to stdout; a closed pipe raises BrokenPipeError.

    The text layer ignores how much of a write reached the file.  With
    PYTHONUNBUFFERED=1 its binary layer is the raw file, whose write to
    a pipe can take only part of the bytes, and the rest would be lost
    without an error.  So the bytes go to the binary layer, which
    returns the count, until all are written.  A stream without one
    (io.StringIO) takes the text as it is.
    """
    stream = sys.stdout
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text)
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        data = data[buffer.write(data):]


def cmd_bezout(args) -> int:
    coeffs = bezout_coefficients(CoprimePair(args.p, args.q))
    a, b = coeffs.a, coeffs.b
    _write_stdout(
        f"B({args.p},{args.q}) = ({a}, {b})\n"
        f"check: {a}*{args.q} - {b}*{args.p} = {a * args.q - b * args.p}\n"
    )
    return EXIT_OK


def cmd_neighbors(args) -> int:
    pairs = coprime_neighbors(Center(args.p, args.q), args.radius)
    for chunk in chunked(pairs):
        _write_stdout("".join([f"({pair.r},{pair.s})\n" for pair in chunk]))
    _write_stdout(f"count: {len(pairs)}\n")
    return EXIT_OK


def _report_text(report):
    """Yield the text format: a summary around one line per record."""
    from .envelope import kernel_rows

    params = report.params
    eps = params.epsilon
    yield (
        f"center: ({params.center.p},{params.center.q})\n"
        f"epsilon: {format_real(eps)}\n"
        f"neighbor_count: {report.neighbor_count}\n"
    )
    for chunk in chunked(kernel_rows(report.records)):
        yield "".join([
            f"({r},{s}) B=({a},{b}) flip=({af},{bf}) t={format_real(t)} "
            f"deviation={format_real(dev)} "
            + ("ok\n" if dev < eps else "BOUND VIOLATED\n")
            for r, s, a, b, af, bf, t, _, _, dev in chunk
        ])
    yield _summary_text(report)


def _summary_text(report) -> str:
    """The closing lines of the text format, which verify prints too."""
    return (
        f"max_deviation: {format_real(report.max_deviation)}\n"
        f"max_endpoint_gap: {format_real(report.max_endpoint_gap)}\n"
        f"{'PASS' if report.all_bounds_hold else 'FAIL'}\n"
    )


def cmd_envelope(args) -> int:
    from .envelope import EnvelopeParams, build_envelope
    from .io_render import RenderOptions, csv_chunks, svg_chunks

    report = build_envelope(EnvelopeParams(Center(args.p, args.q), args.epsilon))
    if args.format == "svg":
        opts = RenderOptions(
            width_px=args.width_px,
            show_curve=args.show_curve,
            show_controls=args.show_controls,
            curve_samples=args.curve_samples,
            stroke_width_fraction=args.stroke_width_fraction,
        )
        chunks = svg_chunks(report, opts)
    elif args.format == "csv":
        chunks = csv_chunks(report)
    else:
        chunks = _report_text(report)
    if args.output is None:
        for chunk in chunks:
            _write_stdout(chunk)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
    return EXIT_OK if report.all_bounds_hold else EXIT_BOUND_FAILED


def cmd_verify(args) -> int:
    from .envelope import EnvelopeParams, build_envelope

    report = build_envelope(EnvelopeParams(Center(args.p, args.q), args.epsilon))
    _write_stdout(f"neighbor_count: {report.neighbor_count}\n" + _summary_text(report))
    return EXIT_OK if report.all_bounds_hold else EXIT_BOUND_FAILED


def _parse_sweep_spec(text: str) -> list[tuple[int, int, float]]:
    """Parse 'p q epsilon' lines; raises ValueError naming the bad line."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'p q epsilon', got {raw!r}")
        try:
            rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(
                f"line {lineno}: could not parse 'p q epsilon' from {raw!r}"
            ) from None
    return rows


def cmd_audit_sweep(args) -> int:
    try:
        with open(args.spec_path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.spec_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        rows = _parse_sweep_spec(text)
    except ValueError as exc:
        print(f"error: {args.spec_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # The whole spec has parsed: from here on, each row is written (and
    # flushed) as soon as its combination is done.
    _write_stdout(AUDIT_HEADER + "\n")
    for p, q, eps in rows:
        _write_stdout(_audit_row(p, q, eps) + "\n")
        sys.stdout.flush()
    return EXIT_OK


def _audit_row(p: int, q: int, eps: float) -> str:
    from .envelope import sweep_one

    try:
        center = Center(p, q)
    except DomainError as exc:
        return _skip_row(p, q, eps, str(exc))
    result = sweep_one(center, eps)
    if result.report is None:
        return _skip_row(p, q, eps, result.skip_reason or "")
    report = result.report
    slack = eps - report.max_deviation
    return (
        f"{p},{q},{format_real(eps)},{report.neighbor_count},"
        f"{format_real(report.max_deviation)},{format_real(slack)},"
        f"{'true' if report.all_bounds_hold else 'false'}"
    )


def _skip_row(p: int, q: int, eps: float, reason: str) -> str:
    # keep the row parseable as CSV: reasons must not introduce columns
    reason = reason.replace(",", ";")
    return f"{p},{q},{format_real(eps)},,,,skipped: {reason}"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (DomainError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        # Only writes raise OSError here: audit-sweep reports its own
        # failed read.  Without --output the target is stdout: point it
        # at devnull so that the final flush at exit does not fail a
        # second time, and say nothing if the reader closed it early.
        target = getattr(args, "output", None)
        if target is None:
            target = "stdout"
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return EXIT_USAGE
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
