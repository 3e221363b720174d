"""Command-line front end.

Subcommands: bezout, neighbors, envelope, verify, audit-sweep.
Exit codes: 0 success, 1 usage or parse error, 2 domain or hypothesis
violation, 3 verification failure (a measured deviation at or above
epsilon, which would falsify the approximation bound).

Each command returns its exit code and its output as text chunks made
lazily, and main alone writes them, into one stream: stdout, or the
``envelope --output`` file (UTF-8), which it opens once the command
has returned.  One writer, ``_write``, serves both: it writes each
chunk whole to the stream's binary layer and flushes it.  So output is
written as it is made: neighbors and envelope make their rows in
chunks of CHUNK_ROWS, and audit-sweep makes each summary row when its
combination is done.  A reader that
closes stdout before the output ends (``neighbors ... | head -1``)
gives exit code 1 and no traceback; any other failed write, to stdout
or to ``envelope --output``, gives exit code 1 and the message
``error: cannot write <target>: <reason>``.  Either leaves the output
written so far.

Each command imports the modules it runs when it runs: ``bezout`` and
``neighbors`` load none of envelope, geometry and io_render, ``verify``,
``audit-sweep`` and ``envelope --format text`` load envelope alone,
only the csv and svg formats of ``envelope``, and a render flag that is
given (RenderOptions checks it at parse time), load io_render, and only
an SVG overlay (``--show-curve``, ``--show-controls``) loads geometry.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from itertools import chain, starmap

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
    range, so argparse never names this function in its error.  A
    DomainError from `ok` gives its own message instead.
    """

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        # DomainError subclasses ValueError, so it is caught first
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{expected}, got {text}")

    return parse


def _render_flag(convert, name: str):
    """The argparse type of the render flag for RenderOptions' field
    `name`: RenderOptions itself checks the value, so a bad flag is a
    usage error (exit 1) at parse time, before any scan.  io_render is
    loaded only when the flag is given."""

    def ok(value):
        from .io_render import RenderOptions

        return RenderOptions(**{name: value})

    kind = "an integer" if convert is int else "a number"
    return _checked(convert, ok, f"expected {kind}")


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

    sp = sub.add_parser("bezout", help="normalized Bezout coefficients")
    sp.add_argument("p", type=positive_int)
    sp.add_argument("q", type=positive_int)
    sp.set_defaults(func=cmd_bezout)

    # The arguments that neighbors, envelope and verify share.
    center = argparse.ArgumentParser(add_help=False)
    center.add_argument("p", type=positive_int)
    center.add_argument("q", type=nonnegative_int)
    center_eps = argparse.ArgumentParser(add_help=False, parents=[center])
    center_eps.add_argument("epsilon", type=float)

    sp = sub.add_parser(
        "neighbors", parents=[center], help="coprime pairs within a disk"
    )
    sp.add_argument(
        "radius",
        type=_checked(float, lambda v: v >= 0.0, "expected a nonnegative number"),
    )
    sp.set_defaults(func=cmd_neighbors)

    # A render flag that is not given sets no attribute, so the defaults
    # are RenderOptions' own; cmd_envelope passes the flags by field name.
    sp = sub.add_parser(
        "envelope",
        parents=[center_eps],
        argument_default=argparse.SUPPRESS,
        help="build the segment family and write CSV/SVG",
    )
    sp.add_argument(
        "--format",
        choices=("csv", "svg", "text"),
        default="csv",
        help="output format (default: csv)",
    )
    sp.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )
    sp.add_argument("--width-px", type=_render_flag(int, "width_px"))
    sp.add_argument("--show-curve", action="store_true")
    sp.add_argument("--show-controls", action="store_true")
    sp.add_argument("--curve-samples", type=_render_flag(int, "curve_samples"))
    sp.add_argument(
        "--stroke-width-fraction", type=_render_flag(float, "stroke_width_fraction")
    )
    sp.set_defaults(func=cmd_envelope)

    sp = sub.add_parser(
        "verify",
        parents=[center_eps],
        help="check the deviation bound and print PASS/FAIL",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser(
        "audit-sweep",
        help="run many (p, q, epsilon) combinations from a spec file",
    )
    sp.add_argument(
        "spec_path", help="file of 'p q epsilon' lines; '#' starts a comment"
    )
    sp.set_defaults(func=cmd_audit_sweep)

    return parser


def _write(stream, text: str) -> None:
    """Write all of `text` to `stream`, stdout or the --output file, and
    flush it.

    The text layer ignores how much of a write reached the file.  With
    PYTHONUNBUFFERED=1 stdout's binary layer is the raw file, whose
    write to a pipe can take only part of the bytes, and the rest would
    be lost without an error.  So the bytes go to the binary layer,
    which returns the count, until all are written.  A stream without
    one (io.StringIO) takes the text as it is.  The flush makes a failed
    write, or a reader that closed stdout, show at this chunk.
    """
    if not hasattr(stream, "buffer"):
        stream.write(text)
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        data = data[stream.buffer.write(data):]
    stream.flush()


def cmd_bezout(args) -> tuple[int, Iterable[str]]:
    coeffs = bezout_coefficients(CoprimePair(args.p, args.q))
    a, b = coeffs.a, coeffs.b
    return EXIT_OK, [
        f"B({args.p},{args.q}) = ({a}, {b})\n"
        f"check: {a}*{args.q} - {b}*{args.p} = {a * args.q - b * args.p}\n"
    ]


def cmd_neighbors(args) -> tuple[int, Iterable[str]]:
    pairs = coprime_neighbors(Center(args.p, args.q), args.radius)
    lines = (
        "".join([f"({pair.r},{pair.s})\n" for pair in chunk])
        for chunk in chunked(pairs)
    )
    return EXIT_OK, chain(lines, [f"count: {len(pairs)}\n"])


def _report_text(report):
    """Yield the text format: a summary around one line per record."""
    params = report.params
    eps = params.epsilon
    yield (
        f"center: ({params.center.p},{params.center.q})\n"
        f"epsilon: {format_real(eps)}\n"
        f"neighbor_count: {report.neighbor_count}\n"
    )
    for chunk in chunked(report.rows):
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


def _checked_report(args):
    """Build the envelope; return (exit code, report), code 3 if a bound fails."""
    from .envelope import EnvelopeParams, build_envelope

    report = build_envelope(EnvelopeParams(Center(args.p, args.q), args.epsilon))
    return EXIT_OK if report.all_bounds_hold else EXIT_BOUND_FAILED, report


def cmd_envelope(args) -> tuple[int, Iterable[str]]:
    code, report = _checked_report(args)
    if args.format == "svg":
        from .io_render import RenderOptions, svg_chunks

        flags = vars(args).keys() & RenderOptions._fields
        opts = RenderOptions(**{name: getattr(args, name) for name in flags})
        return code, svg_chunks(report, opts)
    if args.format == "csv":
        from .io_render import csv_chunks

        return code, csv_chunks(report)
    return code, _report_text(report)


def cmd_verify(args) -> tuple[int, Iterable[str]]:
    code, report = _checked_report(args)
    return code, [f"neighbor_count: {report.neighbor_count}\n" + _summary_text(report)]


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


def cmd_audit_sweep(args) -> tuple[int, Iterable[str]]:
    try:
        # A leading byte order mark, which some editors write, is not text.
        with open(args.spec_path, encoding="utf-8") as handle:
            rows = _parse_sweep_spec(handle.read().removeprefix("\ufeff"))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.spec_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE, []
    except ValueError as exc:
        print(f"error: {args.spec_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE, []
    # The whole spec has parsed: from here on, each row is made (and
    # written) as soon as its combination is done.
    return EXIT_OK, chain([AUDIT_HEADER + "\n"], starmap(_audit_row, rows))


def _audit_row(p: int, q: int, eps: float) -> str:
    """The summary row of one spec line, or its skip row if the center or
    the hypotheses refuse it.  A kernel row that fails the report's
    verification still raises DomainError, which ends the run (exit 2)."""
    from .envelope import EnvelopeParams, build_envelope

    try:
        params = EnvelopeParams(Center(p, q), eps)
    except (DomainError, HypothesisError) as exc:
        # keep the row parseable as CSV: reasons must not introduce columns
        reason = str(exc).replace(",", ";")
        return f"{p},{q},{format_real(eps)},,,,skipped: {reason}\n"
    report = build_envelope(params)
    slack = eps - report.max_deviation
    return (
        f"{p},{q},{format_real(eps)},{report.neighbor_count},"
        f"{format_real(report.max_deviation)},{format_real(slack)},"
        f"{'true' if report.all_bounds_hold else 'false'}\n"
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    target = getattr(args, "output", None)
    try:
        code, chunks = args.func(args)
        # The file is opened only after the command has returned, so a
        # refused run creates none and leaves an existing one as it was.
        stream = sys.stdout if target is None else open(target, "w", encoding="utf-8")
        try:
            for chunk in chunks:
                _write(stream, chunk)
        finally:
            if stream is not sys.stdout:
                stream.close()
        return code
    except (DomainError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        # Only writes raise OSError here: audit-sweep reports its own
        # failed read.  Without --output the target is stdout: point it
        # at devnull so that the final flush at exit does not fail a
        # second time, and say nothing if the reader closed it early.
        if target is None:
            target = "stdout"
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return EXIT_USAGE
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
