"""Import and warm-up of each workload: the work that set-up time measures.

This module imports only the program, so a child process that times
``import warmup; warmup.run(name)`` measures the program's own import
and first calls, not the benchmark's.
"""

import io
from contextlib import redirect_stdout

import bezout_bezier as bb


def big_disk() -> None:
    report = bb.build_envelope(bb.EnvelopeParams(bb.Center(5000, 1234), 9.0))
    bb.to_csv(report)
    bb.to_svg(report, bb.RenderOptions(show_curve=True))


def small_sweep() -> None:
    for p, q, eps in ((300, 21, 2.0), (5000, 1234, 8.0)):
        center = bb.Center(p, q)
        params = bb.EnvelopeParams(center, eps)
        bb.build_envelope(params)
        for pair in bb.coprime_neighbors(center, eps):
            bb.endpoint_gaps(pair, params)


def cli_figure() -> None:
    from bezout_bezier import cli

    with redirect_stdout(io.StringIO()):
        cli.main(["bezout", "299", "21"])


WARM_UPS = {"big-disk": big_disk, "small-sweep": small_sweep, "cli-figure": cli_figure}


def run(name: str) -> None:
    WARM_UPS[name]()
