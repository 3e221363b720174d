#!/usr/bin/env python3
"""Benchmark of bezout-bezier: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload big-disk --seed 1 --seconds 20 --trace 0

Every load is closed-loop with one client: one process, no threads, and
for cli-figure one child process at a time.  With ``--trace 0`` the run
is untraced and prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` a separate traced run prints the per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  ``--out FILE`` also appends the full record, with
the run's metadata, to FILE as one JSON line (see compare.py).

The program is imported from ``src/`` of the checkout this file sits
in; without it the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import warmup; warmup.run({name!r}); "
    "print(time.perf_counter() - t)"
)


@dataclass
class Stats:
    """Per operation, in run order: wall time and pairs processed."""

    walls: list[float] = field(default_factory=list)
    pairs: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least 10
    samples beyond it.

    With 10 samples or fewer no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_input(values: list[float], n_inputs: int) -> list[float]:
    """Median per input; operations run the inputs in order, so op k ran
    input k % n_inputs."""
    return [median(values[i::n_inputs]) for i in range(min(n_inputs, len(values)))]


def pairs_rate(stats: Stats, n_inputs: int) -> float:
    """Pairs per second: pairs of one pass over the inputs, over the sum
    of each input's median wall time.

    Per-input medians keep a repetition that the machine stalled from
    moving the rate.
    """
    return sum(per_input(stats.pairs, n_inputs)) / sum(per_input(stats.walls, n_inputs))


def timed_op(wl, inp, stats: Stats, tracer=None) -> None:
    """Run, time and check one operation; trace it when a tracer is given."""
    from workloads import no_span

    span = tracer.span if tracer else no_span
    if tracer:
        tracer.op += 1
    start = time.perf_counter()
    try:
        result = wl.run_op(inp, span)
    except Exception as exc:  # an operation that raises counts as failed
        result, problem = None, f"{type(exc).__name__}: {exc}"
    else:
        problem = None
    end = time.perf_counter()
    stats.walls.append(end - start)
    stats.attempted += 1
    pairs = 0
    try:
        if problem is None:
            problem = wl.check(inp, result)
        if problem is None:
            pairs = wl.pairs(inp, result)
            if tracer:
                tracer.spans.append((tracer.unit, tracer.op, "op", start, end))
                wl.count(inp, result, tracer)
                op, tracer.op = tracer.op, -1
                wl.probe(inp, tracer)
                tracer.op = op
    except Exception as exc:  # a check or probe that raises fails the op
        problem = f"{type(exc).__name__}: {exc}"
    if problem is not None:
        pairs = 0
        stats.failed += 1
        stats.problems.append(problem)
    stats.pairs.append(pairs)
    del result


def measure(wl, seconds: float) -> Stats:
    """Untraced: cycle through the inputs until `seconds` of op time."""
    stats = Stats()
    busy = 0.0
    for inp in itertools.cycle(wl.inputs):
        timed_op(wl, inp, stats)
        busy += stats.walls[-1]
        if busy >= seconds:
            return stats


def measure_traced(wl, seconds: float):
    """Alternate untraced and traced passes over the inputs for `seconds`."""
    from workloads import Tracer

    tracer = Tracer()
    plain, traced = Stats(), Stats()
    start = time.perf_counter()
    while not traced.walls or time.perf_counter() - start < seconds:
        for inp in wl.inputs:
            timed_op(wl, inp, plain)
        tracer.begin_unit()
        for inp in wl.inputs:
            timed_op(wl, inp, traced, tracer)
    return tracer, plain, traced


def setup_seconds(name: str, workdir: Path) -> float:
    """Median over fresh child interpreters of import plus warm-up time."""
    from workloads import child_env, run_child

    times = []
    for _ in range(SETUP_REPEATS):
        code, out, _ = run_child(
            [sys.executable, "-c", SETUP_PROBE.format(name=name)], workdir, child_env()
        )
        if code != 0:
            raise RuntimeError(f"set-up probe for {name} exited with {code}")
        times.append(float(out))
    return median(times)


def source_digest() -> str:
    """SHA-256 over the paths and bytes of the files under src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checkout's commit, when it is a git work tree of its own."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_metadata(args, bb) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": bb.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def end_to_end(wl, stats: Stats, setup_s: float) -> tuple[dict, dict]:
    n_inputs = len(wl.inputs)
    # the tail is taken over each input's median time: over single
    # samples it is set by the few operations a shared machine stalls
    typical = per_input(stats.walls, n_inputs)
    value, pct = tail(typical)
    if wl.name == "cli-figure":
        rss_kib = wl.max_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "pairs_per_s": pairs_rate(stats, n_inputs),
        "op_ms_p50": median(typical) * 1e3,
        "op_ms_tail": value * 1e3,
        "peak_rss_mb": rss_kib / 1024,
        "ok_frac": 1.0 - stats.failed / stats.attempted,
    }
    details = {
        "op_ms_tail": {"percentile": pct, "inputs": len(typical)},
        "samples": len(stats.walls),
        "failed_frac": stats.failed / stats.attempted,
    }
    return metrics, details


def per_layer(wl, names, tracer, plain: Stats, traced: Stats) -> tuple[dict, dict]:
    """Every per-layer metric; 0 for a layer this workload does not call."""
    metrics = dict.fromkeys(names, 0.0)
    metrics["trace.coverage"] = tracer.op_coverage()
    metrics.update(wl.layer_metrics(tracer))
    metrics["envelope.build_peak_mb"] = wl.peak_mb()
    metrics["trace.overhead_frac"] = median(traced.walls) / median(plain.walls) - 1
    details = {
        "traced_units": tracer.unit + 1,
        "op_ms_p50_untraced": median(plain.walls) * 1e3,
        "op_ms_p50_traced": median(traced.walls) * 1e3,
    }
    return metrics, details


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    package = SRC / "bezout_bezier" / "__init__.py"
    if not spec_path.is_file() or not package.is_file():
        print(f"error: {package} or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full record here")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import bezout_bezier as bb

    if not Path(bb.__file__).resolve().is_relative_to(SRC):
        print(f"error: bezout_bezier was imported from {bb.__file__}", file=sys.stderr)
        return 2
    import warmup
    import workloads

    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_parent))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            warmup.run(args.workload)
            gc.collect()
            tracer, plain, traced = measure_traced(wl, args.seconds)
            names = [m["name"] for m in spec["per_layer"]]
            metrics, details = per_layer(wl, names, tracer, plain, traced)
            stats = Stats(
                attempted=plain.attempted + traced.attempted,
                failed=plain.failed + traced.failed,
                problems=plain.problems + traced.problems,
            )
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            setup_s = setup_seconds(args.workload, workdir)
            warmup.run(args.workload)
            gc.collect()
            stats = measure(wl, args.seconds)
            metrics, details = end_to_end(wl, stats, setup_s)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass

    meta = run_metadata(args, bb)
    print("meta " + json.dumps(meta))
    for problem in stats.problems[:10]:
        print(f"FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in details.items():
        print(f"{name}: {json.dumps(value)}")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    if args.out:
        record = dict(result, meta=meta, details=details, problems=stats.problems[:10])
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
