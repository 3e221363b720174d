"""Workloads of the bezout-bezier benchmark: inputs, operations and checks.

Each workload turns a seed into a list of inputs and defines:

- ``run_op(inp, span)``: one operation, the unit that is timed.  It
  releases its intermediate objects before it returns, and returns only
  what the check needs.
- ``check(inp, result)``: compares the result with independent
  expectations (brute-force enumeration, exact identities, digests
  recorded at the seed commit).  Returns ``None`` or a message naming
  the problem.  It runs outside the timed region.
- ``pairs(inp, result)``: coprime pairs the operation fully processed.

and, for the traced run only:

- ``count(inp, result, tracer)``: counts of the operation's work.
- ``probe(inp, tracer)``: direct calls into single layers on the same
  input, made after the operation, around which the tracer records spans.
- ``peak_mb()``: tracemalloc peak of one ``build_envelope``, in its own pass.
- ``layer_metrics(tracer)``: the per-layer metrics of this workload.

``span(name)`` is either ``Tracer.span`` or ``no_span``; with the
latter the operation runs the program exactly as a user would.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext, redirect_stdout
from math import ceil, exp, floor, gcd, hypot, log
from pathlib import Path
from statistics import median

import bezout_bezier as bb
from bezout_bezier import _backend

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
_NULL = nullcontext()


def no_span(name):
    return _NULL


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def brute_pairs(p: int, q: int, radius: float) -> list[tuple[int, int]]:
    """Coprime (r, s), r, s >= 1, within `radius` of (p, q), in (r, s) order.

    A plain box scan with math.gcd, sharing no code with the library.
    Membership compares the squared distance as a float with
    radius * radius, the rule the library documents.
    """
    rr = radius * radius
    rows = range(max(1, ceil(p - radius)), floor(p + radius) + 1)
    cols = range(max(1, ceil(q - radius)), floor(q + radius) + 1)
    return [
        (r, s)
        for r in rows
        for s in cols
        if float((r - p) ** 2 + (s - q) ** 2) <= rr and gcd(r, s) == 1
    ]


def compiled_kernels():
    """The compiled kernel module, or None when it is not built."""
    try:
        from bezout_bezier import _kernels
    except ImportError:
        return None
    return _kernels


def kernel_parity(p: int, q: int, radius: float, compiled=None) -> str | None:
    """Compare the compiled kernels with the pure-Python ones, tuple by tuple.

    Returns None when they agree or when no compiled extension exists.
    """
    compiled = compiled or compiled_kernels()
    if compiled is None:
        return None
    from bezout_bezier import _kernels_py

    for name in ("coprime_pairs_in_disk", "envelope_scan"):
        got = [tuple(row) for row in getattr(compiled, name)(p, q, radius)]
        want = [tuple(row) for row in getattr(_kernels_py, name)(p, q, radius)]
        if got != want:
            return f"compiled {name}({p}, {q}, {radius}) differs from pure Python"
    return None


def check_csv(text: str, expected: tuple[tuple[int, int], ...], eps: float) -> str | None:
    """Check every CSV row: identities, the bound, and the (r, s) list."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != bb.io_render.CSV_HEADER:
        return "CSV header or trailing newline is wrong"
    seen = []
    for line in lines[1:-1]:
        cols = line.split(",")
        if len(cols) != 15:
            return f"CSV row has {len(cols)} columns: {line!r}"
        r, s, a, b, af, bf = map(int, cols[:6])
        if a * s - b * r != 1 or not (0 < a <= r and 0 <= b < s):
            return f"CSV row breaks a*s - b*r == 1 or its box: {line!r}"
        if (af, bf) != (s - b, r - a) or af * r - bf * s != 1:
            return f"CSV row breaks the flip identity: {line!r}"
        if cols[14] != "true" or not float(cols[13]) < eps:
            return f"CSV row breaks the deviation bound: {line!r}"
        seen.append((r, s))
    if tuple(seen) != expected:
        return f"CSV has {len(seen)} pairs; brute force finds {len(expected)}"
    return None


def check_svg(text: str, n_lines: int, curve: bool) -> str | None:
    if not text.startswith("<?xml") or not text.endswith("</svg>\n"):
        return "SVG is not a complete document"
    got = text.count("<line ")
    if got != n_lines:
        return f"SVG has {got} <line> elements; brute force finds {n_lines}"
    if ("<polyline " in text) != curve:
        return "SVG curve overlay present/absent unexpectedly"
    return None


@functools.cache
def golden(workload: str) -> dict:
    """SHA-256 digests of outputs recorded at the seed commit."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[workload]


class Tracer:
    """Spans and counts kept in memory for the traced run.

    A span is (unit, op, name, start, end).  A unit is one pass over the
    workload's inputs and ``op`` the index of an operation in it.  The
    operation's own span is named "op"; a layer span with the same unit
    and op lies inside it.  Direct layer calls made outside any operation
    have op -1.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.values: list[tuple[int, str, float]] = []
        self.unit = -1
        self.op = -1

    def begin_unit(self) -> None:
        self.unit += 1
        self.op = -1

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.unit, self.op, name, start, time.perf_counter()))

    def add(self, name: str, value: float) -> None:
        """Record a count, or a time measured elsewhere (a child process)."""
        self.values.append((self.unit, name, value))

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def per_unit(self, name: str) -> list[float]:
        """Per unit: summed span durations plus summed values under `name`."""
        totals = [0.0] * (self.unit + 1)
        for unit, _, n, start, end in self.spans:
            if n == name:
                totals[unit] += end - start
        for unit, n, value in self.values:
            if n == name:
                totals[unit] += value
        return totals

    def unit_median(self, name: str) -> float:
        return median(self.per_unit(name))

    def op_coverage(self) -> float:
        """Median share of each operation's wall time its layer spans cover."""
        ops: dict[tuple[int, int], float] = {}
        covered: dict[tuple[int, int], float] = {}
        for unit, op, name, start, end in self.spans:
            if op < 0:
                continue
            key = (unit, op)
            if name == "op":
                ops[key] = end - start
            else:
                covered[key] = covered.get(key, 0.0) + end - start
        return median(covered.get(key, 0.0) / wall for key, wall in ops.items())


def build_peak_mb(params_list) -> float:
    """Largest tracemalloc peak of one build_envelope call, in MB."""
    peak = 0
    tracemalloc.start()
    try:
        for params in params_list:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = bb.build_envelope(params)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            del report
    finally:
        tracemalloc.stop()
    return peak / 2**20


class BigDisk:
    """One large disk: build and verify, then write CSV and SVG."""

    name = "big-disk"
    EPS = 200.0

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        # the seed moves the center a few units: same size, other values
        self.inputs = [(100_000 + rng.randint(-5, 5), 30_000 + rng.randint(-5, 5))]
        self.seed = seed
        # expectations are computed before timing, so the harness's heap
        # stays the same size while operations run
        self.expected = {
            (p, q): (
                tuple(brute_pairs(p, q, self.EPS - 1.0)),
                kernel_parity(p, q, self.EPS - 1.0),
            )
            for p, q in self.inputs
        }
        self._digests: dict = {}

    def run_op(self, center, span):
        with span("envelope.params"):
            params = bb.EnvelopeParams(bb.Center(*center), self.EPS)
        with span("envelope.build"):
            report = bb.build_envelope(params)
        with span("io_render.csv"):
            csv_text = bb.to_csv(report)
        with span("io_render.svg"):
            svg_text = bb.to_svg(report, bb.RenderOptions(show_curve=True))
        return report.all_bounds_hold, report.neighbor_count, csv_text, svg_text

    def pairs(self, center, result) -> int:
        return result[1]

    def check(self, center, result) -> str | None:
        all_ok, count, csv_text, svg_text = result
        pairs, parity = self.expected[center]
        if parity:
            return parity
        if not all_ok:
            return "report says a deviation bound is broken"
        if count != len(pairs):
            return f"neighbor_count {count}; brute force finds {len(pairs)}"
        problem = check_csv(csv_text, pairs, self.EPS) or check_svg(
            svg_text, len(pairs), curve=True
        )
        if problem:
            return problem
        digests = (
            sha256(csv_text.encode("utf-8")),
            sha256(svg_text.encode("utf-8")),
        )
        if self._digests.setdefault(center, digests) != digests:
            return "output bytes differ between two passes on one input"
        recorded = golden(self.name)
        if self.seed == recorded["seed"] and list(digests) != [
            recorded["csv_sha256"],
            recorded["svg_sha256"],
        ]:
            return "output bytes differ from the digests recorded at the seed commit"
        return None

    def probe(self, center, tracer: Tracer) -> None:
        p, q = center
        radius = self.EPS - 1.0
        with tracer.span("kernels.scan"):
            rows = _backend.kernels.envelope_scan(p, q, radius)
        tracer.add("kernels.pairs", len(rows))
        del rows
        with tracer.span("kernels.disk"):
            _backend.kernels.coprime_pairs_in_disk(p, q, radius)
        with tracer.span("numtheory.neighbors"):
            bb.coprime_neighbors(bb.Center(p, q), radius)

    def count(self, center, result, tracer: Tracer) -> None:
        tracer.add("envelope.params_calls", 1)
        tracer.add("envelope.records", result[1])
        tracer.add("io_render.csv_bytes", len(result[2].encode("utf-8")))
        tracer.add("io_render.svg_bytes", len(result[3].encode("utf-8")))

    def peak_mb(self) -> float:
        return build_peak_mb(
            [bb.EnvelopeParams(bb.Center(*c), self.EPS) for c in self.inputs]
        )

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        m = kernel_and_envelope_metrics(tracer)
        m["io_render.csv_s"] = tracer.unit_median("io_render.csv")
        m["io_render.svg_s"] = tracer.unit_median("io_render.svg")
        m["io_render.csv_bytes"] = tracer.unit_median("io_render.csv_bytes")
        m["io_render.svg_bytes"] = tracer.unit_median("io_render.svg_bytes")
        return m


def kernel_and_envelope_metrics(tracer: Tracer) -> dict[str, float]:
    """Metrics of the kernels, numtheory and envelope layers."""
    scan_s = tracer.unit_median("kernels.scan")
    pairs = tracer.unit_median("kernels.pairs")
    disk_s = tracer.unit_median("kernels.disk")
    neighbors_s = tracer.unit_median("numtheory.neighbors")
    build_s = tracer.unit_median("envelope.build")
    m = {
        "kernels.scan_s": scan_s,
        "kernels.scan_us_per_pair": scan_s / pairs * 1e6 if pairs else 0.0,
        "kernels.disk_s": disk_s,
        "kernels.pairs": pairs,
        "numtheory.neighbors_s": neighbors_s,
        "numtheory.neighbors_self_s": neighbors_s - disk_s,
        "envelope.params_us": tracer.unit_median("envelope.params")
        / tracer.unit_median("envelope.params_calls")
        * 1e6,
        "envelope.build_s": build_s,
        "envelope.build_self_s": build_s - scan_s,
        "envelope.records": tracer.unit_median("envelope.records"),
    }
    calls = tracer.unit_median("envelope.gap_calls")
    if calls:
        gaps_s = tracer.unit_median("envelope.gaps")
        m["envelope.gaps_s"] = gaps_s
        m["envelope.gaps_us_per_call"] = gaps_s / calls * 1e6
        m["envelope.gap_calls"] = calls
    return m


def stratified(rng: random.Random, n: int) -> list[float]:
    """n uniform draws in [0, 1), one from each of n equal slices, shuffled.

    Each draw is still uniform, but two seeds give nearly the same
    spread of values, so the workload's size barely depends on the seed.
    """
    draws = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


def sweep_centers(seed: int, n: int) -> list[tuple[int, int, float, bool]]:
    """Rows (p, q, eps, valid) for the small-sweep workload.

    p is log-uniform in [5, 1e9], q uniform in [0, p) and eps uniform in
    (1, min(8, ||(p,q)||/2)].  One row in 20 breaks one hypothesis of
    EnvelopeParams on purpose (valid is False for those).
    """
    rng = random.Random(seed)
    p_draws, eps_draws = stratified(rng, n), stratified(rng, n)
    broken = set(rng.sample(range(n), n // 20))
    rows = []
    for i in range(n):
        p = round(exp(log(5) + p_draws[i] * (log(1e9) - log(5))))
        q = rng.randrange(p)
        hi = min(8.0, hypot(p, q) / 2)
        eps = hi - eps_draws[i] * (hi - 1.0)
        if i not in broken:
            rows.append((p, q, eps, True))
            continue
        kind = rng.randrange(4)
        if kind == 0:  # requires p > 3
            p, q, eps = rng.randint(1, 3), 0, 1.5
        elif kind == 1:  # requires 0 <= q < p
            q = p + rng.randrange(10)
        elif kind == 2:  # requires epsilon > 1
            eps = rng.uniform(0.25, 1.0)
        else:  # requires epsilon <= ||(p,q)||/2
            p, q = rng.randint(5, 60), 0
            eps = p / 2 + 0.5
        rows.append((p, q, eps, False))
    return rows


class SmallSweep:
    """Many small centers: build, then neighbors and every endpoint gap."""

    name = "small-sweep"
    N_CENTERS = 3000

    def __init__(self, seed: int, workdir: Path):
        self.inputs = sweep_centers(seed, self.N_CENTERS)
        self.expected = {
            row: (
                len(brute_pairs(row[0], row[1], row[2] - 1.0)),
                tuple(brute_pairs(row[0], row[1], row[2])),
                kernel_parity(row[0], row[1], row[2] - 1.0),
            )
            for row in self.inputs
            if row[3]
        }

    @staticmethod
    def run_op(row, span):
        p, q, eps, _ = row
        center = bb.Center(p, q)
        try:
            with span("envelope.params"):
                params = bb.EnvelopeParams(center, eps)
        except bb.HypothesisError:
            return None
        with span("envelope.build"):
            report = bb.build_envelope(params)
        with span("numtheory.neighbors"):
            neighbors = bb.coprime_neighbors(center, eps)
        with span("envelope.gaps"):
            gaps = [bb.endpoint_gaps(pair, params) for pair in neighbors]
        return report.all_bounds_hold, report.neighbor_count, neighbors, gaps

    def pairs(self, row, result) -> int:
        return 0 if result is None else result[1] + len(result[2])

    def check(self, row, result) -> str | None:
        p, q, eps, valid = row
        if not valid:
            return None if result is None else f"{row} did not raise HypothesisError"
        if result is None:
            return f"{row} raised HypothesisError"
        all_ok, count, neighbors, gaps = result
        n_records, expected, parity = self.expected[row]
        if parity:
            return parity
        if not all_ok:
            return f"{row}: a deviation bound is broken"
        if count != n_records:
            return f"{row}: {count} records; brute force finds {n_records}"
        if tuple((pair.r, pair.s) for pair in neighbors) != expected:
            return f"{row}: neighbors differ from brute force"
        if not all(g_a < eps + 1 and g_b < eps + 1 for g_a, g_b in gaps):
            return f"{row}: an endpoint gap reaches eps + 1"
        return None

    def probe(self, row, tracer: Tracer) -> None:
        p, q, eps, valid = row
        if not valid:
            return
        with tracer.span("kernels.scan"):
            rows = _backend.kernels.envelope_scan(p, q, eps - 1.0)
        tracer.add("kernels.pairs", len(rows))
        with tracer.span("kernels.disk"):
            _backend.kernels.coprime_pairs_in_disk(p, q, eps)

    def count(self, row, result, tracer: Tracer) -> None:
        tracer.add("envelope.params_calls", 1)
        if result is not None:
            tracer.add("envelope.records", result[1])
            tracer.add("envelope.gap_calls", len(result[2]))

    def peak_mb(self) -> float:
        valid = [row for row in self.inputs if row[3]][:200]
        return build_peak_mb(
            [bb.EnvelopeParams(bb.Center(p, q), eps) for p, q, eps, _ in valid]
        )

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        return kernel_and_envelope_metrics(tracer)


AUDIT_SPEC = "300 21 2\n5000 1234 8\n10 12 3  # q >= p: a skipped row\n"


def cli_invocations(workdir: Path) -> list[tuple[str, list[str], Path | None]]:
    """(key, argv, output file) for each invocation of the cli-figure cycle."""
    return [
        (
            "envelope-svg-curve",
            ["envelope", "1000000", "200000", "10", "--format", "svg",
             "--show-curve", "--output", str(workdir / "figure1.svg")],
            workdir / "figure1.svg",
        ),
        (
            "envelope-svg",
            ["envelope", "1000000", "600000", "10", "--format", "svg",
             "--output", str(workdir / "figure2.svg")],
            workdir / "figure2.svg",
        ),
        ("verify", ["verify", "300", "21", "2"], None),
        ("bezout", ["bezout", "299", "21"], None),
        ("audit-sweep", ["audit-sweep", str(workdir / "spec.txt")], None),
    ]


def run_child(argv: list[str], cwd: Path, env: dict) -> tuple[int, bytes, int]:
    """Run one child process; return (exit code, stdout, max RSS in KiB).

    stdout and stderr go to files, so the parent can reap the child with
    os.wait4 and read the child's own resource usage.
    """
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), usage.ru_maxrss


class CliFigure:
    """A fixed cycle of one-shot CLI runs, each its own process."""

    name = "cli-figure"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        (workdir / "spec.txt").write_text(AUDIT_SPEC, encoding="utf-8")
        cycle = cli_invocations(workdir)
        start = random.Random(seed).randrange(len(cycle))
        # the seed picks where the fixed cycle starts
        self.inputs = cycle[start:] + cycle[:start]
        self.env = child_env()
        self.max_rss_kib = 0
        self._expected = {
            "envelope-svg-curve": len(brute_pairs(1_000_000, 200_000, 9.0)),
            "envelope-svg": len(brute_pairs(1_000_000, 600_000, 9.0)),
            "verify": len(brute_pairs(300, 21, 1.0)),
            "bezout": 1,
            "audit-sweep": len(brute_pairs(300, 21, 1.0))
            + len(brute_pairs(5000, 1234, 7.0)),
        }

    def run_op(self, inv, span):
        key, argv, out_file = inv
        if out_file is not None and out_file.exists():
            out_file.unlink()
        code, stdout, rss = run_child(
            [sys.executable, "-m", "bezout_bezier.cli", *argv], self.workdir, self.env
        )
        self.max_rss_kib = max(self.max_rss_kib, rss)
        body = out_file.read_bytes() if out_file is not None and out_file.exists() else b""
        return code, stdout, body

    def pairs(self, inv, result) -> int:
        return self._expected[inv[0]]

    def check(self, inv, result) -> str | None:
        key = inv[0]
        return check_cli(key, result, golden(self.name)[key], self._expected[key])

    def probe(self, inv, tracer: Tracer) -> None:
        from bezout_bezier import cli

        with tracer.span("cli.interpreter"):
            code, _, _ = run_child([sys.executable, "-c", "pass"], self.workdir, self.env)
        code2, out, _ = run_child(
            [sys.executable, "-c", IMPORT_PROBE], self.workdir, self.env
        )
        if code or code2:
            raise RuntimeError("interpreter or import probe failed")
        tracer.add("cli.import", float(out))
        with redirect_stdout(io.StringIO()), tracer.span("cli.command"):
            code = cli.main(inv[1])
        if code != 0:
            raise RuntimeError(f"in-process cli.main({inv[1]}) returned {code}")

    def count(self, inv, result, tracer: Tracer) -> None:
        pass

    def peak_mb(self) -> float:
        return 0.0

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        interp = tracer.durations("cli.interpreter")
        imports = [v for _, n, v in tracer.values if n == "cli.import"]
        command = tracer.durations("cli.command")
        ops = tracer.durations("op")
        return {
            "cli.interpreter_ms": median(interp) * 1e3,
            "cli.import_ms": median(imports) * 1e3,
            "cli.command_ms": median(command) * 1e3,
            # the layers run in separate processes, so coverage pairs
            # each invocation with the probes made right after it
            "trace.coverage": median(
                (a + b + c) / op for a, b, c, op in zip(interp, imports, command, ops)
            ),
        }


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bezout_bezier.cli; "
    "print(time.perf_counter() - t)"
)


def check_cli(key: str, result, recorded: dict, n_pairs: int) -> str | None:
    code, stdout, body = result
    if code != 0:
        return f"{key}: exit code {code}, expected 0"
    text = stdout.decode("utf-8", errors="replace")
    if key.startswith("envelope"):
        problem = check_svg(
            body.decode("utf-8", errors="replace"), n_pairs, curve="curve" in key
        )
        if problem:
            return f"{key}: {problem}"
    elif key == "verify":
        if f"neighbor_count: {n_pairs}\n" not in text or not text.endswith("PASS\n"):
            return f"{key}: output does not report {n_pairs} neighbors and PASS"
    elif key == "audit-sweep":
        counts = [int(line.split(",")[3]) for line in text.splitlines()[1:3]]
        if sum(counts) != n_pairs or "skipped:" not in text.splitlines()[3]:
            return f"{key}: row counts {counts} do not sum to {n_pairs}"
    if (sha256(stdout), sha256(body)) != (
        recorded["stdout_sha256"],
        recorded["file_sha256"],
    ):
        return f"{key}: output bytes differ from the digests recorded at the seed commit"
    return None


def child_env() -> dict:
    """Environment for child interpreters: the checkout's own sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE.parent / "src"), str(HERE)])
    return env


WORKLOADS = {cls.name: cls for cls in (BigDisk, SmallSweep, CliFigure)}
