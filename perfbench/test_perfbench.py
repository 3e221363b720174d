"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class TinySweep(workloads.SmallSweep):
    N_CENTERS = 40


def test_one_seed_always_generates_the_same_inputs(tmp_path):
    assert workloads.sweep_centers(7, 500) == workloads.sweep_centers(7, 500)
    assert workloads.sweep_centers(7, 500) != workloads.sweep_centers(8, 500)
    assert (
        workloads.BigDisk(7, tmp_path).inputs == workloads.BigDisk(7, tmp_path).inputs
    )
    assert [workloads.BigDisk(s, tmp_path).inputs for s in range(5)] != [
        workloads.BigDisk(0, tmp_path).inputs
    ] * 5
    cycles = [[inv[0] for inv in workloads.CliFigure(s, tmp_path).inputs] for s in (3, 3)]
    assert cycles[0] == cycles[1]


def test_sweep_breaks_one_hypothesis_in_twenty():
    rows = workloads.sweep_centers(1, 2000)
    assert sum(not valid for *_, valid in rows) == 100
    assert all(p + eps <= 2**31 for p, _, eps, _ in rows)


def test_every_sweep_operation_passes_its_check(tmp_path):
    wl = TinySweep(3, tmp_path)
    stats = run.Stats()
    for row in wl.inputs:
        run.timed_op(wl, row, stats)
    assert (stats.attempted, stats.failed) == (len(wl.inputs), 0)
    assert sum(stats.pairs) > 0


def test_corrupted_output_counts_as_failed(tmp_path):
    wl = TinySweep(3, tmp_path)
    row = next(r for r in wl.inputs if r[3] and wl.expected[r][1])
    honest = wl.run_op

    def drop_one_neighbor(inp, span):
        all_ok, count, neighbors, gaps = honest(inp, span)
        return all_ok, count, neighbors[1:], gaps[1:]

    wl.run_op = drop_one_neighbor
    stats = run.Stats()
    run.timed_op(wl, row, stats)
    assert (stats.attempted, stats.failed, stats.pairs) == (1, 1, [0])
    assert "neighbors differ" in stats.problems[0]


def test_hypothesis_row_that_does_not_raise_counts_as_failed(tmp_path):
    wl = TinySweep(3, tmp_path)
    bad = next(r for r in wl.inputs if not r[3])
    stats = run.Stats()
    run.timed_op(wl, bad, stats)
    assert stats.failed == 0
    run.timed_op(wl, bad[:3] + (True,), stats)
    assert stats.failed == 1


def test_corrupted_csv_row_is_caught():
    import bezout_bezier as bb

    report = bb.build_envelope(bb.EnvelopeParams(bb.Center(5000, 1234), 9.0))
    text = bb.to_csv(report)
    expected = tuple(workloads.brute_pairs(5000, 1234, 8.0))
    assert workloads.check_csv(text, expected, 9.0) is None
    lines = text.split("\n")
    cols = lines[3].split(",")
    cols[4] = str(int(cols[4]) + 1)  # a_sr: breaks the flip identity
    lines[3] = ",".join(cols)
    assert "flip identity" in workloads.check_csv("\n".join(lines), expected, 9.0)
    assert "brute force" in workloads.check_csv(text, expected[:-1], 9.0)


def test_unexpected_exit_code_counts_as_failed(tmp_path):
    wl = workloads.CliFigure(0, tmp_path)
    bezout = next(inv for inv in wl.inputs if inv[0] == "bezout")
    stats = run.Stats()
    run.timed_op(wl, bezout, stats)
    assert stats.failed == 0
    # gcd(6, 4) = 2: the CLI exits with 2, the check expects 0
    run.timed_op(wl, ("bezout", ["bezout", "6", "4"], None), stats)
    assert stats.failed == 1
    assert "exit code 2" in stats.problems[0]


def test_kernel_parity_compares_whole_tuples():
    from bezout_bezier import _kernels_py

    class OffByOne:
        coprime_pairs_in_disk = staticmethod(_kernels_py.coprime_pairs_in_disk)

        @staticmethod
        def envelope_scan(p, q, radius):
            rows = _kernels_py.envelope_scan(p, q, radius)
            rows[0] = rows[0][:-1] + (rows[0][-1] + 1e-12,)
            return rows

    assert workloads.kernel_parity(300, 21, 5.0, compiled=_kernels_py) is None
    assert "envelope_scan" in workloads.kernel_parity(300, 21, 5.0, compiled=OffByOne)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    samples = [float(i) for i in range(40)]
    assert run.tail(samples) == (29.0, 75.0)  # 30..39 lie beyond


def test_comparison_across_backends_is_invalid():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def record(backend, scale):
        metrics = {
            m["name"]: {"value": scale, "unit": m["unit"]} for m in spec["end_to_end"]
        }
        meta = {"workload": "small-sweep", "trace": 0, "backend": backend}
        return {"meta": meta, "metrics": metrics}

    lines, code = compare.compare([record("python", 1.0)], [record("compiled", 1.0)], spec)
    assert code == 2 and lines[0].startswith("invalid")
    lines, code = compare.compare([record("python", 1.0)], [record("python", 1.0)], spec)
    assert code == 0
    lines, code = compare.compare([record("python", 1.0)], [record("python", 2.0)], spec)
    assert code == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_has_a_warm_up(name):
    import warmup

    warmup.run(name)
