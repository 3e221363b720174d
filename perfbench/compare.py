#!/usr/bin/env python3
"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py parent.jsonl change.jsonl

For each workload and end-to-end metric, prints the median of each set,
the change as a share of the first set's median (positive is worse) and
the metric's bound from BENCHMARK.json.  Exit code 1 means some metric
got worse by more than its bound.  Records made on different kernel
backends measure different programs: such a comparison is reported as
invalid, with exit code 2.
"""

import argparse
import json
import sys
from pathlib import Path
from statistics import median

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare(before: list[dict], after: list[dict], spec: dict) -> tuple[list[str], int]:
    """Report lines and exit code for two sets of untraced records."""
    backends = {r["meta"]["backend"] for r in before + after}
    if len(backends) > 1:
        return [f"invalid: the records span backends {sorted(backends)}"], 2
    lines, code = [], 0
    workloads = sorted({r["meta"]["workload"] for r in before + after})
    for workload in workloads:
        sets = [
            [r for r in records if r["meta"]["workload"] == workload and not r["meta"]["trace"]]
            for records in (before, after)
        ]
        if not all(sets):
            lines.append(f"{workload}: missing from one side, not compared")
            continue
        lines.append(f"{workload} ({len(sets[0])} vs {len(sets[1])} runs)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (median(r["metrics"][name]["value"] for r in s) for s in sets)
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "WORSE beyond bound" if change > bound else "within bound"
            if change > bound:
                code = 1
            lines.append(
                f"  {name:<12} {a:>12.6g} -> {b:>12.6g} {metric['unit']:<6}"
                f" worse by {change:+.1%} (bound {bound:.0%}): {verdict}"
            )
    return lines, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    lines, code = compare(load(args.before), load(args.after), spec)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
