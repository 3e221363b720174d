#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Times the two hot kernels on representative workloads: coprime-pair
enumeration in a disk and the full per-pair segment scan.  Run from the
repository root:

    python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import statistics
import time

from bezout_bezier import _kernels_py

try:
    from bezout_bezier import _kernels as _kernels_c
except ImportError:
    _kernels_c = None

WORKLOADS = [
    # (label, function name, p, q, radius)
    ("small disk", "coprime_pairs_in_disk", 300, 21, 9.0),
    ("large disk", "coprime_pairs_in_disk", 5000, 1234, 60.0),
    ("figure-scale disk", "coprime_pairs_in_disk", 10**6, 2 * 10**5, 9.0),
    ("small scan", "envelope_scan", 300, 21, 9.0),
    ("large scan", "envelope_scan", 5000, 1234, 60.0),
    ("figure-scale scan", "envelope_scan", 10**6, 2 * 10**5, 9.0),
]


def median_of(fn, args, repeat):
    """Median wall time of `repeat` calls of fn(*args), and the result's length."""
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - started)
    return statistics.median(times), len(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    if _kernels_c is None:
        print("compiled kernels not built; timing the fallback only\n")

    header = f"{'workload':<22}{'items':>8}{'python':>12}{'compiled':>12}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for label, func_name, p, q, radius in WORKLOADS:
        py_time, count = median_of(
            getattr(_kernels_py, func_name), (p, q, radius), args.repeat
        )
        if _kernels_c is not None:
            c_time, c_count = median_of(
                getattr(_kernels_c, func_name), (p, q, radius), args.repeat
            )
            if c_count != count:
                raise SystemExit(f"backend disagreement on {label}!")
            print(
                f"{label:<22}{count:>8}{py_time * 1e3:>10.2f}ms"
                f"{c_time * 1e3:>10.2f}ms{py_time / c_time:>9.1f}x"
            )
        else:
            print(f"{label:<22}{count:>8}{py_time * 1e3:>10.2f}ms{'n/a':>12}{'':>10}")


if __name__ == "__main__":
    main()
