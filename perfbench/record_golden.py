#!/usr/bin/env python3
"""Record the output digests that the benchmark's checks compare against.

Run once, from the root of a checkout of the commit whose outputs are
the reference, and commit the resulting perfbench/golden.json:

    python3 perfbench/record_golden.py

The library promises byte-identical CSV/SVG output, so the digests are
not meant to be re-recorded after a change to the program.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    work_parent = HERE.parent / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_parent))
    try:
        disk = workloads.BigDisk(0, workdir)
        _, _, csv_text, svg_text = disk.run_op(disk.inputs[0], workloads.no_span)
        recorded = {
            "big-disk": {
                "seed": 0,
                "center": list(disk.inputs[0]),
                "csv_sha256": workloads.sha256(csv_text.encode("utf-8")),
                "svg_sha256": workloads.sha256(svg_text.encode("utf-8")),
            },
            "cli-figure": {},
        }
        figure = workloads.CliFigure(0, workdir)
        for inv in workloads.cli_invocations(workdir):
            code, stdout, body = figure.run_op(inv, workloads.no_span)
            if code != 0:
                raise SystemExit(f"{inv[0]} exited with {code}")
            recorded["cli-figure"][inv[0]] = {
                "argv": [a.replace(str(workdir), "<work>") for a in inv[1]],
                "stdout_sha256": workloads.sha256(stdout),
                "file_sha256": workloads.sha256(body),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        work_parent.rmdir()
    workloads.GOLDEN_PATH.write_text(json.dumps(recorded, indent=2) + "\n")


if __name__ == "__main__":
    main()
