import hashlib
import importlib
import io
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import bezout_bezier
from bezout_bezier import Center, EnvelopeParams, build_envelope, to_csv, to_svg
from bezout_bezier import _kernels_py, envelope
from bezout_bezier.cli import (
    AUDIT_HEADER,
    EXIT_BOUND_FAILED,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from bezout_bezier.io_render import CSV_HEADER, RenderOptions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_env(unbuffered: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def read_one_line_then_close(argv, unbuffered):
    """Run the CLI, read one line of stdout, close the pipe and wait.

    Returns the line, the exit code and stderr.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "bezout_bezier.cli"] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(unbuffered),
    )
    line = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return line, proc.wait(), err


class TestBezout:
    def test_small_pair(self, capsys):
        code, out, _ = run(capsys, "bezout", "3", "5")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "B(3,5) = (2, 3)"
        assert lines[1] == "check: 2*5 - 3*3 = 1"

    def test_unit_pair(self, capsys):
        code, out, _ = run(capsys, "bezout", "1", "1")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "B(1,1) = (1, 0)"

    def test_non_coprime(self, capsys):
        code, _, err = run(capsys, "bezout", "300", "21")
        assert code == EXIT_DOMAIN
        assert "gcd = 3" in err

    @pytest.mark.parametrize("argv", [("bezout", "0", "5"), ("bezout", "3", "x")])
    def test_malformed(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == EXIT_USAGE


class TestNeighbors:
    def test_reference_center(self, capsys):
        code, out, _ = run(capsys, "neighbors", "300", "21", "1")
        assert code == EXIT_OK
        assert out == "(299,21)\ncount: 1\n"

    def test_zero_radius(self, capsys):
        code, out, _ = run(capsys, "neighbors", "3", "5", "0")
        assert code == EXIT_OK
        assert out == "(3,5)\ncount: 1\n"

    def test_diagonal_center(self, capsys):
        code, out, _ = run(capsys, "neighbors", "5", "5", "1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[-1] == "count: 4"
        assert lines[:-1] == ["(4,5)", "(5,4)", "(5,6)", "(6,5)"]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_quietly(self, unbuffered):
        # radius 200 prints about 1 MB, more than a pipe holds, so the
        # write meets the closed pipe.  With PYTHONUNBUFFERED=1 the
        # binary layer of stdout is the raw file, whose writes to the
        # pipe can be cut short: the rest must still be written, and so
        # meet the closed pipe too.
        line, code, err = read_one_line_then_close(
            ["neighbors", "100000", "30000", "200"], unbuffered
        )
        assert line == b"(99801,29981)\n"
        assert code == EXIT_USAGE
        assert b"Traceback" not in err

    def test_multi_chunk_bytes(self, capsys):
        # 6,876 pairs, four chunks; the digest was recorded before the
        # pairs were written in chunks
        code, out, _ = run(capsys, "neighbors", "100000", "30000", "60")
        assert code == EXIT_OK
        assert out.endswith("\ncount: 6876\n")
        assert sha256(out.encode()) == (
            "df1b190f0af627d6b644cc3f6e3101ef600bb881c72ad7bc08abfbbfd0ccf5af"
        )

    def test_negative_radius_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["neighbors", "3", "5", "-1"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "p, q, radius, shown",
        [
            ("2147483000", "5", "1000", "radius = 1000.0"),
            ("10", "5", "inf", "radius = inf"),
        ],
    )
    def test_range_top_names_the_input(self, capsys, p, q, radius, shown):
        code, out, err = run(capsys, "neighbors", p, q, radius)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "supported range 2**31" in err
        assert f"p = {p}, q = {q}" in err and shown in err


class TestEnvelope:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "envelope", "300", "21", "2", "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("299,21,57,4,17,242,")

    def test_svg_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.svg"
        code, out, _ = run(
            capsys,
            "envelope", "300", "21", "2",
            "--format", "svg", "--output", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith("<?xml")
        assert text.count("<line ") == 1

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "envelope", "300", "21", "2", "--format", "text")
        assert code == EXIT_OK
        assert "neighbor_count: 1" in out
        assert out.rstrip().endswith("PASS")

    @pytest.mark.parametrize(
        "p, q, eps, digest",
        [
            ("300", "21", "2",
             "f57927a89fee06affd560f5622ad89d77c9ef046daf55f15f06309d022bbb83c"),
            ("60", "0", "2",
             "6f5aed9d7454297002fdcccc9c47e7119d7845531281bf47ed4aba416c4d493a"),
            ("5000", "1234", "20",
             "60099d175cfe5dc720f99c870ccd45e865d2c7314a7a2ee8e95cd218ad5719f8"),
        ],
    )
    def test_text_format_bytes(self, capsys, p, q, eps, digest):
        # SHA-256 digests of the text output: it must stay byte-stable
        code, out, _ = run(capsys, "envelope", p, q, eps, "--format", "text")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "p, q, eps, fragment",
        [
            ("3", "1", "2", "p > 3"),
            ("4", "7", "2", "q < p"),
            ("10", "3", "0.5", "epsilon > 1"),
            ("10", "3", "99", "epsilon <="),
        ],
    )
    def test_hypothesis_violations(self, capsys, p, q, eps, fragment):
        code, _, err = run(capsys, "envelope", p, q, eps)
        assert code == EXIT_DOMAIN
        assert fragment in err

    @pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["absent", "present"])
    def test_refused_run_leaves_output_alone(self, capsys, tmp_path, existing):
        # main opens --output only after the command has returned
        target = tmp_path / "out.csv"
        if existing is not None:
            target.write_bytes(existing)
        code, out, err = run(
            capsys, "envelope", "10", "3", "0.5", "--output", str(target)
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "epsilon > 1" in err
        if existing is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == existing

    def test_render_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "envelope", "300", "21", "2",
            "--format", "svg", "--show-curve", "--show-controls",
            "--curve-samples", "32", "--width-px", "400",
        )
        assert code == EXIT_OK
        assert "<polyline" in out
        assert out.count("<circle") == 3
        assert 'width="400"' in out

    @pytest.mark.parametrize(
        "flags, options",
        [
            ((), {}),
            (
                ("--width-px", "400", "--show-curve", "--show-controls",
                 "--curve-samples", "32", "--stroke-width-fraction", "0.01"),
                {"opts": RenderOptions(400, True, True, 32, 0.01)},
            ),
        ],
    )
    def test_svg_is_to_svg_with_the_given_options(self, capsys, flags, options):
        # a flag that is not given takes RenderOptions' own default
        code, out, _ = run(
            capsys, "envelope", "300", "21", "2", "--format", "svg", *flags
        )
        assert code == EXIT_OK
        report = build_envelope(EnvelopeParams(Center(300, 21), 2.0))
        assert out == to_svg(report, **options)

    def test_bad_render_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["envelope", "300", "21", "2", "--format", "svg", "--width-px", "4"])
        assert excinfo.value.code == EXIT_USAGE

    def test_file_output_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run(
                capsys,
                "envelope", "50", "29", "5", "--output", str(target),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "name", [".", "missing/out.csv", pytest.param("", id="empty path")]
    )
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, name):
        # the empty name stands for the empty path, not for tmp_path
        target = tmp_path / name if name else ""
        code, out, err = run(
            capsys, "envelope", "300", "21", "2", "--output", str(target)
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert f"error: cannot write {target}: " in err


    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_output_that_fails_after_opening(self, capsys):
        code, out, err = run(
            capsys, "envelope", "300", "21", "2", "--output", "/dev/full"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: cannot write /dev/full: [Errno 28] No space left on device\n"
        )


class TestStreamedEnvelope:
    """envelope writes its document in chunks, with unchanged bytes.

    (100000, 30000) with epsilon 60 has 6,628 records, four chunks of
    rows.  The text digest was recorded before the output was written
    in chunks.
    """

    ARGV = ["envelope", "100000", "30000", "60"]
    TEXT_DIGEST = "670f768d8f4fa8b7976b7f42e8df36060cd51126ae601489246befd6483b4320"

    @pytest.fixture(scope="class")
    def digests(self):
        report = build_envelope(EnvelopeParams(Center(100000, 30000), 60.0))
        return {
            "csv": sha256(to_csv(report).encode("utf-8")),
            "svg": sha256(to_svg(report).encode("utf-8")),
            "text": self.TEXT_DIGEST,
        }

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", ["csv", "svg", "text"])
    def test_stdout_bytes(self, digests, fmt, unbuffered):
        proc = subprocess.run(
            [sys.executable, "-m", "bezout_bezier.cli"]
            + self.ARGV + ["--format", fmt],
            capture_output=True,
            env=cli_env(unbuffered),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert sha256(proc.stdout) == digests[fmt]

    @pytest.mark.parametrize("fmt", ["csv", "svg", "text"])
    def test_file_bytes(self, capsys, tmp_path, digests, fmt):
        target = tmp_path / f"out.{fmt}"
        code, out, _ = run(
            capsys, *self.ARGV, "--format", fmt, "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert sha256(target.read_bytes()) == digests[fmt]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_quietly(self, unbuffered):
        # about 2.2 MB of CSV: the reader closes the pipe after the header
        line, code, err = read_one_line_then_close(
            ["envelope", "100000", "30000", "100", "--format", "csv"], unbuffered
        )
        assert line == (CSV_HEADER + "\n").encode()
        assert code == EXIT_USAGE
        assert b"Traceback" not in err

    def test_file_output_holds_one_chunk_at_a_time(self, capsys, tmp_path):
        # Beyond what build_envelope needs, writing the 2.2 MB CSV holds
        # about one chunk of rows, not the whole document.
        target = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            build_envelope(EnvelopeParams(Center(100000, 30000), 100.0))
            _, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            code = main(
                ["envelope", "100000", "30000", "100", "--format", "csv",
                 "--output", str(target)]
            )
            _, main_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert main_peak - build_peak < target.stat().st_size


class TestVerify:
    # recorded before verify printed the text format's closing lines
    REFERENCE_OUT = (
        "neighbor_count: 1\n"
        "max_deviation: 0.65675610073\n"
        "max_endpoint_gap: 0.809605914333\n"
        "PASS\n"
    )

    def test_reference_center(self, capsys):
        code, out, err = run(capsys, "verify", "300", "21", "2")
        assert code == EXIT_OK
        assert out == self.REFERENCE_OUT
        assert err == ""

    def test_bytes(self, capsys):
        code, out, _ = run(capsys, "verify", "5000", "1234", "20")
        assert code == EXIT_OK
        assert out == (
            "neighbor_count: 678\n"
            "max_deviation: 18.3554511515\n"
            "max_endpoint_gap: 18.3799805584\n"
            "PASS\n"
        )

    def test_small_center(self, capsys):
        code, out, _ = run(capsys, "verify", "10", "3", "2")
        assert code == EXIT_OK
        assert out.rstrip().endswith("PASS")

    def test_epsilon_hypothesis(self, capsys):
        code, _, err = run(capsys, "verify", "10", "3", "0.5")
        assert code == EXIT_DOMAIN
        assert "epsilon > 1" in err

    def test_range_top_names_the_input(self, capsys):
        # the disk around (2**31, 2**31 - 1) would hold s = 2**31 + 1
        code, out, err = run(capsys, "verify", "2147483648", "2147483647", "3")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "p + epsilon <= 2**31" in err
        assert "p = 2147483648" in err and "epsilon = 3.0" in err
        assert "2147483649" not in err


class TestRealBoundFailure:
    """A kernel row whose deviation reaches epsilon, through the real
    verification path: the report's check, the writers and exit 3."""

    EPS = 2.0

    @pytest.fixture
    def violated(self, monkeypatch):
        # the real rows of (300, 21, 2), one of them at the bound; the
        # envelope module calls the scan through the kernel module
        rows = _kernels_py.envelope_scan(300, 21, self.EPS - 1.0)
        rows[-1] = rows[-1][:9] + (self.EPS,)
        monkeypatch.setattr(_kernels_py, "envelope_scan", lambda p, q, radius: rows)
        return rows[-1]

    def test_report(self, violated):
        report = build_envelope(EnvelopeParams(Center(300, 21), self.EPS))
        assert report.all_bounds_hold is False
        assert report.max_deviation == self.EPS
        assert report.records[-1].bound_ok is False

    def test_bound_failure_exits_3(self, capsys, violated):
        # the exit-code contract: the summary reports the real row
        code, out, _ = run(capsys, "verify", "300", "21", "2")
        assert code == EXIT_BOUND_FAILED
        assert out == (
            "neighbor_count: 1\n"
            "max_deviation: 2\n"
            "max_endpoint_gap: 0.809605914333\n"
            "FAIL\n"
        )
        code, _, _ = run(capsys, "envelope", "300", "21", "2")
        assert code == EXIT_BOUND_FAILED

    def test_csv_row(self, capsys, violated):
        code, out, _ = run(capsys, "envelope", "300", "21", "2")
        assert code == EXIT_BOUND_FAILED
        row = out.splitlines()[-1]
        assert row.startswith(f"{violated[0]},{violated[1]},")
        assert row.endswith(",2,false")

    def test_text_rows(self, capsys, violated):
        code, out, _ = run(capsys, "envelope", "300", "21", "2", "--format", "text")
        assert code == EXIT_BOUND_FAILED
        lines = out.splitlines()
        assert lines[-4].startswith(f"({violated[0]},{violated[1]}) ")
        assert lines[-4].endswith(" deviation=2 BOUND VIOLATED")
        assert lines[-3] == "max_deviation: 2"
        assert lines[-1] == "FAIL"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFailedStdoutWrite:
    """A failed stdout write other than a closed pipe: one line, exit 1.

    Every write to /dev/full fails with ENOSPC: buffered, the small
    outputs fail at the flush in main; unbuffered, at the first write.
    """

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["envelope", "300", "21", "2"],
            ["verify", "300", "21", "2"],
            ["neighbors", "300", "21", "3"],
        ],
        ids=["envelope", "verify", "neighbors"],
    )
    def test_full_device(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bezout_bezier.cli"] + argv,
                stdout=full,
                stderr=subprocess.PIPE,
                env=cli_env(unbuffered),
            )
        assert proc.returncode == EXIT_USAGE
        assert b"Traceback" not in proc.stderr
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write stdout: ")


class TestAuditSweep:
    def test_mixed_spec(self, capsys, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text(
            "# centers to audit\n"
            "10 3 2\n"
            "4 7 2   # hypothesis violation: q >= p\n"
            "10 3 0.5\n"
            "\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "audit-sweep", str(spec))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == AUDIT_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[:4] == ["10", "3", "2", "2"]
        assert first[6] == "true"
        assert lines[2].startswith("4,7,2,,,,skipped: ")
        assert "q < p" in lines[2]
        assert lines[3].startswith("10,3,0.5,,,,skipped: ")

    def test_out_of_range_row_is_skipped(self, capsys, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text(
            "10 3 2\n2147483648 2147483647 3\n300 21 2\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "audit-sweep", str(spec))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("10,3,2,2,")
        assert lines[2].startswith("2147483648,2147483647,3,,,,skipped: ")
        assert "p + epsilon <= 2**31" in lines[2]
        assert lines[3].startswith("300,21,2,1,")

    def test_rows_center_refuses_are_skipped(self, capsys, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text("0 5 2\n10 -1 2\n3000000000 1 2\n", encoding="utf-8")
        code, out, _ = run(capsys, "audit-sweep", str(spec))
        assert code == EXIT_OK
        assert out.splitlines()[1:] == [
            "0,5,2,,,,skipped: center needs p >= 1 (got p = 0)",
            "10,-1,2,,,,skipped: center needs q >= 0 (got q = -1)",
            "3000000000,1,2,,,,skipped: "
            "p = 3000000000 exceeds the supported range 2**31",
        ]

    def test_bound_slack_column(self, capsys, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text("10 3 2\n", encoding="utf-8")
        _, out, _ = run(capsys, "audit-sweep", str(spec))
        fields = out.splitlines()[1].split(",")
        assert float(fields[5]) == pytest.approx(2.0 - float(fields[4]), rel=1e-11)

    def test_empty_spec(self, capsys, tmp_path):
        spec = tmp_path / "empty.txt"
        spec.write_text("# nothing here\n", encoding="utf-8")
        code, out, _ = run(capsys, "audit-sweep", str(spec))
        assert code == EXIT_OK
        assert out == AUDIT_HEADER + "\n"

    def test_malformed_spec(self, capsys, tmp_path):
        spec = tmp_path / "bad.txt"
        spec.write_text("10 3\n", encoding="utf-8")
        code, _, err = run(capsys, "audit-sweep", str(spec))
        assert code == EXIT_USAGE
        assert "line 1" in err

    def test_unreadable_spec(self, capsys, tmp_path):
        code, _, err = run(capsys, "audit-sweep", str(tmp_path / "missing.txt"))
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_spec_not_utf8(self, capsys, tmp_path):
        spec = tmp_path / "bad.txt"
        spec.write_bytes(b"300 21 2\n\xff\xfe 5 2\n")
        code, out, err = run(capsys, "audit-sweep", str(spec))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"error: cannot read {spec}: 'utf-8' codec can't decode byte 0xff "
            "in position 9: invalid start byte\n"
        )

    def test_spec_with_byte_order_mark(self, capsys, tmp_path):
        # as some editors save UTF-8: the mark is not part of the first line
        spec, plain = tmp_path / "bom.txt", tmp_path / "plain.txt"
        spec.write_bytes(b"\xef\xbb\xbf300 21 2\n10 3 2\n")
        plain.write_bytes(b"300 21 2\n10 3 2\n")
        code, out, err = run(capsys, "audit-sweep", str(spec))
        assert (code, err) == (EXIT_OK, "")
        assert out == run(capsys, "audit-sweep", str(plain))[1]
        assert out.splitlines()[1].startswith("300,21,2,1,")

    def test_determinism(self, capsys, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text("50 29 5\n30 13 3\n", encoding="utf-8")
        _, first, _ = run(capsys, "audit-sweep", str(spec))
        _, second, _ = run(capsys, "audit-sweep", str(spec))
        assert first == second

    def test_bytes(self, capsys, tmp_path):
        # the digest was recorded before rows were written one at a time
        spec = tmp_path / "sweep.txt"
        spec.write_text(
            "# mixed\n10 3 2\n4 7 2\n10 3 0.5\n2147483648 2147483647 3\n"
            "300 21 2\n50 29 5\n5000 1234 20\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "audit-sweep", str(spec))
        assert code == EXIT_OK
        assert sha256(out.encode()) == (
            "31bc6e87ad5cd2bb8c97390028495db443d3ef2a4e6ba90e585c81eaa8eb922c"
        )

    def test_rows_are_written_as_they_are_done(self, monkeypatch, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text("10 3 2\n300 21 2\n", encoding="utf-8")
        out = io.StringIO()
        written_before = []
        real_sweep_one = envelope.sweep_one

        def spy(center, eps):
            written_before.append(out.getvalue())
            return real_sweep_one(center, eps)

        monkeypatch.setattr(envelope, "sweep_one", spy)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["audit-sweep", str(spec)]) == EXIT_OK
        header, first, _ = out.getvalue().splitlines(keepends=True)
        assert written_before == [header, header + first]

    def test_bad_line_after_good_ones_writes_nothing(self, capsys, tmp_path):
        spec = tmp_path / "bad.txt"
        spec.write_text("10 3 2\n300 21 2\n10 3 x\n", encoding="utf-8")
        code, out, err = run(capsys, "audit-sweep", str(spec))
        assert code == EXIT_USAGE
        assert out == ""
        assert "line 3" in err


# What --help prints at 80 columns, for the program ("") and each
# command.  The first paragraph is the usage, which a usage error
# prints too.
HELP = {
    "": """\
usage: bezout-bezier [-h] {bezout,neighbors,envelope,verify,audit-sweep} ...

Approximate the quadratic Bezier curve for control points (p,q), (0,0), (q,p)
by segments joining Bezout coefficients of coprime pairs near (p,q), and
verify the deviation bounds.

positional arguments:
  {bezout,neighbors,envelope,verify,audit-sweep}
    bezout              normalized Bezout coefficients
    neighbors           coprime pairs within a disk
    envelope            build the segment family and write CSV/SVG
    verify              check the deviation bound and print PASS/FAIL
    audit-sweep         run many (p, q, epsilon) combinations from a spec file

options:
  -h, --help            show this help message and exit
""",
    "bezout": """\
usage: bezout-bezier bezout [-h] p q

positional arguments:
  p
  q

options:
  -h, --help  show this help message and exit
""",
    "neighbors": """\
usage: bezout-bezier neighbors [-h] p q radius

positional arguments:
  p
  q
  radius

options:
  -h, --help  show this help message and exit
""",
    "envelope": """\
usage: bezout-bezier envelope [-h] [--format {csv,svg,text}] [--output OUTPUT]
                              [--width-px WIDTH_PX] [--show-curve]
                              [--show-controls]
                              [--curve-samples CURVE_SAMPLES]
                              [--stroke-width-fraction STROKE_WIDTH_FRACTION]
                              p q epsilon

positional arguments:
  p
  q
  epsilon

options:
  -h, --help            show this help message and exit
  --format {csv,svg,text}
                        output format (default: csv)
  --output OUTPUT       write to this file instead of stdout
  --width-px WIDTH_PX
  --show-curve
  --show-controls
  --curve-samples CURVE_SAMPLES
  --stroke-width-fraction STROKE_WIDTH_FRACTION
""",
    "verify": """\
usage: bezout-bezier verify [-h] p q epsilon

positional arguments:
  p
  q
  epsilon

options:
  -h, --help  show this help message and exit
""",
    "audit-sweep": """\
usage: bezout-bezier audit-sweep [-h] spec_path

positional arguments:
  spec_path   file of 'p q epsilon' lines; '#' starts a comment

options:
  -h, --help  show this help message and exit
""",
}


class TestParsing:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == EXIT_USAGE

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    @pytest.mark.parametrize("command", list(HELP))
    def test_help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"] if command else ["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == HELP[command]

    @pytest.mark.parametrize(
        "command, required",
        [
            ("", "command"),
            ("bezout", "p, q"),
            ("neighbors", "p, q, radius"),
            ("envelope", "p, q, epsilon"),
            ("verify", "p, q, epsilon"),
            ("audit-sweep", "spec_path"),
        ],
    )
    def test_missing_arguments_text(self, capsys, monkeypatch, command, required):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main([command] if command else [])
        assert excinfo.value.code == EXIT_USAGE
        usage = HELP[command].split("\n\n")[0]
        prog = f"bezout-bezier {command}".rstrip()
        assert capsys.readouterr().err == (
            f"{usage}\n{prog}: error: the following arguments are required: "
            f"{required}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("bezout", "3", "x"),
            ("neighbors", "x", "5", "1"),
            ("neighbors", "10", "x", "1"),
            ("neighbors", "10", "5", "x"),
            ("verify", "10", "x", "2"),
            ("envelope", "10", "3", "2", "--width-px", "x"),
            ("envelope", "10", "3", "2", "--curve-samples", "x"),
            ("envelope", "10", "3", "2", "--stroke-width-fraction", "x"),
        ],
    )
    def test_non_numeric_argument_names_no_private_function(self, capsys, argv):
        # argparse names a type function that raises ValueError; the
        # message must say what was expected instead
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "got x" in err
        assert not re.search(r"\b_\w", err), err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bezout_bezier.cli", "bezout", "3", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[0] == "B(3,5) = (2, 3)"


def test_console_script_resolves_to_main():
    # the [project.scripts] entry that `pip install` makes a command of
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    module, _, attr = scripts["bezout-bezier"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_import_loads_no_heavy_stdlib_modules():
    # Start-up time of every CLI run: the package's import must not pull
    # in dataclasses (and with it inspect, ast, dis, tokenize), typing or
    # pathlib.  -S keeps site's own imports out of the check.
    src = os.path.dirname(os.path.dirname(os.path.abspath(bezout_bezier.__file__)))
    heavy = ("dataclasses", "inspect", "typing", "pathlib")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, bezout_bezier.cli; "
         f"print(sorted(m for m in {heavy!r} if m in sys.modules))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
