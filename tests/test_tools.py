"""tools/code_lines.py counts the code lines of Python sources."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "code_lines.py")

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts its line

# a comment line


def f():
    """Function docstring."""
    text = """a string over
two lines"""
    return (text,
            os.sep)
'''


def test_counts_code_lines_only(tmp_path):
    # import, def, the two lines of the string, the two of the return
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, TOOL, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["6", "total"]
