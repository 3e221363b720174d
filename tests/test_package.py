"""The package namespace: each name is imported on first access.

Every check runs in a fresh interpreter, since the test process has
long since imported every submodule.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bezout_bezier

LAZY = ("bezout_bezier.envelope", "bezout_bezier.geometry", "bezout_bezier.io_render")


def fresh(code: str) -> str:
    """Run `code` in a new `-S` interpreter; return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_heavy_submodule():
    out = fresh(
        "import sys, bezout_bezier; "
        f"print(sorted(m for m in {LAZY!r} if m in sys.modules))"
    )
    assert out == "[]\n"


def test_every_name_is_its_submodules_object():
    out = fresh(
        "import importlib, bezout_bezier as bb\n"
        "for module, names in bb._EXPORTS.items():\n"
        "    source = importlib.import_module('bezout_bezier.' + module)\n"
        "    for name in names:\n"
        "        assert getattr(bb, name) is getattr(source, name), name\n"
        "print(sorted(bb._SOURCE) == bb.__all__)"
    )
    assert out == "True\n"


def test_dir_and_star_import_see_all():
    out = fresh(
        "import bezout_bezier as bb\n"
        "missing = set(bb.__all__) - set(dir(bb))\n"
        "namespace = {}\n"
        "exec('from bezout_bezier import *', namespace)\n"
        "print(sorted(missing), sorted(set(bb.__all__) - set(namespace)))"
    )
    assert out == "[] []\n"


def test_submodule_resolves_on_first_touch():
    out = fresh(
        "import sys, bezout_bezier\n"
        "assert 'bezout_bezier.io_render' not in sys.modules\n"
        "print(bezout_bezier.io_render.CSV_HEADER)"
    )
    assert out == bezout_bezier.io_render.CSV_HEADER + "\n"


@pytest.mark.parametrize(
    "name",
    ["no_such_name", "__wrapped__", "sweep_one", "audit_sweep", "SweepResult"],
)
def test_unknown_name_raises_attribute_error(name):
    out = fresh(
        "import bezout_bezier\n"
        "try:\n"
        f"    bezout_bezier.{name}\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    )
    assert out == f"module 'bezout_bezier' has no attribute '{name}'\n"


# which of LAZY a command loads: none, envelope alone, envelope and
# io_render to write it, or all three to draw an overlay
NONE, ENVELOPE = [False, False, False], [True, False, False]
WRITE, ALL = [True, False, True], [True, True, True]


@pytest.mark.parametrize(
    "argv, loads",
    [
        pytest.param(["bezout", "299", "21"], NONE, id="bezout"),
        pytest.param(["neighbors", "300", "21", "3"], NONE, id="neighbors"),
        pytest.param(["verify", "300", "21", "2"], ENVELOPE, id="verify"),
        pytest.param(["audit-sweep", "{spec}"], ENVELOPE, id="audit-sweep"),
        pytest.param(
            ["envelope", "300", "21", "2", "--format", "text"], ENVELOPE,
            id="envelope-text",
        ),
        pytest.param(
            ["envelope", "300", "21", "2", "--format", "csv"], WRITE, id="envelope-csv"
        ),
        pytest.param(
            ["envelope", "300", "21", "2", "--format", "svg"], WRITE, id="envelope-svg"
        ),
        pytest.param(
            ["envelope", "300", "21", "2", "--format", "svg", "--show-curve"], ALL,
            id="envelope-svg-curve",
        ),
    ],
)
def test_cli_loads_only_what_the_command_runs(argv, loads, tmp_path):
    # the --show-curve run shows that the check sees every module loaded
    spec = tmp_path / "sweep.txt"
    spec.write_text("300 21 2\n10 3 0.5\n", encoding="utf-8")
    argv = [arg.format(spec=spec) for arg in argv]
    out = fresh(
        "import sys\n"
        "from bezout_bezier import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print(code, [m in sys.modules for m in {LAZY!r}])"
    )
    assert out.splitlines()[-1] == f"0 {loads}"


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # each block runs as written; a bare expression that ends in a
    # comment evaluates to the value whose repr the comment gives
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    for block in blocks:
        lines = block.splitlines()
        namespace = {}
        for stmt in ast.parse(block).body:
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            if isinstance(stmt, ast.Expr) and comment:
                code = compile(ast.Expression(stmt.value), "README.md", "eval")
                assert repr(eval(code, namespace)) == comment, lines[stmt.lineno - 1]
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
