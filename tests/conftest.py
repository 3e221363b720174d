"""Child processes import the package from where the test process does.

pytest's ``pythonpath`` setting (pyproject.toml) puts src/ on the test
process's sys.path only; the CLI tests that run ``python -m
bezout_bezier.cli`` in a child process need it in PYTHONPATH as well.
The paths are the setting's own, read when pytest is configured, so a
run with ``-o pythonpath=`` tests the installed package in its child
processes too.
"""

import os


def pytest_configure(config):
    paths = [*map(str, config.getini("pythonpath")), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
