"""Child processes import the package from this checkout's src/.

pytest's ``pythonpath`` setting (pyproject.toml) puts src/ on the test
process's sys.path only; the CLI tests that run ``python -m
bezout_bezier.cli`` in a child process need it in PYTHONPATH as well.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)
