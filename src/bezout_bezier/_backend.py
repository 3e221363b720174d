"""The kernel module behind enumeration and verification."""

# The package imports _kernels_py directly; this module stays only
# because perfbench reads `kernels` and `backend_name()` from it.
from . import _kernels_py as kernels


def backend_name() -> str:
    return "python"
