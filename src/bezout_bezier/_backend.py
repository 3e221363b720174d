"""The kernel module behind enumeration and verification."""

from . import _kernels_py as kernels


def backend_name() -> str:
    return "python"
