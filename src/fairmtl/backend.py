"""The training kernels.  The benchmark harness wraps `kernels` and
records `BACKEND`, so both names stay."""

from . import _kernels_np as kernels

BACKEND = "numpy"
