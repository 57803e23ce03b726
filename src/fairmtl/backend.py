"""Kernel backend selection.

The compiled extension is preferred when importable; otherwise the numpy
fallback is used.  `FAIRMTL_KERNELS=numpy` forces the fallback and
`FAIRMTL_KERNELS=compiled` makes a missing extension a hard error (useful
in benchmarks and CI).  The compiled backend's `xent` is composed here:
the numpy `xent_seed` writes the seed at the logit for the whole stack and
`xent_fwd` gives each column's loss.  Its `sigmoid_bwd` takes a stack of
gradients one at a time, and its `relu_fwd` and `sigmoid_fwd` ignore
`out` and return a new array.
"""

import os
from types import SimpleNamespace

_requested = os.environ.get("FAIRMTL_KERNELS", "auto")

if _requested not in ("auto", "compiled", "numpy"):
    raise ValueError(f"FAIRMTL_KERNELS must be auto/compiled/numpy, got {_requested!r}")

if _requested in ("auto", "compiled"):
    try:
        from . import _ckernels
        BACKEND = "compiled"
    except ImportError:
        if _requested == "compiled":
            raise
        from . import _kernels_np as kernels
        BACKEND = "numpy"
    else:
        from ._kernels_np import xent_seed

        def _xent(p, y, gscale, out):
            xent_seed(p, y, gscale, out)
            if p.ndim == 3:   # a stack of columns: each in turn
                return [_ckernels.xent_fwd(*column) for column in zip(p, y)]
            return _ckernels.xent_fwd(p, y)

        def _sigmoid_bwd(s, g, acc):
            for g_k, acc_k in ([(g, acc)] if g.ndim == 2 else zip(g, acc)):
                _ckernels.sigmoid_bwd(s, g_k, acc_k)
        kernels = SimpleNamespace(**{
            **vars(_ckernels), "xent": _xent,
            "relu_fwd": lambda x, out=None: _ckernels.relu_fwd(x),
            "sigmoid_fwd": lambda x, out=None: _ckernels.sigmoid_fwd(x),
            "sigmoid_bwd": _sigmoid_bwd})
else:
    from . import _kernels_np as kernels
    BACKEND = "numpy"
