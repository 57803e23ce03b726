"""Kernel backend selection.

The compiled extension is preferred when importable; otherwise the numpy
fallback is used.  `FAIRMTL_KERNELS=numpy` forces the fallback and
`FAIRMTL_KERNELS=compiled` makes a missing extension a hard error (useful
in benchmarks and CI).  The compiled backend's fused `xent` is composed
here from its `xent_bwd` and `xent_fwd`, column by column on a stack; its
`relu_bwd` and `sigmoid_bwd` take a stack of gradients one at a time, and
its `relu_fwd` and `sigmoid_fwd` ignore `out` and return a new array.
"""

import os
from types import SimpleNamespace

import numpy as np

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
        def _xent(p, y, gscale, acc):
            if p.ndim == 3:   # a stack of columns: each in turn
                return [_xent(*column)
                        for column in zip(p, y, np.ravel(gscale), acc)]
            _ckernels.xent_bwd(p, y, gscale, acc)
            return _ckernels.xent_fwd(p, y)

        def _each(bwd):
            def run(x, g, acc):
                for g_k, acc_k in ([(g, acc)] if g.ndim == 2 else zip(g, acc)):
                    bwd(x, g_k, acc_k)
            return run
        kernels = SimpleNamespace(**{
            **vars(_ckernels), "xent": _xent,
            "relu_fwd": lambda x, out=None: _ckernels.relu_fwd(x),
            "sigmoid_fwd": lambda x, out=None: _ckernels.sigmoid_fwd(x),
            "relu_bwd": _each(_ckernels.relu_bwd),
            "sigmoid_bwd": _each(_ckernels.sigmoid_bwd)})
else:
    from . import _kernels_np as kernels
    BACKEND = "numpy"
