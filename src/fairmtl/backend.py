"""Kernel backend selection.

The compiled extension is preferred when importable; otherwise the numpy
fallback is used.  `FAIRMTL_KERNELS=numpy` forces the fallback and
`FAIRMTL_KERNELS=compiled` makes a missing extension a hard error (useful
in benchmarks and CI).  `compiled` composes the compiled backend's
namespace: cross-entropy's seed at the logit is the numpy `xent_seed`, and
`xent` and `xent_steps` take each column's loss, of a step or of every
step of an epoch, from the compiled `xent_fwd`.  Its `sigmoid_bwd` takes
a stack of gradients one at a time, and its `relu_fwd` and `sigmoid_fwd`
ignore `out` and return a new array.
"""

import os
from types import SimpleNamespace

import numpy as np

from . import _kernels_np


def compiled(ck):
    """The kernels of the compiled module `ck` under the numpy fallback's
    signatures."""
    def xent(p, y, gscale, out):
        _kernels_np.xent_seed(p, y, gscale, out)
        if p.ndim == 3:   # a stack of columns: each in turn
            return [ck.xent_fwd(*column) for column in zip(p, y)]
        return ck.xent_fwd(p, y)

    def xent_steps(pc, y):
        # clipping is idempotent, so xent_fwd of p clipped is xent_fwd(p)
        return np.array([[ck.xent_fwd(*column) for column in zip(*step)]
                         for step in zip(pc, y)]).reshape(pc.shape[:2])

    def sigmoid_bwd(s, g, acc):
        for g_k, acc_k in ([(g, acc)] if g.ndim == 2 else zip(g, acc)):
            ck.sigmoid_bwd(s, g_k, acc_k)
    return SimpleNamespace(**{
        **vars(ck), "xent": xent, "xent_seed": _kernels_np.xent_seed,
        "xent_steps": xent_steps,
        "relu_fwd": lambda x, out=None: ck.relu_fwd(x),
        "sigmoid_fwd": lambda x, out=None: ck.sigmoid_fwd(x),
        "sigmoid_bwd": sigmoid_bwd})


_requested = os.environ.get("FAIRMTL_KERNELS", "auto")

if _requested not in ("auto", "compiled", "numpy"):
    raise ValueError(f"FAIRMTL_KERNELS must be auto/compiled/numpy, got {_requested!r}")

kernels, BACKEND = _kernels_np, "numpy"
if _requested in ("auto", "compiled"):
    try:
        from . import _ckernels
    except ImportError:
        if _requested == "compiled":
            raise
    else:
        kernels, BACKEND = compiled(_ckernels), "compiled"
