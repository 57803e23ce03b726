"""The hot training kernels, in numpy, on float64 arrays.

Accumulating kernels (`*_bwd`, `adagrad_step`) add into their output
argument in place, broadcasting as numpy does: `sigmoid_bwd` takes a
(k, ...) stack of `g` and `acc` against one `s`.  `relu_fwd` and
`sigmoid_fwd` write into `out`, when given, and return it.  Training
takes cross-entropy's seed at the logit from `xent_seed`, and a step's
losses, only when asked, from `xent_steps`; `xent_fwd`/`xent_bwd`, the
loss and its gradient at p, serve the autodiff reference.
"""

import numpy as np

XENT_CLIP = 1e-12


def relu_fwd(x, out=None):
    return np.maximum(x, 0.0, out=out)


def relu_bwd(x, g, acc):
    # Subgradient at exactly 0 is 0.
    acc += g * (x > 0.0)


def sigmoid_fwd(x, out=None):
    if out is None:
        out = np.empty_like(x)
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def sigmoid_bwd(s, g, acc):
    acc += g * s * (1.0 - s)


def xent_fwd(p, y):
    """Mean binary cross-entropy with probabilities clipped to [c, 1-c]."""
    pc = np.clip(p, XENT_CLIP, 1.0 - XENT_CLIP)
    return float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))))

def xent_bwd(p, y, gscale, acc):
    # Zero gradient where the clip is active.
    pc = np.clip(p, XENT_CLIP, 1.0 - XENT_CLIP)
    inside = (p >= XENT_CLIP) & (p <= 1.0 - XENT_CLIP)
    n = p.shape[0]
    acc += np.where(inside, (pc - y) / (pc * (1.0 - pc)), 0.0) * (gscale / n)


def xent_seed(p, y, gscale, out):
    """Write gscale (p - y) / n, the gradient of gscale `xent_fwd(p, y)`
    at the logit of p, into `out`, 0 where the clip is active; returns p
    clipped, a new array.  On a (T, n, 1) stack `gscale` may be (T, 1, 1).
    The 0/1 labels `y` may be int8, as training keeps them: the subtract
    casts them to float64 exactly."""
    pc = np.maximum(p, XENT_CLIP)
    np.minimum(pc, 1.0 - XENT_CLIP, out=pc)
    np.subtract(p, y, out=out)
    out *= gscale / p.shape[-2]
    out[pc != p] = 0.0
    return pc


def xent_steps(pc, y):
    """The (W, T) `xent_fwd` losses, bit for bit, of W runs' (T, n, 1)
    stacks `pc`, p clipped as `xent_seed` returns it, which this
    overwrites, and 0/1 labels `y` of its shape, float64 or int8, which
    cast exactly."""
    terms = np.log(pc)
    terms *= y
    np.negative(pc, out=pc)
    np.log1p(pc, out=pc)
    pc *= 1.0 - y
    terms += pc
    return terms.sum(axis=(-2, -1)) / -pc.shape[-2]


def gauss_fwd(u, v, gamma):
    """Pairwise Gaussian kernel matrix K[i, j] = exp(-gamma * (u_i - v_j)^2)."""
    d = u - v.T
    k = d * -gamma
    k *= d
    return np.exp(k, out=k)


def gauss_bwd(u, v, k, g, gamma, du, dv):
    d = u - v.T
    w = g * k * (-2.0 * gamma) * d
    du += w.sum(axis=1, keepdims=True)
    dv -= w.sum(axis=0, keepdims=True).T


def adagrad_step(param, grad, acc, lr, eps):
    acc += grad * grad
    param -= lr * grad / (np.sqrt(acc) + eps)
