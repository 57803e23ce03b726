"""Reverse-mode automatic differentiation over dense 2-D float64 matrices.

Values are computed eagerly; every operation records the local gradient rule
needed by `backward`.  Gradients accumulate additively across backward calls
until explicitly zeroed, which lets a training step drive several loss roots
into the same parameters.
"""

import numpy as np

from .backend import kernels
from .exceptions import ContractError, ShapeError


def _as_matrix(value):
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


class Tensor:
    """A node in the computation graph: a value matrix plus its gradient.

    `grad` always has the exact shape of `value` and starts at zero.  Leaf
    tensors (constants, parameters) have no parents and no backward rule.
    """

    __slots__ = ("value", "grad", "parents", "_rule")

    def __init__(self, value, parents=(), rule=None):
        self.value = _as_matrix(value)
        self.grad = np.zeros_like(self.value)
        self.parents = tuple(parents)
        self._rule = rule

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(shape={self.value.shape}, leaf={not self.parents})"


class Param(Tensor):
    """A trainable tensor with a name, a parameter group and Adagrad state.

    `group` is either "shared" or ("task", t) and is fixed at construction.
    The Adagrad accumulator is elementwise nonnegative and only ever grows.
    """

    __slots__ = ("name", "group", "adagrad_acc")

    def __init__(self, value, name="param", group="shared"):
        super().__init__(value)
        self.name = name
        self.group = group
        self.adagrad_acc = np.zeros_like(self.value)

    def __repr__(self):
        return f"Param({self.name!r}, group={self.group}, shape={self.value.shape})"


def constant(value):
    """Wrap an array as a leaf node that receives no gradient updates."""
    return Tensor(value)


def init_param(shape, scheme, rng, name="param", group="shared"):
    """Create a Param of the given (rows, cols) shape.

    uniform_fan_in draws i.i.d. from U(-1/sqrt(rows), +1/sqrt(rows));
    zeros returns the zero matrix.  Identical (seed, shape, scheme) give
    bit-identical values.
    """
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise ShapeError(f"parameter dims must be >= 1, got {shape}")
    if scheme == "zeros":
        value = np.zeros((rows, cols))
    elif scheme == "uniform_fan_in":
        bound = 1.0 / np.sqrt(rows)
        value = rng.uniform(-bound, bound, size=(rows, cols))
    else:
        raise ShapeError(f"unknown init scheme {scheme!r}")
    return Param(value, name=name, group=group)


# ---------------------------------------------------------------------------
# Operations.  Each builds the forward value eagerly and registers an exact
# local gradient rule.  `g` below is the upstream gradient of the output.
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    out = Tensor(a.value @ b.value, (a, b))

    def rule(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g
    out._rule = rule
    return out


def add_bias(x, b):
    """Add a 1 x m row vector to every row of an n x m matrix."""
    if b.shape[0] != 1 or b.shape[1] != x.shape[1]:
        raise ShapeError(f"add_bias: {x.shape} + {b.shape}")
    out = Tensor(x.value + b.value, (x, b))

    def rule(g):
        x.grad += g
        b.grad += g.sum(axis=0, keepdims=True)
    out._rule = rule
    return out


def relu(x):
    out = Tensor(kernels.relu_fwd(x.value), (x,))

    def rule(g):
        kernels.relu_bwd(x.value, g, x.grad)
    out._rule = rule
    return out


def sigmoid(x):
    s = kernels.sigmoid_fwd(x.value)
    out = Tensor(s, (x,))

    # The rule holds the output array, not the node: a rule that refers to
    # its own node makes a reference cycle, and every graph built through it
    # would then live until the cyclic garbage collector runs.
    def rule(g):
        kernels.sigmoid_bwd(s, g, x.grad)
    out._rule = rule
    return out


def embedding_lookup(table, indices):
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"embedding indices must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError("embedding index out of range")
    out = Tensor(table.value[idx], (table,))

    def rule(g):
        np.add.at(table.grad, idx, g)
    out._rule = rule
    return out


def concat_cols(*xs):
    rows = xs[0].shape[0]
    for x in xs[1:]:
        if x.shape[0] != rows:
            raise ShapeError("concat_cols: row counts differ")
    out = Tensor(np.concatenate([x.value for x in xs], axis=1), xs)
    widths = [x.shape[1] for x in xs]

    def rule(g):
        start = 0
        for x, w in zip(xs, widths):
            x.grad += g[:, start:start + w]
            start += w
    out._rule = rule
    return out


def gather_rows(x, indices):
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather indices must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError("gather index out of range")
    out = Tensor(x.value[idx], (x,))

    def rule(g):
        np.add.at(x.grad, idx, g)
    out._rule = rule
    return out


def mean_rows(x):
    """Column means: n x m -> 1 x m."""
    n = x.shape[0]
    out = Tensor(x.value.mean(axis=0, keepdims=True), (x,))

    def rule(g):
        x.grad += g / n
    out._rule = rule
    return out


def _same_shape(a, b, opname):
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: {a.shape} vs {b.shape}")


def add(a, b):
    _same_shape(a, b, "add")
    out = Tensor(a.value + b.value, (a, b))

    def rule(g):
        a.grad += g
        b.grad += g
    out._rule = rule
    return out


def sub(a, b):
    _same_shape(a, b, "sub")
    out = Tensor(a.value - b.value, (a, b))

    def rule(g):
        a.grad += g
        b.grad -= g
    out._rule = rule
    return out


def mul(a, b):
    _same_shape(a, b, "mul")
    out = Tensor(a.value * b.value, (a, b))

    def rule(g):
        a.grad += g * b.value
        b.grad += g * a.value
    out._rule = rule
    return out


def absval(x):
    out = Tensor(np.abs(x.value), (x,))

    def rule(g):
        x.grad += g * np.sign(x.value)
    out._rule = rule
    return out


def powc(x, c):
    """Elementwise x^c for a python constant c (used for sqrt/reciprocal)."""
    out = Tensor(x.value ** c, (x,))

    def rule(g):
        x.grad += g * c * x.value ** (c - 1.0)
    out._rule = rule
    return out


def scale(x, c):
    """Multiply by a python constant."""
    c = float(c)
    out = Tensor(x.value * c, (x,))

    def rule(g):
        x.grad += g * c
    out._rule = rule
    return out


def gauss_kernel(u, v, bandwidth):
    """Pairwise Gaussian kernel exp(-(u_i - v_j)^2 / (2 bw^2)) of two columns."""
    if u.shape[1] != 1 or v.shape[1] != 1:
        raise ShapeError("gauss_kernel expects column vectors")
    if bandwidth <= 0:
        raise ContractError(f"bandwidth must be > 0, got {bandwidth}")
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    k = kernels.gauss_fwd(u.value, v.value, gamma)
    out = Tensor(k, (u, v))

    def rule(g):
        kernels.gauss_bwd(u.value, v.value, k, g, gamma, u.grad, v.grad)
    out._rule = rule
    return out


def mean_all(x):
    """Mean over every entry of an n x m matrix, as a 1 x 1 node."""
    n, m = x.shape
    left = constant(np.full((1, n), 1.0))
    right = constant(np.full((m, 1), 1.0))
    return scale(matmul(matmul(left, x), right), 1.0 / (n * m))


def weighted_sum(terms, weights):
    """Sum of weight_i * term_i over scalar nodes; weights are constants."""
    total = None
    for t, w in zip(terms, weights):
        piece = scale(t, w)
        total = piece if total is None else add(total, piece)
    if total is None:
        raise ContractError("weighted_sum needs at least one term")
    return total


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _toposort(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if parent not in visited:
                stack.append((parent, False))
    return order


def backward(root):
    """Backpropagate from a 1 x 1 root; returns {Param: grad} for reachable params.

    Param gradients are accumulated on top of whatever they already hold, so
    several roots can contribute to the same parameters; the caller decides
    when to zero them.  Non-parameter nodes are transient and reset at the
    start of every pass (otherwise a second root sharing part of the graph
    would re-propagate the first root's gradients).  Parameters not reachable
    from the root are left untouched.
    """
    if root.shape != (1, 1):
        raise ContractError(f"backward root must be 1x1, got {root.shape}")
    order = _toposort(root)
    for node in order:
        if not isinstance(node, Param):
            node.grad[...] = 0.0
    root.grad += 1.0
    for node in reversed(order):
        if node._rule is not None:
            node._rule(node.grad)
    return {node: node.grad for node in order if isinstance(node, Param)}


def zero_grads(params):
    for p in params:
        p.zero_grad()
