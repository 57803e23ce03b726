"""Shared-bottom multi-task model.

All tasks share the embedding tables and bottom dense layers; each task owns
a head sub-network ending in a single logit.  Parameter grouping (shared vs
per-task) is fixed at build time and drives the gradient routing in the
trainer.  Every parameter's value, gradient and Adagrad accumulator is a
view into one flat (1, N) vector of each (`FlatParams`), so one Adagrad
call updates the whole model; each head layer's T weights and T biases
are also one stack each (`HeadStack`).  `forward_np` and `backprop` are
the training path: a numpy forward that keeps each layer's input and
pre-activation, and a backward from seed gradients at each task's
probability column into the flat gradient, one array op per head layer
for all tasks.  `forward` builds the same network as an autodiff graph,
the differentiable reference.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .backend import kernels
from .exceptions import ConfigError, ShapeError


@dataclass(frozen=True)
class ArchConfig:
    """Architecture of the shared bottom and the per-task heads.

    Hidden layers use relu; the output is one logit per task, passed through
    a sigmoid where probabilities are needed.
    """

    num_tasks: int
    shared_layer_sizes: tuple = (64,)
    head_layer_sizes: tuple = (32,)
    embedding_dim: int = 40

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ConfigError(f"num_tasks must be >= 1, got {self.num_tasks}")
        for size in tuple(self.shared_layer_sizes) + tuple(self.head_layer_sizes):
            if size < 1:
                raise ConfigError(f"layer sizes must be >= 1, got {size}")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        object.__setattr__(self, "shared_layer_sizes", tuple(self.shared_layer_sizes))
        object.__setattr__(self, "head_layer_sizes", tuple(self.head_layer_sizes))


def from_fields(cls, d):
    """A `cls` instance from the keys of `d` that name its fields.

    The inverse of `dataclasses.asdict` for the flat config records: other
    keys are ignored, so one config section can feed several records, and
    missing fields take the dataclass defaults.
    """
    names = {f.name for f in fields(cls)}
    try:
        return cls(**{k: v for k, v in d.items() if k in names})
    except TypeError as exc:
        raise ConfigError(f"{cls.__name__}: {exc}") from exc


@dataclass
class TaskOutput:
    logit: ad.Tensor
    prob: ad.Tensor


@dataclass
class FlatParams:
    """Every parameter's value, gradient and Adagrad accumulator, each as
    one (1, N) vector in `MtlModel.all_params` order; each Param's arrays
    are views into these."""
    value: np.ndarray
    grad: np.ndarray
    adagrad_acc: np.ndarray

    @classmethod
    def adopt(cls, params):
        """Copy the params' arrays into new flat vectors and point each
        Param at its views; returns them and each Param's start offset,
        keyed by name."""
        n = sum(p.value.size for p in params)
        flat = cls(np.empty((1, n)), np.empty((1, n)), np.empty((1, n)))
        starts, start = {}, 0
        for p in params:
            starts[p.name], stop = start, start + p.value.size
            for name in ("value", "grad", "adagrad_acc"):
                view = getattr(flat, name)[0, start:stop].reshape(p.shape)
                view[...] = getattr(p, name)
                setattr(p, name, view)
            start = stop
        return flat, starts


@dataclass
class HeadStack:
    """A head layer's weights (T, in, out) or biases (T, 1, out): views of
    the flat value and gradient whose slice t backs head t's Param."""
    value: np.ndarray
    grad: np.ndarray


@dataclass
class MtlModel:
    arch: ArchConfig
    embeddings: list          # one table per categorical feature, shared group
    shared_layers: list       # [(W, b), ...]
    heads: list               # heads[t] = [(W, b), ...] ending in the logit layer
    dense_count: int
    vocab_sizes: tuple = field(default_factory=tuple)
    flat: FlatParams = None   # the storage behind every Param; set by build_model
    head_stacks: list = None  # [(W, b) HeadStacks per head layer]; set likewise

    @property
    def shared_params(self):
        params = list(self.embeddings)
        for w, b in self.shared_layers:
            params.extend((w, b))
        return params

    def head_params(self, t):
        params = []
        for w, b in self.heads[t]:
            params.extend((w, b))
        return params

    @property
    def all_params(self):
        """The shared params, then per head layer each task's weight and
        each task's bias: the flat layout, which keeps each stack whole."""
        params = self.shared_params
        for layer in zip(*self.heads):
            params.extend(wb[0] for wb in layer)
            params.extend(wb[1] for wb in layer)
        return params

    def zero_grads(self):
        ad.zero_grads(self.all_params)

    def param_state(self):
        """Copies of all parameter values, keyed by name (for diffing steps)."""
        return {p.name: p.value.copy() for p in self.all_params}


def build_model(arch, dense_count, vocab_sizes=(), seed=0):
    """Construct an MtlModel with deterministic seeded initialization.

    `vocab_sizes` are per-categorical vocabulary sizes *including* the
    reserved out-of-vocabulary slot; every table has `arch.embedding_dim`
    columns.  Embedding tables belong to the shared group.  Weights use
    uniform fan-in init, biases start at zero.  The parameters' arrays are
    views into `model.flat`, as are `model.head_stacks`.
    """
    if dense_count < 0:
        raise ConfigError("dense_count must be >= 0")
    if dense_count == 0 and not vocab_sizes:
        raise ConfigError("model needs at least one dense or categorical feature")
    rng = np.random.default_rng(seed)

    embeddings = []
    for j, vocab in enumerate(vocab_sizes):
        if vocab < 1:
            raise ConfigError(f"vocab size must be >= 1, got {vocab}")
        embeddings.append(
            ad.init_param((vocab, arch.embedding_dim), "uniform_fan_in", rng,
                          name=f"emb{j}", group="shared"))

    def dense_stack(in_dim, sizes, prefix, group):
        layers = []
        for i, width in enumerate(sizes):
            w = ad.init_param((in_dim, width), "uniform_fan_in", rng,
                              name=f"{prefix}_w{i}", group=group)
            b = ad.init_param((1, width), "zeros", rng,
                              name=f"{prefix}_b{i}", group=group)
            layers.append((w, b))
            in_dim = width
        return layers, in_dim

    in_dim = dense_count + arch.embedding_dim * len(vocab_sizes)
    shared_layers, shared_out = dense_stack(in_dim, arch.shared_layer_sizes,
                                            "shared", "shared")

    heads = []
    for t in range(arch.num_tasks):
        sizes = tuple(arch.head_layer_sizes) + (1,)
        layers, _ = dense_stack(shared_out, sizes, f"task{t}", ("task", t))
        heads.append(layers)

    model = MtlModel(arch=arch, embeddings=embeddings,
                     shared_layers=shared_layers, heads=heads,
                     dense_count=dense_count, vocab_sizes=tuple(vocab_sizes))
    model.flat, starts = FlatParams.adopt(model.all_params)

    def stack(params):
        start, size = starts[params[0].name], len(params) * params[0].value.size
        return HeadStack(*(
            getattr(model.flat, name)[0, start:start + size]
            .reshape((len(params),) + params[0].shape)
            for name in ("value", "grad")))
    model.head_stacks = [(stack([wb[0] for wb in layer]),
                          stack([wb[1] for wb in layer]))
                         for layer in zip(*heads)]
    return model


def _inputs(model, dense, cat_idx):
    """The batch's dense features as C-contiguous float64 and its
    categorical codes, checked against the model."""
    dense = np.ascontiguousarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[1] != model.dense_count:
        raise ShapeError(
            f"dense features must be (n, {model.dense_count}), got {dense.shape}")
    n_cat = len(model.embeddings)
    if n_cat:
        cat_idx = np.asarray(cat_idx)
        if cat_idx.ndim != 2 or cat_idx.shape != (dense.shape[0], n_cat):
            raise ShapeError(
                f"categorical codes must be ({dense.shape[0]}, {n_cat})")
    return dense, cat_idx


def forward(model, dense, cat_idx=None):
    """Run the network on a batch as an autodiff graph; one TaskOutput per
    task.

    `dense` is (n, dense_count) and `cat_idx` (n, n_categorical) integer
    codes.  The computation graph is retained so the caller can backprop
    through any of the returned nodes.
    """
    dense, cat_idx = _inputs(model, dense, cat_idx)
    pieces = [ad.constant(dense)] if model.dense_count else []
    for j, table in enumerate(model.embeddings):
        pieces.append(ad.embedding_lookup(table, cat_idx[:, j]))
    h = pieces[0] if len(pieces) == 1 else ad.concat_cols(*pieces)

    for w, b in model.shared_layers:
        h = ad.relu(ad.add_bias(ad.matmul(h, w), b))

    outputs = []
    for t in range(model.arch.num_tasks):
        ht = h
        layers = model.heads[t]
        for w, b in layers[:-1]:
            ht = ad.relu(ad.add_bias(ad.matmul(ht, w), b))
        w, b = layers[-1]
        logit = ad.add_bias(ad.matmul(ht, w), b)
        outputs.append(TaskOutput(logit=logit, prob=ad.sigmoid(logit)))
    return outputs


@dataclass
class Activations:
    """One numpy forward pass, as `backprop` needs it."""
    cat_idx: object    # (n, n_categorical) codes; None without embeddings
    shared: list       # [(input, pre-activation)] per shared layer
    heads: list        # the same per head layer, (T, n, .) stacks over
                       # tasks (the first input is the shared (n, in))
    probs: np.ndarray  # (T, n, 1); probs[t] is task t's column


def _2d(a):
    """A C-contiguous stack as a 2-D view, the kernels' layout."""
    return a.reshape(-1, a.shape[-1])


def forward_np(model, dense, cat_idx=None):
    """The network on a batch in plain numpy; probabilities equal
    `forward`'s bit for bit.  Builds no graph."""
    dense, cat_idx = _inputs(model, dense, cat_idx)
    pieces = [dense] if model.dense_count else []
    for j, table in enumerate(model.embeddings):
        codes = cat_idx[:, j]
        if codes.size and (codes.min() < 0 or codes.max() >= table.shape[0]):
            raise IndexError("embedding index out of range")
        pieces.append(table.value[codes])
    x = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)

    shared = []
    for w, b in model.shared_layers:
        pre = x @ w.value + b.value
        shared.append((x, pre))
        x = kernels.relu_fwd(pre)

    heads = []
    for w, b in model.head_stacks:
        if heads:
            x = kernels.relu_fwd(_2d(pre)).reshape(pre.shape)
        pre = np.matmul(x, w.value) + b.value
        heads.append((x, pre))
    return Activations(cat_idx=cat_idx if model.embeddings else None,
                       shared=shared, heads=heads,
                       probs=kernels.sigmoid_fwd(_2d(pre)).reshape(pre.shape))


def _dense_backward(layers, cache, g, write_grads, to_input):
    """Walk dense layers, plain or stacked over tasks, back from `g`, the
    gradient at the last layer's pre-activation; earlier layers are relu'd.

    Writes each layer's weight and bias gradients when `write_grads` is
    set, and returns the gradient at the stack's input when `to_input` is.
    """
    for i in reversed(range(len(layers))):
        x, pre = cache[i]
        if i < len(layers) - 1:
            g_pre = np.zeros(pre.shape)
            kernels.relu_bwd(_2d(pre), _2d(g), _2d(g_pre))
            g = g_pre
        w, b = layers[i]
        if write_grads:
            np.matmul(x.swapaxes(-1, -2), g, out=w.grad)
            np.add.reduce(g, axis=-2, keepdims=True, out=b.grad)
        if i or to_input:
            g = np.matmul(g, w.value.swapaxes(-1, -2))
    return g if to_input else None


def backprop(model, acts, head_seeds, shared_seeds):
    """Parameter gradients from (T, n, 1) seed gradients at the tasks'
    probabilities, written into `model.flat.grad` (every Param's `grad`).

    head_seeds[t] gives head t's gradients; shared_seeds[t] flows through
    head t into the shared bottom and the embeddings, summed in task order.
    A walk over the head stacks serves each, or both when they are one.
    """
    def logit_grad(seed):
        g = np.zeros(seed.shape)
        kernels.sigmoid_bwd(_2d(acts.probs), _2d(seed), _2d(g))
        return g

    same = shared_seeds is head_seeds
    g_bottom = _dense_backward(model.head_stacks, acts.heads,
                               logit_grad(head_seeds), True, same)
    if not same:
        g_bottom = _dense_backward(model.head_stacks, acts.heads,
                                   logit_grad(shared_seeds), False, True)
    # rebinding the name frees the (T, n, in) stack before the bottom's walk
    g_bottom = np.add.reduce(g_bottom, axis=0)

    if model.shared_layers:
        g_top = np.zeros(acts.shared[-1][1].shape)
        kernels.relu_bwd(acts.shared[-1][1], g_bottom, g_top)
        g_bottom = _dense_backward(model.shared_layers, acts.shared, g_top,
                                   True, bool(model.embeddings))
    dim = model.arch.embedding_dim
    for j, table in enumerate(model.embeddings):
        start = model.dense_count + j * dim
        table.grad[...] = 0.0
        np.add.at(table.grad, acts.cat_idx[:, j], g_bottom[:, start:start + dim])
