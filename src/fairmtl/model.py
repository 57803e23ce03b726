"""Shared-bottom multi-task model.

All tasks share the embedding tables and bottom dense layers; each task owns
a head sub-network ending in a single logit.  Parameter grouping (shared vs
per-task) is fixed at build time and drives the gradient routing in the
trainer.  Every parameter's value, gradient and Adagrad accumulator is a
view into one flat (1, N) vector of each (`FlatParams`), so one Adagrad
call updates the whole model; each head layer's T weights and T biases
are also one stack each (`HeadStack`).  `forward_np` and `backprop` are
the training path: a numpy forward that keeps each layer's input and
pre-activation, and a backward from seed gradients at each task's logit
into the flat gradient, one array op per head layer for all tasks and
both of mtaf's seed stacks.  Both write into a `Workspace`, buffers sized
to the batch that every step of a run reuses, and every later run on the
same dataset (`workspace`).  `forward` builds the same
network as an autodiff graph, the differentiable reference.
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


def refuse_unknown(what, keys, accepted):
    """Refuse any of `keys` not in `accepted`, naming them and those."""
    unknown = sorted(set(keys) - set(accepted))
    if unknown:
        raise ConfigError(f"{what}: unknown key(s) "
                          f"{', '.join(map(repr, unknown))}; accepted: "
                          f"{', '.join(accepted)}")


def from_fields(cls, d):
    """A `cls` instance from `d`, whose keys must name its fields.

    The inverse of `dataclasses.asdict` for the flat config records:
    missing fields take the dataclass defaults, and a key that names no
    field is refused (`refuse_unknown`), so a misspelt setting is never
    silently unused.
    """
    names = [f.name for f in fields(cls)]
    refuse_unknown(cls.__name__, d, names)
    try:
        return cls(**d)
    except (TypeError, ValueError) as exc:
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


class Workspace:
    """The arrays a training step writes for batches of n rows, and the
    views of them it reads, built once so that every step of a run, and
    every run on a dataset (`workspace`), reuses them.  It holds arrays
    alone, not the model: any model of the same shapes may write it.

    `forward_np` writes each layer's pre-activation and activation into
    `shared_fwd` and `head_fwd`, and sets `cat_idx`, each layer's input
    (`shared_in`, `head_in`) and `probs`, the (T, n, 1) probabilities.
    `input` holds the dense features and the embeddings side by side.
    The buffers a step's seeds and backward write come with `for_step`:
    `seeds` holds the (2, T, n, 1) head and shared seed stacks at the
    logits, the top head layer's gradient; `backprop` writes the others at
    each layer's pre-activation and input into `shared_grads` and
    `head_grads` (k halves of a head layer's for k seed stacks), `bottom`
    sums the first head layer's (T, n, in) input gradient over the tasks,
    and `ones` is the (1, n) row whose products give the bias gradients.
    """

    def __init__(self, model, n):
        T = model.arch.num_tasks
        width = (model.dense_count
                 + model.arch.embedding_dim * len(model.embeddings))
        self.n = n
        self.input = np.empty((n, width)) if model.embeddings else None
        self.cat_idx = self.probs = self.seeds = None
        self.shared_in = [None] * len(model.shared_layers)
        self.head_in = [None] * len(model.head_stacks)
        # per layer: (pre-activation, activation)
        self.shared_fwd = [tuple(np.empty((2, n, w.shape[1])))
                           for w, _ in model.shared_layers]
        self.head_fwd = [tuple(np.empty((2, T, n, w.value.shape[-1])))
                         for w, _ in model.head_stacks]

    def for_step(self, model):
        """This workspace with the buffers of a step's seeds and backward
        for this model, built on the first call: a forward alone, as in
        evaluation, needs none of them."""
        if self.seeds is not None:
            return self
        n, T = self.n, model.arch.num_tasks
        self.seeds, self.ones = np.empty((2, T, n, 1)), np.ones((1, n))
        # per shared layer: (gradient at the pre-activation, gradient at
        # the input, None at the first layer without embeddings)
        self.shared_grads = [
            (np.empty((n, w.shape[1])),
             np.empty((n, w.shape[0])) if i or model.embeddings else None)
            for i, (w, _) in enumerate(model.shared_layers)]
        to_bottom = bool(model.shared_layers or model.embeddings)
        width = model.head_stacks[0][0].value.shape[1]
        self.bottom = np.empty((n, width)) if to_bottom else None
        # per head layer: the (2, T, n, out) gradient at the pre-activation
        # (None at the top: the seeds), and at the input (2, T, n, in), or
        # (T, n, in) from the shared half at the first layer
        top = len(model.head_stacks) - 1
        self.head_grads = [
            (np.empty((2, T, n, w.value.shape[2])) if i < top else None,
             np.empty((2, T, n, w.value.shape[1])) if i
             else np.empty((T, n, w.value.shape[1])) if to_bottom else None)
            for i, (w, _) in enumerate(model.head_stacks)]
        return self


def workspace(store, model, n):
    """The `Workspace` for this model's shapes and n rows from `store`, a
    dict that keeps one per shape and row count; built on first use."""
    key = (model.arch, model.dense_count, len(model.embeddings), n)
    ws = store.get(key)
    if ws is None:
        ws = store[key] = Workspace(model, n)
    return ws


def _relu_grad(pre, g, out):
    """g through a relu at `pre`, written into `out`: a masked multiply."""
    np.greater(pre, 0.0, out=out)
    out *= g
    return out


def forward_np(model, dense, cat_idx=None, ws=None):
    """The network on a batch in plain numpy, written into `ws` (a new
    `Workspace` when None), which it returns; probabilities equal
    `forward`'s bit for bit.  Builds no graph."""
    dense, cat_idx = _inputs(model, dense, cat_idx)
    if ws is None:
        ws = Workspace(model, dense.shape[0])
    x = dense
    if model.embeddings:
        x = ws.input
        x[:, :model.dense_count] = dense
        dim = model.arch.embedding_dim
        for j, table in enumerate(model.embeddings):
            codes = cat_idx[:, j]
            if codes.size and (codes.min() < 0
                               or codes.max() >= table.shape[0]):
                raise IndexError("embedding index out of range")
            start = model.dense_count + j * dim
            # in range, as just checked, so "clip" changes no code
            np.take(table.value, codes, axis=0, mode="clip",
                    out=x[:, start:start + dim])
        ws.cat_idx = cat_idx

    for i, ((w, b), (pre, act)) in enumerate(zip(model.shared_layers,
                                                  ws.shared_fwd)):
        ws.shared_in[i] = x
        np.matmul(x, w.value, out=pre)
        pre += b.value
        x = kernels.relu_fwd(pre, act)

    top = len(model.head_stacks) - 1
    for i, ((w, b), (pre, act)) in enumerate(zip(model.head_stacks,
                                                  ws.head_fwd)):
        ws.head_in[i] = x
        np.matmul(x, w.value, out=pre)
        pre += b.value
        x = (kernels.sigmoid_fwd if i == top else kernels.relu_fwd)(pre, act)
    ws.probs = x
    return ws


def backprop(model, ws, seeds):
    """Parameter gradients from seed gradients at the tasks' logits,
    written into `model.flat.grad` (every Param's `grad`).

    `ws` holds the batch's `forward_np` and `seeds` is a (k, T, n, 1)
    stack: seeds[0][t] gives head t's gradients and seeds[-1][t] flows
    through head t into the shared bottom and the embeddings, summed in
    task order.  One walk over the head stacks serves both halves (k = 1
    when they agree), with one masked multiply and one input-gradient
    matmul per layer; biases take ones-row matmuls.
    """
    ws.for_step(model)
    k, g = len(seeds), seeds
    for i in range(len(model.head_stacks) - 1, -1, -1):
        (w, b), x = model.head_stacks[i], ws.head_in[i]
        g_pre, g_in = ws.head_grads[i]
        if g_pre is not None:
            g = _relu_grad(ws.head_fwd[i][0], g, g_pre[:k])
        np.matmul(x.swapaxes(-1, -2), g[0], out=w.grad)
        np.matmul(ws.ones, g[0], out=b.grad)
        if i:
            g = np.matmul(g, w.value.swapaxes(-1, -2), out=g_in[:k])
        elif g_in is not None:
            np.matmul(g[-1], w.value.swapaxes(-1, -2), out=g_in)
            g = np.add.reduce(g_in, axis=0, out=ws.bottom)

    for i in range(len(model.shared_layers) - 1, -1, -1):
        (w, b), x = model.shared_layers[i], ws.shared_in[i]
        g_pre, g_in = ws.shared_grads[i]
        g = _relu_grad(ws.shared_fwd[i][0], g, g_pre)
        np.matmul(x.T, g, out=w.grad)
        np.matmul(ws.ones, g, out=b.grad)
        if g_in is not None:
            g = np.matmul(g, w.value.T, out=g_in)
    dim = model.arch.embedding_dim
    for j, table in enumerate(model.embeddings):
        start = model.dense_count + j * dim
        table.grad[...] = 0.0
        np.add.at(table.grad, ws.cat_idx[:, j], g[:, start:start + dim])
