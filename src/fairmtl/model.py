"""Shared-bottom multi-task model.

All tasks share the embedding tables and bottom dense layers; each task owns
a head sub-network ending in a single logit.  Parameter grouping (shared vs
per-task) is fixed at build time and drives the gradient routing in the
trainer.  Every parameter's value, gradient and Adagrad accumulator is a
view into one flat (W, N) array of each (`FlatParams`), a row per run: a
built model is one row, and a stack (`build_stack`) W models of one
shape, so one Adagrad call updates them all.  Each layer is also one
(W, ...) stack, each head layer one (W, T, ...) stack (`LayerStack`).
`forward_np` and `backprop` are the training path, on a batch per run: a
numpy forward that keeps each layer's input and activation, and a
backward from seed gradients at each task's logit into the flat
gradient, one array op per layer for all runs, tasks and both of mtaf's
seed stacks (but the shared bottom's gradient, summed task by task), in a
`Workspace` of buffers that every step and run on a dataset reuses
(`workspace`).  `forward` builds the same network as an
autodiff graph, the differentiable reference.
"""

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .backend import kernels
from .exceptions import ConfigError, ShapeError


# each bound a field may declare, as a refusal says it, and its test
_BOUNDS = {"": lambda v: True, "> 0": lambda v: v > 0,
           ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
           "[0, 1]": lambda v: 0 <= v <= 1, "(0, 1)": lambda v: 0 < v < 1}


@dataclass(frozen=True)
class Kind:
    """A config field's declared kind and bound (`integer`, `real`,
    `choice`, `listed`), as a refusal says them (`what`); `convert(name,
    value)` gives a value of them as the record keeps it, else None."""
    what: str
    convert: object

    def coerce(self, name, value):
        kept = self.convert(name, value)
        if kept is None:
            raise ConfigError(f"{name} must be {self.what}, got {value!r}")
        return kept


# Each Kind constructor is memoized, so equal declarations, such as the
# many `integer(">= 1")`, share one frozen Kind and its one closure.
@functools.lru_cache(maxsize=None)
def integer(bound):
    """A Python int (numpy's convert), never a bool, within `bound`."""
    return Kind(f"an integer {bound}",
                lambda name, v: int(v) if isinstance(v, numbers.Integral)
                and not isinstance(v, bool) and _BOUNDS[bound](v) else None)


@functools.lru_cache(maxsize=None)
def real(bound=""):
    """A finite Python float (an int converts, unless too large for a
    float), never a bool or a str, within `bound`."""
    return Kind(f"a number in {bound}" if bound.startswith(("[", "("))
                else f"a finite number {bound}".rstrip(),
                lambda name, v: float(v) if isinstance(v, numbers.Real)
                and not isinstance(v, bool) and abs(v) <= sys.float_info.max
                and _BOUNDS[bound](v) else None)


@functools.lru_cache(maxsize=None)
def choice(options):
    """One of the strings `options`."""
    return Kind("one of " + ", ".join(map(repr, options)),
                lambda name, v: v if isinstance(v, str) and v in options
                else None)


@functools.lru_cache(maxsize=None)
def listed(item, size=None):
    """A tuple of `item`s, given as a list, tuple, range or array (never a
    str), each refused as "<name>[i]": of `size` entries, or of any
    number, or of one or more if `size` is "nonempty"."""
    def convert(name, value):
        if isinstance(value, (list, tuple, range, np.ndarray)) and (
                len(value) if size == "nonempty"
                else size in (None, len(value))):
            return tuple(item.coerce(f"{name}[{i}]", v)
                         for i, v in enumerate(value))
    shown = {None: "a list", "nonempty": "a nonempty list"}.get(
        size, f"a list of {size}")
    return Kind(f"{shown}, each {item.what}", convert)


def coerce_fields(record):
    """Set each field of the frozen config `record` as the Kind its class
    declares for it in `KINDS` keeps it, or refuse it as "<Class>.<field>
    must be <kind and bound>, got <value!r>"; a field whose default is
    None may stay None."""
    cls = type(record)
    for f in fields(cls):
        value = getattr(record, f.name)
        if value is not None or f.default is not None:
            object.__setattr__(record, f.name, cls.KINDS[f.name].coerce(
                f"{cls.__name__}.{f.name}", value))


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

    KINDS = {"num_tasks": integer(">= 1"), "embedding_dim": integer(">= 1"),
             "shared_layer_sizes": listed(integer(">= 1")),
             "head_layer_sizes": listed(integer(">= 1"))}

    def __post_init__(self):
        coerce_fields(self)


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
    except TypeError as exc:   # a field without a default left out
        raise ConfigError(f"{cls.__name__}: {exc}") from exc


@dataclass
class TaskOutput:
    logit: ad.Tensor
    prob: ad.Tensor


@dataclass
class FlatParams:
    """Every parameter's value, gradient and Adagrad accumulator, each as
    one (W, N) array, row w run w's in `MtlModel.all_params` order; each
    Param's arrays are views into its run's row."""
    value: np.ndarray
    grad: np.ndarray
    adagrad_acc: np.ndarray

    @classmethod
    def adopt(cls, runs):
        """Copy each run's params, in `all_params` order, into its row of
        new flat arrays and point each Param at its views; returns them
        and each Param's start offset in a row, keyed by name."""
        flat = cls(*(np.empty((len(runs), sum(p.value.size for p in runs[0])))
                     for _ in range(3)))
        for row, params in enumerate(runs):
            starts, start = {}, 0
            for p in params:
                starts[p.name], stop = start, start + p.value.size
                for name in ("value", "grad", "adagrad_acc"):
                    view = getattr(flat, name)[row, start:stop].reshape(p.shape)
                    view[...] = getattr(p, name)
                    setattr(p, name, view)
                start = stop
        return flat, starts


@dataclass
class LayerStack:
    """A layer's parameter in W runs, views of the flat value and gradient:
    a table (W, vocab, dim), a shared weight (W, in, out) or bias
    (W, 1, out), or a head layer's (W, T, in, out) or (W, T, 1, out)."""
    value: np.ndarray
    grad: np.ndarray


def _stack_layers(net, flat, starts, model):
    """Set `net.flat` to `flat`, rows laid out as `model`'s at `starts`,
    and its `tables`, `shared_stacks` and `head_stacks` to views of it."""
    def stack(params, *tasks):
        start, size = starts[params[0].name], len(params) * params[0].value.size
        return LayerStack(*(
            getattr(flat, name)[:, start:start + size]
            .reshape((len(flat.value),) + tasks + params[0].shape)
            for name in ("value", "grad")))
    net.flat = flat
    net.tables = [stack([table]) for table in model.embeddings]
    net.shared_stacks = [(stack([w]), stack([b]))
                         for w, b in model.shared_layers]
    net.head_stacks = [tuple(stack([wb[i] for wb in layer], len(layer))
                             for i in (0, 1)) for layer in zip(*model.heads)]


@dataclass
class MtlModel:
    arch: ArchConfig
    embeddings: list          # one table per categorical feature, shared group
    shared_layers: list       # [(W, b), ...]
    heads: list               # heads[t] = [(W, b), ...] ending in the logit layer
    dense_count: int
    vocab_sizes: tuple = field(default_factory=tuple)
    # the storage behind every Param, one row, and its layers' views of it
    flat: FlatParams = None
    tables: list = None
    shared_stacks: list = None
    head_stacks: list = None
    models: list = None       # a stack's (`build_stack`) runs, else None

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
    views into `model.flat`, one row, as are its layer stacks.
    """
    return build_stack(arch, dense_count, vocab_sizes, [seed]).models[0]


def build_stack(arch, dense_count, vocab_sizes, seeds):
    """W models of one shape trained as one, one per seed (`build_model`):
    an MtlModel of no Params of its own whose `flat` rows and layer stacks
    are its `models`' views, each model those of its row."""
    models = [_model(arch, dense_count, vocab_sizes, seed) for seed in seeds]
    flat, starts = FlatParams.adopt([m.all_params for m in models])
    stack = replace(models[0], embeddings=None, shared_layers=None,
                    heads=None, models=models)
    for net, rows in [(stack, slice(None))] + [
            (m, slice(row, row + 1)) for row, m in enumerate(models)]:
        _stack_layers(net, FlatParams(flat.value[rows], flat.grad[rows],
                                      flat.adagrad_acc[rows]),
                      starts, models[0])
    return stack


def _model(arch, dense_count, vocab_sizes, seed):
    """`build_model`'s model, each Param holding its own arrays."""
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

    return MtlModel(arch=arch, embeddings=embeddings,
                    shared_layers=shared_layers, heads=heads,
                    dense_count=dense_count, vocab_sizes=tuple(vocab_sizes))


def _inputs(model, dense, cat_idx, runs=()):
    """The batch's dense features as float64 and its categorical codes,
    checked against the model: (n, dense_count) and (n, n_categorical)
    after the leading axes `runs`."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != len(runs) + 2 or (
            dense.shape[:-2] + dense.shape[-1:] != runs + (model.dense_count,)):
        raise ShapeError(f"dense features must be {runs} + (n, "
                         f"{model.dense_count}), got {dense.shape}")
    n_cat = len(model.vocab_sizes)
    if n_cat:
        cat_idx = np.asarray(cat_idx)
        if cat_idx.shape != dense.shape[:-1] + (n_cat,):
            raise ShapeError(
                f"categorical codes must be {dense.shape[:-1] + (n_cat,)}")
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
    """The arrays a training step writes for W runs' batches of n rows,
    and the views of them it reads, built once so that every step, and
    every run on a dataset (`workspace`), reuses them; any model or
    stack of the same shapes and W may write it.

    `forward_np` writes each layer's pre-activation, then its activation
    over it, into one buffer per layer (`shared_fwd`, `head_fwd`), and
    sets `cat_idx`, each layer's input (`shared_in`, `head_in`) and
    `probs`, the (W, T, n, 1) probabilities; `input` holds the dense
    features and the embeddings side by side.  `for_step` adds `dense`,
    the (W, n, dense_count) features a step gathers for its rows, and the
    buffers of the seeds and the backward: `seeds`, the (2, W, T, n, 1)
    head and shared seed stacks at the logits; `shared_grads` and
    `head_grads`, each layer's gradient at its input (k halves of a head
    layer's for k seed stacks), in which the layer below takes its relu
    gradient in place, and, for a width-1 layer, its `_input_grad` pads;
    `bottom`, the first head layer's input gradient summed over the
    tasks, where the top shared layer takes its relu gradient, with one
    task's gradient at a time in that layer's (W, n, in) slot of
    `head_grads`; and `ones`, the (1, n) row that gives bias gradients.

    Each is a contiguous flat prefix (BLAS may round into a strided one
    differently) of its role's array in `pool`, which `workspace` shares
    between a dataset's workspaces of one model shape and grows to the
    largest asked for;
    `ones` and the pads, whose contents every step reads, are each
    workspace's own.
    """

    def __init__(self, model, n, pool=None):
        W, T = len(model.flat.value), model.arch.num_tasks
        width = model.dense_count + model.arch.embedding_dim * len(model.tables)
        self.n, self.pool, self.used = n, [] if pool is None else pool, 0
        self.input = self._empty(W, n, width) if model.tables else None
        self.cat_idx = self.probs = self.seeds = None
        self.shared_in = [None] * len(model.shared_stacks)
        self.head_in = [None] * len(model.head_stacks)
        self.shared_fwd = [self._empty(W, n, w.value.shape[-1])
                           for w, _ in model.shared_stacks]
        self.head_fwd = [self._empty(W, T, n, w.value.shape[-1])
                         for w, _ in model.head_stacks]

    def _empty(self, *shape):
        """The pool's next array, grown to fit, as `shape`."""
        i, size = self.used, math.prod(shape)
        if i == len(self.pool) or self.pool[i].size < size:
            self.pool[i:i + 1] = [np.empty(size)]
        self.used += 1
        return self.pool[i][:size].reshape(shape)

    def for_step(self, model):
        """This workspace with the buffers of a step's seeds and backward
        for this model, built on the first call: a forward alone, as in
        evaluation, needs none of them."""
        if self.seeds is not None:
            return self
        n, W, T = self.n, len(model.flat.value), model.arch.num_tasks
        empty = self._empty
        self.dense = empty(W, n, model.dense_count)
        self.seeds, self.ones = empty(2, W, T, n, 1), np.ones((1, n))

        def pads(w, runs):
            # a width-1 layer's gradient and weights, zero-padded to K = 2
            return (np.zeros(runs + (n, 2)),
                    np.zeros(w.value.shape[:-2] + (2, w.value.shape[-2]))
                    ) if w.value.shape[-1] == 1 else None
        # per shared layer: (gradient at the input, None at the first
        # layer without embeddings, pads)
        self.shared_grads = [
            (empty(W, n, w.value.shape[1]) if i or model.tables else None,
             pads(w, (W,)))
            for i, (w, _) in enumerate(model.shared_stacks)]
        to_bottom = bool(model.shared_stacks or model.tables)
        width = model.head_stacks[0][0].value.shape[2]
        self.bottom = empty(W, n, width) if to_bottom else None
        # per head layer: (gradient at the input, (2, W, T, n, in), or at
        # the first layer one task's from the shared half, (W, n, in),
        # which `backprop` adds into `bottom`, pads)
        self.head_grads = [
            (empty(2, W, T, n, w.value.shape[2]) if i
             else empty(W, n, width) if to_bottom and T > 1 else None,
             pads(w, (2, W, T)))
            for i, (w, _) in enumerate(model.head_stacks)]
        return self


def workspace(store, model, n, step=False):
    """The `Workspace` for this model's shapes, runs and n rows from
    `store`, a dict that keeps one per key and one pool per model shape;
    built on first use, with a step's buffers (`for_step`) when `step`;
    one that grows the pool drops the shape's others, to be rebuilt on it."""
    shapes = (model.arch, model.dense_count, len(model.tables))
    key = shapes + (len(model.flat.value), n)
    ws = store.get(key)
    if ws is None or step and ws.seeds is None:
        pool = store.setdefault(shapes, [])
        old = pool[:]
        ws = ws or Workspace(model, n, pool)
        if step:
            ws.for_step(model)
        if any(a is not b for a, b in zip(old, pool)):
            for stale in [k for k in store if k[:3] == shapes and k[3:]]:
                del store[stale]
        store[key] = ws
    return ws


def _relu_grad(act, g):
    """g, a stack of k gradients, through a relu of output `act`, in
    place: one mask act > 0, which is the pre-activation's > 0 bit for
    bit (NaN too), for every half."""
    return np.multiply(g, np.greater(act, 0.0), out=g)


def _input_grad(g, w, out, pads):
    """g @ w^T, a layer's gradient at its input for its weights `w`,
    written into `out`.

    numpy takes a product of inner size K = 1, a width-1 layer's (the
    logits'), in an unblocked loop; with `pads`, zero-padded to K = 2, it
    goes to BLAS, and each entry only adds 0 * 0 to the same product, so
    its bits are the loop's.
    """
    if pads is None:
        return np.matmul(g, w.swapaxes(-1, -2), out=out)
    g_pad, w_pad = pads[0][:len(g)], pads[1]
    g_pad[..., :1] = g
    w_pad[..., :1, :] = w.swapaxes(-1, -2)
    return np.matmul(g_pad, w_pad, out=out)


def forward_np(model, dense, cat_idx=None, ws=None):
    """The network of a model or stack of W runs on each run's batch,
    (W, n, dense_count) features and (W, n, n_categorical) codes, in
    numpy, written into `ws` (a new `Workspace` when None), returned;
    probabilities equal `forward`'s bit for bit."""
    dense, cat_idx = _inputs(model, dense, cat_idx, (len(model.flat.value),))
    if ws is None:
        ws = Workspace(model, dense.shape[1])
    x = dense
    if model.tables:
        x = ws.input
        x[..., :model.dense_count] = dense
        dim = model.arch.embedding_dim
        for j, table in enumerate(model.tables):
            start = model.dense_count + j * dim
            for run, codes in enumerate(cat_idx[..., j]):
                if codes.size and (codes.min() < 0
                                   or codes.max() >= table.value.shape[1]):
                    raise IndexError("embedding index out of range")
                # in range, as just checked, so "clip" changes no code
                np.take(table.value[run], codes, axis=0, mode="clip",
                        out=x[run, :, start:start + dim])
        ws.cat_idx = cat_idx

    for i, ((w, b), out) in enumerate(zip(model.shared_stacks,
                                          ws.shared_fwd)):
        ws.shared_in[i] = x
        np.matmul(x, w.value, out=out)
        out += b.value
        x = kernels.relu_fwd(out, out)

    # one (W, 1, n, in) input for all the heads
    x = x[:, None]
    top = len(model.head_stacks) - 1
    for i, ((w, b), out) in enumerate(zip(model.head_stacks, ws.head_fwd)):
        ws.head_in[i] = x
        np.matmul(x, w.value, out=out)
        out += b.value
        x = (kernels.sigmoid_fwd if i == top else kernels.relu_fwd)(out, out)
    ws.probs = x
    return ws


def backprop(model, ws, seeds):
    """Parameter gradients from seed gradients at the tasks' logits,
    written into `model.flat.grad` (every Param's `grad`).

    `ws` holds the batch's `forward_np` and `seeds` is a (k, W, T, n, 1)
    stack: seeds[0][w, t] gives run w's head t gradients and seeds[-1][w, t]
    flows through its head t into its shared bottom and embeddings, summed
    in task order.  One walk serves both halves (k = 1 when they agree)
    and every run, with one masked multiply, in place, and one
    input-gradient matmul per layer; biases take ones-row matmuls.  The
    first head layer's input gradient is taken task by task, the first
    into `ws.bottom` and each later one added to it, in task order.
    """
    ws.for_step(model)
    k, g, top = len(seeds), seeds, len(model.head_stacks) - 1
    for i in range(top, -1, -1):
        (w, b), x = model.head_stacks[i], ws.head_in[i]
        g_in, pads = ws.head_grads[i]
        if i < top:
            g = _relu_grad(ws.head_fwd[i], g)
        np.matmul(x.swapaxes(-1, -2), g[0], out=w.grad)
        np.matmul(ws.ones, g[0], out=b.grad)
        if i:
            g = _input_grad(g, w.value, g_in[:k], pads)
        elif ws.bottom is not None:
            for t in range(g.shape[2]):
                _input_grad(g[-1:, :, t], w.value[:, t],
                            (g_in if t else ws.bottom)[None],
                            pads and (pads[0][:, :, t], pads[1][:, t]))
                if t:
                    np.add(ws.bottom, g_in, out=ws.bottom)
            g = ws.bottom

    for i in range(len(model.shared_stacks) - 1, -1, -1):
        (w, b), x = model.shared_stacks[i], ws.shared_in[i]
        g_in, pads = ws.shared_grads[i]
        g = _relu_grad(ws.shared_fwd[i], g)
        np.matmul(x.swapaxes(-1, -2), g, out=w.grad)
        np.matmul(ws.ones, g, out=b.grad)
        if g_in is not None:
            g = _input_grad(g, w.value, g_in, pads)
    dim = model.arch.embedding_dim
    for j, table in enumerate(model.tables):
        start = model.dense_count + j * dim
        table.grad[...] = 0.0
        for run, codes in enumerate(ws.cat_idx[..., j]):
            np.add.at(table.grad[run], codes, g[run, :, start:start + dim])
