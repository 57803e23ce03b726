"""Shared-bottom multi-task model.

All tasks share the embedding tables and bottom dense layers; each task owns
a head sub-network ending in a single logit.  Parameter grouping (shared vs
per-task) is fixed at build time and drives the gradient routing in the
trainer.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
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
    bottom: ad.Tensor          # the shared bottom's output, common to all tasks


@dataclass
class MtlModel:
    arch: ArchConfig
    embeddings: list          # one table per categorical feature, shared group
    shared_layers: list       # [(W, b), ...]
    heads: list               # heads[t] = [(W, b), ...] ending in the logit layer
    dense_count: int
    vocab_sizes: tuple = field(default_factory=tuple)

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
        params = self.shared_params
        for t in range(self.arch.num_tasks):
            params.extend(self.head_params(t))
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
    uniform fan-in init, biases start at zero.
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

    return MtlModel(arch=arch, embeddings=embeddings, shared_layers=shared_layers,
                    heads=heads, dense_count=dense_count,
                    vocab_sizes=tuple(vocab_sizes))


def forward(model, dense, cat_idx=None):
    """Run the network on a batch; returns one TaskOutput per task.

    `dense` is (n, dense_count) and `cat_idx` (n, n_categorical) integer
    codes.  The computation graph is retained so the caller can backprop
    through any of the returned nodes.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[1] != model.dense_count:
        raise ShapeError(
            f"dense features must be (n, {model.dense_count}), got {dense.shape}")
    pieces = []
    if model.dense_count:
        pieces.append(ad.constant(dense))
    n_cat = len(model.embeddings)
    if n_cat:
        cat_idx = np.asarray(cat_idx)
        if cat_idx.ndim != 2 or cat_idx.shape != (dense.shape[0], n_cat):
            raise ShapeError(
                f"categorical codes must be ({dense.shape[0]}, {n_cat})")
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
        outputs.append(TaskOutput(logit=logit, prob=ad.sigmoid(logit),
                                  bottom=h))
    return outputs
