"""The three training regimes over Adagrad, as one step with two roots.

Every loss reaches the parameters only through a task's probability column,
so a regime is fixed by what each task's fairness loss contributes to two
scalar roots: the head root, whose gradient head t applies, and the shared
root, whose gradient the shared bottom applies.  vanilla adds nothing;
baseline adds the full fairness loss to both, so the roots coincide and one
backward pass serves every parameter; mtaf adds the ratio-boosted head part
(rows no other task's loss can reach) to the head root and the shared
remainder to the shared root.  mtaf therefore runs a full pass from the
shared root and then a pass from the head root that stops at the shared
bottom's output: the shared part never reaches a head.
"""

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .backend import kernels
from .exceptions import ConfigError, ShapeError, TrainingDiverged
from .losses import (FAIRNESS_TARGETS, as_loss_kind, cross_entropy,
                     decompose_fairness, fairness_loss, subset_select)
from .model import build_model, forward, from_fields

METHODS = ("vanilla", "baseline", "mtaf")
ADAGRAD_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    method: str
    task_weights: tuple
    fairness_weights: tuple = None       # lambda_t, defaults to zeros
    head_shared_ratios: tuple = None     # r_t, defaults to ones
    fairness_kind: object = "mmd"        # str or FairnessLossKind
    fairness_target: str = "equal_opportunity_fpr"
    learning_rate: float = 0.05
    epochs: int = 1
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown training method {self.method!r}")
        w = tuple(float(x) for x in self.task_weights)
        if not w:
            raise ConfigError("task_weights must be nonempty")
        lam = (tuple(float(x) for x in self.fairness_weights)
               if self.fairness_weights is not None else (0.0,) * len(w))
        r = (tuple(float(x) for x in self.head_shared_ratios)
             if self.head_shared_ratios is not None else (1.0,) * len(w))
        if not len(w) == len(lam) == len(r):
            raise ConfigError("task_weights, fairness_weights and "
                              "head_shared_ratios must have equal lengths")
        if any(x < 0 for x in w) or any(x < 0 for x in lam):
            raise ConfigError("weights must be nonnegative")
        if any(x <= 0 for x in r):
            raise ConfigError("head_shared_ratios must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.fairness_target not in FAIRNESS_TARGETS:
            raise ConfigError(f"unknown fairness target {self.fairness_target!r}")
        object.__setattr__(self, "task_weights", w)
        object.__setattr__(self, "fairness_weights", lam)
        object.__setattr__(self, "head_shared_ratios", r)
        object.__setattr__(self, "fairness_kind",
                           as_loss_kind(self.fairness_kind))

    @property
    def num_tasks(self):
        return len(self.task_weights)

    def to_dict(self):
        """The fields as plain values, `fairness_kind` flattened into its
        name and `mmd_bandwidth` (the runs-table and cache-key form)."""
        d = asdict(self)
        d["fairness_kind"] = self.fairness_kind.kind
        d["mmd_bandwidth"] = self.fairness_kind.mmd_bandwidth
        return d

    @classmethod
    def from_dict(cls, d):
        """Inverse of `to_dict`; keys that name no field are ignored."""
        config = from_fields(cls, d)
        if "mmd_bandwidth" not in d:
            return config
        kind = replace(config.fairness_kind,
                       mmd_bandwidth=float(d["mmd_bandwidth"]))
        return replace(config, fairness_kind=kind)


@dataclass
class TrainedRun:
    model: object
    history: np.ndarray        # (epochs, T) mean per-task accuracy loss
    config: TrainConfig
    seconds: float


def adagrad_update(param, grad, lr):
    """One Adagrad step: acc += g^2; p -= lr * g / (sqrt(acc) + 1e-8)."""
    if grad.shape != param.value.shape:
        raise ShapeError(
            f"adagrad_update: grad {grad.shape} vs param {param.value.shape}")
    kernels.adagrad_step(param.value, np.ascontiguousarray(grad),
                         param.adagrad_acc, lr, ADAGRAD_EPS)
    return param


def _check_finite(node, name):
    v = node.value[0, 0]
    if not np.isfinite(v):
        raise TrainingDiverged(f"non-finite value in {name}: {v}")
    return v


def _accuracy_losses(model, batch):
    outs = forward(model, batch.dense, batch.cat if batch.cat.size else None)
    losses = []
    for t, out in enumerate(outs):
        node = cross_entropy(out.prob, batch.labels[:, t])
        _check_finite(node, f"task {t} accuracy loss")
        losses.append(node)
    return outs, losses


def _full_fairness(config, t, batch, prob):
    """Full fairness loss for task t over its negative (and positive) set."""
    kind, target = config.fairness_kind, config.fairness_target
    terms = []
    if target in ("equal_opportunity_fpr", "equalized_odds"):
        terms.append(fairness_loss(kind, prob, batch.sensitive,
                                   subset_select(batch.labels, t, "negatives")))
    if target in ("equal_opportunity_tpr", "equalized_odds"):
        terms.append(fairness_loss(kind, prob, batch.sensitive,
                                   subset_select(batch.labels, t, "positives")))
    node = terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])
    _check_finite(node, f"task {t} fairness loss")
    return node


def _fairness_parts(config, t, batch, prob):
    """(F_head, r_t, F_shared) of task t's fairness loss.

    mtaf splits the loss into the part on rows only task t can reach and
    the remainder; baseline applies the full loss to both roots (F_head =
    F_shared = F_full, r_t = 1).
    """
    if config.method != "mtaf":
        full = _full_fairness(config, t, batch, prob)
        return full, 1.0, full
    f_head, f_shared = decompose_fairness(
        config.fairness_kind, config.fairness_target, t, batch.labels, prob,
        batch.sensitive)
    _check_finite(f_head, f"task {t} head fairness loss")
    _check_finite(f_shared, f"task {t} shared fairness loss")
    return f_head, config.head_shared_ratios[t], f_shared


def train_step(model, batch, config, loss_sink=None):
    """Apply one optimizer step of the configured method to the model.

    Two roots define the step: head t applies the gradient of
    sum_t w_t (CE_t + lambda_t r_t F_head_t) and the shared bottom that of
    sum_t w_t (CE_t + lambda_t F_shared_t) (vanilla: lambda = 0).  When the
    roots coincide, one backward pass serves every parameter; otherwise a
    full pass from the shared root is followed by a pass from the head root
    that stops at the shared bottom's output and replaces the head
    gradients.  When given, `loss_sink` receives the per-task accuracy loss
    values of this batch.
    """
    if len(batch) == 0:
        raise ConfigError("train_step on an empty batch")
    if model.arch.num_tasks != config.num_tasks:
        raise ConfigError("config task count does not match the model")
    w = config.task_weights
    lam = (config.fairness_weights if config.method != "vanilla"
           else (0.0,) * config.num_tasks)

    outs, acc = _accuracy_losses(model, batch)
    if loss_sink is not None:
        loss_sink.append([a.value[0, 0] for a in acc])

    head_terms, head_weights = list(acc), list(w)
    shared_terms, shared_weights = list(acc), list(w)
    for t in range(config.num_tasks):
        if lam[t] > 0:
            f_head, r, f_shared = _fairness_parts(config, t, batch,
                                                  outs[t].prob)
            head_terms.append(f_head)
            head_weights.append(w[t] * lam[t] * r)
            shared_terms.append(f_shared)
            shared_weights.append(w[t] * lam[t])

    model.zero_grads()
    ad.backward(ad.weighted_sum(shared_terms, shared_weights))
    if head_terms != shared_terms or head_weights != shared_weights:
        # the head root's gradient replaces the shared root's in every head
        for t in range(config.num_tasks):
            ad.zero_grads(model.head_params(t))
        ad.backward(ad.weighted_sum(head_terms, head_weights),
                    stop=(outs[0].bottom,))
    for p in model.all_params:
        adagrad_update(p, p.grad, config.learning_rate)
    model.zero_grads()
    return model


def train(dataset, arch, config):
    """Run the full loop: seeded per-epoch shuffles, mini-batch steps.

    The model is built from config.seed, so identical inputs give identical
    runs.
    """
    if dataset.num_tasks != config.num_tasks:
        raise ConfigError(
            f"dataset has {dataset.num_tasks} tasks, config {config.num_tasks}")
    if arch.num_tasks != config.num_tasks:
        raise ConfigError("arch task count does not match config")
    started = time.perf_counter()
    model = build_model(arch, dense_count=dataset.dense.shape[1],
                        vocab_sizes=dataset.vocab_sizes, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    n = len(dataset)
    history = np.empty((config.epochs, config.num_tasks))
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        step_losses = []
        for start in range(0, n, config.batch_size):
            batch = dataset.take(order[start:start + config.batch_size])
            train_step(model, batch, config, loss_sink=step_losses)
        history[epoch] = np.mean(step_losses, axis=0)
    return TrainedRun(model=model, history=history, config=config,
                      seconds=time.perf_counter() - started)
