"""The three training regimes over Adagrad, as one closed-form step.

Every loss reaches the parameters only through a task's probability column
p_t = sigmoid(z_t), so a step needs just two seed gradients per task at its
logit z_t: the head seed w_t (dCE_t/dz + lambda_t r_t dF_head_t/dz), whose
gradient head t applies, and the shared seed
w_t (dCE_t/dz + lambda_t dF_shared_t/dz), which flows through head t into
the shared bottom.  Cross-entropy's is (p_t - y_t) / n, written directly,
and a fairness loss's its closed-form dF/dp times p_t (1 - p_t).  vanilla
has lambda = 0; baseline takes the full fairness loss for both parts
(F_head = F_shared = F_full, r_t = 1), so its two seeds are one array and
one walk through the heads serves every parameter; mtaf takes the
ratio-boosted head part (rows no other task's loss can reach) for the head
and the remainder for the shared bottom, so the shared part never reaches
a head.  The T tasks' seeds form
(T, n, 1) stacks, and mtaf's two stacks one (2, T, n, 1) stack, which the
model walks through its stacked heads once.

A run builds once what its steps read or write that does not depend on
the parameters.  A `RunPlan` holds what depends on the config alone (the
task-weight stack, the fairness scales) and the run's `model.Workspace`s,
the buffers a step writes, one per batch length.  A `Batch` holds the rows
in the forms a step reads: the float labels, and the fairness subsets from
one integer code per (row, task), `losses.subset_codes`.  `train()` builds
one for the training set, gathers it by each epoch's permutation into the
same arrays, and steps on slices of that.  The model keeps every
parameter, gradient and Adagrad accumulator in one flat vector each
(`model.FlatParams`), so the update is one `adagrad_update` call;
Adagrad is elementwise, so this equals one call per parameter bit for bit.
"""

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .backend import kernels
from .exceptions import ConfigError, ShapeError, TrainingDiverged
from .losses import (FAIRNESS_TARGETS, Subsets, as_loss_kind,
                     fairness_seed_terms)
from .model import Workspace, backprop, build_model, forward_np, from_fields

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
    """One Adagrad step: acc += g^2; p -= lr * g / (sqrt(acc) + 1e-8).

    `param` is a Param or anything with `value` and `adagrad_acc` arrays,
    such as a model's `FlatParams`.
    """
    if grad.shape != param.value.shape:
        raise ShapeError(
            f"adagrad_update: grad {grad.shape} vs param {param.value.shape}")
    kernels.adagrad_step(param.value, np.ascontiguousarray(grad),
                         param.adagrad_acc, lr, ADAGRAD_EPS)
    return param


def _finite(value, t, loss):
    if not math.isfinite(value):
        raise TrainingDiverged(f"non-finite value in task {t} {loss}: {value}")
    return value


class RunPlan:
    """What a step reads from its config alone, built once per run: the
    (T, 1, 1) task-weight stack and, for a fairness method, the tasks whose
    lambda_t > 0 and `combine`, which turns their dF_full/dp and dF_head/dp
    stacks into one (k, T, m, 1) stack of seed terms at the (T, 1, 1)
    scales w_t lambda_t and, for mtaf's heads, w_t lambda_t r_t.  It also
    keeps the run's workspaces."""

    def __init__(self, config):
        self.config = config
        self._workspaces = {}
        self.weights = np.array(config.task_weights).reshape(-1, 1, 1)
        lam = config.fairness_weights if config.method != "vanilla" else ()
        self.tasks = [t for t, lam_t in enumerate(lam) if lam_t > 0]
        self.mtaf = config.method == "mtaf"
        scale = self.weights * np.reshape(config.fairness_weights, (-1, 1, 1))
        if self.mtaf:
            scales = np.stack((scale * np.reshape(config.head_shared_ratios,
                                                  (-1, 1, 1)), scale))
            self.combine = lambda full, part: scales * np.array(
                (part, full - part))
        else:
            self.combine = lambda full, _: (scale * full)[None]

    def workspace(self, model, n):
        """The `model.Workspace` for this model's steps on n rows; a run
        has at most two, the full batch and the tail."""
        ws = self._workspaces.get(n)
        if ws is None or ws.model is not model:
            ws = self._workspaces[n] = Workspace(model, n).for_step()
        return ws


class Batch:
    """A batch's rows in the forms a step reads under its run's `RunPlan`:
    the dense inputs, the categorical codes (None when there are none), the
    (T, n, 1) float labels and, when a fairness loss is on, the rows'
    `losses.Subsets`.  None of these depends on the probabilities, and each
    is a value per row, so `train()` builds one per run, gathers it by each
    epoch's permutation and steps on slices of that."""

    __slots__ = ("plan", "dense", "cat", "labels", "subsets")

    def __init__(self, plan, dense, cat, labels, subsets):
        self.plan, self.dense, self.cat = plan, dense, cat
        self.labels, self.subsets = labels, subsets

    @classmethod
    def of(cls, dataset, plan):
        labels = np.ascontiguousarray(dataset.labels.T, dtype=np.float64)
        return cls(plan, dataset.dense, dataset.cat if dataset.cat.size
                   else None, labels[..., None],
                   Subsets.of(dataset.labels, dataset.sensitive)
                   if plan.tasks else None)

    def __len__(self):
        return self.dense.shape[0]

    def take(self, rows, out=None):
        """These rows, gathered into the arrays of `out` (a Batch of as
        many rows, taken like this) or into new ones."""
        def gather(name, axis):
            a = getattr(self, name)
            return None if a is None else np.take(
                a, rows, axis=axis, out=getattr(out, name, None))
        return Batch(self.plan, gather("dense", 0), gather("cat", 0),
                     gather("labels", 1),
                     None if self.subsets is None else self.subsets.take(
                         rows, getattr(out, "subsets", None)))

    def __getitem__(self, rows):
        return Batch(self.plan, self.dense[rows],
                     None if self.cat is None else self.cat[rows],
                     self.labels[:, rows],
                     None if self.subsets is None else self.subsets[rows])


def _seeds(batch, probs, out):
    """(seed stack, accuracy losses) of a `Batch` at `probs`.

    The head and shared seeds are (T, n, 1) stacks at the logits, written
    into `out`, a (2, T, n, 1) buffer, head seeds first: cross-entropy's
    by `kernels.xent`, then the fairness terms through one `sigmoid_bwd`.
    The stack returned is out[:1] when they agree (vanilla, baseline, and
    every lambda_t = 0), else all of `out`.  The losses are T floats.
    """
    plan = batch.plan
    losses = kernels.xent(probs, batch.labels, plan.weights, out[0])
    for t, loss in enumerate(losses):
        _finite(loss, t, "accuracy loss")
    if not plan.tasks:
        return out[:1], losses
    config = plan.config
    f_full, f_head, terms = fairness_seed_terms(
        config.fairness_kind, config.fairness_target, batch.subsets, probs,
        plan.tasks, plan.combine, head=plan.mtaf)
    for t in plan.tasks:
        if plan.mtaf:
            _finite(f_head[t], t, "head fairness loss")
            _finite(f_full[t] - f_head[t], t, "shared fairness loss")
        else:
            _finite(f_full[t], t, "fairness loss")
    k = len(terms)
    if plan.mtaf:
        out[1] = out[0]
    kernels.sigmoid_bwd(probs.reshape(-1, 1), terms.reshape(k, -1, 1),
                        out[:k].reshape(k, -1, 1))
    return out[:k], losses


def train_step(model, batch, config, loss_sink=None):
    """Apply one optimizer step of the configured method to the model.

    Forward, the seed gradients at each task's probability column, the
    model's backward from them into its flat gradient, then one Adagrad
    call on the flat parameters, all in the plan's workspace for the
    batch's length.  `batch` is a Dataset, or a `Batch` built with this
    config's `RunPlan`, as `train()` passes.  When given, `loss_sink`
    receives the per-task accuracy loss values of this batch.
    """
    if len(batch) == 0:
        raise ConfigError("train_step on an empty batch")
    if model.arch.num_tasks != config.num_tasks:
        raise ConfigError("config task count does not match the model")
    if not isinstance(batch, Batch):
        batch = Batch.of(batch, RunPlan(config))
    elif batch.plan.config is not config:
        raise ConfigError("batch was built for another config")
    ws = forward_np(model, batch.dense, batch.cat,
                    batch.plan.workspace(model, len(batch)))
    seeds, losses = _seeds(batch, ws.probs, ws.seeds)
    if loss_sink is not None:
        loss_sink.append(losses)
    backprop(model, ws, seeds)
    adagrad_update(model.flat, model.flat.grad, config.learning_rate)
    return model


def train(dataset, arch, config):
    """Run the full loop: the training rows' `Batch`, built once, gathered
    by each epoch's seeded shuffle into the same arrays, and mini-batch
    steps on slices of those, taken once.

    The model is built from config.seed, so identical inputs give identical
    runs.
    """
    if dataset.num_tasks != config.num_tasks:
        raise ConfigError(
            f"dataset has {dataset.num_tasks} tasks, config {config.num_tasks}")
    if arch.num_tasks != config.num_tasks:
        raise ConfigError("arch task count does not match config")
    n = len(dataset)
    if n == 0:
        raise ConfigError("train on an empty dataset")
    started = time.perf_counter()
    model = build_model(arch, dense_count=dataset.dense.shape[1],
                        vocab_sizes=dataset.vocab_sizes, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    rows = Batch.of(dataset, RunPlan(config))
    shuffled = rows.take(rng.permutation(n))
    # views, so they see the rows each later epoch gathers into shuffled
    steps = [shuffled[start:start + config.batch_size]
             for start in range(0, n, config.batch_size)]
    history = np.empty((config.epochs, config.num_tasks))
    for epoch in range(config.epochs):
        if epoch:
            rows.take(rng.permutation(n), out=shuffled)
        if shuffled.subsets is not None and (
                config.fairness_kind.kind == "soft_fpr_gap"):
            shuffled.subsets.count_steps([step.subsets for step in steps],
                                         config.batch_size)
        step_losses = []
        for batch in steps:
            train_step(model, batch, config, loss_sink=step_losses)
        history[epoch] = np.mean(step_losses, axis=0)
    return TrainedRun(model=model, history=history, config=config,
                      seconds=time.perf_counter() - started)
