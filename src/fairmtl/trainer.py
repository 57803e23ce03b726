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

Nothing a step reads or writes that does not depend on the parameters
is built per step.  Per process, the training set keeps (`Dataset.kept`)
what depends on its rows alone, for every run on it: the float labels,
the fairness subsets' arrays from one integer code per (row, task)
(`losses.subset_codes`), the arrays each epoch gathers into and the
`model.Workspace`s, the buffers a step writes, one per model shape and
batch length.  Per run, a `RunPlan` holds what depends on the config (the
task-weight stack, the fairness scales), and `train()` cuts the epoch
arrays into the steps' `Batch`es, views that see each epoch's gather.
Per epoch, `train()` gathers the rows by a fresh permutation, and, once
its steps are done, takes every step's cross-entropy from one pass over
the clipped probabilities they left (`kernels.xent_steps`): a step
computes a loss value only for a `loss_sink`, and otherwise checks that
its clipped probabilities hold no NaN, the one way a loss is not finite.
The model keeps every parameter, gradient and Adagrad accumulator in one
flat vector each (`model.FlatParams`), so the update is one
`adagrad_update` call; Adagrad is elementwise, so this equals one call
per parameter bit for bit.
"""

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .backend import kernels
from .exceptions import ConfigError, ShapeError, TrainingDiverged
from .losses import (FAIRNESS_TARGETS, Subsets, as_loss_kind,
                     fairness_seed_terms)
from .model import (backprop, build_model, forward_np, from_fields,
                    workspace)

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
    kernels.adagrad_step(param.value, grad, param.adagrad_acc, lr,
                         ADAGRAD_EPS)
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
    scales w_t lambda_t and, for mtaf's heads, w_t lambda_t r_t."""

    def __init__(self, config):
        self.config = config
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


class Batch:
    """A batch's rows in the forms a step reads under its run's `RunPlan`:
    the dense inputs, the categorical codes (None when there are none), the
    (T, n, 1) float labels and, when a fairness loss is on, the rows'
    `losses.Subsets`.  None of these depends on the probabilities, and each
    is a value per row, so `train()` gathers them by each epoch's
    permutation and steps on slices of that (`steps`).  `clipped`, when
    not None, is the contiguous (T, n, 1) array a step without a loss sink
    writes its clipped probabilities into (for an epoch, a flat array with
    its steps' in turn), and `workspaces` the dict its `model.workspace`
    comes from; both, like the labels and subsets, are kept by the
    dataset the batch came from."""

    __slots__ = ("plan", "dense", "cat", "labels", "subsets", "clipped",
                 "workspaces")

    def __init__(self, plan, dense, cat, labels, subsets, clipped,
                 workspaces):
        self.plan, self.dense, self.cat = plan, dense, cat
        self.labels, self.subsets = labels, subsets
        self.clipped, self.workspaces = clipped, workspaces

    @classmethod
    def of(cls, dataset, plan):
        """The dataset's rows, from the arrays it keeps for every run."""
        labels = dataset.kept("labels", lambda: np.ascontiguousarray(
            dataset.labels.T, dtype=np.float64)[..., None])
        subsets = None
        if plan.tasks:
            subsets = Subsets(*dataset.kept("subsets", lambda: Subsets.of(
                dataset.labels, dataset.sensitive).arrays))
        return cls(plan, dataset.dense, dataset.cat if dataset.cat.size
                   else None, labels, subsets, None,
                   dataset.kept("workspaces", dict))

    def epoch(self, arrays):
        """A Batch of as many rows to `take` into, from the dict `arrays`,
        which keeps any array it lacks for later runs; its `clipped` is
        one too."""
        def array(name, like):
            if like is None:
                return None
            a = arrays.get(name)
            if a is None:
                a = arrays[name] = np.empty(like.shape, like.dtype)
            return a
        subsets = None if self.subsets is None else Subsets(*(
            array(name, getattr(self.subsets, name))
            for name in ("codes", "sensitive", "sides")))
        return Batch(self.plan, array("dense", self.dense),
                     array("cat", self.cat), array("labels", self.labels),
                     subsets, array("clipped", self.labels.reshape(-1)),
                     self.workspaces)

    def __len__(self):
        return self.dense.shape[0]

    def take(self, rows, out):
        """These rows, gathered into the arrays of `out`, a Batch of as
        many rows (`epoch`), which it returns."""
        for name, axis in (("dense", 0), ("cat", 0), ("labels", 1)):
            a = getattr(self, name)
            if a is not None:
                np.take(a, rows, axis=axis, out=getattr(out, name))
        if self.subsets is not None:
            self.subsets.take(rows, out.subsets)
        return out

    def __getitem__(self, rows):
        return Batch(self.plan, self.dense[rows],
                     None if self.cat is None else self.cat[rows],
                     self.labels[:, rows],
                     None if self.subsets is None else self.subsets[rows],
                     None, self.workspaces)

    def steps(self, size):
        """This epoch (`epoch`) cut into steps of `size` rows in order, as
        views, so they see the rows each later `take` gathers, and each
        writing its clipped probabilities into its own block of `clipped`;
        with, per step length m, the (S, T, m, 1) stacks of those blocks
        and of the steps' labels, for `kernels.xent_steps`."""
        T, n = self.labels.shape[:2]
        full = n - n % size
        steps, stacks = [], []
        for start, stop, m in ((0, full, size), (full, n, n - full)):
            if start == stop:
                continue
            y = self.labels[:, start:stop].reshape(T, -1, m, 1).swapaxes(0, 1)
            stacks.append((self.clipped[T * start:T * stop].reshape(y.shape),
                           y))
            for clipped, first in zip(stacks[-1][0], range(start, stop, m)):
                steps.append(self[first:first + m])
                steps[-1].clipped = clipped
        return steps, stacks


def _finite_losses(losses):
    for t, loss in enumerate(losses):
        _finite(loss, t, "accuracy loss")


def _seeds(batch, probs, out, with_losses=True):
    """(seed stack, accuracy losses) of a `Batch` at `probs`.

    The head and shared seeds are (T, n, 1) stacks at the logits, written
    into `out`, a (2, T, n, 1) buffer, head seeds first: cross-entropy's
    by `kernels.xent`, then the fairness terms through one `sigmoid_bwd`.
    The stack returned is out[:1] when they agree (vanilla, baseline, and
    every lambda_t = 0), else all of `out`.  The losses are T floats, or
    None without `with_losses`: then cross-entropy's seed comes from
    `kernels.xent_seed`, and only a NaN among the clipped probabilities,
    the one way a loss is not finite, has the losses computed, to raise.
    """
    plan = batch.plan
    if with_losses:
        losses = kernels.xent(probs, batch.labels, plan.weights, out[0])
        _finite_losses(losses)
    else:
        clipped = kernels.xent_seed(probs, batch.labels, plan.weights,
                                    out[0], batch.clipped)
        # each in [c, 1 - c] unless NaN, so the sum is finite unless one is
        if not math.isfinite(clipped.sum()):
            _finite_losses(kernels.xent_steps(clipped[None],
                                              batch.labels[None])[0])
        losses = None
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
    kernels.sigmoid_bwd(probs, terms, out[:k])
    return out[:k], losses


def train_step(model, batch, config, loss_sink=None):
    """Apply one optimizer step of the configured method to the model.

    Forward, the seed gradients at each task's probability column, the
    model's backward from them into its flat gradient, then one Adagrad
    call on the flat parameters, all in the workspace for the model and
    the batch's length.  `batch` is a Dataset, or a `Batch` built with
    this config's `RunPlan`, as `train()` passes.  When given, `loss_sink`
    receives the per-task accuracy loss values of this batch; without
    one, the step computes no loss value, only checks that it would be
    finite, and leaves its clipped probabilities in `batch.clipped` when
    that is set.
    """
    if len(batch) == 0:
        raise ConfigError("train_step on an empty batch")
    if model.arch.num_tasks != config.num_tasks:
        raise ConfigError("config task count does not match the model")
    if not isinstance(batch, Batch):
        batch = Batch.of(batch, RunPlan(config))
    elif batch.plan.config is not config:
        raise ConfigError("batch was built for another config")
    ws = workspace(batch.workspaces, model, len(batch)).for_step(model)
    forward_np(model, batch.dense, batch.cat, ws)
    seeds, losses = _seeds(batch, ws.probs, ws.seeds, loss_sink is not None)
    if loss_sink is not None:
        loss_sink.append(losses)
    backprop(model, ws, seeds)
    adagrad_update(model.flat, model.flat.grad, config.learning_rate)
    return model


def train(dataset, arch, config):
    """Run the full loop: each epoch's seeded shuffle of the training rows
    gathered into the arrays the dataset keeps for it, mini-batch steps on
    slices of those, taken once per run, and the epoch's mean loss per
    task from one pass over the clipped probabilities its steps left.

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
    shuffled = rows.epoch(dataset.kept("epoch", dict))
    steps, stacks = shuffled.steps(config.batch_size)
    history = np.empty((config.epochs, config.num_tasks))
    for epoch in range(config.epochs):
        rows.take(rng.permutation(n), out=shuffled)
        if shuffled.subsets is not None and (
                config.fairness_kind.kind == "soft_fpr_gap"):
            shuffled.subsets.count_steps([step.subsets for step in steps],
                                         config.batch_size)
        for batch in steps:
            train_step(model, batch, config)
        history[epoch] = np.mean(np.concatenate(
            [kernels.xent_steps(*stack) for stack in stacks]), axis=0)
    return TrainedRun(model=model, history=history, config=config,
                      seconds=time.perf_counter() - started)
