"""The three training regimes over Adagrad, as one closed-form step that
trains a stack of runs.

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
a head.

W runs of one method and settings, which differ only in seed, task
weights, lambda and r, train as one (`train_stack`), the rows of one
stack (`model.build_stack`): a step runs each layer, and Adagrad, once for
all of them, on (W, T, n, 1) seed stacks, mtaf's two one (2, W, T, n, 1)
stack; `cut_stacks` sizes them, at most 8 runs and 4096 rows a step.
Every op acts on a run's slice as on the run alone, so each run equals its
solo run bit for bit; `train()` and `train_step` are the case W = 1.  A
run that meets a non-finite loss ends there, with its solo message.
The stacks of several methods that hold the same seeds, a seed group,
train in lockstep (`train_stack`): each epoch draws one shuffle per seed
and gathers it once, and each step runs every method on the same slice
of those rows, in one set of step buffers, each method's stack bit for
bit as alone; a method whose runs have all diverged stops stepping.

Nothing that does not depend on the parameters is built per step: the
training set keeps (`Dataset.kept`) the 0/1 int8 labels, the fairness
subsets' codes (`losses.subset_arrays`), the arrays each epoch gathers
into and the `model.Workspace`s, on one set of step buffers per model
shape; a `RunPlan` holds what depends on the configs;
and the steps' `Batch`es are views of the epoch arrays, cut once per
stack.  A step computes its loss values (`kernels.xent_steps`) only for
a `loss_sink`, and otherwise checks that its clipped probabilities hold no
NaN, the one way a loss is not finite.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .backend import kernels
from .exceptions import ConfigError, ShapeError, TrainingDiverged
from .losses import (FAIRNESS_KINDS, FAIRNESS_TARGETS, fairness_seed_terms,
                     offset_runs, subset_arrays)
from .model import (backprop, build_stack, choice, coerce_fields,
                    forward_np, integer, listed, real, workspace)

METHODS = ("vanilla", "baseline", "mtaf")
ADAGRAD_EPS = 1e-8
# the TrainConfig fields in which the runs of one stack may differ
_RUN_FIELDS = ("task_weights", "fairness_weights", "head_shared_ratios",
               "seed")
STACK_RUNS = 8        # runs per stack, at most
STACK_ROWS = 4096     # rows per step over all runs of a stack, at most


@dataclass(frozen=True)
class TrainConfig:
    """One run's training settings, each a plain value of the kind that
    `KINDS` declares (`model.coerce_fields`): `vars` gives the runs-table
    and cache-key form, `model.from_fields` its inverse."""
    method: str
    task_weights: tuple
    fairness_weights: tuple = None       # lambda_t, defaults to zeros
    head_shared_ratios: tuple = None     # r_t, defaults to ones
    fairness_kind: str = "mmd"
    mmd_bandwidth: float = 1.0           # the Gaussian kernel's, for mmd
    fairness_target: str = "equal_opportunity_fpr"
    learning_rate: float = 0.05
    epochs: int = 1
    batch_size: int = 128
    seed: int = 0

    KINDS = {"method": choice(METHODS),
             "task_weights": listed(real(">= 0"), "nonempty"),
             "fairness_weights": listed(real(">= 0")),
             "head_shared_ratios": listed(real("> 0")),
             "fairness_kind": choice(FAIRNESS_KINDS),
             "mmd_bandwidth": real("> 0"),
             "fairness_target": choice(FAIRNESS_TARGETS),
             "learning_rate": real("> 0"), "epochs": integer(">= 1"),
             "batch_size": integer(">= 1"), "seed": integer(">= 0")}

    def __post_init__(self):
        coerce_fields(self)
        n = len(self.task_weights)
        for name, default in (("fairness_weights", 0.0),
                              ("head_shared_ratios", 1.0)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, (default,) * n)
        if not n == len(self.fairness_weights) == len(self.head_shared_ratios):
            raise ConfigError("TrainConfig: task_weights, fairness_weights "
                              "and head_shared_ratios must have equal "
                              "lengths")

    @property
    def num_tasks(self):
        return len(self.task_weights)


@dataclass
class TrainedRun:
    model: object
    config: TrainConfig


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


def _diverged(terms):
    """The TrainingDiverged of the first non-finite (task, loss, value) of
    `terms`, else None."""
    for t, loss, value in terms:
        if not math.isfinite(value):
            return TrainingDiverged(
                f"non-finite value in task {t} {loss}: {value}")
    return None


class RunPlan:
    """What a step reads from its W runs' configs alone: `config`, the
    first, for their shared settings; the (W, T, 1, 1) task weights; per
    run, the tasks with lambda_t > 0 for a fairness method; and `combine`,
    which turns dF_full/dp and dF_head/dp stacks into one (k, W, T, m, 1)
    stack of seed terms at the scales w_t lambda_t (mtaf's heads also r_t)."""

    def __init__(self, configs):
        self.configs, self.config = configs, configs[0]

        def stack(name):
            return np.reshape([getattr(c, name) for c in configs],
                              (len(configs), -1, 1, 1))
        self.weights = stack("task_weights")
        self.tasks = [[t for t, lam_t in enumerate(c.fairness_weights)
                       if lam_t > 0] if c.method != "vanilla" else []
                      for c in configs]
        self.mtaf = self.config.method == "mtaf"
        scale = self.weights * stack("fairness_weights")
        if self.mtaf:
            scales = np.stack((scale * stack("head_shared_ratios"), scale))
            self.combine = lambda full, part: scales * np.array(
                (part, full - part))
        else:
            self.combine = lambda full, _: (scale * full)[None]


# The per-row arrays of a `Batch`, each with its row axis.
_ROWS = (("rows", 1), ("cat", 1), ("labels", 2), ("codes", 2))


class Batch:
    """W runs' rows as a step reads them, the arrays of `_ROWS` with a
    leading run axis: each row's index in `dense`, the dataset's (n, d)
    features, which a step gathers for its rows alone (so an epoch holds
    W rows of indices, in the narrowest unsigned type, not of features);
    the categorical codes (None when there are none); the (W, T, n, 1)
    labels, 0/1 as int8, which `kernels.xent_seed` and `xent_steps` cast
    exactly; and, for a fairness loss, the (W, T, n) int16 subset codes
    (`losses.subset_arrays`, else None), each run's offset by
    `losses.offset_runs`.  `train_stack()` gathers them by each run's
    permutation once per epoch, then steps on slices (`steps`).  `workspaces`, the dict `model.workspace` reads, is kept
    by the dataset."""

    __slots__ = ("plan", "dense", "workspaces") + tuple(
        name for name, _ in _ROWS)

    def __init__(self, plan, dense, rows, workspaces):
        """`rows` holds the per-row arrays in the order of `_ROWS`."""
        for (name, _), a in zip(_ROWS, rows):
            setattr(self, name, a)
        self.plan, self.dense, self.workspaces = plan, dense, workspaces

    @classmethod
    def of(cls, dataset, plan, *others):
        """The dataset's rows as one run's, from what it keeps, for
        `plan`; with the subset codes when it or one of the plans `others`,
        which step on the same rows (`steps`), has a fairness loss."""
        labels = dataset.kept("labels", lambda: np.ascontiguousarray(
            dataset.labels.T, dtype=np.int8)[None, ..., None])
        codes = dataset.kept("codes", lambda: subset_arrays(
            dataset.labels, dataset.sensitive)[None]) if any(
                any(p.tasks) for p in (plan,) + others) else None
        # the narrowest unsigned type that holds every row index
        rows = dataset.kept("rows", lambda: np.arange(
            len(dataset), dtype=np.min_scalar_type(len(dataset)))[None])
        return cls(plan, dataset.dense, (rows, dataset.cat[None]
                   if dataset.cat.size else None, labels, codes),
                   dataset.kept("workspaces", dict))

    def epoch(self, arrays):
        """A Batch of as many rows for each of the plan's runs to `take`
        into, from the dict `arrays`, which keeps, for later stacks, any
        array it lacks or holds for fewer runs."""
        runs = len(self.plan.configs)

        def array(name, like):
            if like is not None and len(arrays.get(name, ())) < runs:
                arrays[name] = np.empty((runs,) + like.shape[1:], like.dtype)
            return None if like is None else arrays[name][:runs]
        return Batch(self.plan, self.dense, [array(name, getattr(self, name))
                                             for name, _ in _ROWS],
                     self.workspaces)

    def __len__(self):
        return self.rows.shape[1]

    def take(self, perms, out):
        """Each run's rows, by its permutation in `perms`, gathered into
        its row of `out`, a Batch of as many rows (`epoch`), returned."""
        for name, axis in _ROWS:
            a = getattr(self, name)
            if a is not None:
                for rows, into in zip(perms, getattr(out, name)):
                    # a permutation, so "clip" changes no row
                    np.take(a[0], rows, axis=axis - 1, out=into, mode="clip")
        if out.codes is not None:
            offset_runs(out.codes)
        return out

    def __getitem__(self, rows):
        parts = []
        for name, axis in _ROWS:
            a = getattr(self, name)
            parts.append(a if a is None else a[(slice(None),) * axis + (rows,)])
        return Batch(self.plan, self.dense, parts, self.workspaces)

    def steps(self, size, plan=None):
        """This epoch (`epoch`) cut into steps of `size` rows, as views,
        each a Batch of `plan` when given, else of its own."""
        whole = self if plan is None else Batch(
            plan, self.dense, [getattr(self, name) for name, _ in _ROWS],
            self.workspaces)
        return [whole[i:i + size] for i in range(0, len(self), size)]


def _seeds(batch, probs, out, errors, losses=None):
    """The seed stack of a `Batch` at its (W, T, n, 1) `probs`.

    The head and shared seeds at the logits are written into `out`, a
    (2, W, T, n, 1) buffer, head seeds first: cross-entropy's by
    `kernels.xent_seed`, which returns the probabilities clipped, then
    the fairness terms through `sigmoid_bwd`.  The stack returned is
    out[:1] when they agree (vanilla, baseline, every lambda_t = 0), else
    all of `out`.  Each run's T losses (`kernels.xent_steps`) are
    appended to `losses` when given.  A run whose `errors` entry is None
    is checked as alone, accuracy losses first, and at the first
    non-finite loss gets its TrainingDiverged there; a run with an error
    gets no fairness terms."""
    plan = batch.plan
    clipped = kernels.xent_seed(probs, batch.labels, plan.weights, out[0])
    # each in [c, 1 - c] unless NaN, so the sum is finite unless one is
    if losses is not None or not math.isfinite(clipped.sum()):
        values = kernels.xent_steps(clipped, batch.labels).tolist()
        for run, run_losses in enumerate(values):
            errors[run] = errors[run] or _diverged(
                (t, "accuracy loss", loss) for t, loss in enumerate(run_losses))
        if losses is not None:
            losses.extend(values)
    tasks = plan.tasks if not any(errors) else [
        [] if error else run_tasks
        for run_tasks, error in zip(plan.tasks, errors)]
    if not any(tasks):
        return out[:1]
    f_full, f_head, terms = fairness_seed_terms(
        plan.config, batch, probs, tasks, plan.combine, head=plan.mtaf)
    # a non-finite loss makes the sum non-finite, so only then check each
    if not math.isfinite(sum(map(sum, f_full + f_head))):
        for run, (full, head) in enumerate(zip(f_full, f_head)):
            errors[run] = errors[run] or _diverged(
                term for t in tasks[run] for term in (
                    ((t, "head fairness loss", head[t]),
                     (t, "shared fairness loss", full[t] - head[t]))
                    if plan.mtaf else ((t, "fairness loss", full[t]),)))
    k = len(terms)
    if plan.mtaf:
        out[1] = out[0]
    if all(tasks):
        kernels.sigmoid_bwd(probs, terms, out[:k])
    else:
        for run in (run for run, run_tasks in enumerate(tasks) if run_tasks):
            kernels.sigmoid_bwd(probs[run], terms[:, run], out[:k, run])
    return out[:k]


def _step(model, batch, errors, losses=None):
    """One optimizer step of each run of `model`, a model or stack,
    on its rows of `batch`, a `Batch` of their `RunPlan`: the gather of
    the rows' features, the forward, the seeds (`_seeds`, which records a
    run's TrainingDiverged in `errors`), then, unless every run has one,
    the backward into the flat gradient and one Adagrad call, all in the
    workspace for the batch's length."""
    ws = workspace(batch.workspaces, model, len(batch), step=True)
    # in-range row indices, so "clip" changes none
    batch.dense.take(batch.rows, axis=0, out=ws.dense, mode="clip")
    forward_np(model, ws.dense, batch.cat, ws)
    seeds = _seeds(batch, ws.probs, ws.seeds, errors, losses)
    if not all(errors):
        backprop(model, ws, seeds)
        adagrad_update(model.flat, model.flat.grad,
                       batch.plan.config.learning_rate)


def train_step(model, batch, config, loss_sink=None):
    """Apply one optimizer step of the configured method to the model,
    `_step` of one run; a non-finite loss raises before the update.

    `batch` is a Dataset, or a `Batch` built with this config's `RunPlan`.
    When given, `loss_sink` receives the per-task accuracy losses of this
    batch; without one, the step only checks that they would be finite.
    """
    if len(batch) == 0:
        raise ConfigError("train_step on an empty batch")
    if model.arch.num_tasks != config.num_tasks:
        raise ConfigError("config task count does not match the model")
    if not isinstance(batch, Batch):
        batch = Batch.of(batch, RunPlan([config]))
    elif batch.plan.config is not config:
        raise ConfigError("batch was built for another config")
    errors, losses = [None], None if loss_sink is None else []
    _step(model, batch, errors, losses)
    if errors[0]:
        raise errors[0]
    if loss_sink is not None:
        loss_sink.append(losses[0])
    return model


def cut_stacks(runs, batch_size, jobs=1):
    """`runs` cut in order into stacks to train as one (`train_stack`):
    of STACK_RUNS, fewer where a step would exceed STACK_ROWS rows or
    where fewer than `jobs` stacks would leave a worker idle, so at most
    ceil(len(runs) / jobs), and at least one.  At one job that is 8 up to
    batch 512, 4 at 1024, 2 at 2048 and 1 from 4096.  A dataset's stacks
    write into one set of step buffers (`model.Workspace`; README,
    "Stacked runs")."""
    width = max(1, min(STACK_RUNS, STACK_ROWS // batch_size,
                       math.ceil(len(runs) / jobs)))
    return [runs[i:i + width] for i in range(0, len(runs), width)]


def train_stack(dataset, arch, configs, times=None):
    """Train W runs as one, the rows of one stack (`model.build_stack`):
    configs that differ only in task weights, fairness weights, ratios and
    seed; or a seed group, such stacks of several methods, each of which
    lists the same seeds in the same order.

    Each epoch gathers each seed's shuffle of the rows into its row of
    the dataset's epoch arrays, once for every method, and each step runs
    every method's stack (`_step`) on the same slice of those, one method
    after another, until all of a method's runs have diverged.  Returns,
    per config in order, its TrainedRun, bit for bit its solo run's, or
    the TrainingDiverged that ended it.  `times`, a dict when given, gets
    each method's seconds in its steps.
    """
    config, own = configs[0], dict.fromkeys(_RUN_FIELDS + ("method",))
    if any(vars(c) | own != vars(config) | own for c in configs[1:]):
        raise ConfigError("a stack's runs must share method and settings, "
                          "and a seed group's all settings but the method")
    stacks = {}
    for c in configs:
        stacks.setdefault(c.method, []).append(c)
    seeds = [c.seed for c in stacks[config.method]]
    if any([c.seed for c in stack] != seeds for stack in stacks.values()):
        raise ConfigError("a seed group's methods must list the same seeds "
                          "in the same order")
    if dataset.num_tasks != config.num_tasks:
        raise ConfigError(
            f"dataset has {dataset.num_tasks} tasks, config {config.num_tasks}")
    if arch.num_tasks != config.num_tasks:
        raise ConfigError("arch task count does not match config")
    n = len(dataset)
    if n == 0:
        raise ConfigError("train on an empty dataset")
    plans = [RunPlan(stack) for stack in stacks.values()]
    models = [build_stack(arch, dataset.dense.shape[1], dataset.vocab_sizes,
                          seeds) for _ in plans]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = Batch.of(dataset, *plans)
    shuffled = rows.epoch(dataset.kept("epoch", dict))
    steps = [shuffled.steps(config.batch_size, plan) for plan in plans]
    errors = [[None] * len(seeds) for _ in plans]
    spent = [0.0] * len(plans)
    live = list(range(len(plans)))
    for _ in range(config.epochs):
        if not live:
            break
        rows.take([rng.permutation(n) for rng in rngs], out=shuffled)
        for batches in zip(*steps):
            for m in live:
                started = time.perf_counter()
                _step(models[m], batches[m], errors[m])
                spent[m] += time.perf_counter() - started
            live = [m for m in live if not all(errors[m])]
    if times is not None:
        times.update(zip(stacks, spent))
    done = {method: iter(zip(errors[m], models[m].models))
            for m, method in enumerate(stacks)}
    runs = []
    for c in configs:
        error, model = next(done[c.method])
        runs.append(error or TrainedRun(model=model, config=c))
    return runs


def train(dataset, arch, config):
    """One run, `train_stack` of one config, whose model is built from
    config.seed; raises the TrainingDiverged that ends it."""
    run, = train_stack(dataset, arch, [config])
    if isinstance(run, Exception):
        raise run
    return run
