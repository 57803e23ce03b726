"""Hard evaluation metrics and the relative-to-single-task aggregates.

Error rates and group gaps are computed at a fixed decision threshold; gaps
are absolute differences of per-group rates over rows with a present
sensitive attribute.  A group with no negatives (positives) makes the FPR
(TPR) gap undefined, which is flagged as None rather than silently zero.
ARFG and ARE divide each task's metrics by single-task baselines trained
with the same architecture and no fairness treatment.
A stack of trained runs is scored in one pass (`evaluate_stack`): one
forward per run on the split, then one counting pass over every run and
task (`score_stack`), whose every field equals `evaluate_task`'s, the
one-task reference the tests check it against.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Dataset
from .exceptions import (ConfigError, ContractError, TrainingDiverged,
                         UndefinedMetricError)
from .model import forward_np, workspace
from .trainer import TrainConfig, cut_stacks, train_stack

BASELINE_FLOOR = 1e-9


@dataclass(frozen=True)
class TaskEval:
    err: float
    fpr_gap: float          # None when a group has no negatives
    tpr_gap: float          # None when a group has no positives
    neg_counts: tuple       # negatives with known sensitive, per group
    pos_counts: tuple


@dataclass(frozen=True)
class StlBaselines:
    errs: tuple
    fpr_gaps: tuple
    tpr_gaps: tuple
    seeds: tuple
    config_hash: str

    def __post_init__(self):
        for name in ("errs", "fpr_gaps", "tpr_gaps", "seeds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def num_tasks(self):
        return len(self.errs)


@dataclass(frozen=True)
class RunMetrics:
    err_mean: float
    fpr_gap_mean: float
    arfg: float
    are: float


def evaluate_task(probabilities, labels, sensitive, threshold=0.5):
    """Hard metrics for one task: error rate plus FPR/TPR gaps."""
    p = np.asarray(probabilities, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    s = np.asarray(sensitive).reshape(-1)
    if p.size == 0:
        raise ContractError("evaluate_task on empty input")
    if not p.size == y.size == s.size:
        raise ContractError("probabilities, labels, sensitive lengths differ")
    yhat = p >= threshold
    err = float(np.mean(yhat != (y == 1)))

    def group_rate(outcome_mask):
        # rate of positive predictions within the mask, per sensitive group
        rates, counts = [], []
        for g in (0, 1):
            cell = outcome_mask & (s == g)
            counts.append(int(cell.sum()))
            rates.append(float(yhat[cell].mean()) if cell.any() else None)
        return rates, tuple(counts)

    fpr, neg_counts = group_rate((y == 0) & (s >= 0))
    tpr, pos_counts = group_rate((y == 1) & (s >= 0))
    fpr_gap = None if None in fpr else abs(fpr[0] - fpr[1])
    tpr_gap = None if None in tpr else abs(tpr[0] - tpr[1])
    return TaskEval(err=err, fpr_gap=fpr_gap, tpr_gap=tpr_gap,
                    neg_counts=neg_counts, pos_counts=pos_counts)


def aggregate(per_task, baselines):
    """Plain per-task averages plus the relative aggregates ARFG and ARE."""
    per_task = tuple(per_task)
    if len(per_task) != baselines.num_tasks:
        raise ContractError("per_task and baselines disagree on task count")
    for t, ev in enumerate(per_task):
        if ev.fpr_gap is None:
            raise UndefinedMetricError(
                f"task {t}: FPR gap undefined (a group has no negatives)")
    for t, (e, g) in enumerate(zip(baselines.errs, baselines.fpr_gaps)):
        if e is None or e <= BASELINE_FLOOR:
            raise UndefinedMetricError(
                f"task {t}: baseline error {e} below division floor")
        if g is None or g <= BASELINE_FLOOR:
            raise UndefinedMetricError(
                f"task {t}: baseline FPR gap {g} below division floor")
    T = len(per_task)
    err_mean = sum(ev.err for ev in per_task) / T
    gap_mean = sum(ev.fpr_gap for ev in per_task) / T
    are = sum(ev.err / e for ev, e in zip(per_task, baselines.errs)) / T
    arfg = sum(ev.fpr_gap / g
               for ev, g in zip(per_task, baselines.fpr_gaps)) / T
    return RunMetrics(err_mean=err_mean, fpr_gap_mean=gap_mean, arfg=arfg,
                      are=are)


def score_stack(probs, labels, sensitive, threshold=0.5):
    """`evaluate_task` of every run and task at once: per run, its
    TaskEval per task, from the (W, T, n) probabilities of W runs on rows
    of (n, T) 0/1 labels and sensitive values in {-1, 0, 1}.

    Each (task, row) falls in one cell of (label, sensitive value), so
    one matmul of the 0/1 predictions, and a row of ones, by each task's
    cell indicators counts every (run, task, cell)'s predicted positives
    and every (task, cell)'s rows, exactly, as integers below 2^53.  A
    rate is such a count over its cell's rows, as the mean of booleans
    gives it, so every field equals `evaluate_task`'s bit for bit."""
    runs, num_tasks, n = probs.shape
    if n == 0:
        raise ContractError("evaluate on empty input")
    # cell 3 y + (a + 1), a = -1 when missing, per (task, row)
    codes = 3 * labels.T.astype(np.intp) + sensitive + 1
    hits = np.ones((num_tasks, runs + 1, n))
    np.greater_equal(probs.transpose(1, 0, 2), threshold, out=hits[:, :runs])
    counts = np.matmul(hits, np.eye(6).take(codes, axis=0)).astype(np.int64)
    totals = counts[:, runs].tolist()
    predicted = counts[:, :runs].transpose(1, 0, 2).tolist()

    def gap(counts, total, y):
        # |group 0's rate - group 1's| of positive predictions on side y
        hit, of = counts[3 * y + 1:3 * y + 3], total[3 * y + 1:3 * y + 3]
        return None if 0 in of else abs(hit[0] / of[0] - hit[1] / of[1])
    return [tuple(
        TaskEval(err=(sum(counts[:3]) + sum(total[3:]) - sum(counts[3:]))
                 / n, fpr_gap=gap(counts, total, 0),
                 tpr_gap=gap(counts, total, 1),
                 neg_counts=tuple(total[1:3]), pos_counts=tuple(total[4:]))
        for counts, total in zip(run, totals)) for run in predicted]


def evaluate_stack(models, dataset, threshold=0.5):
    """Per trained model, its TaskEval per task on a dataset split: one
    forward per model into the workspace the split keeps for models of
    this shape, so a sweep builds it once per process, then one counting
    pass for all (`score_stack`)."""
    probs = np.empty((len(models), dataset.num_tasks, len(dataset)))
    store = dataset.kept("workspaces", dict)
    cat = dataset.cat[None] if dataset.cat.size else None
    for model, out in zip(models, probs):
        ws = workspace(store, model, len(dataset))
        forward_np(model, dataset.dense[None], cat, ws)
        out[...] = ws.probs[0, ..., 0]
    return score_stack(probs, dataset.labels, dataset.sensitive, threshold)


def evaluate_model(model, dataset, threshold=0.5):
    """TaskEval per task of a trained model on a dataset split:
    `evaluate_stack` of one."""
    return evaluate_stack([model], dataset, threshold)[0]


def single_task_view(dataset, t):
    """The same rows with only task t's label column."""
    return Dataset(dense=dataset.dense, cat=dataset.cat,
                   labels=dataset.labels[:, [t]],
                   sensitive=dataset.sensitive, split=dataset.split,
                   vocab_sizes=dataset.vocab_sizes)


def stl_config_hash(arch, config, seeds):
    payload = json.dumps({"arch": asdict(arch), "config": asdict(config),
                          "seeds": list(seeds)}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_stl_baselines(train_ds, test_ds, arch, config, seeds):
    """Per-task single-task baselines: same architecture, one head, vanilla.

    Each task trains its own T=1 model per seed on the training split, its
    seeds in stacks (`cut_stacks`, `train_stack`), and is scored on the
    test split; metrics are averaged over seeds.  A gap that is
    undefined on the test split stays None and trips the divide guard later.
    A run that diverges raises TrainingDiverged naming its task and seed.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("run_stl_baselines needs at least one seed")
    stl_arch = replace(arch, num_tasks=1)
    configs = [TrainConfig(method="vanilla", task_weights=(1.0,),
                           learning_rate=config.learning_rate,
                           epochs=config.epochs,
                           batch_size=config.batch_size, seed=seed)
               for seed in seeds]
    errs, fprs, tprs = [], [], []
    for t in range(train_ds.num_tasks):
        view_train = single_task_view(train_ds, t)
        view_test = single_task_view(test_ds, t)
        evs = []
        for stack in cut_stacks(configs, config.batch_size):
            runs = train_stack(view_train, stl_arch, stack)
            for stl, run in zip(stack, runs):
                if isinstance(run, Exception):
                    raise TrainingDiverged(
                        f"the STL baseline of task {t}, seed {stl.seed}, "
                        f"diverged (on its one-task view: {run})") from run
            evs += [per_task[0] for per_task in evaluate_stack(
                [run.model for run in runs], view_test)]
        errs.append(float(np.mean([e.err for e in evs])))
        fprs.append(None if any(e.fpr_gap is None for e in evs)
                    else float(np.mean([e.fpr_gap for e in evs])))
        tprs.append(None if any(e.tpr_gap is None for e in evs)
                    else float(np.mean([e.tpr_gap for e in evs])))
    return StlBaselines(errs=tuple(errs), fpr_gaps=tuple(fprs),
                        tpr_gaps=tuple(tprs), seeds=seeds,
                        config_hash=stl_config_hash(arch, config, seeds))
