"""Hard evaluation metrics and the relative-to-single-task aggregates.

Error rates and group gaps are computed at a fixed decision threshold; gaps
are absolute differences of per-group rates over rows with a present
sensitive attribute.  A group with no negatives (positives) makes the FPR
(TPR) gap undefined, which is flagged as None rather than silently zero.
ARFG and ARE divide each task's metrics by single-task baselines trained
with the same architecture and no fairness treatment.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Dataset
from .exceptions import ConfigError, ContractError, UndefinedMetricError
from .model import forward_np, workspace
from .trainer import TrainConfig, train

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


def evaluate_model(model, dataset, threshold=0.5):
    """TaskEval per task of a trained model on a dataset split.

    The forward writes into the workspace the split keeps for models of
    this shape, so a sweep evaluating every run on one test split builds
    it once per process."""
    ws = workspace(dataset.kept("workspaces", dict), model, len(dataset))
    probs = forward_np(model, dataset.dense,
                       dataset.cat if dataset.cat.size else None, ws).probs
    return tuple(
        evaluate_task(probs[t][:, 0], dataset.labels[:, t],
                      dataset.sensitive, threshold)
        for t in range(dataset.num_tasks))


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

    Each task trains its own T=1 model per seed on the training split and is
    scored on the test split; metrics are averaged over seeds.  A gap that is
    undefined on the test split stays None and trips the divide guard later.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("run_stl_baselines needs at least one seed")
    stl_arch = replace(arch, num_tasks=1)
    errs, fprs, tprs = [], [], []
    for t in range(train_ds.num_tasks):
        view_train = single_task_view(train_ds, t)
        view_test = single_task_view(test_ds, t)
        evs = []
        for seed in seeds:
            cfg = TrainConfig(method="vanilla", task_weights=(1.0,),
                              learning_rate=config.learning_rate,
                              epochs=config.epochs,
                              batch_size=config.batch_size, seed=seed)
            run = train(view_train, stl_arch, cfg)
            evs.append(evaluate_model(run.model, view_test)[0])
        errs.append(float(np.mean([e.err for e in evs])))
        fprs.append(None if any(e.fpr_gap is None for e in evs)
                    else float(np.mean([e.fpr_gap for e in evs])))
        tprs.append(None if any(e.tpr_gap is None for e in evs)
                    else float(np.mean([e.tpr_gap for e in evs])))
    return StlBaselines(errs=tuple(errs), fpr_gaps=tuple(fprs),
                        tpr_gaps=tuple(tprs), seeds=seeds,
                        config_hash=stl_config_hash(arch, config, seeds))
