"""Accuracy and fairness loss nodes.

The fairness losses operate on label-defined row subsets (negatives,
positives, and their inter-task exclusive variants) and only on rows whose
sensitive attribute is present.  Each is a single node whose one parent is
the task's probability column: it holds the loss value and dF/dp in closed
form, so the backward pass costs one scatter-add per loss.
`decompose_fairness` splits a task's fairness loss into a head part (rows
no other task's loss can reach) and a shared remainder, defined as a
graph-level difference because these losses are not additive over subsets.
The trainer routes the head part to the task's head and the remainder to
the shared bottom.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .backend import kernels
from .exceptions import ConfigError, ContractError, ShapeError

FAIRNESS_KINDS = ("correlation", "mmd", "soft_fpr_gap")
FAIRNESS_TARGETS = ("equal_opportunity_fpr", "equal_opportunity_tpr",
                    "equalized_odds")

SUBSET_KINDS = ("negatives", "positives", "exclusive_negatives",
                "exclusive_positives")


@dataclass(frozen=True)
class FairnessLossKind:
    kind: str
    mmd_bandwidth: float = 1.0

    def __post_init__(self):
        if self.kind not in FAIRNESS_KINDS:
            raise ConfigError(f"unknown fairness loss kind {self.kind!r}")
        if self.mmd_bandwidth <= 0:
            raise ConfigError("mmd_bandwidth must be > 0")


def as_loss_kind(kind):
    if isinstance(kind, FairnessLossKind):
        return kind
    return FairnessLossKind(kind=kind)


@dataclass(frozen=True)
class ExampleSubset:
    """Unique, in-bounds row indices into a batch."""
    indices: tuple

    def __len__(self):
        return len(self.indices)


def cross_entropy(prob, labels):
    """Mean binary cross-entropy of a probability column against 0/1 labels.

    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs; the
    gradient is zero where the clamp is active.
    """
    y = np.ascontiguousarray(labels, dtype=np.float64).reshape(-1, 1)
    if prob.shape != y.shape:
        raise ShapeError(f"cross_entropy: prob {prob.shape} vs labels {y.shape}")
    if prob.shape[0] == 0:
        raise ContractError("cross_entropy on an empty batch")
    value = kernels.xent_fwd(prob.value, y)
    out = ad.Tensor(np.array([[value]]), (prob,))

    def rule(g):
        kernels.xent_bwd(prob.value, y, float(g[0, 0]), prob.grad)
    out._rule = rule
    return out


def subset_select(labels, t, which):
    """Label-defined row subset for task t (0-based).

    exclusive_negatives(t) is the set of rows negative on t and positive on
    every other task; for T = 1 the intersection over no other tasks is the
    whole batch, so the exclusive set equals all of N_t.  exclusive_positives
    mirrors this on the positive side.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError(f"labels must be (n, T), got {labels.shape}")
    n, num_tasks = labels.shape
    if not 0 <= t < num_tasks:
        raise ConfigError(f"task index {t} out of range for T={num_tasks}")
    if which not in SUBSET_KINDS:
        raise ConfigError(f"unknown subset kind {which!r}")

    if which in ("negatives", "exclusive_negatives"):
        mask = labels[:, t] == 0
    else:
        mask = labels[:, t] == 1
    if which == "exclusive_negatives":
        for k in range(num_tasks):
            if k != t:
                mask = mask & (labels[:, k] == 1)
    elif which == "exclusive_positives":
        for k in range(num_tasks):
            if k != t:
                mask = mask & (labels[:, k] == 0)
    return ExampleSubset(indices=tuple(np.flatnonzero(mask)))


def _zero():
    return ad.constant(np.zeros((1, 1)))


def _fused(prob, rows, value, dvals):
    """Scalar node over `prob` with a closed-form value and dF/dp.

    `dvals[k]` is the derivative with respect to prob[rows[k]]; repeated rows
    accumulate, as a gather would.
    """
    out = ad.Tensor(np.array([[value]]), (prob,))

    def rule(g):
        np.add.at(prob.grad[:, 0], rows, g[0, 0] * dvals)
    out._rule = rule
    return out


def _correlation(prob, idx, a):
    """|corr(p, a)| and its gradient; zero when either side has no variance."""
    if idx.size < 2:
        return _zero()
    p = prob.value[idx, 0]
    ac = a - a.mean()
    var_a = float(np.mean(ac * ac))
    if var_a == 0.0 or float(np.var(p)) == 0.0:
        return _zero()
    n = idx.size
    c = p - p.mean()
    cov = float(np.mean(c * ac))
    var_p = float(np.mean(c * c))
    corr = cov * var_p ** -0.5 / np.sqrt(var_a)
    # d(cov / sqrt(var_p)) / dc, then through the centring c = p - mean(p)
    dc = (ac * var_p ** -0.5 - c * (cov * var_p ** -1.5)) / n
    dvals = (dc - dc.mean()) * (np.sign(corr) / np.sqrt(var_a))
    return _fused(prob, idx, abs(corr), dvals)


def _soft_fpr_gap(prob, g0, g1):
    """|mean(p | a=0) - mean(p | a=1)| and its gradient."""
    diff = prob.value[g0, 0].mean() - prob.value[g1, 0].mean()
    s = np.sign(diff)
    dvals = np.concatenate([np.full(g0.size, s / g0.size),
                            np.full(g1.size, -s / g1.size)])
    return _fused(prob, np.concatenate([g0, g1]), abs(diff), dvals)


def _mmd(prob, g0, g1, bandwidth):
    """Biased squared MMD between the groups' probabilities, Gaussian kernel.

    F = mean K00 + mean K11 - 2 mean K01 with K_ab[i, j] =
    exp(-gamma (p_a[i] - p_b[j])^2).  Each kernel block is built once and
    only enters matrix-vector products K @ [1, p]: their columns give
    d_i = p_i * sum_j K_ij - sum_j K_ij p_j, and dF/dp is a weighted sum of
    these rows, so no n x n gradient buffer exists.
    """
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    p0, p1 = prob.value[g0], prob.value[g1]
    n0, n1 = g0.size, g1.size
    v0 = np.hstack([np.ones_like(p0), p0])
    v1 = np.hstack([np.ones_like(p1), p1])
    s00 = kernels.gauss_fwd(p0, p0, gamma) @ v0
    s11 = kernels.gauss_fwd(p1, p1, gamma) @ v1
    k01 = kernels.gauss_fwd(p0, p1, gamma)
    s01 = k01 @ v1
    s10 = k01.T @ v0

    def d(s, p):
        return p[:, 0] * s[:, 0] - s[:, 1]

    value = (s00[:, 0].sum() / (n0 * n0) + s11[:, 0].sum() / (n1 * n1)
             - 2.0 * s01[:, 0].sum() / (n0 * n1))
    dvals = -4.0 * gamma * np.concatenate([
        d(s00, p0) / (n0 * n0) - d(s01, p0) / (n0 * n1),
        d(s11, p1) / (n1 * n1) - d(s10, p1) / (n0 * n1)])
    return _fused(prob, np.concatenate([g0, g1]), value, dvals)


def fairness_loss(kind, prob, sensitive, subset):
    """Scalar fairness loss node over the subset rows with known sensitive.

    The node's only parent is `prob`; it holds the loss value and dF/dp in
    closed form.  Degenerate effective subsets (a group empty; fewer than two
    rows or zero variance for correlation) give a parentless constant zero
    so mini-batch sweeps stay defined.
    """
    kind = as_loss_kind(kind)
    idx = np.asarray(subset.indices if isinstance(subset, ExampleSubset)
                     else subset, dtype=np.intp)
    sens = np.asarray(sensitive)
    if sens.ndim != 1 or sens.shape[0] != prob.shape[0]:
        raise ShapeError("sensitive must be a length-n vector")
    if prob.shape[1] != 1:
        raise ShapeError("prob must be a single column")
    if idx.size and (idx.min() < 0 or idx.max() >= prob.shape[0]):
        raise IndexError("subset index out of range")
    idx = idx[sens[idx] >= 0]
    a = sens[idx].astype(np.float64)

    if kind.kind == "correlation":
        return _correlation(prob, idx, a)
    g0 = idx[a == 0]
    g1 = idx[a == 1]
    if g0.size == 0 or g1.size == 0:
        return _zero()
    if kind.kind == "soft_fpr_gap":
        return _soft_fpr_gap(prob, g0, g1)
    return _mmd(prob, g0, g1, kind.mmd_bandwidth)


def decompose_fairness(kind, target, t, labels, prob, sensitive):
    """Split task t's fairness loss into (F_head, F_shared).

    F_head is the loss on rows only task t's loss can touch (exclusive
    negatives, and exclusive positives for the tpr/odds targets); F_shared is
    the loss on the full negative (positive) set minus F_head, built as a
    subtraction of loss nodes.  When the exclusive set covers the full set
    (T = 1) the shared part is identically zero.
    """
    if target not in FAIRNESS_TARGETS:
        raise ConfigError(f"unknown fairness target {target!r}")

    def side(full_kind, excl_kind):
        full_set = subset_select(labels, t, full_kind)
        excl_set = subset_select(labels, t, excl_kind)
        head = fairness_loss(kind, prob, sensitive, excl_set)
        if excl_set.indices == full_set.indices:
            return head, _zero()
        full = fairness_loss(kind, prob, sensitive, full_set)
        return head, ad.sub(full, head)

    if target == "equal_opportunity_fpr":
        return side("negatives", "exclusive_negatives")
    if target == "equal_opportunity_tpr":
        return side("positives", "exclusive_positives")

    head_n, shared_n = side("negatives", "exclusive_negatives")
    head_p, shared_p = side("positives", "exclusive_positives")
    return ad.add(head_n, head_p), ad.add(shared_n, shared_p)
