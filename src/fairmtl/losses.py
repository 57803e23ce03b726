"""Accuracy and fairness losses, in closed form.

The fairness losses operate on label-defined row subsets (negatives,
positives, and their inter-task exclusive variants) and only on rows whose
sensitive attribute is present.  Every loss depends on the parameters only
through the task's probability column p, so each has a closed form that
gives its value and dF/dp: `fairness_terms` for the fairness losses and
`kernels.xent_fwd`/`kernels.xent_bwd` for cross-entropy, which training
takes at the logit from `kernels.xent_seed`.

Training reads a batch's subsets from one integer code per (row, task),
`subset_codes`: 6 y + 3 exclusive + (a + 1), so the row's side, whether it
is exclusive and its sensitive group; it is the one definition of
exclusivity, which `subset_rows` reads too.  `subset_arrays` gives every
task's codes with the side masks built from them, values per row that
the trainer's `Batch` holds with the rest of a batch's rows.
`fairness_seed_terms` turns them into the derivatives the trainer adds to
its seeds, for all runs of a stack and all tasks at once: the soft FPR
gap's derivative is constant on each code, so it needs only per-code sums
and counts, two bincounts whatever the number of runs and tasks; MMD and
correlation take each side's rows from the masks, run by run.
`fairness_loss` and `cross_entropy` wrap the same formulas in autodiff
nodes whose one parent is p, the differentiable reference the tests check.
A task's fairness loss splits into a head part (rows no other task's loss
can reach) and a shared remainder, the full loss minus the head part,
because these losses are not additive over subsets.  The trainer routes
the head part to the task's head and the remainder to the shared bottom.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .backend import kernels
from .exceptions import ConfigError, ContractError, ShapeError

FAIRNESS_KINDS = ("correlation", "mmd", "soft_fpr_gap")
FAIRNESS_TARGETS = ("equal_opportunity_fpr", "equal_opportunity_tpr",
                    "equalized_odds")

# side y's full subset is SUBSET_KINDS[y], its exclusive one [2 + y]
SUBSET_KINDS = ("negatives", "positives", "exclusive_negatives",
                "exclusive_positives")

# the label y of each side a fairness target covers: negatives, positives
_SIDE_LABELS = {"equal_opportunity_fpr": (0,), "equal_opportunity_tpr": (1,),
                "equalized_odds": (0, 1)}


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


def subset_rows(labels, t, which):
    """Label-defined row subset for task t (0-based), as ascending indices.

    exclusive_negatives(t) is the set of rows negative on t and positive on
    every other task; for T = 1 the intersection over no other tasks is the
    whole batch, so the exclusive set equals all of N_t.  exclusive_positives
    mirrors this on the positive side.  An exclusive set is always a subset
    of its full set.  The rows are read from `subset_codes`.
    """
    codes = subset_codes(labels, 0)   # refuses labels not shaped (n, T)
    if not 0 <= t < codes.shape[1]:
        raise ConfigError(f"task {t} out of range for T={codes.shape[1]}")
    if which not in SUBSET_KINDS:
        raise ConfigError(f"unknown subset kind {which!r}")

    y = SUBSET_KINDS.index(which) % 2
    code = codes[:, t]
    if which.startswith("exclusive_"):
        return np.flatnonzero(code // 3 == 2 * y + 1)
    return np.flatnonzero(code // 6 == y)


def subset_select(labels, t, which):
    """`subset_rows` as an ExampleSubset."""
    return ExampleSubset(indices=tuple(subset_rows(labels, t, which)))


def _zero():
    return ad.constant(np.zeros((1, 1)))


# the closed form of a degenerate subset: F = 0 on no rows
_DEGENERATE = (0.0, np.empty(0, dtype=np.intp), np.empty(0))


# Below this variance var_p ** -1.5 would overflow a float (at 2^-682.7);
# a probability column that flat has no usable spread.
_MIN_VAR_P = 2.0 ** -682


def _correlation(p, idx, a):
    """|corr(p, a)| and its gradient; zero when either side has no variance
    (for p, a variance below `_MIN_VAR_P`)."""
    if idx.size < 2:
        return _DEGENERATE
    pv = p[idx, 0]
    ac = a - a.mean()
    var_a = float(np.mean(ac * ac))
    if var_a == 0.0 or float(np.var(pv)) == 0.0:
        return _DEGENERATE
    n = idx.size
    c = pv - pv.mean()
    cov = float(np.mean(c * ac))
    var_p = float(np.mean(c * c))
    if var_p < _MIN_VAR_P:
        return _DEGENERATE
    corr = cov * var_p ** -0.5 / np.sqrt(var_a)
    # d(cov / sqrt(var_p)) / dc, then through the centring c = p - mean(p)
    dc = (ac * var_p ** -0.5 - c * (cov * var_p ** -1.5)) / n
    dvals = (dc - dc.mean()) * (np.sign(corr) / np.sqrt(var_a))
    return abs(corr), idx, dvals


def _soft_fpr_gap(p, g0, g1):
    """|mean(p | a=0) - mean(p | a=1)| and its gradient."""
    n0, n1 = g0.size, g1.size
    diff = p[g0, 0].sum() / n0 - p[g1, 0].sum() / n1
    s = np.sign(diff)
    dvals = np.repeat((s / n0, -s / n1), (n0, n1))
    return abs(diff), np.concatenate([g0, g1]), dvals


# Above z = 1 the Taylor order passes 19 and the series' alternating terms
# start to cancel away digits, so `_mmd` builds the exact kernel blocks.
_MAX_Z = 1.0


def _taylor_order(z):
    """Smallest r with z^(r+1) / (r+1)! e^z <= 2^-53 e^(-2z).

    With |x - c|, |y - c| <= delta and z = 2 gamma delta^2, the left side
    bounds the Gaussian kernel's Taylor tail after order r and the right
    side is one ulp of its smallest entry, exp(-gamma (2 delta)^2).
    """
    limit = 2.0 ** -53 * math.exp(-3.0 * z)
    r, term = 0, z
    while term > limit:
        r += 1
        term *= z / (r + 1)
    return r


def _mmd(p, g0, g1, bandwidth):
    """Biased squared MMD between the groups' probabilities, Gaussian kernel.

    F = mean K00 + mean K11 - 2 mean K01 with K_ab[i, j] =
    exp(-gamma (p_a[i] - p_b[j])^2).  With c the midpoint and delta half
    the range of the rows' probabilities x, and u = x - c, the kernel
    separates (the expansion of the Fast Gauss Transform):
    K(x, y) = e(u) e(v) sum_k phi_k(u) phi_k(v) with e(u) = exp(-gamma u^2)
    and phi_k(u) = u^k sqrt((2 gamma)^k / k!).  Cut at the
    `_taylor_order` of z = 2 gamma delta^2, each entry is off by less than
    an ulp of the smallest, and F = |mu0 - mu1|^2, where mu_b is group b's
    mean of e(u) phi(u), costs O(n r) instead of O(n^2).  Narrow kernels,
    z > 1, take the exact blocks of `_mmd_blocks`.
    """
    rows = np.concatenate([g0, g1])
    x = p[rows, 0]
    lo, hi = x.min(), x.max()
    z = (0.5 * (hi - lo) / bandwidth) ** 2
    if z > _MAX_Z:
        return _mmd_blocks(p, g0, g1, bandwidth)
    two_gamma = 1.0 / (bandwidth * bandwidth)
    r = _taylor_order(z)
    k = np.arange(1, r + 1)
    u = x - 0.5 * (lo + hi)
    # phi[k] = e(u) phi_k(u) by running products:
    # phi_k = phi_{k-1} u sqrt(2 gamma / k)
    phi = np.empty((r + 1, x.size))
    np.exp(u * u * (-0.5 * two_gamma), out=phi[0])
    np.multiply.outer(np.sqrt(two_gamma / k), u, out=phi[1:])
    for j in range(1, r + 1):
        phi[j] *= phi[j - 1]
    n0, n1 = g0.size, g1.size
    diff = phi[:, :n0].sum(axis=1) / n0 - phi[:, n0:].sum(axis=1) / n1
    # d(e phi_k)/du = e (phi_k' - 2 gamma u phi_k), phi_k' = sqrt(2 gamma k)
    # phi_{k-1}; dF/dp_i = +-(2 / n_b) d(e phi)/du . diff
    dvals = ((np.sqrt(two_gamma * k) * diff[1:]) @ phi[:-1]
             - two_gamma * u * (diff @ phi))
    dvals[:n0] *= 2.0 / n0
    dvals[n0:] *= -2.0 / n1
    return float(diff @ diff), rows, dvals


def _mmd_blocks(p, g0, g1, bandwidth):
    """`_mmd` from the kernel blocks themselves, for narrow kernels.

    F = mean K00 + mean K11 - 2 mean K01 with K_ab[i, j] =
    exp(-gamma (p_a[i] - p_b[j])^2).  Each kernel block is built once and
    only enters matrix-vector products K @ [1, p]: their columns give
    d_i = p_i * sum_j K_ij - sum_j K_ij p_j, and dF/dp is a weighted sum of
    these rows, so no n x n gradient buffer exists.
    """
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    p0, p1 = p[g0], p[g1]
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
    return value, np.concatenate([g0, g1]), dvals


def fairness_terms(kind, p, sensitive, rows, bandwidth=1.0):
    """(F, rows used, dF/dp at those rows) of one fairness loss.

    `kind` is one of FAIRNESS_KINDS and `bandwidth` MMD's kernel width.
    `p` is the (n, 1) probability column, `sensitive` the length-n
    attribute and `rows` the subset's in-range indices; only rows whose
    sensitive attribute is known count.  A degenerate effective subset
    (a group empty; fewer than two rows or zero variance for correlation)
    gives F = 0 on no rows, so mini-batch sweeps stay defined.
    """
    if kind not in FAIRNESS_KINDS:
        raise ConfigError(f"unknown fairness loss kind {kind!r}")
    a = sensitive[rows]
    if kind == "correlation":
        known = a >= 0
        return _correlation(p, rows[known], a[known].astype(np.float64))
    g0 = rows[a == 0]
    g1 = rows[a == 1]
    if g0.size == 0 or g1.size == 0:
        return _DEGENERATE
    if kind == "soft_fpr_gap":
        return _soft_fpr_gap(p, g0, g1)
    return _mmd(p, g0, g1, bandwidth)


def fairness_loss(kind, prob, sensitive, subset, bandwidth=1.0):
    """Scalar fairness loss node over the subset rows with known sensitive.

    The node's only parent is `prob`; it holds `fairness_terms`' value and
    dF/dp.  A degenerate effective subset gives a parentless constant zero.
    """
    idx = np.asarray(subset.indices if isinstance(subset, ExampleSubset)
                     else subset, dtype=np.intp)
    sens = np.asarray(sensitive)
    if sens.ndim != 1 or sens.shape[0] != prob.shape[0]:
        raise ShapeError("sensitive must be a length-n vector")
    if prob.shape[1] != 1:
        raise ShapeError("prob must be a single column")
    if idx.size and (idx.min() < 0 or idx.max() >= prob.shape[0]):
        raise IndexError("subset index out of range")
    value, rows, dvals = fairness_terms(kind, prob.value, sens, idx, bandwidth)
    if not rows.size:
        return _zero()
    out = ad.Tensor(np.array([[value]]), (prob,))

    # repeated subset rows accumulate, as a gather would
    def rule(g):
        np.add.at(prob.grad[:, 0], rows, g[0, 0] * dvals)
    out._rule = rule
    return out


@functools.lru_cache(maxsize=None)
def _code_table(num_tasks):
    """table[y, 3 * positives + a + 1]: the code of a row whose label on the
    task is y, with `positives` positive labels and sensitive value a."""
    table = np.array([[6 * y + 3 * (positives == (1 if y else num_tasks - 1))
                       + a + 1
                       for positives in range(num_tasks + 1)
                       for a in (-1, 0, 1)]
                      for y in (0, 1)])
    table.flags.writeable = False   # cached, so shared by every caller
    return table


def subset_codes(labels, sensitive):
    """One code per (row, task): 6 y + 3 exclusive + (a + 1), as (n, T).

    y is the row's 0/1 label on the task and a its sensitive value (-1 when
    missing).  A row is exclusive for task t, so in t's exclusive set of
    its side (`subset_rows`), when y_t = 1 and the row's only positive
    label is t's, or y_t = 0 and every other label is positive.  For T = 1
    every row is exclusive.  Each task's column is contiguous.
    """
    y = np.asarray(labels).T.astype(np.intp, order="C")
    if y.ndim != 2:
        raise ShapeError(f"labels must be (n, T), got {y.T.shape}")
    key = 3 * y.sum(axis=0) + np.asarray(sensitive) + 1
    return _code_table(y.shape[0])[y, key].T


def subset_arrays(labels, sensitive):
    """(codes, sensitive, sides), a batch's fairness subsets for every
    task in the forms a step reads, from its (n, T) labels and sensitive
    values.

    `codes` is (T, n): task t's `subset_codes` column, offset by 12 t, so
    one bincount over every task's codes gives each (task, code) bin.
    `sides[:, 2 y + exclusive]` is the (n, T) mask of each task's side y
    (its rows labelled y) and of that side's exclusive rows, which MMD and
    correlation take their rows from.  None of these depends on the
    probabilities, and each is a value per row.
    """
    codes = subset_codes(labels, sensitive)
    # contiguous, so that gathering rows moves whole rows
    sides = np.ascontiguousarray(np.stack(
        [codes // 6 == 0, codes // 3 == 1, codes // 6 == 1,
         codes // 3 == 3], axis=1))
    offsets = 12 * np.arange(codes.shape[1]).reshape(-1, 1)
    # int32, half the bytes each epoch gathers per run, holds any code
    return ((codes.T + offsets).astype(np.int32), np.asarray(sensitive),
            sides)


# Summed in any order, n nonnegative numbers err by at most (n - 1) 2^-53
# of their sum, so each group mean is off by at most about n 2^-53 of
# itself.  Where two means differ by more than 2^-51 (n0 + n1 + 2) times
# their sum, twice the bound for two summations, neither the per-code sums
# nor `_soft_fpr_gap`'s can give the gap the other sign.
_TIE = 2.0 ** -51


def _gap(s0, n0, s1, n1, exact):
    """(F, dF/dp on a group-0 row, on a group-1 row) of the soft FPR gap
    |s0/n0 - s1/n1| from the groups' sums and sizes; zero when a group is
    empty.  At a near tie, where the order of summation decides the sign,
    it is `exact()`'s `fairness_terms` on the rows instead."""
    if not (n0 and n1):
        return 0.0, 0.0, 0.0
    m0, m1 = s0 / n0, s1 / n1
    diff = m0 - m1
    if abs(diff) <= _TIE * (n0 + n1 + 2) * (m0 + m1):
        value, _, dvals = exact()
        return value, float(dvals[0]), float(dvals[-1])
    s = float(diff > 0) - float(diff < 0)
    return abs(diff), s / n0, -s / n1


def fairness_seed_terms(config, batch, probs, tasks, combine, head=False):
    """Every run's and task's fairness losses and seed terms, for a stack.

    Returns (F_full, F_head, combine(dF_full/dp, dF_head/dp)): per run, two
    lists of T floats, and the terms as one (k, W, T, n, 1) stack, of
    `config`'s fairness kind, MMD bandwidth and target.  `batch` holds the
    runs' `subset_arrays` (`codes`, run w's offset by 12 T w, `sensitive`,
    `sides`) with a leading run axis, and `counts`; `probs` is the
    (W, T, n, 1) probability stack and `tasks` each run's tasks whose
    losses count, every other task's being 0.  F_full sums one loss per
    side of the target (negatives for fpr, positives for tpr, both for
    equalized odds); F_head, mtaf's head part, keeps each side's exclusive
    rows and is computed only with `head`.  `combine` must act elementwise
    and return k results as one stack.

    The soft FPR gap's derivative is constant on each code, so one
    weighted and one plain bincount of every run's and task's codes give
    each group's sum and size (the plain one is `batch.counts` when not
    None), the per-code arithmetic runs on Python floats and `combine`'s
    (W, T, 12, 1) results are gathered by code in one take.  The other
    kinds run `fairness_terms` on each run's, task's and side's rows.
    """
    kind, target = config.fairness_kind, config.fairness_target
    runs, num_tasks = probs.shape[:2]
    f_full, f_head = ([[0.0] * num_tasks for _ in range(runs)]
                      for _ in range(2))

    def terms(w, t, y, exclusive):
        return fairness_terms(kind, probs[w, t], batch.sensitive[w],
                              np.flatnonzero(batch.sides[w, :, 2 * y
                                                         + exclusive, t]),
                              config.mmd_bandwidth)

    if kind == "soft_fpr_gap":
        # one flat copy, of the width bincount and take index with
        codes = batch.codes.astype(np.intp).ravel()
        bins = 12 * runs * num_tasks
        sums = np.bincount(codes, weights=probs.ravel(),
                           minlength=bins).tolist()
        counts = batch.counts or np.bincount(codes, minlength=bins).tolist()
        d_full, d_head = [0.0] * bins, [0.0] * bins
        for w, run_tasks in enumerate(tasks):
            for t in run_tasks:
                for y in _SIDE_LABELS[target]:
                    # group 0, not exclusive; +1 group 1, +3 exclusive
                    b = 12 * (num_tasks * w + t) + 6 * y + 1
                    f, d0, d1 = _gap(
                        sums[b] + sums[b + 3], counts[b] + counts[b + 3],
                        sums[b + 1] + sums[b + 4],
                        counts[b + 1] + counts[b + 4],
                        lambda: terms(w, t, y, False))
                    f_full[w][t] += f
                    d_full[b] = d_full[b + 3] = d0
                    d_full[b + 1] = d_full[b + 4] = d1
                    if head:
                        f, d_head[b + 3], d_head[b + 4] = _gap(
                            sums[b + 3], counts[b + 3], sums[b + 4],
                            counts[b + 4], lambda: terms(w, t, y, True))
                        f_head[w][t] += f
        d = np.array((d_full, d_head)[:1 + head]).reshape(
            -1, runs, num_tasks, 12, 1)
        tables = combine(d[0], d[1] if head else 0.0)
        return f_full, f_head, tables.reshape(-1, bins).take(
            codes, axis=1).reshape((-1,) + probs.shape)
    d_full = np.zeros(probs.shape)
    d_head = np.zeros(probs.shape) if head else 0.0
    for w, run_tasks in enumerate(tasks):
        for t in run_tasks:
            for y in _SIDE_LABELS[target]:
                f, rows, dvals = terms(w, t, y, False)
                f_full[w][t] += f
                d_full[w, t, rows, 0] += dvals
                if head:
                    f, rows, dvals = terms(w, t, y, True)
                    f_head[w][t] += f
                    d_head[w, t, rows, 0] += dvals
    return f_full, f_head, combine(d_full, d_head)


def decompose_fairness(kind, target, t, labels, prob, sensitive,
                       bandwidth=1.0):
    """Split task t's fairness loss into (F_head, F_shared) nodes.

    F_head is the loss on rows only task t's loss can touch (exclusive
    negatives, and exclusive positives for the tpr/odds targets); F_shared is
    the loss on the full negative (positive) set minus F_head, built as a
    subtraction of loss nodes.  When an exclusive set covers its full set
    (always for T = 1) that side's shared part is identically zero.
    """
    if target not in FAIRNESS_TARGETS:
        raise ConfigError(f"unknown fairness target {target!r}")
    heads, shareds = [], []
    for y in _SIDE_LABELS[target]:
        full_rows = subset_rows(labels, t, SUBSET_KINDS[y])
        excl_rows = subset_rows(labels, t, SUBSET_KINDS[2 + y])
        head = fairness_loss(kind, prob, sensitive, excl_rows, bandwidth)
        heads.append(head)
        # the exclusive set lies inside the full set: equal sizes, equal sets
        shareds.append(
            _zero() if excl_rows.size == full_rows.size
            else ad.sub(fairness_loss(kind, prob, sensitive, full_rows,
                                      bandwidth), head))
    if len(heads) == 1:
        return heads[0], shareds[0]
    return ad.add(*heads), ad.add(*shareds)
