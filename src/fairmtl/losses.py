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
is exclusive and its sensitive group.  It is the one definition of
exclusivity, and only this module knows its layout: `_code_rows` reads a
side's rows from the codes for every caller.  `subset_arrays` gives every
task's codes, values per row that the trainer's `Batch` holds with the
rest of a batch's rows, and `offset_runs` tells a stack's runs apart.
`fairness_seed_terms` turns them into the derivatives the trainer adds to
its seeds, for all runs of a stack and all tasks at once: the soft FPR
gap's derivative is constant on each code, so it needs only per-code sums
and counts, two bincounts a step whatever the number of runs and tasks.
MMD cuts a step's subsets from its codes: every (run, task, side, set)
subset's rows, group 0 then group 1, from a stable sort of per-code keys
(`_subset_table`).  One pass takes all of them (`_mmd_terms`), with no
per-subset loop: the feature map over every row, one reduceat for every
group's sums and dF/dp from elementwise products summed over the order.
A subset's bits do not depend on the others in its pass, so `_mmd` on
one subset and a stack's runs alone give the same bits.
Correlation reads each run's sides and sensitive values from the codes.
`fairness_loss` and `cross_entropy` wrap the same formulas in autodiff
nodes whose one parent is p, the differentiable reference the tests check.
A task's fairness loss splits into a head part (rows no other task's loss
can reach) and a shared remainder, the full loss minus the head part,
because these losses are not additive over subsets.  The trainer routes
the head part to the task's head and the remainder to the shared bottom.
"""

import functools
import itertools
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

    exclusive, y = divmod(SUBSET_KINDS.index(which), 2)
    return _code_rows(codes[:, t], y, exclusive)


def _code_rows(code, y, exclusive):
    """The ascending rows of side y's full set, or with `exclusive` its
    exclusive set, from one task's codes, offset by any multiple of 12."""
    if exclusive:
        return np.flatnonzero(code % 12 // 3 == 2 * y + 1)
    return np.flatnonzero(code % 12 // 6 == y)


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
    """Smallest r with z^(r+1) / (r+1)! e^z <= 2^-53 e^(-2z), per z <= 1.

    With |x - c|, |y - c| <= delta and z = 2 gamma delta^2, the left side
    bounds the Gaussian kernel's Taylor tail after order r and the right
    side is one ulp of its smallest entry, exp(-gamma (2 delta)^2).  At
    z <= 1 the terms z^(r+1) / (r+1)! fall with r and r <= 19.  This
    bounds the kernel's entries, not dF/dp: at r = 0 (z below about
    2^-53) the features do not vary with u to first order, so dF/dp is 0
    where the exact gradient is of the order of gamma delta.
    """
    z = np.asarray(z, dtype=np.float64)
    terms = np.multiply.accumulate(
        z / np.arange(1.0, 21.0).reshape((-1,) + (1,) * z.ndim), axis=0)
    return (terms > 2.0 ** -53 * np.exp(-3.0 * z)).sum(axis=0)


@functools.lru_cache(maxsize=None)
def _coefficients(order, bandwidth):
    """(sqrt((2 gamma)^k / k!) for k = 0..order, sqrt(2 gamma k) for
    k = 1..order), the feature map's factors at gamma = 1 / (2
    bandwidth^2); cached, so read-only."""
    two_gamma = 1.0 / (bandwidth * bandwidth)
    k = np.arange(1, order + 1)
    pair = (np.cumprod(np.sqrt(np.append(1.0, two_gamma / k))),
            np.sqrt(two_gamma * k))
    for a in pair:
        a.flags.writeable = False
    return pair


def _mmd(p, g0, g1, bandwidth):
    """Biased squared MMD between the groups' probabilities, Gaussian
    kernel: `_mmd_terms` of one subset."""
    rows = np.concatenate([g0, g1])
    (value,), dvals = _mmd_terms(p[rows, 0], np.array([[g0.size, g1.size]]),
                                 bandwidth)
    return float(value), rows, dvals


def _mmd_terms(x, sizes, bandwidth):
    """Each subset's MMD F and dF/dx, of subsets laid end to end in `x`:
    subset i its sizes[i, 0] > 0 group-0 values, then its sizes[i, 1] > 0
    group-1 values, for an (S, 2) integer array `sizes`.

    F = mean K00 + mean K11 - 2 mean K01 with K_ab[i, j] =
    exp(-gamma (x_a[i] - x_b[j])^2).  With c the midpoint and delta half
    the range of a subset's values, and u = x - c, the kernel separates
    (the expansion of the Fast Gauss Transform):
    K(x, y) = e(u) e(v) sum_k phi_k(u) phi_k(v) with e(u) = exp(-gamma u^2)
    and phi_k(u) = u^k sqrt((2 gamma)^k / k!).  Cut at the
    `_taylor_order` r of z = 2 gamma delta^2, each kernel entry is off by
    less than an ulp of the smallest, and F = |mu0 - mu1|^2, where mu_b
    is group b's mean of e(u) phi(u), costs O(n r) instead of O(n^2).
    That bounds the entries, not dF/dx: at a near-zero spread, where r is
    0, dF/dx is 0 where `_mmd_blocks` gives up to about 3e-8 at bandwidth
    1 (README, on the loss).  Narrow kernels, z > 1, take the exact
    blocks of `_mmd_blocks`.

    One pass, with no loop over subsets or BLAS call, serves them all;
    a subset's bits do not depend on the others: its group sums read its
    rows alone, products are elementwise, sums over k run in order and
    its coefficients above its own order are zeros, which change no sum.
    """
    flat = sizes.ravel()
    lengths = sizes.sum(axis=1)
    groups = np.cumsum(flat) - flat
    starts = groups[::2]
    lo = np.minimum.reduceat(x, starts)
    hi = np.maximum.reduceat(x, starts)
    u = x - np.repeat(0.5 * (lo + hi), lengths)
    z = np.square(0.5 * (hi - lo) / bandwidth)
    mapped = z <= _MAX_Z
    orders = np.full(len(sizes), -1)   # -1: the exact blocks
    values, dvals = np.zeros(len(sizes)), np.zeros(x.size)
    if mapped.any():
        orders[mapped] = _taylor_order(z[mapped])
        top = orders.max()
        two_gamma = 1.0 / (bandwidth * bandwidth)
        scales, up = _coefficients(top + 1, bandwidth)
        # psi[k] = e(u) u^k = e(u) phi_k(u) / scales[k], k <= top + 1
        psi, terms = np.empty((2, top + 2, x.size))
        np.exp(u * u * (-0.5 * two_gamma), out=psi[0])
        for k in range(1, top + 2):
            np.multiply(psi[k - 1], u, out=psi[k])
        # diff_k = mu0_k - mu1_k, zero above the subset's order
        diff = np.add.reduceat(psi[:-1], groups, axis=1) / flat
        diff = (diff[:, ::2] - diff[:, 1::2]) * scales[:-1].reshape(-1, 1)
        diff[np.arange(top + 1).reshape(-1, 1) > orders] = 0.0
        # a running sum over k: `np.add.reduce` may sum a lone subset's
        # (r + 1, 1) column pairwise, unlike the same column in a stack
        # (it adds terms' rows, x.size >= 2 wide, in order)
        values =np.add.accumulate(diff * diff)[-1]
        # d(e phi_k)/du = up[k-1] e phi_{k-1} - up[k] e phi_{k+1}, so dF/dx_i
        # = sum_j w_j e phi_j(u_i) (+-2 / n_b), w_j = up[j] diff_{j+1} -
        # up[j-1] diff_{j-1}, taken at each row from its group's w_j scales[j]
        w = np.zeros((top + 2, len(sizes)))
        w[:top] = up[:top].reshape(-1, 1) * diff[1:]
        w[1:] -= up.reshape(-1, 1) * diff
        w = ((w * scales.reshape(-1, 1)).reshape(top + 2, -1, 1)
             * (2.0 / sizes * (1.0, -1.0)))
        np.take(w.reshape(top + 2, -1), np.repeat(np.arange(flat.size), flat),
                axis=1, out=terms, mode="clip")
        terms *= psi
        dvals = np.add.reduce(terms)
    for i in np.flatnonzero(~mapped).tolist():
        start, (n0, n1) = starts[i], sizes[i]
        values[i], _, dvals[start:start + n0 + n1] = _mmd_blocks(
            x.reshape(-1, 1), np.arange(start, start + n0),
            np.arange(start + n0, start + n0 + n1), bandwidth)
    return values, dvals


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
    """A batch's fairness subsets for every task, as a step reads them,
    from its (n, T) labels and sensitive values: the (T, n) codes, task
    t's `subset_codes` column offset by 12 t, so one bincount over every
    task's codes gives each (task, code) bin.  They do not depend on the
    probabilities, and each is a value per row.
    """
    codes = subset_codes(labels, sensitive)
    offsets = 12 * np.arange(codes.shape[1]).reshape(-1, 1)
    # int16, a quarter of intp's bytes in each run's epoch arrays; it
    # holds a stack's codes while 12 T W <= 2^15 (`offset_runs`)
    return (codes.T + offsets).astype(np.int16)


def offset_runs(codes):
    """Offset run w's codes of a (W, T, n) stack of `subset_arrays` by
    12 T w, in place, so that every (run, task, code) has its own bin;
    a stack with more codes than their integer type holds is refused."""
    runs, num_tasks = codes.shape[:2]
    if 12 * num_tasks * runs > np.iinfo(codes.dtype).max + 1:
        raise ConfigError(f"a stack of {runs} runs of {num_tasks} tasks has "
                          f"more subset codes than {codes.dtype} holds")
    codes += 12 * num_tasks * np.arange(runs).reshape(-1, 1, 1)


@functools.lru_cache(maxsize=None)
def _subset_table(runs, num_tasks, tasks, target, head):
    """Per code of a (W, T, n) stack of `subset_arrays` codes, run w's
    offset by 12 T w, the key of the MMD subset group that takes its row,
    -1 for none: one table row for the full sets and, with `head`, one for
    the exclusive sets.  `tasks` holds each run's tasks whose losses
    count, as tuples.  A key orders the subsets as `fairness_seed_terms`
    takes them: per (run, task), side of the `target`, then full set
    before exclusive set, group 0 before group 1.  Cached, so read-only.
    """
    sides, sets = _SIDE_LABELS[target], 1 + head
    groups = 2 * sets * len(sides) * runs * num_tasks
    table = np.full((sets, 12 * runs * num_tasks), -1,   # int16: a radix sort
                    np.int16 if groups <= 2 ** 15 else np.int64)
    # subset i, of (run, task) k: its codes of a known group, keyed
    # 2 i for group 0 and 2 i + 1 for group 1
    for i, (k, y, exclusive) in enumerate(itertools.product(
            range(runs * num_tasks), sides, range(sets))):
        if k % num_tasks in tasks[k // num_tasks]:
            codes = _code_rows(np.arange(12), y, exclusive)
            codes = codes[codes % 3 > 0]
            table[exclusive, 12 * k + codes] = 2 * i + codes % 3 - 1
    table.flags.writeable = False
    return table


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
    `config`'s fairness kind, MMD bandwidth and target.  `batch.codes`
    is the runs' (W, T, n) `subset_arrays`, offset by `offset_runs`;
    `probs` is the (W, T, n, 1) probability stack and `tasks` each run's
    tasks whose losses count, every other task's being 0.
    F_full sums one loss per side of the target (negatives for fpr,
    positives for tpr, both for equalized odds); F_head, mtaf's head part,
    keeps each side's exclusive rows and is computed only with `head`.
    `combine` must act elementwise and return k results as one stack.

    The soft FPR gap's derivative is constant on each code, so one
    weighted and one plain bincount of every run's and task's codes give
    each group's sum and size, the per-code arithmetic runs on Python
    floats and `combine`'s (W, T, 12, 1) results are gathered by code in
    one take.  MMD cuts every subset's rows from the codes in one stable
    sort and takes its terms from one `_mmd_terms` pass; correlation, and
    the soft FPR gap at a near tie, run `fairness_terms` on each run's,
    task's and side's rows, with the sensitive values, from its codes.
    """
    kind, target = config.fairness_kind, config.fairness_target
    if kind == "mmd":
        return _mmd_seed_terms(config, batch, probs, tasks, combine, head)
    runs, num_tasks = probs.shape[:2]
    f_full, f_head = ([[0.0] * num_tasks for _ in range(runs)]
                      for _ in range(2))

    def terms(w, t, y, exclusive):
        code = batch.codes[w, t]
        return fairness_terms(kind, probs[w, t], code % 3 - 1,
                              _code_rows(code, y, exclusive),
                              config.mmd_bandwidth)

    if kind == "soft_fpr_gap":
        # one flat copy, of the width bincount and take index with
        codes = batch.codes.astype(np.intp).ravel()
        bins = 12 * runs * num_tasks
        sums = np.bincount(codes, weights=probs.ravel(),
                           minlength=bins).tolist()
        counts = np.bincount(codes, minlength=bins).tolist()
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


def _mmd_seed_terms(config, batch, probs, tasks, combine, head):
    """`fairness_seed_terms` of MMD: the step's subsets cut from its codes
    by one stable sort of their `_subset_table` keys, then one
    `_mmd_terms` pass over the rows of those whose groups both have rows,
    with one gather of the probabilities and one scatter of dF/dp."""
    runs, num_tasks = probs.shape[:2]
    sides = len(_SIDE_LABELS[config.fairness_target])
    table = _subset_table(runs, num_tasks, tuple(map(tuple, tasks)),
                          config.fairness_target, head)
    # keys (set, run, task, row), so each taken one's flat index is its
    # position in the (W, T, n, 1) stack, plus W T n in an exclusive set
    keys = table.take(batch.codes, axis=1).ravel()
    rows = np.flatnonzero(keys >= 0)
    keys = keys.take(rows)
    # each subset's group-0 rows, then its group-1 rows, each ascending
    rows = rows.take(np.argsort(keys, kind="stable"))
    sizes = np.bincount(keys, minlength=2 * runs * num_tasks * sides
                        * table.shape[0]).reshape(-1, 2)
    chosen = sizes.all(axis=1)
    if not chosen.all():
        rows = rows[np.repeat(chosen, sizes.sum(axis=1))]
    # an exclusive set's rows lie one stack further on, which "wrap" drops
    values = np.zeros(len(sizes))
    values[chosen], dvals = _mmd_terms(probs.take(rows, mode="wrap"),
                                       sizes[chosen], config.mmd_bandwidth)
    # per (run, task, set), summed over the target's sides
    f = values.reshape(runs, num_tasks, sides, -1).sum(axis=2)
    d = np.zeros((1 + head,) + probs.shape)
    d.reshape(-1)[rows] += dvals
    return (f[..., 0].tolist(), f[..., -1].tolist() if head
            else np.zeros((runs, num_tasks)).tolist(),
            combine(d[0], d[1] if head else 0.0))


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
