"""Composed-graph references for the fused fairness losses and the step,
the subset-based seed gradients, the per-task forward and backward, and
the all-pairs Pareto frontier.

`fairness_loss` here builds each loss from autodiff primitives (gathers,
means, Gaussian kernel matrices, `mean_all`), as fairmtl did before its
losses became single closed-form nodes; `train_step` is the two-ledger step
that ran one full backward pass per ledger and copied the head gradients
aside; `fairness_grad` and `seeds` build each task's seed gradients from
`subset_rows` index arrays, one closed-form loss per subset, as fairmtl did
before it read the subsets from per-row codes; `forward_np` and `backprop`
walk the heads one task at a time, as fairmtl did before it stacked them;
`frontier` compares every pair of points, as fairmtl did for every
dimensionality before its 2-D frontier became one sweep over sorted points;
`solve_intercept` bisects for one synthetic intercept at a time, as fairmtl
did before it bisected for all of them at once.
All are kept only as oracles for the production code.
"""

from dataclasses import dataclass

import numpy as np

import fairmtl.autodiff as ad
from fairmtl.backend import kernels
from fairmtl.exceptions import ContractError
from fairmtl.losses import (ExampleSubset, cross_entropy, fairness_terms,
                            subset_rows, subset_select)
import fairmtl.model as stacked
from fairmtl.data import _HERM_W, _HERM_X
from fairmtl.model import _inputs, forward
from fairmtl.trainer import Batch, RunPlan, _seeds, adagrad_update

# (full subset, exclusive subset) of each side a fairness target covers
SIDES = {
    "equal_opportunity_fpr": (("negatives", "exclusive_negatives"),),
    "equal_opportunity_tpr": (("positives", "exclusive_positives"),),
    "equalized_odds": (("negatives", "exclusive_negatives"),
                       ("positives", "exclusive_positives")),
}


def _zero():
    return ad.constant(np.zeros((1, 1)))


def fairness_loss(kind, prob, sensitive, subset, bandwidth=1.0):
    idx = np.asarray(subset.indices if isinstance(subset, ExampleSubset)
                     else subset, dtype=np.intp)
    sens = np.asarray(sensitive)
    idx = idx[sens[idx] >= 0]
    a = sens[idx].astype(np.float64)

    if kind == "correlation":
        if idx.size < 2:
            return _zero()
        p_vals = prob.value[idx, 0]
        ac = a - a.mean()
        var_a = float(np.mean(ac * ac))
        if var_a == 0.0 or float(np.var(p_vals)) == 0.0:
            return _zero()
        pres = ad.gather_rows(prob, idx)
        centered = ad.add_bias(pres, ad.scale(ad.mean_rows(pres), -1.0))
        ac_node = ad.constant(ac.reshape(-1, 1))
        cov = ad.mean_all(ad.mul(centered, ac_node))
        var_p = ad.mean_all(ad.mul(centered, centered))
        corr = ad.scale(ad.mul(cov, ad.powc(var_p, -0.5)), 1.0 / np.sqrt(var_a))
        return ad.absval(corr)

    g0 = idx[a == 0]
    g1 = idx[a == 1]
    if g0.size == 0 or g1.size == 0:
        return _zero()

    if kind == "soft_fpr_gap":
        m0 = ad.mean_rows(ad.gather_rows(prob, g0))
        m1 = ad.mean_rows(ad.gather_rows(prob, g1))
        return ad.absval(ad.sub(m0, m1))

    p0 = ad.gather_rows(prob, g0)
    p1 = ad.gather_rows(prob, g1)
    k00 = ad.mean_all(ad.gauss_kernel(p0, p0, bandwidth))
    k11 = ad.mean_all(ad.gauss_kernel(p1, p1, bandwidth))
    k01 = ad.mean_all(ad.gauss_kernel(p0, p1, bandwidth))
    return ad.add(ad.add(k00, k11), ad.scale(k01, -2.0))


def decompose_fairness(kind, target, t, labels, prob, sensitive,
                       bandwidth=1.0):
    def side(full_kind, excl_kind):
        full_set = subset_select(labels, t, full_kind)
        excl_set = subset_select(labels, t, excl_kind)
        head = fairness_loss(kind, prob, sensitive, excl_set, bandwidth)
        if excl_set.indices == full_set.indices:
            return head, _zero()
        full = fairness_loss(kind, prob, sensitive, full_set, bandwidth)
        return head, ad.sub(full, head)

    if target == "equal_opportunity_fpr":
        return side("negatives", "exclusive_negatives")
    if target == "equal_opportunity_tpr":
        return side("positives", "exclusive_positives")
    head_n, shared_n = side("negatives", "exclusive_negatives")
    head_p, shared_p = side("positives", "exclusive_positives")
    return ad.add(head_n, head_p), ad.add(shared_n, shared_p)


def _baseline_fairness(config, t, batch, prob):
    kind, target = config.fairness_kind, config.fairness_target
    bandwidth = config.mmd_bandwidth
    terms = []
    if target in ("equal_opportunity_fpr", "equalized_odds"):
        terms.append(fairness_loss(kind, prob, batch.sensitive,
                                   subset_select(batch.labels, t, "negatives"),
                                   bandwidth))
    if target in ("equal_opportunity_tpr", "equalized_odds"):
        terms.append(fairness_loss(kind, prob, batch.sensitive,
                                   subset_select(batch.labels, t, "positives"),
                                   bandwidth))
    return terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])


def train_step(model, batch, config):
    """One step with a branch per method and one full pass per ledger."""
    lr = config.learning_rate
    w = config.task_weights
    lam = config.fairness_weights
    outs = forward(model, batch.dense, batch.cat if batch.cat.size else None)
    acc = [cross_entropy(out.prob, batch.labels[:, t])
           for t, out in enumerate(outs)]

    if config.method in ("vanilla", "baseline"):
        terms, weights = list(acc), list(w)
        if config.method == "baseline":
            for t in range(config.num_tasks):
                if lam[t] > 0:
                    terms.append(_baseline_fairness(config, t, batch,
                                                    outs[t].prob))
                    weights.append(w[t] * lam[t])
        model.zero_grads()
        ad.backward(ad.weighted_sum(terms, weights))
        for p in model.all_params:
            adagrad_update(p, p.grad, lr)
        model.zero_grads()
        return model

    head_terms, head_weights = list(acc), list(w)
    shared_terms, shared_weights = list(acc), list(w)
    for t in range(config.num_tasks):
        if lam[t] > 0:
            f_head, f_shared = decompose_fairness(
                config.fairness_kind, config.fairness_target, t,
                batch.labels, outs[t].prob, batch.sensitive,
                config.mmd_bandwidth)
            head_terms.append(f_head)
            head_weights.append(w[t] * lam[t] * config.head_shared_ratios[t])
            shared_terms.append(f_shared)
            shared_weights.append(w[t] * lam[t])

    model.zero_grads()
    ad.backward(ad.weighted_sum(head_terms, head_weights))
    head_grads = [[p.grad.copy() for p in model.head_params(t)]
                  for t in range(config.num_tasks)]
    model.zero_grads()
    ad.backward(ad.weighted_sum(shared_terms, shared_weights))
    for p in model.shared_params:
        adagrad_update(p, p.grad, lr)
    for t in range(config.num_tasks):
        for p, g in zip(model.head_params(t), head_grads[t]):
            adagrad_update(p, g, lr)
    model.zero_grads()
    return model


def fairness_grad(kind, target, t, labels, p, sensitive, bandwidth=1.0,
                  exclusive=False):
    """Task t's fairness loss F under `target`, and dF/dp as an (n, 1)
    column; with `exclusive` each side keeps only its exclusive rows."""
    total = 0.0
    grad = np.zeros(p.shape)
    for full, excl in SIDES[target]:
        value, rows, dvals = fairness_terms(
            kind, p, sensitive,
            subset_rows(labels, t, excl if exclusive else full), bandwidth)
        total += value
        grad[rows, 0] += dvals
    return total, grad


def seeds(config, batch, probs):
    """(head seeds, shared seeds, accuracy losses, per-task (F_full,
    F_head)) of a batch, from `fairness_grad`; the seeds are at the
    logits, each fairness term taken there by its own `sigmoid_bwd`, and
    F_head is None where the step needs no head part."""
    w, r = config.task_weights, config.head_shared_ratios
    lam = (config.fairness_weights if config.method != "vanilla"
           else (0.0,) * config.num_tasks)
    heads, shareds, losses, values = [], [], [], []

    def at_logit(seed, p, term):
        seed = seed.copy()
        kernels.sigmoid_bwd(p, term, seed)
        return seed

    for t, p in enumerate(probs):
        y = np.ascontiguousarray(batch.labels[:, t],
                                 dtype=np.float64).reshape(-1, 1)
        ce = np.empty(p.shape)
        kernels.xent_seed(p, y, w[t], ce)
        losses.append(kernels.xent_fwd(p, y))
        head = shared = ce
        if lam[t] > 0:
            args = (config.fairness_kind, config.fairness_target, t,
                    batch.labels, p, batch.sensitive, config.mmd_bandwidth)
            f_full, d_full = fairness_grad(*args)
            f_head = None
            if config.method == "mtaf":
                f_head, d_head = fairness_grad(*args, exclusive=True)
                head = at_logit(ce, p, (w[t] * lam[t] * r[t]) * d_head)
                shared = at_logit(ce, p, (w[t] * lam[t]) * (d_full - d_head))
            else:
                head = shared = at_logit(ce, p, (w[t] * lam[t]) * d_full)
            values.append((f_full, f_head))
        heads.append(head)
        shareds.append(shared)
    return heads, shareds, losses, values


@dataclass
class Activations:
    """One numpy forward pass, as `backprop` needs it."""
    cat_idx: object    # (n, n_categorical) codes; None without embeddings
    shared: list       # [(input, pre-activation)] per shared layer
    heads: list        # the same per head layer, (T, n, .) stacks over
                       # tasks (the first input is the shared (n, in))
    probs: np.ndarray  # (T, n, 1); probs[t] is task t's column


def forward_np(model, dense, cat_idx=None):
    """The numpy forward with one matmul and activation per task and head
    layer: `Activations` whose `heads[t]` holds task t's (input,
    pre-activation) per head layer and `probs[t]` its (n, 1) column."""
    dense, cat_idx = _inputs(model, dense, cat_idx)
    pieces = [dense] if model.dense_count else []
    for j, table in enumerate(model.embeddings):
        codes = cat_idx[:, j]
        if codes.size and (codes.min() < 0 or codes.max() >= table.shape[0]):
            raise IndexError("embedding index out of range")
        pieces.append(table.value[codes])
    x = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)

    shared = []
    for w, b in model.shared_layers:
        pre = x @ w.value + b.value
        shared.append((x, pre))
        x = kernels.relu_fwd(pre)

    heads, probs = [], []
    for layers in model.heads:
        cache, h = [], x
        for i, (w, b) in enumerate(layers):
            pre = h @ w.value + b.value
            cache.append((h, pre))
            h = kernels.relu_fwd(pre) if i < len(layers) - 1 else pre
        heads.append(cache)
        probs.append(kernels.sigmoid_fwd(h))
    return Activations(cat_idx=cat_idx if model.embeddings else None,
                       shared=shared, heads=heads, probs=probs)


def _relu_grad(pre, g):
    out = np.empty(pre.shape)
    np.greater(pre, 0.0, out=out)
    out *= g
    return out


def _dense_backward(layers, cache, g, grads, to_input):
    for i in reversed(range(len(layers))):
        x, pre = cache[i]
        if i < len(layers) - 1:
            g = _relu_grad(pre, g)
        if grads is not None:
            np.matmul(x.T, g, out=grads[2 * i])
            np.matmul(np.ones((1, len(g))), g, out=grads[2 * i + 1])
        if i or to_input:
            g = g @ layers[i][0].value.T
    return g if to_input else None


def backprop(model, acts, head_seeds, shared_seeds):
    """`forward_np`'s backward, one task at a time, from per-task (n, 1)
    seed lists at the logits: head_seeds[t] gives head t's gradients,
    shared_seeds[t] flows through head t into the bottom, and one walk
    through head t does both when they are the same array."""
    g_bottom = 0.0
    for t, layers in enumerate(model.heads):
        grads = [p.grad for wb in layers for p in wb]
        same = shared_seeds[t] is head_seeds[t]
        g = _dense_backward(layers, acts.heads[t], head_seeds[t], grads, same)
        if not same:
            g = _dense_backward(layers, acts.heads[t], shared_seeds[t], None,
                                True)
        g_bottom = g_bottom + g

    if model.shared_layers:
        g_top = _relu_grad(acts.shared[-1][1], g_bottom)
        grads = [p.grad for wb in model.shared_layers for p in wb]
        g_bottom = _dense_backward(model.shared_layers, acts.shared, g_top,
                                   grads, bool(model.embeddings))
    dim = model.arch.embedding_dim
    for j, table in enumerate(model.embeddings):
        start = model.dense_count + j * dim
        table.grad[...] = 0.0
        np.add.at(table.grad, acts.cat_idx[:, j], g_bottom[:, start:start + dim])


def per_param_step(model, batch, config):
    """The closed-form step's gradients, then Adagrad once per parameter
    on separate arrays: each Param keeps its own copies of its value and
    accumulator (so the model's flat vectors no longer back them), which
    are copied into the flat values before the stacked forward and
    backward."""
    params = model.all_params
    for p in params:
        p.value, p.adagrad_acc = p.value.copy(), p.adagrad_acc.copy()
    model.flat.value[0] = np.concatenate([p.value.ravel() for p in params])
    ws = stacked.forward_np(model, batch.dense[None],
                            batch.cat[None] if batch.cat.size else None)
    seeds = _seeds(Batch.of(batch, RunPlan([config])), ws.probs,
                   np.empty((2,) + ws.probs.shape), [None])
    stacked.backprop(model, ws, seeds)
    for p in params:
        adagrad_update(p, p.grad, config.learning_rate)
    return model


def frontier(points):
    """All points no other point dominates, sorted by (objectives, run_id)."""
    points = list(points)
    if not points:
        raise ContractError("frontier of an empty set")
    dims = {len(p.objectives) for p in points}
    if len(dims) != 1:
        raise ContractError("mixed objective dimensionality")
    x = np.array([p.objectives for p in points])
    keep = []
    for i in range(len(points)):
        le = (x <= x[i]).all(axis=1)
        lt = (x < x[i]).any(axis=1)
        if not (le & lt).any():
            keep.append(points[i])
    keep.sort(key=lambda p: (p.objectives, p.run_id))
    return keep


def solve_intercept(slope, rate):
    """c such that E[sigmoid(slope * U + c)] = rate for U ~ N(0, 1), by a
    bisection of its own."""
    def expected(c):
        z = slope * np.sqrt(2.0) * _HERM_X + c
        return float(np.sum(_HERM_W / (1.0 + np.exp(-z))) / np.sqrt(np.pi))

    lo, hi = -80.0, 80.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected(mid) < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
