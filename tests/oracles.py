"""Composed-graph references for the fused fairness losses and the step,
the subset-based seed gradients, and the all-pairs Pareto frontier.

`fairness_loss` here builds each loss from autodiff primitives (gathers,
means, Gaussian kernel matrices, `mean_all`), as fairmtl did before its
losses became single closed-form nodes; `train_step` is the two-ledger step
that ran one full backward pass per ledger and copied the head gradients
aside; `fairness_grad` and `seeds` build each task's seed gradients from
`subset_rows` index arrays, one closed-form loss per subset, as fairmtl did
before it read the subsets from per-row codes; `frontier` compares every
pair of points, as fairmtl did for every dimensionality before its 2-D
frontier became one sweep over sorted points.  All are kept only as
oracles for the production code.
"""

import numpy as np

import fairmtl.autodiff as ad
from fairmtl.backend import kernels
from fairmtl.exceptions import ContractError
from fairmtl.losses import (ExampleSubset, as_loss_kind, cross_entropy,
                            fairness_terms, subset_rows, subset_select)
from fairmtl.model import backprop, forward, forward_np
from fairmtl.trainer import _seeds, adagrad_update

# (full subset, exclusive subset) of each side a fairness target covers
SIDES = {
    "equal_opportunity_fpr": (("negatives", "exclusive_negatives"),),
    "equal_opportunity_tpr": (("positives", "exclusive_positives"),),
    "equalized_odds": (("negatives", "exclusive_negatives"),
                       ("positives", "exclusive_positives")),
}


def _zero():
    return ad.constant(np.zeros((1, 1)))


def fairness_loss(kind, prob, sensitive, subset):
    kind = as_loss_kind(kind)
    idx = np.asarray(subset.indices if isinstance(subset, ExampleSubset)
                     else subset, dtype=np.intp)
    sens = np.asarray(sensitive)
    idx = idx[sens[idx] >= 0]
    a = sens[idx].astype(np.float64)

    if kind.kind == "correlation":
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

    if kind.kind == "soft_fpr_gap":
        m0 = ad.mean_rows(ad.gather_rows(prob, g0))
        m1 = ad.mean_rows(ad.gather_rows(prob, g1))
        return ad.absval(ad.sub(m0, m1))

    p0 = ad.gather_rows(prob, g0)
    p1 = ad.gather_rows(prob, g1)
    bw = kind.mmd_bandwidth
    k00 = ad.mean_all(ad.gauss_kernel(p0, p0, bw))
    k11 = ad.mean_all(ad.gauss_kernel(p1, p1, bw))
    k01 = ad.mean_all(ad.gauss_kernel(p0, p1, bw))
    return ad.add(ad.add(k00, k11), ad.scale(k01, -2.0))


def decompose_fairness(kind, target, t, labels, prob, sensitive):
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


def _baseline_fairness(config, t, batch, prob):
    kind, target = config.fairness_kind, config.fairness_target
    terms = []
    if target in ("equal_opportunity_fpr", "equalized_odds"):
        terms.append(fairness_loss(kind, prob, batch.sensitive,
                                   subset_select(batch.labels, t, "negatives")))
    if target in ("equal_opportunity_tpr", "equalized_odds"):
        terms.append(fairness_loss(kind, prob, batch.sensitive,
                                   subset_select(batch.labels, t, "positives")))
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
                batch.labels, outs[t].prob, batch.sensitive)
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


def fairness_grad(kind, target, t, labels, p, sensitive, exclusive=False):
    """Task t's fairness loss F under `target`, and dF/dp as an (n, 1)
    column; with `exclusive` each side keeps only its exclusive rows."""
    total = 0.0
    grad = np.zeros(p.shape)
    for full, excl in SIDES[target]:
        value, rows, dvals = fairness_terms(
            kind, p, sensitive,
            subset_rows(labels, t, excl if exclusive else full))
        total += value
        grad[rows, 0] += dvals
    return total, grad


def seeds(config, batch, probs):
    """(head seeds, shared seeds, accuracy losses, per-task (F_full,
    F_head)) of a batch, from `fairness_grad`; F_head is None where the
    step needs no head part."""
    w, r = config.task_weights, config.head_shared_ratios
    lam = (config.fairness_weights if config.method != "vanilla"
           else (0.0,) * config.num_tasks)
    heads, shareds, losses, values = [], [], [], []
    for t, p in enumerate(probs):
        y = np.ascontiguousarray(batch.labels[:, t],
                                 dtype=np.float64).reshape(-1, 1)
        acc = np.zeros(p.shape)
        losses.append(kernels.xent(p, y, w[t], acc))
        head = shared = acc
        if lam[t] > 0:
            args = (config.fairness_kind, config.fairness_target, t,
                    batch.labels, p, batch.sensitive)
            f_full, d_full = fairness_grad(*args)
            f_head = None
            if config.method == "mtaf":
                f_head, d_head = fairness_grad(*args, exclusive=True)
                head = acc + (w[t] * lam[t] * r[t]) * d_head
                shared = acc + (w[t] * lam[t]) * (d_full - d_head)
            else:
                head = shared = acc + (w[t] * lam[t]) * d_full
            values.append((f_full, f_head))
        heads.append(head)
        shareds.append(shared)
    return heads, shareds, losses, values


def per_param_step(model, batch, config):
    """The closed-form step with separate arrays per parameter: each Param
    is first given its own copies of its value, gradient and accumulator
    (so the model's flat vectors no longer back it), and Adagrad runs once
    per parameter."""
    for p in model.all_params:
        p.value, p.grad, p.adagrad_acc = (
            p.value.copy(), p.grad.copy(), p.adagrad_acc.copy())
    acts = forward_np(model, batch.dense,
                      batch.cat if batch.cat.size else None)
    heads, shareds, _ = _seeds(config, batch, acts.probs)
    backprop(model, acts, heads, shareds)
    for p in model.all_params:
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
