"""Composed-graph references for the fused fairness losses and the step,
and the all-pairs Pareto frontier.

`fairness_loss` here builds each loss from autodiff primitives (gathers,
means, Gaussian kernel matrices, `mean_all`), as fairmtl did before its
losses became single closed-form nodes; `train_step` is the two-ledger step
that ran one full backward pass per ledger and copied the head gradients
aside; `frontier` compares every pair of points, as fairmtl did for every
dimensionality before its 2-D frontier became one sweep over sorted points.
All are kept only as oracles for the production code.
"""

import numpy as np

import fairmtl.autodiff as ad
from fairmtl.exceptions import ContractError
from fairmtl.losses import (ExampleSubset, as_loss_kind, cross_entropy,
                            subset_select)
from fairmtl.model import forward
from fairmtl.trainer import adagrad_update


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
