"""Loss builders against hand-computed fixtures and brute-force oracles."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import oracles
import pytest
from helpers import check_grads
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmtl.autodiff as ad
from fairmtl import losses
from fairmtl.data import Dataset
from fairmtl.exceptions import ConfigError, ShapeError
from fairmtl.losses import (FAIRNESS_KINDS, FAIRNESS_TARGETS,
                            cross_entropy, decompose_fairness, fairness_loss,
                            fairness_seed_terms, fairness_terms,
                            subset_arrays, subset_codes, subset_rows,
                            subset_select)
from fairmtl.trainer import Batch, RunPlan, TrainConfig, _seeds


def prob_node(values):
    return ad.Param(np.asarray(values, dtype=np.float64).reshape(-1, 1),
                    name="p")


# --- cross entropy ---------------------------------------------------------

def test_xent_symmetric_half():
    loss = cross_entropy(prob_node([0.5, 0.5]), [0, 1])
    assert loss.value[0, 0] == pytest.approx(np.log(2.0), rel=1e-12)


def test_xent_perfect_fit():
    loss = cross_entropy(prob_node([0.0, 1.0]), [0, 1])
    assert loss.value[0, 0] <= 1e-11


def test_xent_hand_value():
    p = 1.0 / (1.0 + np.exp(-1.0))
    loss = cross_entropy(prob_node([p]), [1])
    assert loss.value[0, 0] == pytest.approx(np.log1p(np.exp(-1.0)), rel=1e-12)


def test_xent_length_mismatch():
    with pytest.raises(ShapeError):
        cross_entropy(prob_node([0.5, 0.5]), [1])


def test_xent_gradient():
    rng = np.random.default_rng(0)
    logits = ad.Param(rng.standard_normal((6, 1)), name="z")
    y = rng.integers(0, 2, 6).astype(float)
    check_grads(lambda: cross_entropy(ad.sigmoid(logits), y), [logits])


def test_xent_matches_numpy_formula():
    rng = np.random.default_rng(1)
    p = rng.uniform(0.01, 0.99, 20)
    y = rng.integers(0, 2, 20).astype(float)
    loss = cross_entropy(prob_node(p), y)
    ref = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert loss.value[0, 0] == pytest.approx(ref, rel=1e-12)


# --- subset selection ------------------------------------------------------

def test_subset_two_task_example():
    # rows: task-0 labels (0,0,1,1), task-1 labels (0,1,0,1)
    labels = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    assert subset_select(labels, 0, "negatives").indices == (0, 1)
    assert subset_select(labels, 1, "negatives").indices == (0, 2)
    assert subset_select(labels, 0, "exclusive_negatives").indices == (1,)
    assert subset_select(labels, 1, "exclusive_negatives").indices == (2,)
    assert subset_select(labels, 0, "positives").indices == (2, 3)
    assert subset_select(labels, 0, "exclusive_positives").indices == (2,)


def test_subset_identical_labels_empty_exclusive():
    y = np.array([[0, 0], [1, 1], [0, 0]])
    assert subset_select(y, 0, "exclusive_negatives").indices == ()
    assert subset_select(y, 1, "exclusive_negatives").indices == ()


def test_subset_single_task_convention():
    y = np.array([[0], [1], [0]])
    neg = subset_select(y, 0, "negatives")
    excl = subset_select(y, 0, "exclusive_negatives")
    assert excl.indices == neg.indices == (0, 2)


def test_subset_brute_force_oracle():
    rng = np.random.default_rng(2)
    for trial in range(20):
        num_tasks = rng.integers(1, 4)
        labels = rng.integers(0, 2, (rng.integers(1, 30), num_tasks))
        for t in range(num_tasks):
            got = set(subset_select(labels, t, "exclusive_negatives").indices)
            want = {i for i in range(labels.shape[0])
                    if labels[i, t] == 0
                    and all(labels[i, k] == 1
                            for k in range(num_tasks) if k != t)}
            assert got == want
            # disjoint from every other task's negative set
            for k in range(num_tasks):
                if k != t:
                    n_k = set(subset_select(labels, k, "negatives").indices)
                    assert not (got & n_k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda num_tasks: st.lists(
    st.lists(st.integers(0, 1), min_size=num_tasks, max_size=num_tasks),
    max_size=30).map(lambda rows: np.array(rows, dtype=np.int64)
                     .reshape(-1, num_tasks))))
def test_subset_partition_identities(labels):
    n, num_tasks = labels.shape
    for t in range(num_tasks):
        sets = {which: set(subset_rows(labels, t, which).tolist())
                for which in ("negatives", "positives",
                              "exclusive_negatives", "exclusive_positives")}
        assert sets["exclusive_negatives"] <= sets["negatives"]
        assert sets["exclusive_positives"] <= sets["positives"]
        assert not sets["negatives"] & sets["positives"]
        assert sets["negatives"] | sets["positives"] == set(range(n))
        if num_tasks == 1:
            assert sets["exclusive_negatives"] == sets["negatives"]
            assert sets["exclusive_positives"] == sets["positives"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda num_tasks: st.lists(
    st.tuples(st.lists(st.integers(0, 1), min_size=num_tasks,
                       max_size=num_tasks), st.sampled_from((-1, 0, 1))),
    max_size=30)).filter(bool))
def test_subset_codes_match_subset_rows(rows):
    """Code 6 y + 3 exclusive + (a + 1) names each row's side, exclusivity
    and sensitive group as `subset_rows` defines them."""
    labels = np.array([y for y, _ in rows])
    sensitive = np.array([a for _, a in rows])
    codes = subset_codes(labels, sensitive)
    assert codes.shape == labels.shape
    assert (codes % 3 == (sensitive + 1)[:, None]).all()
    for t in range(labels.shape[1]):
        assert codes[:, t].flags.c_contiguous
        for y, side in enumerate(("negatives", "positives")):
            np.testing.assert_array_equal(
                np.flatnonzero(codes[:, t] // 6 == y),
                subset_rows(labels, t, side))
            np.testing.assert_array_equal(
                np.flatnonzero(codes[:, t] // 3 == 2 * y + 1),
                subset_rows(labels, t, "exclusive_" + side))


def test_offset_runs_refuses_a_stack_its_codes_cannot_hold():
    """A stack's int16 codes hold 12 T W <= 2^15 codes: 1365 runs of 2
    tasks are offset, each run by 24 w, and 1366 are refused before any
    code wraps around."""
    codes = np.stack([subset_arrays(np.array([[1, 0]]), np.array([1]))] * 1366)
    assert codes.dtype == np.int16
    with pytest.raises(ConfigError, match="1366 runs of 2 tasks"):
        losses.offset_runs(codes)
    assert (codes == codes[0]).all()
    losses.offset_runs(codes[:1365])
    assert (codes[:1365, :, 0] == 24 * np.arange(1365)[:, None]
            + codes[1365, :, 0]).all()
    assert codes.max() == 24 * 1364 + 17 < 2 ** 15


def test_subset_validation():
    y = np.array([[0], [1]])
    with pytest.raises(ConfigError):
        subset_select(y, 1, "negatives")
    with pytest.raises(ConfigError):
        subset_select(y, 0, "nonsense")


# --- fairness losses -------------------------------------------------------

ALL_ROWS = lambda n: np.arange(n)


def test_soft_fpr_gap_hand_value():
    p = prob_node([0.2, 0.4, 0.5])
    sens = np.array([0, 0, 1])
    loss = fairness_loss("soft_fpr_gap", p, sens, ALL_ROWS(3))
    assert loss.value[0, 0] == pytest.approx(0.2, abs=1e-12)


def test_mmd_two_point_value():
    p = prob_node([0.0, 1.0])
    sens = np.array([0, 1])
    loss = fairness_loss("mmd", p, sens, ALL_ROWS(2), bandwidth=1.0)
    expected = 2.0 - 2.0 * np.exp(-0.5)
    assert loss.value[0, 0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.786939, abs=5e-7)


def test_identical_group_multisets_zero():
    p = prob_node([0.3, 0.7, 0.3, 0.7])
    sens = np.array([0, 0, 1, 1])
    for kind in ("mmd", "soft_fpr_gap"):
        loss = fairness_loss(kind, p, sens, ALL_ROWS(4))
        assert loss.value[0, 0] == 0.0


def test_correlation_two_point_is_one():
    p = prob_node([0.2, 0.8])
    sens = np.array([0, 1])
    loss = fairness_loss("correlation", p, sens, ALL_ROWS(2))
    assert loss.value[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_correlation_matches_numpy_corrcoef():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.05, 0.95, 40)
    sens = rng.integers(0, 2, 40)
    loss = fairness_loss("correlation", prob_node(p), sens, ALL_ROWS(40))
    ref = abs(np.corrcoef(p, sens.astype(float))[0, 1])
    assert loss.value[0, 0] == pytest.approx(ref, rel=1e-10)


def test_mmd_matches_brute_force():
    rng = np.random.default_rng(4)
    p = rng.uniform(0, 1, 12)
    sens = rng.integers(0, 2, 12)
    bw = 0.7
    loss = fairness_loss("mmd", prob_node(p), sens, ALL_ROWS(12), bw)

    def k(u, v):
        return np.exp(-((u - v) ** 2) / (2 * bw * bw))

    g0, g1 = p[sens == 0], p[sens == 1]
    ref = (np.mean([k(a, b) for a in g0 for b in g0])
           + np.mean([k(a, b) for a in g1 for b in g1])
           - 2 * np.mean([k(a, b) for a in g0 for b in g1]))
    assert loss.value[0, 0] == pytest.approx(ref, rel=1e-12)


def test_missing_sensitive_rows_excluded():
    # row 2 has no sensitive value; with it ignored both groups match
    p = prob_node([0.2, 0.8, 0.99])
    sens = np.array([0, 1, -1])
    loss = fairness_loss("soft_fpr_gap", p, sens, ALL_ROWS(3))
    assert loss.value[0, 0] == pytest.approx(0.6, abs=1e-12)


def test_degenerate_subsets_zero_node():
    p = prob_node([0.2, 0.8, 0.5])
    one_group = np.array([1, 1, 1])
    for kind in ("correlation", "mmd", "soft_fpr_gap"):
        loss = fairness_loss(kind, p, one_group, ALL_ROWS(3))
        assert loss.value[0, 0] == 0.0
        assert not loss.parents
    # single present row
    loss = fairness_loss("correlation", p, np.array([0, -1, -1]), ALL_ROWS(3))
    assert not loss.parents
    # constant probabilities: correlation undefined
    flat = prob_node([0.5, 0.5, 0.5])
    loss = fairness_loss("correlation", flat, np.array([0, 1, 0]), ALL_ROWS(3))
    assert not loss.parents
    # empty subset
    loss = fairness_loss("mmd", p, np.array([0, 1, 0]), np.array([], dtype=int))
    assert not loss.parents


def test_fairness_nonnegative_random():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(2, 25))
        p = prob_node(rng.uniform(0, 1, n))
        sens = rng.integers(-1, 2, n)
        sub = np.flatnonzero(rng.integers(0, 2, n))
        for kind in ("correlation", "mmd", "soft_fpr_gap"):
            loss = fairness_loss(kind, p, sens, sub)
            assert loss.value[0, 0] >= 0.0


def test_fairness_losses_differentiable():
    """FD check through a tiny network for each loss kind."""
    rng = np.random.default_rng(6)
    x = ad.constant(rng.standard_normal((8, 3)))
    w = ad.Param(rng.standard_normal((3, 1)) * 0.5, name="w")
    sens = np.array([0, 1, 0, 1, 1, 0, -1, 1])
    sub = np.arange(8)
    for kind in ("correlation", "mmd", "soft_fpr_gap"):
        check_grads(
            lambda: fairness_loss(kind, ad.sigmoid(ad.matmul(x, w)), sens, sub),
            [w])


def test_subset_out_of_range_rejected():
    p = prob_node([0.1, 0.9, 0.5])
    for rows in ([0, 3], [-1, 1]):
        with pytest.raises(IndexError):
            fairness_loss("mmd", p, np.array([0, 1, 0]), np.array(rows))


def test_subset_restriction_applies():
    p = prob_node([0.1, 0.9, 0.5, 0.7])
    sens = np.array([0, 1, 0, 1])
    loss = fairness_loss("soft_fpr_gap", p, sens, np.array([0, 1]))
    assert loss.value[0, 0] == pytest.approx(0.8, abs=1e-12)


def test_correlation_subnormal_variance_is_degenerate():
    """A variance so small that var_p ** -1.5 overflows counts as none."""
    p = np.array([[0.0], [6.06e-161]])
    assert fairness_terms("correlation", p, np.array([0, 1]),
                          np.array([0, 1]))[0] == 0.0
    loss = fairness_loss("correlation", prob_node(p), np.array([0, 1]),
                         ALL_ROWS(2))
    assert not loss.parents


# --- MMD in feature space --------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((0.0, 0.25, 1.0)) | st.floats(0.0, 1.0))
def test_taylor_order_is_the_smallest_meeting_the_bound(z):
    """r is the smallest order with z^(r+1) / (r+1)! e^z <= 2^-53 e^(-2z),
    checked in logs."""
    r = losses._taylor_order(z)

    def excess(order):   # log(tail bound) - log(one ulp of the least entry)
        if z == 0.0:
            return -math.inf
        return ((order + 1) * math.log(z) - math.lgamma(order + 2) + 3 * z
                + 53 * math.log(2.0))
    assert excess(r) <= 1e-9
    assert r == 0 or excess(r - 1) > -1e-9
    assert {0.0: 0, 0.25: 12, 1.0: 19}.get(z, r) == r


@st.composite
def mmd_cases(draw):
    """Two groups of 1-8 or 240 rows, probabilities spread over a span (0
    for a constant column) and a bandwidth that puts z = 2 gamma delta^2
    exactly at the cutoff 1, just either side of it, or anywhere in
    (0, 4]."""
    n0, n1 = (draw(st.integers(1, 8) | st.just(240)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    span = draw(st.sampled_from((0.0, 1.0)) | st.floats(0.1, 1.0))
    x = draw(st.floats(0.0, 1.0 - span)) + span * rng.random(n0 + n1)
    delta = 0.5 * (x.max() - x.min())
    z = draw(st.sampled_from((1.0, 1.0 - 2 ** -40, 1.0 + 2 ** -40))
             | st.floats(0.01, 4.0))
    bandwidth = delta / math.sqrt(z) if delta else draw(st.floats(0.3, 4.0))
    g0, g1 = np.split(rng.permutation(n0 + n1), [n0])
    return x.reshape(-1, 1), g0, g1, bandwidth


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mmd_cases())
def test_mmd_feature_map_matches_kernel_blocks(case):
    """The truncated feature map gives the exact blocks' F and dF/dp; the
    blocks run only for narrow kernels, z > 1."""
    p, g0, g1, bandwidth = case
    lo, hi = p.min(), p.max()
    z = (0.5 * (hi - lo) / bandwidth) ** 2
    sens = np.zeros(len(p), dtype=np.int8)
    sens[g1] = 1
    with mock.patch.object(losses, "_mmd_blocks",
                           wraps=losses._mmd_blocks) as blocks:
        value, rows, dvals = fairness_terms("mmd", p, sens,
                                            np.concatenate([g0, g1]),
                                            bandwidth)
    assert blocks.called == (z > 1.0)
    ref_value, ref_rows, ref_dvals = losses._mmd_blocks(p, g0, g1, bandwidth)
    np.testing.assert_array_equal(rows, ref_rows)
    assert value >= 0.0
    assert abs(value - ref_value) <= 1e-13 * max(1.0, abs(ref_value))
    scale = max(1.0, float(np.abs(ref_dvals).max()))
    assert np.abs(dvals - ref_dvals).max() <= 1e-13 * scale


@st.composite
def mmd_passes(draw):
    """1-12 subsets laid end to end, of groups of 1-8 or 240 rows each,
    for a pass at bandwidth 0.3, where z = (span / 0.6)^2: each subset's
    values spread over a span of 0 or in [0.1, 1], so that some take the
    exact blocks (z > 1), and one subset spans exactly [0, 0.6], z = 1,
    the cutoff."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(1, 12))
    cutoff = draw(st.integers(0, count - 1))
    sizes, values = [], []
    for i in range(count):
        n0, n1 = (draw(st.integers(1, 8) | st.just(240)) for _ in range(2))
        if i == cutoff:
            x = 0.6 * rng.random(n0 + n1)
            x[rng.choice(n0 + n1, 2, replace=False)] = 0.0, 0.6
        else:
            span = draw(st.sampled_from((0.0, 0.6, 1.0)) | st.floats(0.1, 1.0))
            x = draw(st.floats(0.0, 1.0 - span)) + span * rng.random(n0 + n1)
        sizes.append((n0, n1))
        values.append(x)
    return np.concatenate(values), np.array(sizes)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mmd_passes())
def test_mmd_pass_terms_equal_each_subsets_alone(case):
    """One `_mmd_terms` pass over many subsets gives each subset's F and
    dF/dx bit for bit as a pass over that subset alone, whatever the
    other subsets' orders or exact blocks, and within 1e-13 of
    `_mmd_blocks`: the independence behind a stack's runs equalling
    their solo runs."""
    x, sizes = case
    values, dvals = losses._mmd_terms(x, sizes, 0.3)
    assert values.shape == (len(sizes),) and dvals.shape == x.shape
    start = 0
    for i, (n0, n1) in enumerate(sizes):
        rows = slice(start, start + n0 + n1)
        alone_values, alone = losses._mmd_terms(x[rows], sizes[i:i + 1], 0.3)
        assert values[i:i + 1].tobytes() == alone_values.tobytes(), i
        assert dvals[rows].tobytes() == alone.tobytes(), i
        ref_value, _, ref_dvals = losses._mmd_blocks(
            x.reshape(-1, 1), np.arange(start, start + n0),
            np.arange(start + n0, start + n0 + n1), 0.3)
        assert abs(values[i] - ref_value) <= 1e-13 * max(1.0, abs(ref_value))
        scale = max(1.0, float(np.abs(ref_dvals).max()))
        assert np.abs(dvals[rows] - ref_dvals).max() <= 1e-13 * scale
        start += n0 + n1


@st.composite
def fairness_cases(draw):
    n = draw(st.integers(1, 40))
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    sens = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    subset = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    kind = draw(st.sampled_from(("correlation", "mmd", "soft_fpr_gap")))
    bandwidth = draw(st.sampled_from((0.05, 0.3, 1.0, 4.0)))
    return (np.array(probs), np.array(sens), np.array(subset, dtype=np.intp),
            kind, bandwidth)


def _value_and_grad(loss_fn, kind, probs, sens, subset, bandwidth):
    prob = ad.Tensor(probs.reshape(-1, 1))
    loss = loss_fn(kind, prob, sens, subset, bandwidth)
    if loss.parents:
        ad.backward(loss)
    return loss, prob.grad[:, 0].copy()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fairness_cases())
def test_fused_fairness_matches_composed_oracle(case):
    """Each fused node's value and dF/dp equal the composed graph's."""
    probs, sens, subset, kind, bandwidth = case
    fused, g_fused = _value_and_grad(fairness_loss, kind, probs, sens, subset,
                                     bandwidth)
    ref, g_ref = _value_and_grad(oracles.fairness_loss, kind, probs, sens,
                                 subset, bandwidth)
    assert bool(fused.parents) == bool(ref.parents)
    if not ref.parents:
        assert fused.value[0, 0] == 0.0
        return
    assert len(fused.parents) == 1
    tol = 1e-12 * max(1.0, abs(ref.value[0, 0]))
    assert abs(fused.value[0, 0] - ref.value[0, 0]) <= tol
    scale = max(1.0, float(np.abs(g_ref).max()))
    assert np.abs(g_fused - g_ref).max() <= 1e-12 * scale


@st.composite
def seed_cases(draw):
    """A batch, its probability columns and a fairness config.  Tenths,
    and columns of one value (a network whose relu units all died), make
    exact ties between group means common, where the order of summation
    decides the soft FPR gap's sign.  Probabilities stay above 1e-9 or at
    0, so the correlation's variance is a normal float."""
    num_tasks = draw(st.integers(1, 4))
    n = draw(st.integers(1, 60))
    labels = draw(st.lists(st.lists(st.integers(0, 1), min_size=num_tasks,
                                    max_size=num_tasks),
                           min_size=n, max_size=n))
    sens = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    values = draw(st.sampled_from((
        st.integers(0, 10).map(lambda k: k / 10),
        st.just(draw(st.integers(1, 9)) / 10),
        st.just(0.0) | st.floats(1e-9, 1.0))))
    probs = [np.array(draw(st.lists(values, min_size=n, max_size=n)))
             .reshape(-1, 1) for _ in range(num_tasks)]
    config = TrainConfig(
        method=draw(st.sampled_from(("baseline", "mtaf"))),
        task_weights=(0.6, 0.4, 0.5, 0.3)[:num_tasks],
        fairness_weights=draw(st.lists(st.sampled_from((0.0, 0.7, 2.5)),
                                       min_size=num_tasks,
                                       max_size=num_tasks)),
        head_shared_ratios=(2.0, 0.5, 1.3, 0.8)[:num_tasks],
        fairness_kind=draw(st.sampled_from(FAIRNESS_KINDS)),
        mmd_bandwidth=draw(st.sampled_from((0.3, 1.0))),
        fairness_target=draw(st.sampled_from(FAIRNESS_TARGETS)))
    batch = Dataset(dense=np.zeros((n, 1)), cat=np.empty((n, 0)),
                    labels=np.array(labels), sensitive=np.array(sens))
    return config, batch, probs


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed_cases())
def test_code_seeds_match_subset_oracle(case):
    """The seed stacks built from subset codes equal, bit for bit, those
    built per task from `subset_rows` index arrays, and are one array
    exactly when every task's two reference seeds are; F_full and F_head
    agree to rel 1e-12 (the codes sum each group's rows in another
    order)."""
    config, batch, probs = case
    losses = []
    seeds = _seeds(Batch.of(batch, RunPlan([config])), np.stack(probs)[None],
                   np.empty((2, 1, config.num_tasks, len(batch), 1)), [None],
                   losses)
    (losses,), (heads, shareds) = losses, seeds[[0, -1], 0]
    ref_heads, ref_shareds, ref_losses, ref_values = oracles.seeds(
        config, batch, probs)
    assert losses == ref_losses
    assert (len(seeds) == 1) == all(
        h is s for h, s in zip(ref_heads, ref_shareds))
    for t in range(config.num_tasks):
        for got, ref in ((heads[t], ref_heads[t]),
                         (shareds[t], ref_shareds[t])):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), t
    tasks = [t for t in range(config.num_tasks)
             if config.fairness_weights[t] > 0]
    head = config.method == "mtaf"
    assert all((ref_head is not None) == head for _, ref_head in ref_values)
    codes = subset_arrays(batch.labels, batch.sensitive)
    (f_full,), (f_head,), terms = fairness_seed_terms(
        config, SimpleNamespace(codes=codes[None]),
        np.stack(probs)[None], [tasks],
        lambda full, head: np.empty((0,) + full.shape), head=head)
    assert len(terms) == 0
    for t, (ref_full, ref_head) in zip(tasks, ref_values):
        for got, ref in ((f_full[t], ref_full), (f_head[t], ref_head)):
            if ref is not None:
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("kind", FAIRNESS_KINDS)
@pytest.mark.parametrize("method", ["baseline", "mtaf"])
def test_stack_step_takes_no_per_subset_path(kind, method):
    """One step of a stack of 8 runs takes every subset's terms in one
    keyed pass, with no call of the one-subset `fairness_terms`, and each
    run's losses and terms equal, bit for bit, those of the run alone;
    the probabilities are distinct, so no group means tie."""
    runs, n = 8, 64
    data = Dataset(dense=np.zeros((runs * n, 1)), cat=np.empty((runs * n, 0)),
                   labels=np.random.default_rng(1).integers(0, 2, (runs * n, 2)),
                   sensitive=np.random.default_rng(2).integers(-1, 2, runs * n))
    codes = np.stack([subset_arrays(data.labels[w * n:(w + 1) * n],
                                    data.sensitive[w * n:(w + 1) * n])
                      for w in range(runs)])
    probs = np.random.default_rng(3).permutation(
        np.linspace(0.05, 0.95, runs * 2 * n)).reshape(runs, 2, n, 1)
    configs = [TrainConfig(method=method, task_weights=(0.5, 0.5),
                           fairness_weights=(1.0, (0.0, 2.0)[w % 2]),
                           fairness_kind=kind,
                           fairness_target="equalized_odds", seed=w)
               for w in range(runs)]

    def step(w):
        plan = RunPlan(configs if w is None else configs[w:w + 1])
        stack = codes.copy() if w is None else codes[w:w + 1].copy()
        losses.offset_runs(stack)
        return fairness_seed_terms(
            plan.config, SimpleNamespace(codes=stack),
            probs if w is None else probs[w:w + 1], plan.tasks, plan.combine,
            head=plan.mtaf)

    with mock.patch.object(losses, "fairness_terms",
                           wraps=losses.fairness_terms) as one_subset:
        f_full, f_head, terms = step(None)
    assert one_subset.call_count == 0
    assert terms.shape == (1 + (method == "mtaf"),) + probs.shape
    for w in range(runs):
        (alone_full,), (alone_head,), alone = step(w)
        assert (f_full[w], f_head[w]) == (alone_full, alone_head), w
        assert terms[:, w:w + 1].tobytes() == alone.tobytes(), w


# --- decomposition ---------------------------------------------------------

def test_decompose_identity_soft_fpr():
    labels = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [0, 1], [0, 0]])
    rng = np.random.default_rng(7)
    p = prob_node(rng.uniform(0.1, 0.9, 6))
    sens = np.array([0, 1, 1, 0, 0, 1])
    for kind in ("correlation", "mmd", "soft_fpr_gap"):
        head, shared = decompose_fairness(kind, "equal_opportunity_fpr", 0,
                                          labels, p, sens)
        full = fairness_loss(kind, p, sens, subset_select(labels, 0, "negatives"))
        assert abs(head.value[0, 0] + shared.value[0, 0]
                   - full.value[0, 0]) < 1e-12


def test_decompose_single_task():
    labels = np.array([[0], [1], [0], [0]])
    p = prob_node([0.2, 0.9, 0.4, 0.6])
    sens = np.array([0, 1, 1, 0])
    head, shared = decompose_fairness("soft_fpr_gap", "equal_opportunity_fpr",
                                      0, labels, p, sens)
    full = fairness_loss("soft_fpr_gap", p, sens,
                         subset_select(labels, 0, "negatives"))
    assert head.value[0, 0] == pytest.approx(full.value[0, 0], abs=1e-15)
    assert shared.value[0, 0] == 0.0
    assert not shared.parents


def test_decompose_empty_exclusive():
    labels = np.array([[0, 0], [1, 1], [0, 0]])  # identical tasks
    p = prob_node([0.2, 0.9, 0.7])
    sens = np.array([0, 1, 1])
    head, shared = decompose_fairness("soft_fpr_gap", "equal_opportunity_fpr",
                                      0, labels, p, sens)
    full = fairness_loss("soft_fpr_gap", p, sens,
                         subset_select(labels, 0, "negatives"))
    assert head.value[0, 0] == 0.0
    assert shared.value[0, 0] == pytest.approx(full.value[0, 0], abs=1e-15)


def test_decompose_tpr_and_odds():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 2, (12, 2))
    p = prob_node(rng.uniform(0.1, 0.9, 12))
    sens = rng.integers(0, 2, 12)
    h_tpr, s_tpr = decompose_fairness("soft_fpr_gap", "equal_opportunity_tpr",
                                      0, labels, p, sens)
    full_pos = fairness_loss("soft_fpr_gap", p, sens,
                             subset_select(labels, 0, "positives"))
    assert abs(h_tpr.value[0, 0] + s_tpr.value[0, 0]
               - full_pos.value[0, 0]) < 1e-12

    h_eo, s_eo = decompose_fairness("soft_fpr_gap", "equalized_odds",
                                    0, labels, p, sens)
    full_neg = fairness_loss("soft_fpr_gap", p, sens,
                             subset_select(labels, 0, "negatives"))
    assert abs(h_eo.value[0, 0] + s_eo.value[0, 0]
               - (full_neg.value[0, 0] + full_pos.value[0, 0])) < 1e-12


def test_decompose_gradients_flow():
    """Both decomposition parts must be differentiable wrt upstream params."""
    rng = np.random.default_rng(9)
    labels = np.array([[0, 1], [0, 0], [0, 1], [1, 0], [0, 1], [0, 0]])
    x = ad.constant(rng.standard_normal((6, 2)))
    w = ad.Param(rng.standard_normal((2, 1)), name="w")
    sens = np.array([0, 1, 1, 0, 0, 1])

    def build_head():
        prob = ad.sigmoid(ad.matmul(x, w))
        return decompose_fairness("mmd", "equal_opportunity_fpr", 0,
                                  labels, prob, sens)[0]

    def build_shared():
        prob = ad.sigmoid(ad.matmul(x, w))
        return decompose_fairness("mmd", "equal_opportunity_fpr", 0,
                                  labels, prob, sens)[1]

    check_grads(build_head, [w])
    check_grads(build_shared, [w])


def test_bad_target_rejected():
    with pytest.raises(ConfigError):
        decompose_fairness("mmd", "equalised", 0, np.array([[0]]),
                           prob_node([0.5]), np.array([0]))
    with pytest.raises(ConfigError):
        TrainConfig(method="vanilla", task_weights=(1.0,), mmd_bandwidth=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(method="vanilla", task_weights=(1.0,),
                    fairness_kind="parity")
    with pytest.raises(ConfigError):   # not MMD by default
        fairness_loss("parity", prob_node([0.2, 0.6]), np.array([0, 1]),
                      ALL_ROWS(2))
