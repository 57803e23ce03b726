"""Metric arithmetic against hand-counted fixtures, including the
two-model relative-aggregate example."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairmtl.data import Dataset
from fairmtl.exceptions import ConfigError, ContractError, UndefinedMetricError
from fairmtl.metrics import (StlBaselines, TaskEval, aggregate, evaluate_task,
                             run_stl_baselines, score_stack,
                             single_task_view)
from fairmtl.model import ArchConfig, from_fields
from fairmtl.trainer import TrainConfig


def baselines(errs, fprs, tprs=None):
    return StlBaselines(errs=tuple(errs), fpr_gaps=tuple(fprs),
                        tpr_gaps=tuple(tprs or fprs), seeds=(0,),
                        config_hash="test")


# --- evaluate_task ---------------------------------------------------------

def test_hand_counted_fpr_gap():
    # group 0: negatives with predictions (1, 0, 0); group 1: (1, 0)
    p = np.array([0.9, 0.1, 0.2, 0.8, 0.3])
    y = np.zeros(5)
    s = np.array([0, 0, 0, 1, 1])
    ev = evaluate_task(p, y, s)
    assert ev.fpr_gap == pytest.approx(abs(1 / 3 - 1 / 2), abs=1e-12)
    assert ev.neg_counts == (3, 2)
    assert ev.tpr_gap is None       # nobody is positive
    assert ev.pos_counts == (0, 0)


def test_identical_groups_zero_gaps():
    p = np.array([0.9, 0.2, 0.9, 0.2, 0.8, 0.3, 0.8, 0.3])
    y = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    s = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    ev = evaluate_task(p, y, s)
    assert ev.fpr_gap == 0.0
    assert ev.tpr_gap == 0.0


def test_perfect_classifier():
    p = np.array([0.9, 0.1, 0.8, 0.2])
    y = np.array([1, 0, 1, 0])
    s = np.array([0, 0, 1, 1])
    ev = evaluate_task(p, y, s)
    assert ev.err == 0.0
    assert ev.fpr_gap == 0.0
    assert ev.tpr_gap == 0.0


def test_threshold_is_inclusive():
    ev = evaluate_task([0.5, 0.49], [1, 0], [0, 1])
    assert ev.err == 0.0
    ev2 = evaluate_task([0.7, 0.2], [1, 0], [0, 1], threshold=0.7)
    assert ev2.err == 0.0


def test_missing_sensitive_excluded_from_gaps():
    # the only group-1 negative has unknown sensitive, so gap is undefined
    p = np.array([0.9, 0.1, 0.2])
    y = np.array([0, 0, 0])
    s = np.array([0, 0, -1])
    ev = evaluate_task(p, y, s)
    assert ev.fpr_gap is None
    assert ev.neg_counts == (2, 0)
    # err still counts every row
    assert ev.err == pytest.approx(1 / 3)


def test_group_relabel_invariance():
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 1, 50)
    y = rng.integers(0, 2, 50)
    s = rng.integers(0, 2, 50)
    a = evaluate_task(p, y, s)
    b = evaluate_task(p, y, 1 - s)
    assert a.err == b.err
    assert a.fpr_gap == pytest.approx(b.fpr_gap, abs=1e-15)
    assert a.tpr_gap == pytest.approx(b.tpr_gap, abs=1e-15)


def test_evaluate_task_errors():
    with pytest.raises(ContractError):
        evaluate_task([], [], [])
    with pytest.raises(ContractError):
        evaluate_task([0.5], [1, 0], [0, 1])


@st.composite
def scored_rows(draw):
    """(W, T, n) probabilities, among them exactly 0.5, the thresholds,
    and NaN, with (n, T) 0/1 labels and sensitive values that are often
    missing, on few enough rows that a group often lacks negatives or
    positives."""
    runs, tasks, n = (draw(st.integers(1, 5)), draw(st.integers(1, 3)),
                      draw(st.integers(1, 12)))
    probs = draw(hnp.arrays(np.float64, (runs, tasks, n), elements=(
        st.sampled_from([0.5, 0.7, float("nan"), 0.0, 1.0])
        | st.floats(0.0, 1.0))))
    labels = draw(hnp.arrays(np.int8, (n, tasks), elements=st.integers(0, 1)))
    sensitive = draw(hnp.arrays(np.int8, n, elements=st.integers(-1, 1)))
    return probs, labels, sensitive, draw(st.sampled_from([0.5, 0.7]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scored_rows())
def test_one_pass_scores_equal_evaluate_task(case):
    """`score_stack` gives every (run, task) `evaluate_task`'s TaskEval,
    every field of the same type and bits (repr tells np.float64 from
    float), undefined gaps as None."""
    probs, labels, sensitive, threshold = case
    scored = score_stack(probs, labels, sensitive, threshold)
    assert len(scored) == len(probs)
    for run, per_task in zip(probs, scored):
        assert repr(per_task) == repr(tuple(
            evaluate_task(p, labels[:, t], sensitive, threshold)
            for t, p in enumerate(run)))


def test_one_pass_scores_hand_counted():
    """A hand-counted case: a probability at the threshold predicts
    positive and a NaN one negative, a row with its sensitive value
    missing counts towards the error alone, and group 1's lack of
    positives leaves the TPR gap undefined; an empty split is refused."""
    p = np.array([[[0.5, float("nan"), 0.2, 0.9]]])
    y = np.array([[0], [0], [1], [1]])
    s = np.array([0, 1, 0, -1])
    ev, = score_stack(p, y, s)[0]
    assert ev == evaluate_task(p[0, 0], y[:, 0], s)
    assert (ev.err, ev.fpr_gap, ev.tpr_gap) == (0.5, 1.0, None)
    assert (ev.neg_counts, ev.pos_counts) == ((1, 1), (1, 0))
    with pytest.raises(ContractError):
        score_stack(np.empty((2, 1, 0)), np.empty((0, 1)), np.empty(0))


# --- aggregate -------------------------------------------------------------

def tev(err, fpr, tpr=0.0):
    return TaskEval(err=err, fpr_gap=fpr, tpr_gap=tpr,
                    neg_counts=(1, 1), pos_counts=(1, 1))


def test_two_model_relative_error_example():
    stl = baselines(errs=(0.40, 0.04), fprs=(0.1, 0.1))
    model_a = aggregate([tev(0.40, 0.1), tev(0.02, 0.1)], stl)
    assert abs(model_a.err_mean - 0.21) < 1e-12
    assert abs(model_a.are - 0.75) < 1e-12
    model_b = aggregate([tev(0.38, 0.1), tev(0.04, 0.1)], stl)
    assert abs(model_b.err_mean - 0.21) < 1e-12
    assert abs(model_b.are - 0.975) < 1e-12


def test_arfg_hand_value():
    stl = baselines(errs=(0.1, 0.1), fprs=(0.2, 0.1))
    rm = aggregate([tev(0.1, 0.1), tev(0.1, 0.1)], stl)
    assert abs(rm.arfg - 0.75) < 1e-12


def test_baseline_equality_gives_unit_aggregates():
    stl = baselines(errs=(0.3, 0.2), fprs=(0.05, 0.15))
    rm = aggregate([tev(0.3, 0.05), tev(0.2, 0.15)], stl)
    assert abs(rm.arfg - 1.0) < 1e-12
    assert abs(rm.are - 1.0) < 1e-12


def test_aggregate_permutation_invariant():
    stl = baselines(errs=(0.4, 0.1), fprs=(0.2, 0.05))
    stl_swapped = baselines(errs=(0.1, 0.4), fprs=(0.05, 0.2))
    evs = [tev(0.3, 0.1), tev(0.05, 0.02)]
    a = aggregate(evs, stl)
    b = aggregate(evs[::-1], stl_swapped)
    assert a.arfg == pytest.approx(b.arfg, rel=1e-15)
    assert a.are == pytest.approx(b.are, rel=1e-15)


def test_divide_guard_names_task():
    stl = baselines(errs=(0.4, 0.04), fprs=(0.1, 0.0))
    with pytest.raises(UndefinedMetricError, match="task 1"):
        aggregate([tev(0.1, 0.1), tev(0.1, 0.1)], stl)
    stl2 = baselines(errs=(0.0, 0.04), fprs=(0.1, 0.1))
    with pytest.raises(UndefinedMetricError, match="task 0"):
        aggregate([tev(0.1, 0.1), tev(0.1, 0.1)], stl2)


def test_undefined_run_gap_rejected():
    stl = baselines(errs=(0.4,), fprs=(0.1,))
    bad = TaskEval(err=0.1, fpr_gap=None, tpr_gap=0.0,
                   neg_counts=(0, 1), pos_counts=(1, 1))
    with pytest.raises(UndefinedMetricError, match="undefined"):
        aggregate([bad], stl)


def test_task_count_mismatch():
    stl = baselines(errs=(0.4, 0.1), fprs=(0.1, 0.1))
    with pytest.raises(ContractError):
        aggregate([tev(0.1, 0.1)], stl)


# --- STL baselines ---------------------------------------------------------

def tiny_data(n=60, num_tasks=2, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, num_tasks))
    dense = np.column_stack([u + 0.3 * rng.standard_normal((n, num_tasks)),
                             rng.standard_normal((n, 1))])
    labels = (u > 0).astype(np.int8)
    return Dataset(dense=dense, cat=np.empty((n, 0), dtype=np.intp),
                   labels=labels,
                   sensitive=rng.integers(0, 2, n).astype(np.int8))


def test_stl_baselines_structure_and_determinism():
    train_ds = tiny_data(seed=1)
    test_ds = tiny_data(n=40, seed=2)
    arch = ArchConfig(num_tasks=2, shared_layer_sizes=(6,),
                      head_layer_sizes=(3,))
    cfg = TrainConfig(method="vanilla", task_weights=(1.0, 1.0),
                      learning_rate=0.1, epochs=3, batch_size=32)
    b1 = run_stl_baselines(train_ds, test_ds, arch, cfg, seeds=(0, 1))
    b2 = run_stl_baselines(train_ds, test_ds, arch, cfg, seeds=(0, 1))
    assert b1 == b2
    assert b1.num_tasks == 2
    assert all(0 <= e <= 1 for e in b1.errs)
    assert b1.config_hash == b2.config_hash
    b3 = run_stl_baselines(train_ds, test_ds, arch, cfg, seeds=(0, 1, 2))
    assert b3.config_hash != b1.config_hash
    assert from_fields(StlBaselines,
                       json.loads(json.dumps(asdict(b1)))) == b1


def test_stl_single_task_dataset():
    train_ds = tiny_data(num_tasks=1, seed=3)
    test_ds = tiny_data(n=30, num_tasks=1, seed=4)
    arch = ArchConfig(num_tasks=1, shared_layer_sizes=(4,),
                      head_layer_sizes=(2,))
    cfg = TrainConfig(method="vanilla", task_weights=(1.0,),
                      learning_rate=0.1, epochs=2, batch_size=16)
    b = run_stl_baselines(train_ds, test_ds, arch, cfg, seeds=(0,))
    assert b.num_tasks == 1
    with pytest.raises(ConfigError):
        run_stl_baselines(train_ds, test_ds, arch, cfg, seeds=())


def test_single_task_view_shares_rows():
    ds = tiny_data(n=10)
    view = single_task_view(ds, 1)
    assert view.num_tasks == 1
    np.testing.assert_array_equal(view.labels[:, 0], ds.labels[:, 1])
    np.testing.assert_array_equal(view.dense, ds.dense)
