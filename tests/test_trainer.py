"""Training-step semantics: Adagrad arithmetic, the two-ledger routing of
mtaf, bit-exact agreement contracts, and end-to-end learnability."""

import gc
import itertools
import json
import pickle
import tracemalloc
import weakref
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import oracles
import pytest
from test_acceptance import _routing_arch, _routing_batch

import fairmtl.autodiff as ad
from fairmtl import losses, metrics, trainer
from fairmtl.backend import kernels
from fairmtl.data import Dataset
from fairmtl.exceptions import ConfigError, ShapeError, TrainingDiverged
from fairmtl.losses import cross_entropy, decompose_fairness
from fairmtl.metrics import evaluate_model
from fairmtl.model import (ArchConfig, backprop, build_model, forward,
                           forward_np, from_fields)
from fairmtl.trainer import (ADAGRAD_EPS, METHODS, Batch, RunPlan,
                             TrainConfig, adagrad_update, train, train_stack,
                             train_step)


def small_arch(num_tasks=2):
    return ArchConfig(num_tasks=num_tasks, shared_layer_sizes=(3,),
                      head_layer_sizes=(2,), embedding_dim=2)


def hand_batch():
    """Every label-defined subset of both tasks spans both sensitive groups,
    so no fairness term degenerates to a constant."""
    rng = np.random.default_rng(42)
    return Dataset(dense=rng.standard_normal((8, 3)),
                   cat=np.empty((8, 0), dtype=np.intp),
                   labels=np.array([[0, 0], [0, 0], [0, 1], [0, 1],
                                    [1, 0], [1, 0], [1, 1], [1, 1]]),
                   sensitive=np.array([0, 1, 0, 1, 0, 1, 0, 1]))


def snapshot(model):
    return {p.name: p.value.copy() for p in model.all_params}


# --- adagrad ---------------------------------------------------------------

def test_adagrad_zero_grad_noop():
    p = ad.Param(np.array([[1.0, -2.0]]), name="p")
    adagrad_update(p, np.zeros((1, 2)), lr=0.5)
    np.testing.assert_array_equal(p.value, [[1.0, -2.0]])
    np.testing.assert_array_equal(p.adagrad_acc, [[0.0, 0.0]])


def test_adagrad_first_step_value():
    p = ad.Param(np.array([[1.0]]), name="p")
    adagrad_update(p, np.array([[2.0]]), lr=0.1)
    expected = 1.0 - 0.1 * 2.0 / (2.0 + ADAGRAD_EPS)
    assert p.value[0, 0] == pytest.approx(expected, rel=1e-15)
    assert p.adagrad_acc[0, 0] == 4.0


def test_adagrad_two_identical_steps():
    p = ad.Param(np.array([[0.0]]), name="p")
    g = np.array([[1.0]])
    adagrad_update(p, g, lr=1.0)
    first = -1.0 / (1.0 + ADAGRAD_EPS)
    assert p.value[0, 0] == pytest.approx(first, rel=1e-15)
    adagrad_update(p, g, lr=1.0)
    second = first - 1.0 / (np.sqrt(2.0) + ADAGRAD_EPS)
    assert p.value[0, 0] == pytest.approx(second, rel=1e-15)


def test_adagrad_accumulator_monotone():
    rng = np.random.default_rng(0)
    p = ad.Param(rng.standard_normal((3, 2)), name="p")
    prev = p.adagrad_acc.copy()
    for _ in range(20):
        adagrad_update(p, rng.standard_normal((3, 2)), lr=0.1)
        assert (p.adagrad_acc >= prev).all()
        prev = p.adagrad_acc.copy()


def test_adagrad_shape_mismatch():
    p = ad.Param(np.zeros((2, 2)), name="p")
    with pytest.raises(ShapeError):
        adagrad_update(p, np.zeros((2, 3)), lr=0.1)


# --- config ----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(method="sgd", task_weights=(1.0,))
    with pytest.raises(ConfigError):
        TrainConfig(method="mtaf", task_weights=(1.0,),
                    fairness_weights=(1.0, 2.0))
    with pytest.raises(ConfigError):
        TrainConfig(method="mtaf", task_weights=(1.0,),
                    head_shared_ratios=(0.0,))
    with pytest.raises(ConfigError):
        TrainConfig(method="vanilla", task_weights=(-0.1,))
    with pytest.raises(ConfigError):
        TrainConfig(method="vanilla", task_weights=(1.0,), learning_rate=0.0)


def test_config_roundtrip():
    cfg = TrainConfig(method="mtaf", task_weights=(0.3, 0.7),
                      fairness_weights=(1.0, 2.0), head_shared_ratios=(2.0, 0.5),
                      fairness_kind="mmd", fairness_target="equalized_odds",
                      learning_rate=0.02, epochs=3, batch_size=16, seed=9)
    again = from_fields(TrainConfig, json.loads(json.dumps(asdict(cfg))))
    assert again == cfg


# --- step semantics --------------------------------------------------------

def make_pair(seed=5):
    a = build_model(small_arch(), dense_count=3, seed=seed)
    b = build_model(small_arch(), dense_count=3, seed=seed)
    return a, b


def test_mtaf_lambda_zero_equals_vanilla_bitwise():
    batch = hand_batch()
    m_van, m_mtaf = make_pair()
    base = dict(task_weights=(0.6, 0.4), learning_rate=0.05)
    train_step(m_van, batch, TrainConfig(method="vanilla", **base))
    train_step(m_mtaf, batch, TrainConfig(
        method="mtaf", fairness_weights=(0.0, 0.0),
        head_shared_ratios=(3.0, 0.2), **base))
    for pv, pm in zip(m_van.all_params, m_mtaf.all_params):
        np.testing.assert_array_equal(pv.value, pm.value)


def test_baseline_lambda_zero_equals_vanilla_bitwise():
    batch = hand_batch()
    m_van, m_base = make_pair()
    base = dict(task_weights=(0.6, 0.4), learning_rate=0.05)
    train_step(m_van, batch, TrainConfig(method="vanilla", **base))
    train_step(m_base, batch, TrainConfig(
        method="baseline", fairness_weights=(0.0, 0.0), **base))
    for pv, pb in zip(m_van.all_params, m_base.all_params):
        np.testing.assert_array_equal(pv.value, pb.value)


def test_mtaf_empty_exclusive_heads_match_vanilla():
    """Identical task labels empty every exclusive set, so head updates
    reduce to vanilla while the shared bottom still sees fairness."""
    rng = np.random.default_rng(1)
    y = np.array([0, 1, 0, 1])
    batch = Dataset(dense=rng.standard_normal((4, 3)),
                    cat=np.empty((4, 0), dtype=np.intp),
                    labels=np.stack([y, y], axis=1),
                    sensitive=np.array([0, 1, 1, 0]))
    # wide enough that no row has every relu unit dead (a dead row pins its
    # probability to exactly 0.5 and zeroes the fairness signal)
    arch = ArchConfig(num_tasks=2, shared_layer_sizes=(6,),
                      head_layer_sizes=(4,))
    m_van = build_model(arch, dense_count=3, seed=5)
    m_mtaf = build_model(arch, dense_count=3, seed=5)
    base = dict(task_weights=(0.5, 0.5), learning_rate=0.05)
    train_step(m_van, batch, TrainConfig(method="vanilla", **base))
    train_step(m_mtaf, batch, TrainConfig(
        method="mtaf", fairness_weights=(2.0, 2.0),
        fairness_kind="soft_fpr_gap", **base))
    for t in range(2):
        for pv, pm in zip(m_van.head_params(t), m_mtaf.head_params(t)):
            np.testing.assert_array_equal(pv.value, pm.value)
    assert any((pv.value != pm.value).any()
               for pv, pm in zip(m_van.shared_params, m_mtaf.shared_params))


def test_mtaf_single_task_head_matches_baseline_bitwise():
    rng = np.random.default_rng(2)
    batch = Dataset(dense=rng.standard_normal((6, 3)),
                    cat=np.empty((6, 0), dtype=np.intp),
                    labels=np.array([[0], [0], [1], [0], [1], [0]]),
                    sensitive=np.array([0, 1, 0, 1, 0, 1]))
    arch = small_arch(num_tasks=1)
    m_base = build_model(arch, dense_count=3, seed=3)
    m_mtaf = build_model(arch, dense_count=3, seed=3)
    shared_cfg = dict(task_weights=(1.0,), fairness_weights=(2.0,),
                      fairness_kind="mmd", learning_rate=0.05)
    train_step(m_base, batch, TrainConfig(method="baseline", **shared_cfg))
    train_step(m_mtaf, batch, TrainConfig(
        method="mtaf", head_shared_ratios=(1.0,), **shared_cfg))
    for pb, pm in zip(m_base.head_params(0), m_mtaf.head_params(0)):
        np.testing.assert_array_equal(pb.value, pm.value)
    # shared parameters intentionally differ: mtaf's shared fairness part is
    # identically zero for a single task
    assert any((pb.value != pm.value).any()
               for pb, pm in zip(m_base.shared_params, m_mtaf.shared_params))


MTAF_CFG = dict(method="mtaf", task_weights=(0.6, 0.4),
                fairness_weights=(1.5, 0.8), head_shared_ratios=(2.0, 0.5),
                fairness_kind="soft_fpr_gap",
                fairness_target="equal_opportunity_fpr", learning_rate=0.05)


def test_mtaf_step_matches_per_group_fd_oracle():
    """Finite differences of the exact objective Algorithm-style routing
    assigns to each parameter group must explain every applied delta."""
    batch = hand_batch()
    cfg = TrainConfig(**MTAF_CFG)
    stepped = build_model(small_arch(), dense_count=3, seed=7)
    probe = build_model(small_arch(), dense_count=3, seed=7)
    before = snapshot(stepped)
    train_step(stepped, batch, cfg)

    def head_objective(t):
        outs = forward(probe, batch.dense)
        acc = cross_entropy(outs[t].prob, batch.labels[:, t])
        f_head, _ = decompose_fairness(
            cfg.fairness_kind, cfg.fairness_target, t, batch.labels,
            outs[t].prob, batch.sensitive)
        w, lam, r = (cfg.task_weights[t], cfg.fairness_weights[t],
                     cfg.head_shared_ratios[t])
        return w * (acc.value[0, 0] + lam * r * f_head.value[0, 0])

    def shared_objective():
        outs = forward(probe, batch.dense)
        total = 0.0
        for t in range(2):
            acc = cross_entropy(outs[t].prob, batch.labels[:, t])
            _, f_shared = decompose_fairness(
                cfg.fairness_kind, cfg.fairness_target, t, batch.labels,
                outs[t].prob, batch.sensitive)
            total += cfg.task_weights[t] * (
                acc.value[0, 0]
                + cfg.fairness_weights[t] * f_shared.value[0, 0])
        return total

    def fd(p, objective):
        g = np.zeros_like(p.value)
        it = np.nditer(p.value, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p.value[idx]
            p.value[idx] = orig + 1e-5
            hi = objective()
            p.value[idx] = orig - 1e-5
            lo = objective()
            p.value[idx] = orig
            g[idx] = (hi - lo) / 2e-5
            it.iternext()
        return g

    checked = 0
    groups = [(p, lambda t=t: head_objective(t))
              for t in range(2) for p in probe.head_params(t)]
    groups += [(p, shared_objective) for p in probe.shared_params]
    by_name = {p.name: p for p in stepped.all_params}
    for probe_param, objective in groups:
        g = fd(probe_param, objective)
        applied = by_name[probe_param.name].value - before[probe_param.name]
        expected = -cfg.learning_rate * g / (np.abs(g) + ADAGRAD_EPS)
        np.testing.assert_allclose(
            applied, expected, rtol=1e-3, atol=2e-6,
            err_msg=f"delta mismatch for {probe_param.name}")
        checked += 1
    assert checked == len(stepped.all_params)


def test_routing_exclusivity_lambda_perturbation():
    batch = hand_batch()
    m_a = build_model(small_arch(), dense_count=3, seed=11)
    m_b = build_model(small_arch(), dense_count=3, seed=11)
    cfg_a = TrainConfig(**MTAF_CFG)
    cfg_b = TrainConfig(**{**MTAF_CFG, "fairness_weights": (1.5, 3.7)})
    train_step(m_a, batch, cfg_a)
    train_step(m_b, batch, cfg_b)
    # task-0 head untouched by the task-1 lambda change
    for pa, pb in zip(m_a.head_params(0), m_b.head_params(0)):
        np.testing.assert_array_equal(pa.value, pb.value)
    assert any((pa.value != pb.value).any()
               for pa, pb in zip(m_a.head_params(1), m_b.head_params(1)))


def test_routing_exclusivity_label_perturbation():
    """Flipping a task-1 label on a row outside N_0 and its exclusive sets
    cannot change the applied task-0 head update."""
    batch = hand_batch()
    labels2 = batch.labels.copy()
    # row 4 has y0=1 so it sits outside N_0; flip its task-1 label
    assert labels2[4, 0] == 1
    labels2[4, 1] = 1 - labels2[4, 1]
    perturbed = Dataset(dense=batch.dense, cat=batch.cat, labels=labels2,
                        sensitive=batch.sensitive)
    m_a = build_model(small_arch(), dense_count=3, seed=13)
    m_b = build_model(small_arch(), dense_count=3, seed=13)
    cfg = TrainConfig(**MTAF_CFG)
    train_step(m_a, batch, cfg)
    train_step(m_b, perturbed, cfg)
    for pa, pb in zip(m_a.head_params(0), m_b.head_params(0)):
        np.testing.assert_array_equal(pa.value, pb.value)


def _ledger_case(name):
    """(arch, vocab sizes, batch) of a two-ledger reference case."""
    if name == "routing":
        return _routing_arch(), (), _routing_batch()
    rng = np.random.default_rng(1)
    if name == "no-hidden":
        batch = _routing_batch()
        batch = Dataset(dense=batch.dense,
                        cat=rng.integers(0, 3, (len(batch), 1)),
                        labels=batch.labels, sensitive=batch.sensitive,
                        vocab_sizes=(3,))
        return (ArchConfig(num_tasks=2, shared_layer_sizes=(),
                           head_layer_sizes=(), embedding_dim=2),
                (3,), batch)
    # every label combination of three tasks once per sensitive group, so
    # each task's exclusive sets span both groups.  The correlation
    # gradient sums to zero over its rows, so a logit bias gradient nearly
    # cancels and Adagrad's division by |g| magnifies the rounding gap
    # between the fused and the composed correlation: across dense draws
    # 0-11 that gap ranges from 2e-13 to 2e-11, whichever step computes
    # the fused side.
    labels = np.array(list(itertools.product((0, 1), repeat=3)) * 2)
    batch = Dataset(dense=rng.standard_normal((16, 3)),
                    cat=np.stack([rng.integers(0, 4, 16),
                                  rng.integers(0, 3, 16)], axis=1),
                    labels=labels, sensitive=np.repeat([0, 1], 8),
                    vocab_sizes=(4, 3))
    return (ArchConfig(num_tasks=3, shared_layer_sizes=(8, 6),
                       head_layer_sizes=(5, 4), embedding_dim=2),
            (4, 3), batch)


LEDGER_CASES = [
    pytest.param(kind, target, arch,
                 id="-".join((kind, target) if arch == "routing"
                             else (kind, target, arch)))
    for arch in ("routing", "emb2-layers2x2-tasks3", "no-hidden")
    for kind, target in itertools.product(
        ("correlation", "mmd", "soft_fpr_gap"),
        ("equal_opportunity_fpr", "equal_opportunity_tpr", "equalized_odds"))]


@pytest.mark.parametrize("kind,target,arch", LEDGER_CASES)
def test_step_matches_two_ledger_reference(kind, target, arch):
    """Every method's parameter updates equal those of the composed-graph
    step that ran one full backward pass per ledger."""
    arch, vocab_sizes, batch = _ledger_case(arch)
    T = arch.num_tasks
    for method in ("vanilla", "baseline", "mtaf"):
        cfg = TrainConfig(method=method, task_weights=(0.6, 0.4, 0.5)[:T],
                          fairness_weights=(1.5, 0.8, 1.1)[:T],
                          head_shared_ratios=(2.0, 0.5, 1.3)[:T],
                          fairness_kind=kind, fairness_target=target,
                          learning_rate=0.05)
        new = build_model(arch, dense_count=3, vocab_sizes=vocab_sizes,
                          seed=9)
        ref = build_model(arch, dense_count=3, vocab_sizes=vocab_sizes,
                          seed=9)
        before = snapshot(new)
        for _ in range(2):
            train_step(new, batch, cfg)
            oracles.train_step(ref, batch, cfg)
        for p_new, p_ref in zip(new.all_params, ref.all_params):
            np.testing.assert_allclose(
                p_new.value - before[p_new.name],
                p_ref.value - before[p_ref.name],
                rtol=0, atol=1e-12, err_msg=f"{method} {p_new.name}")


@pytest.mark.parametrize("kind", ["correlation", "mmd", "soft_fpr_gap"])
def test_epoch_slice_steps_like_its_rows_taken_alone(kind):
    """A step on a slice of an epoch's `Batch` (the labels, codes, masks
    and sensitive values built once for all its rows) equals, bit for bit,
    a step on the same rows taken as a Dataset."""
    arch, vocab_sizes, batch = _ledger_case("emb2-layers2x2-tasks3")
    sensitive = batch.sensitive.copy()
    sensitive[[2, 9]] = -1
    data = Dataset(dense=batch.dense, cat=batch.cat, labels=batch.labels,
                   sensitive=sensitive, vocab_sizes=vocab_sizes)
    data = data.take(np.random.default_rng(2).permutation(len(data)))
    for method in ("vanilla", "baseline", "mtaf"):
        cfg = TrainConfig(method=method, task_weights=(0.6, 0.4, 0.5),
                          fairness_weights=(1.5, 0.0, 1.1),
                          head_shared_ratios=(2.0, 0.5, 1.3),
                          fairness_kind=kind,
                          fairness_target="equalized_odds")
        epoch = Batch.of(data, RunPlan([cfg]))
        sliced, alone = (build_model(arch, dense_count=3,
                                     vocab_sizes=vocab_sizes, seed=9)
                         for _ in range(2))
        for rows in (slice(0, 7), slice(7, 14), slice(14, 21)):
            train_step(sliced, epoch[rows], cfg)
            train_step(alone, data.take(rows), cfg)
        assert sliced.flat.value.tobytes() == alone.flat.value.tobytes()
        assert (sliced.flat.adagrad_acc.tobytes()
                == alone.flat.adagrad_acc.tobytes())
        with pytest.raises(ConfigError, match="another config"):
            train_step(sliced, epoch[0:7], replace(cfg, seed=1))


@pytest.mark.parametrize("arch", ["routing", "emb2-layers2x2-tasks3",
                                  "no-hidden"])
def test_params_are_views_of_the_flat_vectors(arch):
    """Each Param's value, gradient and accumulator is a view into the
    model's flat vectors, laid out in `all_params` order."""
    arch, vocab_sizes, _ = _ledger_case(arch)
    model = build_model(arch, dense_count=3, vocab_sizes=vocab_sizes, seed=9)
    flat = model.flat
    for name in ("value", "grad", "adagrad_acc"):
        whole = getattr(flat, name)
        assert whole.shape == (1, sum(p.value.size for p in model.all_params))
        for p in model.all_params:
            assert np.shares_memory(getattr(p, name), whole), (name, p.name)
    np.testing.assert_array_equal(
        flat.value[0], np.concatenate([p.value.ravel()
                                       for p in model.all_params]))
    fresh = build_model(arch, dense_count=3, vocab_sizes=vocab_sizes, seed=9)
    for p in fresh.all_params:
        p.value[...] = -1.0
    assert (fresh.flat.value == -1.0).all()


@pytest.mark.parametrize("kind,target,arch", LEDGER_CASES[::4])
def test_flat_step_matches_per_param_adagrad(kind, target, arch):
    """One Adagrad call on the flat vectors equals one call per parameter
    on separate arrays, bit for bit, values and accumulators alike."""
    arch, vocab_sizes, batch = _ledger_case(arch)
    T = arch.num_tasks
    for method in ("vanilla", "baseline", "mtaf"):
        cfg = TrainConfig(method=method, task_weights=(0.6, 0.4, 0.5)[:T],
                          fairness_weights=(1.5, 0.8, 1.1)[:T],
                          head_shared_ratios=(2.0, 0.5, 1.3)[:T],
                          fairness_kind=kind, fairness_target=target,
                          learning_rate=0.05)
        new, ref = (build_model(arch, dense_count=3, vocab_sizes=vocab_sizes,
                                seed=9) for _ in range(2))
        for _ in range(3):
            train_step(new, batch, cfg)
            oracles.per_param_step(ref, batch, cfg)
        for p_new, p_ref in zip(new.all_params, ref.all_params):
            assert not np.shares_memory(p_ref.value, ref.flat.value)
            for name in ("value", "adagrad_acc"):
                assert (getattr(p_new, name).tobytes()
                        == getattr(p_ref, name).tobytes()), (method, p_new.name)


def test_training_and_evaluation_build_no_graph(monkeypatch):
    """train() and evaluate_model construct no autodiff node; only
    build_model's parameters are tensors."""
    built = []
    init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)
    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    data = separable_dataset(n=60, seed=4)
    cfg = TrainConfig(method="mtaf", task_weights=(0.5, 0.5),
                      fairness_weights=(1.0, 1.0), fairness_kind="mmd",
                      learning_rate=0.05, epochs=2, batch_size=16, seed=21)
    run = train(data, small_arch(), cfg)
    assert set(built) == {ad.Param}
    assert len(built) == len(run.model.all_params)
    built.clear()
    evaluate_model(run.model, data)
    assert built == []


def test_step_aborts_on_nonfinite():
    # relu would zero out a NaN feature, so use a purely linear model
    batch = hand_batch()
    bad = Dataset(dense=batch.dense.copy(), cat=batch.cat,
                  labels=batch.labels, sensitive=batch.sensitive)
    bad.dense[0, 0] = np.nan
    arch = ArchConfig(num_tasks=2, shared_layer_sizes=(),
                      head_layer_sizes=())
    model = build_model(arch, dense_count=3, seed=0)
    with pytest.raises(TrainingDiverged, match="accuracy loss"):
        train_step(model, bad, TrainConfig(method="vanilla",
                                           task_weights=(1.0, 1.0)))


@pytest.mark.parametrize("method", METHODS)
def test_nonfinite_mid_run_aborts_at_the_step_that_meets_it(method,
                                                             monkeypatch):
    """A NaN that reaches the probabilities in a run's third step aborts
    `train()` there, with the message a loop of steps that take their loss
    values (`loss_sink`) raises, before any fairness check; so do single
    steps on its rows, with a sink and without, with hidden relu layers
    (which pass the NaN on) and without.  A step without a sink checks the
    clipped probabilities: the seed is 0 where p is NaN."""
    base = separable_dataset(n=60, seed=4)
    cfg = TrainConfig(method=method, task_weights=(0.6, 0.4),
                      fairness_weights=(1.5, 0.8),
                      fairness_kind="soft_fpr_gap", epochs=2, batch_size=16,
                      seed=5)
    perm = np.random.default_rng(cfg.seed).permutation(60)
    dense = base.dense.copy()
    dense[perm[40], 1] = np.nan
    data = Dataset(dense=dense, cat=base.cat, labels=base.labels,
                   sensitive=base.sensitive)
    step_real, inner = trainer.train_step, trainer._step
    for arch in (ArchConfig(num_tasks=2, shared_layer_sizes=(),
                            head_layer_sizes=()), small_arch()):
        model = build_model(arch, dense_count=3, seed=cfg.seed)
        expected = None
        for step, start in enumerate(range(0, 60, 16)):
            try:
                step_real(model, data.take(perm[start:start + 16]), cfg,
                          loss_sink=[])
            except TrainingDiverged as exc:
                expected = (step, str(exc))
                break
        assert expected == (2, "non-finite value in task 0 accuracy loss: "
                               "nan"), arch

        steps = []
        monkeypatch.setattr(trainer, "_step", lambda *a, **k: (
            steps.append(1) or inner(*a, **k)))
        with pytest.raises(TrainingDiverged) as exc:
            train(data, arch, cfg)
        assert (len(steps) - 1, str(exc.value)) == expected, arch
        for sink in (None, []):
            with pytest.raises(TrainingDiverged) as exc:
                step_real(build_model(arch, dense_count=3, seed=cfg.seed),
                          data.take(perm[32:48]), cfg, loss_sink=sink)
            assert str(exc.value) == expected[1], arch

    p, seed = np.array([[[np.nan], [0.5]]]), np.empty((1, 2, 1))
    kernels.xent_seed(p, np.ones_like(p), 1.0, seed)
    assert seed[0, 0, 0] == 0.0


def test_step_rejects_empty_batch():
    model = build_model(small_arch(), dense_count=3, seed=0)
    empty = hand_batch().take(np.array([], dtype=np.intp))
    with pytest.raises(ConfigError):
        train_step(model, empty, TrainConfig(method="vanilla",
                                             task_weights=(1.0, 1.0)))


@pytest.mark.parametrize("method", ["vanilla", "baseline", "mtaf"])
def test_step_kernel_calls_do_not_grow_with_tasks(method, monkeypatch):
    """One step of a 4-task model calls each kernel as often as one of a
    1-task model: the heads run as stacks, not task by task.  The seeds
    are taken at the logits, so a vanilla step makes no `sigmoid_bwd`
    call and a fairness step one, for its fairness terms."""
    calls = []
    for name, fn in vars(kernels).items():
        if callable(fn) and not name.startswith("_"):
            monkeypatch.setattr(
                kernels, name,
                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    counts = {}
    for T in (1, 4):
        rng = np.random.default_rng(T)
        batch = Dataset(dense=rng.standard_normal((64, 3)),
                        cat=rng.integers(0, 4, (64, 1)),
                        labels=rng.integers(0, 2, (64, T)),
                        sensitive=rng.integers(0, 2, 64), vocab_sizes=(4,))
        model = build_model(small_arch(T), dense_count=3, vocab_sizes=(4,),
                            seed=0)
        calls.clear()
        train_step(model, batch, TrainConfig(
            method=method, task_weights=(0.5,) * T,
            fairness_weights=(1.0,) * T, fairness_kind="soft_fpr_gap"))
        counts[T] = sorted(calls)
    assert counts[1] and counts[4] == counts[1]
    assert counts[1].count("sigmoid_bwd") == (method != "vanilla")


def test_soft_fpr_step_counts_do_not_grow_with_tasks(monkeypatch):
    """A soft FPR mtaf step of a 4-task model takes every task's per-code
    sums and sizes from as many bincounts as one of a 1-task model: on a
    Dataset, one weighted and one plain; in `train()`, one weighted per
    step and one plain per epoch for all its steps."""
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount",
                        lambda *a, **k: calls.append(1) or bincount(*a, **k))
    counts = {}
    for T in (1, 4):
        rng = np.random.default_rng(T)
        batch = Dataset(dense=rng.standard_normal((64, 3)),
                        cat=rng.integers(0, 4, (64, 1)),
                        labels=rng.integers(0, 2, (64, T)),
                        sensitive=rng.integers(0, 2, 64), vocab_sizes=(4,))
        model = build_model(small_arch(T), dense_count=3, vocab_sizes=(4,),
                            seed=0)
        cfg = TrainConfig(
            method="mtaf", task_weights=(0.5,) * T,
            fairness_weights=(1.0,) * T, fairness_kind="soft_fpr_gap",
            fairness_target="equalized_odds", epochs=2, batch_size=16)
        calls.clear()
        train_step(model, batch, cfg)
        counts[T] = [len(calls)]
        calls.clear()
        train(batch, small_arch(T), cfg)
        counts[T].append(len(calls))
    # 2 epochs of 4 steps each: 2 x (1 + 4)
    assert counts == {1: [2, 10], 4: [2, 10]}


@pytest.mark.parametrize("method, per_run",
                         [("vanilla", 0), ("baseline", 1), ("mtaf", 1)])
def test_subset_codes_built_once_per_run(method, per_run, monkeypatch):
    """`train()` builds the subset codes once per run, gathers them by
    each epoch's permutation and steps on slices; vanilla needs none."""
    codes = mock.Mock(wraps=losses.subset_codes)
    monkeypatch.setattr(losses, "subset_codes", codes)
    cfg = TrainConfig(method=method, task_weights=(0.5, 0.5),
                      fairness_weights=(1.0, 1.0),
                      fairness_kind="soft_fpr_gap", epochs=3, batch_size=16)
    train(separable_dataset(n=60, seed=4), small_arch(), cfg)
    assert codes.call_count == per_run


@pytest.mark.parametrize("arch", ["routing", "emb2-layers2x2-tasks3",
                                  "no-hidden"])
def test_fused_head_walk_equals_a_walk_per_seed_stack(arch):
    """One walk with mtaf's (head, shared) seed stacks gives the head
    parameters the gradients, bit for bit, of one walk with the head seeds
    as both stacks, and the shared parameters and embeddings those of one
    walk with the shared seeds as both stacks."""
    arch, vocab_sizes, batch = _ledger_case(arch)
    model = build_model(arch, dense_count=3, vocab_sizes=vocab_sizes, seed=9)
    ws = forward_np(model, batch.dense[None],
                    batch.cat[None] if batch.cat.size else None)
    seeds = np.random.default_rng(3).standard_normal(
        (2, 1, arch.num_tasks, len(batch), 1))
    grads = []
    for stack in (seeds, seeds[:1], seeds[1:]):
        model.flat.grad[...] = np.nan
        backprop(model, ws, stack)
        grads.append(model.flat.grad[0].copy())
    fused, head, shared = grads
    bottom = sum(p.value.size for p in model.shared_params)
    assert not np.isnan(fused).any()
    assert fused[bottom:].tobytes() == head[bottom:].tobytes()
    assert fused[:bottom].tobytes() == shared[:bottom].tobytes()


@pytest.mark.parametrize("kind", ["correlation", "mmd", "soft_fpr_gap"])
def test_train_equals_its_steps_on_taken_rows(kind):
    """`train()` (subset state built once per run, gathered per epoch, and
    buffers reused across steps) equals, bit for bit, a loop that replays
    its seeded permutations through `train_step` on rows taken as
    Datasets, with a tail batch and some sensitive values missing."""
    base = separable_dataset(n=60, seed=4)
    rng = np.random.default_rng(8)
    sensitive = base.sensitive.copy()
    sensitive[rng.choice(60, 6, replace=False)] = -1
    data = Dataset(dense=base.dense, cat=rng.integers(0, 4, (60, 1)),
                   labels=base.labels, sensitive=sensitive, vocab_sizes=(4,))
    for method in METHODS:
        cfg = TrainConfig(method=method, task_weights=(0.6, 0.4),
                          fairness_weights=(1.5, 0.8),
                          head_shared_ratios=(2.0, 0.5), fairness_kind=kind,
                          fairness_target="equalized_odds", epochs=2,
                          batch_size=16, seed=5)
        run = train(data, small_arch(), cfg)
        model = build_model(small_arch(), dense_count=3, vocab_sizes=(4,),
                            seed=cfg.seed)
        perms, history = np.random.default_rng(cfg.seed), []
        for _ in range(cfg.epochs):
            perm, step_losses = perms.permutation(len(data)), []
            for start in range(0, len(data), cfg.batch_size):
                train_step(model, data.take(perm[start:start + 16]), cfg,
                           loss_sink=step_losses)
            history.append(np.mean(step_losses, axis=0))
        for name in ("value", "adagrad_acc"):
            assert (getattr(run.model.flat, name).tobytes()
                    == getattr(model.flat, name).tobytes()), (method, name)
        assert run.history.tobytes() == np.array(history).tobytes(), method


def _same_run(stacked, solo):
    """Whether two TrainedRuns hold the same bytes: parameters,
    accumulators and history."""
    return all(getattr(stacked.model.flat, name).tobytes()
               == getattr(solo.model.flat, name).tobytes()
               for name in ("value", "adagrad_acc")) and (
        stacked.history.tobytes() == solo.history.tobytes())


@pytest.mark.parametrize("kind", ["correlation", "mmd", "soft_fpr_gap"])
def test_stacked_runs_equal_their_solo_runs(kind):
    """`train_stack` trains each of its runs, bit for bit, as `train()`
    trains it alone, for every method, with a tail batch, an embedding
    table and some sensitive values missing, beside stack-mates of other
    seeds, weights and ratios, one with a zero lambda and one with all
    lambdas zero, and with three tasks, whose head gradients the bottom
    sums; its models stay usable one by one."""
    base = separable_dataset(n=60, seed=4)
    rng = np.random.default_rng(8)
    sensitive = base.sensitive.copy()
    sensitive[rng.choice(60, 6, replace=False)] = -1
    data = Dataset(dense=base.dense, cat=rng.integers(0, 4, (60, 1)),
                   labels=base.labels, sensitive=sensitive, vocab_sizes=(4,))
    test = separable_dataset(n=30)
    test = Dataset(dense=test.dense, cat=rng.integers(0, 4, (30, 1)),
                   labels=test.labels, sensitive=test.sensitive,
                   vocab_sizes=(4,))
    draws = [((0.6, 0.4), (1.5, 0.8), (2.0, 0.5)),
             ((0.3, 0.7), (0.0, 2.5), (0.4, 3.0)),
             ((0.5, 0.5), (0.0, 0.0), (1.0, 1.0)),
             ((0.9, 0.1), (3.0, 0.2), (0.7, 1.6))]
    for method in METHODS:
        configs = [TrainConfig(method=method, task_weights=w,
                               fairness_weights=lam, head_shared_ratios=r,
                               fairness_kind=kind,
                               fairness_target="equalized_odds", epochs=2,
                               batch_size=16, seed=5 + i)
                   for i, (w, lam, r) in enumerate(draws)]
        runs = train_stack(data, small_arch(), configs)
        for config, run in zip(configs, runs):
            solo = train(data, small_arch(), config)
            assert _same_run(run, solo), (method, config.seed)
            assert evaluate_model(run.model, test) == evaluate_model(
                solo.model, test)
    # three tasks, two hidden layers each side and two tables
    arch, _, batch = _ledger_case("emb2-layers2x2-tasks3")
    for method in METHODS:
        configs = [TrainConfig(method=method, task_weights=w[:2] + (0.5,),
                               fairness_weights=lam[:1] + (1.1, 0.7),
                               head_shared_ratios=r + (1.3,),
                               fairness_kind=kind, epochs=2, batch_size=6,
                               seed=i) for i, (w, lam, r) in enumerate(draws)]
        for config, run in zip(configs, train_stack(batch, arch, configs)):
            assert _same_run(run, train(batch, arch, config)), method
    with pytest.raises(ConfigError, match="share method and settings"):
        train_stack(data, small_arch(), [configs[0], replace(
            configs[1], learning_rate=0.1)])


@pytest.mark.parametrize("method", METHODS)
def test_a_run_that_diverges_in_a_stack_ends_alone(method, monkeypatch):
    """A run whose task weight is NaN takes NaN parameters from its first
    step.  In a stack it ends at the step and with the message of its
    solo run, and its stack-mates train on, each equal to its solo run."""
    data = separable_dataset(n=60, seed=4)
    configs = [TrainConfig(method=method, task_weights=w,
                           fairness_weights=(1.5, 0.8),
                           head_shared_ratios=(2.0, 0.5),
                           fairness_kind="soft_fpr_gap", epochs=2,
                           batch_size=16, seed=5 + i)
               for i, w in enumerate(((0.6, 0.4), (np.nan, 0.4),
                                      (0.3, 0.7)))]
    ended, seeds = [], trainer._seeds

    def spy(batch, probs, out, errors, losses=None):
        stack = seeds(batch, probs, out, errors, losses)
        ended.append([error is not None for error in errors])
        return stack
    monkeypatch.setattr(trainer, "_seeds", spy)
    with pytest.raises(TrainingDiverged) as exc:
        train(data, small_arch(), configs[1])
    assert str(exc.value) == ("non-finite value in task 0 accuracy loss: "
                              "nan")
    assert ended == [[False], [True]]
    ended.clear()
    runs = train_stack(data, small_arch(), configs)
    assert [flags[1] for flags in ended[:2]] == [False, True]
    assert not any(flags[0] or flags[2] for flags in ended)
    assert len(ended) == 2 * 4
    assert isinstance(runs[1], TrainingDiverged)
    assert str(runs[1]) == str(exc.value)
    for i in (0, 2):
        assert _same_run(runs[i], train(data, small_arch(), configs[i]))


def test_a_loss_sink_leaves_a_step_its_clipped_block():
    """An epoch's steps given a loss sink take their losses from a copy of
    their clipped probabilities, so the epoch's one loss pass over those
    blocks gives the same losses, bit for bit."""
    data = separable_dataset(n=60, seed=4)
    cfg = TrainConfig(method="mtaf", task_weights=(0.6, 0.4),
                      fairness_weights=(1.5, 0.8), batch_size=16)
    model = build_model(small_arch(), dense_count=3, seed=cfg.seed)
    rows = Batch.of(data, RunPlan([cfg]))
    shuffled = rows.epoch({})
    steps, stacks = shuffled.steps(cfg.batch_size)
    rows.take([np.random.default_rng(3).permutation(len(data))], out=shuffled)
    sink = []
    for step in steps:
        train_step(model, step, cfg, loss_sink=sink)
    passed = np.concatenate([kernels.xent_steps(*stack) for stack in stacks])
    assert passed[:, 0].tolist() == sink


def test_run_reuses_its_buffers(monkeypatch):
    """Every step of a run, across epochs, writes its forward into the same
    buffers, one set per batch length."""
    seen = {}
    forward_real = trainer.forward_np

    def spy(model, dense, cat_idx, ws):
        ws = forward_real(model, dense, cat_idx, ws)
        arrays = [ws.seeds, ws.probs] + [
            a for layer in ws.shared_fwd + ws.head_fwd for a in layer]
        # the workspaces stay referenced, so a new one gets new addresses
        seen.setdefault(dense.shape[1], []).append(
            (ws, [a.__array_interface__["data"][0] for a in arrays]))
        return ws
    monkeypatch.setattr(trainer, "forward_np", spy)
    cfg = TrainConfig(method="mtaf", task_weights=(0.5, 0.5),
                      fairness_weights=(1.0, 1.0),
                      fairness_kind="soft_fpr_gap", epochs=3, batch_size=16)
    train(separable_dataset(n=60, seed=4), small_arch(), cfg)
    assert {n: len(steps) for n, steps in seen.items()} == {16: 9, 12: 3}
    for steps in seen.values():
        first = steps[0][1]
        assert all(pointers == first for _, pointers in steps)
    assert len({id(ws) for steps in seen.values() for ws, _ in steps}) == 2


def _pointers(arrays):
    return [a.__array_interface__["data"][0] for a in arrays]


def test_runs_on_a_dataset_reuse_its_arrays(monkeypatch):
    """Two `train()` runs, of different methods, and two `evaluate_model`
    calls on the same datasets write into the same arrays: each epoch's
    gathered rows, subset arrays and clipped probabilities, and the
    workspaces of every batch length and of the test split."""
    data, test = separable_dataset(n=60, seed=4), separable_dataset(n=30)
    calls, phase = {}, []
    step_real, train_forward = trainer._step, trainer.forward_np
    eval_forward = metrics.forward_np

    def record(arrays):
        # the arrays stay referenced, so a new one gets a new address
        calls.setdefault(phase[-1], []).append((arrays, _pointers(arrays)))

    def step_spy(model, batch, errors, losses=None):
        record([batch.rows, batch.labels, batch.clipped, batch.codes,
                batch.sensitive, batch.sides])
        return step_real(model, batch, errors, losses)

    def forward_spy(forward):
        def spy(model, dense, cat_idx, ws):
            ws = forward(model, dense, cat_idx, ws)
            record([a for layer in ws.shared_fwd + ws.head_fwd
                    for a in layer] + ([] if ws.seeds is None
                                       else [ws.seeds, ws.bottom]))
            return ws
        return spy
    monkeypatch.setattr(trainer, "_step", step_spy)
    monkeypatch.setattr(trainer, "forward_np", forward_spy(train_forward))
    monkeypatch.setattr(metrics, "forward_np", forward_spy(eval_forward))
    for method in ("baseline", "mtaf"):
        cfg = TrainConfig(method=method, task_weights=(0.5, 0.5),
                          fairness_weights=(1.0, 1.0),
                          fairness_kind="soft_fpr_gap", epochs=2,
                          batch_size=16, seed=len(phase))
        phase.append(("train", method))
        run = train(data, small_arch(), cfg)
        phase.append(("evaluate", method))
        evaluate_model(run.model, test)
    train_calls = [[p for _, p in calls[("train", m)]]
                   for m in ("baseline", "mtaf")]
    # 2 epochs x 4 steps, each a step and a forward: the 4 step slices'
    # arrays and the workspaces of batch lengths 16 and 12
    assert len(train_calls[0]) == 16
    assert len(set(map(tuple, train_calls[0]))) == 4 + 2
    assert train_calls[0] == train_calls[1]
    assert ([p for _, p in calls[("evaluate", "baseline")]]
            == [p for _, p in calls[("evaluate", "mtaf")]])


def test_subset_codes_built_once_per_dataset(monkeypatch):
    """Every run on a dataset, of every method, reads the subset codes
    the dataset built on its first fairness run; another dataset builds
    its own."""
    codes = mock.Mock(wraps=losses.subset_codes)
    monkeypatch.setattr(losses, "subset_codes", codes)
    data = separable_dataset(n=60, seed=4)
    for method, kind in itertools.product(METHODS, ("mmd", "soft_fpr_gap")):
        train(data, small_arch(), TrainConfig(
            method=method, task_weights=(0.5, 0.5),
            fairness_weights=(1.0, 1.0), fairness_kind=kind,
            batch_size=16))
    assert codes.call_count == 1
    train(separable_dataset(n=60, seed=4), small_arch(), TrainConfig(
        method="mtaf", task_weights=(0.5, 0.5), fairness_weights=(1.0, 1.0),
        batch_size=16))
    assert codes.call_count == 2


def test_datasets_with_other_labels_share_no_state():
    """A dataset whose labels differ from an earlier one's trains as it
    would first in a fresh process, whether the earlier one is alive or
    freed (when the new one may take its address)."""
    base = separable_dataset(n=60, seed=4)
    cfg = TrainConfig(method="mtaf", task_weights=(0.5, 0.5),
                      fairness_weights=(1.0, 1.0),
                      fairness_kind="soft_fpr_gap", epochs=2, batch_size=16)

    def flipped():
        return Dataset(dense=base.dense.copy(), cat=base.cat,
                       labels=1 - base.labels, sensitive=base.sensitive)
    first = train(flipped(), small_arch(), cfg)
    earlier = Dataset(dense=base.dense, cat=base.cat, labels=base.labels,
                      sensitive=base.sensitive)
    train(earlier, small_arch(), cfg)
    alive = train(flipped(), small_arch(), cfg)
    del earlier
    freed = train(flipped(), small_arch(), cfg)
    for run in (alive, freed):
        assert run.model.flat.value.tobytes() == first.model.flat.value.tobytes()
        assert run.history.tobytes() == first.history.tobytes()


def test_trained_dataset_is_freed_and_pickled_without_its_state():
    """What a dataset keeps for its runs is plain arrays, so reference
    counting frees it, with them, as soon as the last reference goes, and
    a trained model is not kept with it; it is not pickled either, so a
    pool worker receives the rows alone."""
    data, test = separable_dataset(n=60, seed=4), separable_dataset(n=30)
    untrained = len(pickle.dumps(data)), len(pickle.dumps(test))
    cfg = TrainConfig(method="mtaf", task_weights=(0.5, 0.5),
                      fairness_weights=(1.0, 1.0), fairness_kind="mmd",
                      batch_size=16)
    run = train(data, small_arch(), cfg)
    evaluate_model(run.model, test)
    assert (len(pickle.dumps(data)), len(pickle.dumps(test))) <= untrained
    refs = [weakref.ref(x) for x in (data, test, run.model)]
    gc.disable()
    try:
        del data, test, run
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("method", METHODS)
def test_warm_step_allocates_no_activation_stack(method):
    """Once its batch length has a workspace, a step allocates no array as
    large as a (T, n, hidden) stack, such as the gradient at the heads'
    shared input, which every step allocated before: tracemalloc's peak
    over a warm step stays below one.  What it does allocate is T times
    smaller: the numpy `relu_bwd`'s product and numpy's 64 kB ufunc
    buffer on the shared layer's (n, hidden) arrays."""
    arch = ArchConfig(num_tasks=3, shared_layer_sizes=(32,),
                      head_layer_sizes=(4,))
    cfg = TrainConfig(method=method, task_weights=(0.5, 0.5, 0.4),
                      fairness_weights=(1.0, 2.0, 0.5),
                      head_shared_ratios=(1.5, 1.0, 2.0),
                      fairness_kind="soft_fpr_gap", batch_size=512)
    base = separable_dataset(n=512, seed=4)
    data = Dataset(dense=base.dense, cat=base.cat,
                   labels=np.column_stack([base.labels, base.labels[:, 0]]),
                   sensitive=base.sensitive)
    batch = Batch.of(data, RunPlan([cfg]))
    model = build_model(arch, dense_count=3, seed=0)
    train_step(model, batch, cfg)
    tracemalloc.start()
    try:
        train_step(model, batch, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < np.empty((3, 512, 32)).nbytes


# --- full training loop ----------------------------------------------------

def separable_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, 2))
    labels = (u > 0).astype(np.int8)
    dense = np.column_stack([
        u[:, 0] + 0.02 * rng.standard_normal(n),
        u[:, 1] + 0.02 * rng.standard_normal(n),
        rng.standard_normal(n),
    ])
    return Dataset(dense=dense, cat=np.empty((n, 0), dtype=np.intp),
                   labels=labels, sensitive=rng.integers(0, 2, n).astype(np.int8))


def logistic_regression_error(x, y, iters=400, lr=0.5):
    """Plain batch-GD logistic regression, the separability oracle."""
    xb = np.column_stack([x, np.ones(len(x))])
    w = np.zeros(xb.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(xb @ w)))
        w -= lr * xb.T @ (p - y) / len(y)
    p = 1.0 / (1.0 + np.exp(-(xb @ w)))
    return np.mean((p >= 0.5) != y)


def test_train_learns_separable_tasks():
    data = separable_dataset()
    for t in range(2):
        assert logistic_regression_error(
            data.dense, data.labels[:, t].astype(float)) < 0.05
    arch = ArchConfig(num_tasks=2, shared_layer_sizes=(8,),
                      head_layer_sizes=(4,))
    cfg = TrainConfig(method="vanilla", task_weights=(1.0, 1.0),
                      learning_rate=0.1, epochs=50, batch_size=64, seed=0)
    run = train(data, arch, cfg)
    outs = forward(run.model, data.dense)
    for t in range(2):
        err = np.mean((outs[t].prob.value[:, 0] >= 0.5) != data.labels[:, t])
        assert err < 0.05, f"task {t} training error {err}"
    assert run.history.shape == (50, 2)
    assert run.seconds >= 0
    # loss should not get worse over training
    assert run.history[-1].sum() < run.history[0].sum()


def test_train_deterministic():
    data = separable_dataset(n=60, seed=4)
    arch = small_arch()
    cfg = TrainConfig(method="mtaf", task_weights=(0.5, 0.5),
                      fairness_weights=(1.0, 1.0), fairness_kind="mmd",
                      learning_rate=0.05, epochs=3, batch_size=16, seed=21)
    run1 = train(data, arch, cfg)
    run2 = train(data, arch, cfg)
    for p1, p2 in zip(run1.model.all_params, run2.model.all_params):
        np.testing.assert_array_equal(p1.value, p2.value)
    np.testing.assert_array_equal(run1.history, run2.history)


def test_train_single_batch_per_epoch():
    data = separable_dataset(n=30, seed=5)
    cfg = TrainConfig(method="vanilla", task_weights=(1.0, 1.0),
                      learning_rate=0.05, epochs=2, batch_size=64, seed=0)
    run = train(data, small_arch(), cfg)
    assert run.history.shape == (2, 2)


def test_train_rejects_empty_dataset():
    empty = separable_dataset(n=20).take(np.array([], dtype=np.intp))
    with pytest.raises(ConfigError, match="empty"):
        train(empty, small_arch(), TrainConfig(method="vanilla",
                                               task_weights=(1.0, 1.0)))


def test_train_task_count_mismatch():
    data = separable_dataset(n=20)
    cfg = TrainConfig(method="vanilla", task_weights=(1.0,), epochs=1)
    with pytest.raises(ConfigError):
        train(data, small_arch(num_tasks=1), TrainConfig(
            method="vanilla", task_weights=(1.0, 1.0)))
    with pytest.raises(ConfigError):
        train(data, small_arch(), cfg)
