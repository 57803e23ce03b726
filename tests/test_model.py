"""Model construction and forward pass, checked against a straight-line
numpy re-implementation that never touches the graph machinery."""

import json
from dataclasses import asdict

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmtl.autodiff as ad
from fairmtl.exceptions import ConfigError, ShapeError
from fairmtl.model import (ArchConfig, MtlModel, _input_grad, backprop,
                           build_model, build_stack, forward, forward_np,
                           from_fields)


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_forward(model, dense, cat_idx):
    """Recompute every task logit with plain numpy from the param values."""
    pieces = []
    if model.dense_count:
        pieces.append(np.asarray(dense, dtype=np.float64))
    for j, table in enumerate(model.embeddings):
        pieces.append(table.value[np.asarray(cat_idx)[:, j]])
    h = np.concatenate(pieces, axis=1) if len(pieces) > 1 else pieces[0]
    for w, b in model.shared_layers:
        h = np.maximum(h @ w.value + b.value, 0.0)
    logits = []
    for layers in model.heads:
        ht = h
        for w, b in layers[:-1]:
            ht = np.maximum(ht @ w.value + b.value, 0.0)
        w, b = layers[-1]
        logits.append(ht @ w.value + b.value)
    return logits


def test_forward_matches_reference():
    arch = ArchConfig(num_tasks=2, shared_layer_sizes=(8, 6),
                      head_layer_sizes=(5,), embedding_dim=3)
    model = build_model(arch, dense_count=4, vocab_sizes=(7, 5), seed=11)
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((10, 4))
    cat = np.stack([rng.integers(0, 7, 10), rng.integers(0, 5, 10)], axis=1)
    outs = forward(model, dense, cat)
    ref = reference_forward(model, dense, cat)
    assert len(outs) == 2
    for out, logit in zip(outs, ref):
        np.testing.assert_allclose(out.logit.value, logit, rtol=1e-12)
        np.testing.assert_allclose(out.prob.value, np_sigmoid(logit), rtol=1e-12)


def test_numpy_forward_equals_graph_forward_bitwise():
    """The training path's forward gives the graph forward's probabilities
    bit for bit, embeddings included, and rejects codes the graph's
    embedding lookup rejects."""
    arch = ArchConfig(num_tasks=3, shared_layer_sizes=(8, 6),
                      head_layer_sizes=(5, 4), embedding_dim=3)
    model = build_model(arch, dense_count=4, vocab_sizes=(7, 5), seed=11)
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((10, 4))
    cat = np.stack([rng.integers(0, 7, 10), rng.integers(0, 5, 10)], axis=1)
    probs = forward_np(model, dense[None], cat[None]).probs[0]
    outs = forward(model, dense, cat)
    assert len(probs) == 3
    for p, out in zip(probs, outs):
        np.testing.assert_array_equal(p, out.prob.value)
    cat[3, 1] = -1
    with pytest.raises(IndexError):
        forward_np(model, dense[None], cat[None])


@st.composite
def stacked_cases(draw):
    """A model of 1-4 tasks with 0-2 shared and head hidden layers and 0-2
    embedding tables, a batch of 1-300 rows, and seed stacks that are one
    array or two."""
    sizes = st.lists(st.integers(1, 5), max_size=2)
    vocab_sizes = tuple(draw(st.lists(st.integers(1, 6), max_size=2)))
    arch = ArchConfig(num_tasks=draw(st.integers(1, 4)),
                      shared_layer_sizes=draw(sizes),
                      head_layer_sizes=draw(sizes),
                      embedding_dim=draw(st.integers(1, 3)))
    dense_count = draw(st.integers(0 if vocab_sizes else 1, 3))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = build_model(arch, dense_count, vocab_sizes,
                        seed=int(rng.integers(1000)))
    # biases start at zero; shift every value so they carry data too
    model.flat.value[...] += rng.uniform(-0.1, 0.1, model.flat.value.shape)
    dense = rng.standard_normal((n, dense_count))
    cat = (np.stack([rng.integers(0, v, n) for v in vocab_sizes], axis=1)
           if vocab_sizes else None)
    head = rng.standard_normal((arch.num_tasks, n, 1))
    shared = (head if draw(st.booleans())
              else rng.standard_normal((arch.num_tasks, n, 1)))
    return model, dense, cat, head, shared


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stacked_cases())
def test_stacked_heads_equal_per_task_reference_bitwise(case):
    """The stacked forward gives each task's probabilities, and the
    stacked backward every gradient, bit for bit as the per-task
    reference does; with equal seeds both make one walk per head."""
    model, dense, cat, head, shared = case
    acts = forward_np(model, dense[None], None if cat is None else cat[None])
    ref_acts = oracles.forward_np(model, dense, cat)
    assert acts.probs.shape == (1, model.arch.num_tasks, len(dense), 1)
    for got, ref in zip(acts.probs[0], ref_acts.probs, strict=True):
        assert got.tobytes() == ref.tobytes()
    ref_head = list(head)
    ref_shared = ref_head if shared is head else list(shared)
    model.flat.grad[...] = np.nan
    backprop(model, acts,
             head[None, None] if shared is head
             else np.stack((head, shared))[:, None])
    got = model.flat.grad.copy()
    model.flat.grad[...] = np.nan
    oracles.backprop(model, ref_acts, ref_head, ref_shared)
    assert not np.isnan(got).any()
    assert got.tobytes() == model.flat.grad.tobytes()


@pytest.mark.parametrize("halves", (1, 2))
@pytest.mark.parametrize("num_tasks", (1, 3))
@pytest.mark.parametrize("shared, heads", [((4, 1), (3,)), ((2,), ()),
                                           ((), (1, 2)), ((1,), (1,))])
def test_stacked_backprop_equals_each_models_own(shared, heads, num_tasks,
                                                 halves):
    """`backprop` on a stack of 3 models gives each model's gradients bit
    for bit as its own `backprop` does, width-1 layers and no head
    layers included: the zero-padded products, the adds over tasks and
    the relu masks act on each run's slice as on the run alone."""
    arch = ArchConfig(num_tasks=num_tasks, shared_layer_sizes=shared,
                      head_layer_sizes=heads, embedding_dim=2)
    rng = np.random.default_rng(len(shared) + 3 * len(heads) + num_tasks)
    n = 37
    stack = build_stack(arch, 3, (4,), [5, 6, 7])
    # biases start at zero; shift every value so they carry data too
    stack.flat.value[...] += rng.uniform(-0.1, 0.1, stack.flat.value.shape)
    dense, cat = rng.standard_normal((3, n, 3)), rng.integers(0, 4, (3, n, 1))
    seeds = rng.standard_normal((halves, 3, num_tasks, n, 1))
    stack.flat.grad[...] = np.nan
    backprop(stack, forward_np(stack, dense, cat), seeds)
    got = stack.flat.grad.copy()
    assert not np.isnan(got).any()
    for run, model in enumerate(stack.models):
        backprop(model, forward_np(model, dense[run:run + 1],
                                   cat[run:run + 1]), seeds[:, run:run + 1])
        assert got[run].tobytes() == model.flat.grad[0].tobytes(), run


@pytest.mark.parametrize("heads", [(3,), ()])
@pytest.mark.parametrize("num_tasks", (1, 3))
def test_bottom_is_each_tasks_product_summed_in_task_order(heads, num_tasks):
    """`backprop` takes the first head layer's input gradient task by task
    into the bottom: on a stack of 8 it equals, bit for bit, one batched
    product over every task's (W, T, n, in) gradient, summed over the
    tasks in order and masked by the top shared layer's relu, for a wide
    first head layer and for a width-1 one (the logits', zero-padded to
    K = 2)."""
    arch = ArchConfig(num_tasks=num_tasks, shared_layer_sizes=(5,),
                      head_layer_sizes=heads)
    rng = np.random.default_rng(num_tasks + len(heads))
    W, n = 8, 41
    stack = build_stack(arch, 3, (), range(W))
    stack.flat.value[...] += rng.uniform(-0.1, 0.1, stack.flat.value.shape)
    ws = forward_np(stack, rng.standard_normal((W, n, 3)))
    seeds = rng.standard_normal((2, W, num_tasks, n, 1))
    backprop(stack, ws, seeds)
    # the shared half's gradient at the first head layer's output, as
    # the layer above left it, relu gradient taken
    g = ws.head_grads[1][0][-1:] if heads else seeds[-1:]
    w = stack.head_stacks[0][0].value
    parts = np.empty((1, W, num_tasks, n, 5))
    _input_grad(g, w, parts, None if heads else (
        np.zeros((1, W, num_tasks, n, 2)), np.zeros((W, num_tasks, 2, 5))))
    want = parts[0, :, 0]
    for t in range(1, num_tasks):
        want = want + parts[0, :, t]
    # where the top shared layer then took its relu gradient in place
    want = want * np.greater(ws.shared_fwd[-1], 0.0)
    assert ws.bottom.shape == (W, n, 5)
    assert ws.bottom.tobytes() == np.ascontiguousarray(want).tobytes()


def test_forward_dense_only():
    arch = ArchConfig(num_tasks=1, shared_layer_sizes=(4,), head_layer_sizes=(3,))
    model = build_model(arch, dense_count=2, seed=0)
    dense = np.random.default_rng(1).standard_normal((5, 2))
    outs = forward(model, dense)
    ref = reference_forward(model, dense, None)
    np.testing.assert_allclose(outs[0].logit.value, ref[0], rtol=1e-12)


def test_build_deterministic():
    arch = ArchConfig(num_tasks=2)
    a = build_model(arch, dense_count=3, vocab_sizes=(4,), seed=7)
    b = build_model(arch, dense_count=3, vocab_sizes=(4,), seed=7)
    for pa, pb in zip(a.all_params, b.all_params):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.value, pb.value)
    c = build_model(arch, dense_count=3, vocab_sizes=(4,), seed=8)
    assert any((pa.value != pc.value).any()
               for pa, pc in zip(a.all_params, c.all_params)
               if pa.value.any() or pc.value.any())


def test_param_grouping():
    arch = ArchConfig(num_tasks=3, shared_layer_sizes=(4,), head_layer_sizes=(2,))
    model = build_model(arch, dense_count=2, vocab_sizes=(5,), seed=0)
    for p in model.shared_params:
        assert p.group == "shared"
    for t in range(3):
        for p in model.head_params(t):
            assert p.group == ("task", t)
    # embeddings are shared
    assert model.embeddings[0] in model.shared_params
    # no param appears in two groups
    names = [p.name for p in model.all_params]
    assert len(names) == len(set(names))
    # head stacks end in a single logit column
    for t in range(3):
        w_last, b_last = model.heads[t][-1]
        assert w_last.shape[1] == 1 and b_last.shape == (1, 1)


def test_head_params_are_slices_of_the_stacks():
    arch = ArchConfig(num_tasks=3, shared_layer_sizes=(4,),
                      head_layer_sizes=(5, 2))
    model = build_model(arch, dense_count=2, seed=0)
    assert [(w.value.shape, b.value.shape) for w, b in model.head_stacks] \
        == [((1, 3, 4, 5), (1, 3, 1, 5)), ((1, 3, 5, 2), (1, 3, 1, 2)),
            ((1, 3, 2, 1), (1, 3, 1, 1))]
    for i, stacks in enumerate(model.head_stacks):
        for t in range(3):
            for stack, p in zip(stacks, model.heads[t][i]):
                for name in ("value", "grad"):
                    assert (getattr(stack, name)[0, t].__array_interface__
                            == getattr(p, name).__array_interface__)


def test_backprop_separation_between_heads():
    """A head-0 loss must not produce gradient in head-1 params."""
    arch = ArchConfig(num_tasks=2, shared_layer_sizes=(4,), head_layer_sizes=(3,))
    model = build_model(arch, dense_count=3, seed=2)
    dense = np.random.default_rng(3).standard_normal((6, 3))
    outs = forward(model, dense)
    ad.backward(ad.mean_all(outs[0].prob))
    assert any(p.grad.any() for p in model.shared_params)
    assert any(p.grad.any() for p in model.head_params(0))
    for p in model.head_params(1):
        assert not p.grad.any()


def test_forward_shape_errors():
    arch = ArchConfig(num_tasks=1)
    model = build_model(arch, dense_count=3, vocab_sizes=(4,), seed=0)
    with pytest.raises(ShapeError):
        forward(model, np.zeros((5, 2)), np.zeros((5, 1), dtype=int))
    with pytest.raises(ShapeError):
        forward(model, np.zeros((5, 3)), np.zeros((4, 1), dtype=int))


def test_arch_validation():
    with pytest.raises(ConfigError):
        ArchConfig(num_tasks=0)
    with pytest.raises(ConfigError):
        ArchConfig(num_tasks=1, shared_layer_sizes=(0,))
    with pytest.raises(ConfigError):
        build_model(ArchConfig(num_tasks=1), dense_count=0, vocab_sizes=())


def test_arch_roundtrip():
    arch = ArchConfig(num_tasks=2, shared_layer_sizes=(32,),
                      head_layer_sizes=(16,), embedding_dim=10)
    assert from_fields(ArchConfig, json.loads(json.dumps(asdict(arch)))) == arch


def test_from_fields_refuses_unknown_keys_and_reports_missing_ones():
    assert from_fields(ArchConfig, {"num_tasks": 3}) == ArchConfig(num_tasks=3)
    with pytest.raises(ConfigError, match="'budget'; accepted: num_tasks, "
                       "shared_layer_sizes, head_layer_sizes, embedding_dim"):
        from_fields(ArchConfig, {"num_tasks": 3, "budget": 5})
    with pytest.raises(ConfigError, match="num_tasks"):
        from_fields(ArchConfig, {"embedding_dim": 4})
