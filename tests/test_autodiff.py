"""Gradient checks for the autodiff core against central finite differences.

The finite-difference oracle knows nothing about the backward rules: it
re-runs the forward builder with perturbed inputs.  Every op in the family
gets a check, plus contract tests for accumulation and root shape.
"""

import numpy as np
import pytest
from helpers import check_grads

import fairmtl.autodiff as ad
from fairmtl.exceptions import ContractError, ShapeError


def make_param(rng, shape, name):
    p = ad.Param(rng.standard_normal(shape), name=name)
    return p


def test_matmul_grad():
    rng = np.random.default_rng(0)
    a = make_param(rng, (4, 3), "a")
    b = make_param(rng, (3, 5), "b")
    check_grads(lambda: ad.mean_all(ad.matmul(a, b)), [a, b])


def test_add_bias_grad():
    rng = np.random.default_rng(1)
    x = make_param(rng, (5, 3), "x")
    b = make_param(rng, (1, 3), "b")
    check_grads(lambda: ad.mean_all(ad.add_bias(x, b)), [x, b])


def test_relu_grad():
    rng = np.random.default_rng(2)
    x = make_param(rng, (6, 4), "x")
    # keep values away from the kink so FD is valid
    x.value[np.abs(x.value) < 0.05] = 0.1
    check_grads(lambda: ad.mean_all(ad.relu(x)), [x])


def test_relu_zero_at_zero():
    x = ad.Param(np.array([[0.0, -1.0, 2.0]]), name="x")
    root = ad.mean_all(ad.relu(x))
    ad.backward(root)
    assert x.grad[0, 0] == 0.0
    assert x.grad[0, 1] == 0.0
    assert x.grad[0, 2] == pytest.approx(1 / 3)


def test_sigmoid_grad():
    rng = np.random.default_rng(3)
    x = make_param(rng, (5, 2), "x")
    check_grads(lambda: ad.mean_all(ad.sigmoid(x)), [x])


def test_embedding_lookup_grad():
    rng = np.random.default_rng(4)
    table = make_param(rng, (7, 3), "emb")
    idx = np.array([2, 0, 2, 6, 1])
    check_grads(lambda: ad.mean_all(ad.embedding_lookup(table, idx)), [table])


def test_embedding_repeated_rows_accumulate():
    table = ad.Param(np.eye(3), name="emb")
    idx = np.array([1, 1, 1, 0])
    out = ad.embedding_lookup(table, idx)
    root = ad.mean_all(out)
    ad.backward(root)
    # row 1 used three times, row 0 once, row 2 never
    expected = np.array([[1.0, 1.0, 1.0],
                         [3.0, 3.0, 3.0],
                         [0.0, 0.0, 0.0]]) / 12.0
    np.testing.assert_allclose(table.grad, expected, rtol=1e-12)


def test_embedding_out_of_range():
    table = ad.Param(np.eye(3), name="emb")
    with pytest.raises(IndexError):
        ad.embedding_lookup(table, np.array([0, 3]))
    with pytest.raises(IndexError):
        ad.embedding_lookup(table, np.array([-1]))


def test_concat_cols_grad():
    rng = np.random.default_rng(5)
    a = make_param(rng, (4, 2), "a")
    b = make_param(rng, (4, 3), "b")
    c = make_param(rng, (4, 1), "c")
    check_grads(lambda: ad.mean_all(ad.concat_cols(a, b, c)), [a, b, c])


def test_gather_rows_grad():
    rng = np.random.default_rng(6)
    x = make_param(rng, (6, 3), "x")
    rows = np.array([0, 2, 2, 5])
    check_grads(lambda: ad.mean_all(ad.gather_rows(x, rows)), [x])


def test_gather_rows_empty_selection():
    x = ad.Param(np.ones((4, 2)), name="x")
    out = ad.gather_rows(x, np.array([], dtype=np.intp))
    assert out.shape == (0, 2)


def test_mean_rows_grad():
    rng = np.random.default_rng(7)
    x = make_param(rng, (5, 4), "x")
    w = make_param(rng, (4, 1), "w")
    check_grads(lambda: ad.matmul(ad.mean_rows(x), w), [x, w])


def test_elementwise_add_sub_mul_grads():
    rng = np.random.default_rng(8)
    a = make_param(rng, (3, 3), "a")
    b = make_param(rng, (3, 3), "b")
    check_grads(lambda: ad.mean_all(ad.add(a, b)), [a, b])
    check_grads(lambda: ad.mean_all(ad.sub(a, b)), [a, b])
    check_grads(lambda: ad.mean_all(ad.mul(a, b)), [a, b])


def test_elementwise_shape_mismatch():
    a = ad.Param(np.ones((2, 3)), name="a")
    b = ad.Param(np.ones((3, 2)), name="b")
    for op in (ad.add, ad.sub, ad.mul):
        with pytest.raises(ShapeError):
            op(a, b)


def test_absval_grad():
    rng = np.random.default_rng(9)
    x = make_param(rng, (4, 4), "x")
    x.value[np.abs(x.value) < 0.05] = -0.2
    check_grads(lambda: ad.mean_all(ad.absval(x)), [x])


def test_absval_zero_subgradient():
    x = ad.Param(np.array([[0.0]]), name="x")
    ad.backward(ad.absval(x))
    assert x.grad[0, 0] == 0.0


def test_powc_grad():
    rng = np.random.default_rng(10)
    x = make_param(rng, (3, 2), "x")
    x.value[...] = np.abs(x.value) + 0.5
    check_grads(lambda: ad.mean_all(ad.powc(x, 2.0)), [x])
    check_grads(lambda: ad.mean_all(ad.powc(x, -0.5)), [x])


def test_scale_grad():
    rng = np.random.default_rng(11)
    x = make_param(rng, (2, 5), "x")
    check_grads(lambda: ad.mean_all(ad.scale(x, -2.5)), [x])


def test_gauss_kernel_grad():
    rng = np.random.default_rng(12)
    u = make_param(rng, (4, 1), "u")
    v = make_param(rng, (3, 1), "v")
    check_grads(lambda: ad.mean_all(ad.gauss_kernel(u, v, 0.7)), [u, v])


def test_gauss_kernel_values():
    u = ad.Param(np.array([[0.0], [1.0]]), name="u")
    v = ad.Param(np.array([[0.0]]), name="v")
    k = ad.gauss_kernel(u, v, 1.0)
    np.testing.assert_allclose(
        k.value, [[1.0], [np.exp(-0.5)]], rtol=1e-12)


def test_gauss_kernel_bad_bandwidth():
    u = ad.Param(np.zeros((2, 1)), name="u")
    with pytest.raises(ContractError):
        ad.gauss_kernel(u, u, 0.0)


def test_mean_all_grad():
    rng = np.random.default_rng(13)
    x = make_param(rng, (3, 4), "x")
    check_grads(lambda: ad.mean_all(x), [x])


def test_weighted_sum_grad():
    rng = np.random.default_rng(14)
    a = make_param(rng, (1, 1), "a")
    b = make_param(rng, (1, 1), "b")
    check_grads(lambda: ad.weighted_sum([a, b], [0.3, 0.7]), [a, b])


def test_composite_network_grad():
    """A small two-layer net end to end, including bias and sigmoid."""
    rng = np.random.default_rng(15)
    x = make_param(rng, (6, 3), "x")
    w1 = make_param(rng, (3, 4), "w1")
    b1 = make_param(rng, (1, 4), "b1")
    w2 = make_param(rng, (4, 1), "w2")

    def build():
        h = ad.relu(ad.add_bias(ad.matmul(x, w1), b1))
        return ad.mean_all(ad.sigmoid(ad.matmul(h, w2)))

    check_grads(build, [x, w1, b1, w2])


def test_backward_requires_scalar_root():
    x = ad.Param(np.ones((2, 2)), name="x")
    with pytest.raises(ContractError):
        ad.backward(x)


def test_param_grads_accumulate_across_backward_calls():
    x = ad.Param(np.array([[1.0, 2.0]]), name="x")
    ad.backward(ad.mean_all(x))
    first = x.grad.copy()
    ad.backward(ad.mean_all(ad.scale(x, 3.0)))
    np.testing.assert_allclose(x.grad, first * 4.0, rtol=1e-12)
    ad.zero_grads([x])
    assert not x.grad.any()


def test_shared_subgraph_two_roots_no_contamination():
    """Backprop through two roots that share nodes must match the sum of
    independent passes on fresh graphs."""
    rng = np.random.default_rng(16)
    x = make_param(rng, (3, 2), "x")

    h = ad.sigmoid(x)
    r1 = ad.mean_all(h)
    r2 = ad.mean_all(ad.mul(h, h))
    ad.backward(r1)
    ad.backward(r2)
    shared_grad = x.grad.copy()

    ad.zero_grads([x])
    ad.backward(ad.mean_all(ad.sigmoid(x)))
    g1 = x.grad.copy()
    ad.zero_grads([x])
    h2 = ad.sigmoid(x)
    ad.backward(ad.mean_all(ad.mul(h2, h2)))
    g2 = x.grad.copy()

    np.testing.assert_allclose(shared_grad, g1 + g2, rtol=1e-12, atol=1e-15)


def test_init_param_schemes():
    rng = np.random.default_rng(17)
    p = ad.init_param((9, 4), "uniform_fan_in", rng, name="w")
    bound = 1 / 3.0
    assert p.value.shape == (9, 4)
    assert np.all(np.abs(p.value) <= bound)
    z = ad.init_param((1, 4), "zeros", rng, name="b")
    assert not z.value.any()
    with pytest.raises(ShapeError):
        ad.init_param((0, 3), "zeros", rng, name="bad")


def test_init_param_deterministic():
    a = ad.init_param((5, 5), "uniform_fan_in", np.random.default_rng(42), name="a")
    b = ad.init_param((5, 5), "uniform_fan_in", np.random.default_rng(42), name="b")
    np.testing.assert_array_equal(a.value, b.value)


def test_constant_rejects_backward_into_it():
    c = ad.constant(np.ones((2, 2)))
    w = ad.Param(np.ones((2, 1)), name="w")
    root = ad.mean_all(ad.matmul(c, w))
    grads = ad.backward(root)
    assert w in grads
    assert c not in grads
