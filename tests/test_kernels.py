"""Contracts of the numpy training kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fairmtl.autodiff as ad
from fairmtl import _kernels_np as knp
from fairmtl.losses import cross_entropy


def test_xent_gradient_zero_on_clamped_rows():
    # p = 0 and p = 1 against both labels: unclamped, each of these rows
    # would carry a gradient of about +-1 or +-1e12
    p = np.array([[0.0], [0.0], [1.0], [1.0], [0.25], [0.8]])
    y = np.array([1, 0, 1, 0, 1, 0])
    prob = ad.constant(p)
    ad.backward(cross_entropy(prob, y))
    inside = ((p[4:, 0] - y[4:]) / (p[4:, 0] * (1.0 - p[4:, 0]))) / len(y)
    assert np.array_equal(prob.grad[:4, 0], np.zeros(4))
    assert_allclose(prob.grad[4:, 0], inside, rtol=1e-12)


def _clipped_probs(rng, shape):
    """Probabilities with a fifth of them at or beyond the clip."""
    p = rng.random(shape)
    p[rng.random(shape) < 0.2] = rng.choice(
        [0.0, 1.0, 1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 1e-13])
    return p


@pytest.mark.parametrize("gscale", [0.7, -1.3])
def test_fused_xent_is_the_two_kernels_bitwise(gscale):
    """`xent_seed` writes gscale (p - y) / n and 0 where the clip is
    active, over whatever `out` held, and `xent_steps` of the p it clips
    returns exactly `xent_fwd`'s value."""
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 128, 513):
        p = _clipped_probs(rng, (n, 1))
        y = rng.integers(0, 2, (n, 1)).astype(np.float64)
        got = rng.standard_normal((n, 1))
        pc = knp.xent_seed(p, y, gscale, got)
        assert knp.xent_steps(pc[None, None], y[None, None])[0, 0] \
            == knp.xent_fwd(p, y)
        inside = (p >= 1e-12) & (p <= 1.0 - 1e-12)
        assert np.array_equal(got, np.where(inside, (p - y) * (gscale / n),
                                            0.0))


def test_fused_xent_on_a_stack_is_each_column_bitwise():
    """On a (T, n, 1) stack with per-task scales `xent_seed` writes each
    column's `xent_seed`, and `xent_steps` of the p it clips returns each
    column's `xent_fwd`."""
    rng = np.random.default_rng(5)
    for n in (1, 7, 128, 513):
        p = _clipped_probs(rng, (3, n, 1))
        y = rng.integers(0, 2, p.shape).astype(np.float64)
        gscale = np.array([0.7, -1.3, 0.0]).reshape(-1, 1, 1)
        want, got = np.empty(p.shape), rng.standard_normal(p.shape)
        losses = knp.xent_steps(knp.xent_seed(p, y, gscale, got)[None],
                                y[None])[0]
        for t in range(3):
            knp.xent_seed(p[t], y[t], gscale[t, 0, 0], want[t])
            assert losses[t] == knp.xent_fwd(p[t], y[t])
        assert np.array_equal(got, want)


def test_xent_on_int8_labels_equals_float_labels_bitwise():
    """Training keeps its 0/1 labels as int8: `xent_seed` and `xent_steps`
    on them write the same seed, clip and losses, bit for bit, as on the
    same labels as float64, clipped rows included."""
    rng = np.random.default_rng(8)
    for shape in ((1, 2, 1, 1), (8, 2, 512, 1), (3, 3, 7, 1)):
        p = _clipped_probs(rng, shape)
        y8 = rng.integers(0, 2, shape).astype(np.int8)
        gscale = rng.random(shape[:2] + (1, 1))
        seeds = rng.standard_normal((2,) + shape)
        clips = [knp.xent_seed(p, y, gscale, out)
                 for y, out in zip((y8, y8.astype(np.float64)), seeds)]
        assert seeds[0].tobytes() == seeds[1].tobytes()
        assert clips[0].tobytes() == clips[1].tobytes()
        assert knp.xent_steps(clips[0], y8).tobytes() == knp.xent_steps(
            clips[1], y8.astype(np.float64)).tobytes()


def test_xent_seed_is_the_cross_entropy_gradient_at_the_logit():
    """The seed equals, to rel 1e-15, the autodiff gradient at the logit
    of gscale times the cross-entropy of its sigmoid."""
    rng = np.random.default_rng(6)
    for n in (1, 7, 128):
        z = ad.Param(rng.uniform(-20.0, 20.0, (n, 1)), name="z")
        y = rng.integers(0, 2, n)
        prob = ad.sigmoid(z)
        ad.backward(ad.scale(cross_entropy(prob, y), -0.7))
        seed = np.empty((n, 1))
        knp.xent_seed(prob.value, y.astype(np.float64).reshape(-1, 1), -0.7,
                      seed)
        assert_allclose(seed, z.grad, rtol=1e-15, atol=0.0)


def test_xent_seed_is_zero_where_the_clip_is_active():
    """Rows whose logit puts p beyond the clip, either way, get a seed of
    exactly 0 whatever their label; the rest get (p - y) / n."""
    z = np.array([[-700.0], [-40.0], [-28.0], [28.0], [40.0], [800.0],
                  [-27.0], [0.3], [27.0]])
    p = knp.sigmoid_fwd(z)
    for label in (0.0, 1.0):
        y = np.full(p.shape, label)
        seed = np.full(p.shape, np.nan)
        knp.xent_seed(p, y, 1.0, seed)
        assert np.array_equal(seed[:6], np.zeros((6, 1)))
        assert np.array_equal(seed[6:], (p[6:] - y[6:]) * (1.0 / len(p)))
        assert np.all(seed[6:] != 0.0)


def _bwd_case(name, rng):
    """A call of kernel `name` that adds into its list of output arrays, and
    the shapes of those arrays."""
    x, g, s = (rng.standard_normal((6, 5)) for _ in range(3))
    p = rng.random((7, 1))
    y = rng.integers(0, 2, (7, 1)).astype(np.float64)
    u, v = rng.standard_normal((4, 1)), rng.standard_normal((3, 1))
    k, gk = knp.gauss_fwd(u, v, 0.5), rng.standard_normal((4, 3))
    return {
        "relu_bwd": (lambda a: knp.relu_bwd(x, g, a[0]), [x.shape]),
        "sigmoid_bwd": (lambda a: knp.sigmoid_bwd(s, g, a[0]), [x.shape]),
        "xent_bwd": (lambda a: knp.xent_bwd(p, y, 0.7, a[0]), [p.shape]),
        "gauss_bwd": (lambda a: knp.gauss_bwd(u, v, k, gk, 0.5, *a),
                      [u.shape, v.shape]),
    }[name]


@pytest.mark.parametrize("name", ["relu_bwd", "sigmoid_bwd", "xent_bwd",
                                  "gauss_bwd"])
def test_backward_kernels_accumulate_in_place(name):
    rng = np.random.default_rng(0)
    call, shapes = _bwd_case(name, rng)
    start = [rng.standard_normal(shape) for shape in shapes]
    acc = [a.copy() for a in start]
    call(acc)
    once = [a - a0 for a, a0 in zip(acc, start)]
    assert all(np.any(d != 0) for d in once)
    call(acc)
    for a, a0, d in zip(acc, start, once):
        assert_allclose(a, a0 + 2 * d, rtol=1e-12, atol=1e-12)


def test_adagrad_on_a_flat_view_is_per_param_calls():
    """One call on a (1, N) vector of concatenated parameters equals one
    call per parameter, bit for bit."""
    rng = np.random.default_rng(7)
    shapes = [(4, 3), (1, 3), (3, 1), (1, 1), (5, 2)]
    params = [rng.standard_normal(s) * 3.0 for s in shapes]
    grads = [rng.standard_normal(s) * 3.0 for s in shapes]
    accs = [np.abs(rng.standard_normal(s) * 3.0) for s in shapes]

    def flat(arrays):
        return np.concatenate([a.ravel() for a in arrays]).reshape(1, -1)
    p_flat, a_flat = flat(params), flat(accs)
    knp.adagrad_step(p_flat, flat(grads), a_flat, 0.05, 1e-8)
    for p, g, a in zip(params, grads, accs):
        knp.adagrad_step(p, g, a, 0.05, 1e-8)
    assert p_flat.tobytes() == flat(params).tobytes()
    assert a_flat.tobytes() == flat(accs).tobytes()
