"""Compiled-extension kernels against the numpy fallback.

The two implementations may differ by an ulp where libm's vectorized and
scalar exp disagree, so value checks use tight-but-nonzero tolerances.
Environment-variable selection is exercised in subprocesses.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairmtl import _kernels_np as knp
from fairmtl import backend

kc = pytest.importorskip("fairmtl._ckernels")

TIGHT = dict(rtol=1e-12, atol=1e-14)


def env_with(kernels):
    """This process's environment (so the child imports the same fairmtl)
    with the backend selector overridden."""
    return {**os.environ, "FAIRMTL_KERNELS": kernels}


def arr(rng, shape, scale=3.0):
    return np.ascontiguousarray(rng.standard_normal(shape) * scale)


class TestKernelEquivalence:
    def test_relu_fwd_exact(self):
        rng = np.random.default_rng(0)
        x = arr(rng, (64, 33))
        x[0, 0] = 0.0
        assert np.array_equal(knp.relu_fwd(x), kc.relu_fwd(x))

    def test_relu_bwd_exact(self):
        rng = np.random.default_rng(1)
        x, g = arr(rng, (32, 17)), arr(rng, (32, 17))
        a1 = np.ones_like(x)
        a2 = np.ones_like(x)
        knp.relu_bwd(x, g, a1)
        kc.relu_bwd(x, g, a2)
        assert np.array_equal(a1, a2)

    def test_sigmoid_pair(self):
        rng = np.random.default_rng(2)
        x = arr(rng, (50, 21), scale=6.0)
        s1, s2 = knp.sigmoid_fwd(x), kc.sigmoid_fwd(x)
        assert_allclose(s2, s1, **TIGHT)
        g = arr(rng, (50, 21))
        a1, a2 = np.zeros_like(x), np.zeros_like(x)
        knp.sigmoid_bwd(s1, g, a1)
        kc.sigmoid_bwd(s1, g, a2)
        assert_allclose(a2, a1, **TIGHT)

    def test_xent_pair_including_clipped_region(self):
        rng = np.random.default_rng(3)
        p = np.ascontiguousarray(rng.random((257, 1)))
        p[0, 0] = 0.0   # exercises the clip
        p[1, 0] = 1.0
        y = np.ascontiguousarray(
            rng.integers(0, 2, (257, 1)).astype(np.float64))
        assert knp.xent_fwd(p, y) == pytest.approx(kc.xent_fwd(p, y),
                                                   rel=1e-12)
        a1, a2 = np.zeros_like(p), np.zeros_like(p)
        knp.xent_bwd(p, y, 0.7, a1)
        kc.xent_bwd(p, y, 0.7, a2)
        assert_allclose(a2, a1, rtol=1e-12)
        assert a1[0, 0] == a2[0, 0] == 0.0  # clipped entries get no gradient

    def test_gauss_pair(self):
        rng = np.random.default_rng(4)
        u, v = arr(rng, (40, 1), 1.0), arr(rng, (31, 1), 1.0)
        k1, k2 = knp.gauss_fwd(u, v, 0.5), kc.gauss_fwd(u, v, 0.5)
        assert_allclose(k2, k1, **TIGHT)
        g = arr(rng, (40, 31), 1.0)
        du1, dv1 = np.zeros_like(u), np.zeros_like(v)
        du2, dv2 = np.zeros_like(u), np.zeros_like(v)
        knp.gauss_bwd(u, v, k1, g, 0.5, du1, dv1)
        kc.gauss_bwd(u, v, k1, g, 0.5, du2, dv2)
        assert_allclose(du2, du1, **TIGHT)
        assert_allclose(dv2, dv1, **TIGHT)

    def test_adagrad_pair(self):
        rng = np.random.default_rng(5)
        p1 = arr(rng, (20, 10))
        g = arr(rng, (20, 10))
        acc1 = np.abs(arr(rng, (20, 10)))
        p2, acc2 = p1.copy(), acc1.copy()
        knp.adagrad_step(p1, g, acc1, 0.05, 1e-8)
        kc.adagrad_step(p2, g, acc2, 0.05, 1e-8)
        assert_allclose(p2, p1, **TIGHT)
        assert_allclose(acc2, acc1, **TIGHT)

    def test_backward_kernels_accumulate(self):
        # both backends add into acc rather than overwrite
        rng = np.random.default_rng(6)
        x, g = arr(rng, (8, 8)), arr(rng, (8, 8))
        for mod in (knp, kc):
            acc = np.zeros_like(x)
            mod.relu_bwd(x, g, acc)
            once = acc.copy()
            mod.relu_bwd(x, g, acc)
            assert_allclose(acc, 2 * once, rtol=1e-15)


class TestSelection:
    def test_active_backend_is_compiled_here(self):
        # the editable install builds the extension; auto must pick it
        assert backend.BACKEND == "compiled"

    @pytest.mark.parametrize("forced", ["numpy", "compiled"])
    def test_env_var_forces_backend(self, forced):
        code = ("import fairmtl.backend as b; print(b.BACKEND)")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env_with(forced),
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == forced

    def test_invalid_selector_rejected(self):
        code = ("import fairmtl.backend")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env_with("cuda"),
            capture_output=True, text=True)
        assert out.returncode != 0
        assert "FAIRMTL_KERNELS" in out.stderr

    def test_training_agrees_across_backends(self):
        """End-to-end: a short training run lands on near-identical params
        under either backend."""
        code = """
import json, sys
import numpy as np
from fairmtl.data import SynthSpec, synth_generate
from fairmtl.model import ArchConfig
from fairmtl.trainer import TrainConfig, train
ds = synth_generate(SynthSpec(n=200, positive_rates=((0.2, 0.4), (0.5, 0.3))), seed=1)
cfg = TrainConfig(method="mtaf", task_weights=(0.5, 0.5),
                  fairness_weights=(1.0, 1.0), learning_rate=0.1,
                  epochs=2, batch_size=64, seed=0)
arch = ArchConfig(num_tasks=2, shared_layer_sizes=(8,), head_layer_sizes=(4,),
                  embedding_dim=4)
run = train(ds, arch, cfg)
state = run.model.param_state()
print(json.dumps({k: float(np.sum(v)) for k, v in sorted(state.items())}))
"""
        sums = {}
        for forced in ("numpy", "compiled"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env_with(forced),
                capture_output=True, text=True, check=True)
            import json
            sums[forced] = json.loads(out.stdout)
        assert sums["numpy"].keys() == sums["compiled"].keys()
        for name in sums["numpy"]:
            assert sums["numpy"][name] == pytest.approx(
                sums["compiled"][name], rel=1e-9, abs=1e-9), name
