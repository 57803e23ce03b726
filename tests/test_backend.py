"""Compiled-extension kernels against the numpy fallback.

A session fixture compiles `fairmtl._ckernels` from the committed
`_ckernels.c` into a temporary directory with `setup.py build_ext`, so no
extension is left under src/ and the rest of the suite keeps the numpy
backend.  This process loads the built module directly; subprocesses, which
exercise the environment-variable selection, load it before importing
fairmtl.  The suite skips only when no C compiler exists.

The two implementations may differ by an ulp where libm's vectorized and
scalar exp disagree, so value checks use tight-but-nonzero tolerances.
"""

import importlib.util
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fairmtl
from fairmtl import _kernels_np as knp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fairmtl.__file__)))
TIGHT = dict(rtol=1e-12, atol=1e-14)


@pytest.fixture(scope="session")
def ckernels_path(tmp_path_factory):
    """Path of a `fairmtl._ckernels` built for this session."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc!r} not found) to build _ckernels")
    out = tmp_path_factory.mktemp("ckernels")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib",
         str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True)
    built = sorted((out / "lib" / "fairmtl").glob("_ckernels*"))
    if build.returncode or not built:
        pytest.fail(f"building _ckernels failed:\n{build.stdout}"
                    f"{build.stderr}")
    return str(built[0])


@pytest.fixture(scope="session")
def kc(ckernels_path):
    """The built extension, loaded without touching `fairmtl.backend`."""
    spec = importlib.util.spec_from_file_location("fairmtl._ckernels",
                                                  ckernels_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_child(code, ckernels_path, kernels=None, check=True):
    """Run `code` in a fresh interpreter that imports this process's fairmtl
    and finds the built extension as `fairmtl._ckernels`, with
    FAIRMTL_KERNELS set to `kernels` (unset when None)."""
    prelude = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location("
        f"'fairmtl._ckernels', {ckernels_path!r})\n"
        "sys.modules[spec.name] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(sys.modules[spec.name])\n")
    env = {k: v for k, v in os.environ.items() if k != "FAIRMTL_KERNELS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    if kernels is not None:
        env["FAIRMTL_KERNELS"] = kernels
    return subprocess.run([sys.executable, "-c", prelude + code], env=env,
                          capture_output=True, text=True, check=check)


def arr(rng, shape, scale=3.0):
    return np.ascontiguousarray(rng.standard_normal(shape) * scale)


class TestKernelEquivalence:
    def test_relu_fwd_exact(self, kc):
        rng = np.random.default_rng(0)
        x = arr(rng, (64, 33))
        x[0, 0] = 0.0
        assert np.array_equal(knp.relu_fwd(x), kc.relu_fwd(x))

    def test_relu_bwd_exact(self, kc):
        rng = np.random.default_rng(1)
        x, g = arr(rng, (32, 17)), arr(rng, (32, 17))
        a1 = np.ones_like(x)
        a2 = np.ones_like(x)
        knp.relu_bwd(x, g, a1)
        kc.relu_bwd(x, g, a2)
        assert np.array_equal(a1, a2)

    def test_sigmoid_pair(self, kc):
        rng = np.random.default_rng(2)
        x = arr(rng, (50, 21), scale=6.0)
        s1, s2 = knp.sigmoid_fwd(x), kc.sigmoid_fwd(x)
        assert_allclose(s2, s1, **TIGHT)
        g = arr(rng, (50, 21))
        a1, a2 = np.zeros_like(x), np.zeros_like(x)
        knp.sigmoid_bwd(s1, g, a1)
        kc.sigmoid_bwd(s1, g, a2)
        assert_allclose(a2, a1, **TIGHT)

    def test_xent_pair_including_clipped_region(self, kc):
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

    def test_gauss_pair(self, kc):
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

    def test_adagrad_pair(self, kc):
        rng = np.random.default_rng(5)
        p1 = arr(rng, (20, 10))
        g = arr(rng, (20, 10))
        acc1 = np.abs(arr(rng, (20, 10)))
        p2, acc2 = p1.copy(), acc1.copy()
        knp.adagrad_step(p1, g, acc1, 0.05, 1e-8)
        kc.adagrad_step(p2, g, acc2, 0.05, 1e-8)
        assert_allclose(p2, p1, **TIGHT)
        assert_allclose(acc2, acc1, **TIGHT)

    def test_adagrad_on_a_flat_view_is_per_param_calls(self, kc):
        """One call on a (1, N) vector of concatenated parameters equals
        one call per parameter, bit for bit, on either backend."""
        rng = np.random.default_rng(7)
        shapes = [(4, 3), (1, 3), (3, 1), (1, 1), (5, 2)]
        params = [arr(rng, s) for s in shapes]
        grads = [arr(rng, s) for s in shapes]
        accs = [np.abs(arr(rng, s)) for s in shapes]

        def flat(arrays):
            return np.concatenate([a.ravel() for a in arrays]).reshape(1, -1)
        for mod in (knp, kc):
            p_flat, a_flat = flat(params), flat(accs)
            mod.adagrad_step(p_flat, flat(grads), a_flat, 0.05, 1e-8)
            p_each = [p.copy() for p in params]
            a_each = [a.copy() for a in accs]
            for p, g, a in zip(p_each, grads, a_each):
                mod.adagrad_step(p, g, a, 0.05, 1e-8)
            assert p_flat.tobytes() == flat(p_each).tobytes()
            assert a_flat.tobytes() == flat(a_each).tobytes()

    def test_backward_kernels_accumulate(self, kc):
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
    def test_auto_picks_the_extension_when_importable(self, ckernels_path):
        out = run_child("import fairmtl.backend as b; print(b.BACKEND)",
                        ckernels_path)
        assert out.stdout.strip() == "compiled"

    @pytest.mark.parametrize("forced", ["numpy", "compiled"])
    def test_env_var_forces_backend(self, forced, ckernels_path):
        out = run_child("import fairmtl.backend as b; print(b.BACKEND)",
                        ckernels_path, forced)
        assert out.stdout.strip() == forced

    def test_invalid_selector_rejected(self, ckernels_path):
        out = run_child("import fairmtl.backend", ckernels_path, "cuda",
                        check=False)
        assert out.returncode != 0
        assert "FAIRMTL_KERNELS" in out.stderr

    def test_compiled_xent_is_its_two_kernels(self, ckernels_path):
        """The compiled backend's `xent` writes exactly the numpy
        `xent_seed`'s seed at the logit (0 on the clipped rows) and returns
        exactly its own `xent_fwd`'s value, on one column and on each
        column of a stack."""
        code = """
import numpy as np
from fairmtl import _kernels_np as knp
from fairmtl.backend import BACKEND, kernels as k
rng = np.random.default_rng(3)
p = np.ascontiguousarray(rng.random((257, 1)))
p[:4, 0] = (0.0, 1.0, 1e-13, 1.0 - 1e-13)
y = np.ascontiguousarray(rng.integers(0, 2, (257, 1)).astype(np.float64))
a1, a2 = np.empty((257, 1)), rng.standard_normal((257, 1))
knp.xent_seed(p, y, -0.7, a1)
value = k.xent(p, y, -0.7, a2)
print(BACKEND, value == k.xent_fwd(p, y),
      np.array_equal(a1, a2) and not a2[:4].any())
ps, ys = np.stack([p, p[::-1].copy()]), np.stack([y, 1.0 - y])
a3, a4 = rng.standard_normal((2, 257, 1)), np.empty((2, 257, 1))
values = k.xent(ps, ys, np.array([0.4, -1.1]).reshape(-1, 1, 1), a3)
for t, g in enumerate((0.4, -1.1)):
    knp.xent_seed(ps[t], ys[t], g, a4[t])
print(list(values) == [k.xent_fwd(ps[t], ys[t]) for t in range(2)],
      np.array_equal(a3, a4))
"""
        out = run_child(code, ckernels_path, "compiled")
        assert out.stdout.split() == ["compiled", "True", "True", "True",
                                      "True"]

    def test_training_agrees_across_backends(self, ckernels_path):
        """End-to-end: a short training run lands on near-identical params
        under either backend, element by element."""
        code = """
import json
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
state = {p.name: p.value.tolist() for p in run.model.all_params}
print(json.dumps(dict(sorted(state.items()))))
"""
        params = {forced: json.loads(run_child(code, ckernels_path,
                                               forced).stdout)
                  for forced in ("numpy", "compiled")}
        assert params["numpy"].keys() == params["compiled"].keys()
        for name in params["numpy"]:
            assert_allclose(params["compiled"][name], params["numpy"][name],
                            rtol=1e-9, atol=1e-9, err_msg=name)
