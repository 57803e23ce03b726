"""The kernels `fairmtl.backend` hands to the trainer."""

import numpy as np
from numpy.testing import assert_allclose

from fairmtl import _kernels_np as knp
from fairmtl import backend


class TestKernelEquivalence:
    def test_backward_kernels_accumulate(self):
        # the backend's backward kernels add into acc rather than overwrite
        assert backend.kernels is knp
        rng = np.random.default_rng(6)
        x, g = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        acc = np.zeros_like(x)
        backend.kernels.relu_bwd(x, g, acc)
        once = acc.copy()
        assert np.any(once != 0)
        backend.kernels.relu_bwd(x, g, acc)
        assert_allclose(acc, 2 * once, rtol=1e-15)
