#!/usr/bin/env python3
"""Timing comparison of the compiled kernels against the numpy fallback.

Runs each hot kernel on training-shaped inputs and prints per-call times:
for cross-entropy, what a training step calls, `xent_seed` on the
(T, n, 1) stack (numpy on either backend), and the loss pass an epoch ends
with, `xent_steps` over an epoch's steps (T = 2, 6400 rows); `xent_fwd` and
`xent_bwd` on one column serve the autodiff reference alone.  It then
times one MMD fairness term both ways: from the exact Gaussian kernel
blocks (on the active backend's `gauss_fwd`) and from the truncated Taylor
feature map that training uses for bandwidths of about 0.5 and wider.
Invoke directly:  python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from fairmtl import _kernels_np as knp
from fairmtl import losses
from fairmtl.backend import BACKEND, compiled

try:
    from fairmtl import _ckernels as kc
except ImportError:
    kc = None


def timeit(fn, repeats):
    fn()  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def cases(rng):
    """Shapes met in training: batch 128, a 16-wide shared layer, one logit
    column per task, T = 2 tasks over a 6400-row epoch, and the kernel
    blocks that narrow-kernel MMD builds between group subsets of a
    512-row batch (about 120 x 120 typical, 240 x 240 at most)."""
    x = np.ascontiguousarray(rng.standard_normal((128, 16)))
    g = np.ascontiguousarray(rng.standard_normal((128, 16)))
    acc = np.zeros_like(x)
    p = np.ascontiguousarray(rng.random((128, 1)))
    y = np.ascontiguousarray(rng.integers(0, 2, (128, 1)).astype(np.float64))
    pacc = np.zeros_like(p)
    ps, ys = rng.random((2, 128, 1)), rng.integers(0, 2, (2, 128, 1)) * 1.0
    seed, gscale = np.empty_like(ps), np.array([0.6, 0.4]).reshape(2, 1, 1)
    # an epoch's 50 steps: their clipped p in turn, their labels as views
    pe, pe_work = rng.random((50, 2, 128, 1)), np.empty((50, 2, 128, 1))
    ye = (rng.integers(0, 2, (2, 6400, 1)) * 1.0).reshape(
        2, 50, 128, 1).swapaxes(0, 1)

    def epoch_losses(mod):
        np.copyto(pe_work, pe)   # xent_steps overwrites its p
        return mod.xent_steps(pe_work, ye)
    blocks = {n: (np.ascontiguousarray(rng.random((n, 1))),
                  np.ascontiguousarray(rng.random((n, 1)))) for n in (120, 240)}
    u, v = blocks[120]
    kmat = knp.gauss_fwd(u, v, 0.5)
    kg = np.ascontiguousarray(rng.standard_normal(kmat.shape))
    du, dv = np.zeros_like(u), np.zeros_like(v)
    w = np.ascontiguousarray(rng.standard_normal((16, 8)))
    wg = np.ascontiguousarray(rng.standard_normal((16, 8)))
    wacc = np.abs(np.ascontiguousarray(rng.standard_normal((16, 8))))

    def make(mod):
        return [
            ("relu_fwd 128x16", lambda: mod.relu_fwd(x)),
            ("relu_bwd 128x16", lambda: mod.relu_bwd(x, g, acc)),
            ("sigmoid_fwd 128x1", lambda: mod.sigmoid_fwd(p)),
            ("xent_seed 2x128x1",
             lambda: mod.xent_seed(ps, ys, gscale, seed)),
            ("xent_steps 50x2x128x1", lambda: epoch_losses(mod)),
            ("xent_fwd 128x1 (ref)", lambda: mod.xent_fwd(p, y)),
            ("xent_bwd 128x1 (ref)", lambda: mod.xent_bwd(p, y, 1.0, pacc)),
            ("gauss_fwd 120x120", lambda: mod.gauss_fwd(u, v, 0.5)),
            ("gauss_fwd 240x240", lambda: mod.gauss_fwd(*blocks[240], 0.5)),
            ("gauss_bwd 120x120",
             lambda: mod.gauss_bwd(u, v, kmat, kg, 0.5, du, dv)),
            ("adagrad 16x8", lambda: mod.adagrad_step(w, wg, wacc, 0.05, 1e-8)),
        ]
    return make


def mmd_cases(rng):
    """One MMD term between two groups of a batch's probabilities, bw 1.0:
    about 120 + 120 rows at batch 512 and 240 + 240 at most."""
    def case(n):
        p = np.ascontiguousarray(rng.random((2 * n, 1)))
        g0, g1 = np.arange(n), np.arange(n, 2 * n)
        return (f"mmd term {n}+{n}",
                lambda: losses._mmd_blocks(p, g0, g1, 1.0),
                lambda: losses._mmd(p, g0, g1, 1.0))
    return [case(n) for n in (120, 240)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=200)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    make = cases(rng)
    numpy_rows = [(name, timeit(fn, args.repeats)) for name, fn in make(knp)]
    if kc is None:
        print("compiled extension not available; numpy-only timings")
        for name, t in numpy_rows:
            print(f"{name:24s} numpy {t * 1e6:9.1f} us")
    else:
        compiled_rows = [(name, timeit(fn, args.repeats))
                         for name, fn in make(compiled(kc))]
        print(f"{'kernel':24s} {'numpy us':>10s} {'compiled us':>12s} {'speedup':>8s}")
        for (name, tn), (_, tc) in zip(numpy_rows, compiled_rows):
            print(f"{name:24s} {tn * 1e6:10.1f} {tc * 1e6:12.1f} {tn / tc:8.2f}x")

    print(f"\n{'MMD term, bw 1.0':22s} {'blocks us':>10s} {'features us':>12s} "
          f"{'speedup':>8s}   (blocks on the {BACKEND} backend)")
    for name, blocks, features in mmd_cases(rng):
        tb, tf = timeit(blocks, args.repeats), timeit(features, args.repeats)
        print(f"{name:22s} {tb * 1e6:10.1f} {tf * 1e6:12.1f} {tb / tf:8.2f}x")


if __name__ == "__main__":
    main()
