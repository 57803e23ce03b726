#!/usr/bin/env python3
"""Per-call timings of the numpy training kernels.

Runs each hot kernel on training-shaped inputs and prints per-call times:
for cross-entropy, what a training step calls, `xent_seed` on the
(T, n, 1) stack, and the loss pass an epoch ends with, `xent_steps` over
an epoch's steps (T = 2, 6400 rows); `xent_fwd` and `xent_bwd` on one
column serve the autodiff reference alone.  It then times one MMD
fairness term both ways: from the exact Gaussian kernel blocks and from
the truncated Taylor feature map that training uses for bandwidths of
about 0.5 and wider.
Invoke directly:  python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from fairmtl import _kernels_np as knp
from fairmtl import losses


def timeit(fn, repeats):
    fn()  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def cases(rng):
    """(name, call) of each kernel at shapes met in training: batch 128,
    a 16-wide shared layer, one logit column per task, T = 2 tasks over a
    6400-row epoch, and the kernel blocks that narrow-kernel MMD builds
    between group subsets of a 512-row batch (about 120 x 120 typical,
    240 x 240 at most)."""
    x = rng.standard_normal((128, 16))
    g = rng.standard_normal((128, 16))
    acc = np.zeros_like(x)
    p = rng.random((128, 1))
    y = rng.integers(0, 2, (128, 1)).astype(np.float64)
    pacc = np.zeros_like(p)
    ps, ys = rng.random((2, 128, 1)), rng.integers(0, 2, (2, 128, 1)) * 1.0
    seed, gscale = np.empty_like(ps), np.array([0.6, 0.4]).reshape(2, 1, 1)
    # an epoch's 50 steps: their clipped p in turn, their labels as views
    pe, pe_work = rng.random((50, 2, 128, 1)), np.empty((50, 2, 128, 1))
    ye = (rng.integers(0, 2, (2, 6400, 1)) * 1.0).reshape(
        2, 50, 128, 1).swapaxes(0, 1)

    def epoch_losses():
        np.copyto(pe_work, pe)   # xent_steps overwrites its p
        return knp.xent_steps(pe_work, ye)
    blocks = {n: (rng.random((n, 1)), rng.random((n, 1))) for n in (120, 240)}
    u, v = blocks[120]
    kmat = knp.gauss_fwd(u, v, 0.5)
    kg = rng.standard_normal(kmat.shape)
    du, dv = np.zeros_like(u), np.zeros_like(v)
    w = rng.standard_normal((16, 8))
    wg = rng.standard_normal((16, 8))
    wacc = np.abs(rng.standard_normal((16, 8)))
    return [
        ("relu_fwd 128x16", lambda: knp.relu_fwd(x)),
        ("relu_bwd 128x16", lambda: knp.relu_bwd(x, g, acc)),
        ("sigmoid_fwd 128x1", lambda: knp.sigmoid_fwd(p)),
        ("xent_seed 2x128x1", lambda: knp.xent_seed(ps, ys, gscale, seed)),
        ("xent_steps 50x2x128x1", epoch_losses),
        ("xent_fwd 128x1 (ref)", lambda: knp.xent_fwd(p, y)),
        ("xent_bwd 128x1 (ref)", lambda: knp.xent_bwd(p, y, 1.0, pacc)),
        ("gauss_fwd 120x120", lambda: knp.gauss_fwd(u, v, 0.5)),
        ("gauss_fwd 240x240", lambda: knp.gauss_fwd(*blocks[240], 0.5)),
        ("gauss_bwd 120x120",
         lambda: knp.gauss_bwd(u, v, kmat, kg, 0.5, du, dv)),
        ("adagrad 16x8", lambda: knp.adagrad_step(w, wg, wacc, 0.05, 1e-8)),
    ]


def mmd_cases(rng):
    """One MMD term between two groups of a batch's probabilities, bw 1.0:
    about 120 + 120 rows at batch 512 and 240 + 240 at most."""
    def case(n):
        p = rng.random((2 * n, 1))
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
    print(f"{'kernel':24s} {'us':>10s}")
    for name, fn in cases(rng):
        print(f"{name:24s} {timeit(fn, args.repeats) * 1e6:10.1f}")

    print(f"\n{'MMD term, bw 1.0':22s} {'blocks us':>10s} {'features us':>12s} "
          f"{'speedup':>8s}")
    for name, blocks, features in mmd_cases(rng):
        tb, tf = timeit(blocks, args.repeats), timeit(features, args.repeats)
        print(f"{name:22s} {tb * 1e6:10.1f} {tf * 1e6:12.1f} {tb / tf:8.2f}x")


if __name__ == "__main__":
    main()
