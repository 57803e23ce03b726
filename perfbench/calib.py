"""The machine's reference speed, sampled between measured units.

On a shared host the same code can run 1.4x slower a few seconds later, and
the slow stretches last from a fraction of a second to minutes.  The
benchmark therefore runs a fixed reference unit (a mix of small Python
objects and small numpy operations, like a training step, but no fairmtl
code) in short samples next to each measured unit, and scales every time by
NOMINAL_S / (the reference time measured next to it).  A scaled time reads
as seconds at the speed where one reference unit takes NOMINAL_S.  A change
to fairmtl moves the measured time and leaves the reference alone, so the
scaled time moves with it; a slow stretch of the machine moves both.
"""

import gc
import statistics
import time

import numpy as np

# Seconds one reference unit takes at the nominal speed: about its time on a
# quiet 2-vCPU KVM guest (Intel Xeon, 2.0 GHz).
NOMINAL_S = 0.003
UNITS_PER_SAMPLE = 6

_rng = np.random.default_rng(20240601)
_X = _rng.standard_normal((128, 16))
_W = _rng.standard_normal((16, 16)) * 0.1
_U = _rng.standard_normal((96, 1))
_V = _rng.standard_normal((80, 1))


class _Node:
    __slots__ = ("value", "parents", "grad", "backward")

    def __init__(self, value, parents):
        self.value, self.parents = value, parents
        self.grad, self.backward = None, None


def reference_unit():
    """Fixed work: an arithmetic loop, a chain of small nodes with closures,
    then small array operations.  Returns a number so nothing is optimised
    away."""
    total = 0.0
    for i in range(15000):
        total += i * i
    node = _Node(0.0, ())
    for i in range(1000):
        parent = node
        node = _Node(parent.value + i * 0.5, (parent,))
        node.backward = lambda g, p=parent: p.value * g
    seen = {}
    while node.parents:
        seen[id(node)] = node.backward(1.0)
        total += seen[id(node)]
        node = node.parents[0]
    for _ in range(20):
        h = np.maximum(_X @ _W, 0.0)
        p = 1.0 / (1.0 + np.exp(-h.sum(axis=1)))
        d = _U - _V.T
        k = np.exp(-0.5 * d * d)
        total += float(p.mean()) + float(k.sum())
    return total


def sample(units=UNITS_PER_SAMPLE):
    """(median seconds of one reference unit, seconds the sample took).

    The garbage collector is off during the sample: a collection would scan
    the program's objects, and their number is the program's, not the
    machine's."""
    enabled = gc.isenabled()
    gc.disable()
    times = []
    started = time.perf_counter()
    try:
        for _ in range(units):
            t = time.perf_counter()
            reference_unit()
            times.append(time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times), time.perf_counter() - started


def scale(seconds, reference_s):
    """A measured time in seconds at the nominal reference speed."""
    return seconds * NOMINAL_S / reference_s
