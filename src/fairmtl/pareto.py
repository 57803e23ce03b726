"""Pareto dominance, frontier extraction, and 2-D dominated hypervolume.

All objectives are minimized.  Equal objective vectors do not dominate each
other, so duplicate runs survive onto the frontier together.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError


@dataclass(frozen=True)
class ParetoPoint:
    objectives: tuple
    run_id: str = ""

    def __post_init__(self):
        obj = tuple(float(x) for x in self.objectives)
        if not obj:
            raise ContractError("ParetoPoint needs at least one objective")
        if not all(map(math.isfinite, obj)):
            raise ContractError(f"non-finite objectives {obj}")
        object.__setattr__(self, "objectives", obj)


def dominates(a, b):
    """True iff a is at least as good everywhere and strictly better once."""
    if len(a.objectives) != len(b.objectives):
        raise ContractError("dominance needs equal dimensionality")
    av, bv = a.objectives, b.objectives
    return all(x <= y for x, y in zip(av, bv)) and av != bv


def survivors(entries):
    """The (objectives, run_id, ...) tuples, of 2-D float objectives, that
    no other dominates, sorted: one sweep keeps a group of equal vectors
    whose y is below every earlier y (Kung, Luccio & Preparata 1975)."""
    keep, best, group = [], math.inf, None
    for entry in sorted(entries):
        if entry[0] != group:
            group = entry[0]
            survives = group[1] < best
            best = min(best, group[1])
        if survives:
            keep.append(entry)
    return keep


def frontier(points):
    """All points no other point dominates, sorted by (objectives, run_id):
    for two objectives, the `survivors`, with an index that breaks ties as
    a stable sort would; for others, by comparing all pairs."""
    points = list(points)
    if not points:
        raise ContractError("frontier of an empty set")
    dims = {len(p.objectives) for p in points}
    if len(dims) != 1:
        raise ContractError("mixed objective dimensionality")
    if dims == {2}:
        return [points[i] for *_, i in survivors(
            (p.objectives, p.run_id, i) for i, p in enumerate(points))]
    x = np.array([p.objectives for p in points])
    keep = []
    for i in range(len(points)):
        le = (x <= x[i]).all(axis=1)
        lt = (x < x[i]).any(axis=1)
        if not (le & lt).any():
            keep.append(points[i])
    keep.sort(key=lambda p: (p.objectives, p.run_id))
    return keep


def frontier_quality(points, reference):
    """Area dominated by the 2-D frontier, measured against a reference
    corner that every point must weakly dominate.  Larger is better."""
    reference = tuple(float(x) for x in reference)
    if len(reference) != 2:
        raise ContractError("frontier_quality is defined for 2-D objectives")
    front = frontier(points)
    if any(len(p.objectives) != 2 for p in front):
        raise ContractError("frontier_quality is defined for 2-D objectives")
    for p in front:
        if p.objectives[0] > reference[0] or p.objectives[1] > reference[1]:
            raise ContractError(
                f"point {p.objectives} lies beyond the reference {reference}")
    area = 0.0
    prev_y = reference[1]
    for p in front:
        px, py = p.objectives
        if py < prev_y:
            area += (reference[0] - px) * (prev_y - py)
            prev_y = py
    return area
