"""Dominance and frontier logic against a brute-force all-pairs oracle."""

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmtl.exceptions import ContractError
from fairmtl.pareto import (ParetoPoint, dominates, frontier, frontier_quality,
                            survivors)


def pp(*objectives, run_id=""):
    return ParetoPoint(objectives=objectives, run_id=run_id)


def test_dominates_fixtures():
    assert dominates(pp(0.1, 0.2), pp(0.2, 0.2))
    assert not dominates(pp(0.1, 0.2), pp(0.1, 0.2))
    assert not dominates(pp(0.1, 0.3), pp(0.2, 0.2))
    assert not dominates(pp(0.2, 0.2), pp(0.1, 0.2))
    with pytest.raises(ContractError):
        dominates(pp(0.1), pp(0.1, 0.2))


def test_point_validation():
    with pytest.raises(ContractError):
        ParetoPoint(objectives=())
    with pytest.raises(ContractError):
        ParetoPoint(objectives=(0.1, float("nan")))
    with pytest.raises(ContractError):
        ParetoPoint(objectives=(float("inf"),))


def test_frontier_singleton():
    p = pp(0.4, 0.4)
    assert frontier([p]) == [p]


def test_frontier_four_point_example():
    pts = [pp(0.1, 0.3), pp(0.2, 0.2), pp(0.3, 0.1), pp(0.25, 0.25)]
    got = frontier(pts)
    assert got == [pp(0.1, 0.3), pp(0.2, 0.2), pp(0.3, 0.1)]


def test_frontier_keeps_duplicates():
    a = pp(0.1, 0.2, run_id="a")
    b = pp(0.1, 0.2, run_id="b")
    got = frontier([a, b, pp(0.3, 0.3, run_id="c")])
    assert got == [a, b]


def test_frontier_empty_error():
    with pytest.raises(ContractError):
        frontier([])
    with pytest.raises(ContractError):
        frontier([pp(0.1), pp(0.1, 0.2)])


def brute_force_frontier(points):
    out = []
    for p in points:
        if not any(dominates(q, p) for q in points):
            out.append(p)
    return sorted(out, key=lambda p: (p.objectives, p.run_id))


def test_frontier_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    pts = [ParetoPoint(objectives=tuple(rng.uniform(0, 1, 4)),
                       run_id=f"r{i}")
           for i in range(1000)]
    # a few duplicates to exercise the retain rule
    pts += [ParetoPoint(objectives=pts[0].objectives, run_id="dup")]
    assert frontier(pts) == brute_force_frontier(pts)


# Lattice values make ties and exact duplicates common; -0.0 sits next to
# 0.0, which compares equal to it.
COORD = st.one_of(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]),
                  st.floats(-1.0, 1.0, allow_nan=False))
RUN_ID = st.sampled_from(["", "a", "b", "c"])


@st.composite
def point_sets(draw, dims=st.integers(1, 3)):
    dim = draw(dims)
    cases = draw(st.lists(
        st.tuples(st.lists(COORD, min_size=dim, max_size=dim), RUN_ID),
        min_size=1, max_size=40))
    points = [ParetoPoint(tuple(o), run_id=r) for o, r in cases]
    # exact duplicates, under the same run id or another one
    for i, run_id in draw(st.lists(
            st.tuples(st.integers(0, len(points) - 1),
                      st.one_of(st.none(), RUN_ID)), max_size=10)):
        points.append(ParetoPoint(
            points[i].objectives,
            run_id=points[i].run_id if run_id is None else run_id))
    return draw(st.permutations(points))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(point_sets())
def test_frontier_matches_all_pairs_oracle(points):
    got, want = frontier(points), oracles.frontier(points)
    # the same point objects in the same order, so -0.0 and 0.0 stay apart
    assert [id(p) for p in got] == [id(p) for p in want]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(point_sets(dims=st.just(2)))
def test_survivors_match_all_pairs_oracle(points):
    """`survivors` of plain (objectives, run_id) tuples keeps the entries
    of the points the oracle keeps, in its order."""
    entries = [(p.objectives, p.run_id) for p in points]
    entry_of = {id(p): e for p, e in zip(points, entries)}
    # the same tuples in the same order, so -0.0 and 0.0 stay apart
    assert [id(e) for e in survivors(entries)] == [
        id(entry_of[id(p)]) for p in oracles.frontier(points)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(point_sets(dims=st.just(2)), point_sets(dims=st.sampled_from([1, 3])))
def test_frontier_refuses_mixed_dimensionality(two_d, other):
    points = two_d + other
    for extract in (frontier, oracles.frontier):
        with pytest.raises(ContractError, match="mixed"):
            extract(points)


def test_frontier_idempotent_and_covering():
    rng = np.random.default_rng(1)
    pts = [ParetoPoint(objectives=tuple(rng.uniform(0, 1, 3)),
                       run_id=f"r{i}") for i in range(200)]
    front = frontier(pts)
    assert frontier(front) == front
    for a in front:
        for b in front:
            assert not dominates(a, b)
    kept = set(id(p) for p in front)
    for p in pts:
        if id(p) not in kept:
            assert any(dominates(q, p) for q in front)


def test_quality_unit_square():
    assert frontier_quality([pp(0.0, 0.0)], (1.0, 1.0)) == pytest.approx(1.0)


def test_quality_two_point_staircase():
    pts = [pp(0.0, 0.5), pp(0.5, 0.0)]
    assert frontier_quality(pts, (1.0, 1.0)) == pytest.approx(0.75, abs=1e-12)


def test_quality_ignores_dominated_points():
    pts = [pp(0.0, 0.5), pp(0.5, 0.0)]
    more = pts + [pp(0.6, 0.6), pp(0.9, 0.2)]
    assert frontier_quality(more, (1.0, 1.0)) == pytest.approx(0.75, abs=1e-12)


def test_quality_monotone_under_union():
    rng = np.random.default_rng(2)
    pts = [pp(*rng.uniform(0, 1, 2)) for _ in range(50)]
    ref = (1.0, 1.0)
    q = frontier_quality(pts, ref)
    for _ in range(20):
        bigger = pts + [pp(*rng.uniform(0, 1, 2))]
        assert frontier_quality(bigger, ref) >= q - 1e-15


def test_quality_reference_violation():
    with pytest.raises(ContractError):
        frontier_quality([pp(1.5, 0.2)], (1.0, 1.0))
    with pytest.raises(ContractError):
        frontier_quality([pp(0.1, 0.2, run_id="x"),
                          ], (1.0,))


def test_quality_requires_2d():
    with pytest.raises(ContractError):
        frontier_quality([pp(0.1, 0.2, 0.3)], (1.0, 1.0))


def test_quality_staircase_against_grid_oracle():
    """Monte-Carlo-free oracle: rasterize the dominated region on a fine
    grid and compare areas."""
    rng = np.random.default_rng(3)
    pts = [pp(*rng.uniform(0, 0.9, 2)) for _ in range(30)]
    ref = (1.0, 1.0)
    q = frontier_quality(pts, ref)
    m = 500
    xs = (np.arange(m) + 0.5) / m
    ys = (np.arange(m) + 0.5) / m
    gx, gy = np.meshgrid(xs, ys)
    covered = np.zeros_like(gx, dtype=bool)
    for p in pts:
        covered |= (gx >= p.objectives[0]) & (gy >= p.objectives[1])
    approx = covered.mean() * 1.0
    assert q == pytest.approx(approx, abs=5e-3)
