"""Self-tests for the benchmark's helpers.  Run: python3 -m pytest perfbench"""

import gc
import random
import time
import types

import pytest

import calib
import checks
import stats
import tracer


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.tail_percentile(values) == (90, 90, 100)
    # With 99 samples p90 leaves only 9 beyond, so p75 is the tail.
    assert stats.tail_percentile(values[:99]) == (75, 75, 99)
    assert stats.tail_percentile(range(1000))[0] == 99
    assert stats.tail_percentile(range(20)) == (50, 9, 20)
    with pytest.raises(ValueError):
        stats.tail_percentile(range(19))


def test_tail_percentile_is_the_highest_candidate_that_qualifies():
    for n in range(20, 1300, 7):
        ordered = list(range(n))
        p, value, count = stats.tail_percentile(reversed(ordered))
        assert count == n and value == stats.nearest_rank(ordered, p)[0]
        assert stats.nearest_rank(ordered, p)[1] >= stats.MIN_BEYOND
        higher = [q for q in stats.TAIL_PERCENTILES if q > p]
        assert all(stats.nearest_rank(ordered, q)[1] < stats.MIN_BEYOND
                   for q in higher)


def test_min_samples_for():
    assert [stats.min_samples_for(p) for p in (50, 75, 90, 99)] == \
        [20, 40, 100, 1000]


def test_self_times_subtract_children_and_hooks():
    # a(0..10, 1.0 s of hooks, 0.5 of them inside c)
    #   b(2..5) -> a(3..4)
    #   c(6..8, 0.5 s of hooks)
    spans = [(2, 1, "a", 3.0, 4.0, 0.0),
             (1, 0, "b", 2.0, 5.0, 0.0),
             (3, 0, "c", 6.0, 8.0, 0.5),
             (0, None, "a", 0.0, 10.0, 1.0)]
    out = tracer.self_times(spans)
    assert out["b"] == (1, 3.0, 2.0)
    assert out["c"] == (1, 1.5, 1.5)
    assert out["a"] == (2, 10.0, 5.5)
    # Self times partition the root's inclusive time.
    assert sum(own for _, _, own in out.values()) == 9.0


def test_tracer_wraps_restores_and_excludes_hook_time():
    def inner(x):
        return x + 1

    def outer(x):
        return owner.inner(x) + owner.inner(x)

    def slow_hook(tr, args):
        tr.counts["hooked"] += 1
        time.sleep(0.05)

    owner = types.SimpleNamespace(inner=inner, outer=outer)
    tr = tracer.Tracer(keep_durations=("outer",))
    with tr.installed([(owner, "outer", "outer", None),
                       (owner, "inner", "inner", slow_hook)]):
        assert owner.outer(1) == 4
    assert owner.inner is inner and owner.outer is outer
    assert tr.calls("outer") == 1 and tr.calls("inner") == 2
    assert tr.counts["hooked"] == 2
    assert tr.inclusive_s("outer") < 0.05
    assert tr.self_s("outer") + tr.self_s("inner") == \
        pytest.approx(tr.inclusive_s("outer"), abs=1e-12)
    assert tr.durations["outer"] == [pytest.approx(tr.inclusive_s("outer"))]


def test_pareto_oracle_hand_example():
    points = [(1, 1), (1, 1), (0, 2), (2, 0), (2, 2), (1, 2)]
    assert checks.pareto_oracle(points) == {0, 1, 2, 3}
    assert checks.pareto_oracle([]) == set()


def test_pareto_oracle_matches_pairwise_definition():
    rng = random.Random(7)
    for _ in range(50):
        points = [(rng.randint(0, 6), rng.randint(0, 6))
                  for _ in range(rng.randint(1, 25))]
        expected = {
            i for i, (x, y) in enumerate(points)
            if not any(ox <= x and oy <= y and (ox, oy) != (x, y)
                       for ox, oy in points)}
        assert checks.pareto_oracle(points) == expected


def test_scale_reads_as_seconds_at_the_nominal_speed():
    assert calib.scale(2.0, calib.NOMINAL_S) == 2.0
    # Twice as slow a machine: the measured time counts half.
    assert calib.scale(2.0, 2 * calib.NOMINAL_S) == pytest.approx(1.0)


def test_sample_leaves_the_garbage_collector_as_it_was():
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            reference, took = calib.sample(units=3)
            assert gc.isenabled() == enabled
            assert 0 < reference <= took
    finally:
        gc.enable()
