"""The scripts outside the package still run against it.

Neither the parity script nor the kernel timings run in the rest of the
suite, so an API change would otherwise break them unnoticed.
"""

import importlib.util
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from fairmtl.model import ArchConfig
from fairmtl.trainer import TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parity_check():
    spec = importlib.util.spec_from_file_location(
        "parity_check", os.path.join(ROOT, "scripts", "parity_check.py"))
    parity_check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity_check)
    return parity_check


def test_parity_check_builds_every_config():
    """Every run of scripts/parity_check.py gets a valid architecture and
    training config, without training any, and so does each of its
    `--stacked` stack-mates; the MMD runs get their bandwidths."""
    parity_check = _parity_check()
    runs = list(parity_check.configs())
    assert len(runs) == len({key for key, *_ in runs}) == 129
    for key, (num_tasks, _), arch, config in runs:
        assert isinstance(arch, ArchConfig) and isinstance(config, TrainConfig)
        assert arch.num_tasks == config.num_tasks == num_tasks, key
    assert {c.mmd_bandwidth for *_, c in runs} == {0.3, 1.0, 2.0}
    for *_, config in runs:
        for count in (5, 8):
            mates = parity_check._mates(config, nan=True, count=count)
            assert len({mate.seed for mate in mates}) == count
            assert all(isinstance(mate, TrainConfig) for mate in mates)


@pytest.mark.parametrize("prefix, summary, groups", [
    ("T2/mmd-", "66 runs in stacks of widths 2-5 and 8, 2 diverged",
     "66 runs in seed groups of widths 2-5 and 8, 1 diverged"),
    ("T2/correlation/", "51 runs in stacks of widths 2-5 and 8, 2 diverged",
     "45 runs in seed groups of widths 2-5 and 8, 1 diverged"),
    ("T2/soft_fpr_gap/", "48 runs in stacks of widths 2-5 and 8, 1 diverged",
     "45 runs in seed groups of widths 2-5 and 8, 1 diverged"),
], ids=["mmd", "correlation", "soft_fpr_gap"])
def test_parity_check_stacked_runs_equal_their_solo_runs(prefix, summary,
                                                        groups, capsys):
    """`parity_check.py --stacked` on the 12 MMD runs at bandwidths 0.3
    and 2, and on the 9 two-task correlation runs and 9 soft FPR runs,
    which read a run's rows from its codes: stacks of widths 2-5 and 8,
    tail batches, exact kernel blocks and stack-mates that diverge all
    train each run bit for bit as alone, and so do the seed groups of
    each key's methods, one of them with one method's run diverging."""
    assert _parity_check().stacked(prefix) == 0
    lines = capsys.readouterr().out.splitlines()
    same = ": max abs difference from the solo runs 0; runs whose test " \
        "metrics differ: 0; diverged runs whose messages differ: 0"
    assert lines == [summary + same, groups + same]


def test_parity_check_compares_report_files(tmp_path, capsys):
    """The report part of `parity_check.py --save`, over tables of 90
    rows, made twice by one tree: `--compare` finds no report file that
    differs and exits 0, and names the one that is then changed and
    exits 1."""
    parity_check = _parity_check()
    paths = [str(tmp_path / name) for name in ("a.pkl", "b.pkl")]
    for path in paths:
        with open(path, "wb") as f:
            pickle.dump({"runs": {}, "reports": parity_check.reports(90)}, f)
    assert parity_check.compare(*paths) == 0
    assert "report files that differ: 0 of 14\n" in capsys.readouterr().out
    with open(paths[1], "rb") as f:
        record = pickle.load(f)
    record["reports"]["T3/plotdata_task2.csv"] += b"\n"
    with open(paths[1], "wb") as f:
        pickle.dump(record, f)
    assert parity_check.compare(*paths) == 1
    assert capsys.readouterr().out.endswith(
        "report files that differ: 1 of 14\n  T3/plotdata_task2.csv\n")


def test_parity_check_compare_fails_on_any_training_difference(tmp_path):
    """`--compare` exits 1 when one parameter entry, accumulator entry
    or test metric differs, and 0 when none does."""
    parity_check = _parity_check()
    run = {"params": {"w": np.zeros(3)}, "accumulators": {"w": np.ones(3)},
           "metrics": [(0.25, 0.1, None)]}
    path_a, path_b = str(tmp_path / "a.pkl"), str(tmp_path / "b.pkl")
    with open(path_a, "wb") as f:
        pickle.dump({"runs": {"r": run}}, f)
    variants = [run, {**run, "params": {"w": np.array([0.0, 5e-324, 0.0])}},
                {**run, "accumulators": {"w": np.nextafter(np.ones(3), 2)}},
                {**run, "metrics": [(0.25, 0.1, 0.0)]}]
    for i, other in enumerate(variants):
        with open(path_b, "wb") as f:
            pickle.dump({"runs": {"r": other}}, f)
        assert parity_check.compare(path_a, path_b) == int(i > 0)


@pytest.mark.parametrize("change, code", [
    ({"params": {"w": np.array([1e-3, 2.0 + 1e-9])}}, 0),
    ({"accumulators": {"w": np.array([1.0, 1.0 + 5e-9])}}, 1),
    ({"params": {"w": np.array([1e-3, 2.0 + 1e-9])},
      "metrics": [(0.25, 0.1, 0.0625)]}, 1)])
def test_parity_check_compare_within_a_tolerance(tmp_path, capsys, change,
                                                 code):
    """`--compare --tolerance 1e-9` passes a parameter entry moved by
    5e-10 of its array's largest magnitude, which the exact mode fails,
    and fails an accumulator entry moved by 5e-9, or any test metric
    that moves."""
    parity_check = _parity_check()
    run = {"params": {"w": np.array([1e-3, 2.0])},
           "accumulators": {"w": np.ones(2)}, "metrics": [(0.25, 0.1, 0.05)]}
    paths = [str(tmp_path / name) for name in ("a.pkl", "b.pkl")]
    for path, record in zip(paths, (run, {**run, **change})):
        with open(path, "wb") as f:
            pickle.dump({"runs": {"T2/r": record}}, f)
    assert parity_check.main(["--compare", *paths]) == 1
    capsys.readouterr()
    assert parity_check.main(["--compare", *paths,
                              "--tolerance", "1e-9"]) == code
    verdict = "no" if "accumulators" in change else "yes"
    assert capsys.readouterr().out.endswith(
        f"every parameter and accumulator entry within 1e-09 relative: "
        f"{verdict}\n")


def test_parity_check_compare_names_the_runs_that_differ(tmp_path, capsys):
    """`--compare` counts and names the runs that differ and fails on any
    of them: a run whose accumulator entry moved by one ulp or whose
    parameter entry went from 0.0 to NaN, not one whose parameter entry
    went from 0.0 to -0.0."""
    parity_check = _parity_check()
    run = {"params": {"w": np.zeros(3)}, "accumulators": {"w": np.ones(3)},
           "metrics": [(0.25, 0.1, None)]}
    keys = ("T1/a", "T1/b", "T2/c", "T2/d")
    changed = {
        "T1/a": {**run, "params": {"w": -np.zeros(3)}},
        "T1/b": {**run, "accumulators": {"w": np.nextafter(np.ones(3), 0)}},
        "T2/d": {**run, "params": {"w": np.array([0.0, np.nan, 0.0])}}}
    cases = [(("T1/a", "T1/b", "T2/d"), "2 of 4\n  T1/b\n  T2/d\n"),
             (("T1/a",), "0 of 4\n"), (("T2/d",), "1 of 4\n  T2/d\n")]
    paths = [str(tmp_path / name) for name in ("a.pkl", "b.pkl")]
    with open(paths[0], "wb") as f:
        pickle.dump({"runs": {key: run for key in keys}}, f)
    for moved, listed in cases:
        with open(paths[1], "wb") as f:
            pickle.dump({"runs": {key: changed[key] if key in moved else run
                                  for key in keys}}, f)
        assert parity_check.compare(*paths) == int(listed != "0 of 4\n")
        assert f"runs that differ: {listed}report files" in (
            capsys.readouterr().out)


@pytest.mark.parametrize("a, b", [(0.5, np.nan), (np.nan, 0.5)])
def test_parity_check_compare_reports_nan_against_a_number(
        tmp_path, capsys, a, b):
    """A parameter entry that became NaN, or stopped being one, differs
    by infinity and names its run; `max(0.0, nan)` used to report it as a
    largest difference of 0."""
    parity_check = _parity_check()
    paths = [str(tmp_path / name) for name in ("a.pkl", "b.pkl")]
    for path, value in zip(paths, (a, b)):
        run = {"params": {"w": np.array([value, 2.0])},
               "accumulators": {"w": np.ones(2)}, "metrics": []}
        with open(path, "wb") as f:
            pickle.dump({"runs": {"T2/r": run}}, f)
    assert parity_check.compare(*paths) == 1
    out = capsys.readouterr().out
    assert "params: max abs difference inf, max relative inf (T2/r w)\n" in out
    assert "accumulators: max abs difference 0, max relative 0\n" in out


def test_bench_kernels_runs():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "bench_kernels.py"),
         "--repeats", "1"], env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    assert "adagrad 16x8" in done.stdout and "mmd term 240+240" in done.stdout
    assert "mmd step mtaf (16 subsets)" in done.stdout
    assert "mmd step mtaf (32 subsets)" in done.stdout
