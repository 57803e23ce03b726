"""Sweep sampling, the runs table, report emission, and the CLI surface.

The frontier report is checked against the same all-pairs dominance oracle
used by the pareto tests, and CLI flows run in-process on tiny synthetic
data end to end.
"""

import copy
import csv
import io
import json
import math
import os
import string
import tempfile
import time
from dataclasses import asdict, replace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmtl import cli, pareto
from fairmtl import metrics as metrics_module
from fairmtl import sweep as sweep_module
from fairmtl.data import SynthSpec, load_schema, split_random, synth_generate
from fairmtl.exceptions import ConfigError, ContractError
from fairmtl.metrics import (StlBaselines, evaluate_model, run_stl_baselines,
                             single_task_view, stl_config_hash)
from fairmtl.model import ArchConfig, from_fields
from fairmtl.presets import SCHEMA_PRESETS, schema_path
from fairmtl.sweep import (
    RUNS_COLUMNS,
    RUNS_SCHEMA_VERSION,
    RunsWriter,
    SweepConfig,
    accuracy_overlay,
    dataset_hash,
    emit_reports,
    load_baselines,
    load_runs,
    pair_hash,
    run_id,
    run_single,
    run_sweep,
    sample_configs,
    save_baselines,
)
from fairmtl.trainer import TrainConfig, cut_stacks, train, train_stack

ARCH = ArchConfig(num_tasks=2, shared_layer_sizes=(8,), head_layer_sizes=(4,),
                  embedding_dim=4)


# asymmetric rates so STL fairness gaps stay clear of the division floor
TINY_RATES = ((0.15, 0.35), (0.55, 0.25))


def tiny_data(n=240, seed=0, **kw):
    kw.setdefault("positive_rates", TINY_RATES)
    kw.setdefault("group_feature_weight", 1.5)
    full = synth_generate(SynthSpec(n=n, **kw), seed=seed)
    return split_random(full, 0.8, seed=0)


def tiny_baselines(train_ds, test_ds, seeds=(0, 1)):
    cfg = TrainConfig(method="vanilla", task_weights=(1.0,),
                      learning_rate=0.1, epochs=1, batch_size=64)
    return run_stl_baselines(train_ds, test_ds, ARCH, cfg, seeds)


@pytest.fixture(scope="module")
def env():
    train_ds, test_ds = tiny_data()
    return train_ds, test_ds, tiny_baselines(train_ds, test_ds)


VOLATILE = {"seconds", "timestamp"}


def group_order(env, sweep, widths):
    """The run ids of `sweep` whose methods' stacks have `widths`, in seed
    group order: per stack of draws, every method's stack of them."""
    train_ds, test_ds, baselines = env
    configs, pair = sample_configs(sweep, 2), pair_hash(train_ds, test_ds)
    ids, start = [], 0
    for width in widths:
        for method in sweep.methods:
            ids += [run_id(c, pair, baselines.config_hash)
                    for c in configs[method][start:start + width]]
        start += width
    return ids


def assert_same_rows(tables, orders):
    """The tables hold the same rows by id, equal in every cell but
    `seconds` and `timestamp`, each in its own exact order of `orders`,
    and every method's rows in the same relative order."""
    for table, order in zip(tables, orders):
        assert [row["run_id"] for row in table] == order
    first, *others = tables
    for table in others:
        by_id = {row["run_id"]: row for row in table}
        assert len(by_id) == len(table) == len(first)
        for row in first:
            other = by_id[row["run_id"]]
            assert row.keys() == other.keys()
            for key in row.keys() - VOLATILE:
                assert row[key] == other[key], key
        for method in {row["method"] for row in first}:
            assert [r["run_id"] for r in first if r["method"] == method] == [
                r["run_id"] for r in table if r["method"] == method]


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(methods=())
        with pytest.raises(ConfigError):
            SweepConfig(methods=("vanilla", "nope"))
        with pytest.raises(ConfigError):
            SweepConfig(budget=0)
        with pytest.raises(ConfigError):
            SweepConfig(ratio_range=(0.0, 10.0))
        with pytest.raises(ConfigError):
            SweepConfig(w1_range=(0.5, 1.5))
        with pytest.raises(ConfigError):
            SweepConfig(lambda_range=(3.0, 1.0))
        with pytest.raises(ConfigError):
            SweepConfig(fairness_kind="nope")
        # by name, not left to overflow when the runs are drawn
        for name, bounds in (("w1_range", (0.0, math.nan)),
                             ("lambda_range", (0.0, math.inf)),
                             ("ratio_range", (0.1, math.inf)),
                             ("lambda_range", (-math.inf, 1.0))):
            with pytest.raises(ConfigError,
                               match=rf"SweepConfig\.{name}\[[01]\] must be "
                               "a (finite number|number in)"):
                SweepConfig(**{name: bounds})

    def test_dict_round_trip(self):
        sweep = SweepConfig(methods=("mtaf",), budget=7, master_seed=9,
                            lambda_range=(0.5, 2.0),
                            fairness_kind="correlation")
        d = json.loads(json.dumps(asdict(sweep)))
        assert from_fields(SweepConfig, d) == sweep

    def test_from_fields_refuses_extra_keys(self):
        """A key that names no field, such as a misspelt setting, is
        refused with the accepted ones, not dropped."""
        assert from_fields(SweepConfig, {"budget": 3}).budget == 3
        with pytest.raises(ConfigError, match="'data_dir'.*accepted: "
                           "methods, budget"):
            from_fields(SweepConfig, {"budget": 3, "data_dir": "x"})

    @pytest.mark.parametrize("name", ["budget", "seeds_per_config",
                                      "master_seed"])
    def test_integer_fields_must_be_integral(self, name):
        """1.5 runs used to be sampled as 2; 1.5 seeds failed mid-sweep."""
        with pytest.raises(ConfigError, match="integer"):
            from_fields(SweepConfig, {name: 1.5})
        sweep = SweepConfig(**{name: np.int64(3)})
        assert type(getattr(sweep, name)) is int

    def test_negative_master_seed_refused(self):
        """It used to be accepted, and the draws then failed inside numpy
        with "expected non-negative integer", naming no setting."""
        with pytest.raises(ConfigError,
                           match="SweepConfig.master_seed must be an integer "
                           ">= 0, got -1"):
            from_fields(SweepConfig, {"master_seed": -1})

    @pytest.mark.parametrize("setting", [
        {"learning_rate": -1}, {"batch_size": 0}, {"epochs": 0},
        {"mmd_bandwidth": -2}, {"fairness_target": "parity"}])
    def test_shared_settings_refused_at_construction(self, setting):
        """The settings every run shares are checked once, by
        SweepConfig's declared kinds, before any run is drawn."""
        with pytest.raises(ConfigError):
            SweepConfig(**setting)

    def test_runs_share_the_sweep_settings(self):
        sweep = SweepConfig(budget=2, learning_rate=0.2, epochs=3,
                            batch_size=32, fairness_kind="correlation",
                            mmd_bandwidth=0.5, fairness_target="equalized_odds")
        for configs in sample_configs(sweep, 2).values():
            for config in configs:
                assert (config.learning_rate, config.epochs,
                        config.batch_size, config.fairness_kind,
                        config.mmd_bandwidth, config.fairness_target) == (
                    0.2, 3, 32, "correlation", 0.5, "equalized_odds")


class TestSampling:
    def test_larger_budget_extends_the_draws(self):
        for spc in (1, 2):
            small = sample_configs(SweepConfig(budget=3, master_seed=2,
                                               seeds_per_config=spc), 2)
            large = sample_configs(SweepConfig(budget=8, master_seed=2,
                                               seeds_per_config=spc), 2)
            for m in small:
                assert [asdict(c) for c in small[m]] == \
                    [asdict(c) for c in large[m][:3]]

    def test_budget_accounting(self):
        configs = sample_configs(SweepConfig(methods=("vanilla",), budget=10),
                                 num_tasks=2)
        assert set(configs) == {"vanilla"}
        assert len(configs["vanilla"]) == 10

    def test_deterministic_in_master_seed(self):
        sweep = SweepConfig(budget=6, master_seed=4)
        a = sample_configs(sweep, 2)
        b = sample_configs(sweep, 2)
        assert all(asdict(x) == asdict(y)
                   for m in a for x, y in zip(a[m], b[m]))
        c = sample_configs(SweepConfig(budget=6, master_seed=5), 2)
        assert any(asdict(x) != asdict(y)
                   for x, y in zip(a["mtaf"], c["mtaf"]))

    def test_draws_paired_across_methods(self):
        configs = sample_configs(SweepConfig(budget=5, master_seed=1), 2)
        for v, b, m in zip(configs["vanilla"], configs["baseline"],
                           configs["mtaf"]):
            assert v.task_weights == b.task_weights == m.task_weights
            assert v.seed == b.seed == m.seed
            assert b.fairness_weights == m.fairness_weights
            assert v.fairness_weights == (0.0, 0.0)
            assert v.head_shared_ratios == b.head_shared_ratios == (1.0, 1.0)

    def test_two_task_weights_complementary(self):
        configs = sample_configs(SweepConfig(budget=20, master_seed=2), 2)
        for c in configs["mtaf"]:
            w1, w2 = c.task_weights
            assert w1 + w2 == pytest.approx(1.0)
            assert 0.0 <= w1 <= 1.0

    def test_three_task_weights_normalized(self):
        configs = sample_configs(
            SweepConfig(methods=("vanilla",), budget=8, master_seed=3), 3)
        for c in configs["vanilla"]:
            assert len(c.task_weights) == 3
            assert sum(c.task_weights) == pytest.approx(1.0)

    def test_ranges_respected(self):
        sweep = SweepConfig(budget=40, master_seed=0,
                            lambda_range=(0.0, 5.0), ratio_range=(0.1, 10.0))
        for c in sample_configs(sweep, 2)["mtaf"]:
            assert all(0.0 <= lam <= 5.0 for lam in c.fairness_weights)
            assert all(0.1 <= r <= 10.0 for r in c.head_shared_ratios)

    def test_seeds_per_config_reuses_draws(self):
        sweep = SweepConfig(methods=("vanilla",), budget=5,
                            seeds_per_config=2, master_seed=0)
        configs = sample_configs(sweep, 2)["vanilla"]
        assert len(configs) == 5
        assert configs[0].task_weights == configs[1].task_weights
        assert configs[0].seed != configs[1].seed
        assert configs[2].task_weights != configs[0].task_weights

    def test_mmd_bandwidth_propagates(self):
        sweep = SweepConfig(methods=("baseline",), budget=1,
                            fairness_kind="mmd", mmd_bandwidth=2.5)
        c = sample_configs(sweep, 2)["baseline"][0]
        assert c.mmd_bandwidth == 2.5


class TestRunSingle:
    def test_vanilla_row_populated(self, env):
        train_ds, test_ds, baselines = env
        config = TrainConfig(method="vanilla", task_weights=(0.5, 0.5),
                             learning_rate=0.1, epochs=1, batch_size=64)
        row = run_single(train_ds, test_ds, ARCH, config, baselines,
                         run_id="x0")
        assert row["run_id"] == "x0"
        assert row["schema_version"] == RUNS_SCHEMA_VERSION
        assert row["flags"] is None
        assert row["fairness_weights"] == [0.0, 0.0]
        assert None not in (row["err_mean"], row["arfg"], row["are"])
        assert set(RUNS_COLUMNS) == set(row)

    def test_repeat_rows_identical_modulo_bookkeeping(self, env):
        train_ds, test_ds, baselines = env
        config = TrainConfig(method="mtaf", task_weights=(0.6, 0.4),
                             fairness_weights=(1.0, 0.5),
                             learning_rate=0.1, epochs=1, batch_size=64,
                             seed=5)
        a = run_single(train_ds, test_ds, ARCH, config, baselines, "a")
        b = run_single(train_ds, test_ds, ARCH, config, baselines, "b")
        volatile = {"run_id", "seconds", "timestamp"}
        for key in set(RUNS_COLUMNS) - volatile:
            assert a[key] == b[key], key

    def test_undefined_metric_flagged_not_raised(self, env):
        train_ds, test_ds, _ = env
        hollow = StlBaselines(errs=(0.3, 0.3), fpr_gaps=(1e-15, 1e-15),
                              tpr_gaps=(0.1, 0.1), seeds=(0,),
                              config_hash="x")
        config = TrainConfig(method="vanilla", task_weights=(0.5, 0.5),
                             learning_rate=0.1, epochs=1, batch_size=64)
        row = run_single(train_ds, test_ds, ARCH, config, hollow, "u")
        assert "undefined_metric" in row["flags"]
        assert row["arfg"] is None
        assert row["err_per_task"] is not None  # raw metrics still recorded

    def test_hard_failure_flagged_not_raised(self, env):
        train_ds, test_ds, baselines = env
        config = TrainConfig(method="vanilla", task_weights=(1.0,),
                             learning_rate=0.1, epochs=1, batch_size=64)
        row = run_single(train_ds, test_ds, ARCH, config, baselines, "f")
        assert row["flags"].startswith("failed:")
        assert row["method"] == "vanilla"  # config still echoed


class TestRunsTable:
    def test_writer_header_and_appends(self, tmp_path, env):
        train_ds, test_ds, baselines = env
        path = tmp_path / "runs.csv"
        writer = RunsWriter(str(path))
        assert path.read_text().startswith(",".join(RUNS_COLUMNS))
        config = TrainConfig(method="vanilla", task_weights=(0.5, 0.5),
                             learning_rate=0.1, epochs=1, batch_size=64)
        row = run_single(train_ds, test_ds, ARCH, config, baselines, "r0")
        writer.append(row)
        with pytest.raises(ContractError, match="duplicate"):
            writer.append(row)
        reloaded = RunsWriter(str(path))
        assert reloaded.ids == {"r0"}

    def test_append_writes_a_stack_or_nothing(self, tmp_path):
        """A sweep appends a stack's rows with one write; a stack that
        holds a recorded id, or one id twice, is refused before any of
        its rows is written."""
        path = tmp_path / "runs.csv"
        writer = RunsWriter(str(path))
        rows = [dict.fromkeys(RUNS_COLUMNS, None) | {"run_id": f"r{i}"}
                for i in range(3)]
        writer.append(*rows[:2])
        before = path.read_bytes()
        for stack in ([rows[2], rows[0]], [rows[2], rows[2]]):
            with pytest.raises(ContractError, match="duplicate run_id 'r"):
                writer.append(*stack)
            assert path.read_bytes() == before
        assert writer.ids == {"r0", "r1"}
        writer.append(rows[2])
        assert [row["run_id"] for row in load_runs(str(path))] == [
            "r0", "r1", "r2"]

    def test_load_runs_parses_cells(self, tmp_path, env):
        train_ds, test_ds, baselines = env
        path = str(tmp_path / "runs.csv")
        writer = RunsWriter(path)
        config = TrainConfig(method="baseline", task_weights=(0.5, 0.5),
                             fairness_weights=(2.0, 0.0),
                             learning_rate=0.1, epochs=1, batch_size=64)
        writer.append(run_single(train_ds, test_ds, ARCH, config,
                                 baselines, "r0"))
        rows = load_runs(path)
        assert len(rows) == 1
        row = rows[0]
        assert row["fairness_weights"] == [2.0, 0.0]
        assert isinstance(row["err_per_task"], list)
        assert isinstance(row["arfg"], float)
        assert row["schema_version"] == RUNS_SCHEMA_VERSION

    def test_writer_refuses_a_foreign_header(self, tmp_path):
        """Appending under another header would leave a row that the
        table's columns cannot hold; the file is left as it was."""
        path = tmp_path / "runs.csv"
        for content in (b"run_id,method\r\nr0,vanilla\r\n", b"",
                        ",".join(list(RUNS_COLUMNS)[::-1]).encode() + b"\n"):
            path.write_bytes(content)
            with pytest.raises(ContractError,
                               match=f"{path}: its header is not"):
                RunsWriter(str(path))
            assert path.read_bytes() == content

    def test_load_rejects_non_table(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ContractError, match="runs table"):
            load_runs(str(path))

    def test_torn_last_row_refused(self, tmp_path, env, capsys):
        """A table cut inside its last row (a sweep killed mid-append) is
        neither appended to nor read as if whole."""
        train_ds, test_ds, baselines = env
        out = tmp_path / "out"
        sweep = SweepConfig(methods=("vanilla",), budget=2, epochs=1,
                            batch_size=64, learning_rate=0.1)
        run_sweep(train_ds, test_ds, ARCH, sweep, baselines, str(out))
        path = out / "runs.csv"
        whole = path.read_bytes()
        for cut in (3, 120):    # inside the timestamp; a dozen cells short
            path.write_bytes(whole[:-cut])
            with pytest.raises(ContractError, match=f"{path}:3: last row"):
                RunsWriter(str(path))
            assert path.read_bytes() == whole[:-cut]
        with pytest.raises(ContractError, match=f"{path}:3: malformed"):
            load_runs(str(path))
        assert cli.main(["report", "--out", str(out)]) == 2
        assert f"error: {path}:3: malformed" in capsys.readouterr().err

    def test_json_cells_decode_as_each_cell_alone(self, tmp_path, env):
        """A list column is decoded in one call only where the joined cells
        split back into the cells; otherwise each cell is decoded alone, so
        odd but valid cells still read right and cells that only parse
        together are refused at their line."""
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(methods=("vanilla",), budget=3, epochs=1,
                            batch_size=64, learning_rate=0.1)
        run_sweep(train_ds, test_ds, ARCH, sweep, baselines, str(tmp_path))
        path = tmp_path / "runs.csv"
        whole = path.read_text()
        rows = load_runs(str(path))
        column = list(RUNS_COLUMNS).index("err_per_task")

        def with_cells(cells):
            lines = whole.splitlines(keepends=True)
            for i, cell in enumerate(cells):
                fields = next(csv.reader([lines[i + 1]]))
                fields[column] = cell
                buffer = io.StringIO()
                csv.writer(buffer).writerow(fields)
                lines[i + 1] = buffer.getvalue()
            path.write_text("".join(lines))

        with_cells([" [0.5, 0.25]", "null", '["x"]'])
        assert [r["err_per_task"] for r in load_runs(str(path))] == [
            [0.5, 0.25], None, ["x"]]
        assert [{**r, "err_per_task": None} for r in load_runs(str(path))] \
            == [{**r, "err_per_task": None} for r in rows]
        # together these read as the array [[0.1, 0.2, 0.3], [4], [5]]
        with_cells(["[0.1, 0.2", "0.3]", "[4], [5]"])
        with pytest.raises(ContractError, match=f"{path}:2: malformed"):
            load_runs(str(path))

    def test_malformed_cell_names_file_and_line(self, tmp_path, env):
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(methods=("vanilla",), budget=2, epochs=1,
                            batch_size=64, learning_rate=0.1)
        run_sweep(train_ds, test_ds, ARCH, sweep, baselines, str(tmp_path))
        path = tmp_path / "runs.csv"
        lines = path.read_text().splitlines(keepends=True)
        for bad in (lines[2].replace('"[', '"[[', 1),    # broken JSON cell
                    lines[2].rstrip() + ",9\n"):         # one cell too many
            path.write_text("".join(lines[:2]) + bad)
            with pytest.raises(ContractError, match=f"{path}:3: malformed"):
                load_runs(str(path))


def _cell_strategy(parser):
    if parser is int:
        value = st.integers(-2**62, 2**62)
    elif parser is float:
        value = st.floats(allow_nan=False, allow_infinity=False)
    elif parser is str:
        value = st.text(string.printable, min_size=1)
    else:
        value = st.lists(st.none() | st.floats(allow_nan=False,
                                               allow_infinity=False))
    return st.none() | value


ROW = st.fixed_dictionaries({c: _cell_strategy(parser)
                             for c, parser in RUNS_COLUMNS.items()
                             if c != "run_id"})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(ROW, max_size=4))
def test_runs_table_round_trip(rows):
    """Every cell RunsWriter.append writes is read back equal: finite
    floats exactly, None as None, and lists that hold None."""
    rows = [{"run_id": f"r{i}", **row} for i, row in enumerate(rows)]
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "runs.csv")
        writer = RunsWriter(path)
        for row in rows:
            writer.append(row)
        assert load_runs(path) == rows


class TestRunSweep:
    def test_budget_rows_and_unique_ids(self, tmp_path, env):
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(budget=2, epochs=1, batch_size=64,
                            learning_rate=0.1)
        rows = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                         str(tmp_path))
        assert len(rows) == 6  # 2 per method x 3 methods
        ids = [r["run_id"] for r in rows]
        assert len(set(ids)) == 6
        table = load_runs(str(tmp_path / "runs.csv"))
        assert [r["run_id"] for r in table] == ids

    def test_second_sweep_appends_only_new_draws(self, tmp_path, env):
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(methods=("vanilla", "mtaf"), budget=2, epochs=1,
                            batch_size=64, learning_rate=0.1)
        first = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                          str(tmp_path))
        assert run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                         str(tmp_path)) == []
        more = run_sweep(train_ds, test_ds, ARCH, replace(sweep, budget=3),
                         baselines, str(tmp_path))
        assert len(more) == 2
        table = load_runs(str(tmp_path / "runs.csv"))
        assert table == first + more
        wider = sample_configs(replace(sweep, budget=3), 2)
        pair = pair_hash(train_ds, test_ds)
        assert [r["run_id"] for r in more] == [
            run_id(wider[m][2], pair, baselines.config_hash)
            for m in sweep.methods]

    def test_pool_appends_what_a_serial_sweep_appends(self, tmp_path, env):
        """A --jobs 2 sweep appends the rows of a --jobs 1 sweep, equal in
        every cell but `seconds` and `timestamp`, each in its seed group
        order (one group of 2 draws; two of 1) and each method's rows in
        the same order; neither leaves state behind in the sweep module."""
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(budget=2, epochs=1, batch_size=64,
                            learning_rate=0.1)
        before = dict(vars(sweep_module))
        tables = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            rows = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                             str(out), jobs=jobs)
            with open(out / "runs.csv", newline="") as f:
                table = list(csv.DictReader(f))
            assert [r["run_id"] for r in table] == [r["run_id"] for r in rows]
            tables.append(table)
            after = vars(sweep_module)
            assert after.keys() == before.keys()
            assert all(after[k] is v for k, v in before.items())
        serial, pooled = tables
        assert len(serial) == len(pooled) == 6
        assert_same_rows(tables, [group_order(env, sweep, [2]),
                                  group_order(env, sweep, [1, 1])])

    def test_pool_equals_serial_with_a_short_last_stack(self, tmp_path, env):
        """At batch 512 a serial stack holds eight runs, so a budget of 9
        leaves each method a stack of 8 and one of 1, and two jobs cut
        them 5 + 4: --jobs 2 still returns and appends the --jobs 1 rows,
        equal in every cell but `seconds` and `timestamp`, each in its
        seed group order and each method's rows in the same order;
        stack-mates share their `seconds`."""
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(budget=9, epochs=2, batch_size=512,
                            learning_rate=0.1, fairness_kind="soft_fpr_gap")
        results = []
        for jobs, widths in ((1, [8, 1]), (2, [5, 4])):
            assert [len(s) for s in cut_stacks([None] * 9, 512, jobs)] == (
                widths)
            out = tmp_path / f"jobs{jobs}"
            rows = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                             str(out), jobs=jobs)
            assert load_runs(str(out / "runs.csv")) == rows
            shares = [r["seconds"] for r in rows[:9]]
            assert len(set(shares[:widths[0]])) == 1 and min(shares) > 0
            results.append(rows)
        assert len(results[0]) == 27
        assert_same_rows(results, [group_order(env, sweep, [8, 1]),
                                   group_order(env, sweep, [5, 4])])
        assert not any(row["flags"] for row in results[0])

    def test_one_stack_of_eight_equals_two_of_four(self, tmp_path, env):
        """A --jobs 1 sweep of 8 runs per method trains each method as
        one stack of 8 and a --jobs 2 sweep as 4 + 4; their runs.csv
        files hold the same rows, equal in every cell but `seconds` and
        `timestamp`, each in its seed group order."""
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(budget=8, epochs=2, batch_size=64,
                            learning_rate=0.1, fairness_kind="mmd")
        tables = []
        for jobs, widths in ((1, [8]), (2, [4, 4])):
            assert [len(s) for s in cut_stacks([None] * 8, 64, jobs)] == (
                widths)
            out = tmp_path / f"jobs{jobs}"
            run_sweep(train_ds, test_ds, ARCH, sweep, baselines, str(out),
                      jobs=jobs)
            with open(out / "runs.csv", newline="") as f:
                tables.append(list(csv.DictReader(f)))
        serial, pooled = tables
        assert len(serial) == len(pooled) == 24
        assert not any(row["flags"] for row in serial)
        assert_same_rows(tables, [group_order(env, sweep, [8]),
                                  group_order(env, sweep, [4, 4])])

    def test_a_dead_worker_flags_its_stack_alone(self, tmp_path, env,
                                                 monkeypatch, capsys):
        """A worker that dies (`os._exit`) on a marked config breaks the
        pool while another still runs the seed group before it: that
        group runs again, one method's stack at a time, then the marked
        one's, whose vanilla stack dies again and is flagged `failed:
        worker died`; the rest go on in fresh pools, and every other row
        equals the serial sweep's, whose stacks hold all three runs of a
        method, each table in its seed group order."""
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(budget=3, epochs=1, batch_size=512,
                            learning_rate=0.1)
        assert [len(s) for s in cut_stacks([None] * 3, 512, 2)] == [2, 1]
        serial = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                           str(tmp_path / "serial"))
        # the first run of the first stack of 2 and the stack of 1
        slow, marked = sample_configs(sweep, 2)["vanilla"][::2]
        train_stack = sweep_module.train_stack

        def dying(train_ds, arch, configs, times=None):
            if marked in configs:
                os._exit(1)
            if slow in configs:
                time.sleep(0.5)
            return train_stack(train_ds, arch, configs, times)
        monkeypatch.setattr(sweep_module, "train_stack", dying)
        capsys.readouterr()
        rows = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                         str(tmp_path / "pooled"), jobs=2)
        assert capsys.readouterr().err.count("a worker died") == 1
        assert load_runs(str(tmp_path / "pooled" / "runs.csv")) == rows
        assert [r["run_id"] for r in rows] == group_order(env, sweep, [2, 1])
        assert [r["run_id"] for r in serial] == group_order(env, sweep, [3])
        for method in sweep.methods:
            assert [r["run_id"] for r in rows if r["method"] == method] == [
                r["run_id"] for r in serial if r["method"] == method]
        by_id = {row["run_id"]: row for row in serial}
        for row in rows:
            alone = by_id[row["run_id"]]
            if row["method"] == "vanilla" and row["seed"] == marked.seed:
                assert row["flags"] == "failed: worker died"
                assert row["err_per_task"] is None
                assert row["task_weights"] == alone["task_weights"]
            else:
                assert {k: v for k, v in row.items() if k not in VOLATILE} \
                    == {k: v for k, v in alone.items() if k not in VOLATILE}

    def test_a_pool_forks_no_more_workers_than_groups_left(
            self, tmp_path, env, monkeypatch):
        """--jobs 8 on a budget-1 sweep, one seed group, forks one
        worker, and on a budget-2 sweep, two groups, two: the pool is
        sized to the groups left, not to --jobs.  (The recording pool
        itself starts at most two, whatever it is asked for.)"""
        train_ds, test_ds, baselines = env
        sizes = []

        class Recording(sweep_module.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kw):
                sizes.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2), **kw)
        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", Recording)
        for budget in (1, 2):
            sweep = SweepConfig(budget=budget, epochs=1, batch_size=64,
                                learning_rate=0.1)
            rows = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                             str(tmp_path / f"budget{budget}"), jobs=8)
            assert len(rows) == 3 * budget
        assert sizes == [1, 2]

    def test_a_stopped_sweep_holds_whole_groups_and_resumes(
            self, tmp_path, env, monkeypatch):
        """At batch 2048 a stack holds two runs, so a budget of 3 makes
        two seed groups.  A sweep stopped after the first holds every
        method's rows of its two draws; resuming it gives the rows of the
        sweep never stopped, by id, equal in every cell but `seconds`
        and `timestamp`.  So does resuming a table that holds one mtaf
        run alone: mtaf's two pending runs then form a stack of their
        own, between the other methods' groups."""
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(budget=3, epochs=1, batch_size=2048,
                            learning_rate=0.1)
        order = group_order(env, sweep, [2, 1])
        full = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                         str(tmp_path / "full"))
        run_task, calls = sweep_module._run_task, []

        def stop_after_one(group):
            if calls:
                raise KeyboardInterrupt
            calls.append(group)
            return run_task(group)
        monkeypatch.setattr(sweep_module, "_run_task", stop_after_one)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                      str(tmp_path / "stopped"))
        monkeypatch.setattr(sweep_module, "_run_task", run_task)
        path = tmp_path / "stopped" / "runs.csv"
        assert [r["run_id"] for r in load_runs(str(path))] == order[:6]
        run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                  str(tmp_path / "stopped"))
        assert_same_rows([full, load_runs(str(path))], [order, order])

        run_sweep(train_ds, test_ds, ARCH, replace(
            sweep, methods=("mtaf",), budget=1), baselines,
            str(tmp_path / "uneven"))
        run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                  str(tmp_path / "uneven"))
        v, b, m = ([r for r in order if r.startswith(f"{method}-")]
                   for method in sweep.methods)
        assert_same_rows(
            [full, load_runs(str(tmp_path / "uneven" / "runs.csv"))],
            [order, m[:1] + v[:2] + b[:2] + m[1:] + v[2:] + b[2:]])

    def test_run_id_is_a_content_key(self, env):
        train_ds, test_ds, baselines = env
        config = sample_configs(SweepConfig(budget=1), 2)["mtaf"][0]
        pair = pair_hash(train_ds, test_ds)
        rid = run_id(config, pair, baselines.config_hash)
        assert rid == run_id(from_fields(TrainConfig, asdict(config)), pair,
                             baselines.config_hash)
        assert rid.startswith("mtaf-")
        assert len({rid, run_id(replace(config, seed=1), pair, "k"),
                    run_id(config, pair[::-1], baselines.config_hash),
                    run_id(config, pair, "k")}) == 4

    def test_run_ids_and_stl_keys_are_pinned(self):
        """Ids of float-written configs, one per fairness kind, stay as
        they are, so a resumed sweep never runs its rows again; the same
        numbers written as integers give the same ids."""
        arch = ArchConfig(num_tasks=2, shared_layer_sizes=(8,),
                          head_layer_sizes=(4,), embedding_dim=3)
        pinned = {"correlation": ("mtaf-ecbc09c7fc30", "212f369fc07e73d1"),
                  "mmd": ("mtaf-bb5564fbb5d5", "b06303c7366a8e2c"),
                  "soft_fpr_gap": ("mtaf-1ef6e98296b6", "e0d9dee6e4fd71d5")}
        for kind, (rid, stl_key) in pinned.items():
            config = TrainConfig(
                method="mtaf", task_weights=(0.6, 0.4),
                fairness_weights=(1.0, 0.5), head_shared_ratios=(2.0, 0.5),
                fairness_kind=kind, mmd_bandwidth=0.5,
                fairness_target="equalized_odds", learning_rate=0.1,
                epochs=2, batch_size=64, seed=3)
            assert run_id(config, "abcd1234ef56", "k" * 16) == rid
            assert stl_config_hash(arch, config, (0, 1, 2)) == stl_key
        config = sample_configs(SweepConfig(mmd_bandwidth=2), 2)["baseline"][0]
        assert config == sample_configs(SweepConfig(mmd_bandwidth=2.0),
                                        2)["baseline"][0]
        written = TrainConfig(
            method="baseline", task_weights=(1, 0), fairness_weights=(2, 1),
            fairness_kind="mmd", mmd_bandwidth=2,
            learning_rate=1, epochs=np.int64(3), batch_size=np.int32(64),
            seed=np.int64(7))
        for c in (config, written):
            assert run_id(c, "p", "k") == run_id(
                from_fields(TrainConfig, asdict(c)), "p", "k")
        assert run_id(written, "p", "k") == run_id(TrainConfig(
            method="baseline", task_weights=(1.0, 0.0),
            fairness_weights=(2.0, 1.0),
            fairness_kind="mmd", mmd_bandwidth=2.0,
            learning_rate=1.0, epochs=3, batch_size=64, seed=7), "p", "k")
        with pytest.raises(ConfigError):
            from_fields(TrainConfig, {**asdict(written), "epochs": 2.5})

    def test_sweep_rows_deterministic(self, tmp_path, env):
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(methods=("mtaf",), budget=2, master_seed=3,
                            epochs=1, batch_size=64, learning_rate=0.1)
        a = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                      str(tmp_path / "a"))
        b = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                      str(tmp_path / "b"))
        volatile = {"seconds", "timestamp"}
        for ra, rb in zip(a, b):
            for key in set(RUNS_COLUMNS) - volatile:
                assert ra[key] == rb[key], key

    def test_returned_rows_round_trip_and_feed_reports(self, tmp_path, env):
        """run_sweep output is in parsed form: identical to the reloaded
        table and directly consumable by emit_reports."""
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(budget=2, epochs=1, batch_size=64,
                            learning_rate=0.1)
        rows = run_sweep(train_ds, test_ds, ARCH, sweep, baselines,
                         str(tmp_path))
        reloaded = load_runs(str(tmp_path / "runs.csv"))
        assert rows == reloaded
        report = emit_reports(rows, "are_arfg", str(tmp_path))
        assert set(report["methods"]) == {"vanilla", "baseline", "mtaf"}


def fake_row(run_id, method, are, arfg, errs=None, gaps=None, flags=""):
    return {
        "run_id": run_id, "schema_version": RUNS_SCHEMA_VERSION,
        "method": method, "seed": 0,
        "task_weights": [0.5, 0.5], "fairness_weights": [0.0, 0.0],
        "head_shared_ratios": [1.0, 1.0], "fairness_kind": "mmd",
        "mmd_bandwidth": 1.0, "fairness_target": "equal_opportunity_fpr",
        "learning_rate": 0.1, "epochs": 1, "batch_size": 64,
        "err_per_task": errs if errs is not None else [0.2, 0.2],
        "fpr_gap_per_task": gaps if gaps is not None else [0.1, 0.1],
        "tpr_gap_per_task": [0.1, 0.1],
        "err_mean": 0.2, "fpr_gap_mean": 0.1,
        "arfg": arfg, "are": are,
        "flags": flags, "seconds": 0.0, "timestamp": 0.0,
    }


class TestReports:
    def test_frontier_matches_allpairs_oracle(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = rng.random((60, 2))
        rows = [fake_row(f"r{i}", "mtaf", float(x), float(y))
                for i, (x, y) in enumerate(pts)]
        report = emit_reports(rows, "are_arfg", str(tmp_path))
        got = {e["run_id"] for e in report["methods"]["mtaf"]["frontier"]}
        expect = set()
        for i, p in enumerate(pts):
            dominated = any((q <= p).all() and (q < p).any() for q in pts)
            if not dominated:
                expect.add(f"r{i}")
        assert got == expect

    def test_single_run_rectangle_area(self, tmp_path):
        rows = [fake_row("only", "vanilla", 0.5, 0.4)]
        report = emit_reports(rows, "are_arfg", str(tmp_path))
        entry = report["methods"]["vanilla"]
        assert len(entry["frontier"]) == 1
        assert report["reference_point"] == pytest.approx([0.55, 0.44])
        assert entry["frontier_quality"] == pytest.approx(0.05 * 0.04)

    def test_flagged_rows_excluded_with_counts(self, tmp_path):
        rows = [fake_row("a", "vanilla", 0.5, 0.5),
                fake_row("b", "vanilla", 0.4, 0.4, flags="failed: boom"),
                fake_row("c", "vanilla", None, None,
                         flags="undefined_metric: task 0")]
        report = emit_reports(rows, "are_arfg", str(tmp_path))
        entry = report["methods"]["vanilla"]
        assert entry["num_runs"] == 1
        assert entry["num_excluded"] == 2
        assert entry["frontier"][0]["run_id"] == "a"

    def test_per_task_axes_use_task_metrics(self, tmp_path):
        rows = [fake_row("a", "mtaf", 0.5, 0.5,
                         errs=[0.1, 0.9], gaps=[0.2, 0.8]),
                fake_row("b", "mtaf", 0.5, 0.5,
                         errs=[0.3, 0.9], gaps=[0.1, 0.8]),
                fake_row("c", "mtaf", 0.5, 0.5,
                         errs=[0.3, 0.9], gaps=[None, 0.8])]
        report = emit_reports(rows, "task0", str(tmp_path))
        entry = report["methods"]["mtaf"]
        assert entry["num_runs"] == 2  # None gap excluded
        assert {e["run_id"] for e in entry["frontier"]} == {"a", "b"}
        plot = (tmp_path / "plotdata_task0.csv").read_text().splitlines()
        assert plot[0] == "method,x,y,on_frontier"
        assert len(plot) == 3

    def test_axes_validation(self, tmp_path):
        rows = [fake_row("a", "vanilla", 0.5, 0.5)]
        with pytest.raises(ConfigError):
            emit_reports(rows, "task7", str(tmp_path))
        with pytest.raises(ConfigError):
            emit_reports(rows, "sideways", str(tmp_path))

    def test_all_rows_flagged_raises(self, tmp_path):
        rows = [fake_row("a", "vanilla", 0.5, 0.5, flags="failed: x")]
        with pytest.raises(ContractError, match="no unflagged"):
            emit_reports(rows, "are_arfg", str(tmp_path))

    def test_accuracy_overlay_projects_into_fairness_space(self, tmp_path):
        # run "acc" wins on error, loses on fairness; "fair" the reverse
        rows = [fake_row("acc", "mtaf", 0.2, 0.9,
                         errs=[0.1, 0.1], gaps=[0.5, 0.5]),
                fake_row("fair", "mtaf", 0.9, 0.2,
                         errs=[0.4, 0.4], gaps=[0.05, 0.05])]
        report = emit_reports(rows, "are_arfg", str(tmp_path))
        overlay = report["accuracy_overlay"]["mtaf"]
        assert [e["run_id"] for e in overlay["accuracy_frontier"]] == ["acc"]
        assert overlay["accuracy_frontier"][0]["fpr_gap_per_task"] == [0.5, 0.5]
        assert overlay["accuracy_frontier"][0]["also_on_fairness_frontier"] is False
        assert overlay["fairness_frontier_run_ids"] == ["fair"]

    @pytest.mark.parametrize("num_tasks", [2, 3])
    def test_report_bytes_equal_the_all_pairs_frontier(
            self, tmp_path, monkeypatch, num_tasks):
        """`fairmtl report` writes the same bytes with the all-pairs oracle
        frontier patched in, and computes one overlay for every axes."""
        rng = np.random.default_rng(num_tasks)
        writer = RunsWriter(str(tmp_path / "a" / "runs.csv"))
        for i in range(90):
            # coarse lattice values, so ties and exact duplicates are common
            errs = list(rng.integers(0, 5, num_tasks) / 4)
            gaps = list(rng.integers(0, 5, num_tasks) / 8)
            fate = i % 10
            row = fake_row(f"r{i:03d}", ("vanilla", "baseline", "mtaf")[i % 3],
                           float(rng.integers(0, 6) / 5),
                           float(rng.integers(0, 6) / 5), errs=errs, gaps=gaps,
                           flags=None)
            if fate == 0:
                row.update(dict.fromkeys(("err_per_task", "fpr_gap_per_task",
                                          "are", "arfg"), None),
                           flags="failed: TrainingDiverged: boom")
            elif fate == 1:
                row.update(fpr_gap_per_task=gaps[:-1] + [None], are=None,
                           arfg=None, flags="undefined_metric: task 1")
            writer.append(row)
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "runs.csv").write_bytes(
            (tmp_path / "a" / "runs.csv").read_bytes())

        calls = []

        def counted_overlay(rows):
            calls.append(len(rows))
            return accuracy_overlay(rows)
        for module in (cli, sweep_module):
            monkeypatch.setattr(module, "accuracy_overlay", counted_overlay)
        assert cli.main(["report", "--out", str(tmp_path / "a")]) == 0
        assert calls == [90]
        monkeypatch.setattr(sweep_module, "frontier", oracles.frontier)
        monkeypatch.setattr(pareto, "frontier", oracles.frontier)
        assert cli.main(["report", "--out", str(tmp_path / "b")]) == 0

        names = sorted(n for n in os.listdir(tmp_path / "a")
                       if n.startswith(("frontier_", "plotdata_")))
        assert len(names) == 2 * (num_tasks + 1)
        for name in names:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name
        reports = [json.loads((tmp_path / "a" / n).read_text())
                   for n in names if n.startswith("frontier_")]
        assert all(r["accuracy_overlay"] == reports[0]["accuracy_overlay"]
                   for r in reports)
        assert any(e["frontier"] for e in reports[0]["methods"].values())

    def test_report_bytes_equal_all_pairs_over_every_point(
            self, tmp_path, monkeypatch):
        """Over a 2000-row table, `fairmtl report` writes the same bytes as
        with the all-pairs oracle frontier run over every kept point, not
        only over the 2-D rule's survivors."""
        rng = np.random.default_rng(20)
        writer = RunsWriter(str(tmp_path / "a" / "runs.csv"))
        for i in range(2000):
            errs = list(rng.integers(0, 40, 2) / 32)
            gaps = list(rng.integers(0, 40, 2) / 64)
            row = fake_row(f"r{i:04d}", ("vanilla", "baseline", "mtaf")[i % 3],
                           float(rng.integers(0, 50) / 40),
                           float(rng.integers(0, 50) / 40), errs=errs,
                           gaps=gaps, flags=None)
            if i % 31 == 0:
                row.update(dict.fromkeys(("err_per_task", "fpr_gap_per_task",
                                          "are", "arfg"), None),
                           flags="failed: TrainingDiverged: boom")
            elif i % 29 == 0:
                row.update(fpr_gap_per_task=[gaps[0], None], are=None,
                           arfg=None, flags="undefined_metric: task 1")
            writer.append(row)
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "runs.csv").write_bytes(
            (tmp_path / "a" / "runs.csv").read_bytes())
        assert cli.main(["report", "--out", str(tmp_path / "a")]) == 0
        seen = []

        def every_point(points):
            seen.append(len(points))
            return oracles.frontier(points)
        monkeypatch.setattr(sweep_module, "survivors", lambda entries: entries)
        monkeypatch.setattr(sweep_module, "frontier", every_point)
        monkeypatch.setattr(pareto, "frontier", oracles.frontier)
        assert cli.main(["report", "--out", str(tmp_path / "b")]) == 0
        assert max(seen) > 600
        names = sorted(n for n in os.listdir(tmp_path / "a")
                       if n != "runs.csv")
        assert len(names) == 6
        for name in names:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    @pytest.mark.parametrize("point", [(float("inf"), 0.4),
                                       (float("nan"), 0.4)])
    def test_non_finite_coordinate_refused_first_in_table_order(
            self, tmp_path, point):
        """A kept row with a non-finite ARE or ARFG raises the ContractError
        a ParetoPoint of it raises, for the first such row in table order,
        though a method seen earlier has one later."""
        rows = [fake_row("a", "vanilla", 0.5, 0.5),
                fake_row("b", "mtaf", *point),
                fake_row("c", "vanilla", float("nan"), 0.3)]
        with pytest.raises(ContractError) as want:
            pareto.ParetoPoint(point)
        with pytest.raises(ContractError) as got:
            emit_reports(rows, "are_arfg", str(tmp_path))
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"non-finite objectives {point}"

    def test_non_finite_task_error_refused_by_the_overlay(
            self, tmp_path, capsys):
        """A NaN in `err_per_task` makes `accuracy_overlay` raise, and
        `fairmtl report` exit 2 having written nothing; finite values whose
        sum overflows are accepted."""
        huge = [fake_row("a", "mtaf", 0.5, 0.5, errs=[1e308, 1e308]),
                fake_row("b", "mtaf", 0.4, 0.6, errs=[1e308, 1e307])]
        overlay = accuracy_overlay(huge)["mtaf"]
        assert [e["run_id"] for e in overlay["accuracy_frontier"]] == ["b"]
        writer = RunsWriter(str(tmp_path / "runs.csv"))
        writer.append(fake_row("a", "mtaf", 0.5, 0.5, flags=None))
        writer.append(fake_row("b", "mtaf", 0.4, 0.6,
                               errs=[0.1, float("nan")], flags=None))
        with pytest.raises(ContractError,
                           match=r"non-finite objectives \(0.1, nan\)"):
            accuracy_overlay(load_runs(str(tmp_path / "runs.csv")))
        assert cli.main(["report", "--out", str(tmp_path)]) == 2
        assert "non-finite objectives" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["runs.csv"]

    def test_report_pure_function_of_table(self, tmp_path, env):
        train_ds, test_ds, baselines = env
        sweep = SweepConfig(methods=("vanilla",), budget=2, epochs=1,
                            batch_size=64, learning_rate=0.1)
        run_sweep(train_ds, test_ds, ARCH, sweep, baselines, str(tmp_path))
        path = tmp_path / "runs.csv"
        before = path.read_bytes()
        rows = load_runs(str(path))
        r1 = emit_reports(copy.deepcopy(rows), "are_arfg", str(tmp_path))
        r2 = emit_reports(copy.deepcopy(rows), "are_arfg", str(tmp_path))
        assert r1 == r2
        assert path.read_bytes() == before


class TestBaselineCache:
    def test_save_load_round_trip(self, tmp_path, env):
        train_ds, _, baselines = env
        dhash = dataset_hash(train_ds)
        path = save_baselines(str(tmp_path), dhash, ARCH, baselines)
        assert os.path.exists(path)
        loaded = load_baselines(str(tmp_path), dhash, baselines.config_hash)
        assert loaded == baselines

    @pytest.mark.parametrize("batch_size, widths", [(64, [3]),
                                                    (256, [8, 1])])
    def test_stacked_stl_cache_equals_the_solo_one(self, tmp_path, env,
                                                   monkeypatch, batch_size,
                                                   widths):
        """run_stl_baselines trains each task's seeds in the stacks a
        serial sweep would cut at its batch size (3 seeds in one stack at
        batch 64, 9 in 8 + 1 at 256); the cache it writes is byte-identical to
        one whose seeds each train alone."""
        train_ds, test_ds, _ = env
        seeds = tuple(range(sum(widths)))
        config = TrainConfig(method="vanilla", task_weights=(1.0,),
                             learning_rate=0.1, epochs=2,
                             batch_size=batch_size)
        stacks = []

        def spy(dataset, arch, configs):
            stacks.append(len(configs))
            return train_stack(dataset, arch, configs)
        monkeypatch.setattr(metrics_module, "train_stack", spy)
        stacked = run_stl_baselines(train_ds, test_ds, ARCH, config, seeds)
        assert stacks == widths * 2
        columns = []
        for t in range(2):
            evs = [evaluate_model(train(
                single_task_view(train_ds, t), replace(ARCH, num_tasks=1),
                replace(config, seed=seed)).model,
                single_task_view(test_ds, t))[0] for seed in seeds]
            columns.append([float(np.mean([getattr(e, name) for e in evs]))
                            for name in ("err", "fpr_gap", "tpr_gap")])
        errs, fprs, tprs = zip(*columns)
        solo = StlBaselines(errs=errs, fpr_gaps=fprs, tpr_gaps=tprs,
                            seeds=seeds,
                            config_hash=stl_config_hash(ARCH, config, seeds))
        paths = [save_baselines(str(tmp_path / name), "pair", ARCH, b)
                 for name, b in (("stacked", stacked), ("solo", solo))]
        contents = []
        for path in paths:
            with open(path, "rb") as f:
                contents.append(f.read())
        assert contents[0] == contents[1]

    def test_missing_baselines_instruct_user(self, tmp_path):
        with pytest.raises(ConfigError, match="stl-baseline") as info:
            load_baselines(str(tmp_path / "none"), "beef", "k")
        assert "stl_beef_k.json" in str(info.value)

    def test_cache_opened_by_exact_key(self, tmp_path):
        """Caches differing only in STL settings sit side by side; each key
        opens its own file, and a missing key lists what is cached."""
        out = str(tmp_path)

        def cache(epochs, err):
            cfg = TrainConfig(method="vanilla", task_weights=(1.0,),
                              epochs=epochs)
            b = StlBaselines(errs=(err, err), fpr_gaps=(0.1, 0.1),
                             tpr_gaps=(0.1, 0.1), seeds=(0,),
                             config_hash=stl_config_hash(ARCH, cfg, (0,)))
            save_baselines(out, "beef", ARCH, b)
            return b

        short, longer = cache(1, 0.2), cache(2, 0.25)
        assert load_baselines(out, "beef", short.config_hash) == short
        assert load_baselines(out, "beef", longer.config_hash) == longer
        with pytest.raises(ConfigError) as info:
            load_baselines(out, "beef", "0123")
        message = str(info.value)
        assert os.path.join(out, "stl_beef_0123.json") in message
        for b in (short, longer):
            assert f"stl_beef_{b.config_hash}.json" in message

    def test_cache_whose_key_differs_from_its_name_refused(self, tmp_path):
        out = str(tmp_path)
        b = StlBaselines(errs=(0.2, 0.2), fpr_gaps=(0.1, 0.1),
                         tpr_gaps=(0.1, 0.1), seeds=(0,), config_hash="aaaa")
        path = save_baselines(out, "beef", ARCH, b)
        os.rename(path, os.path.join(out, "stl_beef_bbbb.json"))
        with pytest.raises(ConfigError, match="'aaaa'"):
            load_baselines(out, "beef", "bbbb")

    def test_dataset_hash_sensitivity(self, env):
        train_ds, test_ds, _ = env
        assert dataset_hash(train_ds) != dataset_hash(test_ds)
        twin = train_ds.take(np.arange(len(train_ds)))
        assert dataset_hash(twin) == dataset_hash(train_ds)


CLI_CFG = {
    "synth": {"n": 240, "positive_rates": [[0.15, 0.35], [0.55, 0.25]],
              "group_feature_weight": 1.5},
    "arch": {"num_tasks": 2, "shared_layer_sizes": [8],
             "head_layer_sizes": [4], "embedding_dim": 4},
    "stl": {"seeds": [0, 1], "epochs": 1, "batch_size": 64,
            "learning_rate": 0.1},
    "train": {"method": "mtaf", "task_weights": [0.5, 0.5],
              "fairness_weights": [1.0, 1.0], "epochs": 1,
              "batch_size": 64, "learning_rate": 0.1},
    "sweep": {"budget": 2, "epochs": 1, "batch_size": 64,
              "learning_rate": 0.1},
}


def refused(tmp_path, capsys, command, section, key, value):
    """stderr of `command` on synth with CLI_CFG's `section` setting `key`
    to `value`, after a clean stl-baseline unless `command` is that;
    checks that it exits 2 and writes no runs table."""
    cfg = copy.deepcopy(CLI_CFG)
    out = tmp_path / "out"
    argv = ["--dataset", "synth", "--out", str(out), "--config",
            str(tmp_path / "cfg.json")]
    if command != "stl-baseline":
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["stl-baseline"] + argv) == 0
    cfg[section][key] = value
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert cli.main([command] + argv) == 2
    assert not (out / "runs.csv").exists()
    return capsys.readouterr().err


class TestCli:
    def write_cfg(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(CLI_CFG))
        return str(path)

    def test_full_flow(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["stl-baseline", "--dataset", "synth",
                         "--out", out, "--config", cfg]) == 0
        assert cli.main(["train", "--dataset", "synth",
                         "--out", out, "--config", cfg, "--seed", "3"]) == 0
        assert cli.main(["sweep", "--dataset", "synth", "--out", out,
                         "--config", cfg, "--seed", "1", "--jobs", "1"]) == 0
        assert cli.main(["report", "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "are_arfg" in captured
        table = load_runs(os.path.join(out, "runs.csv"))
        assert len(table) == 1 + 6
        for axes in ("are_arfg", "task0", "task1"):
            assert os.path.exists(os.path.join(out, f"frontier_{axes}.json"))
            assert os.path.exists(os.path.join(out, f"plotdata_{axes}.csv"))

    def test_diverged_stl_baseline_names_its_task_and_seed(self, tmp_path,
                                                           capsys):
        """An STL run that diverges ends `stl-baseline` with exit 2 and a
        message naming the task and seed, and no cache is written."""
        cfg = copy.deepcopy(CLI_CFG)
        cfg["stl"]["learning_rate"] = 1e300
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["stl-baseline", "--dataset", "synth", "--out",
                         str(out), "--config", str(tmp_path / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the STL baseline of task 0, seed 0, "
                              "diverged (on its one-task view: non-finite ")
        assert not out.exists()

    @pytest.mark.parametrize("content, cause", [
        ('{"schema_version": 1}', "KeyError: 'baselines'"),
        ("not json", "JSONDecodeError: Expecting value")])
    def test_corrupt_stl_cache_refused_by_name(self, tmp_path, capsys,
                                               content, cause):
        """`train` over a cache that is not one exits 2 naming the file,
        not with a traceback or an error that names no file."""
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "out")
        argv = ["--dataset", "synth", "--out", out, "--config", cfg]
        assert cli.main(["stl-baseline"] + argv) == 0
        (path,) = [os.path.join(out, name) for name in os.listdir(out)]
        with open(path, "w") as f:
            f.write(content)
        capsys.readouterr()
        assert cli.main(["train"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not a readable STL "
                              f"baselines cache ({cause}")
        assert not os.path.exists(os.path.join(out, "runs.csv"))

    def test_stl_section_change_refused(self, tmp_path, capsys):
        """train and sweep open the cache under the key the current
        config's stl section gives; a cache trained otherwise is listed,
        never used."""
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["stl-baseline", "--dataset", "synth",
                         "--out", out, "--config", cfg]) == 0
        (cached,) = os.listdir(out)
        changed = copy.deepcopy(CLI_CFG)
        changed["stl"]["epochs"] = 2
        path = tmp_path / "changed.json"
        path.write_text(json.dumps(changed))
        capsys.readouterr()
        for command in ("train", "sweep"):
            code = cli.main([command, "--dataset", "synth", "--out", out,
                             "--config", str(path)])
            assert code == 2
            err = capsys.readouterr().err
            data = cli.resolve_data("synth", changed)
            key = cli._stl_plan(changed, data)[2]
            assert os.path.join(out, f"stl_{data.pair_hash}_{key}.json") in err
            assert cached in err
        assert not os.path.exists(os.path.join(out, "runs.csv"))

    def test_unknown_stl_key_refused(self, tmp_path, capsys):
        """A misspelled stl key is an error naming it and the accepted keys,
        not a silent no-op that leaves the cache key unchanged."""
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["stl-baseline", "--dataset", "synth",
                         "--out", out, "--config", cfg]) == 0
        changed = copy.deepcopy(CLI_CFG)
        changed["stl"]["epoch"] = 4
        path = tmp_path / "changed.json"
        path.write_text(json.dumps(changed))
        capsys.readouterr()
        for command in ("stl-baseline", "train", "sweep"):
            code = cli.main([command, "--dataset", "synth", "--out", out,
                             "--config", str(path)])
            assert code == 2
            err = capsys.readouterr().err
            assert "'epoch'" in err
            assert "seeds, learning_rate, epochs, batch_size" in err
        assert len(os.listdir(out)) == 1

    def test_unknown_section_keys_refused(self, tmp_path, capsys):
        """A misspelt key in any section is an error naming it and the
        accepted keys: it used to be dropped ("train") or to end in a
        TypeError ("synth"); a non-integral budget is refused too."""
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["stl-baseline", "--dataset", "synth",
                         "--out", out, "--config", cfg]) == 0
        cases = [("train", "train", "fairness_weight", [2.0, 2.0],
                  "'fairness_weight'; accepted: method, task_weights"),
                 ("train", "synth", "nn", 3, "'nn'; accepted: n, num_tasks"),
                 ("sweep", "arch", "embeding_dim", 4, "'embeding_dim'"),
                 ("sweep", "sweep", "budget", 1.5, "integer")]
        capsys.readouterr()
        for command, section, key, value, message in cases:
            changed = copy.deepcopy(CLI_CFG)
            changed[section][key] = value
            path = tmp_path / "changed.json"
            path.write_text(json.dumps(changed))
            code = cli.main([command, "--dataset", "synth", "--out", out,
                             "--config", str(path)])
            assert code == 2
            assert message in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "runs.csv"))

    def test_unknown_top_level_key_refused(self, tmp_path, capsys):
        """A misspelt section name is an error naming it and the accepted
        keys: a "trian" section used to be ignored, so `train` trained
        vanilla at the preset settings and exited 0."""
        out = str(tmp_path / "out")
        assert cli.main(["stl-baseline", "--dataset", "synth", "--out", out,
                         "--config", self.write_cfg(tmp_path)]) == 0
        changed = {("trian" if k == "train" else k): v
                   for k, v in CLI_CFG.items()}
        path = tmp_path / "changed.json"
        path.write_text(json.dumps(changed))
        capsys.readouterr()
        for command in ("stl-baseline", "train", "sweep"):
            assert cli.main([command, "--dataset", "synth", "--out", out,
                             "--config", str(path)]) == 2
            assert ("unknown key(s) 'trian'; accepted: synth, arch, train, "
                    "sweep, stl, data_dir, synth_seed, split_fraction, "
                    "split_seed") in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "runs.csv"))

    def test_config_that_is_not_an_object_refused(self, tmp_path, capsys):
        """A config whose JSON is not an object is refused with exit 2; it
        used to end in an AttributeError traceback and exit 1."""
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        for command in ("stl-baseline", "train", "sweep"):
            assert cli.main([command, "--dataset", "synth", "--out",
                             str(tmp_path / "out"), "--config",
                             str(path)]) == 2
            assert f"{path}: not a JSON object" in capsys.readouterr().err

    def test_train_without_its_section_takes_the_defaults(self, tmp_path):
        """`train` reads only the "train" section: without one it trains
        vanilla at the preset settings, and the other sections' keys are
        never read as training settings."""
        cfg = {k: v for k, v in CLI_CFG.items() if k != "train"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "out")
        for command in ("stl-baseline", "train"):
            assert cli.main([command, "--dataset", "synth", "--out", out,
                             "--config", str(path)]) == 0
        (row,) = load_runs(os.path.join(out, "runs.csv"))
        assert (row["method"], row["epochs"]) == ("vanilla", 3)

    def test_repeated_train_appends_nothing(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["stl-baseline", "--dataset", "synth",
                         "--out", out, "--config", cfg]) == 0
        argv = ["train", "--dataset", "synth", "--out", out, "--config", cfg]
        assert cli.main(argv) == 0
        runs = os.path.join(out, "runs.csv")
        before = open(runs, "rb").read()
        (row,) = load_runs(runs)
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert f"{row['run_id']}: already recorded" in capsys.readouterr().out
        assert open(runs, "rb").read() == before
        assert cli.main(argv + ["--seed", "4"]) == 0
        assert len(load_runs(runs)) == 2

    def test_default_stl_seeds_and_key(self):
        """Without stl.seeds the STL seeds are 0-4, whatever --seed says,
        and the key is the one stl-baseline has always written."""
        cfg = {k: v for k, v in CLI_CFG.items() if k != "stl"}
        data = cli.resolve_data("synth", cfg)
        config, seeds, key = cli._stl_plan(cfg, data)
        assert seeds == (0, 1, 2, 3, 4)
        expected = TrainConfig(method="vanilla", task_weights=(1.0,), seed=0,
                               learning_rate=0.1, epochs=3, batch_size=128)
        assert config == expected
        assert key == stl_config_hash(data.arch, expected, seeds)

    @pytest.mark.parametrize("seeds, message", [
        ([0.5, 1.9], "stl.seeds[0] must be an integer >= 0, got 0.5"),
        (3, "stl.seeds must be a nonempty list, each an integer >= 0, got 3"),
        ("01", "stl.seeds must be a nonempty list, each an integer >= 0, "
         "got '01'"),
        ([1, None], "stl.seeds[1] must be an integer >= 0, got None"),
    ], ids=["floats", "int", "string", "null"])
    def test_stl_seeds_must_be_integers(self, tmp_path, capsys, seeds,
                                        message):
        """stl.seeds that are not a list of integers are refused by name,
        neither truncated to integers nor left to a traceback."""
        cfg = copy.deepcopy(CLI_CFG)
        cfg["stl"]["seeds"] = seeds
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["stl-baseline", "--dataset", "synth", "--out",
                         str(out), "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds, message", [
        ([1, 1], "stl.seeds must be distinct, got [1, 1]"),
        ([-1, 2], "stl.seeds[0] must be an integer >= 0, got -1"),
    ], ids=["repeated", "negative"])
    def test_stl_seeds_must_be_distinct_and_nonnegative(
            self, tmp_path, capsys, seeds, message):
        """A repeated seed would train one baseline twice and report it as
        two; a negative one would fail inside the random generator."""
        cfg = copy.deepcopy(CLI_CFG)
        cfg["stl"]["seeds"] = seeds
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["stl-baseline", "--dataset", "synth", "--out",
                         str(out), "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset, change, message", [
        ("synth", {"split_fraction": "0.8"},
         "split_fraction must be a number in (0, 1), got '0.8'"),
        ("synth", {"split_seed": 1.5},
         "split_seed must be an integer >= 0, got 1.5"),
        ("synth", {"synth_seed": "a"},
         "synth_seed must be an integer >= 0, got 'a'"),
        ("synth", {"synth_seed": -1},
         "synth_seed must be an integer >= 0, got -1"),
        ("synth", {"synth": {"n": 200.5}},
         "SynthSpec.n must be an integer >= 1, got 200.5"),
        ("synth", {"synth": {"num_tasks": 2.0}},
         "SynthSpec.num_tasks must be an integer >= 1, got 2.0"),
        ("synth", {"synth": {"dense_dim": 2.5}},
         "SynthSpec.dense_dim must be an integer >= 1, got 2.5"),
        ("synth", {"synth": {"logit_slope": "x"}},
         "SynthSpec.logit_slope must be a finite number, got 'x'"),
        ("synth", {"synth": {"feature_noise": math.inf}},
         "SynthSpec.feature_noise must be a finite number, got inf"),
        ("synth", {"arch": {"shared_layer_sizes": [2.5]}},
         "ArchConfig.shared_layer_sizes[0] must be an integer >= 1, "
         "got 2.5"),
        ("synth", {"arch": {"embedding_dim": 1.5}},
         "ArchConfig.embedding_dim must be an integer >= 1, got 1.5"),
        ("uci_adult", {"data_dir": 5}, "data_dir must be a string, got 5"),
    ], ids=["split_fraction-str", "split_seed-float", "synth_seed-str",
            "synth_seed-negative", "n-float", "num_tasks-float",
            "dense_dim-float", "logit_slope-str", "feature_noise-inf",
            "shared_layer_sizes-float", "embedding_dim-float", "data_dir-int"])
    def test_config_value_of_a_wrong_type_refused(self, tmp_path, capsys,
                                                  dataset, change, message):
        """A config value of a wrong type or out of range is a config
        error, exit 2, naming the key or its section. Most used to end
        in a TypeError traceback (exit 1), a negative synth_seed in
        numpy's bare "expected non-negative integer", and an infinite
        feature_noise was accepted."""
        cfg = copy.deepcopy(CLI_CFG)
        for key, value in change.items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["stl-baseline", "--dataset", dataset, "--out",
                         str(out), "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key, value", [
        ("train", "train", "epochs", True),
        ("train", "train", "epochs", 1.5),
        ("train", "train", "batch_size", True),
        ("train", "train", "seed", 2.0),
        ("sweep", "sweep", "budget", True),
        ("sweep", "sweep", "epochs", 1.5),
        ("stl-baseline", "stl", "epochs", True),
        ("stl-baseline", "synth", "n", True),
        ("stl-baseline", "arch", "num_tasks", True),
        ("stl-baseline", "arch", "head_layer_sizes", [True]),
    ], ids=["train-epochs-bool", "train-epochs-float", "batch_size-bool",
            "seed-float", "budget-bool", "sweep-epochs-float",
            "stl-epochs-bool", "n-bool", "num_tasks-bool",
            "head_layer_sizes-bool"])
    def test_integer_field_refuses_a_bool_or_float_by_name(
            self, tmp_path, capsys, command, section, key, value):
        """An integer config field given a bool or a float is a config
        error, exit 2, that names the field as <Class>.<field>.  A bool
        used to be taken as 0 or 1 (`"epochs": true` trained 1 epoch), and
        a float was refused naming neither the field nor its section."""
        err = refused(tmp_path, capsys, command, section, key, value)
        owner = {"train": "TrainConfig", "sweep": "SweepConfig",
                 "stl": "TrainConfig", "synth": "SynthSpec",
                 "arch": "ArchConfig"}[section]
        field = key + ("[0]" if isinstance(value, list) else "")
        shown = value[0] if isinstance(value, list) else value
        least = 0 if key == "seed" else 1
        assert (f"error: {owner}.{field} must be an integer >= {least}, "
                f"got {shown!r}" in err)

    @pytest.mark.parametrize("command, section, key, value, message", [
        ("train", "train", "learning_rate", "0.1",
         "TrainConfig.learning_rate must be a finite number > 0, got '0.1'"),
        ("train", "train", "mmd_bandwidth", True,
         "TrainConfig.mmd_bandwidth must be a finite number > 0, got True"),
        ("train", "train", "learning_rate", 10**400,
         f"TrainConfig.learning_rate must be a finite number > 0, "
         f"got {10**400}"),
        ("train", "train", "fairness_weights", ["1", 1.0],
         "TrainConfig.fairness_weights[0] must be a finite number >= 0, "
         "got '1'"),
        ("train", "train", "task_weights", "11",
         "TrainConfig.task_weights must be a nonempty list, each a finite "
         "number >= 0, got '11'"),
        ("sweep", "sweep", "learning_rate", "0.1",
         "SweepConfig.learning_rate must be a finite number > 0, got '0.1'"),
        ("sweep", "sweep", "lambda_range", [0.0, True],
         "SweepConfig.lambda_range[1] must be a finite number >= 0, "
         "got True"),
        ("sweep", "sweep", "methods", "mtaf",
         "SweepConfig.methods must be a nonempty list, each one of "
         "'vanilla', 'baseline', 'mtaf', got 'mtaf'"),
        ("stl-baseline", "synth", "logit_slope", "2.5",
         "SynthSpec.logit_slope must be a finite number, got '2.5'"),
        ("stl-baseline", "synth", "label_correlation", True,
         "SynthSpec.label_correlation must be a number in [0, 1], got True"),
        ("stl-baseline", "stl", "seeds", [True, 0],
         "stl.seeds[0] must be an integer >= 0, got True"),
    ], ids=["train-real-str", "train-real-bool", "train-real-huge-int",
            "train-list-str",
            "task_weights-str", "sweep-real-str", "sweep-range-bool",
            "methods-str", "synth-real-str", "synth-real-bool",
            "stl-seeds-bool"])
    def test_value_of_a_wrong_kind_refused_by_name(
            self, tmp_path, capsys, command, section, key, value, message):
        """A real given a str or a bool, a list given a str, and an STL
        seed given a bool are config errors, exit 2, that name the field
        or entry.  Each used to be trained as if meant: "0.1" and true as
        the floats 0.1 and 1.0, "11" as the weights (1.0, 1.0), true as
        seed 1; "mtaf" was refused as the unknown method 'm', and an
        integer too large for a float ended in an OverflowError."""
        assert (f"error: {message}\n"
                in refused(tmp_path, capsys, command, section, key, value))

    def test_train_refuses_a_negative_seed(self, tmp_path, capsys):
        """A negative training seed is a config error, exit 2, not a run
        appended as failed."""
        cfg = copy.deepcopy(CLI_CFG)
        cfg["train"]["seed"] = -1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        argv = ["--dataset", "synth", "--out", str(out), "--config", str(path)]
        assert cli.main(["stl-baseline"] + argv) == 0
        capsys.readouterr()
        assert cli.main(["train"] + argv) == 2
        assert ("TrainConfig.seed must be an integer >= 0, got -1"
                in capsys.readouterr().err)
        assert not (out / "runs.csv").exists()

    def test_seed_only_on_train_and_sweep(self, tmp_path):
        for command in (["stl-baseline", "--dataset", "synth"], ["report"]):
            with pytest.raises(SystemExit):
                cli.main(command + ["--out", str(tmp_path), "--seed", "0"])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_refuses_jobs_below_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--dataset", "synth", "--out", str(out),
                      "--jobs", jobs])
        assert exc.value.code == 2
        assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_train_without_baselines_fails_with_instruction(
            self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "fresh")
        code = cli.main(["train", "--dataset", "synth",
                         "--out", out, "--config", cfg])
        assert code == 2
        assert "stl-baseline" in capsys.readouterr().err

    def test_unknown_dataset(self, tmp_path, capsys):
        code = cli.main(["train", "--dataset", "nope",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "preset" in capsys.readouterr().err

    def test_report_without_runs(self, tmp_path, capsys):
        code = cli.main(["report", "--out", str(tmp_path)])
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_report_over_mixed_task_counts_refused(self, tmp_path, capsys):
        writer = RunsWriter(str(tmp_path / "runs.csv"))
        writer.append(fake_row("a", "mtaf", 0.5, 0.5, flags=None))
        writer.append(fake_row("b", "mtaf", 0.4, 0.6, errs=[0.1, 0.2, 0.3],
                               gaps=[0.1, 0.1, 0.1], flags=None))
        assert cli.main(["report", "--out", str(tmp_path)]) == 2
        assert "mixed objective dimensionality" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["runs.csv"]

    def test_report_that_writes_nothing_fails(self, tmp_path, capsys):
        """When every axes is skipped the report names the table and
        exits 2, without claiming to have written anything."""
        runs = str(tmp_path / "runs.csv")
        writer = RunsWriter(runs)
        for run_id in "abc":
            writer.append(fake_row(run_id, "mtaf", None, None,
                                   gaps=[0.1, None],
                                   flags="undefined_metric: task 1"))
        assert cli.main(["report", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count(": skipped (") == 3
        assert f"error: {runs}: every axes skipped, none written" in (
            captured.err)
        assert "wrote" not in captured.out
        assert os.listdir(tmp_path) == ["runs.csv"]

    @pytest.mark.parametrize("dataset", SCHEMA_PRESETS)
    def test_shipped_schema_runs_end_to_end(self, tmp_path, capsys, dataset):
        """Each shipped schema's CSVs, with missing cells, unseen
        categorical tokens and an unknown sensitive token, load through
        the schema branch of `resolve_data`: stl-baseline caches and
        train appends one row."""
        spec = load_schema(schema_path(dataset))
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        rng = np.random.default_rng(0)
        senses = ["?", "unknown", *dict(spec.sensitive.encoding)]
        for split, n in (("train", 160), ("test", 80)):
            tokens = ["a", "b", "c"] + ["unseen"] * (split == "test")
            rows = [spec.columns()]
            for i in range(n):
                row = list(map(repr, rng.normal(size=len(spec.dense)).tolist()))
                row += ["?" if i % 11 == 0 else str(rng.choice(tokens))
                        for _ in spec.categorical]
                for t in spec.tasks:
                    noise = 10 * rng.normal()
                    row.append(("no", str(t.constant))[i % 2] if t.op == "eq"
                               else repr(t.constant + float(noise)))
                row.append(str(rng.choice(senses)))
                if i % 13 == 5:
                    row[0] = "?"   # a missing dense value: rejected
                rows.append(row)
            (data_dir / f"{split}.csv").write_text(
                "\n".join(",".join(row) for row in rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_dir": str(data_dir),
                                   "stl": {"seeds": [0]}}))
        out = tmp_path / "out"
        argv = ["--dataset", dataset, "--out", str(out), "--config", str(cfg)]
        assert cli.main(["stl-baseline"] + argv) == 0
        assert cli.main(["train"] + argv) == 0
        assert len(load_runs(str(out / "runs.csv"))) == 1
        assert "rejected rows: train 12, test 6" in capsys.readouterr().err

    def test_preset_dataset_missing_files_points_at_prepare(
            self, tmp_path, capsys):
        code = cli.main(["train", "--dataset", "uci_adult",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "prepare" in capsys.readouterr().err
