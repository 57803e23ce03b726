"""Sweep orchestration: sampled configs, a persistent runs table, reports.

A sweep samples (task weights, fairness weights, head/shared ratios) from a
box under one master seed, trains each method on the shared draws, a stack
of runs at a time, and appends one CSV row per run as its stack finishes,
so partial sweeps remain usable.
Reports are a pure function of the finished table: per-method Pareto
frontiers on chosen axes, a dominated-hypervolume score against a shared
reference point, and the accuracy-frontier overlay in fairness space.
"""

import csv
import hashlib
import json
import math
import operator
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace

import numpy as np

from .exceptions import ConfigError, ContractError, UndefinedMetricError
from .metrics import StlBaselines, aggregate, evaluate_model
from .model import from_fields
from .pareto import ParetoPoint, frontier, frontier_quality
from .trainer import METHODS, TrainConfig, cut_stacks, train_stack

RUNS_SCHEMA_VERSION = 1

# runs.csv columns in order, each with the parser of a nonempty cell (an
# empty cell reads None).  Every TrainConfig field is a column.
RUNS_COLUMNS = {
    "run_id": str, "schema_version": int, "method": str, "seed": int,
    "task_weights": json.loads, "fairness_weights": json.loads,
    "head_shared_ratios": json.loads,
    "fairness_kind": str, "mmd_bandwidth": float, "fairness_target": str,
    "learning_rate": float, "epochs": int, "batch_size": int,
    "err_per_task": json.loads, "fpr_gap_per_task": json.loads,
    "tpr_gap_per_task": json.loads,
    "err_mean": float, "fpr_gap_mean": float, "arfg": float, "are": float,
    "flags": str, "seconds": float, "timestamp": float,
}


@dataclass(frozen=True)
class SweepConfig:
    """Sampling box and budget for one sweep.

    `budget` counts runs per method.  Draws are shared across methods so
    method comparisons are paired; vanilla ignores the fairness draws and
    baseline ignores the ratio draws by construction.  The last six fields,
    the settings all runs share, make `template`, the TrainConfig that
    validates them once and that each run copies.
    """
    methods: tuple = ("vanilla", "baseline", "mtaf")
    budget: int = 10
    seeds_per_config: int = 1
    master_seed: int = 0
    w1_range: tuple = (0.0, 1.0)
    lambda_range: tuple = (0.0, 5.0)
    ratio_range: tuple = (0.1, 10.0)     # sampled log-uniformly
    learning_rate: float = 0.05
    epochs: int = 1
    batch_size: int = 128
    fairness_kind: str = "mmd"
    mmd_bandwidth: float = 1.0
    fairness_target: str = "equal_opportunity_fpr"

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ConfigError("sweep needs a nonempty method list")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
        for name in ("budget", "seeds_per_config", "master_seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if self.seeds_per_config < 1:
            raise ConfigError("seeds_per_config must be >= 1")
        for name in ("w1_range", "lambda_range", "ratio_range"):
            lo, hi = getattr(self, name)
            object.__setattr__(self, name, (float(lo), float(hi)))
            if not lo <= hi:
                raise ConfigError(f"{name} must satisfy lo <= hi")
        if self.ratio_range[0] <= 0:
            raise ConfigError("ratio_range must be positive (log-uniform)")
        if not 0 <= self.w1_range[0] <= self.w1_range[1] <= 1:
            raise ConfigError("w1_range must lie inside [0, 1]")
        if self.lambda_range[0] < 0:
            raise ConfigError("lambda_range must be nonnegative")
        object.__setattr__(self, "template", TrainConfig(
            method=self.methods[0], task_weights=(1.0,),
            learning_rate=self.learning_rate, epochs=self.epochs,
            batch_size=self.batch_size, fairness_kind=self.fairness_kind,
            mmd_bandwidth=self.mmd_bandwidth,
            fairness_target=self.fairness_target))


def sample_configs(sweep, num_tasks):
    """Draw the paired config sequence for every method.

    One stream of (weights, lambdas, ratios) draws under the master seed;
    each method instantiates the same draws with its own semantics.  Returns
    {method: [TrainConfig, ...]} with exactly `budget` entries per method.
    """
    rng = np.random.default_rng(sweep.master_seed)
    num_configs = math.ceil(sweep.budget / sweep.seeds_per_config)
    draws = []
    for i in range(num_configs):
        if num_tasks == 2:
            w1 = float(rng.uniform(*sweep.w1_range))
            weights = (w1, 1.0 - w1)
        else:
            raw = rng.uniform(0.0, 1.0, size=num_tasks)
            total = raw.sum()
            weights = (tuple(raw / total) if total > 0
                       else (1.0 / num_tasks,) * num_tasks)
        lams = tuple(rng.uniform(*sweep.lambda_range, size=num_tasks))
        log_lo, log_hi = np.log(sweep.ratio_range)
        ratios = tuple(np.exp(rng.uniform(log_lo, log_hi, size=num_tasks)))
        draws.append((tuple(weights), lams, ratios))

    out = {}
    for method in sweep.methods:
        configs = []
        for i, (weights, lams, ratios) in enumerate(draws):
            for k in range(sweep.seeds_per_config):
                if len(configs) == sweep.budget:
                    break
                seed = sweep.master_seed * 100003 + i * sweep.seeds_per_config + k
                configs.append(replace(
                    sweep.template, method=method, task_weights=weights,
                    fairness_weights=(None if method == "vanilla" else lams),
                    head_shared_ratios=(ratios if method == "mtaf" else None),
                    seed=seed))
        out[method] = configs
    return out


def dataset_hash(dataset):
    """Content hash of one split's arrays."""
    h = hashlib.sha256()
    for arr in (dataset.dense, dataset.cat, dataset.labels, dataset.sensitive):
        h.update(np.ascontiguousarray(arr).tobytes())
        h.update(str(arr.shape).encode())
    return h.hexdigest()[:12]


def pair_hash(train_ds, test_ds):
    """Content hash of a train/test pair; keys STL caches and run ids."""
    return dataset_hash(train_ds)[:8] + dataset_hash(test_ds)[:4]


def run_id(config, pair, stl_key):
    """Content id of a run: a hash of its config, data pair and STL key."""
    payload = json.dumps([asdict(config), pair, stl_key], sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"{config.method}-{digest[:12]}"


def save_baselines(out_dir, pair, arch, baselines):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"stl_{pair}_{baselines.config_hash}.json")
    with open(path, "w") as f:
        json.dump({"schema_version": RUNS_SCHEMA_VERSION,
                   "dataset_hash": pair,
                   "arch": asdict(arch),
                   "baselines": asdict(baselines)}, f, indent=2)
    return path


def load_baselines(out_dir, pair, key):
    """The STL baselines cached under exactly this data pair and STL key;
    refused, listing the pair's caches, when absent or mislabelled."""
    path = os.path.join(out_dir, f"stl_{pair}_{key}.json")
    if not os.path.exists(path):
        names = os.listdir(out_dir) if os.path.isdir(out_dir) else []
        cached = sorted(n for n in names
                        if n.startswith(f"stl_{pair}_") and n.endswith(".json"))
        raise ConfigError(
            f"no STL baselines at {path}; cached for this data: "
            f"{', '.join(cached) or 'none'}; run `fairmtl stl-baseline` "
            "with this config first")
    with open(path) as f:
        baselines = from_fields(StlBaselines, json.load(f)["baselines"])
    if baselines.config_hash != key:
        raise ConfigError(f"{path} records STL key "
                          f"{baselines.config_hash!r}, not {key!r}")
    return baselines


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return json.dumps([None if v is None else float(v) for v in value])
    return value


def run_stack(train_ds, test_ds, arch, configs, baselines, run_ids):
    """Train a stack of configs as one (`train_stack`), evaluate each run
    on the test split, and return their runs-table rows in order; each
    row's `seconds` is the stack's wall time over its runs.

    Rows come back in parsed form (lists of floats, None for missing) and
    match what load_runs reads back; RunsWriter serializes on append.
    Failures never propagate: a diverged or degenerate run comes back as a
    flagged row with its config echoed, so sweeps keep going.
    """
    started = time.perf_counter()
    try:
        runs = train_stack(train_ds, arch, configs)
    except Exception as exc:  # noqa: BLE001 - flagged, never aborts a sweep
        runs = [exc] * len(configs)
    rows = []
    for config, rid, run in zip(configs, run_ids, runs):
        row, flags = _row(config, rid), []
        try:
            if isinstance(run, Exception):
                raise run
            per_task = evaluate_model(run.model, test_ds)
            row["err_per_task"] = [ev.err for ev in per_task]
            row["fpr_gap_per_task"] = [ev.fpr_gap for ev in per_task]
            row["tpr_gap_per_task"] = [ev.tpr_gap for ev in per_task]
            row["err_mean"] = float(np.mean([ev.err for ev in per_task]))
            try:
                metrics = aggregate(per_task, baselines)
                row.update(fpr_gap_mean=metrics.fpr_gap_mean,
                           arfg=metrics.arfg, are=metrics.are)
            except UndefinedMetricError as exc:
                flags.append(f"undefined_metric: {exc}")
        except Exception as exc:  # noqa: BLE001 - flagged, as above
            flags.append(f"failed: {type(exc).__name__}: {exc}")
        row["flags"] = "; ".join(flags) if flags else None
        rows.append(row)
    seconds = round((time.perf_counter() - started) / len(rows), 4)
    for row in rows:
        row["seconds"] = seconds
    return rows


def _row(config, rid, flags=None):
    """A runs-table row of this config and run id, its metrics empty."""
    row = dict.fromkeys(RUNS_COLUMNS)
    row.update((k, list(v) if isinstance(v, tuple) else v)
               for k, v in asdict(config).items())
    row.update(run_id=rid, schema_version=RUNS_SCHEMA_VERSION,
               timestamp=time.time(), flags=flags)
    return row


def run_single(train_ds, test_ds, arch, config, baselines, run_id="run"):
    """`run_stack` of one config: its runs-table row."""
    return run_stack(train_ds, test_ds, arch, [config], baselines,
                     [run_id])[0]


class RunsWriter:
    """Append-only writer for runs.csv; one header, unique run ids, flushed
    after every row so interrupted sweeps leave a readable table.  A table
    whose header is not `RUNS_COLUMNS`, or whose last row was cut short,
    is refused, not appended to."""

    def __init__(self, path):
        self.path = path
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w", newline="") as f:
                csv.writer(f).writerow(RUNS_COLUMNS)
        with open(path, "rb") as f:
            content = f.read()
        header = next(csv.reader([content.partition(b"\n")[0].decode()]), [])
        if header != list(RUNS_COLUMNS):
            raise ContractError(f"{path}: its header is not the runs table's "
                                "columns; refusing to append to it")
        if not content.endswith(b"\n"):
            line = content.count(b"\n") + 1
            raise ContractError(f"{path}:{line}: last row is cut short; "
                                "remove that line before appending")
        self.ids = {row["run_id"] for row in load_runs(path)}

    def append(self, row):
        if row["run_id"] in self.ids:
            raise ContractError(f"duplicate run_id {row['run_id']!r}")
        self.ids.add(row["run_id"])
        with open(self.path, "a", newline="") as f:
            csv.writer(f).writerow([_cell(row[c]) for c in RUNS_COLUMNS])
            f.flush()


def _json_column(cells):
    """A JSON list column's cells decoded with one `json.loads`.

    Raises ValueError unless the joined array splits back into the cells
    for sure: every nonempty cell is one bracketed list with no nested
    brackets and no strings, and the array holds one value per cell.
    """
    present = [c for c in cells if c != ""]
    joined = "[" + ",".join(present) + "]"
    if ('"' in joined or joined.count("[") != len(present) + 1
            or not all(c.startswith("[") for c in present)):
        raise ValueError("not a column of flat lists")
    values = json.loads(joined)
    if len(values) != len(present):
        raise ValueError("cells and values disagree")
    if len(present) == len(cells):
        return values
    value = iter(values).__next__
    return [None if c == "" else value() for c in cells]


def _decode_column(path, name, cells, lines):
    """A column's cells, each decoded by its column's parser, a JSON
    column in one call where `_json_column` can; a cell that does not
    decode raises ContractError naming its line, of `lines`."""
    parser = RUNS_COLUMNS.get(name, str)
    if parser is json.loads:
        try:
            return _json_column(cells)
        except ValueError:
            pass
    values = []
    try:
        for cell in cells:
            values.append(None if cell == "" else parser(cell))
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{path}:{lines[len(values)]}: malformed row "
                            f"({exc})") from exc
    return values


def load_runs(path):
    """Read runs.csv back into dicts; numeric and JSON cells are decoded
    column by column.  A malformed row raises ContractError naming the
    file and line."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        names = next(reader, [])
        if "run_id" not in names:
            raise ContractError(f"{path}: not a runs table")
        rows, lines = [], []
        for row in filter(None, reader):   # blank lines hold no row
            if len(row) != len(names):
                raise ContractError(f"{path}:{reader.line_num}: malformed "
                                    f"row ({len(row)} cells, {len(names)} "
                                    "columns)")
            rows.append(row)
            lines.append(reader.line_num)
    columns = list(zip(*rows))
    del rows   # so each column's cells are freed once it is decoded
    for i, (name, cells) in enumerate(zip(names, columns)):
        columns[i] = _decode_column(path, name, cells, lines)
    return [dict(zip(names, values)) for values in zip(*columns)]


# The (train_ds, test_ds, arch, baselines) every run of a sweep shares: set
# once in each pool worker by its initializer, and in this process for the
# length of a serial sweep, so a task carries only its configs and run ids.
_sweep_inputs = None


def _share_inputs(inputs):
    global _sweep_inputs
    _sweep_inputs = inputs


def _run_task(stack):
    train_ds, test_ds, arch, baselines = _sweep_inputs
    configs, rids = zip(*stack)
    return run_stack(train_ds, test_ds, arch, list(configs), baselines,
                     list(rids))


def _pooled(stacks, jobs, inputs):
    """Each stack's rows, in order, from a pool of `jobs` workers, which
    receive `inputs` once, at start-up.  A dead worker breaks the pool:
    the first stack left unfinished then runs alone in a fresh pool, its
    runs flagged `failed: worker died` if that worker dies too, and the
    stacks after it go on in another."""
    def pool(workers):
        return ProcessPoolExecutor(max_workers=workers,
                                   initializer=_share_inputs,
                                   initargs=(inputs,))
    while stacks:
        with pool(jobs) as workers:
            futures = [workers.submit(_run_task, stack) for stack in stacks]
            for broken, future in enumerate(futures):
                try:
                    rows = future.result()
                except BrokenProcessPool:
                    break
                yield rows
            else:
                return
        with pool(1) as alone:
            try:
                rows = alone.submit(_run_task, stacks[broken]).result()
            except BrokenProcessPool:
                rows = [_row(config, rid, "failed: worker died")
                        for config, rid in stacks[broken]]
                print(f"a worker died: {len(rows)} run(s) flagged",
                      file=sys.stderr)
        yield rows
        stacks = stacks[broken + 1:]


def run_sweep(train_ds, test_ds, arch, sweep, baselines, out_dir, jobs=1):
    """Execute a full sweep, appending rows to <out_dir>/runs.csv.

    Runs whose id the table holds are skipped, so a re-run resumes.  Each
    method's pending runs are cut into stacks (`trainer.cut_stacks`), each
    trained as one (`run_stack`).
    Stacks are farmed to a process pool when jobs > 1 (`_pooled`); rows
    are appended, and returned, per stack in submission order by this
    process alone, so a stopped sweep loses at most the stacks in flight.
    """
    configs = sample_configs(sweep, train_ds.num_tasks)
    writer = RunsWriter(os.path.join(out_dir, "runs.csv"))
    pair = pair_hash(train_ds, test_ds)
    seen = set(writer.ids)
    stacks = []
    for method in sweep.methods:
        pending = []
        for config in configs[method]:
            rid = run_id(config, pair, baselines.config_hash)
            if rid not in seen:
                seen.add(rid)
                pending.append((config, rid))
        stacks += cut_stacks(pending, sweep.batch_size)

    inputs = (train_ds, test_ds, arch, baselines)
    rows = []
    try:
        if jobs > 1 and stacks:
            stack_rows = _pooled(stacks, jobs, inputs)
        else:
            _share_inputs(inputs)
            stack_rows = map(_run_task, stacks)
        for done in stack_rows:
            for row in done:
                writer.append(row)
            rows += done
    finally:
        _share_inputs(None)
    return rows


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _axes_spec(axes, num_tasks):
    if axes == "are_arfg":
        return ("are", "arfg")
    if axes.startswith("task"):
        t = int(axes[4:])
        if not 0 <= t < num_tasks:
            raise ConfigError(f"axes {axes!r} out of range for {num_tasks} tasks")
        return (("err_per_task", t), ("fpr_gap_per_task", t))
    raise ConfigError(f"unknown axes {axes!r}; use are_arfg or task<t>")


def _num_tasks(rows):
    for row in rows:
        if row["err_per_task"]:
            return len(row["err_per_task"])
    raise ContractError("no row carries per-task metrics")


def _coord(row, key):
    if isinstance(key, tuple):
        column, t = key
        values = row[column]
        return None if values is None else values[t]
    return row[key]


def emit_reports(rows, axes, out_dir, overlay=None):
    """Frontier JSON + plot CSV for one axes choice; pure in the rows.

    Flagged rows and rows missing either coordinate are excluded, with
    counts recorded per method.  The hypervolume reference point is the
    componentwise max over every method's kept runs, widened by 10%, so
    areas are comparable across methods.  `overlay`, when given, is
    `accuracy_overlay(rows)`, which no axes choice changes.
    """
    num_tasks = _num_tasks(rows)
    xkey, ykey = _axes_spec(axes, num_tasks)
    methods = list(dict.fromkeys(row["method"] for row in rows))

    kept, excluded = {m: [] for m in methods}, {m: 0 for m in methods}
    for row in rows:
        x, y = _coord(row, xkey), _coord(row, ykey)
        if row["flags"] or x is None or y is None:
            excluded[row["method"]] += 1
        else:
            kept[row["method"]].append(
                ParetoPoint((float(x), float(y)), run_id=row["run_id"]))

    alive = [m for m in methods if kept[m]]
    if not alive:
        raise ContractError(f"no unflagged rows usable for axes {axes!r}")
    all_points = [p for m in alive for p in kept[m]]
    reference = tuple(
        1.1 * max(p.objectives[d] for p in all_points) for d in (0, 1))

    report = {
        "schema_version": RUNS_SCHEMA_VERSION,
        "axes": axes,
        "x": str(xkey), "y": str(ykey),
        "reference_point": list(reference),
        "methods": {},
    }
    plot_rows = []
    for m in methods:
        points = kept[m]
        if not points:
            report["methods"][m] = {"num_runs": 0, "num_excluded": excluded[m],
                                    "frontier": [], "frontier_quality": None}
            continue
        front = frontier(points)
        front_ids = {p.run_id for p in front}
        report["methods"][m] = {
            "num_runs": len(points),
            "num_excluded": excluded[m],
            "frontier": [{"run_id": p.run_id,
                          "x": p.objectives[0], "y": p.objectives[1]}
                         for p in front],
            "frontier_quality": frontier_quality(front, reference),
        }
        for p in points:
            plot_rows.append((m, p.objectives[0], p.objectives[1],
                              int(p.run_id in front_ids)))

    report["accuracy_overlay"] = (accuracy_overlay(rows) if overlay is None
                                  else overlay)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"frontier_{axes}.json"), "w") as f:
        f.write(json.dumps(report, indent=2))
    with open(os.path.join(out_dir, f"plotdata_{axes}.csv"), "w",
              newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("method", "x", "y", "on_frontier"))
        writer.writerows(plot_rows)
    return report


def accuracy_overlay(rows):
    """Runs on the per-task-error frontier, shown in fairness coordinates.

    Makes visible how far accuracy-optimal runs sit from the fairness
    frontier.  Only rows with every per-task gap defined participate.
    """
    overlay = {}
    for m in dict.fromkeys(row["method"] for row in rows):
        usable = [row for row in rows
                  if row["method"] == m and not row["flags"]
                  and row["err_per_task"] and row["fpr_gap_per_task"]
                  and all(g is not None for g in row["fpr_gap_per_task"])]
        if not usable:
            overlay[m] = {"accuracy_frontier": [], "fairness_frontier_run_ids": []}
            continue
        acc_points = [ParetoPoint(tuple(row["err_per_task"]),
                                  run_id=row["run_id"]) for row in usable]
        fair_points = [ParetoPoint(tuple(row["fpr_gap_per_task"]),
                                   run_id=row["run_id"]) for row in usable]
        acc_ids = {p.run_id for p in frontier(acc_points)}
        fair_ids = {p.run_id for p in frontier(fair_points)}
        by_id = {row["run_id"]: row for row in usable}
        overlay[m] = {
            "accuracy_frontier": [
                {"run_id": rid,
                 "err_per_task": by_id[rid]["err_per_task"],
                 "fpr_gap_per_task": by_id[rid]["fpr_gap_per_task"],
                 "also_on_fairness_frontier": rid in fair_ids}
                for rid in sorted(acc_ids)],
            "fairness_frontier_run_ids": sorted(fair_ids),
        }
    return overlay
