#!/usr/bin/env python3
"""fairmtl benchmark: sweep throughput, per-run latency and report time.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-mmd-b512 --seed 1 --seconds 30 --trace 0

fairmtl is imported from src/ and driven through `fairmtl.cli.main`, in
process.  `--trace 0` prints the end-to-end metrics, every time scaled to a
nominal machine speed by reference samples taken next to it (calib.py);
`--trace 1` replays the workload with spans around each layer and prints the
per-layer metrics, unscaled.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`; the exit
code is 0 only when every output check passed.  perfbench/README.md
documents the metrics and workloads.
"""

import argparse
import collections
import contextlib
import functools
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types

import numpy as np

import calib
import checks
import stats
import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 9
METHODS = ("vanilla", "baseline", "mtaf")
AXES = ("are_arfg", "task0", "task1")
# Sample floors that keep the tail percentile fixed across runs: p90 for
# sweep rows, p75 for reports (see stats.TAIL_PERCENTILES).
MIN_SWEEP_ROWS = stats.min_samples_for(90)
MIN_REPORTS = stats.min_samples_for(75)
# Measuring stops here even below the floors, to end well within 180 s.
HARD_STOP_S = 110.0
# Reports are short; several per sweep give report_s enough samples.
REPORTS_PER_SWEEP = 10
# Untraced/traced report pairs behind trace.overhead_* on report-large.
OVERHEAD_PAIRS = 3

BASE_CONFIG = {
    "synth": {"n": 8000, "positive_rates": [[0.2, 0.35], [0.5, 0.3]]},
    "split_fraction": 0.8,
    "arch": {"num_tasks": 2, "shared_layer_sizes": [16],
             "head_layer_sizes": [8]},
    "stl": {"seeds": [0, 1, 2], "epochs": 3},
}

WORKLOADS = {
    "sweep-mmd-b512": {"fairness_kind": "mmd", "batch_size": 512,
                       "jobs": 1, "budget": 8},
    "sweep-fpr-b128-j2": {"fairness_kind": "soft_fpr_gap", "batch_size": 128,
                          "jobs": 2, "budget": 8},
    "report-large": {"rows_per_method": 400},
}


class BenchError(Exception):
    pass


def load_fairmtl():
    """Import fairmtl afresh from src/, so that each set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == "fairmtl" or n.startswith("fairmtl.")]:
        del sys.modules[name]
    importlib.import_module("fairmtl.cli")
    names = ("cli", "data", "trainer", "losses", "autodiff", "backend",
             "metrics", "sweep", "pareto")
    return types.SimpleNamespace(
        package=sys.modules["fairmtl"],
        **{n: sys.modules.get(f"fairmtl.{n}") for n in names})


def run_cli(fm, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = fm.cli.main(argv)
    if code != 0:
        raise BenchError(f"fairmtl {' '.join(argv)} exited with {code}")


class Context:
    """Per-run scratch space, inputs and the tally of checked outputs."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.seconds = seconds
        self.spec = WORKLOADS[workload]
        self.work = os.path.join(
            WORK, f"{workload}-s{seed}-t{trace}-{os.getpid()}")
        os.makedirs(self.work)
        self._dirs = 0
        self.attempted = 0
        self.problems = []
        self.fm = None             # the fairmtl modules of the latest set-up
        self.config = None         # sweep config path
        self.stl_file = self.stl_content = None   # first set-up's STL cache
        self.setup_layers = {}     # traced set-up times per layer
        self.rows = self.table = None             # report-large fixture
        self.reference = None      # first repetition's outputs
        self.notes = {}            # per-run details for the record

    def fresh_dir(self, prefix):
        self._dirs += 1
        path = os.path.join(self.work, f"{prefix}{self._dirs:04d}")
        os.makedirs(path)
        return path

    def tally(self, attempted, problems):
        self.attempted += attempted
        self.problems.extend(problems)

    @property
    def failed(self):
        return min(self.attempted, len(self.problems))


# ---------------------------------------------------------------------------
# Sweep workloads
# ---------------------------------------------------------------------------

def write_sweep_config(ctx):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["synth_seed"] = cfg["split_seed"] = ctx.seed
    cfg["sweep"] = {"methods": list(METHODS), "budget": ctx.spec["budget"],
                    "epochs": 3, "learning_rate": 0.1,
                    "batch_size": ctx.spec["batch_size"],
                    "fairness_kind": ctx.spec["fairness_kind"]}
    path = os.path.join(ctx.work, "config.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


def closed_loop(ctx, seconds, enough, setup_rep, work_rep):
    """Repeat work_rep, one at a time, until `seconds` have passed and
    enough(reps) holds.  The SETUP_REPS set-ups are interleaved between
    repetitions, so set-up time is sampled over the same stretch of the
    machine's (shared, drifting) speed as the work."""
    setups = [setup_rep()]
    reps = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and enough(reps)):
            break
        reps.append(work_rep())
        if len(setups) < SETUP_REPS:
            setups.append(setup_rep())
    while len(setups) < SETUP_REPS:
        setups.append(setup_rep())
    ctx.notes["setup_s"] = setups
    return setups, reps


def sweep_setup_rep(ctx):
    """Import fairmtl, resolve the synthetic data and train the STL
    baselines into a fresh directory; returns the seconds taken."""
    out = ctx.fresh_dir("setup")
    argv = ["stl-baseline", "--config", ctx.config, "--dataset", "synth",
            "--out", out]
    before, _ = calib.sample()
    started = time.perf_counter()
    ctx.fm = load_fairmtl()
    if ctx.trace:
        tr = tracing.Tracer()
        with tr.installed(tracing.setup_layers(ctx.fm)):
            run_cli(ctx.fm, argv)
        for name in ("cli.resolve_data", "metrics.stl"):
            ctx.setup_layers.setdefault(name, []).append(tr.inclusive_s(name))
    else:
        run_cli(ctx.fm, argv)
    seconds = time.perf_counter() - started
    after, _ = calib.sample()
    ctx.notes.setdefault("setup_raw_s", []).append(seconds)

    stl_files = glob.glob(os.path.join(out, "stl_*.json"))
    if len(stl_files) != 1:
        raise BenchError(f"expected one STL cache file, found {stl_files}")
    with open(stl_files[0], "rb") as f:
        content = f.read()
    if ctx.stl_file is None:
        ctx.stl_file, ctx.stl_content = stl_files[0], content
    ctx.tally(1, [] if content == ctx.stl_content
              else ["STL baselines differ between set-ups"])
    return calib.scale(seconds, (before + after) / 2)


def sample_before_runs(fm, log):
    """Patch fairmtl.sweep.run_single so that a reference sample precedes
    each run, outside the run's own `seconds`.  Forked pool workers inherit
    the patch; every process appends [run_id, reference_s, sample_s] lines
    to `log`.  The caller restores the original."""
    original = fm.sweep.run_single

    def run_single(*args, **kwargs):
        reference, took = calib.sample()
        row = original(*args, **kwargs)
        with open(log, "a") as f:
            f.write(json.dumps([row["run_id"], reference, took]) + "\n")
        return row

    fm.sweep.run_single = run_single


def sweep_rep(ctx, jobs, tracer=None):
    """One `fairmtl sweep` into a fresh --out, then REPORTS_PER_SWEEP
    `fairmtl report` runs over it, all checked.

    A fresh directory per repetition keeps re-runs from appending duplicate
    rows and leaves exactly one STL cache file for load_baselines to find.
    Untraced, a reference sample precedes every run (and, should the pool
    not inherit the patch, the samples around the sweep stand in for it);
    the two samples around each report scale its time.
    """
    fm = ctx.fm
    out = ctx.fresh_dir("sweep")
    shutil.copy(ctx.stl_file, out)
    log = out + ".refs"
    returned = []
    run_sweep, run_single = fm.cli.run_sweep, fm.sweep.run_single

    def capture(*args, **kwargs):
        rows = run_sweep(*args, **kwargs)
        returned.append(rows)
        return rows

    fm.cli.run_sweep = capture
    if not ctx.trace:
        sample_before_runs(fm, log)
    reports, outputs, around = [], set(), []
    try:
        with (tracer.installed(tracing.work_layers(fm)) if tracer
              else contextlib.nullcontext()):
            around.append(calib.sample()[0])
            started = time.perf_counter()
            run_cli(fm, ["sweep", "--config", ctx.config, "--dataset",
                         "synth", "--out", out, "--jobs", str(jobs),
                         "--seed", str(ctx.seed)])
            wall = time.perf_counter() - started
            around.append(calib.sample()[0])
            for _ in range(1 if tracer else REPORTS_PER_SWEEP):
                started = time.perf_counter()
                run_cli(fm, ["report", "--out", out])
                reports.append(time.perf_counter() - started)
                outputs.add(read_frontiers(out))
                around.append(calib.sample()[0])
    finally:
        fm.cli.run_sweep, fm.sweep.run_single = run_sweep, run_single

    run_refs, sampled = {}, 0.0
    if os.path.exists(log):
        with open(log) as f:
            for line in f:
                run_id, reference, took = json.loads(line)
                run_refs[run_id] = reference
                sampled += took
        os.remove(log)

    expected = ctx.spec["budget"] * len(METHODS)
    rows = fm.sweep.load_runs(os.path.join(out, "runs.csv"))
    problems = (checks.check_rows(rows, expected)
                + checks.check_round_trip(returned[0], rows)
                + checks.check_frontiers(out, rows, AXES))
    if len(outputs) != 1:
        problems.append("repeated reports over one runs table differ")
    if ctx.reference is None:
        ctx.reference = checks.metric_columns(rows)
    else:
        problems += checks.check_repeatable(rows, ctx.reference)
    ctx.tally(expected, problems)
    shutil.rmtree(out)
    sweep_ref = (around[0] + around[1]) / 2
    return {"rows": rows, "wall": wall,
            "reports": [(t, (before + after) / 2) for t, before, after
                        in zip(reports, around[1:], around[2:])],
            "run_refs": {row["run_id"]: run_refs.get(row["run_id"], sweep_ref)
                         for row in rows},
            "sampled_s": sampled}


def read_frontiers(out):
    contents = []
    for axes in AXES:
        with open(os.path.join(out, f"frontier_{axes}.json")) as f:
            contents.append(f.read())
    return tuple(contents)


def scaled_runs_per_min(rep, jobs):
    """Runs per minute of one sweep's wall time, less the reference samples
    its runs took (shared among the jobs workers), scaled by the factor that
    scales the sum of its runs' seconds."""
    raw = sum(row["seconds"] for row in rep["rows"])
    scaled = sum(calib.scale(row["seconds"], rep["run_refs"][row["run_id"]])
                 for row in rep["rows"])
    wall = (rep["wall"] - rep["sampled_s"] / jobs) * scaled / raw
    return len(rep["rows"]) * 60 / wall


def sweep_metrics(reps, setup, jobs):
    """End-to-end metrics from scaled times."""
    seconds = [calib.scale(row["seconds"], r["run_refs"][row["run_id"]])
               for r in reps for row in r["rows"]]
    reports = [calib.scale(t, ref) for r in reps for t, ref in r["reports"]]
    rates = [scaled_runs_per_min(r, jobs) for r in reps]
    p, tail, n = stats.tail_percentile(seconds)
    raw = [row["seconds"] for r in reps for row in r["rows"]]
    return {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} set-ups"),
        "sweep_runs_per_min": (statistics.median(rates), "1/min",
                               f"median of {len(reps)} sweeps"),
        "run_s_p50": (statistics.median(seconds), "s",
                      f"N={n} runs, unscaled {statistics.median(raw):.4g} s"),
        "run_s_tail": (tail, "s", f"p{p}, N={n} runs"),
        "report_s": (statistics.median(reports), "s",
                     f"median of {len(reports)} reports"),
    }, {"tail_percentile": p,
        "run_seconds": [[row["method"], row["seconds"],
                         r["run_refs"][row["run_id"]]]
                        for r in reps for row in r["rows"]],
        "sweep_seconds": [[r["wall"], r["sampled_s"]] for r in reps],
        "report_seconds": [report for r in reps for report in r["reports"]]}


def pool_busy_share(reps, jobs):
    return statistics.median(
        sum(row["seconds"] for row in r["rows"]) / (jobs * r["wall"])
        for r in reps)


def run_sweep_workload(ctx):
    ctx.config = write_sweep_config(ctx)
    jobs = ctx.spec["jobs"]
    setup_rep = functools.partial(sweep_setup_rep, ctx)
    work_rep = functools.partial(sweep_rep, ctx, jobs)
    if not ctx.trace:
        setup, reps = closed_loop(
            ctx, ctx.seconds,
            lambda reps: sum(len(r["rows"]) for r in reps) >= MIN_SWEEP_ROWS,
            setup_rep, work_rep)
        metrics, notes = sweep_metrics(reps, setup, jobs)
        ctx.notes.update(notes)
        return metrics

    # Untraced sweeps as the workload runs them, then one replay of the same
    # configurations at --jobs 1 without and with spans.
    _, reps = closed_loop(ctx, ctx.seconds / 2, bool, setup_rep, work_rep)
    plain = sweep_rep(ctx, 1)
    tr = tracing.Tracer(keep_durations=("trainer.step",))
    traced = sweep_rep(ctx, 1, tracer=tr)
    before = {row["run_id"]: row["seconds"] for row in plain["rows"]}
    deltas = [row["seconds"] - before[row["run_id"]]
              for row in traced["rows"]]
    extra = {
        "sweep.pool_busy_share": (pool_busy_share(reps, jobs), "share"),
        "sweep.undefined_metric_rows": (
            sum(checks.is_undefined(row) for r in reps for row in r["rows"]),
            "count"),
        "trace.overhead_s": (statistics.median(deltas), "s"),
        "trace.overhead_share": (
            sum(deltas) / sum(before.values()), "share"),
    }
    setup_layers = {k: statistics.median(v)
                    for k, v in ctx.setup_layers.items()}
    return layer_metrics(tr, setup_layers, extra, ctx)


# ---------------------------------------------------------------------------
# report-large
# ---------------------------------------------------------------------------

def make_runs_table(seed, per_method):
    """A seeded runs table along a noisy error/gap trade-off.

    Each row sits at a trade-off position u: error rises with u while the FPR
    gap falls, plus one-sided noise, so every frontier holds many points.
    About 3% of rows are flagged `failed:` with no metrics and 3% have an
    undefined gap, so the report's exclusion paths run.
    """
    rng = np.random.default_rng(seed)
    base_err, base_gap = (0.2, 0.3), (0.15, 0.05)
    rows = []
    for method in METHODS:
        for i in range(per_method):
            u = rng.random()
            err = [float(np.clip(0.1 + 0.2 * u + rng.exponential(0.004), 0, 1))
                   for _ in range(2)]
            gap = [float(np.clip(0.2 * (1 - u) ** 2 + rng.exponential(0.004),
                                 0, 1)) for _ in range(2)]
            fate = rng.random()
            w1, lam, ratio = rng.random(), rng.uniform(0, 5, 2), rng.random(2)
            row = {
                "run_id": f"r{len(rows):05d}-{method}",
                "schema_version": 1, "method": method, "seed": i,
                "task_weights": [w1, 1.0 - w1],
                "fairness_weights": (None if method == "vanilla"
                                     else [float(x) for x in lam]),
                "head_shared_ratios": ([float(x) for x in ratio]
                                       if method == "mtaf" else None),
                "fairness_kind": "mmd", "mmd_bandwidth": 1.0,
                "fairness_target": "equal_opportunity_fpr",
                "learning_rate": 0.1, "epochs": 3, "batch_size": 512,
                "err_per_task": err, "fpr_gap_per_task": gap,
                "tpr_gap_per_task": [float(x) for x in rng.random(2) * 0.1],
                "err_mean": sum(err) / 2, "fpr_gap_mean": sum(gap) / 2,
                "arfg": sum(g / b for g, b in zip(gap, base_gap)) / 2,
                "are": sum(e / b for e, b in zip(err, base_err)) / 2,
                "flags": None,
                "seconds": round(float(rng.lognormal(-1.2, 0.3)), 4),
                "timestamp": 1.7e9 + len(rows),
            }
            if fate < 0.03:
                for column in checks.METRIC_COLUMNS:
                    row[column] = None
                row["flags"] = "failed: TrainingDiverged: non-finite loss"
            elif fate < 0.06:
                row["fpr_gap_per_task"] = [gap[0], None]
                row["fpr_gap_mean"] = row["arfg"] = row["are"] = None
                row["flags"] = ("undefined_metric: task 1: FPR gap undefined "
                                "(a group has no negatives)")
            rows.append(row)
    return rows


def write_table(ctx):
    """Write the runs table through RunsWriter into a fresh directory and
    check that load_runs reads it back; returns the scaled seconds the write
    took."""
    path = os.path.join(ctx.fresh_dir("table"), "runs.csv")
    before, _ = calib.sample()
    started = time.perf_counter()
    writer = ctx.fm.sweep.RunsWriter(path)
    for row in ctx.rows:
        writer.append(row)
    seconds = time.perf_counter() - started
    after, _ = calib.sample()
    ctx.notes.setdefault("setup_raw_s", []).append(seconds)
    ctx.table = path
    ctx.tally(1, checks.check_round_trip(ctx.rows,
                                         ctx.fm.sweep.load_runs(path)))
    return calib.scale(seconds, (before + after) / 2)


def report_rep(ctx, tracer=None):
    """One checked `fairmtl report` over the fixture; returns (seconds,
    reference seconds around them)."""
    out = ctx.fresh_dir("report")
    shutil.copy(ctx.table, out)
    before, _ = calib.sample()
    with (tracer.installed(tracing.work_layers(ctx.fm)) if tracer
          else contextlib.nullcontext()):
        started = time.perf_counter()
        run_cli(ctx.fm, ["report", "--out", out])
        wall = time.perf_counter() - started
    after, _ = calib.sample()
    outputs = read_frontiers(out)
    # The oracle checks the first report; later ones must match it exactly.
    if ctx.reference is None:
        problems = checks.check_frontiers(out, ctx.rows, AXES)
        ctx.reference = outputs
    elif outputs != ctx.reference:
        problems = ["frontier files differ from the first repetition"]
    else:
        problems = []
    ctx.tally(1, problems)
    shutil.rmtree(out)
    return wall, (before + after) / 2


def run_report_workload(ctx):
    ctx.fm = load_fairmtl()
    ctx.rows = make_runs_table(ctx.seed, ctx.spec["rows_per_method"])
    setup_rep = functools.partial(write_table, ctx)
    work_rep = functools.partial(report_rep, ctx)
    if not ctx.trace:
        setup, reps = closed_loop(ctx, ctx.seconds,
                                  lambda reps: len(reps) >= MIN_REPORTS,
                                  setup_rep, work_rep)
        walls = [calib.scale(wall, ref) for wall, ref in reps]
        p, tail, n = stats.tail_percentile(walls)
        rows_per_min = [len(ctx.rows) / w * 60 for w in walls]
        ctx.notes.update({"tail_percentile": p, "report_seconds": reps})
        return {
            "setup_s": (statistics.median(setup), "s",
                        f"median of {len(setup)} writes of "
                        f"{len(ctx.rows)} rows"),
            "sweep_runs_per_min": (statistics.median(rows_per_min), "1/min",
                                   "runs-table rows reported per minute"),
            "run_s_p50": (statistics.median(walls), "s",
                          f"one run = one report, N={n}, unscaled "
                          f"{statistics.median(w for w, _ in reps):.4g} s"),
            "run_s_tail": (tail, "s", f"p{p}, N={n} reports"),
            "report_s": (statistics.median(walls), "s",
                         f"median of {n} reports"),
        }

    closed_loop(ctx, ctx.seconds / 2, bool, setup_rep, work_rep)
    tr = tracing.Tracer()
    with tr.installed(tracing.work_layers(ctx.fm)):
        write_table(ctx)
    # Untraced and traced reports alternate, each scaled by the reference
    # samples around it, so that a slow stretch does not read as overhead.
    # Only the first traced report feeds the per-layer metrics.
    pairs = []
    for i in range(OVERHEAD_PAIRS):
        plain = calib.scale(*report_rep(ctx))
        traced = calib.scale(*report_rep(
            ctx, tracer=tr if i == 0 else tracing.Tracer()))
        pairs.append((plain, traced))
    plain = statistics.median(p for p, _ in pairs)
    overhead = statistics.median(t - p for p, t in pairs)
    extra = {
        "sweep.pool_busy_share": (0.0, "share"),
        "sweep.undefined_metric_rows": (
            sum(checks.is_undefined(row) for row in ctx.rows), "count"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / plain, "share"),
    }
    return layer_metrics(tr, {}, extra, ctx)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tr, setup_layers, extra, ctx):
    shapes = tr.samples["gauss_shape"]
    pairs = [u * v for u, v in shapes]
    steps = tr.durations["trainer.step"]
    negatives = tr.counts["losses.negatives"]
    backward_calls = tr.calls("autodiff.backward")
    if tr.missing:
        ctx.notes["names_not_found"] = sorted(set(tr.missing))
    if shapes:
        ctx.notes["gauss_shape"] = {
            "calls": len(shapes),
            "rows_u_p50": statistics.median(u for u, _ in shapes),
            "rows_v_p50": statistics.median(v for _, v in shapes),
            "rows_u_max": max(u for u, _ in shapes),
            "rows_v_max": max(v for _, v in shapes),
            "histogram": [[u, v, n] for (u, v), n
                          in sorted(collections.Counter(shapes).items())],
        }
    metrics = {
        "data.take_s": (tr.self_s("data.take"), "s"),
        "data.take_calls": (tr.calls("data.take"), "count"),
        "model.forward_s": (tr.self_s("model.forward"), "s"),
        "model.forward_calls": (tr.calls("model.forward"), "count"),
        "losses.xent_s": (tr.self_s("losses.xent"), "s"),
        "losses.fairness_build_s": (tr.self_s("losses.fairness_build"), "s"),
        "losses.exclusive_share": (
            tr.counts["losses.exclusive_negatives"] / negatives
            if negatives else 0.0, "share"),
        "autodiff.backward_s": (tr.self_s("autodiff.backward"), "s"),
        "autodiff.backward_calls": (backward_calls, "count"),
        "autodiff.nodes_per_backward": (
            tr.counts["autodiff.nodes"] / backward_calls
            if backward_calls else 0.0, "count"),
        "trainer.steps": (tr.calls("trainer.step"), "count"),
        "trainer.step_ms_p50": (
            statistics.median(steps) * 1000 if steps else 0.0, "ms"),
        "trainer.step_self_s": (tr.self_s("trainer.step"), "s"),
        "trainer.update_s": (tr.self_s("trainer.update"), "s"),
        "kernels.gauss_s": (tr.self_s("kernels.gauss"), "s"),
        "kernels.gauss_calls": (tr.calls("kernels.gauss"), "count"),
        "kernels.gauss_pairs": (sum(pairs), "count"),
        "kernels.gauss_call_pairs_p50": (
            statistics.median(pairs) if pairs else 0, "count"),
        "kernels.gauss_call_pairs_max": (max(pairs, default=0), "count"),
        "kernels.elementwise_s": (tr.self_s("kernels.elementwise"), "s"),
        "kernels.adagrad_s": (tr.self_s("kernels.adagrad"), "s"),
        "metrics.evaluate_s": (tr.self_s("metrics.evaluate"), "s"),
        "metrics.stl_s": (setup_layers.get("metrics.stl", 0.0), "s"),
        "cli.resolve_data_s": (setup_layers.get("cli.resolve_data", 0.0),
                               "s"),
        "sweep.run_single_s": (tr.self_s("sweep.run_single"), "s"),
        "sweep.append_s": (tr.self_s("sweep.append"), "s"),
        "sweep.load_runs_s": (tr.self_s("sweep.load_runs"), "s"),
        "sweep.emit_reports_s": (tr.self_s("sweep.emit_reports"), "s"),
        "pareto.frontier_s": (tr.self_s("pareto.frontier"), "s"),
        "pareto.frontier_calls": (tr.calls("pareto.frontier"), "count"),
        "pareto.frontier_points": (tr.counts["pareto.frontier_points"],
                                   "count"),
        "pareto.frontier_quality_s": (tr.self_s("pareto.frontier_quality"),
                                      "s"),
    }
    metrics.update(extra)
    return metrics


# ---------------------------------------------------------------------------
# Environment, output
# ---------------------------------------------------------------------------

def git_revision():
    """HEAD's commit when the checkout is a git repository, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(fm, ctx):
    return {
        "backend": getattr(fm.package, "BACKEND", "unknown"),
        "FAIRMTL_KERNELS": os.environ.get("FAIRMTL_KERNELS", "auto"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "workload": ctx.workload,
        "seed": ctx.seed,
        "trace": ctx.trace,
        "seconds": ctx.seconds,
    }


def peak_rss_mb(jobs):
    """Peak resident memory of this process, and of its children on --jobs 2."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fairmtl", "cli.py")):
        print(f"error: fairmtl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ctx = Context(args.workload, args.seed, args.seconds, args.trace)
    try:
        if ctx.spec.get("jobs"):
            metrics = run_sweep_workload(ctx)
        else:
            metrics = run_report_workload(ctx)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    if not ctx.trace:
        failed_share = ctx.failed / ctx.attempted
        metrics["peak_rss_mb"] = (peak_rss_mb(ctx.spec.get("jobs", 1)), "MB",
                                  "max over the process and its workers")
        metrics["ok_share"] = (1.0 - failed_share, "share",
                               f"failed_share={failed_share:.4f} of "
                               f"{ctx.attempted} attempted")
    env = environment(ctx.fm, ctx)
    result = {
        "correct": not ctx.problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": m[0], "unit": m[1]}
                    for name, m in metrics.items()},
    }

    print(f"fairmtl benchmark: {ctx.workload}, seed {ctx.seed}, "
          f"trace {ctx.trace}, backend {env['backend']}")
    for name, m in metrics.items():
        note = f"  ({m[2]})" if len(m) > 2 else ""
        print(f"  {name:30s} {m[0]:>14.6g} {m[1]}{note}")
    if "gauss_shape" in ctx.notes:
        g = ctx.notes["gauss_shape"]
        print(f"  gaussian kernel calls: {g['calls']}, median "
              f"{g['rows_u_p50']:g}x{g['rows_v_p50']:g}, max "
              f"{g['rows_u_max']}x{g['rows_v_max']} (rows(u) x rows(v))")
    for name in ctx.notes.get("names_not_found", ()):
        print(f"  not traced, the program has no such name: {name}")
    for problem in ctx.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print("env " + json.dumps(env))

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(results, f"{ctx.workload}-s{ctx.seed}-t{ctx.trace}"
                                   f"-{time.time_ns()}.json")
    with open(record, "w") as f:
        json.dump({"env": env, "result": result, "notes": ctx.notes,
                   "problems": ctx.problems}, f)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
