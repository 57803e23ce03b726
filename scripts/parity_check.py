#!/usr/bin/env python3
"""Training parity between two source trees: record a fixed set of runs
with one tree, then compare two records.

    PYTHONPATH=src python3 scripts/parity_check.py --save before.pkl
    # ... change the code (or switch to another checkout) ...
    PYTHONPATH=src python3 scripts/parity_check.py --save after.pkl
    python3 scripts/parity_check.py --compare before.pkl after.pkl
    PYTHONPATH=src python3 scripts/parity_check.py --stacked

`--save F` trains the parity set with the fairmtl found on PYTHONPATH and
writes each run's parameters, Adagrad accumulators and test metrics
(error, FPR gap and TPR gap per task) to F, with the bytes of every file
`fairmtl report` writes over two seeded runs tables (`reports`) of 1200
rows, of 2 and 3 tasks, in which about 3% of the rows are flagged
`failed:` and 3% `undefined_metric:`.  `--compare A B` prints, over all
runs, the largest difference of any parameter or accumulator entry
(absolute, and relative to the largest magnitude in that parameter), then
every test metric that differs, with both values, then how many runs
differ in any parameter, accumulator or test metric, with their keys,
then every report file that differs; it ignores any other field a
record holds, such as the per-epoch loss history that older trees
saved.  It exits 0 only when the two records match exactly, and 1 when
they hold different runs or any parameter or accumulator entry (NaN
matches NaN, 0.0 matches -0.0), test metric or report file differs: the
gate for a change that must keep training bit-identical.  `--stacked`
trains each run of the set with four stack-mates of other seeds,
weights, lambdas and ratios, alone and as stacks (`train_stack`) of
widths 2, 3, 4, 5 and 8 in turn: the first four cut the five runs
2+2+1, 3+2, 4+1 and 5, and width 8, which serial sweeps train at batch
512, takes three more mates for one stack of 8.  In every seventh group
one stack-mate starts with NaN Adagrad accumulators, so it diverges
inside its stack.  It prints the
largest difference between any run's stacked and solo parameters and
accumulators, the runs whose test metrics differ and the diverged runs
whose messages differ, and exits 1 unless all three are 0.
`stacked(prefix)` does the same for the runs whose keys start with
`prefix`; the test suite runs it on the 12 `T2/mmd-` runs and the 9
`T2/correlation/` and 9 `T2/soft_fpr_gap/` runs.

The set has 129 runs on synthetic data with 10% of the sensitive values
missing: 81 over 1-3 tasks x 3 fairness kinds x 3 targets x 3 methods
(MMD at bandwidth 1), 36 over 3 kinds x 3 methods x 4 variants (two
embedding tables and a tail batch with mixed lambdas; two-layer bottom and
heads with zero lambdas; no hidden layers; and both of the first two
together), and 12 MMD runs over 2 tasks x 3 targets x baseline and mtaf
at bandwidths 0.3, where a quarter to two thirds of the losses take the
exact kernel blocks, and 2, which takes the feature map.
"""

import argparse
import contextlib
import io
import os
import pickle
import sys
import tempfile
from dataclasses import replace

import numpy as np

KINDS = ("correlation", "mmd", "soft_fpr_gap")
TARGETS = ("equal_opportunity_fpr", "equal_opportunity_tpr", "equalized_odds")
METHODS = ("vanilla", "baseline", "mtaf")


def _data(num_tasks, embeddings):
    """(train, test) Datasets of 600 and 200 rows; with `embeddings`, two
    categorical columns bucketed from the dense features."""
    from fairmtl.data import Dataset, SynthSpec, synth_generate
    rates = ((0.3, 0.5, 0.4), (0.5, 0.3, 0.6))
    spec = SynthSpec(n=800, num_tasks=num_tasks,
                     positive_rates=tuple(r[:num_tasks] for r in rates),
                     sensitive_missing_rate=0.1)
    ds = synth_generate(spec, seed=7 + num_tasks)
    if embeddings:
        vocab = (4, 6)
        cat = np.stack([np.digitize(ds.dense[:, j + 1],
                                    np.linspace(-1.5, 1.5, v - 1))
                        for j, v in enumerate(vocab)], axis=1)
        ds = Dataset(dense=ds.dense, cat=cat, labels=ds.labels,
                     sensitive=ds.sensitive, vocab_sizes=vocab)
    return ds.take(slice(0, 600), "train"), ds.take(slice(600, 800), "test")


def _runs():
    """(key, num_tasks, embeddings, arch kwargs, config kwargs) per run."""
    small = dict(shared_layer_sizes=(8,), head_layer_sizes=(4,))
    deep = dict(shared_layer_sizes=(8, 6), head_layer_sizes=(5, 3))
    flat = dict(shared_layer_sizes=(), head_layer_sizes=())
    for T in (1, 2, 3):
        for kind in KINDS:
            for target in TARGETS:
                for method in METHODS:
                    yield (f"T{T}/{kind}/{target}/{method}", T, False, small,
                           dict(method=method, fairness_kind=kind,
                                fairness_target=target,
                                fairness_weights=(1.0, 0.5, 2.0)[:T],
                                batch_size=64))
    variants = {
        "emb2-mixed-lambda-tail": (True, small, (0.0, 1.5), 56),
        "deep-zero-lambda": (False, deep, (0.0, 0.0), 64),
        "no-hidden": (False, flat, (1.0, 2.0), 64),
        "emb2-deep-tail": (True, deep, (1.5, 0.7), 48),
    }
    for name, (emb, arch, lam, batch) in variants.items():
        for kind in KINDS:
            for method in METHODS:
                yield (f"{name}/{kind}/{method}", 2, emb, arch,
                       dict(method=method, fairness_kind=kind,
                            fairness_target="equalized_odds",
                            fairness_weights=lam, batch_size=batch))
    for bandwidth in (0.3, 2.0):
        for target in TARGETS:
            for method in ("baseline", "mtaf"):
                yield (f"T2/mmd-{bandwidth}/{target}/{method}", 2, False,
                       small, dict(method=method, fairness_kind="mmd",
                                   mmd_bandwidth=bandwidth,
                                   fairness_target=target,
                                   fairness_weights=(1.0, 0.5), batch_size=64))


def configs():
    """(key, (num_tasks, embeddings), ArchConfig, TrainConfig) per run."""
    from fairmtl.model import ArchConfig
    from fairmtl.trainer import TrainConfig
    for key, T, emb, arch_kw, cfg_kw in _runs():
        yield (key, (T, emb), ArchConfig(num_tasks=T, embedding_dim=3,
                                         **arch_kw),
               TrainConfig(task_weights=(0.6, 0.4, 0.5)[:T],
                           head_shared_ratios=(2.0, 0.5, 1.3)[:T],
                           learning_rate=0.1, epochs=3, seed=3, **cfg_kw))


def save(path):
    from fairmtl.metrics import evaluate_model
    from fairmtl.trainer import train
    data, records = {}, {}
    for key, data_key, arch, cfg in configs():
        if data_key not in data:
            data[data_key] = _data(*data_key)
        train_ds, test_ds = data[data_key]
        run = train(train_ds, arch, cfg)
        records[key] = {
            "params": {p.name: p.value.copy()
                       for p in run.model.all_params},
            "accumulators": {p.name: p.adagrad_acc.copy()
                             for p in run.model.all_params},
            "metrics": [(e.err, e.fpr_gap, e.tpr_gap)
                        for e in evaluate_model(run.model, test_ds)]}
    files = reports()
    with open(path, "wb") as f:
        pickle.dump({"runs": records, "reports": files}, f)
    print(f"{len(records)} runs and {len(files)} report files written to "
          f"{path}")


def _table(num_tasks, rows, seed):
    """A seeded runs table of `rows` rows over the three methods along a
    noisy error/gap trade-off, rounded to 1/500 so that ties and exact
    duplicates occur; about 3% of the rows are flagged `failed:`, with no
    metrics, and 3% `undefined_metric:`, with one gap undefined."""
    from fairmtl.sweep import RUNS_COLUMNS, RUNS_SCHEMA_VERSION
    rng = np.random.default_rng(seed)
    table = []
    for i in range(rows):
        u = rng.random()
        err = np.round((0.1 + 0.2 * u + rng.exponential(0.01, num_tasks))
                       * 500) / 500
        gap = np.round((0.2 * (1 - u) ** 2 + rng.exponential(0.01, num_tasks))
                       * 500) / 500
        row = dict.fromkeys(RUNS_COLUMNS)
        row.update(
            run_id=f"r{i:05d}", schema_version=RUNS_SCHEMA_VERSION,
            method=METHODS[i % 3], seed=i,
            task_weights=[1.0 / num_tasks] * num_tasks,
            fairness_kind="mmd", mmd_bandwidth=1.0,
            fairness_target="equal_opportunity_fpr", learning_rate=0.1,
            epochs=3, batch_size=512, err_per_task=err.tolist(),
            fpr_gap_per_task=gap.tolist(),
            tpr_gap_per_task=(rng.random(num_tasks) * 0.1).tolist(),
            err_mean=float(err.mean()), fpr_gap_mean=float(gap.mean()),
            arfg=float(np.mean(gap / 0.1)), are=float(np.mean(err / 0.25)),
            seconds=0.1, timestamp=1.7e9 + i)
        fate = rng.random()
        if fate < 0.03:
            row.update(dict.fromkeys(("err_per_task", "fpr_gap_per_task",
                                      "tpr_gap_per_task", "err_mean",
                                      "fpr_gap_mean", "arfg", "are")),
                       flags="failed: TrainingDiverged: non-finite loss")
        elif fate < 0.06:
            row["fpr_gap_per_task"][-1] = None
            row.update(fpr_gap_mean=None, arfg=None, are=None,
                       flags=f"undefined_metric: task {num_tasks - 1}")
        table.append(row)
    return table


def reports(rows=1200):
    """{"T<tasks>/<file>": bytes} of every file `fairmtl report` writes
    beside runs tables (`_table`) of 2 and 3 tasks and `rows` rows."""
    from fairmtl import cli
    from fairmtl.sweep import RunsWriter
    files = {}
    for num_tasks in (2, 3):
        with tempfile.TemporaryDirectory() as out:
            writer = RunsWriter(os.path.join(out, "runs.csv"))
            for row in _table(num_tasks, rows, seed=num_tasks):
                writer.append(row)
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["report", "--out", out]):
                    raise RuntimeError(f"report over {num_tasks} tasks failed")
            for name in sorted(os.listdir(out)):
                if name != "runs.csv":
                    with open(os.path.join(out, name), "rb") as f:
                        files[f"T{num_tasks}/{name}"] = f.read()
    return files


# a model built with a seed of this or more gets NaN Adagrad accumulators
# (`_poisoned`): its first step makes every parameter NaN, so it diverges
# at its second
POISON = 10 ** 6


def _mates(config, nan, count=5):
    """The config and `count` - 1 stack-mates, up to 7: other seeds,
    weights, lambdas (one zeroed, then all, then halved) and ratios; with
    `nan`, the first mate's seed is offset by POISON."""
    w, lam, r = (config.task_weights, config.fairness_weights,
                 config.head_shared_ratios)
    mates = [config]
    for k, (w_k, lam_k, r_k) in enumerate((
            (w[::-1], [2 * x for x in lam], r),
            (w, (0.0,) + lam[1:], r[::-1]),
            ([0.5 * x for x in w], [0.0] * len(lam), r),
            (w, lam, [1 / x for x in r]),
            (w, [0.5 * x for x in lam], r),
            ([2 * x for x in w], lam[::-1], r),
            (w[::-1], lam, [2 * x for x in r]))[:count - 1], 1):
        mates.append(replace(config, seed=config.seed + k, task_weights=w_k,
                             fairness_weights=lam_k, head_shared_ratios=r_k))
    if nan:
        mates[1] = replace(mates[1], seed=mates[1].seed + POISON)
    return mates


@contextlib.contextmanager
def _poisoned():
    """Training builds models of a seed of POISON or more with NaN Adagrad
    accumulators."""
    from fairmtl import trainer
    build = trainer.build_stack

    def poisoned(arch, dense_count, vocab_sizes, seeds):
        stack = build(arch, dense_count, vocab_sizes, seeds)
        stack.flat.adagrad_acc[np.greater_equal(seeds, POISON)] = np.nan
        return stack
    trainer.build_stack = poisoned
    try:
        yield
    finally:
        trainer.build_stack = build


def stacked(prefix=""):
    """`--stacked` on the runs whose keys start with `prefix`, each with
    the stack widths and NaN mate it has in the whole set; its exit
    code."""
    with _poisoned():
        return _stacked(prefix)


def _stacked(prefix):
    from fairmtl.exceptions import TrainingDiverged
    from fairmtl.metrics import evaluate_model
    from fairmtl.trainer import train, train_stack
    data, worst, runs, diverged, metrics, messages = {}, 0.0, 0, 0, [], []
    for i, (key, data_key, arch, cfg) in enumerate(configs()):
        if not key.startswith(prefix):
            continue
        if data_key not in data:
            data[data_key] = _data(*data_key)
        train_ds, test_ds = data[data_key]
        width = (2, 3, 4, 5, 8)[i % 5]
        mates = _mates(cfg, i % 7 == 0, max(5, width))
        stacks = [train_stack(train_ds, arch, mates[start:start + width])
                  for start in range(0, len(mates), width)]
        for config, run in zip(mates, sum(stacks, [])):
            runs += 1
            where = f"{key} seed {config.seed}"
            try:
                solo = train(train_ds, arch, config)
            except TrainingDiverged as exc:
                diverged += 1
                if str(run) != str(exc):
                    messages.append(f"{where}: {run!r}, alone {exc!r}")
                continue
            for name in ("value", "adagrad_acc"):
                worst = max(worst, float(np.max(np.abs(
                    getattr(run.model.flat, name)
                    - getattr(solo.model.flat, name)))))
            if (evaluate_model(run.model, test_ds)
                    != evaluate_model(solo.model, test_ds)):
                metrics.append(where)
    print(f"{runs} runs in stacks of widths 2-5 and 8, {diverged} diverged: "
          f"max abs difference from the solo runs {worst:.3g}; runs whose "
          f"test metrics differ: {len(metrics)}; diverged runs whose "
          f"messages differ: {len(messages)}")
    for line in metrics + messages:
        print(f"  {line}")
    return int(bool(worst or metrics or messages))


def _largest(a_runs, b_runs, field):
    """(absolute, relative, where) of the largest entry difference of
    `field` over all runs; relative to the largest magnitude of the
    array in which it occurs."""
    worst_abs, worst_rel, where = 0.0, 0.0, None
    for key, a in a_runs.items():
        arrays = a[field] if isinstance(a[field], dict) else {"": a[field]}
        others = b_runs[key][field]
        for name, x in arrays.items():
            y = others[name] if name else others
            diff = float(np.max(np.abs(x - y), initial=0.0))
            scale = float(np.max(np.abs(x), initial=0.0))
            rel = diff / scale if scale else diff
            worst_abs = max(worst_abs, diff)
            if rel > worst_rel:
                worst_rel, where = rel, f"{key} {name}".strip()
    return worst_abs, worst_rel, where


def _differs(x, y):
    """Whether two arrays, or {name: array} dicts of them, differ in any
    entry; NaN matches NaN."""
    if isinstance(x, dict):
        return any(_differs(x[name], y[name]) for name in x)
    return not np.array_equal(x, y, equal_nan=True)


def compare(path_a, path_b):
    records = []
    for path in (path_a, path_b):
        with open(path, "rb") as f:
            records.append(pickle.load(f))
    a, b = (r["runs"] for r in records)
    print(f"A: {path_a}, B: {path_b}, {len(a)} runs")
    if a.keys() != b.keys():
        print("the records hold different runs:",
              sorted(a.keys() ^ b.keys()))
        return 1
    for field in ("params", "accumulators"):
        worst_abs, worst_rel, where = _largest(a, b, field)
        print(f"{field}: max abs difference {worst_abs:.3g}, "
              f"max relative {worst_rel:.3g}"
              + (f" ({where})" if where else ""))
    names = ("err", "fpr_gap", "tpr_gap")
    metrics = [(key, t, names[i], x, y)
              for key in a
              for t, (row_a, row_b) in enumerate(zip(a[key]["metrics"],
                                                     b[key]["metrics"]))
              for i, (x, y) in enumerate(zip(row_a, row_b)) if x != y]
    print(f"test metrics that differ: {len(metrics)}")
    for key, t, name, x, y in metrics:
        print(f"  {key} task {t} {name}: {x!r} -> {y!r}")
    runs = sorted({key for key, *_ in metrics} | {
        key for key in a for field in ("params", "accumulators")
        if _differs(a[key][field], b[key][field])})
    print(f"runs that differ: {len(runs)} of {len(a)}")
    for key in runs:
        print(f"  {key}")
    files = [r.get("reports", {}) for r in records]
    differ = sorted(name for name in files[0].keys() | files[1].keys()
                    if files[0].get(name) != files[1].get(name))
    print(f"report files that differ: {len(differ)} of "
          f"{len(files[0].keys() | files[1].keys())}")
    for name in differ:
        print(f"  {name}")
    return int(bool(runs or differ))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--save", metavar="F")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"))
    group.add_argument("--stacked", action="store_true")
    args = parser.parse_args(argv)
    if args.save:
        save(args.save)
        return 0
    if args.stacked:
        return stacked()
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
