#!/usr/bin/env python3
"""Training parity between two source trees: record a fixed set of runs
with one tree, then compare two records.

    PYTHONPATH=src python3 scripts/parity_check.py --save before.pkl
    # ... change the code (or switch to another checkout) ...
    PYTHONPATH=src python3 scripts/parity_check.py --save after.pkl
    python3 scripts/parity_check.py --compare before.pkl after.pkl
    PYTHONPATH=src python3 scripts/parity_check.py --stacked

`--save F` trains the parity set with the fairmtl found on PYTHONPATH and
writes each run's parameters, Adagrad accumulators, per-epoch history and
test metrics (error, FPR gap and TPR gap per task) to F.  `--compare A B`
prints, over all runs, the largest difference of any parameter or
accumulator entry (absolute, and relative to the largest magnitude in
that parameter) and of any history entry, then every test metric that
differs, with both values.  It exits 1 when the records hold different
runs.  `--stacked` trains each run of the set with four stack-mates of
other seeds, weights, lambdas and ratios, alone and as stacks
(`train_stack`) of widths 2-5 in turn, which cut the five runs 2+2+1,
3+2, 4+1 and 5; in every seventh group one stack-mate's task weight is
NaN, so it diverges inside its stack.  It prints the largest difference
between any run's stacked and solo parameters, accumulators and
histories, the runs whose test metrics differ and the diverged runs whose
messages differ, and exits 1 unless all three are 0.

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
import pickle
import sys
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
            "history": run.history.copy(),
            "metrics": [(e.err, e.fpr_gap, e.tpr_gap)
                        for e in evaluate_model(run.model, test_ds)]}
    with open(path, "wb") as f:
        pickle.dump({"runs": records}, f)
    print(f"{len(records)} runs written to {path}")


def _mates(config, nan):
    """The config and four stack-mates: other seeds, weights, lambdas
    (one zeroed, then all) and ratios; with `nan`, the first mate's task
    weight is NaN."""
    w, lam, r = (config.task_weights, config.fairness_weights,
                 config.head_shared_ratios)
    mates = [config]
    for k, (w_k, lam_k, r_k) in enumerate((
            (w[::-1], [2 * x for x in lam], r),
            (w, (0.0,) + lam[1:], r[::-1]),
            ([0.5 * x for x in w], [0.0] * len(lam), r),
            (w, lam, [1 / x for x in r])), 1):
        mates.append(replace(config, seed=config.seed + k, task_weights=w_k,
                             fairness_weights=lam_k, head_shared_ratios=r_k))
    if nan:
        mates[1] = replace(mates[1], task_weights=(np.nan,) + w[1:])
    return mates


def stacked():
    from fairmtl.exceptions import TrainingDiverged
    from fairmtl.metrics import evaluate_model
    from fairmtl.trainer import train, train_stack
    data, worst, runs, diverged, metrics, messages = {}, 0.0, 0, 0, [], []
    for i, (key, data_key, arch, cfg) in enumerate(configs()):
        if data_key not in data:
            data[data_key] = _data(*data_key)
        train_ds, test_ds = data[data_key]
        mates, width = _mates(cfg, i % 7 == 0), 2 + i % 4
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
            for a, b in [(run.history, solo.history)] + [
                    (getattr(run.model.flat, name),
                     getattr(solo.model.flat, name))
                    for name in ("value", "adagrad_acc")]:
                worst = max(worst, float(np.max(np.abs(a - b))))
            if (evaluate_model(run.model, test_ds)
                    != evaluate_model(solo.model, test_ds)):
                metrics.append(where)
    print(f"{runs} runs in stacks of widths 2-5, {diverged} diverged: "
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
    for field in ("params", "accumulators", "history"):
        worst_abs, worst_rel, where = _largest(a, b, field)
        print(f"{field}: max abs difference {worst_abs:.3g}, "
              f"max relative {worst_rel:.3g}"
              + (f" ({where})" if where else ""))
    names = ("err", "fpr_gap", "tpr_gap")
    differ = [(key, t, names[i], x, y)
              for key in a
              for t, (row_a, row_b) in enumerate(zip(a[key]["metrics"],
                                                     b[key]["metrics"]))
              for i, (x, y) in enumerate(zip(row_a, row_b)) if x != y]
    print(f"test metrics that differ: {len(differ)}")
    for key, t, name, x, y in differ:
        print(f"  {key} task {t} {name}: {x!r} -> {y!r}")
    return 0


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
