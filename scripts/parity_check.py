#!/usr/bin/env python3
"""Training parity between two source trees: record a fixed set of runs
with one tree, then compare two records.

    PYTHONPATH=src python3 scripts/parity_check.py --save before.pkl
    # ... change the code (or switch to another checkout) ...
    PYTHONPATH=src python3 scripts/parity_check.py --save after.pkl
    python3 scripts/parity_check.py --compare before.pkl after.pkl

`--save F` trains the parity set with the fairmtl found on PYTHONPATH and
writes each run's parameters, Adagrad accumulators, per-epoch history and
test metrics (error, FPR gap and TPR gap per task) to F.  `--compare A B`
prints, over all runs, the largest difference of any parameter or
accumulator entry (absolute, and relative to the largest magnitude in
that parameter) and of any history entry, then every test metric that
differs, with both values.  It exits 1 when the records hold different
runs.

The set has 117 runs on synthetic data with 10% of the sensitive values
missing: 81 over 1-3 tasks x 3 fairness kinds x 3 targets x 3 methods,
and 36 over 3 kinds x 3 methods x 4 variants (two embedding tables and a
tail batch with mixed lambdas; two-layer bottom and heads with zero
lambdas; no hidden layers; and both of the first two together).
"""

import argparse
import pickle
import sys

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


def save(path):
    from fairmtl.metrics import evaluate_model
    from fairmtl.model import ArchConfig
    from fairmtl.trainer import TrainConfig, train
    data, records = {}, {}
    for key, T, emb, arch_kw, cfg_kw in _runs():
        if (T, emb) not in data:
            data[T, emb] = _data(T, emb)
        train_ds, test_ds = data[T, emb]
        arch = ArchConfig(num_tasks=T, embedding_dim=3, **arch_kw)
        cfg = TrainConfig(task_weights=(0.6, 0.4, 0.5)[:T],
                          head_shared_ratios=(2.0, 0.5, 1.3)[:T],
                          learning_rate=0.1, epochs=3, seed=3, **cfg_kw)
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
    args = parser.parse_args(argv)
    if args.save:
        save(args.save)
        return 0
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
