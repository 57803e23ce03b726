"""Command-line front end: baselines, single runs, sweeps, and reports.

Subcommands:
  stl-baseline  train per-task single-task reference models and cache them
  train         one multi-task run appended to <out>/runs.csv
  sweep         sampled multi-run sweep appended to <out>/runs.csv
  report        frontier JSON + plot CSVs from a finished runs table

`--dataset` takes a preset name (uci_adult, german_credit, lsac, synth) or
a path to a schema JSON.  Real datasets are read from <data_dir>/train.csv
and test.csv (see scripts/prepare_*.py); `synth` is generated on the fly.
The optional `--config` JSON object carries sections: "synth", "arch",
"train", "sweep", "stl", plus "data_dir" and the synthetic data's
"synth_seed", "split_fraction" and "split_seed".  It is strict: any other
top-level key is refused with the accepted ones, and so is a key in
"synth", "arch", "train" or "sweep" that names no SynthSpec / ArchConfig /
TrainConfig / SweepConfig field.
"""

import argparse
import json
import operator
import os
import sys
from dataclasses import replace

from .data import (SynthSpec, load_dataset, load_schema, resolve,
                   split_random, synth_generate)
from .exceptions import ConfigError
from .metrics import run_stl_baselines, stl_config_hash
from .presets import (DATASET_PRESETS, SCHEMA_PRESETS, arch_for,
                      schema_path, train_settings_for)
from .model import ArchConfig, from_fields, refuse_unknown
from .sweep import (RunsWriter, SweepConfig, accuracy_overlay, emit_reports,
                    load_baselines, load_runs, pair_hash, run_id, run_single,
                    run_sweep, save_baselines, _num_tasks)
from .trainer import TrainConfig


_CONFIG_KEYS = ("synth", "arch", "train", "sweep", "stl", "data_dir",
                "synth_seed", "split_fraction", "split_seed")
_SEED = ("an integer >= 0", lambda v: isinstance(v, int) and v >= 0)
# what each data setting must be, and its check
_DATA_SETTINGS = {
    "synth_seed": _SEED, "split_seed": _SEED,
    "split_fraction": ("a number in (0, 1)",
                       lambda v: isinstance(v, (int, float)) and 0 < v < 1),
    "data_dir": ("a string", lambda v: isinstance(v, str)),
}


def _load_config(path):
    if path is None:
        return {}
    with open(path) as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: not a JSON object")
    refuse_unknown(path, cfg, _CONFIG_KEYS)
    return cfg


class ResolvedData:
    def __init__(self, name, train_ds, test_ds, arch):
        self.name = name
        self.train_ds = train_ds
        self.test_ds = test_ds
        self.arch = arch
        self.pair_hash = pair_hash(train_ds, test_ds)


def resolve_data(dataset_arg, cfg):
    """Turn --dataset plus config sections into loaded train/test splits.

    The synthetic dataset draws from config-held seeds (default 0), never
    from --seed, so every subcommand sees the same rows and the cached
    baselines stay addressable.
    """
    for key, (what, valid) in _DATA_SETTINGS.items():
        if key in cfg and not valid(cfg[key]):
            raise ConfigError(f"{key} must be {what}, got {cfg[key]!r}")
    if dataset_arg == "synth":
        synth_cfg = dict(cfg.get("synth", {}))
        synth_cfg.setdefault("n", 4000)
        spec = from_fields(SynthSpec, synth_cfg)
        full = synth_generate(spec, seed=cfg.get("synth_seed", 0))
        train_ds, test_ds = split_random(
            full, cfg.get("split_fraction", 0.8), cfg.get("split_seed", 0))
        arch = (from_fields(ArchConfig, cfg["arch"]) if "arch" in cfg
                else arch_for("synth"))
        arch = replace(arch, num_tasks=spec.num_tasks)
        return ResolvedData("synth", train_ds, test_ds, arch)

    if dataset_arg in SCHEMA_PRESETS:
        name, path = dataset_arg, schema_path(dataset_arg)
    else:
        name, path = "custom", dataset_arg
        if not os.path.exists(path):
            raise ConfigError(
                f"--dataset {dataset_arg!r} is neither a preset "
                f"({', '.join(DATASET_PRESETS)}) nor a schema file")
    spec = load_schema(path)
    data_dir = cfg.get("data_dir", os.path.join("data", name))
    train_csv = os.path.join(data_dir, "train.csv")
    test_csv = os.path.join(data_dir, "test.csv")
    hint = (f"see scripts/prepare_{name}.py" if name in SCHEMA_PRESETS
            else "supply train.csv/test.csv matching the schema")
    for p in (train_csv, test_csv):
        if not os.path.exists(p):
            raise ConfigError(f"{p} not found; prepare the dataset first "
                              f"({hint}) or set data_dir in --config")
    spec = resolve(spec, train_csv)
    train_ds = load_dataset(train_csv, spec, split="train")
    test_ds = load_dataset(test_csv, spec, split="test")
    if train_ds.rejected or test_ds.rejected:
        print(f"rejected rows: train {train_ds.rejected}, "
              f"test {test_ds.rejected}", file=sys.stderr)
    arch = (from_fields(ArchConfig, cfg["arch"]) if "arch" in cfg
            else arch_for(name, num_tasks=spec.num_tasks))
    return ResolvedData(name, train_ds, test_ds, arch)


def _train_config(section, data, seed_override):
    T = data.train_ds.num_tasks
    d = {**train_settings_for(data.name), "method": "vanilla",
         "task_weights": [1.0 / T] * T, **section}
    if seed_override is not None:
        d["seed"] = seed_override
    return from_fields(TrainConfig, d)


_STL_SETTINGS = ("learning_rate", "epochs", "batch_size")


def _stl_plan(cfg, data):
    """STL training config, seeds (stl.seeds, default 0-4) and cache key:
    stl-baseline caches under this key and train/sweep open it by it."""
    stl_cfg = cfg.get("stl", {})
    refuse_unknown("stl", stl_cfg, ("seeds",) + _STL_SETTINGS)
    try:
        seeds = tuple(map(operator.index, stl_cfg.get("seeds", range(5))))
    except TypeError as exc:
        raise ConfigError(f"stl.seeds must be a list of integers, got "
                          f"{stl_cfg['seeds']!r}") from exc
    if not seeds:
        raise ConfigError("stl.seeds must not be empty")
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(f"stl.seeds must be distinct and >= 0, got "
                          f"{list(seeds)}")
    settings = train_settings_for(data.name)
    settings.update({k: stl_cfg[k] for k in _STL_SETTINGS if k in stl_cfg})
    config = TrainConfig(method="vanilla", task_weights=(1.0,),
                         seed=seeds[0], **settings)
    return config, seeds, stl_config_hash(data.arch, config, seeds)


def cmd_stl_baseline(args):
    cfg = _load_config(args.config)
    data = resolve_data(args.dataset, cfg)
    config, seeds, _ = _stl_plan(cfg, data)
    print(f"training {data.train_ds.num_tasks} single-task baselines "
          f"x {len(seeds)} seeds on {data.name}...")
    baselines = run_stl_baselines(data.train_ds, data.test_ds, data.arch,
                                  config, seeds)
    path = save_baselines(args.out, data.pair_hash, data.arch, baselines)
    for t in range(baselines.num_tasks):
        print(f"  task {t}: err={baselines.errs[t]:.4f} "
              f"fpr_gap={_fmt(baselines.fpr_gaps[t])} "
              f"tpr_gap={_fmt(baselines.tpr_gaps[t])}")
    print(f"cached: {path}")
    return 0


def _fmt(v):
    return "undefined" if v is None else f"{v:.4f}"


def cmd_train(args):
    cfg = _load_config(args.config)
    data = resolve_data(args.dataset, cfg)
    baselines = load_baselines(args.out, data.pair_hash,
                               _stl_plan(cfg, data)[2])
    config = _train_config(cfg.get("train", {}), data, args.seed)
    writer = RunsWriter(os.path.join(args.out, "runs.csv"))
    rid = run_id(config, data.pair_hash, baselines.config_hash)
    if rid in writer.ids:
        print(f"{rid}: already recorded in {writer.path}; nothing appended")
        return 0
    row = run_single(data.train_ds, data.test_ds, data.arch, config,
                     baselines, run_id=rid)
    writer.append(row)
    print(f"{rid}: err_mean={row['err_mean']} arfg={row['arfg']} "
          f"are={row['are']} flags={row['flags'] or 'none'}")
    print(f"appended to {writer.path}")
    return 0


def cmd_sweep(args):
    cfg = _load_config(args.config)
    data = resolve_data(args.dataset, cfg)
    baselines = load_baselines(args.out, data.pair_hash,
                               _stl_plan(cfg, data)[2])
    sweep_cfg = {**train_settings_for(data.name), **cfg.get("sweep", {})}
    if args.seed is not None:
        sweep_cfg["master_seed"] = args.seed
    sweep = from_fields(SweepConfig, sweep_cfg)
    total = sweep.budget * len(sweep.methods)
    print(f"sweep: {sweep.budget} runs x {len(sweep.methods)} methods "
          f"= {total} on {data.name} (jobs={args.jobs})")
    rows = run_sweep(data.train_ds, data.test_ds, data.arch, sweep,
                     baselines, args.out, jobs=args.jobs)
    flagged = sum(1 for r in rows if r["flags"])
    print(f"done: {len(rows)} rows appended, {flagged} flagged")
    print(f"next: fairmtl report --out {args.out}")
    return 0


def cmd_report(args):
    runs_path = os.path.join(args.out, "runs.csv")
    if not os.path.exists(runs_path):
        raise ConfigError(f"{runs_path} not found; run a sweep first")
    rows = load_runs(runs_path)
    if not rows:
        raise ConfigError(f"{runs_path} has no rows")
    overlay, written = accuracy_overlay(rows), 0
    for axes in ["are_arfg"] + [f"task{t}" for t in range(_num_tasks(rows))]:
        try:
            report = emit_reports(rows, axes, args.out, overlay)
        except (ConfigError, ValueError) as exc:
            print(f"axes {axes}: skipped ({exc})", file=sys.stderr)
            continue
        written += 1
        print(f"axes {axes} (reference "
              f"{tuple(round(v, 4) for v in report['reference_point'])}):")
        for method, entry in report["methods"].items():
            quality = entry["frontier_quality"]
            print(f"  {method:9s} runs={entry['num_runs']:4d} "
                  f"excluded={entry['num_excluded']:3d} "
                  f"frontier={len(entry['frontier']):3d} "
                  f"quality={'n/a' if quality is None else f'{quality:.6f}'}")
    if not written:
        raise ConfigError(f"{runs_path}: every axes skipped, none written")
    print(f"wrote frontier_<axes>.json / plotdata_<axes>.csv under {args.out}")
    return 0


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairmtl",
        description="Multi-task fairness training, sweeps, and frontier reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=True, seed=False, jobs=False):
        p.add_argument("--config", default=None, help="JSON config path")
        if dataset:
            p.add_argument("--dataset", required=True,
                           help="preset name or schema JSON path")
        p.add_argument("--out", required=True, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if jobs:
            p.add_argument("--jobs", type=positive_int, default=1,
                           help="parallel worker processes")

    p = sub.add_parser("stl-baseline",
                       help="train and cache single-task reference models")
    common(p)
    p.set_defaults(func=cmd_stl_baseline)

    p = sub.add_parser("train", help="run one configuration")
    common(p, seed=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run a sampled sweep")
    common(p, seed=True, jobs=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="emit frontier reports from runs.csv")
    common(p, dataset=False)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
