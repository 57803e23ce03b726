"""Output checks: each returns a list of problems, empty when the output is right."""

import json
import os

import numpy as np

METRIC_COLUMNS = ("err_per_task", "fpr_gap_per_task", "tpr_gap_per_task",
                  "err_mean", "fpr_gap_mean", "arfg", "are", "flags")
UNIT_INTERVAL_COLUMNS = ("err_per_task", "fpr_gap_per_task",
                         "tpr_gap_per_task", "err_mean", "fpr_gap_mean")


def is_failed(row):
    return bool(row["flags"]) and "failed:" in row["flags"]


def is_undefined(row):
    return bool(row["flags"]) and "undefined_metric" in row["flags"]


def pareto_oracle(points):
    """Indices of the points no other point dominates (all minimized), by
    comparing every pair.  Equal points do not dominate each other."""
    if not points:
        return set()
    p = np.asarray(points, dtype=float)
    no_worse = (p[:, None, :] <= p[None, :, :]).all(axis=2)   # [j, i]
    better = (p[:, None, :] < p[None, :, :]).any(axis=2)
    dominated = (no_worse & better).any(axis=0)
    return {i for i in range(len(points)) if not dominated[i]}


def axes_coords(axes):
    """Row -> (x, y) for a report axes name, or None when either is missing."""
    if axes == "are_arfg":
        return lambda row: (row["are"], row["arfg"])
    t = int(axes[len("task"):])

    def coords(row):
        if row["err_per_task"] is None or row["fpr_gap_per_task"] is None:
            return None, None
        return row["err_per_task"][t], row["fpr_gap_per_task"][t]
    return coords


def check_rows(rows, expected_count):
    problems = []
    if len(rows) != expected_count:
        problems.append(f"{len(rows)} rows, expected {expected_count}")
    for row in rows:
        if is_failed(row):
            problems.append(f"{row['run_id']}: {row['flags']}")
        for column in UNIT_INTERVAL_COLUMNS:
            values = row[column]
            values = values if isinstance(values, list) else [values]
            if any(v is not None and not 0.0 <= v <= 1.0 for v in values):
                problems.append(f"{row['run_id']}: {column} {row[column]} "
                                "outside [0, 1]")
    return problems


def check_round_trip(written, loaded):
    """load_runs must read back exactly the rows that were written."""
    if written == loaded:
        return []
    bad = next((w["run_id"] for w, r in zip(written, loaded) if w != r),
               "row count")
    return [f"runs.csv read back differs from the written rows at {bad}"]


def metric_columns(rows):
    return {row["run_id"]: tuple(json.dumps(row[c]) for c in METRIC_COLUMNS)
            for row in rows}


def check_repeatable(rows, reference):
    """Metric columns must match an earlier repetition with the same seed."""
    got = metric_columns(rows)
    diff = sorted(rid for rid in reference if got.get(rid) != reference[rid])
    if diff or set(got) != set(reference):
        return [f"metric columns differ from the first repetition "
                f"({len(diff)} runs, e.g. {diff[:3]})"]
    return []


def check_frontiers(out_dir, rows, axes_list):
    """Every method's frontier in frontier_<axes>.json equals the oracle's."""
    problems = []
    for axes in axes_list:
        path = os.path.join(out_dir, f"frontier_{axes}.json")
        if not os.path.exists(path):
            problems.append(f"{path} missing")
            continue
        with open(path) as f:
            report = json.load(f)
        coords = axes_coords(axes)
        methods = sorted({row["method"] for row in rows})
        if sorted(report["methods"]) != methods:
            problems.append(f"{axes}: methods {sorted(report['methods'])}")
            continue
        for method in methods:
            kept = []
            for row in rows:
                x, y = coords(row)
                if row["method"] == method and not row["flags"] \
                        and x is not None and y is not None:
                    kept.append((row["run_id"], float(x), float(y)))
            front = pareto_oracle([(x, y) for _, x, y in kept])
            expected = sorted(kept[i] for i in front)
            got = sorted((p["run_id"], p["x"], p["y"])
                         for p in report["methods"][method]["frontier"])
            if got != expected:
                problems.append(f"{axes}/{method}: frontier has {len(got)} "
                                f"points, oracle {len(expected)}")
    return problems
