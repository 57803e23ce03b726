"""Shared test utilities: the central finite-difference gradient oracle,
and the dataset and schema writers that only the tests use."""

import csv

import numpy as np

import fairmtl.autodiff as ad
from fairmtl.data import OOV_INDEX
from fairmtl.exceptions import SchemaError

STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def fd_grad(build, params):
    """Central finite differences of a scalar-valued graph builder.

    `build` maps nothing to a 1x1 Tensor, reading the live values of
    `params`.  Returns one array of the same shape per param.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        it = np.nditer(p.value, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p.value[idx]
            p.value[idx] = orig + STEP
            hi = build().value[0, 0]
            p.value[idx] = orig - STEP
            lo = build().value[0, 0]
            p.value[idx] = orig
            g[idx] = (hi - lo) / (2 * STEP)
            it.iternext()
        grads.append(g)
    return grads


def check_grads(build, params):
    for p in params:
        p.grad[...] = 0.0
    root = build()
    ad.backward(root)
    numeric = fd_grad(build, params)
    for p, num in zip(params, numeric):
        denom = np.maximum(np.abs(num), np.abs(p.grad))
        err = np.abs(p.grad - num)
        bad = err > np.maximum(REL_TOL * denom, ABS_FLOOR)
        assert not bad.any(), (
            f"grad mismatch for {p.name}: max err {err.max():.3e}\n"
            f"analytic:\n{p.grad}\nnumeric:\n{num}")


def spec_to_dict(spec):
    out = {
        "name": spec.name,
        "missing_values": list(spec.missing_values),
        "dense": [{"name": c.name, "mean": c.mean, "sd": c.sd}
                  for c in spec.dense],
        "categorical": [
            {"name": c.name,
             **({"vocab": list(c.vocab)} if c.vocab is not None else {})}
            for c in spec.categorical],
        "tasks": [{"name": t.name, "source": t.source, "op": t.op,
                   "constant": t.constant, "standardize": t.standardize,
                   "mean": t.mean, "sd": t.sd} for t in spec.tasks],
    }
    if spec.sensitive is not None:
        out["sensitive"] = {"column": spec.sensitive.name,
                            "encoding": dict(spec.sensitive.encoding)}
    return out


def write_csv(dataset, spec, path):
    """Serialize a dataset so that reloading with the same resolved spec
    reproduces labels, sensitive flags, and categorical indices exactly.

    Dense values are de-standardized (float round-trip is near-exact, not
    bit-exact); label source cells are synthesized to re-derive the stored
    labels through the schema predicates.
    """
    if not spec.resolved:
        raise SchemaError("write_csv needs a resolved spec")
    missing = spec.missing_values[0] if spec.missing_values else ""
    inv_sens = {}
    for tok, v in (spec.sensitive.encoding if spec.sensitive else ()):
        inv_sens.setdefault(v, tok)

    def label_cell(task, y):
        if task.op == "eq":
            return str(task.constant) if y else f"not-{task.constant}"
        c = float(task.constant)
        if task.op == "gt":
            z = c + 1.0 if y else c
        else:
            z = c if y else c - 1.0
        if task.standardize:
            z = task.mean + z * task.sd
        return repr(z)

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(spec.columns())
        for i in range(len(dataset)):
            row = [repr(float(dataset.dense[i, j]) * c.sd + c.mean)
                   for j, c in enumerate(spec.dense)]
            for j, c in enumerate(spec.categorical):
                idx = dataset.cat[i, j]
                row.append("__oov__" if idx == OOV_INDEX else c.vocab[idx - 1])
            for t_idx, task in enumerate(spec.tasks):
                row.append(label_cell(task, dataset.labels[i, t_idx]))
            if spec.sensitive is not None:
                s = dataset.sensitive[i]
                row.append(missing if s < 0 else inv_sens[int(s)])
            writer.writerow(row)
