"""Dataset ingestion, task-label derivation, batching, and synthesis.

CSV files are interpreted through a JSON schema (FeatureSpec): which columns
are dense or categorical inputs, how each binary task label derives from a
source column via a predicate, and how the sensitive attribute is encoded.
Standardization statistics and categorical vocabularies are fitted once on
the training file (`resolve`) and frozen, so test data never leaks into them.
"""

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ConfigError, RowParseError, SchemaError

OOV_INDEX = 0  # reserved slot for unseen categorical tokens
PREDICATE_OPS = ("gt", "ge", "eq")


@dataclass(frozen=True)
class DenseCol:
    name: str
    mean: float = None
    sd: float = None


@dataclass(frozen=True)
class CatCol:
    name: str
    vocab: tuple = None          # known tokens, sorted; index = position + 1

    @property
    def vocab_size(self):
        return None if self.vocab is None else len(self.vocab) + 1


@dataclass(frozen=True)
class TaskDef:
    name: str
    source: str
    op: str
    constant: object
    standardize: bool = False    # apply predicate to the z-score of source
    mean: float = None
    sd: float = None


@dataclass(frozen=True)
class SensitiveCol:
    name: str
    encoding: tuple              # ((token, 0/1), ...)


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    dense: tuple
    categorical: tuple
    tasks: tuple
    sensitive: SensitiveCol = None
    missing_values: tuple = ("", "?")

    @property
    def num_tasks(self):
        return len(self.tasks)

    @property
    def resolved(self):
        return (all(c.mean is not None for c in self.dense)
                and all(c.vocab is not None for c in self.categorical)
                and all(t.mean is not None for t in self.tasks
                        if t.standardize))

    def columns(self):
        names = ([c.name for c in self.dense]
                 + [c.name for c in self.categorical]
                 + [t.source for t in self.tasks])
        if self.sensitive is not None:
            names.append(self.sensitive.name)
        return names

    def vocab_sizes(self):
        if not self.resolved:
            raise SchemaError("spec not resolved; call resolve() first")
        return tuple(c.vocab_size for c in self.categorical)


def _validate_spec(spec):
    seen = set()
    for name in ([c.name for c in spec.dense]
                 + [c.name for c in spec.categorical]
                 + [t.name for t in spec.tasks]):
        if name in seen:
            raise SchemaError(f"duplicate column/task name {name!r}")
        seen.add(name)
    if not spec.tasks:
        raise SchemaError("schema declares no tasks")
    if not spec.dense and not spec.categorical:
        raise SchemaError("schema declares no input features")
    for t in spec.tasks:
        if t.op not in PREDICATE_OPS:
            raise SchemaError(f"task {t.name!r}: unknown predicate op {t.op!r}")
        if t.op in ("gt", "ge") and isinstance(t.constant, str):
            raise SchemaError(f"task {t.name!r}: {t.op} needs a numeric constant")
        if t.standardize and t.op == "eq":
            raise SchemaError(f"task {t.name!r}: standardize requires gt/ge")
    if spec.sensitive is not None:
        values = {v for _, v in spec.sensitive.encoding}
        if not values <= {0, 1}:
            raise SchemaError("sensitive encoding must map tokens to 0 or 1")
    return spec


def load_schema(path):
    """Read a FeatureSpec from a schema JSON file."""
    with open(path) as f:
        raw = json.load(f)
    return spec_from_dict(raw)


def spec_from_dict(raw):
    try:
        dense = tuple(
            DenseCol(name=c["name"], mean=c.get("mean"), sd=c.get("sd"))
            if isinstance(c, dict) else DenseCol(name=c)
            for c in raw.get("dense", ()))
        for c in raw.get("categorical", ()):
            if isinstance(c, dict) and "embedding_dim" in c:
                raise SchemaError(
                    f"categorical column {c.get('name')!r}: embedding_dim "
                    "is not a schema key; set arch.embedding_dim instead")
        categorical = tuple(
            CatCol(name=c["name"],
                   vocab=tuple(c["vocab"]) if "vocab" in c else None)
            if isinstance(c, dict) else CatCol(name=c)
            for c in raw.get("categorical", ()))
        tasks = tuple(
            TaskDef(name=t["name"], source=t["source"], op=t["op"],
                    constant=t["constant"],
                    standardize=bool(t.get("standardize", False)),
                    mean=t.get("mean"), sd=t.get("sd"))
            for t in raw["tasks"])
        sens = None
        if raw.get("sensitive") is not None:
            s = raw["sensitive"]
            sens = SensitiveCol(name=s["column"],
                                encoding=tuple(sorted(s["encoding"].items())))
        spec = FeatureSpec(name=raw.get("name", "unnamed"),
                           dense=dense, categorical=categorical, tasks=tasks,
                           sensitive=sens,
                           missing_values=tuple(raw.get("missing_values",
                                                        ("", "?"))))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema: {exc}") from exc
    return _validate_spec(spec)


@dataclass
class Dataset:
    """Immutable-by-convention row store shared across runs.

    `sensitive` uses -1 for missing.  `vocab_sizes` mirrors the resolved
    schema so a model can be sized from the dataset alone: one size per
    categorical column.

    What a run derives from the rows alone is built once per process and
    kept by the instance (`kept`): the trainer's float labels and subset
    arrays, the arrays each epoch gathers into, and the step and
    evaluation workspaces.  They are plain arrays, freed with the dataset,
    and never pickled, so a pool worker builds its own on its first run.
    So the rows must not change in place once a run has read them, and
    two threads must not run on one dataset at once.
    """
    dense: np.ndarray
    cat: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray
    split: str = "train"
    vocab_sizes: tuple = ()
    rejected: int = 0

    def __post_init__(self):
        self.dense = np.ascontiguousarray(self.dense, dtype=np.float64)
        self.cat = np.ascontiguousarray(self.cat, dtype=np.intp)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int8)
        self.sensitive = np.ascontiguousarray(self.sensitive, dtype=np.int8)
        n = self.labels.shape[0]
        if self.dense.shape[0] != n or self.cat.shape[0] != n \
                or self.sensitive.shape[0] != n:
            raise ConfigError("inconsistent row counts across dataset arrays")
        if self.labels.size and not np.isin(self.labels, (0, 1)).all():
            raise ConfigError("labels must be binary")
        if self.sensitive.size and not np.isin(self.sensitive, (-1, 0, 1)).all():
            raise ConfigError("sensitive values must be in {-1, 0, 1}")
        if self.cat.ndim != 2 or self.cat.shape[1] != len(self.vocab_sizes):
            raise ConfigError(
                f"categorical codes of shape {self.cat.shape} need one "
                f"vocab size per column, got {len(self.vocab_sizes)}")
        for j, size in enumerate(self.vocab_sizes):
            column = self.cat[:, j]
            if column.size and not 0 <= column.min() <= column.max() < size:
                raise ConfigError(f"categorical column {j} has a code "
                                  f"outside [0, vocab size {size})")

    def kept(self, name, build):
        """What this dataset keeps under `name` for every run on its rows:
        `build()`, called on first use."""
        kept = self.__dict__.setdefault("_kept", {})
        if name not in kept:
            kept[name] = build()
        return kept[name]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_kept", None)
        return state

    def __len__(self):
        return self.labels.shape[0]

    @property
    def num_tasks(self):
        return self.labels.shape[1]

    def take(self, rows, split=None):
        """The given rows as a new Dataset; a slice gives views.

        They were validated with this dataset, so `__post_init__` is skipped.
        """
        if not isinstance(rows, slice):
            rows = np.asarray(rows, dtype=np.intp)
        out = object.__new__(Dataset)
        out.__dict__.update(
            dense=self.dense[rows], cat=self.cat[rows],
            labels=self.labels[rows], sensitive=self.sensitive[rows],
            split=split or self.split, vocab_sizes=self.vocab_sizes,
            rejected=0)
        return out


def _parse_cell(cell, column, line_no, spec, number=True):
    """A raw cell, as a number unless `number` is false; None when it is
    one of the missing values."""
    if cell in spec.missing_values:
        return None
    if not number:
        return cell
    try:
        return float(cell)
    except ValueError:
        raise RowParseError(
            line_no, f"column {column!r}: cannot parse {cell!r} as a number")


def _parse_rows(csv_path, spec):
    """Yield ({column: raw cell}, dense values, label sources) for each
    data row, or None for a rejected row: one with a missing dense value
    or label source.  A task's label source is its raw cell for an `eq`
    task, else a number.  Every number is parsed, so an unparseable one
    raises RowParseError with its line, whatever else the row lacks."""
    with open(csv_path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{csv_path}: empty file") from None
        missing = [c for c in spec.columns() if c not in header]
        if missing:
            raise SchemaError(f"{csv_path}: missing columns {missing}")
        pos = {c: header.index(c) for c in spec.columns()}
        for line_no, cells in enumerate(reader, start=2):
            if not cells or all(not cell.strip() for cell in cells):
                continue
            row = {c: cells[i].strip() if i < len(cells) else ""
                   for c, i in pos.items()}
            vals = [_parse_cell(row[c.name], c.name, line_no, spec)
                    for c in spec.dense]
            sources = [_parse_cell(row[t.source], t.source, line_no, spec,
                                   number=t.op != "eq") for t in spec.tasks]
            if None in vals or None in sources:
                yield None
            else:
                yield row, vals, sources


def resolve(spec, csv_path):
    """Fit standardization stats and vocabularies on a training CSV.

    Only rows that would survive loading (no missing labels or dense values)
    contribute to the statistics.  Constant dense columns get sd = 1 so the
    transform stays defined.
    """
    sums = np.zeros(len(spec.dense))
    sqsums = np.zeros(len(spec.dense))
    zsums = {t.name: [0.0, 0.0] for t in spec.tasks if t.standardize}
    vocabs = [set() for _ in spec.categorical]
    count = 0

    for row, vals, sources in filter(None, _parse_rows(csv_path, spec)):
        count += 1
        sums += vals
        sqsums += np.square(vals)
        for t, v in zip(spec.tasks, sources):
            if t.standardize:
                zsums[t.name][0] += v
                zsums[t.name][1] += v * v
        for vocab, c in zip(vocabs, spec.categorical):
            if row[c.name] not in spec.missing_values:
                vocab.add(row[c.name])

    if count == 0:
        raise SchemaError(f"{csv_path}: no usable rows to fit statistics")

    def stats(total, sq):
        mean = total / count
        var = max(sq / count - mean * mean, 0.0)
        sd = np.sqrt(var)
        return float(mean), float(sd if sd > 0 else 1.0)

    dense = tuple(replace(c, mean=m, sd=s) for c, (m, s) in
                  zip(spec.dense, map(stats, sums, sqsums)))
    categorical = tuple(replace(c, vocab=tuple(sorted(v)))
                        for c, v in zip(spec.categorical, vocabs))
    tasks = []
    for t in spec.tasks:
        if t.standardize:
            m, s = stats(*zsums[t.name])
            tasks.append(replace(t, mean=m, sd=s))
        else:
            tasks.append(t)
    return replace(spec, dense=dense, categorical=categorical,
                   tasks=tuple(tasks))


def _derive_label(task, v):
    """Apply a task predicate to its label source, from `_parse_rows`."""
    if task.op == "eq":
        return int(v == str(task.constant))
    if task.standardize:
        v = (v - task.mean) / task.sd
    return int(v > task.constant if task.op == "gt" else v >= task.constant)


def load_dataset(csv_path, spec, split="train"):
    """Load a CSV through a resolved spec into arrays.

    Rows with a missing label source or missing dense value are rejected and
    counted; missing sensitive values become -1 and the row is kept.
    """
    if not spec.resolved:
        raise SchemaError("spec not resolved; call resolve() on the train CSV")
    lookups = [{tok: i + 1 for i, tok in enumerate(c.vocab)}
               for c in spec.categorical]
    sens_map = dict(spec.sensitive.encoding) if spec.sensitive else {}

    dense_rows, cat_rows, label_rows, sens_vals = [], [], [], []
    rejected = 0
    for parsed in _parse_rows(csv_path, spec):
        if parsed is None:
            rejected += 1
            continue
        row, vals, sources = parsed
        dense_rows.append([(v - c.mean) / c.sd
                           for v, c in zip(vals, spec.dense)])
        cat_rows.append([lookup.get(row[c.name], OOV_INDEX)
                         for lookup, c in zip(lookups, spec.categorical)])
        label_rows.append([_derive_label(t, v)
                           for t, v in zip(spec.tasks, sources)])
        if spec.sensitive is None:
            sens_vals.append(-1)
        else:
            sens_vals.append(sens_map.get(row[spec.sensitive.name], -1))

    n = len(label_rows)
    return Dataset(
        dense=np.asarray(dense_rows, dtype=np.float64).reshape(n, len(spec.dense)),
        cat=np.asarray(cat_rows, dtype=np.intp).reshape(n, len(spec.categorical)),
        labels=np.asarray(label_rows, dtype=np.int8).reshape(n, spec.num_tasks),
        sensitive=np.asarray(sens_vals, dtype=np.int8),
        split=split, vocab_sizes=spec.vocab_sizes(), rejected=rejected)


def split_random(dataset, fraction, seed):
    """Disjoint train/test split covering every row, deterministic in seed."""
    if not 0 < fraction < 1:
        raise ConfigError(f"split fraction must be in (0,1), got {fraction}")
    n = len(dataset)
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(n * fraction)
    return (dataset.take(perm[:n_train], split="train"),
            dataset.take(perm[n_train:], split="test"))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Generative settings for the controlled test-fixture generator.

    Task latents share variance through `label_correlation`; per-group
    per-task intercepts are solved so marginal positive rates match
    `positive_rates[group][task]`.  `group_feature_weight` 0 makes the
    feature distribution identical across groups.
    """
    n: int
    num_tasks: int = 2
    dense_dim: int = 5
    group_fraction: float = 0.5
    positive_rates: tuple = ((0.3, 0.3), (0.3, 0.3))
    label_correlation: float = 0.5
    group_feature_weight: float = 1.0
    feature_noise: float = 0.5
    logit_slope: float = 2.5
    sensitive_missing_rate: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.num_tasks < 1 or self.dense_dim < 1:
            raise ConfigError("num_tasks and dense_dim must be >= 1")
        rates = np.asarray(self.positive_rates, dtype=float)
        if rates.shape != (2, self.num_tasks):
            raise ConfigError("positive_rates must be shaped (2, num_tasks)")
        if ((rates < 0) | (rates > 1)).any():
            raise ConfigError("positive rates must lie in [0, 1]")
        for name in ("group_fraction", "label_correlation",
                     "sensitive_missing_rate"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ConfigError(f"{name} must lie in [0, 1]")
        object.__setattr__(self, "positive_rates",
                           tuple(tuple(r) for r in rates))


_HERM_X, _HERM_W = np.polynomial.hermite.hermgauss(80)


def _solve_intercepts(slope, rates):
    """c such that E[sigmoid(slope * U + c)] = rate for U ~ N(0, 1), for
    each of 1-D rates, by one bisection over them all, to its fixed point."""
    nodes = slope * np.sqrt(2.0) * _HERM_X
    lo = np.full(len(rates), -80.0)
    hi = np.full(len(rates), 80.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # each row sums its 80 terms in the order a 1-D sum would
        expected = (np.sum(_HERM_W / (1.0 + np.exp(-(mid[:, None] + nodes))),
                           axis=1) / np.sqrt(np.pi))
        below = expected < rates
        if (np.where(below, lo, hi) == mid).all():
            break
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def synth_generate(spec, seed):
    """Draw a synthetic Dataset from the generative model in SynthSpec."""
    rng = np.random.default_rng(seed)
    n, num_tasks = spec.n, spec.num_tasks
    rates = np.asarray(spec.positive_rates)

    group = (rng.random(n) < spec.group_fraction).astype(np.int8)
    shared = rng.standard_normal(n)
    own = rng.standard_normal((n, num_tasks))
    rho = spec.label_correlation
    latent = (np.sqrt(rho) * shared[:, None]
              + np.sqrt(1.0 - rho) * own)

    inside = (rates > 0.0) & (rates < 1.0)
    intercepts = np.zeros(rates.shape)
    intercepts[inside] = _solve_intercepts(spec.logit_slope, rates[inside])
    prob = np.empty((n, num_tasks))
    for g in (0, 1):
        mask = group == g
        for t in range(num_tasks):
            rate = rates[g, t]
            if rate <= 0.0:
                prob[mask, t] = 0.0
            elif rate >= 1.0:
                prob[mask, t] = 1.0
            else:
                prob[mask, t] = 1.0 / (1.0 + np.exp(
                    -(spec.logit_slope * latent[mask, t] + intercepts[g, t])))
    labels = (rng.random((n, num_tasks)) < prob).astype(np.int8)

    dense = np.empty((n, spec.dense_dim))
    dense[:, 0] = (spec.group_feature_weight * (2.0 * group - 1.0)
                   + spec.feature_noise * rng.standard_normal(n))
    for j in range(1, spec.dense_dim):
        dense[:, j] = (latent[:, (j - 1) % num_tasks]
                       + spec.feature_noise * rng.standard_normal(n))

    sensitive = group.copy()
    if spec.sensitive_missing_rate > 0:
        sensitive[rng.random(n) < spec.sensitive_missing_rate] = -1

    return Dataset(dense=dense, cat=np.empty((n, 0), dtype=np.intp),
                   labels=labels, sensitive=sensitive, split="train")
