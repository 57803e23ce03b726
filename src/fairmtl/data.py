"""Dataset ingestion, task-label derivation, batching, and synthesis.

CSV files are interpreted through a JSON schema (FeatureSpec): which columns
are dense or categorical inputs, how each binary task label derives from a
source column via a predicate, and how the sensitive attribute is encoded;
a key that names no field is refused (`spec_from_dict`).  `resolve` and
`load_dataset` each read their CSV once, into columns (`_read`).
Standardization statistics and categorical vocabularies are fitted once on
the training file (`resolve`) and frozen, so test data never leaks into them.
"""

import csv
import json
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigError, RowParseError, SchemaError
from .model import from_fields, integer, refuse_unknown

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


def load_schema(path):
    """Read a FeatureSpec from a schema JSON file."""
    with open(path) as f:
        return spec_from_dict(json.load(f))


def spec_from_dict(raw):
    """A FeatureSpec from a schema's JSON object, checked whole: a key
    that names no field, at the top level or in a column, task or
    `sensitive`, is refused like any other malformed or inconsistent
    schema, with a SchemaError."""
    try:
        for c in raw.get("categorical", ()):
            if isinstance(c, dict) and "embedding_dim" in c:
                raise SchemaError(
                    f"categorical column {c.get('name')!r}: embedding_dim "
                    "is not a schema key; set arch.embedding_dim instead")

        def records(cls, items):
            return tuple(from_fields(cls, c if isinstance(c, dict)
                                     else {"name": c}) for c in items)
        sens = raw.get("sensitive")
        if sens is not None:
            refuse_unknown("sensitive", sens, ("column", "encoding"))
            sens = SensitiveCol(sens["column"],
                                tuple(sorted(sens["encoding"].items())))
        spec = from_fields(FeatureSpec, {
            "name": "unnamed", **raw,
            "dense": records(DenseCol, raw.get("dense", ())),
            "categorical": tuple(
                c if c.vocab is None else replace(c, vocab=tuple(c.vocab))
                for c in records(CatCol, raw.get("categorical", ()))),
            "tasks": records(TaskDef, raw["tasks"]), "sensitive": sens,
            "missing_values": tuple(raw.get("missing_values", ("", "?")))})
    except (AttributeError, ConfigError, KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema: {exc}") from exc
    names = [c.name for c in spec.dense + spec.categorical + spec.tasks]
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if repeated:
        raise SchemaError(f"duplicate column/task name {repeated[0]!r}")
    if not spec.tasks:
        raise SchemaError("schema declares no tasks")
    if not spec.dense and not spec.categorical:
        raise SchemaError("schema declares no input features")
    for t in spec.tasks:
        if t.op not in PREDICATE_OPS:
            raise SchemaError(f"task {t.name!r}: unknown predicate op {t.op!r}")
        if t.op in ("gt", "ge") and not isinstance(t.constant, (int, float)):
            raise SchemaError(f"task {t.name!r}: {t.op} needs a numeric constant")
        if not isinstance(t.standardize, bool):
            raise SchemaError(f"task {t.name!r}: standardize must be true or "
                              f"false, got {t.standardize!r}")
        if t.standardize and t.op == "eq":
            raise SchemaError(f"task {t.name!r}: standardize requires gt/ge")
    if spec.sensitive and not {v for _, v in spec.sensitive.encoding} <= {0, 1}:
        raise SchemaError("sensitive encoding must map tokens to 0 or 1")
    return spec


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


def _read(csv_path, spec):
    """A CSV's rows that survive loading, column by column: the (n, d)
    dense values, each task's label source (an `eq` task's cells, else
    floats), each categorical column's cells and the sensitive cells
    (all None without a sensitive column); and the count of rejected
    rows, those missing a dense value or label source.  Every number is
    parsed, so an unparseable one raises RowParseError with its line,
    whatever else the row lacks."""
    d, c = len(spec.dense), len(spec.categorical)
    names = spec.columns()   # dense, categorical, label sources, sensitive
    # the cells that must be there, in parse order: True for a number
    required = dict.fromkeys(range(d), True) | {
        d + c + k: t.op != "eq" for k, t in enumerate(spec.tasks)}
    rows, rejected = [], 0
    with open(csv_path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{csv_path}: empty file") from None
        missing = [name for name in names if name not in header]
        if missing:
            raise SchemaError(f"{csv_path}: missing columns {missing}")
        pos = [header.index(name) for name in names]
        for line_no, cells in enumerate(reader, start=2):
            if not any(cell.strip() for cell in cells):
                continue
            row = [cells[i].strip() if i < len(cells) else "" for i in pos]
            for k, number in required.items():
                if row[k] in spec.missing_values:
                    row[k] = None
                elif number:
                    try:
                        row[k] = float(row[k])
                    except ValueError:
                        raise RowParseError(
                            line_no, f"column {names[k]!r}: cannot parse "
                            f"{row[k]!r} as a number") from None
            if None in row:
                rejected += 1
            else:
                rows.append(row)
    columns = list(zip(*rows)) or [()] * len(names)
    dense = np.array(columns[:d], dtype=np.float64).reshape(d, len(rows)).T
    sources = [np.array(columns[k], dtype=np.float64) if number
               else columns[k] for k, number in required.items() if k >= d]
    return (dense, sources, columns[d:d + c],
            columns[-1] if spec.sensitive else (None,) * len(rows), rejected)


def _stats(columns):
    """Each column's {"mean", "sd"} over the rows of `columns`, sd 1
    where it is 0, from running sums taken in row order from 0."""
    n = len(columns)
    # cumsum adds in row order, where a sum over a column would not;
    # + 0.0 makes an all -0.0 column's sum +0.0, as a sum from 0 does
    mean = (np.cumsum(columns, axis=0)[-1] + 0.0) / n
    var = np.maximum(np.cumsum(columns * columns, axis=0)[-1] / n
                     - mean * mean, 0.0)
    return [{"mean": float(m), "sd": float(s if s > 0 else 1.0)}
            for m, s in zip(mean, np.sqrt(var))]


def resolve(spec, csv_path):
    """Fit standardization stats and vocabularies on a training CSV.

    Only rows that would survive loading (no missing labels or dense values)
    contribute to the statistics.  Constant dense columns get sd = 1 so the
    transform stays defined.
    """
    dense, sources, cat, _, _ = _read(csv_path, spec)
    if not len(dense):
        raise SchemaError(f"{csv_path}: no usable rows to fit statistics")
    z = [k for k, t in enumerate(spec.tasks) if t.standardize]
    stats = _stats(np.column_stack([dense] + [sources[k] for k in z]))
    fitted = dict(zip(z, stats[len(spec.dense):]))
    missing = set(spec.missing_values)
    return replace(
        spec,
        dense=tuple(replace(c, **s) for c, s in zip(spec.dense, stats)),
        categorical=tuple(replace(c, vocab=tuple(sorted(set(cells) - missing)))
                          for c, cells in zip(spec.categorical, cat)),
        tasks=tuple(replace(t, **fitted.get(k, {}))
                    for k, t in enumerate(spec.tasks)))


def load_dataset(csv_path, spec, split="train"):
    """Load a CSV through a resolved spec into arrays.

    Rows with a missing label source or missing dense value are rejected and
    counted; missing sensitive values become -1 and the row is kept.
    """
    if not spec.resolved:
        raise SchemaError("spec not resolved; call resolve() on the train CSV")
    dense, sources, cat, sens, rejected = _read(csv_path, spec)
    labels, codes = [], []
    for t, v in zip(spec.tasks, sources):
        if t.op == "eq":
            labels.append([cell == str(t.constant) for cell in v])
            continue
        # compared as Python floats: a float and an int compare exactly
        above = operator.gt if t.op == "gt" else operator.ge
        z = (v - t.mean) / t.sd if t.standardize else v
        labels.append([above(x, t.constant) for x in z.tolist()])
    for c, cells in zip(spec.categorical, cat):
        lookup = {tok: i + 1 for i, tok in enumerate(c.vocab)}
        codes.append([lookup.get(cell, OOV_INDEX) for cell in cells])
    encoding = dict(spec.sensitive.encoding) if spec.sensitive else {}
    return Dataset(
        dense=((dense - [c.mean for c in spec.dense])
               / [c.sd for c in spec.dense]),
        cat=np.array(codes, dtype=np.intp).reshape(len(codes), len(sens)).T,
        labels=np.array(labels, dtype=np.int8).T,
        sensitive=[encoding.get(cell, -1) for cell in sens],
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
        for name in ("n", "num_tasks", "dense_dim"):
            object.__setattr__(self, name,
                               integer(self, name, getattr(self, name)))
        for name in ("group_fraction", "label_correlation",
                     "group_feature_weight", "feature_noise", "logit_slope",
                     "sensitive_missing_rate"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
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
