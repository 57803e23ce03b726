"""Schema-driven loading, serialization round-trips, and the synthetic generator.

Oracles here are hand-worked: the toy CSV's statistics, labels, and indices
are worked out by hand in the comments, and the generator's marginals are
checked against the rates it was asked to hit.
"""

import json
import math
from importlib import resources

import numpy as np
import oracles
import pytest
from helpers import spec_to_dict, write_csv

from fairmtl.data import (
    OOV_INDEX,
    Dataset,
    SynthSpec,
    _solve_intercepts,
    load_dataset,
    load_schema,
    resolve,
    spec_from_dict,
    split_random,
    synth_generate,
)
from fairmtl.exceptions import ConfigError, RowParseError, SchemaError
from fairmtl.sweep import dataset_hash

TOY_SCHEMA = {
    "name": "toy",
    "missing_values": ["", "?"],
    "dense": ["age", "hours"],
    "categorical": ["color"],
    "tasks": [
        {"name": "rich", "source": "income", "op": "eq", "constant": ">50K"},
        {"name": "gain", "source": "amount", "op": "gt", "constant": 100},
    ],
    "sensitive": {"column": "sex", "encoding": {"M": 0, "F": 1}},
}

TOY_HEADER = "age,hours,color,income,amount,sex\n"

# Surviving rows: 1,2,3,6,7 (row 4 missing dense, row 5 missing label source).
TOY_TRAIN = TOY_HEADER + (
    "30,40,red,>50K,150,M\n"
    "50,20,blue,<=50K,50,F\n"
    "40,60,green,>50K,100,M\n"
    "?,30,red,<=50K,200,F\n"
    "20,10,blue,>50K,?,M\n"
    "60,50,red,<=50K,120,X\n"
    "25,35,?,>50K,300,F\n"
)


def toy_spec(tmp_path, train_text=TOY_TRAIN):
    path = tmp_path / "train.csv"
    path.write_text(train_text)
    return resolve(spec_from_dict(TOY_SCHEMA), path), path


class TestResolveAndLoad:
    def test_survivor_rows_and_reject_count(self, tmp_path):
        spec, path = toy_spec(tmp_path)
        ds = load_dataset(path, spec)
        assert len(ds) == 5
        assert ds.rejected == 2

    def test_labels_hand_derived(self, tmp_path):
        spec, path = toy_spec(tmp_path)
        ds = load_dataset(path, spec)
        # eq ">50K" per row; amount > 100 strict (100 itself is negative)
        expected = [[1, 1], [0, 0], [1, 0], [0, 1], [1, 1]]
        assert np.array_equal(ds.labels, expected)

    def test_sensitive_encoding_and_missing_token(self, tmp_path):
        spec, path = toy_spec(tmp_path)
        ds = load_dataset(path, spec)
        # row 6 has unknown token "X" -> -1, row kept
        assert np.array_equal(ds.sensitive, [0, 1, 0, -1, 1])

    def test_vocab_sorted_with_reserved_oov_slot(self, tmp_path):
        spec, path = toy_spec(tmp_path)
        assert spec.categorical[0].vocab == ("blue", "green", "red")
        assert spec.vocab_sizes() == (4,)
        ds = load_dataset(path, spec)
        # blue=1 green=2 red=3; the "?" cell maps to the OOV slot
        assert np.array_equal(ds.cat[:, 0], [3, 1, 2, 3, OOV_INDEX])

    def test_dense_standardized_to_unit_stats(self, tmp_path):
        spec, path = toy_spec(tmp_path)
        ds = load_dataset(path, spec)
        assert np.allclose(ds.dense.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(ds.dense.std(axis=0), 1.0, atol=1e-12)
        # survivor ages 30,50,40,60,25: mean 41, population var 164
        assert spec.dense[0].mean == pytest.approx(41.0)
        assert spec.dense[0].sd == pytest.approx(np.sqrt(164.0))

    def test_stats_exclude_rejected_rows(self, tmp_path):
        # the rejected rows carry extreme ages; stats must not move
        extra = TOY_TRAIN + "?,9999,red,>50K,1,M\n9999,1,red,?,1,F\n"
        spec, _ = toy_spec(tmp_path, extra)
        assert spec.dense[0].mean == pytest.approx(41.0)

    def test_test_split_uses_train_statistics(self, tmp_path):
        spec, _ = toy_spec(tmp_path)
        test_path = tmp_path / "test.csv"
        test_path.write_text(TOY_HEADER + "100,80,purple,>50K,500,F\n")
        ds = load_dataset(test_path, spec, split="test")
        assert ds.split == "test"
        assert ds.dense[0, 0] == pytest.approx((100 - 41.0) / np.sqrt(164.0))
        assert ds.cat[0, 0] == OOV_INDEX  # purple unseen in train

    def test_eq_predicate_compares_numeric_constant_as_string(self, tmp_path):
        schema = {
            "name": "t", "dense": ["x"], "categorical": [],
            "tasks": [{"name": "good", "source": "risk",
                       "op": "eq", "constant": 1}],
        }
        path = tmp_path / "t.csv"
        path.write_text("x,risk\n0.5,1\n0.5,2\n")
        spec = resolve(spec_from_dict(schema), path)
        ds = load_dataset(path, spec)
        assert np.array_equal(ds.labels[:, 0], [1, 0])
        assert np.array_equal(ds.sensitive, [-1, -1])

    def test_standardized_predicate_uses_train_zscore(self, tmp_path):
        schema = {
            "name": "z", "dense": ["x"], "categorical": [],
            "tasks": [{"name": "high", "source": "score", "op": "gt",
                       "constant": 0, "standardize": True}],
        }
        path = tmp_path / "z.csv"
        path.write_text("x,score\n" + "".join(
            f"0.1,{s}\n" for s in (1, 2, 3, 4, 5)))
        spec = resolve(spec_from_dict(schema), path)
        assert spec.tasks[0].mean == pytest.approx(3.0)
        assert spec.tasks[0].sd == pytest.approx(np.sqrt(2.0))
        ds = load_dataset(path, spec)
        assert np.array_equal(ds.labels[:, 0], [0, 0, 0, 1, 1])

    @pytest.mark.parametrize("standardize", [False, True])
    def test_stats_are_running_sums_in_row_order(self, tmp_path,
                                                 standardize):
        """A column's mean and sd are those of running sums taken row by
        row from 0, bit for bit: one dense column alone, or with a
        standardized label source, of 40 values of widely varying
        magnitude, whose pairwise sum (np.sum) rounds differently."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal(40) * 10.0 ** rng.uniform(-2, 9, 40)
        score = x[::-1].copy()
        path = tmp_path / "z.csv"
        path.write_text("x,score\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), score.tolist())))
        schema = {"name": "z", "dense": ["x"], "categorical": [],
                  "tasks": [{"name": "high", "source": "score", "op": "gt",
                             "constant": 0, "standardize": standardize}]}
        spec = resolve(spec_from_dict(schema), path)
        fitted = [(x, spec.dense[0])] + [(score, spec.tasks[0])] * standardize
        for values, column in fitted:
            total = sq = 0.0
            for v in values.tolist():
                total += v
                sq += v * v
            assert total != np.sum(values)
            mean = total / len(values)
            sd = math.sqrt(max(sq / len(values) - mean * mean, 0.0))
            assert (column.mean.hex(), column.sd.hex()) == (mean.hex(),
                                                            sd.hex())

    def test_integer_constant_compared_exactly(self, tmp_path):
        """2**53 + 1 is no float64: sources of 2**53 and 2**53 + 2 fall
        below and above it, as Python compares a float with an int, not
        at the constant rounded to a float64, where 2**53 would pass."""
        path = tmp_path / "big.csv"
        path.write_text(f"x,s\n1,{2**53}\n3,{2**53 + 2}\n")
        schema = {"name": "big", "dense": ["x"], "categorical": [],
                  "tasks": [{"name": "t", "source": "s", "op": "ge",
                             "constant": 2**53 + 1}]}
        spec = resolve(spec_from_dict(schema), path)
        assert load_dataset(path, spec).labels[:, 0].tolist() == [0, 1]

    def test_all_negative_zero_column_has_mean_plus_zero(self, tmp_path):
        """A running sum from 0 of -0.0 values is +0.0, so the column's
        mean is +0.0 and its values load as (-0.0 - 0.0) / 1 = -0.0."""
        path = tmp_path / "z.csv"
        path.write_text("x,y\n" + "-0,1\n" * 9)
        schema = {"name": "z", "dense": ["x"], "categorical": [],
                  "tasks": [{"name": "t", "source": "y", "op": "gt",
                             "constant": 0}]}
        spec = resolve(spec_from_dict(schema), path)
        assert (spec.dense[0].mean.hex(), spec.dense[0].sd) == ("0x0.0p+0", 1)
        assert np.signbit(load_dataset(path, spec).dense).all()

    def test_unresolved_spec_rejected(self, tmp_path):
        spec = spec_from_dict(TOY_SCHEMA)
        path = tmp_path / "t.csv"
        path.write_text(TOY_TRAIN)
        with pytest.raises(SchemaError, match="resolve"):
            load_dataset(path, spec)

    def test_missing_column_names_it(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,color,income,amount,sex\n30,red,>50K,150,M\n")
        with pytest.raises(SchemaError, match="hours"):
            resolve(spec_from_dict(TOY_SCHEMA), path)

    def test_unparseable_number_carries_line_number(self, tmp_path):
        bad = TOY_HEADER + "30,40,red,>50K,150,M\n30,abc,red,>50K,150,M\n"
        path = tmp_path / "bad.csv"
        path.write_text(bad)
        with pytest.raises(RowParseError, match="abc") as err:
            resolve(spec_from_dict(TOY_SCHEMA), path)
        assert err.value.line_number == 3  # header is line 1

    @pytest.mark.parametrize("bad_row", ["?,40,red,>50K,abc,M",
                                         "30,40,red,?,abc,M"])
    def test_resolve_and_load_refuse_an_unparseable_number_alike(
            self, tmp_path, bad_row):
        """A row that would be rejected for a missing dense value or label
        source still has its numbers parsed: `resolve` used to skip it
        where `load_dataset` raised."""
        spec, _ = toy_spec(tmp_path)
        path = tmp_path / "bad.csv"
        path.write_text(TOY_HEADER + "30,40,red,>50K,150,M\n" + bad_row + "\n")
        for read in (lambda: resolve(spec_from_dict(TOY_SCHEMA), path),
                     lambda: load_dataset(path, spec)):
            with pytest.raises(RowParseError,
                               match="line 3: column 'amount'.*'abc'") as err:
                read()
            assert err.value.line_number == 3

    def test_no_usable_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(TOY_HEADER + "?,40,red,>50K,150,M\n")
        with pytest.raises(SchemaError, match="no usable rows"):
            resolve(spec_from_dict(TOY_SCHEMA), path)


class TestRoundTrip:
    def test_write_then_reload_is_exact(self, tmp_path):
        spec, path = toy_spec(tmp_path)
        ds = load_dataset(path, spec)
        out = tmp_path / "out.csv"
        write_csv(ds, spec, out)
        back = load_dataset(out, spec)
        assert back.rejected == 0
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.sensitive, ds.sensitive)
        assert np.array_equal(back.cat, ds.cat)
        assert np.allclose(back.dense, ds.dense, rtol=0, atol=1e-12)

    def test_round_trip_standardized_and_ge_predicates(self, tmp_path):
        schema = {
            "name": "z", "dense": ["x"], "categorical": [],
            "tasks": [
                {"name": "high", "source": "score", "op": "gt",
                 "constant": 0, "standardize": True},
                {"name": "big", "source": "amount", "op": "ge",
                 "constant": 10},
            ],
        }
        path = tmp_path / "z.csv"
        path.write_text("x,score,amount\n" + "".join(
            f"{i},{s},{a}\n" for i, (s, a) in
            enumerate([(1, 5), (2, 10), (3, 15), (4, 9), (5, 11)])))
        spec = resolve(spec_from_dict(schema), path)
        ds = load_dataset(path, spec)
        assert np.array_equal(ds.labels[:, 1], [0, 1, 1, 0, 1])
        out = tmp_path / "back.csv"
        write_csv(ds, spec, out)
        back = load_dataset(out, spec)
        assert np.array_equal(back.labels, ds.labels)
        assert np.allclose(back.dense, ds.dense, rtol=0, atol=1e-12)

    def test_spec_dict_round_trip(self, tmp_path):
        spec, path = toy_spec(tmp_path)
        clone = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert clone == spec
        ds1 = load_dataset(path, spec)
        ds2 = load_dataset(path, clone)
        assert np.array_equal(ds1.dense, ds2.dense)
        assert np.array_equal(ds1.cat, ds2.cat)


class TestDatasetValidation:
    def test_label_values_checked(self):
        with pytest.raises(ConfigError, match="binary"):
            Dataset(dense=np.zeros((1, 1)), cat=np.empty((1, 0), dtype=np.intp),
                    labels=np.array([[2]]), sensitive=np.array([0]))

    def test_sensitive_values_checked(self):
        with pytest.raises(ConfigError, match="sensitive"):
            Dataset(dense=np.zeros((1, 1)), cat=np.empty((1, 0), dtype=np.intp),
                    labels=np.array([[1]]), sensitive=np.array([3]))

    def test_row_count_mismatch(self):
        with pytest.raises(ConfigError, match="row counts"):
            Dataset(dense=np.zeros((2, 1)), cat=np.empty((1, 0), dtype=np.intp),
                    labels=np.array([[1]]), sensitive=np.array([0]))

    def test_vocab_bound_checked(self):
        with pytest.raises(ConfigError, match="vocab"):
            Dataset(dense=np.zeros((1, 1)),
                    cat=np.array([[7]], dtype=np.intp),
                    labels=np.array([[1]]), sensitive=np.array([0]),
                    vocab_sizes=(4,))

    def test_negative_codes_refused(self):
        """A code below 0 would wrap to the embedding's last row in one
        forward pass and fail mid-run in another."""
        with pytest.raises(ConfigError, match=r"outside \[0, vocab size 4\)"):
            Dataset(dense=np.zeros((16, 1)),
                    cat=np.full((16, 1), -1, dtype=np.intp),
                    labels=np.ones((16, 1)), sensitive=np.zeros(16),
                    vocab_sizes=(4,))

    def test_one_vocab_size_per_categorical_column(self):
        """Categorical columns without their vocab sizes are refused: a
        model sized from the dataset would have no embedding for them."""
        for cat, vocab_sizes in (([[1], [2]], ()), ([[1], [2]], (4, 4)),
                                 (np.empty((2, 0)), (4,)), ([1, 2], (4,))):
            with pytest.raises(ConfigError, match="one vocab size per column"):
                Dataset(dense=np.zeros((2, 1)), cat=np.asarray(cat),
                        labels=np.array([[1], [0]]),
                        sensitive=np.array([0, 1]), vocab_sizes=vocab_sizes)

    def test_take_equals_validated_construction(self):
        ds = synth_generate(SynthSpec(n=50), seed=3)
        rows = np.array([4, 0, 17, 4, 49])
        got = ds.take(rows, split="test")
        want = Dataset(dense=ds.dense[rows], cat=ds.cat[rows],
                       labels=ds.labels[rows], sensitive=ds.sensitive[rows],
                       split="test", vocab_sizes=ds.vocab_sizes)
        for name in ("dense", "cat", "labels", "sensitive"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.flags.c_contiguous
            assert np.array_equal(a, b)
        assert (got.split, got.vocab_sizes, got.rejected) == \
            (want.split, want.vocab_sizes, want.rejected)
        assert ds.take(rows).split == ds.split


class TestSplitAndBatches:
    def make(self, n=1000):
        return synth_generate(SynthSpec(n=n), seed=7)

    def test_split_sizes_and_coverage(self):
        ds = self.make(1000)
        train, test = split_random(ds, 0.8, seed=3)
        assert len(train) == 800 and len(test) == 200
        assert train.split == "train" and test.split == "test"
        merged = np.sort(np.concatenate([train.dense[:, 0], test.dense[:, 0]]))
        assert np.array_equal(merged, np.sort(ds.dense[:, 0]))

    def test_split_deterministic_in_seed(self):
        ds = self.make(200)
        a1, b1 = split_random(ds, 0.8, seed=5)
        a2, b2 = split_random(ds, 0.8, seed=5)
        assert np.array_equal(a1.dense, a2.dense)
        assert np.array_equal(b1.labels, b2.labels)
        a3, _ = split_random(ds, 0.8, seed=6)
        assert not np.array_equal(a1.dense, a3.dense)

    def test_split_fraction_validated(self):
        ds = self.make(10)
        with pytest.raises(ConfigError):
            split_random(ds, 0.0, seed=0)
        with pytest.raises(ConfigError):
            split_random(ds, 1.0, seed=0)


class TestSynthGenerator:
    def test_deterministic_in_seed(self):
        spec = SynthSpec(n=500)
        a = synth_generate(spec, seed=1)
        b = synth_generate(spec, seed=1)
        assert np.array_equal(a.dense, b.dense)
        assert np.array_equal(a.labels, b.labels)
        c = synth_generate(spec, seed=2)
        assert not np.array_equal(a.labels, c.labels)

    @pytest.mark.parametrize("slope", [0.5, 2.5, 6.0, 10.0])
    def test_intercepts_equal_one_bisection_per_rate(self, slope,
                                                     monkeypatch):
        """The bisection over all rates stops at its first step that moves
        no bound, short of 200 steps, and returns, bit for bit, what all
        200 steps of the oracle's bisection per rate return, on a grid, on
        random rates and on the benchmark's."""
        rng = np.random.default_rng(int(slope * 10))
        exp = np.exp
        for rates in (np.linspace(0.01, 0.99, 99), rng.uniform(0.0, 1.0, 20),
                      np.array([0.2, 0.35, 0.5, 0.3])):
            steps = []
            with monkeypatch.context() as patch:
                patch.setattr(np, "exp", lambda x: steps.append(x) or exp(x))
                got = _solve_intercepts(slope, rates)
            assert len(steps) < 200
            assert got.tolist() == [oracles.solve_intercept(slope, rate)
                                    for rate in rates]

    def test_generated_data_pinned(self):
        """The generator's output, and so every pair hash and STL cache
        name derived from it, stays fixed."""
        two = synth_generate(SynthSpec(n=500), seed=3)
        three = synth_generate(SynthSpec(
            n=400, num_tasks=3,
            positive_rates=((0.0, 0.2, 0.7), (1.0, 0.45, 0.05)),
            sensitive_missing_rate=0.1), seed=3)
        assert dataset_hash(two) == "9e2f56ef2d37"
        assert dataset_hash(three) == "30f65d87b720"

    def test_extreme_rates_exact(self):
        spec = SynthSpec(n=400, positive_rates=((0.0, 1.0), (0.0, 1.0)))
        ds = synth_generate(spec, seed=0)
        assert not ds.labels[:, 0].any()
        assert ds.labels[:, 1].all()

    def test_marginal_rates_hit_targets(self):
        rates = ((0.2, 0.5), (0.7, 0.35))
        spec = SynthSpec(n=100_000, positive_rates=rates)
        ds = synth_generate(spec, seed=0)
        for g in (0, 1):
            mask = ds.sensitive == g
            for t in (0, 1):
                observed = ds.labels[mask, t].mean()
                assert abs(observed - rates[g][t]) < 0.01, (g, t, observed)

    def test_label_correlation_mixing(self):
        # shared-variance weight drives cross-task label correlation
        hi = synth_generate(SynthSpec(n=20_000, label_correlation=1.0,
                                      positive_rates=((0.5, 0.5), (0.5, 0.5))),
                            seed=3)
        lo = synth_generate(SynthSpec(n=20_000, label_correlation=0.0,
                                      positive_rates=((0.5, 0.5), (0.5, 0.5))),
                            seed=3)
        corr_hi = np.corrcoef(hi.labels[:, 0], hi.labels[:, 1])[0, 1]
        corr_lo = np.corrcoef(lo.labels[:, 0], lo.labels[:, 1])[0, 1]
        assert corr_hi > 0.4
        assert abs(corr_lo) < 0.03

    def test_group_feature_signal(self):
        ds = synth_generate(SynthSpec(n=5000, group_feature_weight=2.0),
                            seed=0)
        m1 = ds.dense[ds.sensitive == 1, 0].mean()
        m0 = ds.dense[ds.sensitive == 0, 0].mean()
        assert m1 - m0 > 3.0
        flat = synth_generate(SynthSpec(n=5000, group_feature_weight=0.0),
                              seed=0)
        d = abs(flat.dense[flat.sensitive == 1, 0].mean()
                - flat.dense[flat.sensitive == 0, 0].mean())
        assert d < 0.05

    def test_sensitive_missing_rate(self):
        ds = synth_generate(SynthSpec(n=10_000, sensitive_missing_rate=0.3),
                            seed=0)
        frac = (ds.sensitive == -1).mean()
        assert abs(frac - 0.3) < 0.02
        full = synth_generate(SynthSpec(n=1000), seed=0)
        assert (full.sensitive >= 0).all()

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SynthSpec(n=0)
        with pytest.raises(ConfigError):
            SynthSpec(n=10, positive_rates=((0.5,), (0.5,)))
        with pytest.raises(ConfigError):
            SynthSpec(n=10, positive_rates=((0.5, 1.5), (0.5, 0.5)))
        with pytest.raises(ConfigError):
            SynthSpec(n=10, group_fraction=1.5)


class TestShippedSchemas:
    def shipped(self, name):
        path = resources.files("fairmtl") / "schemas" / f"{name}.schema.json"
        return load_schema(str(path))

    def test_all_parse_and_declare_two_tasks(self):
        for name in ("uci_adult", "german_credit", "lsac"):
            spec = self.shipped(name)
            assert spec.num_tasks == 2
            assert spec.sensitive is not None
            assert not spec.resolved

    def test_label_and_sensitive_sources_not_features(self):
        for name in ("uci_adult", "german_credit", "lsac"):
            spec = self.shipped(name)
            features = ({c.name for c in spec.dense}
                        | {c.name for c in spec.categorical})
            for t in spec.tasks:
                assert t.source not in features, (name, t.source)
            assert spec.sensitive.name not in features

    def test_german_feature_count(self):
        spec = self.shipped("german_credit")
        assert len(spec.dense) + len(spec.categorical) == 18

    def test_lsac_uses_train_zscore_for_grade_task(self):
        spec = self.shipped("lsac")
        assert spec.tasks[1].standardize is True


class TestSchemaValidation:
    def base(self):
        return json.loads(json.dumps(TOY_SCHEMA))

    def test_duplicate_name(self):
        raw = self.base()
        raw["dense"] = ["age", "age"]
        with pytest.raises(SchemaError, match="duplicate"):
            spec_from_dict(raw)

    def test_no_tasks(self):
        raw = self.base()
        raw["tasks"] = []
        with pytest.raises(SchemaError, match="no tasks"):
            spec_from_dict(raw)

    def test_no_features(self):
        raw = self.base()
        raw["dense"] = []
        raw["categorical"] = []
        with pytest.raises(SchemaError, match="no input features"):
            spec_from_dict(raw)

    def test_gt_with_string_constant(self):
        raw = self.base()
        raw["tasks"][1]["constant"] = "lots"
        with pytest.raises(SchemaError, match="numeric"):
            spec_from_dict(raw)

    @pytest.mark.parametrize("constant", [None, [100]], ids=["null", "list"])
    def test_gt_with_null_or_list_constant(self, constant):
        """Either used to pass the schema check and end in a TypeError
        when the labels were derived."""
        raw = self.base()
        raw["tasks"][1]["constant"] = constant
        with pytest.raises(SchemaError, match="numeric"):
            spec_from_dict(raw)

    def test_standardize_must_be_a_boolean(self):
        """"false" as a string used to standardize, being truthy."""
        raw = self.base()
        raw["tasks"][1]["standardize"] = "false"
        with pytest.raises(SchemaError, match="true or false, got 'false'"):
            spec_from_dict(raw)

    def test_standardize_requires_ordering_op(self):
        raw = self.base()
        raw["tasks"][0]["standardize"] = True
        with pytest.raises(SchemaError, match="standardize"):
            spec_from_dict(raw)

    def test_sensitive_encoding_values(self):
        raw = self.base()
        raw["sensitive"]["encoding"] = {"M": 0, "F": 2}
        with pytest.raises(SchemaError, match="0 or 1"):
            spec_from_dict(raw)

    def test_unknown_op(self):
        raw = self.base()
        raw["tasks"][0]["op"] = "lt"
        with pytest.raises(SchemaError, match="unknown predicate"):
            spec_from_dict(raw)

    def test_per_column_embedding_dim_rejected(self):
        raw = self.base()
        raw["categorical"] = [{"name": "job", "embedding_dim": 3}]
        with pytest.raises(SchemaError, match="arch.embedding_dim"):
            spec_from_dict(raw)

    @pytest.mark.parametrize("where, key", [
        ("top", "sensitve"), ("dense", "meen"), ("categorical", "vocab_size"),
        ("task", "standardise"), ("sensitive", "colum")])
    def test_unknown_key_refused(self, where, key):
        """A key that names no field is refused by name wherever it
        stands: a misspelt `sensitive` used to load with no sensitive
        column, and a misspelt `standardize` as false."""
        raw = self.base()
        if where == "top":
            raw[key] = raw.pop("sensitive")
        elif where in ("dense", "categorical"):
            raw[where][0] = {"name": raw[where][0], key: 1}
        else:
            target = raw["tasks"][1] if where == "task" else raw[where]
            target[key] = target.get("standardize", True)
        with pytest.raises(SchemaError, match=f"unknown key.*'{key}'"):
            spec_from_dict(raw)

    def test_malformed_dict(self):
        with pytest.raises(SchemaError, match="malformed"):
            spec_from_dict({"dense": ["x"]})
