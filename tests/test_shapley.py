"""Shapley engine tests.

The exact engine is checked against `oracle_shapley`, an independently coded
brute-force enumeration written directly from the subset-sum definition
(itertools over index tuples, per-row python predictions) — deliberately a
different code path from the engine's bitmask/batch implementation.
"""

import math
import re
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import shapr2.shapley
from conftest import stump_cases
from shapr2 import (
    BackgroundSet,
    Dataset,
    SamplingConfig,
    coalition_value,
    exact_shapley,
    linear_shapley,
    sampled_shapley,
)
from shapr2.errors import FeatureCountExceeded, InvalidValue, ShapeError
from shapr2.models import LinearModel, Stump, StumpEnsemble


def oracle_value(predictor, x, subset, bg_rows):
    total = 0.0
    for b in bg_rows:
        z = [x[g] if g in subset else b[g] for g in range(len(x))]
        total += predictor.predict(np.array(z))
    return total / len(bg_rows)


def oracle_shapley(predictor, x, bg_rows):
    n = len(x)
    values = {}
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            values[subset] = oracle_value(predictor, x, set(subset), bg_rows)
    phi = np.zeros(n)
    for f in range(n):
        others = [g for g in range(n) if g != f]
        for r in range(n):
            for subset in combinations(others, r):
                weight = (
                    math.factorial(len(subset))
                    * math.factorial(n - len(subset) - 1)
                    / math.factorial(n)
                )
                with_f = tuple(sorted(subset + (f,)))
                phi[f] += weight * (values[with_f] - values[subset])
    return phi, values[()]


class ProductPredictor:
    """Nonlinear: x1*x2 + 0.5*x3, with an interaction term."""

    feature_count = 3

    def predict(self, row):
        return float(row[0] * row[1] + 0.5 * row[2])

    def predict_batch(self, rows):
        return rows[:, 0] * rows[:, 1] + 0.5 * rows[:, 2]


class CubicPredictor:
    feature_count = 4

    def predict(self, row):
        return float(row[0] ** 3 - 2.0 * row[1] * row[3] + np.sin(row[2]))

    def predict_batch(self, rows):
        return rows[:, 0] ** 3 - 2.0 * rows[:, 1] * rows[:, 3] + np.sin(rows[:, 2])


class LinearPredictor:
    def __init__(self, intercept, beta):
        self.intercept = float(intercept)
        self.beta = np.asarray(beta, dtype=float)
        self.feature_count = self.beta.shape[0]

    def predict(self, row):
        return float(self.intercept + self.beta @ np.asarray(row, dtype=float))

    def predict_batch(self, rows):
        return self.intercept + np.asarray(rows) @ self.beta


class TestCoalitionValue:
    def test_full_coalition_is_exact_prediction(self):
        p = ProductPredictor()
        bg = BackgroundSet(np.arange(9.0).reshape(3, 3))
        x = np.array([1.3, -0.7, 2.2])
        assert coalition_value(p, x, [0, 1, 2], bg) == p.predict(x)

    def test_empty_coalition_single_background_row(self):
        p = ProductPredictor()
        b = np.array([2.0, 3.0, 1.0])
        assert coalition_value(p, [9.9, 9.9, 9.9], [], BackgroundSet(b[None, :])) == p.predict(b)

    def test_linear_partial_coalition(self):
        p = LinearPredictor(0.0, [1.0, 2.0])
        bg = BackgroundSet(np.zeros((1, 2)))
        assert coalition_value(p, [3.0, 4.0], [0], bg) == 3.0

    def test_out_of_range_coalition(self):
        p = LinearPredictor(0.0, [1.0, 2.0])
        with pytest.raises(ShapeError):
            coalition_value(p, [1.0, 2.0], [5], BackgroundSet(np.zeros((1, 2))))

    @pytest.mark.parametrize(
        "coalition, message",
        [([1.7], "1.7"), ([True], "True"), (["2"], "'2'"), ([0, np.True_], repr(np.True_)), ("12", "'1'")],
        ids=["float", "bool", "str", "numpy-bool", "str-of-digits"],
    )
    def test_feature_indices_must_be_integers(self, coalition, message):
        # int(f) read 1.7 and True as feature 1 and '2' as feature 2
        model = LinearModel(0.0, [1.0, 2.0, 3.0])
        with pytest.raises(InvalidValue, match=f"^coalition feature index must be an integer, got {re.escape(message)}$"):
            coalition_value(model, [1.0, 1.0, 1.0], coalition, BackgroundSet(np.zeros((1, 3))))

    @pytest.mark.parametrize("coalition", [5, np.array(2), None], ids=["int", "0-d-array", "none"])
    def test_coalition_must_be_iterable(self, coalition):
        model = LinearModel(0.0, [1.0, 2.0, 3.0])
        with pytest.raises(InvalidValue, match="^coalition must be an iterable of feature indices, got "):
            coalition_value(model, [1.0, 1.0, 1.0], coalition, BackgroundSet(np.zeros((1, 3))))

    def test_numpy_integer_indices_and_repeats(self):
        model, bg = LinearModel(0.0, [1.0, 2.0, 3.0]), BackgroundSet(np.zeros((1, 3)))
        assert coalition_value(model, [1.0, 1.0, 1.0], np.array([2, 0, 2]), bg) == 4.0
        assert coalition_value(model, [1.0, 1.0, 1.0], (np.int8(1), 1), bg) == 2.0

    @pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]])
    def test_instance_must_match_background_width(self, x):
        p = LinearPredictor(0.0, [1.0, 2.0])
        with pytest.raises(ShapeError):
            coalition_value(p, x, [0], BackgroundSet(np.zeros((2, 2))))

    @pytest.mark.parametrize("x, coalition", [([math.nan, 0.0], [0]), ([math.inf, 0.0], [0, 1])],
                             ids=["nan", "inf-full-coalition"])
    def test_instance_must_be_finite(self, x, coalition):
        # a stump sends nan right and inf right, so an unchecked instance yields 1.0
        model = StumpEnsemble(0.0, (Stump(0, 0.5, 0.0, 1.0),), 1.0, 2)
        with pytest.raises(InvalidValue, match="^instance contains non-finite entries$"):
            coalition_value(model, x, coalition, BackgroundSet(np.zeros((1, 2))))

    def test_predictor_width_is_the_engines_rule(self):
        model = LinearModel(0.0, [1.0, 2.0, 3.0])
        with pytest.raises(ShapeError, match="^dataset has 2 features but predictor expects 3$"):
            coalition_value(model, [1.0, 2.0], [0], BackgroundSet(np.zeros((2, 2))))


class TestExactShapley:
    def test_matches_bruteforce_oracle_f3(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 3))
        bg = rng.standard_normal((5, 3))
        p = ProductPredictor()
        result = exact_shapley(p, Dataset(x=x), BackgroundSet(bg))
        for i in range(5):
            phi, phi0 = oracle_shapley(p, x[i], bg)
            assert result.phi[i] == pytest.approx(phi, abs=1e-9)
            assert result.phi0 == pytest.approx(phi0, abs=1e-12)

    def test_matches_bruteforce_oracle_f4(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4))
        bg = rng.standard_normal((6, 4))
        p = CubicPredictor()
        result = exact_shapley(p, Dataset(x=x), BackgroundSet(bg))
        for i in range(3):
            phi, _ = oracle_shapley(p, x[i], bg)
            assert result.phi[i] == pytest.approx(phi, abs=1e-9)

    def test_efficiency(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 4))
        p = CubicPredictor()
        result = exact_shapley(p, Dataset(x=x))
        recon = result.phi0 + result.phi.sum(axis=1)
        expected = p.predict_batch(x)
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.all(np.abs(recon - expected) / scale <= 1e-9)

    def test_dummy_feature_exactly_zero(self):
        class IgnoresLast:
            feature_count = 3

            def predict(self, row):
                return float(row[0] * 2 + row[1] ** 2)

            def predict_batch(self, rows):
                return rows[:, 0] * 2 + rows[:, 1] ** 2

        rng = np.random.default_rng(6)
        x = rng.standard_normal((6, 3))
        result = exact_shapley(IgnoresLast(), Dataset(x=x))
        assert np.all(result.phi[:, 2] == 0.0)

    def test_symmetry(self):
        # interchangeable in the predictor AND identical columns everywhere
        class Symmetric:
            feature_count = 3

            def predict(self, row):
                return float(row[0] * row[1] + row[2])

            def predict_batch(self, rows):
                return rows[:, 0] * rows[:, 1] + rows[:, 2]

        rng = np.random.default_rng(7)
        col = rng.standard_normal(6)
        x = np.column_stack([col, col, rng.standard_normal(6)])
        bcol = rng.standard_normal(4)
        bg = np.column_stack([bcol, bcol, rng.standard_normal(4)])
        result = exact_shapley(Symmetric(), Dataset(x=x), BackgroundSet(bg))
        assert result.phi[:, 0] == pytest.approx(result.phi[:, 1], abs=1e-12)

    def test_linear_singleton_background(self):
        p = LinearPredictor(0.0, [1.0, 2.0])
        result = exact_shapley(
            p, Dataset(x=np.array([[3.0, 4.0]])), BackgroundSet(np.zeros((1, 2)))
        )
        assert np.array_equal(result.phi, np.array([[3.0, 8.0]]))
        assert result.phi0 == 0.0

    def test_feature_cap(self):
        p = LinearPredictor(0.0, np.ones(17))
        with pytest.raises(FeatureCountExceeded, match="cap of 16"):
            exact_shapley(p, Dataset(x=np.zeros((2, 17))))

    def test_background_dimension_mismatch(self):
        p = LinearPredictor(0.0, np.ones(3))
        with pytest.raises(ShapeError):
            exact_shapley(
                p, Dataset(x=np.zeros((2, 3))), BackgroundSet(np.zeros((2, 2)))
            )


class TestLinearShapley:
    def test_zero_coefficients(self):
        ds = Dataset(x=np.arange(6.0).reshape(3, 2))
        result = linear_shapley(np.zeros(2), 1.5, ds)
        assert np.array_equal(result.phi, np.zeros((3, 2)))
        assert result.phi0 == 1.5

    def test_zero_background_means(self):
        ds = Dataset(x=np.array([[1.0, 2.0], [3.0, -1.0]]))
        result = linear_shapley([1.0, 2.0], 0.0, ds, BackgroundSet(np.zeros((1, 2))))
        assert np.array_equal(result.phi, np.array([[1.0, 4.0], [3.0, -2.0]]))

    def test_matches_exact_on_correlated_background(self):
        rng = np.random.default_rng(8)
        mix = rng.standard_normal((5, 5))
        x = rng.standard_normal((10, 5)) @ mix
        bg = rng.standard_normal((7, 5)) @ mix
        beta = rng.standard_normal(5)
        p = LinearPredictor(0.4, beta)
        ds = Dataset(x=x)
        closed = linear_shapley(beta, 0.4, ds, BackgroundSet(bg))
        exact = exact_shapley(p, ds, BackgroundSet(bg))
        assert closed.phi == pytest.approx(exact.phi, abs=1e-10)
        assert closed.phi0 == pytest.approx(exact.phi0, abs=1e-10)


class TestSampledShapley:
    def test_single_permutation_single_feature_equals_exact(self):
        class Cube:
            feature_count = 1

            def predict(self, row):
                return float(row[0] ** 3)

            def predict_batch(self, rows):
                return rows[:, 0] ** 3

        ds = Dataset(x=np.array([[1.5], [-0.5], [2.0]]))
        bg = BackgroundSet(np.array([[0.5], [1.0]]))
        sampled = sampled_shapley(Cube(), ds, bg, SamplingConfig(1, 99))
        exact = exact_shapley(Cube(), ds, bg)
        assert np.array_equal(sampled.phi, exact.phi)
        assert sampled.phi0 == exact.phi0

    def test_additivity_identity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 4))
        p = CubicPredictor()
        ds = Dataset(x=x)
        result = sampled_shapley(p, ds, config=SamplingConfig(7, 1234))
        recon = result.phi0 + result.phi.sum(axis=1)
        expected = p.predict_batch(x)
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.max(np.abs(recon - expected) / scale) <= 1e-12

    def test_additivity_with_background_subsample(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 4))
        p = CubicPredictor()
        ds = Dataset(x=x)
        cfg = SamplingConfig(11, 77, background_subsample=2)
        result = sampled_shapley(p, ds, config=cfg)
        recon = result.phi0 + result.phi.sum(axis=1)
        expected = p.predict_batch(x)
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.max(np.abs(recon - expected) / scale) <= 1e-12

    def test_convergence_band_and_monotone_error(self):
        # exact enumeration is the oracle; the tolerance at each M comes from
        # the exact per-permutation contribution variance (prefix-set
        # distribution), not from the estimate under test
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 4))
        bg = rng.standard_normal((8, 4))
        p = CubicPredictor()
        ds = Dataset(x=x)
        bgs = BackgroundSet(bg)
        exact = exact_shapley(p, ds, bgs)
        variances = permutation_contribution_variance(p, x[0], bg, exact.phi[0])
        errors = []
        for m in (100, 1000, 10000):
            sampled = sampled_shapley(p, ds, bgs, SamplingConfig(m, 31415))
            err = np.abs(sampled.phi[0] - exact.phi[0])
            # 1e-12 floor: features with zero contribution variance (purely
            # additive terms) still accumulate float rounding
            tol = 3.0 * np.sqrt(variances / m) + 1e-12
            assert np.all(err <= tol), (m, err, tol)
            errors.append(err.max())
        assert errors[0] >= errors[1] >= errors[2]

    def test_determinism_across_runs_and_threads(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((9, 4))
        p = CubicPredictor()
        ds = Dataset(x=x)
        cfg = SamplingConfig(25, 2024, background_subsample=3)
        first = sampled_shapley(p, ds, config=cfg)
        second = sampled_shapley(p, ds, config=cfg)
        third = sampled_shapley(p, ds, config=cfg)
        assert np.array_equal(first.phi, second.phi)
        assert np.array_equal(first.phi, third.phi)

    def test_requires_config(self):
        with pytest.raises(InvalidValue):
            sampled_shapley(CubicPredictor(), Dataset(x=np.zeros((2, 4))))

    def test_subsample_larger_than_background(self):
        cfg = SamplingConfig(5, 0, background_subsample=50)
        with pytest.raises(ShapeError):
            sampled_shapley(CubicPredictor(), Dataset(x=np.zeros((2, 4))), config=cfg)


def permutation_contribution_variance(predictor, x, bg_rows, phi_exact):
    """Exact variance of a single-permutation contribution per feature.

    Under uniform random permutations, the prefix preceding feature f is a
    subset S of the other features with probability |S|!(F-1-|S|)!/F!; the
    contribution is v(S+f) - v(S). Computed by direct enumeration.
    """
    n = len(x)
    values = {}
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            values[subset] = oracle_value(predictor, x, set(subset), bg_rows)
    variances = np.zeros(n)
    for f in range(n):
        others = [g for g in range(n) if g != f]
        second_moment = 0.0
        for r in range(n):
            for subset in combinations(others, r):
                prob = (
                    math.factorial(len(subset))
                    * math.factorial(n - len(subset) - 1)
                    / math.factorial(n)
                )
                with_f = tuple(sorted(subset + (f,)))
                delta = values[with_f] - values[subset]
                second_moment += prob * delta * delta
        variances[f] = second_moment - phi_exact[f] ** 2
    return np.maximum(variances, 0.0)


class TestConfigValidation:
    def test_permutations_must_be_positive(self):
        with pytest.raises(InvalidValue):
            SamplingConfig(0, 1)
        with pytest.raises(InvalidValue, match="^permutations must be an integer, got 2.5$"):
            SamplingConfig(2.5, 0)
        with pytest.raises(InvalidValue, match="^background_subsample must be an integer, got 2.5$"):
            SamplingConfig(3, 0, 2.5)
        with pytest.raises(InvalidValue, match="^permutations must be an integer, got True$"):
            SamplingConfig(True, 0)

    def test_seed_range(self):
        with pytest.raises(InvalidValue):
            SamplingConfig(1, -1)
        with pytest.raises(InvalidValue):
            SamplingConfig(1, 2**64)
        with pytest.raises(InvalidValue, match="^seed must be an integer, got 0.5$"):
            SamplingConfig(3, 0.5)
        with pytest.raises(InvalidValue, match="^seed must be an integer, got True$"):
            SamplingConfig(3, True)
        # numpy integers are integers
        SamplingConfig(np.int64(3), np.uint64(2**64 - 1), np.int32(2))

    def test_background_needs_rows(self):
        with pytest.raises(ShapeError):
            BackgroundSet(np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "x, background, message",
        [
            (np.zeros((2, 2)), np.zeros((2, 2)), "dataset has 2 features but predictor expects 3"),
            (np.zeros((2, 3)), np.zeros((2, 2)), "background has 2 columns, dataset has 3"),
        ],
        ids=["dataset-width", "background-width"],
    )
    def test_dimension_messages(self, x, background, message):
        p = LinearPredictor(0.0, np.ones(3))
        with pytest.raises(ShapeError, match=f"^{message}$"):
            exact_shapley(p, Dataset(x=x), BackgroundSet(background))


class RowProductPredictor:
    """:class:`ProductPredictor` without ``predict_batch``: the engines call
    ``predict`` once per row, a C-contiguous one whatever their batch layout."""

    feature_count = 3

    def predict(self, row):
        assert row.flags.c_contiguous
        return ProductPredictor.predict(self, row)


class TestPerRowFallback:
    def test_matches_batched_twin_bit_for_bit(self):
        rng = np.random.default_rng(11)
        ds = Dataset(x=rng.standard_normal((5, 3)))
        bg = BackgroundSet(rng.standard_normal((4, 3)))
        for run in (
            lambda p: exact_shapley(p, ds, bg),
            lambda p: sampled_shapley(p, ds, bg, SamplingConfig(3, 5)),
            lambda p: sampled_shapley(p, ds, bg, SamplingConfig(3, 5, background_subsample=2)),
        ):
            batched, per_row = run(ProductPredictor()), run(RowProductPredictor())
            assert np.array_equal(batched.phi, per_row.phi)
            assert batched.phi0 == per_row.phi0
        for coalition in ([], [0, 2], [0, 1, 2]):
            assert coalition_value(ProductPredictor(), ds.x[0], coalition, bg) == \
                coalition_value(RowProductPredictor(), ds.x[0], coalition, bg)

    def test_non_finite_prediction(self):
        class InfAtOrigin:
            feature_count = 1

            def predict(self, row):
                return math.inf if row[0] == 0.0 else 1.0

        with pytest.raises(InvalidValue, match="^predictor returned a non-finite value$"):
            exact_shapley(InfAtOrigin(), Dataset(x=np.array([[1.0], [0.0]])))


class SquarePredictor:
    feature_count = 1

    def predict(self, row):
        return float(row[0] ** 2 - 0.5 * row[0])

    def predict_batch(self, rows):
        return rows[:, 0] ** 2 - 0.5 * rows[:, 0]


class WavePredictor:
    """Nonlinear in every feature and with an interaction, for any width."""

    def __init__(self, n_features):
        self.feature_count = n_features
        self.weights = np.linspace(0.5, 1.5, n_features)

    def predict(self, row):
        row = np.asarray(row, dtype=float)
        return float(sum(w * math.sin(v) for w, v in zip(self.weights, row)) + row[0] * row[-1])

    def predict_batch(self, rows):
        return (np.sin(rows) * self.weights).sum(axis=1) + rows[:, 0] * rows[:, -1]


class CountingPredictor:
    """Counts the rows asked of a predictor, and the size of each batch."""

    def __init__(self, inner):
        self.inner = inner
        self.feature_count = inner.feature_count
        self.rows = 0
        self.batches = []

    def predict(self, row):
        self.rows += 1
        return self.inner.predict(row)

    def predict_batch(self, rows):
        self.rows += len(rows)
        self.batches.append(len(rows))
        return self.inner.predict_batch(rows)


def distinct_prefixes(n_features, n_perms, seed, instance):
    """Distinct proper non-empty permutation prefixes of one instance,
    replayed from its documented stream (no subsample: one permutation draw
    per permutation)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ instance)))
    seen = set()
    for _ in range(n_perms):
        perm = rng.permutation(n_features)
        seen.update(frozenset(perm[: p + 1].tolist()) for p in range(n_features - 1))
    return len(seen)


_PIN_RNG = np.random.default_rng(2024)
_PIN_X1, _PIN_BG1 = _PIN_RNG.standard_normal((3, 1)), _PIN_RNG.standard_normal((5, 1))
_PIN_X4, _PIN_BG4 = _PIN_RNG.standard_normal((3, 4)), _PIN_RNG.standard_normal((6, 4))
_PIN_F1_PHI = [[-0.32724300947671436], [1.0035803600431348], [-0.12975512481886986]]
# F = 6, K = 8 of a 40-row background, M = 20: pinned from the engine that
# drew with Generator.choice and Generator.shuffle instance by instance
_PIN_WIDE_RNG = np.random.default_rng(2025)
_PIN_X6, _PIN_BG6 = _PIN_WIDE_RNG.standard_normal((3, 6)), _PIN_WIDE_RNG.standard_normal((40, 6))


class LayoutRecorder:
    """Keeps every batch asked of a predictor, to check its memory layout."""

    def __init__(self, inner):
        self.inner = inner
        self.feature_count = inner.feature_count
        self.batches = []

    def predict(self, row):
        return self.inner.predict(row)

    def predict_batch(self, rows):
        self.batches.append(rows)
        return self.inner.predict_batch(rows)


class TestBatchLayout:
    """Coalition batches reach the predictor column-major, as views of the
    engines' scratch: each feature column is contiguous and nothing is copied."""

    @pytest.mark.parametrize("limit", [8192, 7, 13])
    def test_coalition_batches_are_column_major_views(self, monkeypatch, limit):
        monkeypatch.setattr(shapr2.shapley, "_BATCH_ROW_LIMIT", limit)
        rng = np.random.default_rng(13)
        ds, bg = Dataset(x=rng.standard_normal((2, 3))), BackgroundSet(rng.standard_normal((3, 3)))
        runs = [
            lambda p: exact_shapley(p, ds, bg),
            lambda p: sampled_shapley(p, ds, bg, SamplingConfig(4, 7)),
            lambda p: sampled_shapley(p, ds, bg, SamplingConfig(4, 7, 2)),
            lambda p: coalition_value(p, ds.x[0], [1], bg),
        ]
        tails = []
        for run in runs:
            recorder = LayoutRecorder(ProductPredictor())
            run(recorder)
            # the base value and the instances' own predictions are the inputs themselves
            coalition = [rows for rows in recorder.batches
                         if not (np.shares_memory(rows, ds.x) or np.shares_memory(rows, bg.rows))]
            assert coalition
            for rows in coalition:
                assert rows.shape[1] == 3 and rows.flags.f_contiguous and not rows.flags.owndata
            tails.append(min(map(len, coalition)) < max(map(len, coalition)))
        # the small limits end the exact and the subsampled runs' masks in a shorter chunk
        assert tails[0] == tails[2] == (limit < 8192)


class TestEngineRegression:
    """Outputs and predictor row counts of the engines, pinned."""

    @pytest.mark.parametrize(
        "case, subsample, phi0, phi",
        [
            ("f1", None, 0.87136103957884214, _PIN_F1_PHI),
            ("f1", 3, 0.87136103957884214, _PIN_F1_PHI),
            ("f4", None, -0.59371224724177407, [
                [5.8916432971545998, -0.16891342375533469, 0.79973852650971045, 1.6990120470338148],
                [-1.4001146763106056, -2.0967804246552162, 0.25162886538821805, 0.11941157517856933],
                [-2.6485927548608963, 0.78104734411968735, -0.758401042858455, -1.0261331609511077],
            ]),
            ("f4", 3, -0.59371224724177407, [
                [5.912937500189309, 0.19584982100993037, 0.74187607844982151, 1.3708170472937298],
                [-1.2755687679757248, -2.0086210284084651, -0.11666724814032428, 0.27500238412547906],
                [-2.8262748758939895, 0.10100175853761835, -0.69946756775070851, -0.22733892944369152],
            ]),
        ],
    )
    def test_pinned_values(self, case, subsample, phi0, phi):
        predictor, x, bg = (
            (SquarePredictor(), _PIN_X1, _PIN_BG1) if case == "f1"
            else (CubicPredictor(), _PIN_X4, _PIN_BG4)
        )
        result = sampled_shapley(
            predictor, Dataset(x=x), BackgroundSet(bg), SamplingConfig(5, 123, subsample)
        )
        assert result.phi0 == phi0
        assert np.array_equal(result.phi, np.array(phi))

    @pytest.mark.parametrize(
        "subsample, phi",
        [
            (None, [
                [-1.2587790819865512, 0.06184268776445495, -0.7223387929327056,
                 -0.8077179301767698, -0.7964663188411338, 0.20841027377342175],
                [-0.5540852808517537, 0.22832966174988992, 0.3206083636636977,
                 0.5035390526591286, -0.21509587143726114, 0.635908045199216],
                [0.826293595124701, 0.43832338159840223, -1.1574773250468258,
                 -0.23393287318006353, -0.7739716404838578, 1.2633681349842563],
            ]),
            (8, [
                [-1.7321621089378367, 0.07387315030753923, -0.7540765553757464,
                 -0.7658042792592802, -0.7450526659729111, 0.6081732968389505],
                [-0.5098276090891359, 0.15422372823110303, 0.2612068202537865,
                 0.45675733156684173, -0.1652794623382821, 0.7221231623586041],
                [1.1152077520249344, 0.402410484181072, -1.232685462661317,
                 -0.2274336776134481, -0.7125043535091633, 1.0176085305745348],
            ]),
        ],
    )
    def test_pinned_wide_values(self, subsample, phi):
        result = sampled_shapley(
            WavePredictor(6), Dataset(x=_PIN_X6), BackgroundSet(_PIN_BG6), SamplingConfig(20, 123, subsample)
        )
        assert result.phi0 == -0.019167273590369804
        assert np.array_equal(result.phi, np.array(phi))

    def test_exact_row_count(self):
        n, f, b = 3, 4, 6
        counter = CountingPredictor(CubicPredictor())
        exact_shapley(counter, Dataset(x=_PIN_X4), BackgroundSet(_PIN_BG4))
        assert counter.rows == n * (2**f - 1) * b + b

    def test_subsampled_row_count(self):
        n, f, b, m, k = 3, 4, 6, 7, 4
        counter = CountingPredictor(CubicPredictor())
        sampled_shapley(counter, Dataset(x=_PIN_X4), BackgroundSet(_PIN_BG4), SamplingConfig(m, 9, k))
        assert counter.rows == n * m * (f - 1) * k + b + n

    def test_unsubsampled_row_count(self):
        n, f, b, m, seed = 3, 4, 6, 7, 9
        counter = CountingPredictor(CubicPredictor())
        sampled_shapley(counter, Dataset(x=_PIN_X4), BackgroundSet(_PIN_BG4), SamplingConfig(m, seed))
        unique = [distinct_prefixes(f, m, seed, i) for i in range(n)]
        assert sum(unique) < n * m * (f - 1)  # prefixes repeat, and are evaluated once
        assert counter.rows == b + n + b * sum(unique)

    @pytest.mark.parametrize("subsample", [None, 4])
    def test_row_limit_bounds_batches_not_results(self, monkeypatch, subsample):
        ds, bg = Dataset(x=_PIN_X4), BackgroundSet(_PIN_BG4)
        config = SamplingConfig(7, 9, subsample)
        wide = [exact_shapley(CubicPredictor(), ds, bg), sampled_shapley(CubicPredictor(), ds, bg, config)]
        # 13 splits an instance's masks into calls; 200 puts the masks of
        # several instances in one call
        for limit in (13, 200):
            monkeypatch.setattr(shapr2.shapley, "_BATCH_ROW_LIMIT", limit)
            counter = CountingPredictor(CubicPredictor())
            narrow = [exact_shapley(counter, ds, bg), sampled_shapley(counter, ds, bg, config)]
            for a, b in zip(wide, narrow):
                assert np.array_equal(a.phi, b.phi) and a.phi0 == b.phi0
            assert max(counter.batches) <= limit

    @pytest.mark.parametrize("subsample", [None, 4])
    def test_draw_limit_bounds_blocks_not_results(self, monkeypatch, subsample):
        ds, bg = Dataset(x=np.random.default_rng(5).standard_normal((40, 4))), BackgroundSet(_PIN_BG4)
        config = SamplingConfig(7, 9, subsample)
        monkeypatch.setattr(shapr2.shapley, "_BATCH_ROW_LIMIT", 80)
        runs = []
        # one instance a block, too few to replay; a few blocks; every instance in one block
        for limit in (1, 3000, 2**30):
            monkeypatch.setattr(shapr2.shapley, "_DRAW_WORD_LIMIT", limit)
            counter = CountingPredictor(CubicPredictor())
            with mock.patch.object(shapr2.shapley, "_draws", wraps=shapr2.shapley._draws) as draws, \
                    mock.patch.object(shapr2.shapley, "_generator_draws", wraps=shapr2.shapley._generator_draws) as loop:
                result = sampled_shapley(counter, ds, bg, config)
            runs.append((result, counter, draws.call_count, loop.call_count))
        (first, first_counter, *_), *rest = runs
        for result, counter, *_ in rest:
            assert np.array_equal(result.phi, first.phi) and result.phi0 == first.phi0
            assert counter.rows == first_counter.rows
        # a call holds at least one mask; the base value is one call on the background
        assert all(max(counter.batches) <= max(80, bg.size) for _, counter, *_ in runs)
        replays, loops = [n for *_, n, _ in runs], [n for *_, n in runs]
        if subsample is None:
            # only a subsample is replayed; each block is one Generator call
            assert replays == [0, 0, 0] and loops[::2] == [40, 1] and 1 < loops[1] < 40
        else:
            assert replays[::2] == [0, 1] and 1 < replays[1] < 40

    @pytest.mark.parametrize("n_features, n_perms", [(6, 200), (16, 20)], ids=["explain-sampled-defaults", "wide"])
    def test_no_subsample_is_never_replayed(self, n_features, n_perms):
        # at both shapes the replay rule once picked the replay
        ds = Dataset(x=np.random.default_rng(0).standard_normal((40, n_features)))
        model = LinearModel(0.5, np.linspace(-1.0, 1.0, n_features))
        with mock.patch.object(shapr2.shapley, "_draws", wraps=shapr2.shapley._draws) as draws:
            sampled_shapley(model, ds, None, SamplingConfig(n_perms, 3))
        assert not draws.called

    def test_subsample_is_not_copied_per_mask(self, monkeypatch):
        # masks read their permutation's subset through their owner, so the
        # peak grows with K by about the draws, far less than a per-mask copy
        # of the subsets (N M (F - 1) K 32-bit entries) would add
        n, f, m, b = 38, 11, 10, 300
        rng = np.random.default_rng(0)
        ds, bg = Dataset(x=rng.standard_normal((n, f))), BackgroundSet(rng.standard_normal((b, f)))
        model = LinearModel(0.5, np.linspace(-1.0, 1.0, f))
        monkeypatch.setattr(shapr2.shapley, "_DRAW_WORD_LIMIT", 2**30)  # one block
        peaks = []
        for k in (100, 200):
            tracemalloc.start()
            try:
                sampled_shapley(model, ds, bg, SamplingConfig(m, 3, k))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < n * m * (f - 1) * 100 * 4 / 2

    @pytest.mark.parametrize(
        "n, f, m, k, bound",
        # the peaks measured with 192 KiB draw blocks (0.73 and 1.15 MB) plus 0.8 MB:
        # room for the 1 MiB blocks' 0.65 MB, so a block that grows memory further fails.
        # Without a subsample the peak was 5.83 MB while blocks counted their draws alone;
        # a block that counts what it holds needs its 1 MiB and the 0.39 MB chunk scratch
        [(200, 3, 20, 16, 1.53e6), (300, 6, 10, 32, 1.95e6), (300, 6, 200, None, 2.0e6)],
        ids=["grid-cell", "explain-stumps-sampled", "explain-sampled-defaults"],
    )
    def test_peak_memory_of_one_call(self, n, f, m, k, bound):
        ds = Dataset(x=np.random.default_rng(0).standard_normal((n, f)))
        model = LinearModel(0.5, np.linspace(-1.0, 1.0, f))
        tracemalloc.start()
        try:
            sampled_shapley(model, ds, None, SamplingConfig(m, 3, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_linear_model_ignores_row_limit(self, monkeypatch):
        # through a BLAS product these phi were up to 4.4e-16 apart
        model, ds, bg = LinearModel(0.25, np.linspace(-1.0, 2.0, 9)), Dataset(x=_WIDE_X), BackgroundSet(_WIDE_BG)
        runs = []
        for limit in (8192, 35):
            monkeypatch.setattr(shapr2.shapley, "_BATCH_ROW_LIMIT", limit)
            runs.append(exact_shapley(model, ds, bg))
        assert runs[0].phi.tobytes() == runs[1].phi.tobytes() and runs[0].phi0 == runs[1].phi0


_PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
_VALUES = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def instances_and_background(draw, max_rows=4):
    n_features = draw(st.integers(1, 5))
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, max_rows)), n_features), elements=_VALUES))
    bg = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), n_features), elements=_VALUES))
    return x, bg


class TestProperties:
    @_PROPERTY_SETTINGS
    @given(data=instances_and_background(max_rows=1), choice=st.data())
    def test_coalition_value_matches_oracle(self, data, choice):
        x, bg = data
        n_features = x.shape[1]
        subset = choice.draw(st.sets(st.integers(0, n_features - 1)))
        predictor = WavePredictor(n_features)
        value = coalition_value(predictor, x[0], sorted(subset), BackgroundSet(bg))
        expected = oracle_value(predictor, x[0], subset, bg)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @_PROPERTY_SETTINGS
    @given(
        data=instances_and_background(),
        n_perms=st.integers(1, 20),
        seed=st.integers(0, 2**64 - 1),
        choice=st.data(),
    )
    def test_sampled_additivity(self, data, n_perms, seed, choice):
        x, bg = data
        subsample = choice.draw(st.one_of(st.none(), st.integers(1, bg.shape[0])))
        predictor = WavePredictor(x.shape[1])
        result = sampled_shapley(
            predictor, Dataset(x=x), BackgroundSet(bg), SamplingConfig(n_perms, seed, subsample)
        )
        expected = predictor.predict_batch(x)
        recon = result.phi0 + result.phi.sum(axis=1)
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.max(np.abs(recon - expected) / scale) <= 1e-12

    @_PROPERTY_SETTINGS
    @given(case=stump_cases(n_inputs=2))
    @example(
        case=(
            # feature 0 repeats a threshold, feature 1 has no stump
            StumpEnsemble(
                0.5,
                (Stump(0, 0.0, 1.0, -1.0), Stump(2, 1.0, -3.0, 3.0), Stump(0, 0.0, 2.0, 0.5)),
                0.2,
                3,
            ),
            np.array([[0.0, 1.0, 1.0], [-1.0, 2.0, 2.0]]),
            np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 1.5], [2.0, 3.0, -2.0]]),
        )
    )
    def test_exact_matches_additive_closed_form_on_stumps(self, case):
        # a stump ensemble is additive, f(x) = init + sum_j g_j(x_j), so its
        # interventional Shapley values have the closed form
        # phi_ij = g_j(x_ij) - mean_b g_j(bg_bj), phi0 = init + sum_j mean_b g_j(bg_bj)
        model, x, bg = case

        def g(j, values):
            out = np.zeros(len(values))
            for s in model.stumps:
                if s.feature_index == j:
                    out += model.learning_rate * np.where(
                        values <= s.threshold, s.left_value, s.right_value
                    )
            return out

        centres = np.array([g(j, bg[:, j]).mean() for j in range(x.shape[1])])
        expected = np.column_stack([g(j, x[:, j]) for j in range(x.shape[1])]) - centres
        result = exact_shapley(model, Dataset(x=x), BackgroundSet(bg))
        assert np.max(np.abs(result.phi - expected)) <= 1e-9
        assert abs(result.phi0 - (model.init_value + centres.sum())) <= 1e-9
        used = {s.feature_index for s in model.stumps}
        for j in set(range(x.shape[1])) - used:
            assert np.all(result.phi[:, j] == 0.0)


def reference_sampled_shapley(predictor, x, background, config):
    """The sampled engine as one loop per instance: the reference that the
    batched engine must match bit for bit (phi, phi0 and predictor rows)."""
    sub = background.subsample_size(config.background_subsample)
    base_value = float(shapr2.shapley._predict_batch(predictor, background.rows).mean())
    n_features, n_perms, n_prefix = x.shape[1], config.permutations_per_instance, x.shape[1] - 1
    phi = np.empty(x.shape)
    for i, row in enumerate(x):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(config.seed ^ i)))
        subsets = []
        perms = np.empty((n_perms, n_features), dtype=np.intp)
        for m in range(n_perms):
            if sub is not None:
                subsets.append(rng.choice(background.size, size=sub, replace=False))
            perms[m] = rng.permutation(n_features)
        position = np.argsort(perms, axis=1)
        bits = (position[:, None, :] <= np.arange(n_prefix)[:, None]).reshape(-1, n_features)
        # the instance alone: row[None], every mask on row 0, a block for all of its masks;
        # with a subsample, mask k on row k // (F - 1) of the row repeated per permutation
        if sub is None:
            unique, inverse = np.unique(bits, axis=0, return_inverse=True)
            block = shapr2.shapley._block(unique.shape[0], background.size, n_features)
            chain = shapr2.shapley._coalition_values(
                predictor, row[None], np.zeros(unique.shape[0], np.intp), unique, background.rows, block
            )[inverse.reshape(-1)]
        else:
            owner = np.repeat(np.arange(n_perms), n_prefix)
            block = shapr2.shapley._block(bits.shape[0], sub, n_features)
            chain = shapr2.shapley._coalition_values(
                predictor, np.repeat(row[None], n_perms, axis=0), owner, bits, background.rows, block,
                np.array(subsets),
            )
        path = np.empty((n_perms, n_features + 1))
        path[:, 0] = base_value
        path[:, 1:-1] = chain.reshape(n_perms, n_prefix)
        path[:, -1] = shapr2.shapley._predict_batch(predictor, row[None])[0]
        contrib = np.zeros(n_features)
        np.add.at(contrib, perms, np.diff(path, axis=1))
        phi[i] = contrib / n_perms
    return phi, base_value


_WIDE_RNG = np.random.default_rng(99)
# LinearModel keeps a row's value whatever else is in its call: with F = 9 a
# BLAS product rounds the rows in the remainder of a call apart from the rest
_WIDE_X, _WIDE_BG = _WIDE_RNG.standard_normal((4, 9)), _WIDE_RNG.standard_normal((6, 9))
# and with F = 2 and one background row, where each instance's one prefix is a
# one-row call, which a BLAS product computes on a path of its own
_NARROW_X, _NARROW_BG = _WIDE_RNG.standard_normal((5, 2)), _WIDE_RNG.standard_normal((1, 2))


class TestBatchedMatchesReference:
    """The block-batched engine against :func:`reference_sampled_shapley`:
    the same phi and phi0 bit for bit, from the same predictor rows."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=instances_and_background(max_rows=7),
        n_perms=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        k=st.one_of(st.none(), st.integers(1, 6)),
        linear=st.booleans(),
        limit=st.sampled_from([8192, 40, 7, 1]),
    )
    # the pinned F = 1 cases, with and without a subsample
    @example(data=(_PIN_X1, _PIN_BG1), n_perms=5, seed=123, k=None, linear=False, limit=8192)
    @example(data=(_PIN_X1, _PIN_BG1), n_perms=5, seed=123, k=3, linear=False, limit=8192)
    # LinearModel on widths where a BLAS product would round by call size
    @example(data=(_WIDE_X, _WIDE_BG), n_perms=3, seed=5, k=None, linear=True, limit=8192)
    @example(data=(_WIDE_X, _WIDE_BG), n_perms=3, seed=5, k=5, linear=True, limit=8192)
    @example(data=(_NARROW_X, _NARROW_BG), n_perms=1, seed=8, k=None, linear=True, limit=8192)
    # F = 1, M = 1, B = 1: the draw limit would put both instances in a block,
    # whose x call the row limit of 1 caps at one row
    @example(data=(_PIN_X1[:2], _PIN_BG1[:1]), n_perms=1, seed=123, k=None, linear=False, limit=1)
    def test_bit_for_bit(self, data, n_perms, seed, k, linear, limit):
        x, bg = data
        # K = None, 1 <= K < B, or K = B (the whole background)
        subsample = None if k is None else min(k, bg.shape[0])
        if linear:
            inner = LinearModel(0.25, np.linspace(-1.0, 2.0, x.shape[1]))
        else:
            inner = WavePredictor(x.shape[1])
        config, ds, background = SamplingConfig(n_perms, seed, subsample), Dataset(x=x), BackgroundSet(bg)
        expected, recorded = CountingPredictor(inner), CountingPredictor(inner)
        # a small limit splits the instances into blocks and a block's masks into calls
        with mock.patch.object(shapr2.shapley, "_BATCH_ROW_LIMIT", limit):
            phi, phi0 = reference_sampled_shapley(expected, x, background, config)
            result = sampled_shapley(recorded, ds, background, config)
        assert np.array_equal(result.phi, phi) and result.phi0 == phi0
        assert recorded.rows == expected.rows
        # a call holds at least one mask; the base value is one call on the background
        assert max(recorded.batches) <= max(limit, bg.shape[0])


@st.composite
def coalition_batches(draw):
    """``(x, rows, owner, bits, index)`` for :func:`shapr2.shapley._coalition_values`:
    K masks (an empty and a full one among them when K > 1) on random owners
    of an N x F ``x``, over B background rows or B' of them per owner."""
    n, n_features, n_bg = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    x = draw(hnp.arrays(np.float64, (n, n_features), elements=_VALUES))
    rows = draw(hnp.arrays(np.float64, (n_bg, n_features), elements=_VALUES))
    n_masks = draw(st.integers(0, 12))
    owner = draw(hnp.arrays(np.intp, n_masks, elements=st.integers(0, n - 1)))
    bits = draw(hnp.arrays(np.bool_, (n_masks, n_features)))
    if n_masks > 1:
        bits[0], bits[-1] = False, True
    index = None
    if draw(st.booleans()):
        index = draw(hnp.arrays(np.intp, (n, draw(st.integers(1, n_bg))), elements=st.integers(0, n_bg - 1)))
    return x, rows, owner, bits, index


class TestCoalitionValuesMatchOracle:
    """One chunk fill (a gather of the rows, then a scatter to the set bits)
    against the mask applied by ``np.where`` to every row, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(batch=coalition_batches(), linear=st.booleans(), limit=st.sampled_from([8192, 7, 1]))
    def test_bit_for_bit(self, batch, linear, limit):
        x, rows, owner, bits, index = batch
        n_features = x.shape[1]
        if linear:
            predictor = LinearModel(0.25, np.linspace(-1.0, 2.0, n_features))
        else:
            predictor = WavePredictor(n_features)
        background = rows[None] if index is None else rows[index[owner]]
        masked = np.where(bits[:, None, :], x[owner][:, None, :], background)
        expected = predictor.predict_batch(masked.reshape(-1, n_features)).reshape(-1, masked.shape[1]).mean(axis=1)
        with mock.patch.object(shapr2.shapley, "_BATCH_ROW_LIMIT", limit):
            block = shapr2.shapley._block(bits.shape[0], masked.shape[1], n_features)
            values = shapr2.shapley._coalition_values(predictor, x, owner, bits, rows, block, index)
        assert values.tobytes() == expected.tobytes()


@st.composite
def draw_shapes(draw):
    """``(n_rows, sub)``: a background size and a subsample below it."""
    n_rows = draw(st.integers(2, 300))
    return n_rows, draw(st.integers(1, n_rows - 1))


def generator_draws(seed, first, n, n_perms, n_features, n_rows, sub):
    """The draws of instances first..first+n-1, made by numpy's Generator."""
    perms = np.empty((n, n_perms, n_features), dtype=np.intp)
    subsets = np.empty((n, n_perms, sub or 0), dtype=np.intp)
    for j in range(n):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ (first + j))))
        for m in range(n_perms):
            if sub is not None:
                subsets[j, m] = rng.choice(n_rows, size=sub, replace=False)
            perms[j, m] = np.arange(n_features)
            rng.shuffle(perms[j, m])
    return perms, subsets


class TestPermutedDraws:
    """Without a subsample, ``shapley._generator_draws`` draws an instance's
    permutations with one ``Generator.permuted`` call: the same permutations
    as M ``shuffle`` calls, or a numpy that changes them fails here."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        first=st.integers(0, 2**20),
        n=st.integers(1, 5),
        n_perms=st.integers(1, 30),
        n_features=st.integers(1, 40),
        as_array=st.booleans(),
    )
    @example(seed=3, first=0, n=3, n_perms=4, n_features=1, as_array=False)  # no draws at all
    @example(seed=3, first=0, n=3, n_perms=4, n_features=5, as_array=False)
    @example(seed=3, first=0, n=3, n_perms=1, n_features=5, as_array=True)  # M = 1
    def test_matches_shuffles(self, seed, first, n, n_perms, n_features, as_array):
        instances = np.arange(first, first + n) if as_array else range(first, first + n)
        perms, subsets = shapr2.shapley._generator_draws(seed, instances, n_perms, n_features, 40, None)
        expected_perms, _ = generator_draws(seed, first, n, n_perms, n_features, 40, None)
        assert perms.dtype == subsets.dtype == np.uint32
        assert np.array_equal(perms, expected_perms) and subsets.shape == (n, n_perms, 0)


class TestDrawReplay:
    """``shapley._draws`` replays numpy's ``choice`` and ``shuffle`` from raw
    Philox words: the same draws as ``Generator``, or a numpy that changes
    them fails here."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        first=st.integers(0, 2**20),
        n=st.integers(1, 5),
        n_perms=st.integers(1, 6),
        n_features=st.integers(1, 9),
        shape=draw_shapes(),
    )
    @example(seed=3, first=0, n=3, n_perms=4, n_features=5, shape=(40, 39))  # K = n - 1
    @example(seed=3, first=0, n=3, n_perms=4, n_features=5, shape=(40, 1))  # K = 1
    @example(seed=3, first=0, n=3, n_perms=4, n_features=1, shape=(40, 8))  # F = 1
    @example(seed=3, first=0, n=3, n_perms=1, n_features=5, shape=(40, 8))  # M = 1
    @example(seed=3, first=0, n=2, n_perms=2, n_features=3, shape=(20000, 401))  # numpy shuffles a tail
    def test_matches_generator(self, seed, first, n, n_perms, n_features, shape):
        n_rows, sub = shape
        perms, subsets = shapr2.shapley._draws(seed, first, n, n_perms, n_features, n_rows, sub)
        expected_perms, expected_subsets = generator_draws(seed, first, n, n_perms, n_features, n_rows, sub)
        assert np.array_equal(perms, expected_perms)
        assert np.array_equal(subsets, expected_subsets)

    @pytest.mark.parametrize(
        "seed, n_perms, n_rows, subsample, reason",
        [
            # the 7th word of instance 0's first choice is a Lemire rejection:
            # its low half, 41, is below 2^32 mod 191 = 147
            (1707, 20, 200, 16, "rejection"),
            # instance 0's one shuffle reads more words than its budget
            (20027, 1, 6, 3, "budget"),
        ],
    )
    def test_falls_back_to_generator(self, seed, n_perms, n_rows, subsample, reason):
        n_features = 3 if reason == "rejection" else 4
        rng = np.random.default_rng(17)
        x, bg = rng.standard_normal((3, n_features)), rng.standard_normal((n_rows, n_features))
        config, background = SamplingConfig(n_perms, seed, subsample), BackgroundSet(bg)
        fallback = shapr2.shapley._generator_draws
        with mock.patch.object(shapr2.shapley, "_generator_draws", wraps=fallback) as redraw:
            perms, subsets = shapr2.shapley._draws(seed, 0, 3, n_perms, n_features, n_rows, subsample)
            result = sampled_shapley(WavePredictor(n_features), Dataset(x=x), background, config)
        assert 0 in redraw.call_args.args[1]
        # with a budget of 1000 words, only the rejection still needs the generator
        with mock.patch.object(shapr2.shapley, "_n_words", return_value=1000), \
                mock.patch.object(shapr2.shapley, "_generator_draws", wraps=fallback) as redraw:
            shapr2.shapley._draws(seed, 0, 1, n_perms, n_features, n_rows, subsample)
        assert redraw.called == (reason == "rejection")
        expected_perms, expected_subsets = generator_draws(seed, 0, 3, n_perms, n_features, n_rows, subsample)
        assert np.array_equal(perms, expected_perms) and np.array_equal(subsets, expected_subsets)
        phi, phi0 = reference_sampled_shapley(WavePredictor(n_features), x, background, config)
        assert np.array_equal(result.phi, phi) and result.phi0 == phi0

    def test_rejection_run_past_lookahead_falls_back_to_generator(self, monkeypatch):
        # with a lookahead of one word, every rejected shuffle draw is such a run
        monkeypatch.setattr(shapr2.shapley, "_LOOKAHEAD", 1)
        fallback = shapr2.shapley._generator_draws
        with mock.patch.object(shapr2.shapley, "_generator_draws", wraps=fallback) as redraw:
            perms, subsets = shapr2.shapley._draws(5, 0, 20, 1, 3, 40, 8)
        assert 0 < len(redraw.call_args.args[1]) < 20
        expected_perms, expected_subsets = generator_draws(5, 0, 20, 1, 3, 40, 8)
        assert np.array_equal(perms, expected_perms) and np.array_equal(subsets, expected_subsets)
