"""Shapley engine tests.

The exact engine is checked against `oracle_shapley`, an independently coded
brute-force enumeration written directly from the subset-sum definition
(itertools over index tuples, per-row python predictions) — deliberately a
different code path from the engine's bitmask/batch implementation.
"""

import math
from itertools import combinations

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
from shapr2.models import Stump, StumpEnsemble


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

    @pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]])
    def test_instance_must_match_background_width(self, x):
        p = LinearPredictor(0.0, [1.0, 2.0])
        with pytest.raises(ShapeError):
            coalition_value(p, x, [0], BackgroundSet(np.zeros((2, 2))))


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

    def test_seed_range(self):
        with pytest.raises(InvalidValue):
            SamplingConfig(1, -1)
        with pytest.raises(InvalidValue):
            SamplingConfig(1, 2**64)

    def test_background_needs_rows(self):
        with pytest.raises(ShapeError):
            BackgroundSet(np.zeros((0, 3)))


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
        return np.sin(rows) @ self.weights + rows[:, 0] * rows[:, -1]


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
        monkeypatch.setattr(shapr2.shapley, "_BATCH_ROW_LIMIT", 13)
        counter = CountingPredictor(CubicPredictor())
        narrow = [exact_shapley(counter, ds, bg), sampled_shapley(counter, ds, bg, config)]
        for a, b in zip(wide, narrow):
            assert np.array_equal(a.phi, b.phi) and a.phi0 == b.phi0
        assert max(counter.batches) <= 13


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
