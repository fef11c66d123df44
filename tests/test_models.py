"""Model zoo tests: OLS against a normal-equations oracle, boosted stumps
against an independently coded reference loop, and the compiled stump
predictor against a per-stump sum."""

import math

import numpy as np
import pytest
from conftest import stump_cases
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapr2 import (
    Dataset,
    StumpEnsemble,
    baseline_r2,
    classical_r2,
    fit_ols,
    fit_stump_ensemble,
    tune_iterations,
)
from shapr2.errors import (
    InvalidValue,
    NoValidSplit,
    ShapeError,
    SingularDesign,
    TargetUnreachable,
)
from shapr2 import models
from shapr2.models import Stump


def make_regression(seed=0, n=40, f=4, noise=0.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, f))
    beta = rng.standard_normal(f)
    y = 1.2 + x @ beta + noise * rng.standard_normal(n)
    return Dataset(x=x, y=y), beta


class TestFitOls:
    def test_recovers_exact_linear_relation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 3))
        beta = np.array([2.0, -1.0, 0.5])
        y = 0.7 + x @ beta
        model = fit_ols(Dataset(x=x, y=y))
        assert model.intercept == pytest.approx(0.7, abs=1e-8)
        assert model.coefficients == pytest.approx(beta, abs=1e-8)

    def test_constant_outcome(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 2))
        y = np.full(20, 3.25)
        model = fit_ols(Dataset(x=x, y=y))
        assert model.intercept == pytest.approx(3.25, abs=1e-10)
        assert model.coefficients == pytest.approx(np.zeros(2), abs=1e-10)

    def test_matches_normal_equations_oracle(self):
        # independent oracle: solve (A^T A) beta = A^T y directly
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        design = np.column_stack([np.ones(10), x])
        oracle = np.linalg.solve(design.T @ design, design.T @ y)
        model = fit_ols(Dataset(x=x, y=y))
        assert model.intercept == pytest.approx(oracle[0], abs=1e-8)
        assert model.coefficients == pytest.approx(oracle[1:], abs=1e-8)

    def test_duplicate_column_is_singular(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal(12)
        x = np.column_stack([col, col])
        with pytest.raises(SingularDesign):
            fit_ols(Dataset(x=x, y=rng.standard_normal(12)))

    def test_too_few_rows(self):
        with pytest.raises(SingularDesign):
            fit_ols(Dataset(x=np.eye(3), y=np.ones(3)))

    def test_residual_orthogonality(self):
        ds, _ = make_regression(seed=5)
        model = fit_ols(ds)
        residual = ds.y - model.predict_batch(ds.x)
        centered = residual - residual.mean()
        for f in range(ds.n_features):
            cov = float(centered @ (ds.x[:, f] - ds.x[:, f].mean())) / (ds.n_rows - 1)
            assert abs(cov) <= 1e-9

    def test_variance_split_makes_r2s_agree(self):
        ds, _ = make_regression(seed=6, n=80)
        model = fit_ols(ds)
        yhat = model.predict_batch(ds.x)
        var_y = np.var(ds.y, ddof=1)
        var_hat = np.var(yhat, ddof=1)
        var_res = np.var(ds.y - yhat, ddof=1)
        assert var_y == pytest.approx(var_hat + var_res, abs=1e-9)
        assert classical_r2(ds.y, yhat) == pytest.approx(
            baseline_r2(ds.y, yhat), abs=1e-9
        )

    def test_prediction_interfaces(self):
        ds, _ = make_regression(seed=7)
        model = fit_ols(ds)
        assert model.predict_batch(ds.x)[0] == pytest.approx(
            model.predict(ds.x[0]), abs=1e-12
        )

    def test_linear_example(self):
        from shapr2 import LinearModel

        model = LinearModel(intercept=1.0, coefficients=np.array([2.0]))
        assert model.predict([3.0]) == 7.0


def reference_boost(x, y, iterations, learning_rate):
    """Independent reference boosting loop: per-threshold O(N) scan, no prefix
    sums, same split conventions (midpoints, lower feature/threshold ties)."""
    n, n_features = x.shape
    pred = np.full(n, y.mean())
    preds_path = []
    for _ in range(iterations):
        residual = y - pred
        best = None
        for f in range(n_features):
            values = np.unique(x[:, f])
            for t in (values[:-1] + values[1:]) / 2.0:
                left = x[:, f] <= t
                right = ~left
                lv = residual[left].mean()
                rv = residual[right].mean()
                fitted = np.where(left, lv, rv)
                sse = float(((residual - fitted) ** 2).sum())
                if best is None or sse < best[0] - 1e-12:
                    best = (sse, f, t, lv, rv)
        _, f, t, lv, rv = best
        pred = pred + learning_rate * np.where(x[:, f] <= t, lv, rv)
        preds_path.append(pred.copy())
    return pred


class TestStumpEnsemble:
    def test_single_stump_reproduces_group_means(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, 3.0, 10.0, 14.0])
        model = fit_stump_ensemble(Dataset(x=x, y=y), iterations=1, learning_rate=1.0)
        out = model.predict_batch(x)
        assert out == pytest.approx([2.0, 2.0, 12.0, 12.0], abs=1e-12)

    def test_zero_stumps_returns_init(self):
        model = StumpEnsemble(
            init_value=4.5, stumps=(), learning_rate=0.5, n_features=2
        )
        assert model.predict([1.0, 2.0]) == 4.5

    def test_boosting_fixed_point(self):
        # tiny noiseless data: enough iterations interpolate the outcome
        x = np.arange(8.0)[:, None]
        y = np.array([2.0, -1.0, 4.0, 0.5, 3.0, -2.0, 1.0, 5.0])
        model = fit_stump_ensemble(Dataset(x=x, y=y), iterations=800, learning_rate=0.5)
        yhat = model.predict_batch(x)
        assert np.abs(y - yhat).max() < 1e-6
        assert baseline_r2(y, yhat) > 1 - 1e-9

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50, 3))
        y = x[:, 0] - 2.0 * (x[:, 1] > 0) + 0.3 * rng.standard_normal(50)
        model = fit_stump_ensemble(Dataset(x=x, y=y), iterations=10, learning_rate=0.1)
        ours = model.predict_batch(x)
        reference = reference_boost(x, y, iterations=10, learning_rate=0.1)
        assert ours == pytest.approx(reference, abs=1e-10)

    def test_training_fit_monotone_over_sweep_range(self):
        rng = np.random.default_rng(2024)
        x = rng.standard_normal((200, 4))
        y = x @ np.array([1.0, 0.8, -0.5, 0.0]) + 1.2 * rng.standard_normal(200)
        ds = Dataset(x=x, y=y)
        from shapr2.models import _boost_steps

        history = [r2 for _, r2 in _boost_steps(ds, 400, 0.03)]
        diffs = np.diff(np.array(history))
        assert np.all(diffs >= -1e-12)

    def test_refit_is_bit_identical(self):
        ds, _ = make_regression(seed=9, n=60)
        a = fit_stump_ensemble(ds, iterations=25, learning_rate=0.2)
        b = fit_stump_ensemble(ds, iterations=25, learning_rate=0.2)
        assert a.stumps == b.stumps
        assert np.array_equal(a.predict_batch(ds.x), b.predict_batch(ds.x))

    def test_constant_features_no_split(self):
        x = np.ones((10, 2))
        y = np.arange(10.0)
        with pytest.raises(NoValidSplit):
            fit_stump_ensemble(Dataset(x=x, y=y), iterations=3)

    def test_validation(self):
        ds, _ = make_regression(seed=10)
        with pytest.raises(InvalidValue):
            fit_stump_ensemble(ds, iterations=0)
        with pytest.raises(InvalidValue):
            fit_stump_ensemble(ds, iterations=5, learning_rate=1.5)


def per_stump_predict(model, x):
    """Reference predictor: each row summed stump by stump, in Python."""
    out = []
    for row in np.asarray(x, dtype=float):
        total = model.init_value
        for s in model.stumps:
            leaf = s.left_value if row[s.feature_index] <= s.threshold else s.right_value
            total += model.learning_rate * leaf
        out.append(total)
    return np.array(out)


# feature 0 repeats the threshold 0.5, feature 1 has no stump
_REPEATED = StumpEnsemble(
    init_value=1.5,
    stumps=(
        Stump(0, 0.5, 1.0, -2.0),
        Stump(2, 0.0, -1.0, 1.0),
        Stump(0, 0.5, 0.25, 3.0),
        Stump(0, -1.0, 4.0, -4.0),
    ),
    learning_rate=0.3,
    n_features=3,
)


class TestCompiledStumpPredictor:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=stump_cases(extra=st.sampled_from([math.nan, math.inf, -math.inf])))
    @example(case=(_REPEATED, np.array([[0.5, 7.0, 0.0], [-1.0, 0.0, -0.0], [0.50000001, 0.0, 1e-300]])))
    @example(case=(_REPEATED, np.array([[math.nan, math.nan, math.nan]])))
    @example(case=(StumpEnsemble(2.0, (), 0.1, 2), np.array([[0.0, 1.0]])))
    def test_matches_per_stump_sum(self, case):
        model, x = case
        scale = abs(model.init_value) + model.learning_rate * sum(
            max(abs(s.left_value), abs(s.right_value)) for s in model.stumps
        )
        batch = model.predict_batch(x)
        assert np.all(np.abs(batch - per_stump_predict(model, x)) <= 1e-12 * scale)
        for row in x:
            assert model.predict(row) == model.predict_batch(row[None])[0]

    def test_tables_are_not_fields(self):
        twin = StumpEnsemble(1.5, _REPEATED.stumps, 0.3, 3)
        assert twin == _REPEATED and hash(twin) == hash(_REPEATED)
        assert "_tables" not in repr(_REPEATED)
        for _, thresholds, steps in _REPEATED._tables:
            assert not thresholds.flags.writeable and not steps.flags.writeable

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"n_features": 0, "stumps": ()}, ShapeError),
            ({"stumps": (Stump(2, 0.0, 1.0, 2.0),)}, ShapeError),
            ({"stumps": (Stump(-1, 0.0, 1.0, 2.0),)}, ShapeError),
            ({"init_value": math.nan}, InvalidValue),
            ({"init_value": math.inf}, InvalidValue),
            ({"stumps": (Stump(0, math.inf, 1.0, 2.0),)}, InvalidValue),
            ({"stumps": (Stump(0, 0.0, math.nan, 2.0),)}, InvalidValue),
            ({"stumps": (Stump(1, 0.0, 1.0, -math.inf),)}, InvalidValue),
            ({"learning_rate": 0.0}, InvalidValue),
            ({"learning_rate": 1.5}, InvalidValue),
            ({"learning_rate": math.nan}, InvalidValue),
        ],
        ids=["no-features", "index-too-large", "index-negative", "init-nan", "init-inf",
             "threshold-inf", "left-nan", "right-inf", "rate-zero", "rate-above-one", "rate-nan"],
    )
    def test_rejects_invalid_parameters(self, kwargs, error):
        valid = {
            "init_value": 0.5,
            "stumps": (Stump(0, 0.0, 1.0, 2.0),),
            "learning_rate": 1.0,
            "n_features": 2,
        }
        with pytest.raises(error):
            StumpEnsemble(**{**valid, **kwargs})
        StumpEnsemble(**valid)


class TestTuneIterations:
    def test_hits_target_within_tolerance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((200, 4))
        y = x @ np.array([1.0, 0.7, -0.4, 0.2]) + 1.5 * rng.standard_normal(200)
        ds = Dataset(x=x, y=y)
        model, achieved, k = tune_iterations(ds, target_r2=0.3, learning_rate=0.05)
        assert abs(achieved - 0.3) <= 0.01
        assert len(model.stumps) == k
        # the tuning oracle is the training-fit curve itself: recompute
        yhat = model.predict_batch(x)
        assert baseline_r2(y, yhat) == pytest.approx(achieved, abs=1e-12)

    def test_unreachable_target(self, monkeypatch):
        monkeypatch.setattr(models, "TUNE_MAX_ITERATIONS", 3)
        ds, _ = make_regression(seed=12, n=30)
        with pytest.raises(TargetUnreachable, match="at 3 iterations"):
            tune_iterations(ds, target_r2=0.9, learning_rate=0.05)

    def test_target_domain(self):
        ds, _ = make_regression(seed=13)
        with pytest.raises(InvalidValue):
            tune_iterations(ds, target_r2=1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 1.5},
            {"learning_rate": 0.0},
        ],
    )
    def test_validates_like_fit(self, kwargs):
        ds, _ = make_regression(seed=14)
        with pytest.raises(InvalidValue):
            tune_iterations(ds, target_r2=0.5, **kwargs)

    def test_needs_two_rows(self):
        ds = Dataset(x=np.array([[1.0]]), y=np.array([2.0]))
        with pytest.raises(InvalidValue):
            tune_iterations(ds, target_r2=0.5)

    def test_matches_fixed_count_fit(self):
        ds, _ = make_regression(seed=15, n=80)
        model, _, k = tune_iterations(ds, target_r2=0.4, learning_rate=0.05)
        assert model == fit_stump_ensemble(ds, iterations=k, learning_rate=0.05)
