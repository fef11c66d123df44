"""Model zoo tests: OLS against a normal-equations oracle, boosted stumps
against an independently coded reference loop, and the compiled stump
predictor against a per-stump sum."""

import json
import math
import re
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from conftest import stump_cases
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapr2 import (
    Dataset,
    LinearModel,
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
    Shapr2Error,
    SingularDesign,
    TargetUnreachable,
)
from shapr2 import models
from shapr2.models import Stump, model_document, model_from_document
from shapr2.report import dumps


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

    def test_needs_outcome(self):
        with pytest.raises(InvalidValue, match="^dataset has no outcome column to fit$"):
            fit_ols(Dataset(x=np.zeros((5, 1))))

    @pytest.mark.parametrize("intercept, coefficients, name", [(math.inf, [1.0], "intercept"),
                                                                (0.0, [1.0, -math.inf], "coefficients")])
    def test_parameters_must_be_finite(self, intercept, coefficients, name):
        with pytest.raises(InvalidValue, match=f"^{name} contains non-finite entries$"):
            LinearModel(intercept, coefficients)

    def test_too_few_rows(self):
        with pytest.raises(InvalidValue):
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
        model = LinearModel(intercept=1.0, coefficients=np.array([2.0]))
        assert model.predict([3.0]) == 7.0

    @pytest.mark.parametrize("width", [1, 3])
    def test_rows_of_another_width_are_refused(self, width):
        with pytest.raises(ShapeError, match=r"^rows of shape \(2, \d\) for a model of 2 features$"):
            LinearModel(0.0, [1.0, 2.0]).predict_batch(np.ones((2, width)))


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

    @pytest.mark.parametrize("shape", [(2, 1), (2, 5), (2,)])
    def test_rows_of_another_width_are_refused(self, shape):
        # a stump on feature 0 reads any row wide enough, so width is checked, not indexed
        model = StumpEnsemble(0.0, (Stump(0, 0.5, 1.0, 2.0),), 1.0, 2)
        with pytest.raises(ShapeError, match="^rows of shape .* for a model of 2 features$"):
            model.predict_batch(np.ones(shape))
        assert model.predict_batch(np.ones((2, 2))).tolist() == [2.0, 2.0]

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

        history = [baseline_r2(y, pred) for _, pred in _boost_steps(ds, 400, 0.03)]
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

    def test_constant_feature_beside_varying_is_never_split(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        model = fit_stump_ensemble(Dataset(x=x, y=np.arange(10.0) ** 2), iterations=5)
        assert len(model.stumps) == 5
        assert all(s.feature_index == 1 for s in model.stumps)

    def test_validation(self):
        ds, _ = make_regression(seed=10)
        with pytest.raises(InvalidValue):
            fit_stump_ensemble(ds, iterations=0)
        with pytest.raises(InvalidValue):
            fit_stump_ensemble(ds, iterations=5, learning_rate=1.5)
        with pytest.raises(InvalidValue, match="^dataset has no outcome column to fit$"):
            fit_stump_ensemble(Dataset(x=ds.x), iterations=5)


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


def repeated_table_predict(model, x):
    """Reference kernel: per feature, the sorted thresholds with their
    repeats, the steps between them from the two cumulative leaf sums, and
    one ``searchsorted``, summed over features in ascending order."""
    out = np.full(x.shape[0], model.init_value)
    for f in sorted({s.feature_index for s in model.stumps}):
        mine = sorted((s for s in model.stumps if s.feature_index == f), key=lambda s: s.threshold)
        left = np.array([s.left_value for s in mine])
        right = np.array([s.right_value for s in mine])
        steps = model.learning_rate * (
            np.concatenate(([0.0], np.cumsum(right)))
            + np.concatenate((np.cumsum(left[::-1])[::-1], [0.0]))
        )
        out += steps[np.searchsorted(np.array([s.threshold for s in mine]), x[:, f])]
    return out


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=stump_cases(
        pools=st.just((-1.0, -0.0, 0.0, 1e-300, 0.5, 2.5)),
        extra=st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    ))
    @example(case=(_REPEATED, np.array([[0.5, 7.0, 0.0], [-1.0, 0.0, -0.0], [math.nan, math.inf, -math.inf]])))
    def test_one_entry_per_distinct_threshold(self, case):
        model, x = case
        for _, thresholds, steps in model._tables:
            assert np.all(thresholds[1:] > thresholds[:-1])
            assert len(steps) == len(thresholds) + 1
        expected = repeated_table_predict(model, x)
        assert np.array_equal(model.predict_batch(x).view(np.uint64), expected.view(np.uint64))

    def test_tables_are_not_fields(self):
        twin = StumpEnsemble(1.5, _REPEATED.stumps, 0.3, 3)
        assert twin == _REPEATED and hash(twin) == hash(_REPEATED)
        assert "_tables" not in repr(_REPEATED)
        for _, thresholds, steps in _REPEATED._tables:
            assert not thresholds.flags.writeable and not steps.flags.writeable

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"n_features": 0, "stumps": ()}, ShapeError, "n_features must be >= 1"),
            ({"stumps": (Stump(2, 0.0, 1.0, 2.0),)}, ShapeError, "stump feature_index 2 outside"),
            ({"stumps": (Stump(-1, 0.0, 1.0, 2.0),)}, ShapeError, "stump feature_index -1 outside"),
            ({"init_value": math.nan}, InvalidValue, "init_value contains non-finite entries"),
            ({"init_value": math.inf}, InvalidValue, "init_value contains non-finite entries"),
            ({"stumps": (Stump(0, math.inf, 1.0, 2.0),)}, InvalidValue, "stump parameters contains non-finite"),
            ({"stumps": (Stump(0, 0.0, math.nan, 2.0),)}, InvalidValue, "stump parameters contains non-finite"),
            ({"stumps": (Stump(1, 0.0, 1.0, -math.inf),)}, InvalidValue, "stump parameters contains non-finite"),
            ({"learning_rate": 0.0}, InvalidValue, "learning_rate must be in"),
            ({"learning_rate": 1.5}, InvalidValue, "learning_rate must be in"),
            ({"learning_rate": math.nan}, InvalidValue, "learning_rate must be in"),
        ],
        ids=["no-features", "index-too-large", "index-negative", "init-nan", "init-inf",
             "threshold-inf", "left-nan", "right-inf", "rate-zero", "rate-above-one", "rate-nan"],
    )
    def test_rejects_invalid_parameters(self, kwargs, error, message):
        valid = {
            "init_value": 0.5,
            "stumps": (Stump(0, 0.0, 1.0, 2.0),),
            "learning_rate": 1.0,
            "n_features": 2,
        }
        with pytest.raises(error, match=f"^{re.escape(message)}"):  # each message names its parameter
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


def per_feature_boost(dataset, iterations, learning_rate):
    """The oracle of the one-pass split scoring: the boosting loop that scores
    each feature's splits in a pass of its own and keeps a feature's best
    split only if it beats every lower feature's. Yields ``(stump, pred)`` as
    ``models._boost_steps`` does, on the same validated inputs."""
    x, y = dataset.x, dataset.y
    n = x.shape[0]
    candidates = []
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        boundaries = np.nonzero(xs[1:] > xs[:-1])[0]
        candidates.append((order, boundaries, (xs[boundaries] + xs[boundaries + 1]) / 2.0))
    if all(b.size == 0 for _, b, _ in candidates):
        raise NoValidSplit("every feature column is constant")
    pred = np.full(n, float(y.mean()))
    for _ in range(iterations):
        residual = y - pred
        best_score, best = -np.inf, None
        for f, (order, boundaries, thresholds) in enumerate(candidates):
            if boundaries.size == 0:
                continue
            csum = np.cumsum(residual[order])
            n_left = boundaries + 1
            left_sum = csum[boundaries]
            right_sum = csum[-1] - left_sum
            scores = left_sum**2 / n_left + right_sum**2 / (n - n_left)
            k = int(np.argmax(scores))
            if scores[k] > best_score:
                best_score = float(scores[k])
                best = Stump(f, float(thresholds[k]), float(left_sum[k] / n_left[k]),
                             float(right_sum[k] / (n - n_left[k])))
        pred = pred + learning_rate * np.where(
            x[:, best.feature_index] <= best.threshold, best.left_value, best.right_value
        )
        yield best, pred


@st.composite
def tied_datasets(draw):
    """2 to 40 rows of 1 to 5 integer-valued features (one of them sometimes
    continuous) and an outcome rounded to 0 or 1 decimals, so that sorted
    values, split scores and outcomes tie, and whole columns can be constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_features = draw(st.integers(2, 40)), draw(st.integers(1, 5))
    x = rng.integers(-2, 3, (n, n_features)).astype(float)
    if draw(st.booleans()):
        x[:, rng.integers(n_features)] = rng.standard_normal(n)
    y = np.round(x.sum(axis=1) + rng.standard_normal(n), draw(st.integers(0, 1)))
    return Dataset(x=x, y=y)


class TestOnePassScoring:
    """The boosting loop picks, round by round, the stumps of the per-feature
    oracle, field for field and bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dataset=tied_datasets(), iterations=st.integers(1, 30),
           learning_rate=st.sampled_from([0.05, 0.3, 1.0]))
    def test_fit_picks_the_oracle_stumps(self, dataset, iterations, learning_rate):
        try:
            expected = tuple(s for s, _ in per_feature_boost(dataset, iterations, learning_rate))
        except NoValidSplit:
            with pytest.raises(NoValidSplit, match="^every feature column is constant$"):
                fit_stump_ensemble(dataset, iterations, learning_rate)
            return
        stumps = fit_stump_ensemble(dataset, iterations, learning_rate).stumps
        assert stumps == expected and repr(stumps) == repr(expected)  # repr tells -0.0 from 0.0
        assert all(type(s.feature_index) is int for s in stumps)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dataset=tied_datasets(), target_r2=st.floats(0.05, 0.95),
           learning_rate=st.sampled_from([0.05, 0.3, 1.0]))
    def test_tune_reaches_the_oracle_fit(self, dataset, target_r2, learning_rate):
        def outcome(steps):
            with mock.patch.object(models, "TUNE_MAX_ITERATIONS", 300), \
                    mock.patch.object(models, "_boost_steps", steps):
                try:
                    model, r2, k = tune_iterations(dataset, target_r2, learning_rate)
                except Shapr2Error as exc:
                    return type(exc), str(exc)
            return repr(model.stumps), r2, k

        assert outcome(models._boost_steps) == outcome(per_feature_boost)


@st.composite
def models_and_rows(draw):
    """A ``LinearModel`` or a ``StumpEnsemble`` of 20 stumps on 1 to 16
    features, and 1 to 80 rows for it, every cell its own value; the stump
    thresholds are cells of the rows, so some rows sit on a split."""
    n_features = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((draw(st.integers(1, 80)), n_features))
    if draw(st.booleans()):
        return LinearModel(rng.standard_normal(), rng.standard_normal(n_features)), rows
    stumps = tuple(
        Stump(int(f), float(rows[rng.integers(rows.shape[0]), f]), *rng.standard_normal(2).tolist())
        for f in rng.integers(0, n_features, 20)
    )
    return StumpEnsemble(rng.standard_normal(), stumps, 0.1, n_features), rows


class TestRowIndependence:
    """A row's prediction does not depend on the other rows in its call."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=models_and_rows(), choice=st.data())
    def test_slice_predicts_as_in_the_whole_call(self, case, choice):
        model, rows = case
        start = choice.draw(st.integers(0, rows.shape[0] - 1))
        stop = choice.draw(st.integers(start + 1, rows.shape[0]))
        whole = model.predict_batch(rows)
        assert model.predict_batch(rows[start:stop]).tobytes() == whole[start:stop].tobytes()
        for row, value in zip(rows, whole):
            assert np.float64(model.predict(row)).tobytes() == value.tobytes()


_INTEGER_TYPES = (int, np.int32, np.int64)
_FLOAT_TYPES = (float, np.float32, np.float64)


@st.composite
def numpy_scalar_models(draw):
    """A ``LinearModel`` or a ``StumpEnsemble`` of up to 5 stumps whose every
    field is a Python or a numpy scalar, each of a type of its own."""

    def integer(low, high):
        return draw(st.sampled_from(_INTEGER_TYPES))(draw(st.integers(low, high)))

    def number(low=-1e6, high=1e6, **bounds):
        kind = draw(st.sampled_from(_FLOAT_TYPES))
        return kind(draw(st.floats(low, high, width=32 if kind is np.float32 else 64, **bounds)))

    n_features = integer(1, 6)
    if draw(st.booleans()):
        return LinearModel(number(), [number() for _ in range(n_features)])
    stumps = tuple(
        Stump(integer(0, n_features - 1), number(), number(), number())
        for _ in range(draw(st.integers(0, 5)))
    )
    return StumpEnsemble(number(), stumps, number(0.0, 1.0, exclude_min=True), n_features)


class TestNumpyScalars:
    """Model parameters may be numpy scalars: the constructors check integers
    through ``check_integer`` and the JSON emitter writes numpy numbers."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(model=numpy_scalar_models())
    def test_document_round_trip(self, model):
        rebuilt = model_from_document(json.loads(dumps(model_document(model))))
        assert rebuilt == model and hash(rebuilt) == hash(model)
        # equal values, not bytes: a negative zero is written "-0", which json reads back as 0
        rows = np.linspace(-2.0, 2.0, 4 * model.feature_count).reshape(4, -1)
        assert np.array_equal(rebuilt.predict_batch(rows), model.predict_batch(rows))

    @pytest.mark.parametrize("stump, scalar", [(Stump(0, "0.5", 1.0, 2.0), 0.5), (Stump(0, True, 1.0, 2.0), 0.5),
                                               (Stump(0, 0.5, np.True_, 2.0), 0.5), (Stump(0, 0.5, 1.0, 2.0), True)],
                             ids=["string-threshold", "bool-threshold", "numpy-bool-leaf", "bool-init-and-rate"])
    def test_ensemble_keeps_the_floats_it_checked(self, stump, scalar):
        model = StumpEnsemble(scalar, (stump,), scalar, 1)
        assert [type(v) for v in astuple(model.stumps[0])] == [int, float, float, float]
        assert type(model.init_value) is float and type(model.learning_rate) is float
        rebuilt = model_from_document(json.loads(dumps(model_document(model))))
        assert rebuilt == model and hash(rebuilt) == hash(model)

    def test_linear_models_compare_and_hash_by_value(self):
        model = LinearModel(0.0, [1.0, 2.0])
        assert model == LinearModel(np.float32(0.0), np.array([1.0, 2.0])) and len({model, LinearModel(0, [1, 2])}) == 1
        assert model not in (LinearModel(0.0, [1.0, 2.5]), LinearModel(0.5, [1.0, 2.0]), LinearModel(0.0, [1.0, 2.0, 0.0]))
        assert model != (0.0, [1.0, 2.0])
        # a negative zero equals a zero, so the two models must hash alike
        signed = LinearModel(-0.0, [-0.0, 2.0])
        assert signed == LinearModel(0.0, [0.0, 2.0]) and hash(signed) == hash(LinearModel(0.0, [0.0, 2.0]))

    @pytest.mark.parametrize("value", [True, 2.5, "3"], ids=["bool", "float", "string"])
    def test_iterations_must_be_an_integer(self, value):
        ds, _ = make_regression(seed=10)
        message = f"^iterations must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidValue, match=message):
            fit_stump_ensemble(ds, iterations=value)
        with pytest.raises(InvalidValue, match=message):
            models.check_boosting_options(value, 0.1)

    @pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
    def test_n_features_must_be_an_integer(self, value):
        with pytest.raises(InvalidValue, match=f"^n_features must be an integer, got {value!r}$"):
            StumpEnsemble(0.0, (), 0.1, value)

    @pytest.mark.parametrize("value", [True, 0.0], ids=["bool", "float"])
    def test_feature_index_must_be_an_integer(self, value):
        with pytest.raises(InvalidValue, match=f"^stump feature_index must be an integer, got {value!r}$"):
            StumpEnsemble(0.0, (Stump(value, 0.0, 1.0, 2.0),), 0.1, 2)

    def test_numpy_integers_are_accepted(self):
        ds, _ = make_regression(seed=10)
        assert len(fit_stump_ensemble(ds, iterations=np.int32(3)).stumps) == 3
        model = StumpEnsemble(0.0, (Stump(np.int64(1), 0.0, 1.0, 2.0),), 0.5, np.int32(2))
        assert type(model.n_features) is int
        assert model.predict_batch(np.array([[0.0, -1.0], [0.0, 1.0]])).tolist() == [0.5, 1.0]
        assert json.loads(dumps(model_document(model)))["stumps"][0]["feature_index"] == 1
