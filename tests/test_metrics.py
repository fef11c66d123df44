"""Core variance-decomposition math, checked against independently computed
oracle values (two-pass / exact-fraction arithmetic, frozen before the build)
and against the documented invariants."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shapr2 import metrics
from shapr2.data import Dataset, as_float_array
from shapr2 import (
    ShapleyMatrix,
    baseline_r2,
    classical_r2,
    decompose,
    feature_r2_decomposition,
    sample_variance,
    shapley_modified_predictions,
    unique_variance_ratio,
)
from shapr2.errors import (
    DegenerateInput,
    InvalidValue,
    ModelExplainsNothing,
    Shapr2Error,
    ShapeError,
)

# golden 6-row fixture and its frozen step-by-step oracle values
GOLDEN_Y = [2.3, 4.1, 1.7, 5.6, 3.9, 4.8]
GOLDEN_YHAT = [2.0, 4.4, 2.1, 5.0, 3.5, 5.2]
GOLDEN_PHI = np.column_stack(
    [[-1.1, 0.9, -1.3, 1.2, 0.1, 1.0], [-0.4, 0.5, -0.2, 0.3, -0.5, 0.6]]
)
GOLDEN = {
    "baseline_r2": 0.9073170731707317,
    "feature_r2": (0.7547944828345676, 0.15252259033616408),
    "shares": (0.8318971450596041, 0.1681028549403959),
    "ratios": (0.13380281690140844, 0.824966078697422),
    "sigma_raw": 0.6802208835341366,
    "sigma_raw_printed": 0.8837014725568942,
}


def golden_matrix() -> ShapleyMatrix:
    return ShapleyMatrix(phi=GOLDEN_PHI, phi0=None, feature_names=("a", "b"))


class TestSampleVariance:
    def test_constant_vector(self):
        assert sample_variance([1, 1, 1, 1]) == 0.0

    def test_two_points(self):
        assert sample_variance([0, 2]) == 2.0

    def test_two_pass_oracle(self):
        # oracle: exact fractions, (0-1.5)^2+... over N-1=3 -> 5/3
        assert sample_variance([0, 1, 2, 3]) == pytest.approx(5 / 3, abs=1e-15)

    def test_too_short(self):
        with pytest.raises(DegenerateInput):
            sample_variance([1.0])

    def test_non_finite(self):
        with pytest.raises(InvalidValue):
            sample_variance([1.0, np.nan, 2.0])
        with pytest.raises(InvalidValue):
            sample_variance([1.0, np.inf])


class TestClassicalR2:
    def test_identity_predictions(self):
        y = [0.5, 1.5, 3.0, -2.0]
        assert classical_r2(y, y) == 1.0

    def test_constant_predictions(self):
        assert classical_r2([0, 1, 2, 3], [5, 5, 5, 5]) == 0.0

    def test_scaled_predictions_oracle(self):
        # var(2y) = 4 var(y); direct evaluation oracle
        assert classical_r2([0, 1, 2, 3], [0, 2, 4, 6]) == pytest.approx(4.0, abs=1e-12)

    def test_may_exceed_one(self):
        assert classical_r2([0, 1], [0, 3]) > 1.0

    def test_degenerate_outcome(self):
        with pytest.raises(DegenerateInput):
            classical_r2([2, 2, 2], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            classical_r2([1, 2, 3], [1, 2])


class TestBaselineR2:
    def test_perfect_fit(self):
        y = [1.0, 2.0, 5.0]
        assert baseline_r2(y, y) == 1.0

    def test_constant_predictions(self):
        assert baseline_r2([0, 1, 2, 3], [1, 1, 1, 1]) == 0.0

    def test_direct_formula_oracle(self):
        # frozen oracle: var_yhat = 83/48, var_res = 11/48 -> 83/94
        value = baseline_r2([0, 1, 2, 3], [0.5, 1.0, 1.5, 3.5])
        assert value == pytest.approx(83 / 94, abs=1e-15)
        assert value == pytest.approx(0.883, abs=5e-4)

    def test_bounded_even_when_overfit(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(50)
        yhat = 10 * rng.standard_normal(50)
        assert 0.0 <= baseline_r2(y, yhat) <= 1.0

    def test_constant_perfectly_predicted(self):
        with pytest.raises(DegenerateInput):
            baseline_r2([3, 3, 3], [3, 3, 3])

    def test_needs_two_observations(self):
        with pytest.raises(DegenerateInput, match="^need at least 2 observations, got 1$"):
            baseline_r2([1.0], [1.0])


class TestShapleyModifiedPredictions:
    def test_null_attribution_column(self):
        yhat = np.array([1.0, 2.0, 3.0])
        phi = np.column_stack([np.zeros(3), [0.5, 0.5, 0.5]])
        out = shapley_modified_predictions(yhat, phi)
        assert np.array_equal(out[:, 0], yhat)

    def test_single_feature_with_exact_additivity(self):
        # with F=1 and phi0 + phi = yhat, the modified column is constant phi0
        phi0 = 2.5
        yhat = np.array([1.0, 4.0, -3.0])
        phi = (yhat - phi0)[:, None]
        out = shapley_modified_predictions(yhat, phi)
        assert np.allclose(out[:, 0], phi0, atol=0)

    def test_elementwise_subtraction(self):
        out = shapley_modified_predictions([1.0, 2.0], np.array([[0.5], [-0.5]]))
        assert np.array_equal(out, np.array([[0.5], [2.5]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            shapley_modified_predictions([1.0, 2.0, 3.0], np.zeros((2, 2)))


class TestFeatureR2Decomposition:
    def test_golden_6row_oracle(self):
        result = decompose(GOLDEN_Y, GOLDEN_YHAT, golden_matrix())
        assert result.baseline_r2 == pytest.approx(GOLDEN["baseline_r2"], abs=1e-12)
        assert result.feature_r2 == pytest.approx(GOLDEN["feature_r2"], abs=1e-12)
        assert result.feature_shares == pytest.approx(GOLDEN["shares"], abs=1e-12)
        assert result.variance_ratios == pytest.approx(GOLDEN["ratios"], abs=1e-12)
        assert result.sigma_unique_raw == pytest.approx(GOLDEN["sigma_raw"], abs=1e-12)
        assert result.sigma_unique == result.sigma_unique_raw  # inside [0, 1]
        assert result.ranking == (0, 1)
        assert not result.all_features_null
        assert result.warnings == ()

    def test_single_feature_takes_whole_baseline(self):
        y = np.array([1.0, 2.0, 4.0, 8.0])
        yhat = np.array([1.5, 2.5, 3.5, 7.0])
        phi = (yhat - yhat.mean())[:, None]
        result = feature_r2_decomposition(y, yhat, phi)
        assert result.feature_r2[0] == pytest.approx(result.baseline_r2, abs=1e-15)
        assert result.feature_shares[0] == pytest.approx(1.0, abs=1e-15)

    def test_null_column_gets_zero(self):
        phi = np.column_stack([GOLDEN_PHI[:, 0], np.zeros(6)])
        result = feature_r2_decomposition(GOLDEN_Y, GOLDEN_YHAT, phi)
        assert result.feature_r2[0] == pytest.approx(result.baseline_r2, abs=1e-15)
        assert result.feature_r2[1] == 0.0
        assert result.variance_ratios[1] == 1.0

    def test_identity_fixture(self):
        y = np.array([0.0, 1.0, 2.0, 5.0])
        phi = (y - y.mean())[:, None]
        result = decompose(y, y, phi)
        assert result.baseline_r2 == 1.0
        assert result.feature_r2[0] == pytest.approx(1.0, abs=1e-15)

    def test_all_null_outcome(self):
        # a model that explains variance but attributes none of it
        y = GOLDEN_Y
        yhat = GOLDEN_YHAT
        phi = np.zeros((6, 3))
        result = decompose(y, yhat, phi)
        assert result.all_features_null
        assert np.array_equal(result.feature_r2, np.zeros(3))
        assert np.array_equal(result.feature_shares, np.zeros(3))
        assert result.baseline_r2 == pytest.approx(GOLDEN["baseline_r2"], abs=1e-12)
        assert result.sigma_unique_raw == 0.0  # zero increase in every column
        assert any("no feature increases" in w for w in result.warnings)

    def test_all_null_with_explains_nothing_model(self):
        # constant predictions: baseline 0, no sigma defined, still no crash
        y = np.array([1.0, 2.0, 3.0, 4.0])
        yhat = np.full(4, 2.5)
        result = decompose(y, yhat, np.zeros((4, 2)))
        assert result.all_features_null
        assert result.baseline_r2 == 0.0
        assert result.sigma_unique is None and result.sigma_unique_raw is None
        assert any("explains no variance" in w for w in result.warnings)

    def test_explains_nothing_with_non_null_shares_raises(self):
        # removing the column raises residual variance, so the shares are not
        # null, but var(y - yhat) >= var(y) leaves sigma_unique undefined
        y = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ModelExplainsNothing):
            decompose(y, -y, y[:, None])

    def test_raw_phi_matches_matrix_with_default_names(self):
        # the second column shrinks the residuals when removed, so it clamps
        y, yhat = np.array(GOLDEN_Y), np.array(GOLDEN_YHAT)
        phi = np.column_stack([GOLDEN_PHI[:, 0], (yhat - y) / 2])
        raw = decompose(y, yhat, phi)
        wrapped = decompose(y, yhat, ShapleyMatrix(phi=phi, phi0=None))
        assert raw.feature_names == wrapped.feature_names == ("x1", "x2")
        assert raw.warnings == wrapped.warnings and "'x2'" in raw.warnings[0]
        for field in dataclasses.fields(raw):
            assert np.array_equal(getattr(raw, field.name), getattr(wrapped, field.name))

    @pytest.mark.parametrize("as_matrix", [False, True], ids=["raw", "matrix"])
    def test_phi_row_count_must_match(self, as_matrix):
        phi = GOLDEN_PHI[:5]
        with pytest.raises(ShapeError, match="phi rows do not match observation count"):
            decompose(GOLDEN_Y, GOLDEN_YHAT, ShapleyMatrix(phi, None) if as_matrix else phi)

    def test_ranking_tiebreak_ascending_index(self):
        phi = np.column_stack([GOLDEN_PHI[:, 1], GOLDEN_PHI[:, 1], GOLDEN_PHI[:, 0]])
        result = feature_r2_decomposition(GOLDEN_Y, GOLDEN_YHAT, phi)
        assert result.feature_r2[0] == result.feature_r2[1]
        assert result.ranking == (2, 0, 1)

    @pytest.mark.parametrize("build", [lambda a, names: Dataset(a, feature_names=names),
                                       lambda a, names: ShapleyMatrix(a, None, names)],
                             ids=["dataset", "matrix"])
    def test_feature_names_default_and_count(self, build):
        assert build(np.zeros((2, 3)), ()).feature_names == ("x1", "x2", "x3")
        assert build(np.zeros((2, 2)), ["a", "b"]).feature_names == ("a", "b")
        with pytest.raises(ShapeError, match="^2 feature names for 3 columns$"):
            build(np.zeros((2, 3)), ("a", "b"))

    def test_degenerate_outcome_rejected(self):
        with pytest.raises(DegenerateInput):
            feature_r2_decomposition([1, 1, 1], [0, 1, 2], np.zeros((3, 1)))


class TestUniqueVarianceRatio:
    def test_zero_attributions_zero_raw(self):
        raw, clamped = unique_variance_ratio(GOLDEN_Y, GOLDEN_YHAT, np.zeros((6, 4)))
        assert raw == 0.0 and clamped == 0.0

    def test_orthogonal_ols_equals_one(self):
        # OLS residuals are orthogonal to each regressor; with exactly
        # orthogonal centered features the explained variance equals the sum
        # of per-feature increases, so the ratio is 1.
        from shapr2 import Dataset, fit_ols, linear_shapley

        rng = np.random.default_rng(11)
        n = 64
        q, _ = np.linalg.qr(
            np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        )
        x = q[:, 1:]
        y = x @ np.array([1.5, -2.0, 0.8]) + 0.3 * rng.standard_normal(n)
        ds = Dataset(x=x, y=y)
        model = fit_ols(ds)
        yhat = model.predict_batch(x)
        matrix = linear_shapley(model.coefficients, model.intercept, ds)
        raw, clamped = unique_variance_ratio(y, yhat, matrix)
        assert raw == pytest.approx(1.0, abs=1e-8)
        assert clamped == pytest.approx(1.0, abs=1e-8)

    def test_correlated_features_about_half(self):
        # moderate uniform correlation: roughly half the explained variance
        # is shared between features rather than uniquely assignable
        from shapr2 import UniformCorrelationSpec, run_cell

        spec = UniformCorrelationSpec(
            rho=0.5,
            n_samples=2000,
            coefficients=(1.0, 1.0, 1.0),
            noise_sd=np.sqrt(3),
            seed=123,
        )
        cell = run_cell(spec)
        assert cell.status == "completed"
        assert cell.sigma_unique == pytest.approx(0.5, abs=0.15)

    def test_printed_form_oracle(self):
        raw, _ = unique_variance_ratio(
            GOLDEN_Y, GOLDEN_YHAT, golden_matrix(), eq7_as_printed=True
        )
        assert raw == pytest.approx(GOLDEN["sigma_raw_printed"], abs=1e-12)

    def test_model_explains_nothing(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        yhat = -y  # anti-predictive: residual variance exceeds outcome variance
        with pytest.raises(ModelExplainsNothing):
            unique_variance_ratio(y, yhat, np.zeros((4, 1)))

    @pytest.mark.parametrize("eq7_as_printed", [False, True])
    def test_decompose_matches_standalone_ratio(self, eq7_as_printed):
        result = decompose(GOLDEN_Y, GOLDEN_YHAT, golden_matrix(), eq7_as_printed=eq7_as_printed)
        standalone = unique_variance_ratio(
            GOLDEN_Y, GOLDEN_YHAT, golden_matrix(), eq7_as_printed=eq7_as_printed
        )
        assert (result.sigma_unique_raw, result.sigma_unique) == standalone

    def test_decompose_validates_and_computes_once(self):
        paired = mock.Mock(wraps=metrics._paired)
        modified = mock.Mock(wraps=metrics._modified_residual_variances)
        with mock.patch.object(metrics, "_paired", paired), \
                mock.patch.object(metrics, "_modified_residual_variances", modified):
            result = decompose(GOLDEN_Y, GOLDEN_YHAT, golden_matrix())
        assert paired.call_count == 1 and modified.call_count == 1
        assert result.sigma_unique_raw == pytest.approx(GOLDEN["sigma_raw"], abs=1e-12)


def random_fixture(rng, n=None, f=None):
    n = n or int(rng.integers(10, 200))
    f = f or int(rng.integers(1, 10))
    y = rng.standard_normal(n)
    slope = rng.uniform(0.3, 1.0)
    yhat = slope * y + 0.3 * rng.standard_normal(n)
    phi = rng.standard_normal((n, f))
    return y, yhat, phi


class TestInvariants:
    def test_sum_identity_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            y, yhat, phi = random_fixture(rng)
            result = decompose(y, yhat, phi)
            if result.all_features_null:
                assert np.array_equal(result.feature_r2, np.zeros(phi.shape[1]))
                continue
            assert abs(result.feature_r2.sum() - result.baseline_r2) <= 1e-10
            assert np.all(result.feature_r2 >= 0.0)
            assert np.all(result.feature_r2 <= result.baseline_r2 + 1e-15)
            assert abs(result.feature_shares.sum() - 1.0) <= 1e-10

    def test_null_feature_appended(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            y, yhat, phi = random_fixture(rng)
            base = decompose(y, yhat, phi)
            extended = decompose(y, yhat, np.column_stack([phi, np.zeros(len(y))]))
            if base.all_features_null:
                continue
            assert extended.baseline_r2 == base.baseline_r2
            assert extended.feature_r2[-1] == 0.0
            assert extended.feature_r2[:-1] == pytest.approx(
                base.feature_r2, abs=1e-12
            )

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for scale in (2.0, -3.5, 1e-3, 1e4):
            y, yhat, phi = random_fixture(rng)
            base = decompose(y, yhat, phi)
            scaled = decompose(scale * y, scale * yhat, scale * phi)
            if base.all_features_null:
                assert scaled.all_features_null
                continue
            assert scaled.baseline_r2 == pytest.approx(base.baseline_r2, abs=1e-12)
            assert scaled.feature_r2 == pytest.approx(base.feature_r2, abs=1e-12)
            assert scaled.feature_shares == pytest.approx(
                base.feature_shares, abs=1e-12
            )
            assert scaled.ranking == base.ranking

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        y, yhat, phi = random_fixture(rng, n=60, f=6)
        perm = rng.permutation(6)
        base = decompose(y, yhat, phi)
        permuted = decompose(y, yhat, phi[:, perm])
        assert np.array_equal(permuted.feature_r2, base.feature_r2[perm])

    def test_clamp_never_negative(self):
        # adversarial attributions: removing them *improves* the fit
        rng = np.random.default_rng(12)
        for _ in range(25):
            y, yhat, _ = random_fixture(rng, n=50, f=3)
            residual = np.asarray(y) - np.asarray(yhat)
            phi = np.column_stack(
                [-0.9 * residual, 0.5 * residual, rng.standard_normal(50)]
            )
            result = decompose(y, yhat, phi)
            assert np.all(result.feature_r2 >= 0.0)
            assert np.all(result.variance_ratios <= 1.0)

    def test_clamp_activation_warns(self):
        y = np.array(GOLDEN_Y)
        yhat = np.array(GOLDEN_YHAT)
        phi = np.column_stack([GOLDEN_PHI[:, 0], -0.9 * (y - yhat)])
        result = decompose(y, yhat, phi)
        assert result.variance_ratios[1] == 1.0
        assert any("clamped" in w for w in result.warnings)


#: How far a joint shift (|c| <= 100) or a positive scale (1e-3 to 1e3) of
#: y, yhat and phi may move baseline_r2, feature_r2, the shares and
#: sigma_unique_raw, on inputs with var(y) >= 0.1 whose clamped weights sum
#: to at least 0.01 and whose model explains at least 1 % of var(y). Fixed
#: before the tests below were written: rounding moves each variance by about
#: 1e-14 of its scale, and dividing by the weight sum amplifies that 100-fold.
#: Each modified residual variance must also be at least 0.1 % of var(y): on
#: a perfect fit with a constant phi column both terms of that column's ratio
#: are rounding noise (0 / 0), and a rescale moved its share from 0 to 0.4.
INVARIANCE_ATOL = 1e-9


@st.composite
def decompose_inputs(draw, max_features=5):
    """``(y, yhat, phi)``: additive predictions ``c + sum_f phi`` and an
    outcome that adds noise to them, every cell in [-5, 5]."""
    n = draw(st.integers(3, 30))
    f = draw(st.integers(1, max_features))
    cells = st.floats(-5.0, 5.0, allow_nan=False)
    phi = draw(hnp.arrays(np.float64, (n, f), elements=cells))
    yhat = draw(cells) + phi.sum(axis=1)
    y = yhat + draw(hnp.arrays(np.float64, n, elements=cells))
    return y, yhat, phi


def _decomposition(y, yhat, phi):
    """``decompose``, with inputs it rejects filtered out of the test."""
    try:
        return decompose(y, yhat, phi)
    except Shapr2Error:
        assume(False)


class TestDecomposeProperties:
    @settings(max_examples=200, deadline=None)
    @given(inputs=decompose_inputs())
    def test_shares_on_simplex_summing_to_baseline(self, inputs):
        result = _decomposition(*inputs)
        assert np.all(result.feature_shares >= 0.0)
        assert np.all(result.feature_r2 >= 0.0)
        if result.all_features_null:
            assert not result.feature_shares.any() and not result.feature_r2.any()
        else:
            assert abs(result.feature_shares.sum() - 1.0) <= 1e-10
            assert abs(result.feature_r2.sum() - result.baseline_r2) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(inputs=decompose_inputs(), data=st.data())
    def test_permuting_columns_permutes_results(self, inputs, data):
        y, yhat, phi = inputs
        perm = np.array(data.draw(st.permutations(range(phi.shape[1]))))
        base = _decomposition(y, yhat, phi)
        permuted = decompose(y, yhat, phi[:, perm])
        # each column's ratio comes from that column alone; the shares share
        # one sum, whose addition order follows the columns
        assert permuted.variance_ratios.tobytes() == base.variance_ratios[perm].tobytes()
        assert permuted.all_features_null == base.all_features_null
        assert permuted.feature_shares == pytest.approx(base.feature_shares[perm], rel=1e-12, abs=1e-15)
        assert permuted.feature_r2 == pytest.approx(base.feature_r2[perm], rel=1e-12, abs=1e-15)
        assert permuted.baseline_r2 == base.baseline_r2

    @settings(max_examples=200, deadline=None)
    @given(
        inputs=decompose_inputs(),
        shift=st.floats(-100.0, 100.0),
        scale=st.floats(1e-3, 1e3),
    )
    def test_invariant_under_joint_shift_and_positive_scale(self, inputs, shift, scale):
        y, yhat, phi = inputs
        base = _decomposition(y, yhat, phi)
        var_y = np.var(y, ddof=1)
        assume(var_y >= 0.1)
        assume(var_y - np.var(y - yhat, ddof=1) >= 0.01 * var_y)
        assume(base.baseline_r2 * (1.0 - base.variance_ratios).sum() >= 0.01)
        assume(all(np.var(y - yhat + column, ddof=1) >= 1e-3 * var_y for column in phi.T))
        for moved in (
            decompose(y + shift, yhat + shift, phi + shift),
            decompose(scale * y, scale * yhat, scale * phi),
        ):
            assert not moved.all_features_null
            for name in ("baseline_r2", "feature_r2", "feature_shares", "sigma_unique_raw"):
                assert getattr(moved, name) == pytest.approx(
                    getattr(base, name), rel=0, abs=INVARIANCE_ATOL
                ), name

    @settings(max_examples=100, deadline=None)
    @given(inputs=decompose_inputs(max_features=4), data=st.data())
    def test_all_zero_column_gets_exactly_zero(self, inputs, data):
        y, yhat, phi = inputs
        at = data.draw(st.integers(0, phi.shape[1]))
        result = _decomposition(y, yhat, np.insert(phi, at, 0.0, axis=1))
        assert result.feature_shares[at] == 0.0
        assert result.feature_r2[at] == 0.0
        assert result.variance_ratios[at] == 1.0


class TestShapleyMatrixType:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidValue):
            ShapleyMatrix(phi=np.array([[np.nan]]), phi0=0.0)
        with pytest.raises(DegenerateInput, match="^phi0 must be finite$"):
            ShapleyMatrix(phi=np.zeros((1, 1)), phi0=np.nan)

    def test_unknown_provenance(self):
        with pytest.raises(ShapeError, match="^unknown provenance 'guessed'$"):
            ShapleyMatrix(phi=np.zeros((1, 1)), phi0=None, provenance="guessed")

    def test_additivity_gap(self):
        yhat = np.array([1.0, 2.0, 3.0])
        phi = (yhat - 2.0)[:, None]
        matrix = ShapleyMatrix(phi=phi, phi0=2.0)
        assert matrix.additivity_gap(yhat) <= 1e-15
        bad = ShapleyMatrix(phi=phi, phi0=2.5)
        assert bad.additivity_gap(yhat) > 0.1
        with pytest.raises(DegenerateInput, match="^matrix has no phi0; additivity is unchecked$"):
            ShapleyMatrix(phi=phi, phi0=None).additivity_gap(yhat)
        with pytest.raises(ShapeError, match="^yhat length does not match attribution rows$"):
            matrix.additivity_gap(yhat[:2])

    def test_default_feature_names(self):
        matrix = ShapleyMatrix(phi=np.zeros((2, 3)), phi0=None)
        assert matrix.feature_names == ("x1", "x2", "x3")

    def test_additivity_gap_is_the_relative_formula(self):
        rng = np.random.default_rng(5)
        phi = rng.standard_normal((200, 4)) * 10.0 ** rng.uniform(-3, 3, (200, 4))
        yhat = 0.3 + phi.sum(axis=1) + rng.standard_normal(200) * 1e-9
        yhat[:5] = 0.0  # rows below unit scale
        gap = ShapleyMatrix(phi=phi, phi0=0.3).additivity_gap(yhat)
        assert gap == float(np.max(np.abs(0.3 + phi.sum(axis=1) - yhat) / np.maximum(np.abs(yhat), 1.0)))


def _frozen(shape):
    """A read-only array that owns its data."""
    arr = np.arange(float(np.prod(shape))).reshape(shape).copy()
    arr.flags.writeable = False
    return arr


class TestDataset:
    def test_x_must_be_a_matrix(self):
        with pytest.raises(ShapeError, match="^x must be 2-dimensional, got ndim=1$"):
            Dataset(x=np.zeros(3))

    def test_y_pairs_one_outcome_per_row(self):
        with pytest.raises(ShapeError, match="^y has 2 rows but x has 3$"):
            Dataset(x=np.zeros((3, 1)), y=np.zeros(2))


class TestFloatArrayCopies:
    """``as_float_array`` skips its copy only for an array that nothing can
    change: read-only through its whole base chain, down to an owning array."""

    def test_frozen_owning_array_is_kept(self):
        arr = _frozen((3, 2))
        assert as_float_array(arr, "a", 2) is arr
        assert ShapleyMatrix(phi=arr, phi0=None).phi is arr

    def test_read_only_view_of_frozen_array_is_kept(self):
        table = _frozen((4, 3))
        phi = ShapleyMatrix(phi=table[:, 1:], phi0=None).phi
        assert np.shares_memory(phi, table) and not phi.flags.writeable

    def test_writeable_array_is_copied(self):
        arr = np.arange(6.0).reshape(3, 2)
        out = as_float_array(arr, "a", 2)
        assert out is not arr and not np.shares_memory(out, arr)
        assert not out.flags.writeable and arr.flags.writeable

    def test_read_only_view_of_writeable_base_is_copied(self):
        base = np.arange(6.0).reshape(3, 2)
        view = base[:, :]
        view.flags.writeable = False
        matrix = ShapleyMatrix(phi=view, phi0=None)
        base[:] = -1.0
        assert matrix.phi.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]

    def test_buffer_backed_array_is_copied(self):
        arr = np.frombuffer(np.arange(4.0).tobytes(), dtype=float)
        assert not arr.flags.writeable
        out = as_float_array(arr, "a", 1)
        assert out is not arr and not np.shares_memory(out, arr)
        assert out.base is None and not out.flags.writeable
