"""Correlation simulation tests: Cholesky contract, MVN sampling statistics,
cell/grid behavior, and determinism."""

import dataclasses

import numpy as np
import pytest

import shapr2.shapley
from shapr2 import (
    GridSpec,
    UniformCorrelationSpec,
    cholesky_factor,
    run_cell,
    run_grid,
    sample_mvn,
    uniform_correlation_matrix,
)
from shapr2.cli import _grid_summary
from shapr2.errors import InvalidMatrix, InvalidValue, NonPositiveDefinite
from shapr2.report import dumps
from shapr2.simulation import derive_seed


def spec(rho, seed=123, n=2000, coefficients=(1.0, 1.0, 1.0), noise_sd=np.sqrt(3.0)):
    return UniformCorrelationSpec(
        rho=rho, n_samples=n, coefficients=coefficients, noise_sd=noise_sd, seed=seed
    )


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky_factor(np.eye(4)), np.eye(4))

    def test_non_pd_uniform(self):
        with pytest.raises(NonPositiveDefinite):
            cholesky_factor(uniform_correlation_matrix(3, -0.6))

    def test_roundtrip(self):
        corr = uniform_correlation_matrix(3, 0.5)
        lower = cholesky_factor(corr)
        assert np.tril(lower) == pytest.approx(lower, abs=0)
        assert lower @ lower.T == pytest.approx(corr, abs=1e-10)

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(InvalidMatrix):
            cholesky_factor(bad)

    @pytest.mark.parametrize(
        "corr, message",
        [
            (np.ones((2, 3)), "correlation matrix must be square"),
            (np.ones(3), "correlation matrix must be square"),
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), "correlation matrix contains non-finite entries"),
        ],
        ids=["non-square", "one-dimensional", "non-finite"],
    )
    def test_structure_rejected(self, corr, message):
        with pytest.raises(InvalidMatrix, match=f"^{message}$"):
            cholesky_factor(corr)

    def test_non_unit_diagonal_rejected(self):
        with pytest.raises(InvalidMatrix):
            cholesky_factor(np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_pd_boundary(self):
        # F=3 uniform correlation is PD iff rho > -1/2
        cholesky_factor(uniform_correlation_matrix(3, -0.5 + 1e-9))
        with pytest.raises(NonPositiveDefinite):
            cholesky_factor(uniform_correlation_matrix(3, -0.5))
        with pytest.raises(NonPositiveDefinite):
            cholesky_factor(uniform_correlation_matrix(3, -0.5 - 1e-9))


class TestSampleMvn:
    def test_uncorrelated_empirical_correlations(self):
        x = sample_mvn(spec(0.0, n=5000))
        corr = np.corrcoef(x, rowvar=False)
        off = corr[np.triu_indices(3, k=1)]
        # ~4 sigma of the 1/sqrt(N) sampling error
        assert np.all(np.abs(off) <= 0.06)

    def test_strong_correlation_recovered(self):
        x = sample_mvn(spec(0.8, n=5000))
        corr = np.corrcoef(x, rowvar=False)
        off = corr[np.triu_indices(3, k=1)]
        # Fisher-z standard error at N=5000 is ~0.014; 0.04 in correlation
        # units at rho=0.8 is far beyond 4 sigma
        assert np.all(np.abs(off - 0.8) <= 0.04)

    def test_standard_normal_marginals(self):
        x = sample_mvn(spec(0.4, n=5000))
        assert np.abs(x.mean(axis=0)).max() <= 0.08
        assert np.abs(x.std(axis=0, ddof=1) - 1.0).max() <= 0.06

    def test_deterministic(self):
        a = sample_mvn(spec(0.3, seed=77))
        b = sample_mvn(spec(0.3, seed=77))
        assert np.array_equal(a, b)

    def test_non_pd_propagates(self):
        with pytest.raises(NonPositiveDefinite):
            sample_mvn(spec(-0.7))

    def test_spec_validation(self):
        with pytest.raises(InvalidValue):
            spec(1.5)
        with pytest.raises(InvalidValue, match="coefficients is empty"):
            UniformCorrelationSpec(
                rho=0.0, n_samples=10, coefficients=(), noise_sd=1.0, seed=0
            )

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"rho": float("nan")}, "rho"),
            ({"coefficients": (1.0, float("inf"))}, "coefficients"),
            ({"noise_sd": float("nan")}, "noise_sd"),
            ({"noise_sd": float("inf")}, "noise_sd"),
            ({"noise_sd": -1.0}, "noise_sd"),
            ({"n_samples": 1}, "n_samples"),
            ({"n_samples": 10.5}, "n_samples"),
            ({"seed": 1.5}, "seed"),
            ({"n_samples": 3, "coefficients": (1.0, 2.0, 3.0)}, "n_samples"),
            ({"coefficients": (0.0, 0.0), "noise_sd": 0.0}, "noise_sd"),
            ({"seed": True}, "seed"),
        ],
        ids=["rho-nan", "coefficient-inf", "noise-nan", "noise-inf", "noise-negative",
             "n-samples-one", "n-samples-float", "seed-float", "n-samples-not-above-features",
             "all-zero-coefficients-no-noise", "seed-bool"],
    )
    def test_spec_rejects_value_naming_field(self, changes, field):
        values = {"rho": 0.0, "n_samples": 10, "coefficients": (1.0,), "noise_sd": 1.0, "seed": 0}
        with pytest.raises(InvalidValue, match=f"^{field} "):
            UniformCorrelationSpec(**{**values, **changes})

    def test_feature_count_is_coefficient_count(self):
        assert spec(0.0, coefficients=(1.0, 2.0)).feature_count == 2
        assert sample_mvn(spec(0.0, n=10, coefficients=(1.0, 2.0, 3.0, 4.0))).shape == (10, 4)


class TestRunCell:
    def test_non_pd_cell_skipped(self):
        cell = run_cell(spec(-0.6))
        assert cell.status == "skipped_non_pd"
        assert cell.sigma_unique is None and cell.baseline_r2 is None

    def test_uncorrelated_sigma_is_one(self):
        cell = run_cell(spec(0.0))
        assert cell.status == "completed"
        assert cell.sigma_unique == pytest.approx(1.0, abs=0.05)

    def test_moderate_correlation_sigma_about_half(self):
        for rho in (0.4, 0.5, 0.6):
            cell = run_cell(spec(rho))
            assert cell.sigma_unique == pytest.approx(0.5, abs=0.15), rho

    def test_population_fit_at_rho_zero(self):
        # noise_sd = ||beta|| targets a population fit of 0.5
        cell = run_cell(spec(0.0))
        assert cell.baseline_r2 == pytest.approx(0.5, abs=0.05)

    def test_cross_estimator_agreement(self):
        cell_spec = spec(0.4, n=400, seed=31)
        linear = run_cell(cell_spec, estimator="linear")
        sampled = run_cell(cell_spec, estimator="sampled", permutations=200)
        assert abs(linear.sigma_unique - sampled.sigma_unique) <= 0.1

    def test_sampling_options_checked_for_linear_estimator(self):
        with pytest.raises(InvalidValue, match=r"^permutations must be >= 1$"):
            run_cell(spec(0.0, n=30, noise_sd=1.0, seed=1), estimator="linear",
                     permutations=0, background_subsample=10**6)


class TestRunGrid:
    def test_all_skipped_grid(self):
        grid = run_grid(GridSpec(rho_values=(-0.8,), n_samples=100))
        for row in grid.cells:
            for cell in row:
                assert cell.status == "skipped_non_pd"

    def test_single_cell_grid_equals_run_cell(self):
        """Every cell of a 2 x 3 grid runs the spec its coordinates document:
        the config's default noise and the seed ``derive_seed(seed, r, c)``,
        which differs from ``derive_seed(seed, c, r)`` off the diagonal."""
        configs = (("equal", (1.0, 1.0, 1.0)), ("dominant", (4.0, 1.0, 1.0)))
        rhos = (-0.3, 0.2, 0.7)
        grid = run_grid(GridSpec(rho_values=rhos, coefficient_configs=configs, n_samples=200, seed=99))
        for c, (_, coefficients) in enumerate(configs):
            for r, rho in enumerate(rhos):
                documented = UniformCorrelationSpec(
                    rho=rho,
                    n_samples=200,
                    coefficients=coefficients,
                    noise_sd=float(np.linalg.norm(coefficients)),
                    seed=derive_seed(99, r, c),
                )
                cell, direct = grid.cells[c][r], run_cell(documented)
                assert cell.spec == documented
                assert cell.status == direct.status == "completed"
                assert cell.sigma_unique == direct.sigma_unique
                assert cell.baseline_r2 == direct.baseline_r2

    def test_feature_count_from_config_width(self):
        grid = run_grid(
            GridSpec(coefficient_configs=(("a", (1.0, 2.0)),), rho_values=(0.0,), n_samples=50)
        )
        (cell,), = grid.cells
        assert cell.status == "completed" and cell.spec.feature_count == 2

    def test_explicit_noise_sd_reaches_every_cell(self):
        grid = run_grid(GridSpec(rho_values=(0.0, -0.8), n_samples=30, noise_sd=0.25))
        assert {cell.spec.noise_sd for row in grid.cells for cell in row} == {0.25}

    def test_feature_count_is_not_a_field(self):
        for cls in (GridSpec, UniformCorrelationSpec):
            assert "feature_count" not in {f.name for f in dataclasses.fields(cls)}

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"rho_values": (0.0, 1.5)}, "rho"),
            ({"rho_values": (float("nan"),)}, "rho"),
            ({"coefficient_configs": ()}, "coefficient_configs"),
            ({"coefficient_configs": (("a", (1.0, 2.0)), ("b", (1.0,)))}, "coefficient_configs"),
            ({"coefficient_configs": (("a", ()),)}, "coefficients"),
            ({"coefficient_configs": (("a", (float("inf"), 1.0)),)}, "coefficients"),
            ({"noise_sd": float("nan")}, "noise_sd"),
            ({"noise_sd": float("inf")}, "noise_sd"),
            ({"noise_sd": -0.5}, "noise_sd"),
            ({"n_samples": 40, "background_subsample": 50}, "background_subsample"),
            ({"coefficient_configs": (("a", (1.0, 2.0)), ("a", (2.0, 1.0)))}, "coefficient_configs"),
            ({"n_samples": 1}, "n_samples"),
            # the sample count is checked before the subsample is compared with it
            ({"n_samples": -1, "estimator": "sampled", "background_subsample": 4}, "n_samples"),
            ({"n_samples": 50.5}, "n_samples"),
            ({"seed": 1.5}, "seed"),
            ({"n_samples": 3}, "n_samples"),  # the default configs have 3 features
            ({"coefficient_configs": (("z", (0.0, 0.0, 0.0)),)}, "noise_sd"),  # default noise: 0
            ({"coefficient_configs": (("z", (0.0, 0.0, 0.0)),), "noise_sd": 0.0}, "noise_sd"),
            ({"seed": True}, "seed"),
        ],
        ids=["rho-range", "rho-nan", "no-configs", "ragged-widths", "empty-coefficients",
             "coefficient-inf", "noise-nan", "noise-inf", "noise-negative",
             "subsample-over-samples", "duplicate-ids", "n-samples-one", "n-samples-before-subsample",
             "n-samples-float", "seed-float", "n-samples-not-above-features",
             "all-zero-coefficients-default-noise", "all-zero-coefficients-zero-noise", "seed-bool"],
    )
    def test_grid_rejects_value_naming_field(self, changes, field):
        with pytest.raises(InvalidValue, match=f"^{field} "):
            GridSpec(**changes)

    def test_unknown_estimator(self):
        with pytest.raises(InvalidValue, match="^unknown estimator 'x'$"):
            GridSpec(estimator="x")
        with pytest.raises(InvalidValue, match="^unknown estimator 'x'$"):
            run_cell(spec(0.0, n=30), estimator="x")
        with pytest.raises(InvalidValue, match="^unknown estimator 'x'$"):  # before any draw
            run_cell(spec(-0.8, n=30), estimator="x")

    @pytest.mark.parametrize("rho, estimator", [(0.0, "linear"), (-0.8, "sampled")],
                             ids=["linear", "sampled-non-pd"])
    def test_cell_subsample_over_samples(self, rho, estimator):
        with pytest.raises(InvalidValue, match="^background_subsample 31 exceeds n_samples 30$"):
            run_cell(spec(rho, n=30), estimator=estimator, background_subsample=31)

    def test_numpy_integers_are_integers(self):
        grid = GridSpec(rho_values=(0.0,), n_samples=np.int64(40), seed=np.uint64(7), estimator="sampled",
                        permutations=np.int32(2), background_subsample=np.int64(5))
        assert run_grid(grid).rows() == run_grid(GridSpec(
            rho_values=(0.0,), n_samples=40, seed=7, estimator="sampled", permutations=2,
            background_subsample=5)).rows()

    def test_rho_values_are_floats(self):
        rhos = GridSpec(rho_values=[0, 1]).rho_values
        assert rhos == (0.0, 1.0) and all(type(rho) is float for rho in rhos)

    def test_deterministic_across_threads(self):
        gs = GridSpec(rho_values=(0.0, 0.4), n_samples=300, seed=5)
        a = run_grid(gs)
        b = run_grid(gs)
        assert a.rows() == b.rows()

    @pytest.mark.parametrize("subsample", [None, 1])
    def test_sampled_grid_ignores_row_limit(self, monkeypatch, subsample):
        # 8192 evaluates a cell's instances in one block, 1 one mask per call
        spec = GridSpec(rho_values=(0.0, 0.6), n_samples=30, seed=4, estimator="sampled", permutations=4,
                        background_subsample=subsample)
        runs = []
        for limit in (8192, 1):
            monkeypatch.setattr(shapr2.shapley, "_BATCH_ROW_LIMIT", limit)
            runs.append(repr(run_grid(spec).rows()))
        assert runs[0] == runs[1]

    def test_default_grid_trend(self):
        grid = run_grid(GridSpec(seed=0))
        for (config_id, _), row in zip(grid.spec.coefficient_configs, grid.cells):
            by_rho = dict(zip(grid.spec.rho_values, row))
            for rho, cell in by_rho.items():
                expected = "skipped_non_pd" if rho <= -0.5 else "completed"
                assert cell.status == expected, (config_id, rho)
            sigmas = [
                cell.sigma_unique for cell in row if cell.status == "completed"
            ]
            # sigma decays with correlation; allow one Monte Carlo wobble
            violations = sum(1 for a, b in zip(sigmas, sigmas[1:]) if b > a)
            assert violations <= 1, (config_id, sigmas)
            assert by_rho[0.0].sigma_unique - by_rho[0.8].sigma_unique >= 0.2

    def test_grid_rows_schema(self):
        grid = run_grid(
            GridSpec(rho_values=(-0.6, 0.0), n_samples=200, seed=3)
        )
        rows = grid.rows()
        assert len(rows) == 6
        rho, config_id, status, sigma, r2 = rows[0]
        assert status == "skipped_non_pd" and sigma is None and r2 is None
        completed = [r for r in rows if r[2] == "completed"]
        assert all(isinstance(r[3], float) for r in completed)


class TestArrayCoefficients:
    """Coefficients given as numpy arrays make the same spec as float tuples."""

    def test_cell_spec(self):
        values = {"rho": 0.1, "n_samples": 10, "noise_sd": 1.0, "seed": 1}
        array = UniformCorrelationSpec(coefficients=np.array([1.0, 2.0]), **values)
        plain = UniformCorrelationSpec(coefficients=(1.0, 2.0), **values)
        assert array == plain and hash(array) == hash(plain)
        assert run_cell(array) == run_cell(plain)

    @pytest.mark.parametrize("estimator", ["linear", "sampled"])
    def test_grid(self, estimator):
        configs = (("equal", (1.0, 1.0, 1.0)), ("one_zero", (1, 1, 0)))
        arrays = tuple((config_id, np.array(c, dtype=np.float32)) for config_id, c in configs)
        values = {"rho_values": (0.0, 0.4, -0.8), "n_samples": 40, "seed": 3,
                  "estimator": estimator, "permutations": 4}
        array, plain = GridSpec(coefficient_configs=arrays, **values), GridSpec(coefficient_configs=configs, **values)
        assert array == plain and hash(array) == hash(plain)
        array_grid, plain_grid = run_grid(array), run_grid(plain)
        assert array_grid.rows() == plain_grid.rows()
        assert dumps(_grid_summary(array_grid)) == dumps(_grid_summary(plain_grid))
