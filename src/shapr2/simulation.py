"""Correlated-feature simulation: how feature correlation erodes the
uniquely-assignable share of model-explained variance.

Data are drawn from multivariate standard normals with a uniform off-diagonal
correlation, a linear outcome is generated and refit by OLS, attributions are
computed (closed form by default, permutation sampling optionally), and the
unique-variance ratio is recorded per (correlation, coefficient-config) cell.
Cells whose correlation matrix is not positive definite are skipped and
flagged rather than failed: for 3 features the uniform matrix is PD iff
rho > -1/2.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InvalidMatrix, InvalidValue, NonPositiveDefinite
from .metrics import decompose
from .models import fit_ols
from .shapley import BackgroundSet, SamplingConfig, check_seed, derive_seed, linear_shapley, sampled_shapley

#: Pivot tolerance below which the Cholesky factorization is declared
#: non-positive-definite.
PD_PIVOT_TOL = 1e-12

DEFAULT_RHO_VALUES = tuple(round(-0.8 + 0.2 * k, 10) for k in range(9))
DEFAULT_COEFFICIENT_CONFIGS = (
    ("equal", (1.0, 1.0, 1.0)),
    ("dominant", (4.0, 1.0, 1.0)),
    ("one_zero", (1.0, 1.0, 0.0)),
)


def _check_cell_values(rho: float, coefficients, noise_sd: float | None) -> None:
    """The rules on a cell's correlation, coefficients and noise, shared by
    :class:`UniformCorrelationSpec` and :class:`GridSpec`."""
    if not -1.0 <= rho <= 1.0:
        raise InvalidValue(f"rho {rho} is outside [-1, 1]")
    if not coefficients:
        raise InvalidValue("coefficients is empty")
    if not all(math.isfinite(c) for c in coefficients):
        raise InvalidValue(f"coefficients must be finite, got {list(coefficients)}")
    if noise_sd is not None and not math.isfinite(noise_sd):
        raise InvalidValue(f"noise_sd must be finite, got {noise_sd}")
    if noise_sd is not None and noise_sd < 0:
        raise InvalidValue("noise_sd must be >= 0")


@dataclass(frozen=True)
class UniformCorrelationSpec:
    """One simulation cell: ``len(coefficients)`` standard-normal features
    with common off-diagonal correlation ``rho``, linear outcome, Gaussian
    noise."""

    rho: float
    n_samples: int
    coefficients: tuple[float, ...]
    noise_sd: float
    seed: int

    def __post_init__(self):
        _check_cell_values(self.rho, self.coefficients, self.noise_sd)
        if self.n_samples < 2:
            raise InvalidValue("n_samples must be >= 2")
        check_seed(self.seed)
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))

    @property
    def feature_count(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class SimulationCell:
    spec: UniformCorrelationSpec
    status: str  # "completed" | "skipped_non_pd"
    sigma_unique: float | None = None
    baseline_r2: float | None = None


@dataclass(frozen=True)
class GridSpec:
    rho_values: tuple[float, ...] = DEFAULT_RHO_VALUES
    coefficient_configs: tuple[tuple[str, tuple[float, ...]], ...] = DEFAULT_COEFFICIENT_CONFIGS
    n_samples: int = 2000
    seed: int = 0
    noise_sd: float | None = None  # None: ||coefficients||_2 per config, so the
    #                                population fit is 0.5 at rho = 0
    estimator: str = "linear"  # "linear" | "sampled"
    permutations: int = 200
    background_subsample: int | None = None

    def __post_init__(self):
        """Every cell's values obey the cell rules, and all coefficient
        configs have one width, which is the grid's feature count."""
        if not self.coefficient_configs:
            raise InvalidValue("coefficient_configs is empty")
        if len({len(c) for _, c in self.coefficient_configs}) != 1:
            raise InvalidValue("coefficient_configs have inconsistent lengths")
        rhos = tuple(float(rho) for rho in self.rho_values)
        for rho in rhos:
            for _, coefficients in self.coefficient_configs:
                _check_cell_values(rho, coefficients, self.noise_sd)
        object.__setattr__(self, "rho_values", rhos)
        if self.estimator not in ("linear", "sampled"):
            raise InvalidValue(f"unknown estimator {self.estimator!r}")
        if not self.rho_values:
            raise InvalidValue("rho_values is empty")
        # checked for every estimator, so an invalid value is never ignored
        SamplingConfig(self.permutations, self.seed, self.background_subsample)
        if self.background_subsample is not None and self.background_subsample > self.n_samples:
            raise InvalidValue(
                f"background_subsample {self.background_subsample} exceeds "
                f"n_samples {self.n_samples}"
            )


@dataclass(frozen=True)
class SimulationGrid:
    spec: GridSpec
    cells: tuple[tuple[SimulationCell, ...], ...]  # [config][rho]

    def rows(self):
        """Long-format rows: (rho, config_id, status, sigma_unique, baseline_r2)."""
        out = []
        for (config_id, _), row in zip(self.spec.coefficient_configs, self.cells):
            for rho, cell in zip(self.spec.rho_values, row):
                out.append((rho, config_id, cell.status, cell.sigma_unique, cell.baseline_r2))
        return out


def uniform_correlation_matrix(feature_count: int, rho: float) -> np.ndarray:
    corr = np.full((feature_count, feature_count), float(rho))
    np.fill_diagonal(corr, 1.0)
    return corr


def cholesky_factor(corr) -> np.ndarray:
    """Lower-triangular L with L L^T equal to the correlation matrix.

    Raises InvalidMatrix for structurally bad input (not square/symmetric,
    diagonal not 1) and NonPositiveDefinite when a pivot falls at or below
    ``PD_PIVOT_TOL``.
    """
    a = np.asarray(corr, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix("correlation matrix must be square")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("correlation matrix contains non-finite entries")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise InvalidMatrix("correlation matrix must be symmetric")
    if not np.allclose(np.diag(a), 1.0, rtol=0.0, atol=1e-12):
        raise InvalidMatrix("correlation matrix must have a unit diagonal")
    n = a.shape[0]
    lower = np.zeros((n, n))
    for j in range(n):
        pivot = a[j, j] - float(lower[j, :j] @ lower[j, :j])
        if pivot <= PD_PIVOT_TOL:
            raise NonPositiveDefinite(
                f"pivot {pivot:.3e} at column {j} is <= {PD_PIVOT_TOL:.0e}"
            )
        lower[j, j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            lower[i, j] = (a[i, j] - float(lower[i, :j] @ lower[j, :j])) / lower[j, j]
    return lower


def sample_mvn(spec: UniformCorrelationSpec) -> np.ndarray:
    """N x F draw with standard normal marginals and uniform correlation.

    Deterministic for a fixed spec seed; propagates NonPositiveDefinite.
    """
    lower = cholesky_factor(uniform_correlation_matrix(spec.feature_count, spec.rho))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(spec.seed)))
    z = rng.standard_normal((spec.n_samples, spec.feature_count))
    return z @ lower.T


def run_cell(
    spec: UniformCorrelationSpec,
    *,
    estimator: str = "linear",
    permutations: int = 200,
    background_subsample: int | None = None,
) -> SimulationCell:
    """Simulate one cell: draw data, fit OLS, attribute, decompose.

    A non-positive-definite correlation matrix yields a skipped cell rather
    than an error; all other failures propagate.
    """
    try:
        x = sample_mvn(dataclasses.replace(spec, seed=derive_seed(spec.seed, 1)))
    except NonPositiveDefinite:
        return SimulationCell(spec=spec, status="skipped_non_pd")

    noise_rng = np.random.Generator(np.random.Philox(key=np.uint64(derive_seed(spec.seed, 2))))
    beta = np.asarray(spec.coefficients)
    y = x @ beta + spec.noise_sd * noise_rng.standard_normal(spec.n_samples)

    dataset = Dataset(x=x, y=y)
    model = fit_ols(dataset)
    yhat = model.predict_batch(x)
    background = BackgroundSet(x)

    if estimator == "linear":
        matrix = linear_shapley(model.coefficients, model.intercept, dataset, background)
    elif estimator == "sampled":
        config = SamplingConfig(
            permutations_per_instance=permutations,
            seed=derive_seed(spec.seed, 3),
            background_subsample=background_subsample,
        )
        matrix = sampled_shapley(model, dataset, background, config)
    else:
        raise InvalidValue(f"unknown estimator {estimator!r}")

    result = decompose(y, yhat, matrix)
    return SimulationCell(
        spec=spec,
        status="completed",
        sigma_unique=result.sigma_unique,
        baseline_r2=result.baseline_r2,
    )


def run_grid(grid: GridSpec) -> SimulationGrid:
    """Evaluate every (coefficient config, rho) cell of the grid.

    Cell seeds derive from the master seed and the cell coordinates, so the
    grid is deterministic and independent of evaluation order.
    """
    cells = []
    for c, (_, coefficients) in enumerate(grid.coefficient_configs):
        noise_sd = (
            float(np.linalg.norm(coefficients))
            if grid.noise_sd is None
            else grid.noise_sd
        )
        row = []
        for r, rho in enumerate(grid.rho_values):
            spec = UniformCorrelationSpec(
                rho=rho,
                n_samples=grid.n_samples,
                coefficients=tuple(coefficients),
                noise_sd=noise_sd,
                seed=derive_seed(grid.seed, r, c),
            )
            row.append(
                run_cell(
                    spec,
                    estimator=grid.estimator,
                    permutations=grid.permutations,
                    background_subsample=grid.background_subsample,
                )
            )
        cells.append(tuple(row))
    return SimulationGrid(spec=grid, cells=tuple(cells))
