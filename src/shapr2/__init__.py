"""Shapley-value variance decomposition of R-squared.

Given a dataset and either a predictor or pre-computed per-feature
attributions, produce per-feature shares of the model's explained variance
that sum to the overall bounded fit, plus the unique-variance robustness
diagnostic and the correlation simulation that characterizes it.
"""

from .data import Dataset
from .metrics import (
    R2Decomposition,
    ShapleyMatrix,
    baseline_r2,
    classical_r2,
    decompose,
    feature_r2_decomposition,
    sample_variance,
    shapley_modified_predictions,
    unique_variance_ratio,
)
from .models import (
    LinearModel,
    Stump,
    StumpEnsemble,
    fit_ols,
    fit_stump_ensemble,
    tune_iterations,
)
from .shapley import (
    BackgroundSet,
    Predictor,
    SamplingConfig,
    coalition_value,
    exact_shapley,
    linear_shapley,
    sampled_shapley,
)
from .report import VERSION as __version__
from .simulation import (
    GridSpec,
    SimulationCell,
    SimulationGrid,
    UniformCorrelationSpec,
    cholesky_factor,
    run_cell,
    run_grid,
    sample_mvn,
    uniform_correlation_matrix,
)

__all__ = [
    "Dataset",
    "R2Decomposition",
    "ShapleyMatrix",
    "baseline_r2",
    "classical_r2",
    "decompose",
    "feature_r2_decomposition",
    "sample_variance",
    "shapley_modified_predictions",
    "unique_variance_ratio",
    "LinearModel",
    "Stump",
    "StumpEnsemble",
    "fit_ols",
    "fit_stump_ensemble",
    "tune_iterations",
    "BackgroundSet",
    "Predictor",
    "SamplingConfig",
    "coalition_value",
    "exact_shapley",
    "linear_shapley",
    "sampled_shapley",
    "GridSpec",
    "SimulationCell",
    "SimulationGrid",
    "UniformCorrelationSpec",
    "cholesky_factor",
    "run_cell",
    "run_grid",
    "sample_mvn",
    "uniform_correlation_matrix",
    "__version__",
]
