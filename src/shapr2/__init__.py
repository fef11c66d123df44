"""Shapley-value variance decomposition of R-squared.

Given a dataset and either a predictor or pre-computed per-feature
attributions, produce per-feature shares of the model's explained variance
that sum to the overall bounded fit, plus the unique-variance robustness
diagnostic and the correlation simulation that characterizes it.

The public names load on first use (PEP 562), so ``import shapr2`` loads
neither numpy nor a submodule; a program that sets numpy's environment can
import the package first.
"""

import importlib

#: Each public name, by the submodule that defines it.
_EXPORTS = {
    "data": ("Dataset",),
    "metrics": ("R2Decomposition", "ShapleyMatrix", "baseline_r2", "classical_r2", "decompose",
                "feature_r2_decomposition", "sample_variance", "shapley_modified_predictions",
                "unique_variance_ratio"),
    "models": ("LinearModel", "Stump", "StumpEnsemble", "fit_ols", "fit_stump_ensemble",
               "tune_iterations"),
    "shapley": ("BackgroundSet", "Predictor", "SamplingConfig", "coalition_value", "exact_shapley",
                "linear_shapley", "sampled_shapley"),
    "simulation": ("GridSpec", "SimulationCell", "SimulationGrid", "UniformCorrelationSpec",
                   "cholesky_factor", "run_cell", "run_grid", "sample_mvn",
                   "uniform_correlation_matrix"),
    "report": ("__version__",),  # report.VERSION
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors"}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = module.VERSION if name == "__version__" else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
