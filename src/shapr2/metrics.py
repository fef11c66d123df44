"""Variance accounting over predictions and per-feature attributions.

Everything here is a pure, deterministic function of its inputs. The central
objects are:

* the classical explained-variance ratio ``var(yhat) / var(y)``,
* the bounded model fit ``var(yhat) / (var(yhat) + var(residuals))``, which
  stays in [0, 1] for arbitrary (including overfit) models,
* the per-feature decomposition of that bounded fit obtained by subtracting
  each feature's attribution column from the predictions, measuring how much
  the residual variance grows, and renormalizing the growth onto a simplex,
* ``sigma_unique``, the share of model-explained variance that the features
  can claim individually rather than jointly.

All variances are unbiased sample variances (N-1 denominator). The estimator
choice cancels in every ratio; consistency is what matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import as_float_array
from .errors import DegenerateInput, ModelExplainsNothing, ShapeError

PROVENANCES = ("exact", "sampled", "closed_form_linear", "ingested")


def sample_variance(values) -> float:
    """Unbiased sample variance (N-1 denominator) of a finite vector."""
    v = as_float_array(values, "values", 1)
    if v.size < 2:
        raise DegenerateInput(f"need at least 2 values, got {v.size}")
    return float(np.var(v, ddof=1))


def _paired(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    yv = as_float_array(y, "y", 1)
    ph = as_float_array(yhat, "yhat", 1)
    if yv.shape[0] != ph.shape[0]:
        raise ShapeError(f"y has length {yv.shape[0]} but yhat has {ph.shape[0]}")
    if yv.size < 2:
        raise DegenerateInput(f"need at least 2 observations, got {yv.size}")
    return yv, ph


def classical_r2(y, yhat) -> float:
    """Ratio of prediction variance to outcome variance.

    Not clamped: an overfit or rescaled model can push this above 1; callers
    wanting a bounded metric should use :func:`baseline_r2`.
    """
    yv, ph = _paired(y, yhat)
    var_y = float(np.var(yv, ddof=1))
    if var_y == 0.0:
        raise DegenerateInput("outcome has zero variance")
    return float(np.var(ph, ddof=1)) / var_y


def _bounded_fit(yv: np.ndarray, ph: np.ndarray) -> tuple[float, float]:
    """``(baseline_r2, var_res)`` of vectors already checked by ``_paired``."""
    var_hat = float(np.var(ph, ddof=1))
    var_res = float(np.var(yv - ph, ddof=1))
    total = var_hat + var_res
    if total == 0.0:
        raise DegenerateInput("constant outcome perfectly predicted; fit undefined")
    return var_hat / total, var_res


def baseline_r2(y, yhat) -> float:
    """Bounded model fit: var(yhat) / (var(yhat) + var(y - yhat)), in [0, 1]."""
    return _bounded_fit(*_paired(y, yhat))[0]


@dataclass(frozen=True)
class ShapleyMatrix:
    """Per-instance, per-feature attributions plus the shared base value.

    `phi` is N x F; `phi0` is the base value (may be None for ingested
    matrices, where it is optional and used only for an additivity check).
    `provenance` records how the matrix was produced: one of
    ``exact``, ``sampled``, ``closed_form_linear``, ``ingested``.
    """

    phi: np.ndarray
    phi0: float | None
    feature_names: tuple[str, ...] = field(default=())
    provenance: str = "ingested"

    def __post_init__(self):
        phi = as_float_array(self.phi, "phi", 2)
        object.__setattr__(self, "phi", phi)
        if self.phi0 is not None:
            phi0 = float(self.phi0)
            if not np.isfinite(phi0):
                raise DegenerateInput("phi0 must be finite")
            object.__setattr__(self, "phi0", phi0)
        if self.provenance not in PROVENANCES:
            raise ShapeError(f"unknown provenance {self.provenance!r}")
        if not self.feature_names:
            object.__setattr__(
                self,
                "feature_names",
                tuple(f"x{i + 1}" for i in range(phi.shape[1])),
            )
        elif len(self.feature_names) != phi.shape[1]:
            raise ShapeError(
                f"{len(self.feature_names)} feature names for {phi.shape[1]} columns"
            )

    @property
    def n_rows(self) -> int:
        return self.phi.shape[0]

    @property
    def n_features(self) -> int:
        return self.phi.shape[1]

    def additivity_gap(self, yhat) -> float:
        """Largest relative violation of phi0 + sum_f phi[i] == yhat[i]."""
        if self.phi0 is None:
            raise DegenerateInput("matrix has no phi0; additivity is unchecked")
        ph = as_float_array(yhat, "yhat", 1)
        if ph.shape[0] != self.n_rows:
            raise ShapeError("yhat length does not match attribution rows")
        gap = self.phi.sum(axis=1)  # |phi0 + sum - yhat| / max(|yhat|, 1), in place
        gap += self.phi0
        gap -= ph
        np.abs(gap, out=gap)
        scale = np.abs(ph)
        gap /= np.maximum(scale, 1.0, out=scale)
        return float(gap.max())


def shapley_modified_predictions(yhat, phi) -> np.ndarray:
    """N x F matrix whose (i, f) entry is yhat[i] minus feature f's attribution.

    Column f is the prediction vector with feature f's marginal contribution
    removed; one modified prediction per instance per feature.
    """
    ph = as_float_array(yhat, "yhat", 1)
    mat = phi.phi if isinstance(phi, ShapleyMatrix) else as_float_array(phi, "phi", 2)
    if mat.shape[0] != ph.shape[0]:
        raise ShapeError(
            f"phi has {mat.shape[0]} rows but yhat has length {ph.shape[0]}"
        )
    return ph[:, None] - mat


@dataclass(frozen=True)
class R2Decomposition:
    """Per-feature shares of the bounded model fit.

    ``feature_r2`` sums to ``baseline_r2``; ``feature_shares`` is the simplex
    of normalized weights (sums to 1 unless the decomposition is null);
    ``variance_ratios`` holds the clamped var_res_baseline / var_res_modified
    terms; ``ranking`` orders feature indices by descending feature_r2 with
    ties broken by ascending index. ``sigma_unique`` is None only when the
    model explains no variance at all.
    """

    baseline_r2: float
    feature_r2: np.ndarray
    feature_shares: np.ndarray
    variance_ratios: np.ndarray
    sigma_unique_raw: float | None
    sigma_unique: float | None
    ranking: tuple[int, ...]
    feature_names: tuple[str, ...]
    all_features_null: bool = False
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("feature_r2", "feature_shares", "variance_ratios"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _ranking(feature_r2: np.ndarray) -> tuple[int, ...]:
    order = sorted(range(feature_r2.size), key=lambda f: (-feature_r2[f], f))
    return tuple(order)


def _checked_inputs(y, yhat, phi) -> tuple[np.ndarray, np.ndarray, ShapleyMatrix]:
    """The paired outcome and prediction vectors, and ``phi`` as a
    :class:`ShapleyMatrix` (a raw array gets the default feature names)."""
    yv, ph = _paired(y, yhat)
    matrix = phi if isinstance(phi, ShapleyMatrix) else ShapleyMatrix(phi, None)
    if matrix.n_rows != yv.shape[0]:
        raise ShapeError("phi rows do not match observation count")
    return yv, ph, matrix


def _modified_residual_variances(yv: np.ndarray, ph: np.ndarray, mat: np.ndarray) -> np.ndarray:
    # Column-by-column, through the same 1-D code path as the baseline
    # residual variance: an all-zero attribution column then reproduces the
    # baseline variance bit-for-bit, so its ratio is exactly 1 and its weight
    # exactly 0.
    out = np.empty(mat.shape[1])
    for f in range(mat.shape[1]):
        out[f] = np.var(yv - (ph - mat[:, f]), ddof=1)
    return out


def unique_variance_ratio(y, yhat, phi, *, eq7_as_printed: bool = False):
    """Share of model-explained variance uniquely attributable to features.

    Returns ``(raw, clamped)``. The raw numerator sums, over features, the
    *increase* in residual variance caused by removing each feature's
    attribution from the predictions; the denominator is the variance the
    model explains, var(y) - var(y - yhat). Sampling noise in stochastic
    attributions can push the raw value slightly outside [0, 1], hence the
    clamped companion.

    ``eq7_as_printed=True`` switches the numerator to the plain sum of
    modified-residual variances (no subtraction). That form does not equal 1
    for uncorrelated features and is exposed only for comparison.
    """
    yv, ph, matrix = _checked_inputs(y, yhat, phi)
    var_res = float(np.var(yv - ph, ddof=1))
    per_feature = _modified_residual_variances(yv, ph, matrix.phi)
    return _unique_ratio(float(np.var(yv, ddof=1)), var_res, per_feature, eq7_as_printed)


def _unique_ratio(var_y: float, var_res: float, per_feature: np.ndarray, eq7_as_printed: bool):
    """:func:`unique_variance_ratio` from the outcome, residual and
    modified-residual variances."""
    denom = var_y - var_res
    if denom <= 0.0:
        raise ModelExplainsNothing(
            "residual variance is not below outcome variance; "
            "the unique-variance ratio is undefined"
        )
    if eq7_as_printed:
        numerator = float(per_feature.sum())
    else:
        numerator = float((per_feature - var_res).sum())
    raw = numerator / denom
    return raw, min(max(raw, 0.0), 1.0)


def feature_r2_decomposition(y, yhat, phi, *, eq7_as_printed: bool = False) -> R2Decomposition:
    """Decompose the bounded model fit into per-feature shares; also exported
    as :func:`decompose`, the single-call pipeline. Deterministic.

    For each feature, the predictions are modified by removing that feature's
    attribution column; the ratio of baseline to modified residual variance is
    clamped at 1 (removing a feature must not be credited for *improving* the
    fit, which stochastic attributions occasionally produce); the clamp-scaled
    deficits are normalized onto a simplex and rescaled by the baseline fit so
    the shares sum to it exactly.

    When every feature's ratio clamps (no feature increases residual
    variance), the result is the distinct all-null outcome: zero shares
    alongside the baseline value, rather than a division by zero.
    """
    yv, ph, matrix = _checked_inputs(y, yhat, phi)
    var_y = float(np.var(yv, ddof=1))
    if var_y == 0.0:
        raise DegenerateInput("outcome has zero variance")

    r2b, var_res = _bounded_fit(yv, ph)
    per_feature_var = _modified_residual_variances(yv, ph, matrix.phi)
    with np.errstate(divide="ignore", invalid="ignore"):  # v == 0 gives inf: 0 / 0 clamps to 1
        raw_ratios = np.where(per_feature_var == 0.0, np.inf, var_res / per_feature_var)
    ratios = np.minimum(raw_ratios, 1.0)
    warnings = [
        f"variance ratio for feature {matrix.feature_names[f]!r} clamped to 1 "
        f"(removal reduced residual variance)"
        for f in np.flatnonzero(raw_ratios > 1.0)
    ]

    weights = r2b - ratios * r2b
    weight_sum = float(weights.sum())
    null = weight_sum <= 0.0
    shares = np.zeros(matrix.n_features) if null else weights / weight_sum
    feature_r2 = shares * r2b
    if null:
        warnings.append(
            "no feature increases residual variance; "
            "feature-level shares are all zero"
        )
    try:
        sigma_raw, sigma = _unique_ratio(var_y, var_res, per_feature_var, eq7_as_printed)
    except ModelExplainsNothing:
        if not null:
            raise
        sigma_raw = sigma = None
        warnings.append("model explains no variance; sigma_unique is undefined")

    return R2Decomposition(
        baseline_r2=r2b,
        feature_r2=feature_r2,
        feature_shares=shares,
        variance_ratios=ratios,
        sigma_unique_raw=sigma_raw,
        sigma_unique=sigma,
        ranking=_ranking(feature_r2),
        feature_names=matrix.feature_names,
        all_features_null=null,
        warnings=tuple(warnings),
    )


decompose = feature_r2_decomposition
