"""Built-in regression models: OLS and gradient-boosted stumps.

Just enough model zoo for the full fit / explain / decompose pipeline to run
without external ML dependencies, including the underfit-to-overfit sweep
(boosted stumps tuned to a requested training fit). Fitted models are
immutable and safe for concurrent prediction, and round-trip through a JSON
document (:func:`model_document`, :func:`model_from_document`).

A stump ensemble is compiled once, on construction, into one step table per
feature: the feature's sorted thresholds and the summed contribution of all
its stumps between consecutive thresholds. Prediction is then one
``searchsorted`` per feature instead of one pass per stump. The sum is taken
in a different order than stump by stump, so predictions agree with the
per-stump sum to about 1e-15 relative, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, has_json_type, json_floats
from .errors import (
    InvalidValue,
    NoValidSplit,
    ShapeError,
    SingularDesign,
    TargetUnreachable,
    ValidationError,
)
from .metrics import baseline_r2

#: :func:`tune_iterations` boosts at most this many rounds, and accepts a
#: training fit within ``TUNE_TOLERANCE`` of the target.
TUNE_MAX_ITERATIONS = 20000
TUNE_TOLERANCE = 0.01


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.coefficients, dtype=float)
        if beta.ndim != 1:
            raise ShapeError("coefficients must be a vector")
        if not (np.all(np.isfinite(beta)) and math.isfinite(float(self.intercept))):
            raise InvalidValue("model parameters must be finite")
        beta = beta.copy()
        beta.flags.writeable = False
        object.__setattr__(self, "coefficients", beta)
        object.__setattr__(self, "intercept", float(self.intercept))

    @property
    def feature_count(self) -> int:
        return self.coefficients.shape[0]

    def predict(self, row) -> float:
        return float(self.intercept + self.coefficients @ np.asarray(row, dtype=float))

    def predict_batch(self, rows) -> np.ndarray:
        return self.intercept + np.asarray(rows, dtype=float) @ self.coefficients


@dataclass(frozen=True)
class Stump:
    feature_index: int
    threshold: float
    left_value: float   # rows with value <= threshold
    right_value: float


@dataclass(frozen=True)
class StumpEnsemble:
    """``init_value`` plus ``learning_rate`` times each stump's leaf value.

    Construction validates the parameters and compiles ``_tables``: for each
    feature with at least one stump, ``(feature, thresholds, steps)`` where
    ``thresholds`` are the feature's stump thresholds, sorted, and
    ``steps[j]`` is the summed scaled leaf value of its stumps for any ``x``
    with ``thresholds[j-1] < x <= thresholds[j]``. A repeated threshold
    leaves a step that no ``x`` reaches; it is kept rather than merged with
    ``np.unique``, which would import ``numpy.ma`` (about 1 MB resident) on
    every run. The tables are not fields, so equality, hashing and repr see
    only the stumps.
    """

    init_value: float
    stumps: tuple[Stump, ...]
    learning_rate: float
    n_features: int

    def __post_init__(self):
        if self.n_features < 1:
            raise ShapeError("n_features must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidValue("learning_rate must be in (0, 1]")
        for s in self.stumps:
            if not 0 <= s.feature_index < self.n_features:
                raise ShapeError(
                    f"stump feature_index {s.feature_index} outside [0, {self.n_features})"
                )
        features = np.array([s.feature_index for s in self.stumps], dtype=np.int64)
        values = np.array(
            [(s.threshold, s.left_value, s.right_value) for s in self.stumps], dtype=float
        ).reshape(-1, 3)
        if not (np.all(np.isfinite(values)) and math.isfinite(self.init_value)):
            raise InvalidValue("model parameters must be finite")
        tables = []
        for f in sorted({s.feature_index for s in self.stumps}):
            mine = values[features == f]
            thresholds, left, right = np.ascontiguousarray(
                mine[np.argsort(mine[:, 0], kind="stable")].T
            )
            # steps[j] holds for x above j of the sorted thresholds and at or
            # below the rest: those j stumps send x right, the others left
            steps = self.learning_rate * (
                np.concatenate(([0.0], np.cumsum(right)))
                + np.concatenate((np.cumsum(left[::-1])[::-1], [0.0]))
            )
            thresholds.flags.writeable = False
            steps.flags.writeable = False
            tables.append((f, thresholds, steps))
        object.__setattr__(self, "_tables", tuple(tables))

    @property
    def feature_count(self) -> int:
        return self.n_features

    def predict(self, row) -> float:
        return float(self.predict_batch(np.asarray(row, dtype=float)[None])[0])

    def predict_batch(self, rows) -> np.ndarray:
        # searchsorted's side="left" sends x == threshold left, and NaN,
        # which sorts last, right, as ``x <= threshold`` does
        x = np.asarray(rows, dtype=float)
        out = np.full(x.shape[0], self.init_value)
        for f, thresholds, steps in self._tables:
            out += steps[np.searchsorted(thresholds, x[:, f])]
        return out


def model_document(model) -> dict:
    """The JSON document of a fitted model: its type and its fields."""
    if isinstance(model, LinearModel):
        return {
            "type": "linear",
            "intercept": model.intercept,
            "coefficients": [float(c) for c in model.coefficients],
        }
    if isinstance(model, StumpEnsemble):
        return {
            "type": "stump_ensemble",
            "init_value": model.init_value,
            "learning_rate": model.learning_rate,
            "n_features": model.n_features,
            "stumps": [
                {
                    "feature_index": s.feature_index,
                    "threshold": s.threshold,
                    "left_value": s.left_value,
                    "right_value": s.right_value,
                }
                for s in model.stumps
            ],
        }
    raise InvalidValue(f"cannot serialize model of type {type(model).__name__}")


def _document_value(record, key: str, types=(int, float), expected: str = "a number"):
    """``record[key]``, which must have one of the JSON ``types``."""
    if not isinstance(record, dict):
        raise ValidationError(f"model document: expected an object, got {record!r}")
    if key not in record:
        raise ValidationError(f"model document: missing key {key!r}")
    value = record[key]
    if not has_json_type(value, types):
        raise ValidationError(f"model document: {key} must be {expected}, got {value!r}")
    return value


def model_from_document(doc: dict):
    """Rebuild a fitted model from its JSON document. A document that is not
    an object, lacks a key or holds a value of the wrong JSON type raises
    ValidationError."""
    if not isinstance(doc, dict):
        raise ValidationError(f"model document: expected an object, got {doc!r}")
    kind = doc.get("type")
    try:
        if kind == "linear":
            coefficients = _document_value(doc, "coefficients", list, "a list of numbers")
            return LinearModel(  # keywords in the order the document is checked
                coefficients=json_floats(coefficients, "model document: coefficients"),
                intercept=float(_document_value(doc, "intercept")),
            )
        if kind == "stump_ensemble":
            return StumpEnsemble(
                init_value=float(_document_value(doc, "init_value")),
                stumps=tuple(
                    Stump(
                        feature_index=_document_value(s, "feature_index", int, "an integer"),
                        threshold=float(_document_value(s, "threshold")),
                        left_value=float(_document_value(s, "left_value")),
                        right_value=float(_document_value(s, "right_value")),
                    )
                    for s in _document_value(doc, "stumps", list, "a list")
                ),
                learning_rate=float(_document_value(doc, "learning_rate")),
                n_features=_document_value(doc, "n_features", int, "an integer"),
            )
    except OverflowError:
        raise ValidationError("model document: a number is out of float range") from None
    raise ValidationError(f"unknown model document type {kind!r}")


def fit_ols(dataset: Dataset) -> LinearModel:
    """Least squares with intercept, solved via QR orthogonalization.

    QR rather than normal equations so near-collinear simulation designs
    don't lose half the working precision; exact rank deficiency raises
    SingularDesign.
    """
    if dataset.y is None:
        raise InvalidValue("dataset has no outcome column to fit")
    x, y = dataset.x, dataset.y
    n, f = x.shape
    if n <= f:
        raise SingularDesign(f"need more rows ({n}) than features ({f}) plus intercept")
    design = np.column_stack([np.ones(n), x])
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if diag.min() <= diag.max() * n * np.finfo(float).eps:
        raise SingularDesign("design matrix is rank deficient")
    beta = np.linalg.solve(r, q.T @ y)
    return LinearModel(intercept=float(beta[0]), coefficients=beta[1:])


def _split_candidates(x: np.ndarray):
    """Per feature: (sort order, boundary positions, thresholds).

    Thresholds sit at midpoints between consecutive distinct sorted values;
    a boundary at position i splits sorted rows [0..i] from [i+1..].
    """
    candidates = []
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        boundaries = np.nonzero(xs[1:] > xs[:-1])[0]
        thresholds = (xs[boundaries] + xs[boundaries + 1]) / 2.0
        candidates.append((order, boundaries, thresholds))
    return candidates


def _best_stump(x: np.ndarray, residual: np.ndarray, candidates) -> Stump:
    n = x.shape[0]
    best_score = -np.inf
    best: Stump | None = None
    for f, (order, boundaries, thresholds) in enumerate(candidates):
        if boundaries.size == 0:
            continue
        rs = residual[order]
        csum = np.cumsum(rs)
        total = csum[-1]
        n_left = boundaries + 1
        left_sum = csum[boundaries]
        right_sum = total - left_sum
        n_right = n - n_left
        # maximizing L^2/nL + R^2/nR minimizes the squared error of the fit
        scores = left_sum**2 / n_left + right_sum**2 / n_right
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            best = Stump(
                feature_index=f,
                threshold=float(thresholds[k]),
                left_value=float(left_sum[k] / n_left[k]),
                right_value=float(right_sum[k] / n_right[k]),
            )
    assert best is not None
    return best


def _boost_steps(dataset: Dataset, iterations: int, learning_rate: float):
    """The boosting loop: yields ``(stump, training_r2)`` for each of up to
    ``iterations`` rounds, where ``training_r2`` is the bounded fit of the
    ensemble after adding that stump. The ensemble starts at the outcome mean.
    """
    if dataset.y is None:
        raise InvalidValue("dataset has no outcome column to fit")
    if iterations < 1:
        raise InvalidValue("iterations must be >= 1")
    if not 0.0 < learning_rate <= 1.0:
        raise InvalidValue("learning_rate must be in (0, 1]")
    x, y = dataset.x, dataset.y
    if x.shape[0] < 2:
        raise InvalidValue("need at least 2 rows to boost")
    candidates = _split_candidates(x)
    if all(b.size == 0 for _, b, _ in candidates):
        raise NoValidSplit("every feature column is constant")

    pred = np.full(x.shape[0], float(y.mean()))
    for _ in range(iterations):
        stump = _best_stump(x, y - pred, candidates)
        pred = pred + learning_rate * np.where(
            x[:, stump.feature_index] <= stump.threshold,
            stump.left_value,
            stump.right_value,
        )
        yield stump, baseline_r2(y, pred)


def _ensemble(dataset: Dataset, stumps, learning_rate: float) -> StumpEnsemble:
    return StumpEnsemble(
        init_value=float(dataset.y.mean()),
        stumps=tuple(stumps),
        learning_rate=learning_rate,
        n_features=dataset.n_features,
    )


def fit_stump_ensemble(
    dataset: Dataset, iterations: int, learning_rate: float = 0.1
) -> StumpEnsemble:
    """Gradient boosting on squared error with depth-1 trees.

    Each round greedily picks the (feature, threshold) minimizing the
    residual sum of squares over midpoint thresholds; ties go to the lower
    feature index, then the lower threshold. Training fit is non-decreasing
    in the iteration count.
    """
    stumps = [stump for stump, _ in _boost_steps(dataset, iterations, learning_rate)]
    return _ensemble(dataset, stumps, learning_rate)


def tune_iterations(dataset: Dataset, target_r2: float, learning_rate: float = 0.1):
    """Search the iteration count whose training fit is closest to a target.

    The training fit is non-decreasing in iterations, so a single incremental
    pass to the first crossing finds the best count. Returns
    ``(model, achieved_r2, iterations)``; raises TargetUnreachable when no
    count up to ``TUNE_MAX_ITERATIONS`` lands within ``TUNE_TOLERANCE``.
    """
    if not 0.0 < target_r2 < 1.0:
        raise InvalidValue("target_r2 must be in (0, 1)")
    stumps: list[Stump] = []
    best_k, best_r2, best_gap = 0, math.nan, math.inf
    for stump, r2 in _boost_steps(dataset, TUNE_MAX_ITERATIONS, learning_rate):
        stumps.append(stump)
        gap = abs(r2 - target_r2)
        if gap < best_gap:
            best_k, best_r2, best_gap = len(stumps), r2, gap
        if r2 >= target_r2:
            break
    if best_gap > TUNE_TOLERANCE:
        raise TargetUnreachable(
            f"closest training fit to {target_r2} is {best_r2:.4f} "
            f"at {best_k} iterations (gap {best_gap:.4f} > {TUNE_TOLERANCE})"
        )
    return _ensemble(dataset, stumps[:best_k], learning_rate), best_r2, best_k
