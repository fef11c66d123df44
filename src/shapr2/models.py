"""Built-in regression models: OLS and gradient-boosted stumps.

Just enough model zoo for the full fit / explain / decompose pipeline to run
without external ML dependencies, including the underfit-to-overfit sweep
(boosted stumps tuned to a requested training fit). Fitted models are
immutable and safe for concurrent prediction, and round-trip through a JSON
document (:func:`model_document`, :func:`model_from_document`).

A stump ensemble is compiled once, on construction, into one step table per
feature: its sorted thresholds and the summed contribution of its stumps
between consecutive thresholds. A prediction looks up one step per feature, not
one per stump, by counting thresholds or, past ``UINT8_MAX_THRESHOLDS``, by
binary search: the same step either way. Summed in another order than stump by
stump, predictions agree with the per-stump sum to about 1e-15 relative, not bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, as_float_array, check_integer, has_json_type, json_floats
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

#: A stump table of at most this many thresholds counts the thresholds at or above
#: a value, a uint8; counting grows with T, so a longer table binary-searches.
UINT8_MAX_THRESHOLDS = np.iinfo(np.uint8).max
#: ``predict_batch`` reads blocks of this many rows: at most 2 MiB of comparisons
#: and counts, and a 64 KiB copy of a strided column.
_BLOCK_ROWS = 8192


def _rows(rows, n_features: int) -> np.ndarray:
    """The input rule of every ``predict_batch``: ``rows`` as a float matrix of
    the model's ``n_features`` columns; any other shape raises ShapeError."""
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] != n_features:
        raise ShapeError(f"rows of shape {x.shape} for a model of {n_features} features")
    return x


@dataclass(frozen=True, eq=False)
class LinearModel:
    """``intercept + coefficients @ x``; :func:`~shapr2.data.as_float_array` checks both parameters."""

    intercept: float
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", as_float_array(self.coefficients, "coefficients", 1))
        object.__setattr__(self, "intercept", float(as_float_array(self.intercept, "intercept", 0)))

    def __eq__(self, other):  # by value: the generated __eq__ asks an array for its truth value
        return type(other) is type(self) and (self.intercept, self.coefficients.tolist()) == (other.intercept, other.coefficients.tolist())

    def __hash__(self):  # of values, not tobytes(): 0.0 == -0.0, so equal models hash equal
        return hash((self.intercept, tuple(self.coefficients.tolist())))

    @property
    def feature_count(self) -> int:
        return self.coefficients.shape[0]

    def predict(self, row) -> float:
        return float(self.predict_batch(np.asarray(row, dtype=float)[None])[0])

    def predict_batch(self, rows) -> np.ndarray:
        # column by column in a fixed order: a BLAS product rounds a row by the rows in its call
        x = _rows(rows, self.feature_count)
        out = np.full(x.shape[0], self.intercept)
        for column, c in zip(x.T, self.coefficients):
            out += column * c
        return out


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
    ``thresholds`` are the feature's distinct stump thresholds, sorted, and
    ``steps[j]`` is the summed scaled leaf value of its stumps for any ``x``
    with ``thresholds[j-1] < x <= thresholds[j]``. Equal thresholds are merged
    by comparing neighbours in the sorted thresholds, not with ``np.unique``,
    which would import ``numpy.ma`` (about 1 MB resident) on every run. The
    tables are not fields, so equality, hashing and repr see only the stumps.
    """

    init_value: float
    stumps: tuple[Stump, ...]
    learning_rate: float
    n_features: int

    def __post_init__(self):
        object.__setattr__(self, "n_features", check_integer(self.n_features, "n_features"))
        if self.n_features < 1:
            raise ShapeError("n_features must be >= 1")
        object.__setattr__(self, "learning_rate", check_learning_rate(self.learning_rate))
        for s in self.stumps:
            if not 0 <= check_integer(s.feature_index, "stump feature_index") < self.n_features:
                raise ShapeError(f"stump feature_index {s.feature_index} outside [0, {self.n_features})")
        object.__setattr__(self, "init_value", float(as_float_array(self.init_value, "init_value", 0)))
        features = np.array([s.feature_index for s in self.stumps], dtype=np.int64)
        values = as_float_array([(s.threshold, s.left_value, s.right_value) for s in self.stumps]
                                or np.empty((0, 3)), "stump parameters", 2)
        # the checked ints and floats, so the document holds what model_from_document reads
        object.__setattr__(self, "stumps", tuple(Stump(int(f), *row) for f, row in zip(features, values.tolist())))
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
            # no x falls between equal thresholds: keep the last of each run and the step above it
            last = np.append(thresholds[1:] != thresholds[:-1], True)
            thresholds, steps = thresholds[last], np.concatenate((steps[:1], steps[1:][last]))
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
        # steps[T - c], c the count of thresholds >= x, is searchsorted(side="left"): x on a
        # threshold goes left, as ``x <= threshold`` does, and NaN counts none and goes right
        x = _rows(rows, self.n_features)
        out = np.full(x.shape[0], self.init_value, dtype=float)  # a float32 init_value would set the dtype
        for start in range(0, x.shape[0], _BLOCK_ROWS):  # bounds the T x rows comparisons
            block, part = x[start:start + _BLOCK_ROWS], out[start:start + _BLOCK_ROWS]
            for f, thresholds, steps in self._tables:
                if thresholds.size > UINT8_MAX_THRESHOLDS:
                    part += steps[np.searchsorted(thresholds, block[:, f])]
                    continue
                column = np.ascontiguousarray(block[:, f])  # a strided one compares about 3x slower
                count = np.greater_equal.outer(thresholds, column).view(np.uint8).sum(axis=0, dtype=np.uint8)
                part += steps[::-1][count.astype(np.intp)]  # a uint8 index gathers about 2x slower
        return out


def model_document(model) -> dict:
    """The JSON document of a fitted model: its type and its fields."""
    if isinstance(model, LinearModel):
        return {
            "type": "linear",
            "intercept": model.intercept,
            "coefficients": list(model.coefficients),
        }
    if isinstance(model, StumpEnsemble):
        return {
            "type": "stump_ensemble",
            "init_value": model.init_value,
            "learning_rate": model.learning_rate,
            "n_features": model.n_features,
            "stumps": [asdict(s) for s in model.stumps],
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
    kind = _document_value(doc, "type", str, "a string")
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


def _outcome(dataset: Dataset) -> np.ndarray:
    """The outcome every fit needs; a dataset without one raises InvalidValue."""
    if dataset.y is None:
        raise InvalidValue("dataset has no outcome column to fit")
    return dataset.y


def fit_ols(dataset: Dataset) -> LinearModel:
    """Least squares with intercept, solved via QR orthogonalization.

    QR rather than normal equations so near-collinear simulation designs
    don't lose half the working precision; too few rows (n <= F) raise
    InvalidValue, and exact rank deficiency raises SingularDesign.
    """
    x, y = dataset.x, _outcome(dataset)
    n, f = x.shape
    if n <= f:
        raise InvalidValue(f"need more rows ({n}) than features ({f}) plus intercept")
    design = np.column_stack([np.ones(n), x])
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if diag.min() <= diag.max() * n * np.finfo(float).eps:
        raise SingularDesign("design matrix is rank deficient")
    beta = np.linalg.solve(r, q.T @ y)
    return LinearModel(intercept=float(beta[0]), coefficients=beta[1:])


def _split_candidates(x: np.ndarray):
    """Every split of every feature, feature-major: ``(orders, positions,
    counts, thresholds, n_left)``.

    ``orders`` is the F x N table of each feature's stable sort order. The
    split at flat index ``positions[k]`` of an F x N table in that order
    takes the sorted rows [0..i] of feature ``positions[k] // N`` left and
    [i+1..] right; feature f has ``counts[f]`` splits. Thresholds sit at the
    midpoints of consecutive distinct sorted values; a float ``n_left`` divides without a cast.
    """
    n = x.shape[0]
    orders = np.ascontiguousarray(np.argsort(x.T, axis=1, kind="stable"))
    xs = np.take_along_axis(x.T, orders, axis=1)
    features, boundaries = np.nonzero(xs[:, 1:] > xs[:, :-1])
    if features.size == 0:
        raise NoValidSplit("every feature column is constant")
    thresholds = (xs[features, boundaries] + xs[features, boundaries + 1]) / 2.0
    counts = np.bincount(features, minlength=x.shape[1])
    return orders, features * n + boundaries, counts, thresholds, boundaries + 1.0


def _best_stump(residual: np.ndarray, candidates, scratch) -> Stump:
    """The best split of ``residual``, every candidate scored in one pass.

    ``scratch`` is ``(csum, left, right, score)``: an F x N buffer and three
    with one entry per candidate, which every round overwrites rather than
    allocating its own. ``take`` runs with ``mode="clip"`` because the
    default mode copies ``out``; every index is in range.
    """
    orders, positions, counts, thresholds, n_left = candidates
    csum, left, right, score = scratch
    n = float(csum.shape[1])  # a float scalar subtracts faster than an int
    np.cumsum(np.take(residual, orders, out=csum, mode="clip"), axis=1, out=csum)
    flat = csum.ravel()
    np.take(flat, positions, out=left, mode="clip")
    np.subtract(np.repeat(csum[:, -1], counts), left, out=right)  # a take of the F totals runs about 1.6x slower
    # maximizing L^2/nL + R^2/nR minimizes the squared error of the fit; the
    # first maximum is at the lowest feature, then the lowest threshold
    spare = flat[:score.size]  # csum is spent once left and right are gathered
    np.divide(np.square(right, out=spare), np.subtract(n, n_left, out=score), out=spare)
    np.divide(np.square(left, out=score), n_left, out=score)
    score += spare
    k = int(np.argmax(score))
    return Stump(
        feature_index=int(positions[k]) // csum.shape[1],
        threshold=float(thresholds[k]),
        left_value=float(left[k] / n_left[k]),
        right_value=float(right[k] / (n - n_left[k])),
    )


def check_learning_rate(learning_rate: float) -> float:
    """The rule on a learning rate, for every ensemble and the boosting options."""
    if not (isinstance(learning_rate, numbers.Real) and 0.0 < learning_rate <= 1.0):
        raise InvalidValue("learning_rate must be in (0, 1]")
    return float(learning_rate)


def check_boosting_options(iterations: int, learning_rate: float) -> None:
    """The rules on the boosting options, checked by the boosting loop and
    by ``explain`` whichever model it fits."""
    if check_integer(iterations, "iterations") < 1:
        raise InvalidValue("iterations must be >= 1")
    check_learning_rate(learning_rate)


def _boost_steps(dataset: Dataset, iterations: int, learning_rate: float):
    """The boosting loop: yields ``(stump, pred)`` for each of up to
    ``iterations`` rounds, where ``pred`` is the training prediction of the
    ensemble after adding that stump. The ensemble starts at the outcome mean.
    """
    x, y = dataset.x, _outcome(dataset)
    check_boosting_options(iterations, learning_rate)
    if x.shape[0] < 2:
        raise InvalidValue("need at least 2 rows to boost")
    candidates = _split_candidates(x)
    scratch = (np.empty(x.shape[::-1]), *np.empty((3, candidates[1].size)))
    pred = np.full(x.shape[0], float(y.mean()))
    for _ in range(iterations):
        stump = _best_stump(y - pred, candidates, scratch)
        pred = pred + np.where(  # the scalar products round as the elementwise ones would
            x[:, stump.feature_index] <= stump.threshold,
            learning_rate * stump.left_value,
            learning_rate * stump.right_value,
        )
        yield stump, pred


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
    return StumpEnsemble(dataset.y.mean(), stumps, learning_rate, dataset.n_features)


def tune_iterations(dataset: Dataset, target_r2: float, learning_rate: float = 0.1):
    """Search the iteration count whose training fit is closest to a target.

    The training fit is non-decreasing in iterations, so a single incremental
    pass to the first crossing finds the best count. Returns
    ``(model, achieved_r2, iterations)``; raises TargetUnreachable when no
    count up to ``TUNE_MAX_ITERATIONS`` lands within ``TUNE_TOLERANCE``.
    """
    if not (isinstance(target_r2, numbers.Real) and 0.0 < target_r2 < 1.0):
        raise InvalidValue("target_r2 must be in (0, 1)")
    stumps: list[Stump] = []
    best_k, best_r2, best_gap = 0, math.nan, math.inf
    for stump, pred in _boost_steps(dataset, TUNE_MAX_ITERATIONS, learning_rate):
        stumps.append(stump)
        r2 = baseline_r2(dataset.y, pred)
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
    return StumpEnsemble(dataset.y.mean(), stumps[:best_k], learning_rate, dataset.n_features), best_r2, best_k
