"""Shapley attribution engines for black-box regression predictors.

Three routes to an attribution matrix:

* :func:`exact_shapley` enumerates every feature coalition (cost
  ``O(2^F * B)`` per instance, capped at F=16 by default),
* :func:`sampled_shapley` averages telescoping marginal contributions over
  seeded random feature permutations,
* :func:`linear_shapley` is the closed form for linear predictors, valid for
  any background set and any feature correlation.

The value of a coalition is the interventional (marginal) expectation: the
mean prediction over a background set with the coalition's features pinned to
the explained instance's values. Everything is a pure function of inputs plus
the sampling seed; per-instance randomness comes from counter-based streams
keyed by ``seed XOR instance_index``, so results do not depend on the order
in which instances are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .data import Dataset, as_float_matrix
from .errors import FeatureCountExceeded, InvalidValue, ShapeError
from .metrics import ShapleyMatrix

#: Exact enumeration refuses beyond this many features (2^16 coalitions).
EXACT_FEATURE_CAP = 16

_SEED_MAX = 2**64


@runtime_checkable
class Predictor(Protocol):
    """Deterministic scalar-valued model over fixed-length feature rows."""

    feature_count: int

    def predict(self, row: np.ndarray) -> float: ...


@dataclass(frozen=True)
class BackgroundSet:
    """Reference rows used to marginalize features outside a coalition."""

    rows: np.ndarray

    def __post_init__(self):
        rows = as_float_matrix(self.rows, "background rows")
        if rows.shape[0] < 1:
            raise ShapeError("background set needs at least one row")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class SamplingConfig:
    """Fully determines a sampled attribution run. The seed is mandatory:
    no ambient entropy is ever consulted."""

    permutations_per_instance: int
    seed: int
    background_subsample: int | None = None

    def __post_init__(self):
        if self.permutations_per_instance < 1:
            raise InvalidValue("permutations_per_instance must be >= 1")
        if not 0 <= int(self.seed) < _SEED_MAX:
            raise InvalidValue("seed must fit in an unsigned 64-bit integer")
        if self.background_subsample is not None and self.background_subsample < 1:
            raise InvalidValue("background_subsample must be >= 1 when set")


def _predict_batch(predictor: Predictor, rows: np.ndarray) -> np.ndarray:
    batch = getattr(predictor, "predict_batch", None)
    if batch is not None:
        out = np.asarray(batch(rows), dtype=float)
    else:
        out = np.array([float(predictor.predict(row)) for row in rows])
    if not np.all(np.isfinite(out)):
        raise InvalidValue("predictor returned a non-finite value")
    return out


def _predict_one(predictor: Predictor, row: np.ndarray) -> float:
    value = float(predictor.predict(row))
    if not math.isfinite(value):
        raise InvalidValue("predictor returned a non-finite value")
    return value


def _check_dims(predictor: Predictor, x: np.ndarray, background: BackgroundSet) -> None:
    if x.shape[1] != predictor.feature_count:
        raise ShapeError(
            f"dataset has {x.shape[1]} features but predictor expects "
            f"{predictor.feature_count}"
        )
    if background.n_features != x.shape[1]:
        raise ShapeError(
            f"background has {background.n_features} columns, dataset has {x.shape[1]}"
        )


def coalition_value(predictor: Predictor, x, coalition, background: BackgroundSet) -> float:
    """Interventional value of a feature coalition for one instance.

    Mean prediction over the background rows with the coalition's columns
    replaced by the instance's values. The empty coalition is the mean
    background prediction; the full coalition is exactly ``predict(x)``.
    """
    row = np.asarray(x, dtype=float)
    idx = sorted(set(int(f) for f in coalition))
    if idx and not (0 <= idx[0] and idx[-1] < row.shape[0]):
        raise ShapeError("coalition contains out-of-range feature indices")
    if len(idx) == row.shape[0]:
        return _predict_one(predictor, row)
    rows = np.array(background.rows)
    if idx:
        rows[:, idx] = row[idx]
    return float(_predict_batch(predictor, rows).mean())


def _resolve_background(dataset: Dataset, background: BackgroundSet | None) -> BackgroundSet:
    if background is None:
        return BackgroundSet(dataset.x)
    return background


#: Upper bound on rows handed to one predict_batch call when evaluating
#: coalition blocks (keeps peak memory flat for wide feature counts).
_BATCH_ROW_LIMIT = 8192


def _mask_chunks(masks: list[int], bg_rows: int):
    per_chunk = max(1, _BATCH_ROW_LIMIT // bg_rows)
    for start in range(0, len(masks), per_chunk):
        yield masks[start : start + per_chunk]


def _masked_values(
    predictor: Predictor, row: np.ndarray, masks: list[int], bg: np.ndarray
) -> np.ndarray:
    """Coalition values for several masks in one batched predictor call."""
    n_bg, n_features = bg.shape
    block = np.tile(bg, (len(masks), 1))
    for j, mask in enumerate(masks):
        cols = [f for f in range(n_features) if mask & (1 << f)]
        block[j * n_bg : (j + 1) * n_bg, cols] = row[cols]
    preds = _predict_batch(predictor, block)
    return preds.reshape(len(masks), n_bg).mean(axis=1)


def exact_shapley(
    predictor: Predictor,
    dataset: Dataset,
    background: BackgroundSet | None = None,
    *,
    feature_cap: int = EXACT_FEATURE_CAP,
) -> ShapleyMatrix:
    """Exact attributions by full coalition enumeration.

    Satisfies the efficiency, symmetry, dummy, and linearity axioms up to
    floating point. Cost is ``O(2^F * B)`` predictor rows per instance;
    refuses when F exceeds ``feature_cap`` and points at the sampled engine.
    """
    background = _resolve_background(dataset, background)
    x = dataset.x
    _check_dims(predictor, x, background)
    n_features = x.shape[1]
    if n_features > feature_cap:
        raise FeatureCountExceeded(
            f"{n_features} features exceeds the exact-enumeration cap of "
            f"{feature_cap}; use sampled_shapley instead"
        )

    n_masks = 1 << n_features
    popcount = np.array([bin(m).count("1") for m in range(n_masks)])
    fact = [math.factorial(k) for k in range(n_features + 1)]
    # weight of a coalition S (not containing f): |S|! (F-|S|-1)! / F!
    size_weight = np.array(
        [
            fact[s] * fact[n_features - s - 1] / fact[n_features]
            for s in range(n_features)
        ]
    )
    masks_without = [
        np.array([m for m in range(n_masks) if not m & (1 << f)])
        for f in range(n_features)
    ]

    base_value = float(_predict_batch(predictor, background.rows).mean())
    bg = background.rows
    # every non-empty mask (the full one included) goes through the same
    # batched-mean path, so a provably ignored feature gets an exactly-zero
    # column: each of its coalition-value differences cancels bit-for-bit
    inner_masks = list(range(1, n_masks))

    phi = np.empty(x.shape)
    values = np.empty(n_masks)
    values[0] = base_value
    for i, row in enumerate(x):
        for chunk in _mask_chunks(inner_masks, bg.shape[0]):
            values[chunk] = _masked_values(predictor, row, chunk, bg)
        for f in range(n_features):
            sel = masks_without[f]
            deltas = values[sel | (1 << f)] - values[sel]
            phi[i, f] = float(size_weight[popcount[sel]] @ deltas)
    return ShapleyMatrix(
        phi=phi,
        phi0=base_value,
        feature_names=dataset.feature_names,
        provenance="exact",
    )


def sampled_shapley(
    predictor: Predictor,
    dataset: Dataset,
    background: BackgroundSet | None = None,
    config: SamplingConfig | None = None,
) -> ShapleyMatrix:
    """Permutation-sampling attribution estimate.

    For each instance, averages marginal contributions over M random feature
    permutations; each permutation's contributions telescope from the shared
    base value up to ``predict(x)``, so the additivity identity holds exactly
    per instance regardless of M. Instance ``i`` draws from a counter-based
    stream keyed by ``seed XOR i``; output is bit-identical for a fixed
    config.

    With ``background_subsample`` set, each permutation evaluates its
    coalition values against a fresh seeded subsample of the background
    (cost control for large backgrounds); the chain stays anchored at the
    full-background base value so additivity is preserved.
    """
    if config is None:
        raise InvalidValue("sampled_shapley requires a SamplingConfig")
    background = _resolve_background(dataset, background)
    x = dataset.x
    _check_dims(predictor, x, background)
    n_features = x.shape[1]
    n_bg = background.size
    sub = config.background_subsample
    if sub is not None and sub > n_bg:
        raise ShapeError(
            f"background_subsample {sub} exceeds background size {n_bg}"
        )
    if sub is not None and sub == n_bg:
        sub = None

    base_value = float(_predict_batch(predictor, background.rows).mean())
    bg = background.rows
    n_perms = config.permutations_per_instance
    seed = int(config.seed)

    phi = np.empty(x.shape)
    for i, row in enumerate(x):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ i)))
        full_value = _predict_one(predictor, row)
        contrib = np.zeros(n_features)
        cache: dict[int, float] | None = {} if sub is None else None
        for _ in range(n_perms):
            if sub is None:
                rows_src = bg
            else:
                rows_src = bg[rng.choice(n_bg, size=sub, replace=False)]
            perm = rng.permutation(n_features)
            prefix_masks = []
            mask = 0
            for pos in range(n_features - 1):
                mask |= 1 << int(perm[pos])
                prefix_masks.append(mask)
            if cache is not None:
                missing = [m for m in prefix_masks if m not in cache]
                if missing:
                    cache.update(
                        zip(missing, _masked_values(predictor, row, missing, rows_src))
                    )
                chain = [cache[m] for m in prefix_masks]
            elif prefix_masks:
                chain = list(_masked_values(predictor, row, prefix_masks, rows_src))
            else:
                chain = []
            chain.append(full_value)
            prev = base_value
            for pos in range(n_features):
                current = chain[pos]
                contrib[int(perm[pos])] += current - prev
                prev = current
        phi[i] = contrib / n_perms

    return ShapleyMatrix(
        phi=phi,
        phi0=base_value,
        feature_names=dataset.feature_names,
        provenance="sampled",
        config=config,
    )


def linear_shapley(
    coefficients,
    intercept: float,
    dataset: Dataset,
    background: BackgroundSet | None = None,
) -> ShapleyMatrix:
    """Closed-form attributions for a linear predictor.

    ``phi[i, f] = beta_f * (x[i, f] - background_mean_f)`` and
    ``phi0 = intercept + beta . background_means``; agrees with exact
    enumeration for any background and any feature correlation because the
    coalition value function is linear in the pinned features.
    """
    background = _resolve_background(dataset, background)
    beta = np.asarray(coefficients, dtype=float)
    if beta.ndim != 1 or beta.shape[0] != dataset.n_features:
        raise ShapeError("coefficient length does not match dataset features")
    if not (np.all(np.isfinite(beta)) and math.isfinite(float(intercept))):
        raise InvalidValue("linear parameters must be finite")
    if background.n_features != dataset.n_features:
        raise ShapeError("background columns do not match dataset features")
    means = background.rows.mean(axis=0)
    phi = (dataset.x - means) * beta
    phi0 = float(intercept) + float(beta @ means)
    return ShapleyMatrix(
        phi=phi,
        phi0=phi0,
        feature_names=dataset.feature_names,
        provenance="closed_form_linear",
    )
