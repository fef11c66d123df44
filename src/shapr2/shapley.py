"""Shapley attribution engines for black-box regression predictors.

Three routes to an attribution matrix:

* :func:`exact_shapley` enumerates every feature coalition (cost
  ``O(2^F * B)`` per instance, capped at F=16),
* :func:`sampled_shapley` averages telescoping marginal contributions over
  seeded random feature permutations,
* :func:`linear_shapley` is the closed form for linear predictors, valid for
  any background set and any feature correlation.

The value of a coalition is the interventional (marginal) expectation: the
mean prediction over a background set with the coalition's features pinned to
the explained instance's values; one batched primitive computes it for a
boolean mask matrix, for both black-box engines and :func:`coalition_value`.
Everything is a pure function of inputs plus the sampling seed; per-instance
randomness comes from counter-based streams keyed by ``seed XOR
instance_index``, so results do not depend on the order in which instances
are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .data import Dataset, as_float_array
from .errors import FeatureCountExceeded, InvalidValue, ShapeError
from .metrics import ShapleyMatrix
from .models import LinearModel

#: Exact enumeration refuses beyond this many features (2^16 coalitions).
EXACT_FEATURE_CAP = 16

#: Seeds key a Philox generator, so each must fit in an unsigned 64-bit integer.
SEED_MAX = 2**64


def check_seed(seed: int) -> None:
    """The seed rule of every seeded spec: an integer in [0, SEED_MAX)."""
    if not 0 <= int(seed) < SEED_MAX:
        raise InvalidValue("seed must fit in an unsigned 64-bit integer")


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit child seed from a master seed and integer coordinates."""
    ss = np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


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
        rows = as_float_array(self.rows, "background rows", 2)
        if rows.shape[0] < 1:
            raise ShapeError("background set needs at least one row")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def subsample_size(self, k: int | None) -> int | None:
        """The subsample rule of every engine: ``k`` rows, at most :attr:`size`;
        ``k`` equal to :attr:`size` is the whole background (None)."""
        if k is not None and k > self.size:
            raise ShapeError(f"background_subsample {k} exceeds background size {self.size}")
        return None if k == self.size else k

    def subsample(self, k: int | None, seed: int) -> "BackgroundSet":
        """The exact engine's background: ``k`` rows drawn once without
        replacement (stream ``derive_seed(seed, 7)``), in their original order."""
        k = self.subsample_size(k)
        if k is None:
            return self
        rng = np.random.Generator(np.random.Philox(key=np.uint64(derive_seed(seed, 7))))
        return BackgroundSet(self.rows[np.sort(rng.choice(self.size, size=k, replace=False))])


@dataclass(frozen=True)
class SamplingConfig:
    """Fully determines a sampled attribution run. The seed is mandatory:
    no ambient entropy is ever consulted. Its checks are the one owner of the
    rules on the sampling options and the seed, on every route."""

    permutations_per_instance: int
    seed: int
    background_subsample: int | None = None

    def __post_init__(self):
        if self.permutations_per_instance < 1:
            raise InvalidValue("permutations must be >= 1")
        check_seed(self.seed)
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
    background prediction; the full coalition is the prediction for ``x``.
    """
    row = np.asarray(x, dtype=float)
    if row.shape != (background.n_features,):
        raise ShapeError("instance length does not match the background columns")
    idx = sorted(set(int(f) for f in coalition))
    if idx and not (0 <= idx[0] and idx[-1] < row.shape[0]):
        raise ShapeError("coalition contains out-of-range feature indices")
    if len(idx) == row.shape[0]:
        return float(_predict_batch(predictor, row[None])[0])
    bits = np.zeros((1, row.shape[0]), dtype=bool)
    bits[0, idx] = True
    return float(_coalition_values(predictor, row, bits, background.rows)[0])


#: Upper bound on rows handed to one predict_batch call when evaluating
#: coalition blocks (keeps peak memory flat for wide feature counts).
_BATCH_ROW_LIMIT = 8192


def _block(n_masks: int, n_bg: int, n_features: int) -> np.ndarray:
    """Scratch for one predictor call: as many of ``n_masks`` masks as fit, at least one."""
    return np.empty((max(1, min(n_masks, _BATCH_ROW_LIMIT // n_bg)), n_bg, n_features))


def _coalition_values(predictor: Predictor, row: np.ndarray, bits: np.ndarray, rows: np.ndarray,
                      index: np.ndarray | None = None, block: np.ndarray | None = None) -> np.ndarray:
    """Coalition values of one instance for every row of a K x F mask matrix.

    Value ``k`` is the mean prediction over a background with the columns
    set in ``bits[k]`` replaced by ``row``, over the B x F ``rows`` or, with
    ``index``, over ``rows[index[k]]``. Each chunk of masks is one predictor
    call, built in ``block`` (from :func:`_block`), which a caller evaluating
    many instances passes so that it is allocated and faulted in only once.
    """
    n_bg = rows.shape[0] if index is None else index.shape[1]
    if block is None:
        block = _block(bits.shape[0], n_bg, row.shape[0])
    per_call = block.shape[0]
    values = np.empty(bits.shape[0])
    for start in range(0, bits.shape[0], per_call):
        chunk = slice(start, start + per_call)
        part = block[: bits[chunk].shape[0]]
        part[...] = rows if index is None else rows[index[chunk]]
        np.copyto(part, row, where=bits[chunk, None, :])
        batch = _predict_batch(predictor, part.reshape(-1, row.shape[0]))
        values[chunk] = batch.reshape(-1, n_bg).mean(axis=1)
    return values


def exact_shapley(
    predictor: Predictor,
    dataset: Dataset,
    background: BackgroundSet | None = None,
) -> ShapleyMatrix:
    """Exact attributions by full coalition enumeration.

    Satisfies the efficiency, symmetry, dummy, and linearity axioms up to
    floating point. Cost is ``(2^F - 1) * B`` predictor rows per instance,
    one bit-matrix row per non-empty mask; refuses when F exceeds
    ``EXACT_FEATURE_CAP`` and points at the sampled engine.
    """
    background = background or BackgroundSet(dataset.x)
    x = dataset.x
    _check_dims(predictor, x, background)
    n_features = x.shape[1]
    if n_features > EXACT_FEATURE_CAP:
        raise FeatureCountExceeded(
            f"{n_features} features exceeds the exact-enumeration cap of "
            f"{EXACT_FEATURE_CAP}; use sampled_shapley instead"
        )

    n_masks = 1 << n_features
    # row m holds the bits of mask m: feature f is in coalition m iff bit f is set
    bits = ((np.arange(n_masks)[:, None] >> np.arange(n_features)) & 1).astype(bool)
    popcount = bits.sum(axis=1)
    fact = [math.factorial(k) for k in range(n_features + 1)]
    # weight of a coalition S (not containing f): |S|! (F-|S|-1)! / F!
    size_weight = np.array(
        [
            fact[s] * fact[n_features - s - 1] / fact[n_features]
            for s in range(n_features)
        ]
    )
    masks_without = [np.flatnonzero(~bits[:, f]) for f in range(n_features)]

    base_value = float(_predict_batch(predictor, background.rows).mean())
    block = _block(n_masks - 1, background.size, n_features)

    phi = np.empty(x.shape)
    values = np.empty(n_masks)
    values[0] = base_value
    for i, row in enumerate(x):
        # every non-empty mask (the full one included) goes through the same
        # batched-mean path, so a provably ignored feature gets an exactly-zero
        # column: each of its coalition-value differences cancels bit-for-bit
        values[1:] = _coalition_values(predictor, row, bits[1:], background.rows, block=block)
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
    """Permutation-sampling attribution estimate (Strumbelj & Kononenko).

    For each instance, averages marginal contributions over M random feature
    permutations; each permutation's contributions telescope from the shared
    base value up to ``predict(x)``, so the additivity identity holds exactly
    per instance regardless of M. Instance ``i`` draws from a counter-based
    stream keyed by ``seed XOR i``; output is bit-identical for a fixed
    config.

    An instance's M permutations are drawn up front and their proper
    prefixes form one mask matrix; each distinct prefix is evaluated once.
    With ``background_subsample`` set, each permutation instead evaluates its
    prefixes against a fresh seeded subsample of the background (cost control
    for large backgrounds); the chain stays anchored at the full-background
    base value so additivity is preserved.
    """
    if config is None:
        raise InvalidValue("sampled_shapley requires a SamplingConfig")
    background = background or BackgroundSet(dataset.x)
    x = dataset.x
    _check_dims(predictor, x, background)
    n_features = x.shape[1]
    sub = background.subsample_size(config.background_subsample)

    base_value = float(_predict_batch(predictor, background.rows).mean())
    bg = background.rows
    n_perms = config.permutations_per_instance
    seed = int(config.seed)

    n_prefix = n_features - 1
    phi = np.empty(x.shape)
    for i, row in enumerate(x):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ i)))
        subsets = []
        perms = np.empty((n_perms, n_features), dtype=np.intp)
        for m in range(n_perms):
            if sub is not None:
                subsets.append(rng.choice(background.size, size=sub, replace=False))
            perms[m] = rng.permutation(n_features)
        # prefix p of permutation m holds the features at positions 0..p
        position = np.argsort(perms, axis=1)
        bits = (position[:, None, :] <= np.arange(n_prefix)[:, None]).reshape(-1, n_features)
        if sub is None:
            unique, inverse = np.unique(bits, axis=0, return_inverse=True)
            chain = _coalition_values(predictor, row, unique, bg)[inverse.reshape(-1)]
        else:
            index = np.repeat(np.array(subsets), n_prefix, axis=0)
            chain = _coalition_values(predictor, row, bits, bg, index)
        path = np.empty((n_perms, n_features + 1))
        path[:, 0] = base_value
        path[:, 1:-1] = chain.reshape(n_perms, n_prefix)
        path[:, -1] = _predict_batch(predictor, row[None])[0]
        # np.add.at adds unbuffered in C order: the same additions, in the same
        # order, as walking each permutation position by position
        contrib = np.zeros(n_features)
        np.add.at(contrib, perms, np.diff(path, axis=1))
        phi[i] = contrib / n_perms

    return ShapleyMatrix(
        phi=phi,
        phi0=base_value,
        feature_names=dataset.feature_names,
        provenance="sampled",
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
    coalition value function is linear in the pinned features. The
    parameters must make a :class:`LinearModel` of the dataset's width.
    """
    background = background or BackgroundSet(dataset.x)
    model = LinearModel(intercept, coefficients)
    _check_dims(model, dataset.x, background)
    means = background.rows.mean(axis=0)
    phi = (dataset.x - means) * model.coefficients
    phi0 = model.intercept + float(model.coefficients @ means)
    return ShapleyMatrix(
        phi=phi,
        phi0=phi0,
        feature_names=dataset.feature_names,
        provenance="closed_form_linear",
    )
