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

from .data import Dataset, as_float_array, check_addressable, check_integer
from .errors import FeatureCountExceeded, InvalidValue, ShapeError
from .metrics import ShapleyMatrix
from .models import LinearModel

#: Exact enumeration refuses beyond this many features (2^16 coalitions).
EXACT_FEATURE_CAP = 16

#: Seeds key a Philox generator, so each must fit in an unsigned 64-bit integer.
SEED_MAX = 2**64


def check_seed(seed: int) -> None:
    """The seed rule of every seeded spec: an integer in [0, SEED_MAX)."""
    if not 0 <= check_integer(seed, "seed") < SEED_MAX:
        raise InvalidValue("seed must fit in an unsigned 64-bit integer")


def check_exact_width(n_features: int) -> None:
    """The exact engine's width rule: at most :data:`EXACT_FEATURE_CAP` features."""
    if n_features > EXACT_FEATURE_CAP:
        raise FeatureCountExceeded(f"{n_features} features exceeds the exact-enumeration cap of "
                                   f"{EXACT_FEATURE_CAP}; use sampled_shapley instead")


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit child seed from a master seed and integer coordinates."""
    ss = np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


@runtime_checkable
class Predictor(Protocol):
    """Deterministic scalar-valued model over fixed-length feature rows; a
    row's value does not depend on the other rows in its call. An optional
    ``predict_batch(rows)`` gets an N x F float array whose memory order is
    the engines' choice (column-major today), so it must not assume C order."""

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
        if k is not None and check_integer(k, "background_subsample") > self.size:
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
    """Fully determines a sampled attribution run. The seed is mandatory: outputs
    never depend on the OS entropy that numpy's ``Philox(key=...)`` draws and the
    key overrides. Its checks own the sampling options' and the seed's rules on every route."""

    permutations_per_instance: int
    seed: int
    background_subsample: int | None = None

    def __post_init__(self):
        if check_integer(self.permutations_per_instance, "permutations") < 1:
            raise InvalidValue("permutations must be >= 1")
        check_seed(self.seed)
        k = self.background_subsample
        if k is not None and check_integer(k, "background_subsample") < 1:
            raise InvalidValue("background_subsample must be >= 1 when set")


def _predict_batch(predictor: Predictor, rows: np.ndarray) -> np.ndarray:
    batch = getattr(predictor, "predict_batch", None)
    if batch is not None:
        out = np.asarray(batch(rows), dtype=float)
    else:
        out = np.array([float(predictor.predict(row)) for row in np.ascontiguousarray(rows)])
    if not np.all(np.isfinite(out)):
        raise InvalidValue("predictor returned a non-finite value")
    return out


def _background(predictor: Predictor, x: np.ndarray, background: BackgroundSet | None) -> BackgroundSet:
    """The input rule of every engine: the N x F ``x`` and the background, by
    default ``BackgroundSet(x)``, have the predictor's F columns. Returns the background."""
    background = BackgroundSet(x) if background is None else background
    if x.shape[1] != predictor.feature_count:
        raise ShapeError(
            f"dataset has {x.shape[1]} features but predictor expects "
            f"{predictor.feature_count}"
        )
    if background.n_features != x.shape[1]:
        raise ShapeError(
            f"background has {background.n_features} columns, dataset has {x.shape[1]}"
        )
    return background


def coalition_value(predictor: Predictor, x, coalition, background: BackgroundSet) -> float:
    """Interventional value of a feature coalition for one instance.

    Mean prediction over the background rows with the coalition's columns
    replaced by the instance's values. The empty coalition is the mean
    background prediction; the full coalition is the prediction for ``x``.
    """
    row = as_float_array(x, "instance", 1)
    background = _background(predictor, row[None], background)
    if not np.iterable(coalition):
        raise InvalidValue(f"coalition must be an iterable of feature indices, got {coalition!r}")
    idx = sorted({check_integer(f, "coalition feature index") for f in coalition})
    if idx and not (0 <= idx[0] and idx[-1] < row.shape[0]):
        raise ShapeError("coalition contains out-of-range feature indices")
    if len(idx) == row.shape[0]:
        return float(_predict_batch(predictor, row[None])[0])
    bits = np.isin(np.arange(row.shape[0]), idx)[None]
    values = _coalition_values(predictor, row[None], np.zeros(1, np.intp), bits, background.rows,
                               _block(1, background.size, row.shape[0]))
    return float(values[0])


#: Upper bound on the rows of one predictor call, past one mask's background
#: rows (keeps peak memory flat for wide feature counts).
_BATCH_ROW_LIMIT = 8192


def _block(n_masks: int, n_bg: int, n_features: int) -> np.ndarray:
    """Flat F x per_call x B scratch for one predictor call (as many of ``n_masks``
    masks as fit, at least one): batches are its column-major transposes, not C order."""
    return np.empty(n_features * max(1, min(n_masks, _BATCH_ROW_LIMIT // n_bg)) * n_bg)


def _coalition_values(predictor: Predictor, x: np.ndarray, owner: np.ndarray, bits: np.ndarray,
                      rows: np.ndarray, block: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """Coalition values for every row of a K x F mask matrix.

    Mask ``k`` reads both of its inputs through its one owner, ``owner[k]``:
    value ``k`` is the mean prediction over the B x F ``rows``, or with
    ``index`` over ``rows[index[owner[k]]]``, with the columns set in
    ``bits[k]`` replaced by row ``owner[k]`` of the N x F ``x``. Each chunk
    of masks, one predictor call, is one gather of the rows' columns, then a
    scatter to the set bits only, feature-major in the scratch ``block``
    (from :func:`_block`, which fixes the chunk size), allocated once to be
    faulted in once; the predictor gets its transpose, a column-major batch.
    """
    columns = np.ascontiguousarray(rows.T)
    n_features, n_bg = columns.shape[0], columns.shape[1] if index is None else index.shape[1]
    per_call = block.size // (n_features * n_bg)
    values = np.empty(bits.shape[0])
    for start in range(0, bits.shape[0], per_call):
        chunk = slice(start, start + per_call)
        own = owner[chunk]
        part = block[: n_features * own.shape[0] * n_bg].reshape(n_features, -1, n_bg)
        if index is None:
            part[...] = columns[:, None, :]
        else:
            # mode="clip" because the default mode copies out; every index is one of the engine's draws
            np.take(columns, index[own], axis=1, out=part, mode="clip")
        k, f = np.nonzero(bits[chunk])
        part[f, k, :] = x[own[k], f][:, None]
        batch = _predict_batch(predictor, part.reshape(n_features, -1).T)
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
    x = dataset.x
    background = _background(predictor, x, background)
    n_features = x.shape[1]
    check_exact_width(n_features)

    n_masks = 1 << n_features
    # row m holds the bits of mask m: feature f is in coalition m iff bit f is set
    bits = ((np.arange(n_masks)[:, None] >> np.arange(n_features)) & 1).astype(bool)
    popcount = bits.sum(axis=1)
    # weight of a coalition S (not containing f): |S|! (F-|S|-1)! / F! = 1 / (F C(F-1, |S|))
    size_weight = np.array([1 / (n_features * math.comb(n_features - 1, s)) for s in range(n_features)])
    masks_without = [np.flatnonzero(~bits[:, f]) for f in range(n_features)]
    # per feature: the masks with f, the same masks without f, and their weights
    pairs = [(sel | (1 << f), sel, size_weight[popcount[sel]]) for f, sel in enumerate(masks_without)]

    base_value = float(_predict_batch(predictor, background.rows).mean())
    block = _block(n_masks - 1, background.size, n_features)
    instance = np.empty(n_masks - 1, dtype=np.intp)

    phi = np.empty(x.shape)
    values = np.empty(n_masks)
    values[0] = base_value
    for i in range(x.shape[0]):
        # every non-empty mask (the full one included) goes through the same
        # batched-mean path, so a provably ignored feature gets an exactly-zero
        # column: each of its coalition-value differences cancels bit-for-bit
        instance[:] = i
        values[1:] = _coalition_values(predictor, x, instance, bits[1:], background.rows, block)
        for f, (with_f, without_f, weights) in enumerate(pairs):
            phi[i, f] = float(weights @ (values[with_f] - values[without_f]))
    return ShapleyMatrix(
        phi=phi,
        phi0=base_value,
        feature_names=dataset.feature_names,
        provenance="exact",
    )


#: Upper bound on the 32-bit words the arrays of a block of
#: :func:`sampled_shapley` hold (1 MiB), unless the block is one instance.
_DRAW_WORD_LIMIT = 1 << 18

#: A shuffle step of :func:`_draws` looks this many words ahead for its draw.
_LOOKAHEAD = 32


def _streams(seed: int, instances):
    """``(j, Philox(key=seed ^ instances[j]))`` for each j: one Philox re-keyed
    per instance, without the OS entropy that constructor draws for a seed it ignores."""
    bit_generator = np.random.Philox(key=0)
    keyed = bit_generator.state
    for j, i in enumerate(instances):
        keyed["state"]["key"][0] = seed ^ int(i)
        bit_generator.state = keyed
        yield j, bit_generator


def _generator_draws(seed: int, instances, n_perms: int, n_features: int, n_rows: int,
                     sub: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The sampled engine's draws, by definition: for each of the ``instances``,
    ``Generator(Philox(key=seed ^ i))`` draws, per permutation,
    ``choice(n_rows, sub, replace=False)`` (with a subsample) and then a
    shuffle of ``arange(F)``. Returns the permutations and the subsets, M
    per instance, as ``uint32``."""
    perms = np.tile(np.arange(n_features, dtype=np.uint32), (len(instances), n_perms, 1))
    subsets = np.empty((len(instances), n_perms, sub or 0), dtype=np.uint32)
    for j, bit_generator in _streams(seed, instances):
        rng = np.random.Generator(bit_generator)
        if sub is None:  # permuted shuffles the rows in turn, drawing what M shuffles draw
            rng.permuted(perms[j], axis=1, out=perms[j])
        else:
            for m in range(n_perms):
                subsets[j, m] = rng.choice(n_rows, size=sub, replace=False)
                # shuffling arange(F) in place draws what rng.permutation(F) draws
                rng.shuffle(perms[j, m])
    return perms, subsets


def _n_words(n_perms: int, n_features: int, sub: int) -> int:
    """The word budget of one instance in :func:`_draws`, an even number:
    2 sub - 1 per choice, and twice the mean of the shuffles, whose step at
    position i reads 2^bit_length(i) / (i + 1) words on average."""
    shuffle = sum((1 << i.bit_length()) / (i + 1) for i in range(1, n_features))
    n = n_perms * (2 * sub - 1) + math.ceil(2 * n_perms * shuffle)
    return n + n % 2


def _swap(table: np.ndarray, i: int, drawn: np.ndarray) -> None:
    """One Fisher-Yates step in every column r of ``table``: swap rows i and ``drawn[r]``."""
    at = drawn * table.shape[1] + np.arange(table.shape[1])
    flat = table.reshape(-1)
    held = flat[at]
    flat[at] = table[i]
    table[i] = held


def _draws(seed: int, first: int, n: int, n_perms: int, n_features: int, n_rows: int,
           sub: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_generator_draws` of instances ``first`` .. ``first + n - 1``,
    with a subsample ``sub`` below ``n_rows``, replayed from the streams' words.

    The generator reads 32-bit words, the low half of each 64-bit output
    first. numpy's ``choice`` without replacement is Floyd's algorithm: for
    j from n_rows - sub to n_rows - 1 a Lemire draw in [0, j], replaced by j
    if already taken; then the sub values are shuffled from the last
    position down by Lemire draws, 2 sub - 1 words in all. A Lemire draw in
    [0, b) is the high half of word * b, rejected when the low half is below
    2^32 mod b. ``shuffle`` goes from the last position i down too, each
    draw masked to the next power of two minus one and redrawn while above i.

    Pass 1 walks every instance's shuffles at once, M (F - 1) vector steps,
    and notes where each choice starts; pass 2 runs every choice at once,
    word by word. An instance is drawn again by :func:`_generator_draws`
    when it makes a Lemire rejection (chance below n_rows / 2^32 a draw),
    reads past its :func:`_n_words`, or has a shuffle draw rejected
    ``_LOOKAHEAD`` times in a row (chance below 2^-32 a draw); so is every
    instance when numpy's ``choice`` would shuffle a tail of
    ``arange(n_rows)`` instead (n_rows > 10000 and sub > n_rows // 50).
    numpy does not promise to keep these algorithms, but the output bytes
    already depend on them; the tests match this replay against
    ``Generator``, so a change fails there.
    """
    if n_rows > 10000 and sub > n_rows // 50:
        return _generator_draws(seed, range(first, first + n), n_perms, n_features, n_rows, sub)
    n_words = _n_words(n_perms, n_features, sub)
    choice = 2 * sub - 1
    # instance j's words start at j * n_words; zeros follow the last, and a
    # masked draw accepts a zero, so an instance that runs past its budget
    # (and is drawn again) reads on into the next one's words or the zeros
    raw = np.zeros((n * n_words + n_perms * (choice + n_features) + _LOOKAHEAD) // 2 + 1, dtype=np.uint64)
    for j, bit_generator in _streams(seed, range(first, first + n)):
        raw[j * n_words // 2:(j + 1) * n_words // 2] = bit_generator.random_raw(n_words // 2)
    words = raw.astype("<u8", copy=False).view("<u4")

    # pass 1: at[j] is the next word instance j reads
    at = np.arange(n, dtype=np.intp) * n_words
    starts = np.empty((n, n_perms), dtype=np.intp)
    read = np.empty((n_features, n, n_perms), dtype=np.intp)
    masks = [(1 << i.bit_length()) - 1 for i in range(n_features)]
    ahead = np.arange(_LOOKAHEAD)
    for m in range(n_perms):
        starts[:, m] = at
        at += choice
        for i in range(n_features - 1, 0, -1):
            if i != masks[i]:  # else every word is accepted
                at += ((words[at[:, None] + ahead] & masks[i]) <= i).argmax(axis=1)
            read[i, :, m] = at
            at += 1
    failed = at > np.arange(1, n + 1) * n_words
    table = np.empty((n_features, n * n_perms), dtype=np.uint32)
    table[...] = np.arange(n_features)[:, None]
    for i in range(n_features - 1, 0, -1):
        drawn = words.take(read[i].ravel()) & masks[i]
        # a draw above i had no accepted word in its lookahead; its instance is drawn again
        failed |= (drawn > i).reshape(n, n_perms).any(axis=1)
        _swap(table, i, np.minimum(drawn, i))
    perms = table.T.reshape(n, n_perms, n_features)

    # pass 2: word c of every choice at once, in a table with one column per choice
    table = np.empty((sub, n * n_perms), dtype=np.uint32)
    low = n_rows - sub
    at = starts.ravel()
    rejected = np.zeros(at.shape, dtype=bool)
    for c, bound in enumerate([*range(low + 1, n_rows + 1), *range(sub, 1, -1)]):
        product = words.take(at + c) * np.uint64(bound)
        rejected |= (product & 0xFFFFFFFF) < (1 << 32) % bound
        drawn = (product >> 32).astype(np.uint32)
        if c < sub:
            table[c] = np.where((table[:c] == drawn).any(axis=0), low + c, drawn)
        else:
            _swap(table, choice - c, drawn)
    failed |= rejected.reshape(n, n_perms).any(axis=1)
    subsets = table.T.reshape(n, n_perms, sub)

    redo = np.flatnonzero(failed)
    if redo.size:
        perms[redo], subsets[redo] = _generator_draws(seed, first + redo, n_perms, n_features, n_rows, sub)
    return perms, subsets


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

    Instances are drawn and evaluated in blocks: as many as fit in
    ``_DRAW_WORD_LIMIT`` words of held arrays, at most ``_BATCH_ROW_LIMIT``,
    and at least one. A block's draws are one call, without a subsample of
    :func:`_generator_draws` (one ``permuted`` per instance), with one of
    :func:`_draws` (a replay of raw words) unless its Generator loop is
    cheaper; its masks go to :func:`_coalition_values` together, each owned
    by its permutation, its instances are predicted in one call, and its
    contributions telescope in one pass. Each instance's distinct prefixes
    are evaluated once. With ``background_subsample`` set, each permutation
    instead evaluates its prefixes against its own seeded subsample of the
    background (cost control for large backgrounds); the chain stays
    anchored at the full-background base value.
    """
    if config is None:
        raise InvalidValue("sampled_shapley requires a SamplingConfig")
    x = dataset.x
    background = _background(predictor, x, background)
    n_features = x.shape[1]
    sub = background.subsample_size(config.background_subsample)

    base_value = float(_predict_batch(predictor, background.rows).mean())
    bg = background.rows
    n_rows = background.size
    n_perms = config.permutations_per_instance
    seed = int(config.seed)

    n_prefix = n_features - 1
    # 32-bit words held per instance. With a subsample: raw, permutations, subsets (a block's only
    # K-wide array), intp positions. Without: per permutation the draws (F), intp positions and x_perm
    # (2 F each) and path (2 F + 2); per mask, at np.unique's peak, bits (F / 4), the key, the sorted
    # and distinct keys (2 + F / 4 each), and intp owner, order, index, inverse and count (2, count twice)
    held = (n_perms * (7 * n_features + 2) + n_perms * n_prefix * (18 + n_features) if sub is None
            else _n_words(n_perms, n_features, sub) + n_perms * (3 * n_features + sub + 2))
    check_addressable(4 * held, "one instance's arrays")
    per_block = max(1, min(_BATCH_ROW_LIMIT, _DRAW_WORD_LIMIT // held))
    # _draws takes about M (F - 1) + 2 sub - 1 vector steps a block, whatever its size, each costing
    # about four shuffles of the Generator loop, which costs eight a permutation and its choice
    replay = sub is not None and per_block * n_perms * 8 >= 4 * (n_perms * n_prefix + 2 * sub - 1)
    block = _block(per_block * n_perms * n_prefix, sub or n_rows, n_features)
    phi = np.empty(x.shape)
    for first in range(0, x.shape[0], per_block):
        x_block = x[first:first + per_block]
        n = x_block.shape[0]
        perms, subsets = (_draws(seed, first, n, n_perms, n_features, n_rows, sub) if replay else
                          _generator_draws(seed, range(first, first + n), n_perms, n_features, n_rows, sub))
        # prefix p of permutation m holds the features at positions 0..p; mask k is a
        # prefix of permutation k // (F - 1), its owner, whose row of x_perm is its instance's
        position = np.argsort(perms, axis=2)
        bits = (position[:, :, None, :] <= np.arange(n_prefix)[:, None]).reshape(-1, n_features)
        owner = np.repeat(np.arange(n * n_perms), n_prefix)
        x_perm = np.repeat(x_block, n_perms, axis=0)
        if sub is None:
            # each distinct (instance, mask) once, compared as bytes
            keys = np.empty((bits.shape[0], 8 + n_features), dtype=np.uint8)
            keys[:, :8] = (owner // n_perms).astype(">u8")[:, None].view(np.uint8)
            keys[:, 8:] = bits
            _, distinct, inverse = np.unique(
                keys.view(f"V{keys.shape[1]}").ravel(), return_index=True, return_inverse=True
            )
            values = _coalition_values(predictor, x_perm, owner[distinct], bits[distinct], bg, block)
            chain = values[inverse]
        else:
            chain = _coalition_values(predictor, x_perm, owner, bits, bg, block, subsets.reshape(-1, sub))
        path = np.empty((n, n_perms, n_features + 1))
        path[..., 0] = base_value
        path[..., 1:-1] = chain.reshape(n, n_perms, n_prefix)
        path[..., -1] = _predict_batch(predictor, x_block)[:, None]
        # np.add.at adds unbuffered in C order: per instance, the same additions
        # in the same order as walking each permutation position by position
        contrib = np.zeros((n, n_features))
        np.add.at(contrib, (np.arange(n)[:, None, None], perms), np.diff(path, axis=2))
        phi[first:first + n] = contrib / n_perms

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
    model = LinearModel(intercept, coefficients)
    background = _background(model, dataset.x, background)
    means = background.rows.mean(axis=0)
    phi = (dataset.x - means) * model.coefficients
    phi0 = model.intercept + float(model.coefficients @ means)
    return ShapleyMatrix(
        phi=phi,
        phi0=phi0,
        feature_names=dataset.feature_names,
        provenance="closed_form_linear",
    )
