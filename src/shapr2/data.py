"""Dataset container and input checks shared by the model zoo, the engines and the CLI."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValue, ShapeError, ValidationError


def has_json_type(value, types) -> bool:
    """JSON type check in which a boolean is not a number."""
    return isinstance(value, types) and not isinstance(value, bool)


def json_floats(value, what: str) -> tuple[float, ...]:
    """The floats of a JSON list of numbers; a boolean is not a number."""
    try:
        if isinstance(value, list) and all(has_json_type(v, (int, float)) for v in value):
            return tuple(float(v) for v in value)
    except OverflowError:  # an integer too large for a float
        pass
    raise ValidationError(f"{what} must be a list of numbers, got {value!r}")


def check_integer(value, name: str) -> int:
    """The rule of every integer option: a Python or numpy integer, not a bool, returned as an ``int``."""
    try:
        if not isinstance(value, bool):  # operator.index refuses numpy's bool
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidValue(f"{name} must be an integer, got {value!r}")


def check_addressable(n_bytes: int, what: str) -> None:
    """An array too large for numpy to address is out of memory, not a ``ValueError``."""
    if n_bytes > np.iinfo(np.intp).max:
        raise MemoryError(f"{what} would take {n_bytes} bytes")


def as_float_array(values, name: str, ndim: int) -> np.ndarray:
    """Validate and return a read-only ``ndim``-dimensional float array with
    finite entries.

    A float array that is read-only through its whole ``.base`` chain, down
    to an array that owns its data, comes back as it is, without a copy: no
    writeable array shares its memory. Any other input is copied (a writeable
    array, a read-only view of a writeable array, an array over a foreign
    buffer), so later changes to it leave the result alone."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:  # not OverflowError: model_from_document reports that one
        raise InvalidValue(f"{name} cannot be read as floats: {exc}") from None
    if arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidValue(f"{name} contains non-finite entries")
    base = arr
    while isinstance(base, np.ndarray) and not (base.flags.writeable or base.flags.owndata):
        base = base.base
    if not isinstance(base, np.ndarray) or base.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def feature_names(names, width: int) -> tuple[str, ...]:
    """``names`` as a tuple, checked to hold one name per column of a
    ``width``-column matrix; ``x1`` .. ``x<width>`` when ``names`` is empty."""
    if not names:
        return tuple(f"x{i + 1}" for i in range(width))
    if len(names) != width:
        raise ShapeError(f"{len(names)} feature names for {width} columns")
    return tuple(names)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus an optional outcome vector.

    `x` is N rows by F feature columns; `y`, when present, pairs one outcome
    per row. Fitting requires `y`; explaining a pre-fitted model does not.
    """

    x: np.ndarray
    y: np.ndarray | None = None
    feature_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        x = as_float_array(self.x, "x", 2)
        object.__setattr__(self, "x", x)
        if self.y is not None:
            y = as_float_array(self.y, "y", 1)
            if y.shape[0] != x.shape[0]:
                raise ShapeError(
                    f"y has {y.shape[0]} rows but x has {x.shape[0]}"
                )
            object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", feature_names(self.feature_names, x.shape[1]))

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]
