"""Dataset container and input checks shared by the model zoo, the engines and the CLI."""

from __future__ import annotations

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


def as_float_array(values, name: str, ndim: int) -> np.ndarray:
    """Validate and return a read-only ``ndim``-dimensional float array with
    finite entries.

    A float array that is read-only through its whole ``.base`` chain, down
    to an array that owns its data, comes back as it is, without a copy: no
    writeable array shares its memory. Any other input is copied (a writeable
    array, a read-only view of a writeable array, an array over a foreign
    buffer), so later changes to it leave the result alone."""
    arr = np.asarray(values, dtype=float)
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
        if not self.feature_names:
            object.__setattr__(
                self,
                "feature_names",
                tuple(f"x{i + 1}" for i in range(x.shape[1])),
            )
        elif len(self.feature_names) != x.shape[1]:
            raise ShapeError(
                f"{len(self.feature_names)} feature names for {x.shape[1]} columns"
            )

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]
