"""Dataset container shared by the model zoo, the Shapley engine, and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValue, ShapeError


def has_json_type(value, types) -> bool:
    """JSON type check in which a boolean is not a number."""
    return isinstance(value, types) and not isinstance(value, bool)


def as_float_matrix(values, name: str) -> np.ndarray:
    """Validate and return a read-only 2-D float array with finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidValue(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def as_float_vector(values, name: str) -> np.ndarray:
    """Validate and return a read-only 1-D float array with finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidValue(f"{name} contains non-finite entries")
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
        x = as_float_matrix(self.x, "x")
        object.__setattr__(self, "x", x)
        if self.y is not None:
            y = as_float_vector(self.y, "y")
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
