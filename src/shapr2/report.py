"""Report document construction and byte-stable JSON serialization.

The report schema (stable keys):

    {"baseline_r2", "features": [{"name", "r2", "share", "variance_ratio",
     "rank"}], "sigma_unique_raw", "sigma_unique", "provenance", "warnings"}

JSON numbers are Python and numpy integer and floating scalars, formatted here
alone (a numpy bool and a non-finite float are refused). Floats carry 17 significant
digits of their float64 value, so every value round-trips losslessly and two runs
of the same command produce identical bytes; the stdlib json module has no such hook.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidValue
from .metrics import R2Decomposition

VERSION = "0.1.0"


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise InvalidValue(f"cannot serialize non-finite number {value!r}")
    return format(float(value), ".17g")


def _emit(value, indent: int, pieces: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            pieces.append(f'{pad}  {json.dumps(key)}: ')
            _emit(item, indent + 1, pieces)
            pieces.append(",\n" if i < len(value) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(value):
            pieces.append(pad + "  ")
            _emit(item, indent + 1, pieces)
            pieces.append(",\n" if i < len(value) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif value is None:
        pieces.append("null")
    elif isinstance(value, (int, np.integer)):  # np.bool_ is neither
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(format_float(value))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    else:
        raise InvalidValue(f"cannot serialize {type(value).__name__}")


def dumps(document: dict) -> str:
    """Deterministic, indented JSON text (trailing newline included)."""
    pieces: list[str] = []
    _emit(document, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def build_report(
    result: R2Decomposition,
    provenance: dict,
    extra_warnings: tuple[str, ...] = (),
) -> dict:
    ranks = {f: pos + 1 for pos, f in enumerate(result.ranking)}
    features = [
        {
            "name": result.feature_names[f],
            "r2": result.feature_r2[f],
            "share": result.feature_shares[f],
            "variance_ratio": result.variance_ratios[f],
            "rank": ranks[f],
        }
        for f in range(len(result.feature_names))
    ]
    return {
        "baseline_r2": result.baseline_r2,
        "features": features,
        "sigma_unique_raw": result.sigma_unique_raw,
        "sigma_unique": result.sigma_unique,
        "provenance": provenance,
        "warnings": list(result.warnings) + list(extra_warnings),
    }
