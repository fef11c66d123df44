"""The four benchmark workloads: seeded inputs, CLI arguments, output checks.

Every input is a pure function of the workload seed. The program under test
only ever sees the generated files; the arrays behind them stay here so the
checks can recompute the expected answer independently of ``shapr2``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Tolerance of the sum identity: the per-feature R² values must add up to
#: ``baseline_r2`` within this (absolute) gap, as the README promises.
SUM_IDENTITY_TOL = 1e-10
#: Relative tolerance of ``phi0 + sum(phi) == yhat`` (same scale rule as
#: ``ShapleyMatrix.additivity_gap``; the engines guarantee 1e-9).
ADDITIVITY_TOL = 1e-9
#: Agreement between the report and the independent numpy reference. The
#: formulas are the same, so this only absorbs summation order; the absolute
#: term covers features the model ignores (0 in the report, ~1e-16 here).
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12

DECOMPOSE_ROWS = 200_000
DECOMPOSE_FEATURES = 8
EXPLAIN_ROWS = 300
EXPLAIN_FEATURES = 6
# The simulate grid is the CLI default: 9 rho values x 3 coefficient configs.
# With 3 features the uniform correlation matrix is positive definite iff
# rho > -1/2, so rho = -0.8 and -0.6 are skipped in every config.
SIM_ROWS = 27
SIM_NON_PD_RHOS = (-0.8, -0.6)


@dataclass
class Inputs:
    """Generated files plus what the checks need to know about them."""

    workload: str
    argv: list[str]            # shapr2 arguments, output paths included
    files: dict[str, Path]     # input files the program reads
    outputs: dict[str, Path]   # files the program writes (stdout is "report")
    expect: dict = field(default_factory=dict)

    def manifest(self) -> dict:
        """Size and sha256 of every input, so two sets of runs can be shown
        to have used identical inputs."""
        out = {}
        for name, path in self.files.items():
            data = path.read_bytes()
            out[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        return out

    @property
    def input_mb(self) -> float:
        return sum(p.stat().st_size for p in self.files.values()) / 1e6


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=stream))


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    # 17 significant digits: every value round-trips exactly, so the arrays
    # kept here are bit-for-bit what the program parses.
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


# ---------------------------------------------------------------------------
# Generators


def _decompose_inputs(seed: int, work: Path) -> Inputs:
    rng = _rng(seed, 0)
    n, f = DECOMPOSE_ROWS, DECOMPOSE_FEATURES
    x = rng.standard_normal((n, f))
    beta = np.linspace(1.0, 0.3, f) * rng.uniform(0.8, 1.25, f)
    phi = beta * (x - x.mean(axis=0))
    phi0 = float(rng.uniform(-5.0, 5.0))
    # yhat is built from the very floats written below, so the file is
    # exactly additive (up to the order of one float sum)
    yhat = phi0 + phi.sum(axis=1)
    y = yhat + 1.5 * rng.standard_normal(n)
    path = work / "attributions.csv"
    names = [f"phi_x{i + 1}" for i in range(f)]
    _write_csv(path, ["y", "yhat", "phi0", *names],
               [y, yhat, np.full(n, phi0), *phi.T])
    return Inputs(
        workload="decompose_200k",
        argv=["decompose", str(path)],
        files={"attributions.csv": path},
        outputs={},
        expect={"y": y, "yhat": yhat, "phi": phi},
    )


def _explain_base() -> tuple[np.ndarray, np.ndarray]:
    """Structural draw shared by every seed of the explain workloads."""
    rng = _rng(20190826, 1)
    n, f = EXPLAIN_ROWS, EXPLAIN_FEATURES
    x = rng.standard_normal((n, f))
    beta = np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.1])
    y = x @ beta + 0.5 * np.sin(2.0 * x[:, 0]) + 1.17 * rng.standard_normal(n)
    return x, y


def _explain_dataset(seed: int, work: Path) -> tuple[Path, np.ndarray, np.ndarray, list[str]]:
    """The seed reorders rows and columns and applies a positive affine map to
    every column. Boosted stumps see only the order of each column, so the
    tuned stump count, and with it the cost of every run, is the same on every
    seed, while the bytes and values of the input differ. (A fresh draw per
    seed moves the tuned count by 6-17 %, more than any usable bound.)"""
    x, y = _explain_base()
    rng = _rng(seed, 1)
    n, f = x.shape
    rows = rng.permutation(n)
    cols = rng.permutation(f)
    x = (x * rng.uniform(0.5, 2.0, f) + rng.uniform(-3.0, 3.0, f))[rows][:, cols]
    y = (y * rng.uniform(0.5, 2.0) + rng.uniform(-3.0, 3.0))[rows]
    names = [f"x{c + 1}" for c in cols]
    path = work / "data.csv"
    _write_csv(path, ["y", *names], [y, *x.T])
    return path, x, y, names


def _explain_exact_inputs(seed: int, work: Path) -> Inputs:
    path, x, y, names = _explain_dataset(seed, work)
    shap, model = work / "phi.csv", work / "model.json"
    return Inputs(
        workload="explain_stumps_exact",
        argv=["explain", str(path), "--target", "y", "--model", "stumps",
              "--target-r2", "0.6", "--learning-rate", "0.05", "--threads", "1",
              "--emit-shap", str(shap), "--emit-model", str(model)],
        files={"data.csv": path},
        outputs={"phi.csv": shap, "model.json": model},
        expect={"x": x, "y": y, "names": names,
                "predict_rows": EXPLAIN_ROWS * (2**EXPLAIN_FEATURES - 1) * EXPLAIN_ROWS
                + EXPLAIN_ROWS},
    )


SAMPLED_PERMUTATIONS = 10
SAMPLED_SUBSAMPLE = 32


def _explain_sampled_inputs(seed: int, work: Path) -> Inputs:
    path, x, y, names = _explain_dataset(seed, work)
    shap = work / "phi.csv"
    n, f, m, k = EXPLAIN_ROWS, EXPLAIN_FEATURES, SAMPLED_PERMUTATIONS, SAMPLED_SUBSAMPLE
    return Inputs(
        workload="explain_stumps_sampled",
        argv=["explain", str(path), "--target", "y", "--model", "stumps",
              "--iterations", "200", "--sampled", "--permutations", str(m),
              "--background-subsample", str(k), "--seed", "7", "--threads", "1",
              "--emit-shap", str(shap)],
        files={"data.csv": path},
        outputs={"phi.csv": shap},
        expect={"x": x, "y": y, "names": names,
                "predict_rows": n * m * (f - 1) * k + n + n},
    )


SIM_SAMPLES = 200
SIM_PERMUTATIONS = 20
SIM_SUBSAMPLE = 16
SIM_FEATURES = 3


def _simulate_inputs(seed: int, work: Path) -> Inputs:
    grid, summary = work / "grid.csv", work / "summary.json"
    n, m, k, f = SIM_SAMPLES, SIM_PERMUTATIONS, SIM_SUBSAMPLE, SIM_FEATURES
    completed = SIM_ROWS - 3 * len(SIM_NON_PD_RHOS)
    return Inputs(
        workload="simulate_sampled_grid",
        argv=["simulate", "--estimator", "sampled", "--permutations", str(m),
              "--n-samples", str(n), "--background-subsample", str(k),
              "--seed", str(seed), "--threads", "1",
              "--out", str(grid), "--summary-out", str(summary)],
        files={},
        outputs={"grid.csv": grid, "summary.json": summary},
        expect={"seed": seed, "predict_rows": completed * (n * m * (f - 1) * k + n + n)},
    )


GENERATORS = {
    "decompose_200k": _decompose_inputs,
    "explain_stumps_exact": _explain_exact_inputs,
    "explain_stumps_sampled": _explain_sampled_inputs,
    "simulate_sampled_grid": _simulate_inputs,
}


def make_inputs(workload: str, seed: int, work: Path) -> Inputs:
    return GENERATORS[workload](seed, work)


# ---------------------------------------------------------------------------
# Independent reference and checks


def reference_decomposition(y, yhat, phi) -> dict:
    """numpy re-derivation of ``baseline_r2`` and the per-feature R² and
    shares (unbiased variances, clamp at 1, simplex renormalisation)."""
    var_hat = np.var(yhat, ddof=1)
    var_res = np.var(y - yhat, ddof=1)
    r2b = var_hat / (var_hat + var_res)
    modified = np.var(y[:, None] - (yhat[:, None] - phi), axis=0, ddof=1)
    ratio = np.minimum(var_res / modified, 1.0)
    weights = r2b * (1.0 - ratio)
    shares = weights / weights.sum()
    return {"baseline_r2": float(r2b), "share": shares, "r2": shares * r2b}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b)) + REFERENCE_ATOL


def check_report(report: dict, y, yhat, phi, names) -> list[str]:
    """Sum identity plus agreement with the numpy reference."""
    problems = []
    feats = report["features"]
    if [f["name"] for f in feats] != list(names):
        problems.append(f"feature names {[f['name'] for f in feats]} != {list(names)}")
        return problems
    gap = abs(sum(f["r2"] for f in feats) - report["baseline_r2"])
    if not gap <= SUM_IDENTITY_TOL:
        problems.append(f"shares sum to baseline_r2 only within {gap:.3e}")
    ref = reference_decomposition(y, yhat, phi)
    if not _close(report["baseline_r2"], ref["baseline_r2"]):
        problems.append(f"baseline_r2 {report['baseline_r2']!r} != reference {ref['baseline_r2']!r}")
    for i, feat in enumerate(feats):
        for key in ("r2", "share"):
            if not _close(feat[key], float(ref[key][i])):
                problems.append(f"{feat['name']}.{key} {feat[key]!r} != reference {float(ref[key][i])!r}")
    return problems


def _read_matrix(data: bytes) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    return rows[0], np.array(rows[1:], dtype=float)


def _stump_predictions(doc: dict, x: np.ndarray) -> np.ndarray:
    out = np.full(x.shape[0], doc["init_value"])
    for s in doc["stumps"]:
        out += doc["learning_rate"] * np.where(
            x[:, s["feature_index"]] <= s["threshold"], s["left_value"], s["right_value"])
    return out


def check_outputs(inputs: Inputs, stdout: bytes, files: dict[str, bytes]) -> list[str]:
    """Everything the workload's outputs must satisfy. Returns the problems."""
    try:
        if inputs.workload == "simulate_sampled_grid":
            return _check_simulate(inputs, files)
        report = json.loads(stdout)
        if inputs.workload == "decompose_200k":
            e = inputs.expect
            problems = check_report(report, e["y"], e["yhat"], e["phi"],
                                    [f"x{i + 1}" for i in range(DECOMPOSE_FEATURES)])
            if report["warnings"]:
                problems.append(f"unexpected warnings {report['warnings']}")
            return problems
        return _check_explain(inputs, report, files)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_explain(inputs: Inputs, report: dict, files: dict[str, bytes]) -> list[str]:
    e = inputs.expect
    header, mat = _read_matrix(files["phi.csv"])
    want = ["y", "yhat", "phi0", *(f"phi_{n}" for n in e["names"])]
    if header != want:
        return [f"emitted header {header} != {want}"]
    y, yhat, phi0, phi = mat[:, 0], mat[:, 1], mat[:, 2], mat[:, 3:]
    problems = []
    if not np.array_equal(y, e["y"]):
        problems.append("emitted y differs from the input target")
    gap = float(np.max(np.abs(phi0 + phi.sum(axis=1) - yhat) / np.maximum(np.abs(yhat), 1.0)))
    if not gap <= ADDITIVITY_TOL:
        problems.append(f"phi0 + sum(phi) misses yhat by {gap:.3e} (relative)")
    if "model.json" in inputs.outputs:
        doc = json.loads(files["model.json"])
        want_iters = report["provenance"]["options"]["iterations"]
        if len(doc["stumps"]) != want_iters:
            problems.append(f"model has {len(doc['stumps'])} stumps, report says {want_iters}")
        pred = _stump_predictions(doc, e["x"])
        if not np.allclose(pred, yhat, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(yhat))))):
            problems.append("emitted model does not reproduce the emitted yhat")
    problems += check_report(report, y, yhat, phi, e["names"])
    return problems


def _check_simulate(inputs: Inputs, files: dict[str, bytes]) -> list[str]:
    rows = list(csv.reader(files["grid.csv"].decode("utf-8").splitlines()))
    problems = []
    if rows[0] != ["rho", "config_id", "status", "sigma_unique", "baseline_r2"]:
        problems.append(f"grid header {rows[0]}")
    body = rows[1:]
    if len(body) != SIM_ROWS:
        problems.append(f"grid has {len(body)} rows, expected {SIM_ROWS}")
    skipped = [r for r in body if r[2] == "skipped_non_pd"]
    if len(skipped) != 3 * len(SIM_NON_PD_RHOS):
        problems.append(f"{len(skipped)} cells skipped_non_pd, expected {3 * len(SIM_NON_PD_RHOS)}")
    for rho, config_id, status, sigma, r2b in body:
        non_pd = float(rho) in SIM_NON_PD_RHOS
        if status != ("skipped_non_pd" if non_pd else "completed"):
            problems.append(f"cell rho={rho} {config_id} has status {status}")
        elif status == "completed" and not (0.0 <= float(sigma) <= 1.0 and 0.0 < float(r2b) < 1.0):
            problems.append(f"cell rho={rho} {config_id} out of range: {sigma}, {r2b}")
    summary = json.loads(files["summary.json"])
    if summary["seed"] != inputs.expect["seed"]:
        problems.append(f"summary seed {summary['seed']} != {inputs.expect['seed']}")
    for cfg in summary["configs"]:
        if (cfg["completed"], cfg["skipped_non_pd"]) != (9 - len(SIM_NON_PD_RHOS), len(SIM_NON_PD_RHOS)):
            problems.append(f"summary config {cfg['config_id']}: {cfg['completed']} completed")
    return problems


def grid_cells(grid_csv: bytes) -> dict[tuple[float, str], tuple[float, float]]:
    """(rho, config_id) -> (sigma_unique, baseline_r2) for completed cells."""
    rows = list(csv.reader(grid_csv.decode("utf-8").splitlines()))[1:]
    return {(float(r[0]), r[1]): (float(r[3]), float(r[4]))
            for r in rows if r[2] == "completed"}


def perturbed(inputs: Inputs, stdout: bytes, files: dict[str, bytes]) -> tuple[bytes, dict[str, bytes]]:
    """A copy of correct outputs with one share (simulate: the last completed
    cell's sigma_unique) moved by a relative 1e-6; the checks must reject it."""
    if inputs.workload == "simulate_sampled_grid":
        lines = files["grid.csv"].decode("utf-8").split("\n")
        for i, line in reversed(list(enumerate(lines))):
            cells = line.split(",")
            if len(cells) == 5 and cells[2] == "completed":
                cells[3] = repr(float(cells[3]) * (1 + 1e-6))
                lines[i] = ",".join(cells)
                break
        return stdout, {**files, "grid.csv": "\n".join(lines).encode("utf-8")}
    report = json.loads(stdout)
    biggest = max(report["features"], key=lambda feat: feat["share"])
    biggest["share"] *= 1 + 1e-6
    return json.dumps(report).encode("utf-8"), files
