"""In-process traced pass: the CLI's own ``main``, with a span around every
call into a layer.

The pass calls ``shapr2.cli.main`` on the workload's arguments, in process.
While it runs, the module-level names that ``shapr2.cli`` and
``shapr2.simulation`` look up at call time (``_load_explain_input``,
``fit_ols``, ``sampled_shapley``, ``run_cell``, ...) are replaced by wrappers
defined here, which open a span and call the original. The predictor handed
to the attribution engines is wrapped so that every ``predict`` /
``predict_batch`` call is a leaf span that also counts rows. The program's
files are not changed, and the pass runs the program's code path: it must
write the same bytes as the CLI run.

Program names this module relies on besides the public API:
``cli._load_decompose_input``, ``cli._load_explain_input``,
``cli._model_document``, ``cli._grid_summary``, ``cli._write_text``,
``cli._write_csv`` and ``cli._grid_from_args``.
"""

from __future__ import annotations

import dataclasses
import functools
import io
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from time import perf_counter

import numpy as np

from shapr2 import cli, simulation
from shapr2.data import Dataset
from shapr2.errors import NonPositiveDefinite
from shapr2.metrics import decompose
from shapr2.models import fit_ols
from shapr2.shapley import BackgroundSet, SamplingConfig, sampled_shapley
from shapr2.simulation import (
    SimulationCell,
    cholesky_factor,
    derive_seed,
    sample_mvn,
    uniform_correlation_matrix,
)

from workloads import SUM_IDENTITY_TOL, Inputs, grid_cells

PREDICT = "models.predict"

#: (module, attribute) -> span name. Each attribute is looked up by the
#: program at call time, so replacing it puts a span around every call.
LAYERS = {
    (cli, "_load_decompose_input"): "cli.load",
    (cli, "_load_explain_input"): "cli.load",
    (cli, "fit_ols"): "models.fit",
    (cli, "fit_stump_ensemble"): "models.fit",
    (cli, "tune_iterations"): "models.fit",
    (cli, "decompose"): "metrics.decompose",
    **{(cli, name): "report.emit" for name in (
        "build_report", "dumps", "_model_document", "_grid_summary", "_write_text", "_write_csv")},
    (simulation, "run_cell"): "simulation.run_cell",
    (simulation, "sample_mvn"): "simulation.sample",
    (simulation, "fit_ols"): "models.fit",
    (simulation, "decompose"): "metrics.decompose",
}
#: Attribution engines: spanned, and given the counting predictor.
ENGINES = ((cli, "exact_shapley"), (cli, "sampled_shapley"), (simulation, "sampled_shapley"))
#: The span each per-layer metric is read from. A metric whose span never
#: opened on a workload reads 0 there and is listed as not exercised.
METRIC_SPANS = {
    "cli.load_s": "cli.load",
    "cli.load_mb_per_s": "cli.load",
    "models.fit_s": "models.fit",
    "models.fit_iterations": "models.fit",
    **{name: PREDICT for name in ("models.predict_s", "models.predict_rows", "models.predict_calls",
                                  "models.rows_per_call", "models.predict_rows_per_s")},
    "shapley.attribute_s": "shapley.attribute",
    "shapley.self_s": "shapley.attribute",
    "metrics.decompose_s": "metrics.decompose",
    "simulation.run_cell_s": "simulation.run_cell",
    "simulation.sample_s": "simulation.sample",
    "simulation.cells_completed": "simulation.run_cell",
    "simulation.cells_skipped": "simulation.run_cell",
    "report.emit_s": "report.emit",
}


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.worst_sum_gap = 0.0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = perf_counter()

    def leaf(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self.stack[-1] if self.stack else -1])

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed duration, and summed self time (duration
        minus the part covered by child spans)."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
        return dict(total), dict(self_time)

    def coarse_spans(self) -> list[dict]:
        """Every span except the per-call predictor leaves, for the results
        file (the leaves are summarised by the counters)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"id": i, "name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans) if n != PREDICT
        ]

    def observe(self, span_name: str, out) -> None:
        """Counts and checks taken from a layer's return value."""
        if span_name == "models.fit":
            model = out[0] if isinstance(out, tuple) else out  # tune_iterations
            self.counts["fit_iterations"] += len(getattr(model, "stumps", ()))
        elif span_name == "metrics.decompose":
            gap = abs(float(np.sum(out.feature_r2)) - out.baseline_r2)
            self.worst_sum_gap = max(self.worst_sum_gap, gap)
        elif span_name == "simulation.run_cell":
            self.counts["cells_completed" if out.status == "completed" else "cells_skipped"] += 1


class CountingPredictor:
    """Times and counts every predictor call the engine makes."""

    def __init__(self, model, tracer: Tracer):
        self.model = model
        self.feature_count = model.feature_count
        self.tracer = tracer

    def predict(self, row):
        start = perf_counter()
        value = self.model.predict(row)
        self.tracer.leaf(PREDICT, start, perf_counter())
        self.tracer.counts["predict_rows"] += 1
        self.tracer.counts["predict_calls"] += 1
        return value

    def predict_batch(self, rows):
        start = perf_counter()
        out = self.model.predict_batch(rows)
        self.tracer.leaf(PREDICT, start, perf_counter())
        self.tracer.counts["predict_rows"] += len(rows)
        self.tracer.counts["predict_calls"] += 1
        return out


def _spanned(tracer: Tracer, span_name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            out = func(*args, **kwargs)
        tracer.observe(span_name, out)
        return out
    return wrapper


def _engine(tracer: Tracer, func):
    @functools.wraps(func)
    def wrapper(model, *args, **kwargs):
        with tracer.span("shapley.attribute"):
            return func(CountingPredictor(model, tracer), *args, **kwargs)
    return wrapper


@contextmanager
def _replaced(replacements: dict):
    """Set ``module.name = value`` for each ``(module, name): value``, and
    restore the originals on exit."""
    saved = {key: getattr(*key) for key in replacements}
    try:
        for (module, name), value in replacements.items():
            setattr(module, name, value)
        yield
    finally:
        for (module, name), value in saved.items():
            setattr(module, name, value)


def traced_pass(inputs: Inputs, tracer: Tracer) -> tuple[int, bytes]:
    """Run ``cli.main`` on the workload's arguments with every layer spanned.
    Returns the exit code and what it wrote to standard output; the output
    files are written where the CLI run writes them."""
    replacements = {key: _spanned(tracer, span, getattr(*key)) for key, span in LAYERS.items()}
    replacements.update({key: _engine(tracer, getattr(*key)) for key in ENGINES})
    stdout = io.StringIO()
    with _replaced(replacements), redirect_stdout(stdout):
        code = cli.main(inputs.argv)
    return code, stdout.getvalue().encode("utf-8")


def layer_metrics(tracer: Tracer, inputs: Inputs) -> tuple[dict[str, float], float, set[str]]:
    """Per-layer numbers of one traced pass, the sum of all span self times,
    and the names of the metrics whose layer ran (the others read 0)."""
    total, self_time = tracer.totals()
    c = tracer.counts
    load = total.get("cli.load", 0.0)
    predict = total.get(PREDICT, 0.0)
    metrics = {
        "cli.load_s": load,
        "cli.load_mb_per_s": inputs.input_mb / load if load > 0 else 0.0,
        "models.fit_s": total.get("models.fit", 0.0),
        "models.fit_iterations": c["fit_iterations"],
        "models.predict_s": predict,
        "models.predict_rows": c["predict_rows"],
        "models.predict_calls": c["predict_calls"],
        "models.rows_per_call": c["predict_rows"] / c["predict_calls"] if c["predict_calls"] else 0.0,
        "models.predict_rows_per_s": c["predict_rows"] / predict if predict > 0 else 0.0,
        "shapley.attribute_s": total.get("shapley.attribute", 0.0),
        "shapley.self_s": self_time.get("shapley.attribute", 0.0),
        "metrics.decompose_s": total.get("metrics.decompose", 0.0),
        "simulation.run_cell_s": total.get("simulation.run_cell", 0.0),
        "simulation.sample_s": total.get("simulation.sample", 0.0),
        "simulation.cells_completed": c["cells_completed"],
        "simulation.cells_skipped": c["cells_skipped"],
        "report.emit_s": total.get("report.emit", 0.0),
    }
    exercised = {name for name, span in METRIC_SPANS.items() if span in total}
    if not c["fit_iterations"]:
        exercised.discard("models.fit_iterations")  # no stump model was fit
    return metrics, sum(self_time.values()), exercised


# ---------------------------------------------------------------------------
# Step-by-step replay of one simulation cell (a check, not timed)


def grid_cell_specs(argv: list[str]):
    """The grid and every cell's ``(config_id, spec)`` in ``run_grid``'s
    order, with its seeds: taken from ``run_grid`` itself, run with
    ``run_cell`` stubbed out."""
    grid = cli._grid_from_args(cli.build_parser().parse_args(argv))
    stub = {(simulation, "run_cell"):
            lambda spec, **_: SimulationCell(spec=spec, status="skipped_non_pd")}
    with _replaced(stub):
        cells = simulation.run_grid(grid).cells
    return grid, [(config_id, cell.spec)
                  for (config_id, _), row in zip(grid.coefficient_configs, cells) for cell in row]


def replay_cell(spec, grid):
    """``run_cell``'s steps for the sampled estimator, called one by one:
    ``cholesky_factor`` -> ``sample_mvn`` -> ``fit_ols`` -> ``sampled_shapley``
    -> ``decompose``. Returns the decomposition, or None for a cell that is
    not positive definite."""
    try:
        cholesky_factor(uniform_correlation_matrix(spec.feature_count, spec.rho))
    except NonPositiveDefinite:
        return None
    x = sample_mvn(dataclasses.replace(spec, seed=derive_seed(spec.seed, 1)))
    noise = np.random.Generator(np.random.Philox(key=np.uint64(derive_seed(spec.seed, 2))))
    y = x @ np.asarray(spec.coefficients) + spec.noise_sd * noise.standard_normal(spec.n_samples)
    dataset = Dataset(x=x, y=y)
    model = fit_ols(dataset)
    config = SamplingConfig(permutations_per_instance=grid.permutations,
                            seed=derive_seed(spec.seed, 3),
                            background_subsample=grid.background_subsample)
    matrix = sampled_shapley(model, dataset, BackgroundSet(x), config)
    return decompose(y, model.predict_batch(x), matrix)


def check_replayed_cell(inputs: Inputs, grid_csv: bytes) -> list[str]:
    """The last completed cell of the grid, replayed step by step, must match
    the CLI's grid bit for bit and satisfy the sum identity. The last cell has
    the strongest correlation, so its ``sigma_unique`` is far from the clamp
    at 1 that cells with negative correlation sit on."""
    grid, specs = grid_cell_specs(inputs.argv)
    for config_id, spec in reversed(specs):
        result = replay_cell(spec, grid)
        if result is not None:
            break
    want = (result.sigma_unique, result.baseline_r2)
    got = grid_cells(grid_csv).get((spec.rho, config_id))
    problems = []
    if got != want:
        problems.append(f"cell rho={spec.rho} {config_id}: CLI {got} != replay {want}")
    gap = abs(float(np.sum(result.feature_r2)) - result.baseline_r2)
    if not gap <= SUM_IDENTITY_TOL:
        problems.append(f"cell rho={spec.rho} {config_id}: shares miss baseline_r2 by {gap:.3e}")
    return problems
