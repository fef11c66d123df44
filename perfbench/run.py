"""shapr2 benchmark: end-to-end CLI timings and a traced per-layer split.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

``--trace 0`` runs the ``shapr2`` CLI as a child process, one at a time, for
about S seconds and reports wall time, CPU time and peak RSS per invocation,
plus the interpreter set-up time; the three times are scaled to a reference
machine speed, measured by a probe that runs no shapr2 code. ``--trace 1``
alternates untraced CLI runs with an in-process traced pass over the same
inputs and reports the layer metrics. ``--workload all`` runs every workload both ways and prints every
metric. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from launcher import Launcher
from workloads import SUM_IDENTITY_TOL, Inputs, check_outputs, make_inputs, perturbed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("decompose_200k", "explain_stumps_exact", "explain_stumps_sampled",
             "simulate_sampled_grid")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.load_s": "s",
    "cli.load_mb_per_s": "MB/s",
    "models.fit_s": "s",
    "models.fit_iterations": "count",
    "models.predict_s": "s",
    "models.predict_rows": "count",
    "models.predict_calls": "count",
    "models.rows_per_call": "rows/call",
    "models.predict_rows_per_s": "rows/s",
    "shapley.attribute_s": "s",
    "shapley.self_s": "s",
    "metrics.decompose_s": "s",
    "simulation.run_cell_s": "s",
    "simulation.sample_s": "s",
    "simulation.cells_completed": "count",
    "simulation.cells_skipped": "count",
    "report.emit_s": "s",
    "trace.coverage": "ratio",
    "trace.wall_accounted": "ratio",
    "trace.overhead_ratio": "ratio",
}
#: Counters that must repeat exactly from pass to pass.
EXACT_COUNTS = ("models.predict_rows", "models.predict_calls", "models.fit_iterations",
                "simulation.cells_completed", "simulation.cells_skipped")
#: Set-up probes before each CLI run. Spread through the run, they see the
#: same drift in machine speed as the runs they sit between.
SETUP_PROBES_PER_RUN = 2
#: The traced layer self times plus start-up must account for the untraced
#: wall time within this band (``trace.wall_accounted``), or the run is
#: marked incorrect. A 30 s traced run holds only 2-3 pairs of a traced pass
#: and a CLI run, and on a shared 2-vCPU machine single pairs read 0.64-1.31
#: for correct code, so the band is a factor 1.5 either way. It still fails a
#: run in which a third of the CLI's time runs outside every layer span.
COVERAGE_BAND = (2 / 3, 3 / 2)

CLI_CODE = "import sys; from shapr2.cli import main; sys.exit(main())"
SETUP_CODE = "from shapr2.cli import build_parser; build_parser()"
#: Reference probe: interpreter start, numpy import and a fixed loop of small
#: numpy operations, none of it shapr2. Probed beside the set-up probes, its
#: median measures how fast the machine ran during the run.
REF_CODE = "import numpy as np\nx = np.arange(256.0)\nfor _ in range(4000): float((x * 1.0001).sum())"
#: The time the reference probe is scaled to. It is about the probe's time on
#: the machine the benchmark was written on, where adjusted and raw times
#: therefore read alike.
REF_NOMINAL_S = 0.2
#: End-to-end times reported at the reference speed: raw median times
#: REF_NOMINAL_S / median reference probe of the same run.
SPEED_ADJUSTED = ("wall_s", "cpu_s", "setup_s")

TUNING = ("none: nothing pinned, no caches dropped, no CPU frequency, scheduler "
          "or cgroup setting changed; numbers are as measured on a shared machine")


# ---------------------------------------------------------------------------
# Environment record (read only)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _cgroup_cpu_max() -> str:
    value = _read("/sys/fs/cgroup/cpu.max")
    if value is not None:
        return value
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is not None and period is not None:
        return f"{'max' if quota == '-1' else quota} {period} (cgroup v1 cfs quota/period)"
    return "unavailable"


def environment() -> dict:
    cpu_model = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cgroup_cpu_max": _cgroup_cpu_max(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tuning": TUNING,
    }


# ---------------------------------------------------------------------------
# CLI runs


class Runner:
    """Runs the CLI on one workload's inputs and checks every output."""

    def __init__(self, inputs: Inputs, work: Path, launcher: Launcher):
        self.inputs = inputs
        self.work = work
        self.launcher = launcher
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.first: tuple | None = None   # outputs of the first correct run
        self.children: list[dict] = []
        self.failed_runs: set[int] = set()
        self.failures: list[str] = []

    def fail(self, run: int, message: str) -> None:
        self.failed_runs.add(run)
        self.failures.append(f"run {run}: {message}")

    def _spawn(self, code: str, args: list[str], name: str) -> dict:
        return self.launcher.run([sys.executable, "-c", code, *args], self.env, ROOT,
                                 self.work / f"{name}.out", self.work / f"{name}.err")

    def _probe(self, code: str, name: str) -> float:
        child = self._spawn(code, [], name)
        if child["code"] != 0:
            raise RuntimeError(f"the {name} probe failed: "
                               + (self.work / f"{name}.err").read_text(errors="replace")[-500:])
        return child["wall_s"]

    def ref_probe(self) -> float:
        return self._probe(REF_CODE, "ref")

    def setup_probe(self) -> float:
        return self._probe(SETUP_CODE, "setup")

    def clear_outputs(self) -> None:
        for path in self.inputs.outputs.values():
            path.unlink(missing_ok=True)

    def invoke(self) -> None:
        self.clear_outputs()
        child = self._spawn(CLI_CODE, self.inputs.argv, "cli")
        self.children.append(child)
        run = len(self.children)
        if child["code"] != 0:
            err = (self.work / "cli.err").read_text(errors="replace")[-300:]
            self.fail(run, f"exit code {child['code']}: {err}")
            return
        outputs = self.read_outputs()
        if outputs is None:
            self.fail(run, "an output file is missing")
        elif self.first is not None:
            if outputs != self.first:
                self.fail(run, "output bytes differ from the first run")
        else:
            problems = self.check(*outputs)
            if problems:
                self.fail(run, "; ".join(problems[:5]))
            else:
                self.first = outputs

    def read_outputs(self, stdout: bytes | None = None) -> tuple[bytes, dict[str, bytes]] | None:
        """Standard output (by default the last CLI run's) and every output
        file, or None if a file is missing."""
        try:
            files = {name: p.read_bytes() for name, p in self.inputs.outputs.items()}
        except FileNotFoundError:
            return None
        if stdout is None:
            stdout = (self.work / "cli.out").read_bytes()
        return stdout, files

    def check(self, stdout: bytes, files: dict[str, bytes]) -> list[str]:
        problems = check_outputs(self.inputs, stdout, files)
        if self.inputs.workload == "simulate_sampled_grid" and not problems:
            import traced  # imports shapr2, which main() puts on sys.path

            problems = traced.check_replayed_cell(self.inputs, files["grid.csv"])
        return problems

    def checks_catch_a_wrong_answer(self) -> bool:
        if self.first is None:
            return True  # nothing correct to perturb; the run already failed
        return bool(self.check(*perturbed(self.inputs, *self.first)))


# ---------------------------------------------------------------------------
# One run


def _spread(values: list[float]) -> str:
    return (f"raw: median {median(values):.6g} of {len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g}")


def _repeat(seconds: float, step) -> None:
    """Call ``step`` until one more call would likely end after ``seconds``."""
    start = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        step()
        durations.append(perf_counter() - t0)
        if perf_counter() - start + median(durations) > seconds:
            return


def measure_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.setup_probe()  # compiles bytecode; users do not pay this per run
    runner.ref_probe()
    setups: list[float] = []
    refs: list[float] = []

    def step():
        for _ in range(SETUP_PROBES_PER_RUN):
            setups.append(runner.setup_probe())
            refs.append(runner.ref_probe())
        runner.invoke()

    _repeat(seconds, step)
    kids = runner.children
    samples = {
        **{name: [c[name] for c in kids] for name in ("wall_s", "cpu_s", "peak_rss_mb")},
        "setup_s": setups,
        "ref_s": refs,
    }
    speed = REF_NOMINAL_S / median(refs)
    metrics = {name: median(samples[name]) * (speed if name in SPEED_ADJUSTED else 1.0)
               for name in END_TO_END}
    return metrics, samples


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict, list[str], list, set]:
    from traced import Tracer, layer_metrics, traced_pass

    inputs = runner.inputs
    runner.setup_probe()
    startups: list[float] = []
    passes: list[dict] = []
    pairs: list[dict] = []   # per step: start-up, traced pass, and the CLI run beside it
    problems: list[str] = []
    spans: list = []
    exercised: set[str] = set()

    def step():
        nonlocal spans, exercised
        probes = [runner.setup_probe() for _ in range(SETUP_PROBES_PER_RUN)]
        startups.extend(probes)
        runner.invoke()
        runner.clear_outputs()
        tracer = Tracer()
        t0 = perf_counter()
        code, stdout = traced_pass(inputs, tracer)
        pass_wall = perf_counter() - t0
        metrics, self_sum, exercised = layer_metrics(tracer, inputs)
        passes.append(metrics)
        spans = tracer.coarse_spans()
        pairs.append({"startup_s": median(probes), "pass_wall_s": pass_wall,
                      "self_sum_s": self_sum, "cli_wall_s": runner.children[-1]["wall_s"]})
        problems.extend(_replay_problems(runner, code, stdout))
        if not tracer.worst_sum_gap <= SUM_IDENTITY_TOL:
            problems.append(f"traced shares miss baseline_r2 by {tracer.worst_sum_gap:.3e}")

    _repeat(seconds, step)

    for name in EXACT_COUNTS:
        values = {p[name] for p in passes}
        if len(values) != 1:
            problems.append(f"{name} differs between traced passes: {sorted(values)}")
    want_rows = inputs.expect.get("predict_rows", 0)
    if passes[0]["models.predict_rows"] != want_rows:
        problems.append(f"models.predict_rows {passes[0]['models.predict_rows']} != "
                        f"closed form {want_rows}")

    metrics = {name: median(p[name] for p in passes) for name in passes[0]}
    metrics["cli.startup_s"] = median(startups)
    # Ratios are taken per step, against the CLI run beside the traced pass,
    # so that drift in machine speed between steps cancels.
    metrics["trace.coverage"] = median(p["self_sum_s"] / p["pass_wall_s"] for p in pairs)
    metrics["trace.wall_accounted"] = median(
        (p["startup_s"] + p["self_sum_s"]) / p["cli_wall_s"] for p in pairs)
    metrics["trace.overhead_ratio"] = median(
        (p["startup_s"] + p["pass_wall_s"]) / p["cli_wall_s"] for p in pairs)
    lo, hi = COVERAGE_BAND
    if not lo <= metrics["trace.wall_accounted"] <= hi:
        problems.append(f"layer self times and start-up account for "
                        f"{metrics['trace.wall_accounted']:.3f} of the untraced wall time, "
                        f"outside {lo:.3f}-{hi:.3f}")
    exercised |= {"cli.startup_s", "trace.coverage", "trace.wall_accounted", "trace.overhead_ratio"}
    samples = {"startup_s": startups, "pairs": pairs, "passes": passes}
    return metrics, samples, problems, spans, exercised


def _replay_problems(runner: Runner, code: int, stdout: bytes) -> list[str]:
    """The traced pass must write the CLI's bytes: standard output and every
    output file."""
    if runner.first is None:
        return ["no correct CLI output to compare the traced pass with"]
    if code != 0:
        return [f"traced pass exited with code {code}"]
    outputs = runner.read_outputs(stdout)
    if outputs is None:
        return ["traced pass left an output file missing"]
    first_stdout, first_files = runner.first
    problems = [] if outputs[0] == first_stdout else ["traced standard output differs from the CLI's"]
    problems += [f"traced {name} differs from the CLI's"
                 for name, data in outputs[1].items() if first_files[name] != data]
    return problems


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = ROOT / ".perfbench" / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment()
        env["loadavg_before"] = os.getloadavg()
        inputs = make_inputs(workload, seed, work)
        manifest = inputs.manifest()
        with Launcher() as launcher:
            runner = Runner(inputs, work, launcher)
            if trace:
                metrics, samples, problems, spans, exercised = measure_traced(runner, seconds)
                units = PER_LAYER
            else:
                metrics, samples = measure_untraced(runner, seconds)
                problems, spans, units = [], [], END_TO_END
                exercised = set(END_TO_END)
            if not runner.checks_catch_a_wrong_answer():
                problems.append("the output checks accepted a perturbed report")
        env["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runner.children)
    failed = len(runner.failed_runs)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "inputs": manifest, "samples": samples,
              "failures": runner.failures, "problems": problems, "spans": spans,
              "not_exercised": sorted(set(units) - exercised), "result": result}
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_run(record, samples if not trace else None)
    return result


def _print_run(record: dict, e2e_samples: dict | None) -> None:
    res = record["result"]
    env = record["environment"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"seconds {record['seconds']}")
    print(f"   env: nproc {env['nproc']}, {env['cpu_model']}, cgroup cpu.max "
          f"{env['cgroup_cpu_max']}, python {env['python']}, numpy {env['numpy']}, "
          f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}")
    print(f"   tuning: {env['tuning']}")
    for name, info in record["inputs"].items():
        print(f"   input {name}: {info['bytes']} bytes, sha256 {info['sha256']}")
    for name, m in res["metrics"].items():
        if name in record["not_exercised"]:
            extra = "   (layer not run on this workload; reads 0)"
        else:
            extra = f"   ({_spread(e2e_samples[name])})" if e2e_samples else ""
        print(f"   {name:28s} {m['value']:>16.6f} {m['unit']}{extra}")
    if e2e_samples:
        print(f"   {'reference probe':28s} {median(e2e_samples['ref_s']):>16.6f} s   "
              f"({_spread(e2e_samples['ref_s'])}); speed-adjusted: "
              f"{', '.join(SPEED_ADJUSTED)} x {REF_NOMINAL_S} s / reference median")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"   {'error_rate':28s} {rate:>16.6f} ratio   ({res['failed']} of "
          f"{res['attempted']} CLI runs failed)")
    for line in record["failures"] + record["problems"]:
        print(f"   FAIL {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if not (SRC / "shapr2" / "cli.py").is_file():
        print(f"error: no shapr2 sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            ok &= run_one(workload, args.seed, args.seconds, trace)["correct"]
    print(f"all workloads correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
