"""Command-line interface: decompose, explain, simulate.

Contracts:

* reports are JSON on stdout by default (``--out`` redirects to a file); CSV
  artifacts always require explicit paths,
* outputs are all or nothing: a run that fails creates or changes none of
  its output files, and no two name one file (a device or a pipe may take
  several); stdout is written last, after the files are replaced,
* CSV outputs are written by :mod:`csv` in the readers' dialect, so an
  ``--emit-shap`` file reads back into ``decompose`` whatever its header,
* exit codes: 0 success, 2 input/validation error, 3 numerical failure or
  out of memory,
* with fixed seeds, output bytes are identical across runs; ``--threads``
  is accepted and validated but changes neither results nor the execution
  path, and provenance records semantic options only, never performance
  knobs or output paths,
* a run is one OS thread: importing this module sets
  ``OPENBLAS_NUM_THREADS=1`` before numpy loads, unless the caller has set
  it, so OpenBLAS starts no worker; ``import shapr2`` alone sets nothing.

Input schemas:

* decompose CSV: header row with columns ``y``, ``yhat``, one ``phi_<name>``
  per feature, optional constant ``phi0`` column,
* explain CSV: header row; one numeric target column named by ``--target``;
  every other column is a numeric feature,
* both: UTF-8 (a leading byte order mark is ignored); every row has the
  header's width, and blank lines are rejected; cells use Python ``float()``
  syntax without ``_``, may be quoted, and must be finite.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import stat
import sys
import tempfile
import warnings
from types import SimpleNamespace

# see the contract above: OpenBLAS would start a worker at ``import numpy``
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402 (after the thread count is set)

from .data import Dataset, has_json_type, json_floats
from .errors import FeatureCountExceeded, Shapr2Error, SingularDesign, ValidationError
from .metrics import ShapleyMatrix, decompose, outcome_variance
from .models import TUNE_TOLERANCE, check_boosting_options, fit_ols, fit_stump_ensemble, tune_iterations
from .models import model_document as _model_document
from .report import VERSION, build_report, dumps
from .shapley import BackgroundSet, SamplingConfig, check_exact_width, exact_shapley, sampled_shapley
from .simulation import ESTIMATORS, GridSpec, run_grid

#: Relative additivity gap beyond which an ingested phi0 triggers a warning.
INGEST_ADDITIVITY_RTOL = 1e-6

THREADS_HELP = (
    "accepted for compatibility (must be >= 1); runs are always serial, so it "
    "changes neither results nor the execution path"
)


def _cannot(verb: str, path: str, reason) -> ValidationError:
    """``cannot <verb> <path>: <reason>``, where an exception gives its ``strerror`` if it has one."""
    return ValidationError(f"cannot {verb} {path}: {getattr(reason, 'strerror', None) or reason}")


# ---------------------------------------------------------------------------
# CSV ingestion


def _read_table(path: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            rows, start = [], 1  # each record with the line it starts on: a quoted cell may span lines
            for row in reader:
                rows.append((start, row))
                start = reader.line_num + 1
    except (OSError, UnicodeDecodeError) as exc:
        raise _cannot("read", path, exc) from exc
    except csv.Error as exc:  # a field over the reader's length limit
        raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: file is empty")
    header = [name.strip() for name in rows[0][1]]
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: duplicate column names in header")
    data = rows[1:]
    for line, row in data:
        if len(row) != len(header):
            raise ValidationError(
                f"{path}, line {line}: expected {len(header)} fields, got {len(row)}"
            )
    if not data:
        raise ValidationError(f"{path}: no data rows")
    return header, data


def _parse_column(name: str, idx: int, rows: list[tuple[int, list[str]]], path: str) -> np.ndarray:
    out = np.empty(len(rows))
    for i, (line, row) in enumerate(rows):
        cell = row[idx].strip()
        try:
            if "_" in cell:  # no separators; Python float() would accept them
                raise ValueError
            value = float(cell)
        except ValueError:
            raise ValidationError(
                f"{path}, line {line}, column {name!r}: not a number: {cell!r}"
            ) from None
        if not np.isfinite(value):
            raise ValidationError(
                f"{path}, line {line}, column {name!r}: non-finite value {cell!r}"
            )
        out[i] = value
    return out


def _load_table(path: str) -> tuple[list[str], np.ndarray] | None:
    """The header and the float body of a CSV file, the body parsed by numpy
    straight from the file; None where the per-cell scan could read it
    differently. ``loadtxt`` skips blank lines and rejects some cells that
    ``float()`` accepts (full-width digits) and reads fields of any length, so
    an error, a non-finite value, a line longer than the scan's field limit, a
    width other than the header's or fewer rows than body lines decline. The
    body lines are the file's lines after those the header spans: a quoted
    header name may hold a line break."""
    if not os.path.isfile(path):  # a pipe can be read only once: the scan reads it
        return None
    try:
        # lines split at "\r\n", "\r" and "\n", as they are for the csv reader, whose
        # line_num then counts the lines the header spans
        lines, longest = 0, 0
        with open(path, encoding="utf-8") as handle:
            for lines, line in enumerate(handle, 1):
                if len(line) > longest:  # cheaper per line than max()
                    longest = len(line)
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = [name.strip() for name in next(reader, [])]
            lines -= reader.line_num
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body warns; the row count shows it
                table = np.loadtxt(handle, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except (OSError, ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    fits = lines > 0 and table.shape == (lines, len(header)) and len(set(header)) == len(header)
    fits = fits and longest <= csv.field_size_limit() and np.isfinite(table).all()
    table.flags.writeable = False  # the columns handed out are views of it
    return (header, table) if fits else None


def _read_csv(path: str):
    """The header of a CSV file and ``columns_of(names)``: the named columns as a
    read-only N x k matrix, a view of :func:`_load_table`'s table where they sit
    side by side in header order, else a C-contiguous copy (the scan's, on call)."""
    header, body = _load_table(path) or _read_table(path)

    def columns_of(names):
        i = [header.index(name) for name in names]
        if isinstance(body, list):
            block = np.column_stack([_parse_column(n, j, body, path) for n, j in zip(names, i)])
        elif i == list(range(i[0], i[-1] + 1)):  # adjacent and in header order
            block = body[:, i[0]:i[-1] + 1]
        else:
            block = body.take(i, axis=1)
        block.flags.writeable = False
        return block

    return header, columns_of


def _load_decompose_input(path: str, phi0_flag: float | None):
    header, columns_of = _read_csv(path)
    for required in ("y", "yhat"):
        if required not in header:
            raise ValidationError(f"{path}: missing required column {required!r}")
    phi_names = [name for name in header if name.startswith("phi_")]
    if not phi_names:
        raise ValidationError(f"{path}: no phi_<name> attribution columns found")
    known = {"y", "yhat", "phi0", *phi_names}
    for name in header:
        if name not in known:
            raise ValidationError(f"{path}: unexpected column {name!r}")

    y, yhat, phi = columns_of(["y"])[:, 0], columns_of(["yhat"])[:, 0], columns_of(phi_names)
    phi0 = phi0_flag
    if "phi0" in header:
        if phi0_flag is not None:
            raise ValidationError(f"{path}: phi0 provided both as a column and as --phi0")
        col = columns_of(["phi0"])[:, 0]
        if np.any(col != col[0]):
            raise ValidationError(f"{path}: phi0 column is not constant")
        phi0 = float(col[0])

    return y, yhat, ShapleyMatrix(phi, phi0, tuple(n[len("phi_"):] for n in phi_names), "ingested")


def _load_explain_input(path: str, target: str) -> Dataset:
    header, columns_of = _read_csv(path)
    if target not in header:
        raise ValidationError(f"{path}: missing target column {target!r}")
    feature_names = [name for name in header if name != target]
    if not feature_names:
        raise ValidationError(f"{path}: no feature columns besides the target")
    y = columns_of([target])[:, 0]
    x = np.ascontiguousarray(columns_of(feature_names))  # the engines walk the rows of x
    x.flags.writeable = False  # so Dataset keeps this copy rather than making another
    return Dataset(x=x, y=y, feature_names=tuple(feature_names))


# ---------------------------------------------------------------------------
# Output helpers


def _stage(path: str, text: str, temporaries: list[str | None]) -> None:
    """Write ``text`` to a new temporary file next to ``path``, with the mode a
    plain ``open(path, "w")`` would leave ``path`` with, appending its name to
    ``temporaries`` before writing, so that the caller removes it on any failure.

    Appends None when ``path`` is a device or a pipe: replacing one would
    swap it for a plain file, so it is written in place instead.
    """
    target = os.path.realpath(path)  # open() writes through symlinks too
    try:
        info = os.stat(target)
    except FileNotFoundError:
        mask = os.umask(0)
        os.umask(mask)
        mode = 0o666 & ~mask
    else:
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        if not stat.S_ISREG(info.st_mode):
            temporaries.append(None)
            return
        mode = stat.S_IMODE(info.st_mode)
    folder, name = os.path.split(target)
    fd, temporary = tempfile.mkstemp(dir=folder, prefix=f".{name}.", suffix=".tmp")
    temporaries.append(temporary)
    with open(fd, "w", encoding="utf-8", newline="") as handle:
        os.fchmod(fd, mode)
        handle.write(text)


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout and flush it. On failure, stdout is pointed at
    the null device, so that the flush at exit has nothing left to fail on."""
    try:
        if sys.stdout is None:  # started with stdout closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (AttributeError, OSError, ValueError):  # no stdout file descriptor to replace
            pass
        raise _cannot("write", "<stdout>", exc) from exc


def _publish(outputs: list[tuple[str | None, str]]) -> None:
    """Put the ``(path, text)`` outputs of one command in place, all or
    nothing; a path of None is stdout.

    Each file is written to a temporary sibling of its destination. Once all
    are written, every temporary file replaces its destination, and then
    stdout, devices and pipes get their text (no two files share a
    destination: :func:`_check_destinations` has run). On an error, the
    temporary files are removed, and no destination is created or changed.
    """
    temporaries: list[str | None] = []
    try:
        for path, text in outputs:
            if path is None:
                temporaries.append(None)
            else:
                _stage(path, text, temporaries)
        for (path, _), temporary in zip(outputs, temporaries):
            if temporary is not None:
                os.replace(temporary, os.path.realpath(path))
        for (path, text), temporary in zip(outputs, temporaries):
            if path is None:
                _write_stdout(text)
            elif temporary is None:
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
    except OSError as exc:  # the loops leave ``path`` naming the output being handled
        raise _cannot("write", path, exc) from exc
    finally:
        for temporary in temporaries:
            if temporary is not None and os.path.lexists(temporary):
                os.remove(temporary)


#: The options that name an output file, on any command.
_OUTPUT_OPTIONS = ("emit_shap", "emit_model", "out", "summary_out")


def _check_destinations(args) -> None:
    """Reject two outputs of one run that name one file, with symlinks
    resolved; a device or a pipe may take several. Runs before any input is
    read, since the command line alone shows the collision."""
    paths = [getattr(args, name, None) for name in _OUTPUT_OPTIONS]
    targets = [os.path.realpath(path) for path in paths if path is not None]
    for i, target in enumerate(targets):
        if target in targets[:i] and (os.path.isfile(target) or not os.path.exists(target)):
            raise _cannot("write", target, "two outputs name this file")


def _write_text(text: str, out_path: str | None, outputs: list) -> None:
    """Queue ``text`` for ``out_path``, or for stdout when it is None."""
    outputs.append((out_path, text))


def _write_csv(path: str, header: list[str], rows: list, outputs: list) -> None:
    # the writer quotes only the line breaks its terminator holds: end in "\r\n", then cut to "\n"
    records: list[str] = []
    csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n").writerows([header, *rows])
    outputs.append((path, "".join(record[:-2] + "\n" for record in records)))


# ---------------------------------------------------------------------------
# Subcommands


def _provenance(args, options: dict, seed: int | None) -> dict:
    """The report's record of the run: command, input, semantic options, seed, version."""
    return {"command": args.command, "input": args.csv, "options": options, "seed": seed, "version": VERSION}


def cmd_decompose(args, outputs: list) -> None:
    y, yhat, matrix = _load_decompose_input(args.csv, args.phi0)
    extra_warnings: list[str] = []
    if matrix.phi0 is not None:
        gap = matrix.additivity_gap(yhat)
        if gap > INGEST_ADDITIVITY_RTOL:
            extra_warnings.append(
                f"attribution additivity violated: max relative gap {gap:.3e} "
                f"exceeds {INGEST_ADDITIVITY_RTOL:.0e}; the attribution file may "
                f"not match the model that produced yhat"
            )
    result = decompose(y, yhat, matrix, eq7_as_printed=args.eq7_as_printed)
    options = {"phi0": args.phi0, "eq7_as_printed": args.eq7_as_printed}
    report = build_report(result, _provenance(args, options, None), tuple(extra_warnings))
    _write_text(dumps(report), args.out, outputs)


def _fit_explain_model(args, dataset: Dataset):
    if args.model == "ols":
        return fit_ols(dataset)
    if args.target_r2 is not None:
        return tune_iterations(
            dataset, target_r2=args.target_r2, learning_rate=args.learning_rate
        )[0]
    return fit_stump_ensemble(
        dataset, iterations=args.iterations, learning_rate=args.learning_rate
    )


def cmd_explain(args, outputs: list) -> None:
    # checked before any input is read, whichever engine and model run
    config = SamplingConfig(args.permutations, args.seed, args.background_subsample)
    check_boosting_options(args.iterations, args.learning_rate)
    if args.model == "ols" and args.target_r2 is not None:
        raise ValidationError("--target-r2 requires --model stumps")
    dataset = _load_explain_input(args.csv, args.target)
    if dataset.n_rows > 1:  # a single row is refused by the fit, with its own message
        outcome_variance(dataset.y)  # a constant outcome, before the fit and the engine
    background = BackgroundSet(dataset.x)  # the engine's background and width rules, before the fit
    if args.sampled:
        background.subsample_size(config.background_subsample)
    else:
        background = background.subsample(config.background_subsample, config.seed)
        try:
            check_exact_width(dataset.n_features)
        except FeatureCountExceeded as exc:
            raise FeatureCountExceeded(f"{exc} (hint: pass --sampled to use permutation sampling)") from None
    try:
        model = _fit_explain_model(args, dataset)
    except SingularDesign as exc:
        raise SingularDesign(
            f"{exc} (hint: drop duplicated or linearly dependent feature columns)"
        ) from None
    yhat = model.predict_batch(dataset.x)
    matrix = (sampled_shapley(model, dataset, background, config) if args.sampled
              else exact_shapley(model, dataset, background))
    result = decompose(dataset.y, yhat, matrix, eq7_as_printed=args.eq7_as_printed)

    options = {
        "target": args.target,
        "model": args.model,
        "learning_rate": args.learning_rate if args.model == "stumps" else None,
        "iterations": len(model.stumps) if args.model == "stumps" else None,
        "target_r2": args.target_r2,
        "sampled": args.sampled,
        "permutations": args.permutations if args.sampled else None,
        "background_subsample": args.background_subsample,
        "eq7_as_printed": args.eq7_as_printed,
    }
    report = dumps(build_report(result, _provenance(args, options, args.seed)))
    if args.emit_shap is not None:
        names = [f"phi_{name}" for name in matrix.feature_names]
        rows = np.column_stack([dataset.y, yhat, np.full(dataset.n_rows, matrix.phi0), matrix.phi])
        _write_csv(args.emit_shap, ["y", "yhat", "phi0", *names], rows.tolist(), outputs)
    if args.emit_model is not None:
        _write_text(dumps(_model_document(model)), args.emit_model, outputs)
    _write_text(report, args.out, outputs)


#: Scalar keys of a simulate config file: accepted JSON types, and their
#: description for the error message.
_CONFIG_SCALARS = {
    "n_samples": (int, "an integer"),
    "seed": (int, "an integer"),
    "noise_sd": ((int, float, type(None)), "a number or null"),
    "estimator": (str, "a string"),
    "permutations": (int, "an integer"),
    "background_subsample": ((int, type(None)), "an integer or null"),
}


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            settings = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise _cannot("read", path, exc) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(settings, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    unknown = set(settings) - {"rho_values", "coefficient_configs", *_CONFIG_SCALARS}
    if unknown:
        raise ValidationError(f"{path}: unknown keys {sorted(unknown)}")
    for key, (types, expected) in _CONFIG_SCALARS.items():
        if key in settings and not has_json_type(settings[key], types):
            raise ValidationError(f"{path}: {key} must be {expected}, got {settings[key]!r}")
    if "rho_values" in settings:
        settings["rho_values"] = json_floats(settings["rho_values"], f"{path}: rho_values")
    if "coefficient_configs" in settings:
        records = settings["coefficient_configs"]
        if not isinstance(records, list) or not all(isinstance(c, dict) for c in records):
            raise ValidationError(
                f"{path}: coefficient_configs must be a list of "
                '{"id": ..., "coefficients": [...]} records'
            )
        for c in records:
            if set(c) != {"id", "coefficients"}:
                raise ValidationError(f"{path}: coefficient_configs records take the keys "
                                      f"id and coefficients, got {sorted(c)}")
            if not isinstance(c["id"], str):
                raise ValidationError(f"{path}: id must be a string, got {c['id']!r}")
        settings["coefficient_configs"] = tuple(
            (c["id"], json_floats(c["coefficients"], f"{path}: coefficients")) for c in records
        )
    return settings


def _grid_from_args(args) -> GridSpec:
    settings = {} if args.config is None else _read_config(args.config)

    if args.rhos is not None:
        try:
            settings["rho_values"] = [float(v) for v in args.rhos.split(",") if v.strip()]
        except ValueError:
            raise ValidationError(f"--rhos: not a comma-separated float list: {args.rhos!r}") from None
    for key in _CONFIG_SCALARS:  # each has a flag of the same name
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return GridSpec(**settings)


def _grid_summary(grid) -> dict:
    spec = grid.spec
    config_rows = []
    for (config_id, coefficients), row in zip(spec.coefficient_configs, grid.cells):
        completed = [
            (rho, cell) for rho, cell in zip(spec.rho_values, row)
            if cell.status == "completed"
        ]
        sigmas = [cell.sigma_unique for _, cell in completed]
        violations = sum(1 for a, b in zip(sigmas, sigmas[1:]) if b > a)
        at_zero = next((cell.sigma_unique for rho, cell in completed if rho == 0.0), None)
        config_rows.append(
            {
                "config_id": config_id,
                "coefficients": list(coefficients),
                "completed": len(completed),
                "skipped_non_pd": len(row) - len(completed),
                "sigma_unique_at_rho_zero": at_zero,
                "min_sigma_unique": min(sigmas) if sigmas else None,
                "max_sigma_unique": max(sigmas) if sigmas else None,
                "monotone_violations": violations,
            }
        )
    return {
        "rho_values": list(spec.rho_values),
        "n_samples": spec.n_samples,
        "estimator": spec.estimator,
        "seed": spec.seed,
        "configs": config_rows,
        "version": VERSION,
    }


def cmd_simulate(args, outputs: list) -> None:
    grid_spec = _grid_from_args(args)
    grid = run_grid(grid_spec)
    summary = dumps(_grid_summary(grid))
    _write_csv(
        args.out,
        ["rho", "config_id", "status", "sigma_unique", "baseline_r2"],
        grid.rows(),
        outputs,
    )
    _write_text(summary, args.summary_out, outputs)


# ---------------------------------------------------------------------------
# Parser and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # out through main's one except, as one line; subparsers share the class
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shapr2",
        description=(
            "Decompose a regression model's explained variance into "
            "per-feature shares using Shapley attributions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser(
        "decompose",
        help="decompose pre-computed attributions from a CSV (y, yhat, phi_*)",
    )
    p_dec.add_argument("csv", help="input CSV with y, yhat, and phi_<name> columns")
    p_dec.add_argument("--phi0", type=float, default=None, help="base value, used only to verify additivity")
    p_dec.add_argument("--eq7-as-printed", action="store_true", help="use the literal (non-increase) unique-variance numerator")
    p_dec.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p_exp = sub.add_parser(
        "explain",
        help="fit a built-in model, compute attributions, and decompose",
    )
    p_exp.add_argument("csv", help="input CSV; one target column plus numeric features")
    p_exp.add_argument("--target", required=True, help="name of the outcome column")
    p_exp.add_argument("--model", choices=("ols", "stumps"), default="ols")
    p_exp.add_argument("--iterations", type=int, default=100, help="boosting iterations for --model stumps")
    p_exp.add_argument("--learning-rate", type=float, default=0.1)
    p_exp.add_argument("--target-r2", type=float, default=None, help=f"search the stump iteration count for this training fit (within {TUNE_TOLERANCE})")
    p_exp.add_argument("--sampled", action="store_true", help="permutation sampling instead of exact enumeration")
    p_exp.add_argument("--permutations", type=int, default=200)
    p_exp.add_argument("--background-subsample", type=int, default=None)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p_exp.add_argument("--emit-shap", default=None, help="also write the attribution matrix CSV here")
    p_exp.add_argument("--emit-model", default=None, help="also write the fitted model JSON here")
    p_exp.add_argument("--eq7-as-printed", action="store_true")
    p_exp.add_argument("--out", default=None)

    p_sim = sub.add_parser(
        "simulate",
        help="run the correlation grid and write a long-format CSV",
    )
    p_sim.add_argument("--config", default=None, help="JSON grid spec; flags override its values")
    p_sim.add_argument("--rhos", default=None, help="comma-separated correlation values (default -0.8..0.8 step 0.2)")
    p_sim.add_argument("--n-samples", type=int, default=None)
    p_sim.add_argument("--noise-sd", type=float, default=None)
    p_sim.add_argument("--estimator", default=None, help=f"attribution estimator: {' or '.join(ESTIMATORS)}")
    p_sim.add_argument("--permutations", type=int, default=None)
    p_sim.add_argument("--background-subsample", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p_sim.add_argument("--out", required=True, help="grid CSV destination")
    p_sim.add_argument("--summary-out", default=None, help="summary JSON destination (default stdout)")
    return parser


#: The options whose value is a number or a list of numbers, which may start with "-".
_NUMBER_OPTIONS = ("--rhos", "--phi0", "--noise-sd", "--learning-rate", "--target-r2")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads "--phi0 -1e-05" as two options
        if argv[i] in _NUMBER_OPTIONS:
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    handlers = {"decompose": cmd_decompose, "explain": cmd_explain, "simulate": cmd_simulate}
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ValidationError("--threads must be >= 1")
        _check_destinations(args)
        outputs: list[tuple[str | None, str]] = []  # every command's text, before any is written
        with np.errstate(over="raise", invalid="raise"):  # no inf or nan reaches an output
            handlers[args.command](args, outputs)
        _publish(outputs)
        return 0
    except SystemExit:  # --help, which printed the usage: argparse's one exit left
        return 0
    except Shapr2Error as exc:
        # the whole exit-code rule: input errors subclass ValueError and exit
        # 2; every other error is a numerical failure and exits 3
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3
    except (MemoryError, FloatingPointError) as exc:  # too large for this machine or a float: exit 3
        problem = "out of memory" if isinstance(exc, MemoryError) else "numerical failure"
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {problem}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
