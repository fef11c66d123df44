"""CLI contract tests: ingestion diagnostics, exit codes, report schema,
golden-file byte stability, and cross-run determinism."""

import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, run_cli
from shapr2 import cli as cli_module
from shapr2 import models
from shapr2.errors import InvalidValue, Shapr2Error, ShapeError, ValidationError
from shapr2.metrics import ShapleyMatrix, decompose
from shapr2.models import LinearModel, Stump, StumpEnsemble, model_document, model_from_document
from shapr2.report import dumps

GOLDEN_REPORT = DATA_DIR / "golden_report.json"


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def explain_csv(tmp_path):
    rng = np.random.default_rng(42)
    n = 80
    x = rng.standard_normal((n, 3))
    y = 2.0 * x[:, 0] + 1.0 * x[:, 1] + 0.4 * rng.standard_normal(n)
    path = tmp_path / "data.csv"
    header = ["outcome", "alpha", "beta", "gamma"]
    rows = [[y[i], x[i, 0], x[i, 1], x[i, 2]] for i in range(n)]
    write_csv(path, header, rows)
    return path


class TestDecompose:
    def test_golden_report_bytes(self, cli, monkeypatch):
        monkeypatch.chdir(Path(__file__).parent)
        result = cli("decompose", "data/golden_6row.csv")
        assert result.code == 0
        assert result.stdout == GOLDEN_REPORT.read_text(encoding="utf-8")

    def test_identity_fixture(self, cli, tmp_path):
        path = tmp_path / "id.csv"
        y = [1.0, 2.0, 3.0, 4.0]
        phi = [v - 2.5 for v in y]
        write_csv(path, ["y", "yhat", "phi_only"], [[v, v, p] for v, p in zip(y, phi)])
        result = cli("decompose", str(path))
        assert result.code == 0
        doc = json.loads(result.stdout)
        assert doc["baseline_r2"] == 1.0
        assert doc["features"][0]["r2"] == 1.0

    def test_missing_yhat_column(self, cli, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["y", "phi_a"], [[1, 2], [3, 4]])
        result = cli("decompose", str(path))
        assert result.code == 2
        assert "yhat" in result.stderr

    def test_no_phi_columns(self, cli, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["y", "yhat"], [[1, 2], [3, 4]])
        result = cli("decompose", str(path))
        assert result.code == 2
        assert "phi_" in result.stderr

    def test_non_numeric_cell_names_location(self, cli, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["y", "yhat", "phi_a"], [[1, 2, "oops"], [3, 4, 0.5]])
        result = cli("decompose", str(path))
        assert result.code == 2
        assert "phi_a" in result.stderr and "line 2" in result.stderr

    def test_digit_separator_names_location(self, cli, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["y", "yhat", "phi_a"], [[1, 2, 0.5], [3, "1_000", 0.5]])
        result = cli("decompose", str(path))
        assert result.code == 2
        assert "line 3, column 'yhat'" in result.stderr and "'1_000'" in result.stderr

    def test_first_bad_cell_in_column_order(self, cli, tmp_path):
        # columns are scanned y, yhat, phi_*, phi0, whatever the header order
        path = tmp_path / "bad.csv"
        write_csv(path, ["phi_a", "yhat", "y"], [["oops", 2, 1], [0.5, 4, "inf"]])
        result = cli("decompose", str(path))
        assert result.code == 2
        assert "line 3, column 'y': non-finite value 'inf'" in result.stderr

    def test_nan_rejected(self, cli, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["y", "yhat", "phi_a"], [[1, 2, "nan"], [3, 4, 0.5]])
        result = cli("decompose", str(path))
        assert result.code == 2
        assert "non-finite" in result.stderr

    def test_ragged_row(self, cli, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,yhat,phi_a\n1,2\n", encoding="utf-8")
        result = cli("decompose", str(path))
        assert result.code == 2
        assert "line 2" in result.stderr

    def test_unexpected_column(self, cli, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["y", "yhat", "phi_a", "junk"], [[1, 2, 3, 4], [5, 6, 7, 8]])
        result = cli("decompose", str(path))
        assert result.code == 2
        assert "junk" in result.stderr

    def test_all_features_null_warning_exit_zero(self, cli, tmp_path):
        path = tmp_path / "null.csv"
        write_csv(
            path,
            ["y", "yhat", "phi_a", "phi_b"],
            [[1.0, 1.1, 0, 0], [2.0, 1.9, 0, 0], [3.0, 3.2, 0, 0], [4.0, 3.8, 0, 0]],
        )
        result = cli("decompose", str(path))
        assert result.code == 0
        doc = json.loads(result.stdout)
        assert doc["warnings"]
        assert all(feature["r2"] == 0.0 for feature in doc["features"])

    def test_model_explaining_nothing_exits_three(self, cli, tmp_path):
        # non-null shares, but var(y - yhat) >= var(y): sigma_unique is undefined
        path = tmp_path / "nothing.csv"
        write_csv(path, ["y", "yhat", "phi_a"], [[v, -v, v] for v in range(4)])
        result = cli("decompose", str(path))
        assert (result.code, result.stdout) == (3, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        ["y,yhat,phi_\n0,0,0\n0,0,0\n0,0,1.7877077239923462e+154\n1,0,0\n",
         "yhat,y,phi_\n0,0,0\n0,0,0\n0,1.6421143998800675e+154,0\n"],
        ids=["square", "reduce"],
    )
    def test_float_overflow_exits_three(self, cli, tmp_path, text):
        path = tmp_path / "big.csv"
        path.write_text(text, encoding="utf-8")
        result = cli("decompose", str(path))
        assert (result.code, result.stdout) == (3, "")
        assert result.stderr.startswith("error: numerical failure: overflow encountered in ")
        assert result.stderr.count("\n") == 1

    def test_phi0_column_additivity_warning(self, cli, tmp_path):
        path = tmp_path / "mismatch.csv"
        write_csv(
            path,
            ["y", "yhat", "phi_a", "phi0"],
            [[1.0, 1.5, 0.1, 9.0], [2.0, 1.8, -0.2, 9.0], [3.0, 3.1, 0.4, 9.0]],
        )
        result = cli("decompose", str(path))
        assert result.code == 0
        doc = json.loads(result.stdout)
        assert any("additivity" in w for w in doc["warnings"])

    def test_phi0_flag_and_column_conflict(self, cli, tmp_path):
        path = tmp_path / "conflict.csv"
        write_csv(
            path,
            ["y", "yhat", "phi_a", "phi0"],
            [[1.0, 1.5, 0.1, 9.0], [2.0, 1.8, -0.2, 9.0]],
        )
        result = cli("decompose", str(path), "--phi0", "1.0")
        assert result.code == 2

    def test_eq7_as_printed_flag(self, cli, monkeypatch):
        monkeypatch.chdir(Path(__file__).parent)
        printed = cli("decompose", "data/golden_6row.csv", "--eq7-as-printed")
        assert printed.code == 0
        doc = json.loads(printed.stdout)
        assert doc["sigma_unique_raw"] == pytest.approx(0.8837014725568942, abs=1e-12)

    def test_out_writes_file(self, cli, tmp_path, monkeypatch):
        monkeypatch.chdir(Path(__file__).parent)
        out = tmp_path / "report.json"
        result = cli("decompose", "data/golden_6row.csv", "--out", str(out))
        assert result.code == 0
        assert result.stdout == ""
        assert out.read_text(encoding="utf-8") == GOLDEN_REPORT.read_text(
            encoding="utf-8"
        )


class TestExplain:
    def test_ols_orthogonal_noiseless(self, cli, tmp_path):
        # exactly-noiseless orthogonal design: baseline fit 1, sum identity,
        # sigma 1; with zero baseline residual variance every ratio is 0, so
        # the simplex is uniform across contributing features
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(np.column_stack([np.ones(32), rng.standard_normal((32, 2))]))
        x = q[:, 1:]
        y = 2.0 * x[:, 0] + 1.0 * x[:, 1]
        path = tmp_path / "ortho.csv"
        write_csv(path, ["t", "a", "b"], [[y[i], x[i, 0], x[i, 1]] for i in range(32)])
        result = cli("explain", str(path), "--target", "t")
        assert result.code == 0
        doc = json.loads(result.stdout)
        assert doc["baseline_r2"] == pytest.approx(1.0, abs=1e-9)
        total = sum(f["r2"] for f in doc["features"])
        assert total == pytest.approx(doc["baseline_r2"], abs=1e-10)
        assert doc["features"][0]["share"] == pytest.approx(0.5, abs=1e-9)
        assert doc["features"][1]["share"] == pytest.approx(0.5, abs=1e-9)
        assert doc["sigma_unique_raw"] == pytest.approx(1.0, abs=1e-8)

    def test_ols_orthogonal_noisy_shares_track_signal(self, cli, tmp_path):
        # in the noise-dominated regime the weights approach proportionality
        # to each feature's variance contribution (4:1 here)
        rng = np.random.default_rng(14)
        n = 4000
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, 2))]))
        x = q[:, 1:] * np.sqrt(n)  # unit-ish variance columns
        y = 2.0 * x[:, 0] + 1.0 * x[:, 1] + 10.0 * rng.standard_normal(n)
        path = tmp_path / "noisy.csv"
        write_csv(path, ["t", "a", "b"], [[y[i], x[i, 0], x[i, 1]] for i in range(n)])
        result = cli("explain", str(path), "--target", "t")
        assert result.code == 0
        doc = json.loads(result.stdout)
        total = sum(f["r2"] for f in doc["features"])
        assert total == pytest.approx(doc["baseline_r2"], abs=1e-10)
        share_a = doc["features"][0]["share"]
        share_b = doc["features"][1]["share"]
        assert share_a / share_b == pytest.approx(4.0, rel=0.25)

    def test_missing_target(self, cli, explain_csv):
        result = cli("explain", str(explain_csv), "--target", "nope")
        assert result.code == 2
        assert "nope" in result.stderr

    def test_non_numeric_feature_column(self, cli, tmp_path):
        path = tmp_path / "text.csv"
        write_csv(
            path,
            ["t", "a", "label"],
            [[1.0, 2.0, "red"], [2.0, 3.0, "blue"], [3.0, 4.0, "red"]],
        )
        result = cli("explain", str(path), "--target", "t")
        assert result.code == 2
        assert "label" in result.stderr

    def test_digit_separator_in_feature(self, cli, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["t", "a"], [[1.0, 2.0], [2.0, "3_5"], [3.0, 4.0]])
        result = cli("explain", str(path), "--target", "t")
        assert result.code == 2
        assert "line 3, column 'a'" in result.stderr

    def test_stumps_target_r2(self, cli, explain_csv):
        result = cli(
            "explain",
            str(explain_csv),
            "--target",
            "outcome",
            "--model",
            "stumps",
            "--target-r2",
            "0.3",
            "--learning-rate",
            "0.05",
        )
        assert result.code == 0
        doc = json.loads(result.stdout)
        assert 0.29 <= doc["baseline_r2"] <= 0.31
        assert doc["provenance"]["options"]["iterations"] is not None

    def test_target_r2_requires_stumps(self, cli, explain_csv, tmp_path):
        for path in (explain_csv, tmp_path / "missing.csv"):  # checked before the input is read
            result = cli("explain", str(path), "--target", "outcome", "--target-r2", "0.3")
            assert (result.code, result.stderr) == (2, "error: --target-r2 requires --model stumps\n")

    @pytest.mark.parametrize("sampled", [(), ("--sampled",)], ids=["exact", "sampled"])
    @pytest.mark.parametrize(
        "model",
        [("--model", "ols"), ("--model", "stumps", "--iterations", "5"),
         ("--model", "stumps", "--target-r2", "0.5")],
        ids=["ols", "stumps", "target-r2"],
    )
    def test_constant_target_refused_before_the_fit(self, cli, tmp_path, model, sampled):
        path = tmp_path / "constant.csv"
        write_csv(path, ["y", "a", "b"], [[3.0, 1.0, 2.0], [3.0, 2.0, 5.0], [3.0, 3.0, 1.0], [3.0, 4.0, 4.0]])
        with mock.patch.object(cli_module, "_fit_explain_model", side_effect=AssertionError("fit")):
            result = cli("explain", str(path), "--target", "y", *model, *sampled,
                         "--out", str(tmp_path / "r.json"), "--emit-shap", str(tmp_path / "phi.csv"))
        assert (result.code, result.stdout, result.stderr) == (2, "", "error: outcome has zero variance\n")
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("sampled", [(), ("--sampled",)], ids=["exact", "sampled"])
    def test_subsample_over_rows_refused_before_the_fit(self, cli, explain_csv, tmp_path, sampled):
        with mock.patch.object(cli_module, "_fit_explain_model", side_effect=AssertionError("fit")):
            result = cli("explain", str(explain_csv), "--target", "outcome", *sampled,
                         "--background-subsample", "81", "--out", str(tmp_path / "r.json"))
        assert (result.code, result.stdout) == (2, "")
        assert result.stderr == "error: background_subsample 81 exceeds background size 80\n"
        assert not (tmp_path / "r.json").exists()

    def test_feature_cap_refused_before_the_fit(self, cli, tmp_path):
        path = tmp_path / "wide.csv"
        rng = np.random.default_rng(5)
        write_csv(path, ["t"] + [f"c{i}" for i in range(17)], rng.standard_normal((24, 18)).tolist())
        with mock.patch.object(cli_module, "_fit_explain_model", side_effect=AssertionError("fit")):
            result = cli("explain", str(path), "--target", "t", "--model", "stumps",
                         "--out", str(tmp_path / "r.json"))
        assert (result.code, result.stdout) == (3, "")
        assert result.stderr == ("error: 17 features exceeds the exact-enumeration cap of 16; use "
                                 "sampled_shapley instead (hint: pass --sampled to use permutation sampling)\n")
        assert sorted(tmp_path.iterdir()) == [path]

    def test_sampled_deterministic_across_runs_and_threads(self, cli, explain_csv):
        args = (
            "explain", str(explain_csv), "--target", "outcome",
            "--sampled", "--permutations", "40", "--seed", "11",
        )
        first = cli(*args, "--threads", "1")
        second = cli(*args, "--threads", "1")
        third = cli(*args, "--threads", "8")
        assert first.code == 0
        assert first.stdout == second.stdout == third.stdout

    def test_emit_shap_roundtrip(self, cli, explain_csv, tmp_path):
        shap_path = tmp_path / "phi.csv"
        result = cli(
            "explain",
            str(explain_csv),
            "--target",
            "outcome",
            "--emit-shap",
            str(shap_path),
        )
        assert result.code == 0
        explain_doc = json.loads(result.stdout)
        second = cli("decompose", str(shap_path))
        assert second.code == 0
        decompose_doc = json.loads(second.stdout)
        # repr round-trip: the re-ingested decomposition is bit-identical
        assert decompose_doc["baseline_r2"] == explain_doc["baseline_r2"]
        assert [f["r2"] for f in decompose_doc["features"]] == [
            f["r2"] for f in explain_doc["features"]
        ]
        assert not decompose_doc["warnings"]  # additivity check passes

    def test_emit_shap_roundtrip_with_quoted_feature_names(self, cli, tmp_path):
        # each name holds a character that the csv dialect quotes
        names = ["a,b", 'q"t', "line\nbreak", "cr\rname"]
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 4))
        y = x @ [2.0, 1.0, 0.5, 0.0] + 0.3 * rng.standard_normal(30)
        data, shap = tmp_path / "data.csv", tmp_path / "phi.csv"
        with open(data, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([["y", *names], *np.column_stack([y, x]).tolist()])
        assert b'"a,b","q""t","line\nbreak","cr\rname"' in data.read_bytes()
        explained = cli("explain", str(data), "--target", "y", "--emit-shap", str(shap))
        assert explained.code == 0, explained.stderr
        again = cli("decompose", str(shap))
        assert again.code == 0, again.stderr

        def features(report):  # r2 kept as its text
            return [(f["name"], f["r2"]) for f in json.loads(report, parse_float=str)["features"]]

        assert features(again.stdout) == features(explained.stdout)
        assert [name for name, _ in features(again.stdout)] == names

    def test_emit_model_roundtrip(self, cli, explain_csv, tmp_path):
        model_path = tmp_path / "model.json"
        result = cli(
            "explain",
            str(explain_csv),
            "--target",
            "outcome",
            "--model",
            "stumps",
            "--iterations",
            "15",
            "--emit-model",
            str(model_path),
        )
        assert result.code == 0
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        model = model_from_document(doc)
        assert doc["type"] == "stump_ensemble"
        assert len(model.stumps) == 15

    def test_singular_design_exit_three(self, cli, tmp_path):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(20)
        y = col * 2 + rng.standard_normal(20)
        path = tmp_path / "dup.csv"
        write_csv(
            path, ["t", "a", "b"], [[y[i], col[i], col[i]] for i in range(20)]
        )
        result = cli("explain", str(path), "--target", "t")
        assert result.code == 3
        assert "hint" in result.stderr

    @pytest.mark.parametrize("rows", [[[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0], [4.0, 0.5, -1.0]]],
                             ids=["one-row", "rows-equal-features"])
    def test_too_few_rows_for_ols_exit_two(self, cli, tmp_path, rows):
        # an input error, not a collinear design: exit 2 and no hint
        path = tmp_path / "short.csv"
        write_csv(path, ["t", "a", "b"], rows)
        (out := tmp_path / "out").mkdir()
        result = cli("explain", str(path), "--target", "t", "--model", "ols", "--out", str(out / "r.json"),
                     "--emit-shap", str(out / "phi.csv"), "--emit-model", str(out / "m.json"))
        assert result.code == 2 and result.stdout == ""
        assert result.stderr == f"error: need more rows ({len(rows)}) than features (2) plus intercept\n"
        assert list(out.iterdir()) == []

    def test_feature_cap_exit_three_with_hint(self, cli, tmp_path):
        rng = np.random.default_rng(3)
        n, f = 24, 17
        x = rng.standard_normal((n, f))
        y = x[:, 0] + rng.standard_normal(n)
        path = tmp_path / "wide.csv"
        header = ["t"] + [f"c{i}" for i in range(f)]
        write_csv(path, header, [[y[i], *x[i]] for i in range(n)])
        result = cli("explain", str(path), "--target", "t", "--model", "stumps",
                     "--iterations", "2")
        assert result.code == 3
        assert "--sampled" in result.stderr

    def test_background_subsample_exact_route(self, cli, explain_csv):
        result = cli(
            "explain", str(explain_csv), "--target", "outcome",
            "--background-subsample", "20", "--seed", "4",
        )
        assert result.code == 0
        repeat = cli(
            "explain", str(explain_csv), "--target", "outcome",
            "--background-subsample", "20", "--seed", "4",
        )
        assert result.stdout == repeat.stdout

    def test_exact_subsample_of_every_row_is_the_whole_background(self, cli, explain_csv, tmp_path):
        argv = ("explain", str(explain_csv), "--target", "outcome", "--model", "stumps",
                "--iterations", "20", "--seed", "4")
        whole = cli(*argv, "--emit-shap", str(tmp_path / "whole.csv"))
        every = cli(*argv, "--background-subsample", "80", "--emit-shap", str(tmp_path / "every.csv"))
        assert (whole.code, every.code) == (0, 0)
        option = '"background_subsample": {}'
        assert every.stdout.replace(option.format(80), option.format("null")) == whole.stdout
        assert (tmp_path / "every.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_provenance_reproduces_run(self, cli, explain_csv):
        first = cli(
            "explain", str(explain_csv), "--target", "outcome",
            "--sampled", "--permutations", "30", "--seed", "9",
        )
        doc = json.loads(first.stdout)
        prov = doc["provenance"]
        argv = [
            prov["command"], prov["input"],
            "--target", prov["options"]["target"],
            "--model", prov["options"]["model"],
            "--permutations", str(prov["options"]["permutations"]),
            "--seed", str(prov["seed"]),
        ]
        if prov["options"]["sampled"]:
            argv.append("--sampled")
        second = cli(*argv)
        assert second.stdout == first.stdout

    def test_target_only_csv(self, cli, tmp_path):
        path = tmp_path / "target.csv"
        write_csv(path, ["outcome"], [[1.0], [2.0], [3.0]])
        result = cli("explain", str(path), "--target", "outcome")
        _assert_input_error(result)
        assert result.stderr == f"error: {path}: no feature columns besides the target\n"

    def test_provenance_key_order(self, cli, explain_csv, monkeypatch):
        explain = json.loads(cli("explain", str(explain_csv), "--target", "outcome").stdout)
        monkeypatch.chdir(Path(__file__).parent)
        decompose_doc = json.loads(cli("decompose", "data/golden_6row.csv").stdout)
        for doc in (explain, decompose_doc):
            assert list(doc["provenance"]) == ["command", "input", "options", "seed", "version"]
        assert list(decompose_doc["provenance"]["options"]) == ["phi0", "eq7_as_printed"]
        assert list(explain["provenance"]["options"]) == [
            "target", "model", "learning_rate", "iterations", "target_r2", "sampled",
            "permutations", "background_subsample", "eq7_as_printed",
        ]


class TestSimulate:
    def test_single_cell_uncorrelated(self, cli, tmp_path):
        out = tmp_path / "grid.csv"
        result = cli(
            "simulate", "--rhos", "0.0", "--n-samples", "800", "--seed", "1",
            "--out", str(out),
        )
        assert result.code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "rho,config_id,status,sigma_unique,baseline_r2"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3  # three default coefficient configs
        for row in rows:
            assert row[2] == "completed"
            assert float(row[3]) == pytest.approx(1.0, abs=0.06)
        summary = json.loads(result.stdout)
        assert summary["configs"][0]["sigma_unique_at_rho_zero"] is not None

    def test_non_pd_cell_in_csv(self, cli, tmp_path):
        out = tmp_path / "grid.csv"
        result = cli("simulate", "--rhos", "-0.6", "--n-samples", "100",
                     "--out", str(out))
        assert result.code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        for line in lines[1:]:
            rho, config_id, status, sigma, r2 = line.split(",")
            assert status == "skipped_non_pd"
            assert sigma == "" and r2 == ""

    def test_rhos_may_start_with_a_minus_sign(self, cli, tmp_path):
        # argparse alone reads "-0.8,0.0" as an unknown option
        runs = [cli("simulate", *rhos, "--n-samples", "40", "--out", str(tmp_path / f"{i}.csv"))
                for i, rhos in enumerate((["--rhos", "-0.8,0.0"], ["--rhos=-0.8,0.0"]))]
        assert [r.code for r in runs] == [0, 0] and runs[0].stdout == runs[1].stdout
        assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()

    def test_deterministic_bytes(self, cli, tmp_path):
        args = ("simulate", "--rhos", "0.0,0.4", "--n-samples", "300", "--seed", "7")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = cli(*args, "--out", str(out1))
        r2 = cli(*args, "--out", str(out2))
        assert r1.code == r2.code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert r1.stdout == r2.stdout

    def test_invalid_rho_exit_two(self, cli, tmp_path):
        result = cli("simulate", "--rhos", "1.7", "--out", str(tmp_path / "g.csv"))
        assert result.code == 2
        result = cli("simulate", "--rhos", "abc", "--out", str(tmp_path / "g.csv"))
        assert result.code == 2

    def test_config_file(self, cli, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(
            json.dumps(
                {
                    "rho_values": [0.0, 0.2],
                    "coefficient_configs": [
                        {"id": "pair", "coefficients": [1.0, 1.0]},
                    ],
                    "n_samples": 400,
                    "seed": 3,
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "grid.csv"
        result = cli("simulate", "--config", str(config), "--out", str(out))
        assert result.code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 3
        assert all(line.split(",")[1] == "pair" for line in lines[1:])

    def test_config_id_with_a_comma(self, cli, tmp_path):
        config, out = tmp_path / "grid.json", tmp_path / "grid.csv"
        config.write_text(json.dumps({
            "rho_values": [0.0, 0.5], "n_samples": 40,
            "coefficient_configs": [{"id": "a,b", "coefficients": [1.0, 1.0]}],
        }), encoding="utf-8")
        assert cli("simulate", "--config", str(config), "--out", str(out)).code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [len(row) for row in rows] == [5, 5, 5]
        assert [row[1] for row in rows[1:]] == ["a,b", "a,b"]

    def test_unknown_estimator_one_message_from_flag_and_config(self, cli, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"estimator": "bogus"}), encoding="utf-8")
        common = ("simulate", "--rhos", "0", "--n-samples", "10", "--out", str(tmp_path / "g.csv"))
        from_flag = cli(*common, "--estimator", "bogus")
        from_config = cli(*common, "--config", str(config))
        for result in (from_flag, from_config):
            assert (result.code, result.stdout, result.stderr) == (2, "", "error: unknown estimator 'bogus'\n")
        assert not (tmp_path / "g.csv").exists()

    def test_unknown_config_key(self, cli, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"rho": [0.0]}), encoding="utf-8")
        result = cli("simulate", "--config", str(config),
                     "--out", str(tmp_path / "g.csv"))
        assert result.code == 2

    def test_config_records_not_a_list_names_file(self, cli, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text('{"coefficient_configs": 5}', encoding="utf-8")
        result = cli("simulate", "--config", str(config), "--out", str(tmp_path / "g.csv"))
        assert result.code == 2
        assert result.stderr == (f"error: {config}: coefficient_configs must be a list of "
                                 '{"id": ..., "coefficients": [...]} records\n')

    @pytest.mark.parametrize("content, message", [(None, "cannot read "), ("{", "invalid JSON")],
                             ids=["missing", "invalid-json"])
    def test_config_file_unreadable(self, cli, tmp_path, content, message):
        config = tmp_path / "grid.json"
        if content is not None:
            config.write_text(content, encoding="utf-8")
        result = cli("simulate", "--config", str(config), "--out", str(tmp_path / "g.csv"))
        _assert_input_error(result)
        assert message in result.stderr and str(config) in result.stderr
        assert not (tmp_path / "g.csv").exists()

    def test_empty_rho_list(self, cli, tmp_path):
        result = cli("simulate", "--rhos", ",", "--out", str(tmp_path / "g.csv"))
        _assert_input_error(result)
        assert result.stderr == "error: rho_values is empty\n"

    def test_sampled_estimator_threads_deterministic(self, cli, tmp_path):
        args = (
            "simulate", "--rhos", "0.0,0.4", "--n-samples", "80", "--seed", "13",
            "--estimator", "sampled", "--permutations", "15",
            "--background-subsample", "16",
        )
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        r1 = cli(*args, "--threads", "1", "--out", str(out1))
        r8 = cli(*args, "--threads", "8", "--out", str(out2))
        assert r1.code == r8.code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert r1.stdout == r8.stdout


class TestParserContract:
    def test_unknown_command(self, cli):
        result = cli("frobnicate")
        assert result.code == 2

    @pytest.mark.parametrize(
        "argv",
        [("explain", "{csv}", "--out", "{dir}/r.json"),
         ("explain", "{csv}", "--target", "outcome", "--model", "bogus", "--out", "{dir}/r.json"),
         ("simulate", "--estimator", "bogus", "--rhos", "0", "--n-samples", "10", "--out", "{dir}/g.csv"),
         ("explain", "{csv}", "--target", "outcome", "--iterations", "abc", "--out", "{dir}/r.json"),
         ("frobnicate", "--out", "{dir}/r.json"),
         ()],
        ids=["missing-target", "unknown-model", "unknown-estimator", "non-integer-iterations",
             "unknown-command", "no-arguments"],
    )
    def test_argument_errors_are_one_error_line(self, cli, explain_csv, tmp_path, argv):
        (out := tmp_path / "out").mkdir()
        result = cli(*[arg.format(csv=explain_csv, dir=out) for arg in argv])
        assert (result.code, result.stdout) == (2, "")
        _assert_input_error(result)
        assert list(out.iterdir()) == []

    def test_missing_option_names_it(self, cli, explain_csv):
        result = cli("explain", str(explain_csv))
        assert (result.code, result.stdout, result.stderr) == (
            2, "", "error: the following arguments are required: --target\n")

    def test_help_exits_zero_with_usage_on_stdout(self, cli):
        result = cli("explain", "--help")
        assert (result.code, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: ") and "--target" in result.stdout

    def test_threads_validation(self, cli, explain_csv):
        result = cli("explain", str(explain_csv), "--target", "outcome",
                     "--threads", "0")
        assert result.code == 2

    def test_missing_file(self, cli):
        result = cli("decompose", "/nonexistent/file.csv")
        assert result.code == 2

    def test_readme_examples_parse(self):
        """Every ``shapr2`` command in README's ``sh`` blocks, with its
        backslash continuations joined and its trailing comment dropped,
        parses with the CLI's parser."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        commands = []
        for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
            for line in block.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["shapr2"]:
                    commands.append(argv[1:])
        assert len(commands) >= 10  # a fence the pattern misses drops its commands
        parser = cli_module.build_parser()
        for argv in commands:
            assert parser.parse_args(argv).command == argv[0]


def _assert_input_error(result):
    """Exit 2 with a one-line ``error:`` message (an uncaught exception would
    have propagated out of ``main`` instead)."""
    assert result.code == 2
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


def _cli_in_child(*argv, wrap=(), **kwargs):
    """``shapr2 argv`` in a child interpreter started through the ``wrap``
    command prefix; ``kwargs`` go to ``subprocess.run``."""
    src = Path(cli_module.__file__).parents[1]
    return subprocess.run(
        [*wrap, sys.executable, "-c", "import sys; from shapr2.cli import main; sys.exit(main())",
         *argv],
        timeout=120, env={**os.environ, "PYTHONPATH": str(src)}, **kwargs,
    )


def _decompose_golden_in_child(stdout=None, wrap=()):
    """``decompose`` on the golden input, with ``stdout`` as its stdout."""
    return _cli_in_child("decompose", str(DATA_DIR / "golden_6row.csv"), wrap=wrap,
                         stdout=stdout, stderr=subprocess.PIPE, text=True)


def _python(code, **env):
    """The standard output of ``code`` run in a fresh interpreter on this
    checkout, whose environment has no OPENBLAS_NUM_THREADS unless ``env`` sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = Path(cli_module.__file__).parents[1]
    return subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": str(src), **env},
                          capture_output=True, text=True, timeout=120, check=True).stdout


class TestBlasThreads:
    """The CLI runs on one OS thread; importing the library changes nothing."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_import_starts_no_worker_thread(self):
        code = "import os, shapr2.cli; print(len(os.listdir('/proc/self/task')))"
        assert _python(code) == "1\n"

    def test_caller_setting_wins(self):
        code = "import os, shapr2.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _python(code) == "1\n"
        assert _python(code, OPENBLAS_NUM_THREADS="2") == "2\n"

    def test_library_import_leaves_the_environment(self):
        code = ("import os, sys, shapr2; loaded = 'numpy' in sys.modules; import numpy; "
                "print(loaded, os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert _python(code) == "False None\n"

    def test_public_names_resolve_to_their_definitions(self):
        code = """
import sys, shapr2
assert len(set(shapr2.__all__)) == len(shapr2.__all__) == 33
for name in shapr2.__all__:
    value = getattr(shapr2, name)
    if name == "__version__":
        assert value == sys.modules["shapr2.report"].VERSION
    else:
        assert value.__module__.startswith("shapr2.") and value is getattr(sys.modules[value.__module__], name), name
assert shapr2.shapley is sys.modules["shapr2.shapley"] and not hasattr(shapr2, "missing")
print("ok")
"""
        assert _python(code) == "ok\n"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv, stderr",
        [
            (("decompose", "{golden}", "--phi0", "-1e-05"), ""),
            (("decompose", "{golden}", "--phi0", "-inf"), "error: phi0 must be finite\n"),
            (("simulate", "--rhos", "0.0", "--n-samples", "40", "--out", "{tmp}/g.csv",
              "--noise-sd", "-1e-3"), "error: noise_sd must be >= 0\n"),
            (("explain", "{csv}", "--target", "outcome", "--model", "stumps",
              "--learning-rate", "-1e-3"), "error: learning_rate must be in (0, 1]\n"),
            (("explain", "{csv}", "--target", "outcome", "--model", "stumps",
              "--target-r2", "-1e-3"), "error: target_r2 must be in (0, 1)\n"),
        ],
        ids=["phi0", "phi0-inf", "noise-sd", "learning-rate", "target-r2"],
    )
    def test_negative_numbers_are_option_values(self, cli, explain_csv, tmp_path, argv, stderr):
        # argparse alone reads "-1e-05" as an option: its negative-number pattern has no exponent
        argv = [a.format(golden=DATA_DIR / "golden_6row.csv", csv=explain_csv, tmp=tmp_path) for a in argv]
        spaced = cli(*argv)
        joined = cli(*argv[:-2], f"{argv[-2]}={argv[-1]}")
        assert (spaced.code, spaced.stdout, spaced.stderr) == (joined.code, joined.stdout, joined.stderr)
        assert spaced.stderr == stderr and spaced.code == (2 if stderr else 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "{missing}"),
            ("explain", "{missing}", "--target", "outcome"),
            ("simulate", "--config", "{missing}", "--out", "{tmp}/g.csv"),
        ],
        ids=["decompose", "explain", "simulate-config"],
    )
    def test_unreadable_input_names_the_reason(self, cli, tmp_path, argv):
        # reads and writes share one message form: the path, then the system's reason alone
        missing = tmp_path / "missing"
        result = cli(*[a.format(missing=missing, tmp=tmp_path) for a in argv])
        assert (result.code, result.stderr) == (2, f"error: cannot read {missing}: {os.strerror(errno.ENOENT)}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("explain", "{csv}", "--target", "outcome", "--out", "/nonexistent/r.json"),
            ("explain", "{csv}", "--target", "outcome", "--emit-shap", "/nonexistent/phi.csv"),
            ("explain", "{csv}", "--target", "outcome", "--emit-model", "/nonexistent/m.json"),
            ("simulate", "--rhos", "0.0", "--n-samples", "40", "--out", "/nonexistent/g.csv"),
            ("simulate", "--rhos", "0.0", "--n-samples", "40", "--out", "{tmp}/g.csv",
             "--summary-out", "/nonexistent/s.json"),
            ("explain", "{csv}", "--target", "outcome", "--emit-shap", "{tmp}/phi.csv",
             "--emit-model", "{tmp}/m.json", "--out", "/nonexistent/r.json"),
        ],
        ids=["explain-out", "emit-shap", "emit-model", "simulate-out", "summary-out",
             "out-after-emits"],
    )
    def test_unwritable_output(self, cli, explain_csv, tmp_path, argv):
        argv = [a.format(csv=explain_csv, tmp=tmp_path) for a in argv]
        before = sorted(tmp_path.iterdir())
        result = cli(*argv)
        _assert_input_error(result)
        assert "cannot write /nonexistent/" in result.stderr
        assert result.stdout == ""
        # all or nothing: no other output, and no temporary file, is left
        assert sorted(tmp_path.iterdir()) == before

    def test_failed_write_keeps_existing_output(self, cli, explain_csv, tmp_path):
        phi = tmp_path / "phi.csv"
        phi.write_text("old\n", encoding="utf-8")
        phi.chmod(0o640)
        argv = ("explain", str(explain_csv), "--target", "outcome", "--emit-shap", str(phi))
        _assert_input_error(cli(*argv, "--out", "/nonexistent/r.json"))
        assert phi.read_text(encoding="utf-8") == "old\n"
        assert cli(*argv, "--out", str(tmp_path / "r.json")).code == 0
        assert phi.read_text(encoding="utf-8").startswith("y,yhat,phi0,")
        assert phi.stat().st_mode & 0o777 == 0o640  # as open(path, "w") leaves it

    def test_out_naming_a_directory(self, cli, tmp_path):
        before = sorted(tmp_path.iterdir())
        result = cli("decompose", str(DATA_DIR / "golden_6row.csv"), "--out", str(tmp_path))
        _assert_input_error(result)
        assert result.stderr == f"error: cannot write {tmp_path}: Is a directory\n"
        assert result.stdout == ""
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ("explain", "{csv}", "--target", "outcome", "--emit-shap", "{tmp}/f",
             "--emit-model", "{tmp}/f", "--out", "{tmp}/f"),
            ("simulate", "--rhos", "0.0", "--n-samples", "40", "--out", "{tmp}/f",
             "--summary-out", "{tmp}/f"),
            ("simulate", "--rhos", "0.0", "--n-samples", "40", "--out", "{tmp}/f",
             "--summary-out", "{tmp}/link"),
            # the collision is reported before any input is read
            ("explain", "{tmp}/missing.csv", "--target", "outcome", "--emit-shap", "{tmp}/f",
             "--out", "{tmp}/f"),
        ],
        ids=["explain", "simulate", "simulate-through-symlink", "explain-missing-input"],
    )
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_two_outputs_naming_one_file(self, cli, explain_csv, tmp_path, argv, existing):
        target = tmp_path / "f"
        (tmp_path / "link").symlink_to(target.name)
        if existing:
            target.write_text("old\n", encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        result = cli(*[a.format(csv=explain_csv, tmp=tmp_path) for a in argv])
        _assert_input_error(result)
        assert result.stderr == f"error: cannot write {os.path.realpath(target)}: two outputs name this file\n"
        assert result.stdout == ""
        assert sorted(tmp_path.iterdir()) == before
        if existing:
            assert target.read_text(encoding="utf-8") == "old\n"

    def test_outputs_may_share_a_device(self, cli, explain_csv):
        for argv in (
            ("explain", str(explain_csv), "--target", "outcome", "--emit-shap", os.devnull,
             "--emit-model", os.devnull, "--out", os.devnull),
            ("simulate", "--rhos", "0.0", "--n-samples", "40", "--out", os.devnull,
             "--summary-out", os.devnull),
        ):
            result = cli(*argv)
            assert (result.code, result.stdout, result.stderr) == (0, "", "")

    def test_out_to_a_device_writes_in_place(self, cli):
        result = cli("decompose", str(DATA_DIR / "golden_6row.csv"), "--out", os.devnull)
        assert (result.code, result.stdout, result.stderr) == (0, "", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_out_through_a_symlink_writes_the_target(self, cli, tmp_path, monkeypatch):
        monkeypatch.chdir(DATA_DIR.parent)
        target, link = tmp_path / "report.json", tmp_path / "link.json"
        link.symlink_to(target.name)
        assert cli("decompose", "data/golden_6row.csv", "--out", str(link)).code == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == GOLDEN_REPORT.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "report.json"]

    def test_new_file_mode_follows_umask(self, cli, tmp_path):
        mask = os.umask(0o027)
        try:
            assert cli("decompose", str(DATA_DIR / "golden_6row.csv"),
                       "--out", str(tmp_path / "r.json")).code == 0
        finally:
            os.umask(mask)
        assert (tmp_path / "r.json").stat().st_mode & 0o777 == 0o666 & ~0o027

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_read_only_file_is_left_unchanged(self, cli, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("old\n", encoding="utf-8")
        out.chmod(0o444)
        result = cli("decompose", str(DATA_DIR / "golden_6row.csv"), "--out", str(out))
        _assert_input_error(result)
        assert result.stderr == f"error: cannot write {out}: Permission denied\n"
        assert out.read_text(encoding="utf-8") == "old\n"
        assert sorted(tmp_path.iterdir()) == [out]

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_stdout_on_a_full_device(self):
        with open("/dev/full", "w") as full:
            result = _decompose_golden_in_child(stdout=full)
        assert (result.returncode, result.stderr) == (
            2, f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_device_write_fails_after_files_are_replaced(self, cli, explain_csv, tmp_path):
        phi = tmp_path / "phi.csv"
        result = cli("explain", str(explain_csv), "--target", "outcome", "--emit-shap", str(phi),
                     "--out", "/dev/full")
        assert (result.code, result.stdout, result.stderr) == (
            2, "", f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n")
        # files are replaced before devices are written (README)
        assert phi.read_text(encoding="utf-8").startswith("y,yhat,phi0,")
        assert sorted(tmp_path.iterdir()) == [explain_csv, phi]

    def test_stdout_closed(self):
        # the shell starts the child with file descriptor 1 closed
        result = _decompose_golden_in_child(wrap=["sh", "-c", 'exec "$@" >&-', "sh"])
        assert (result.returncode, result.stderr) == (
            2, f"error: cannot write <stdout>: {os.strerror(errno.EBADF)}\n")

    def test_stdout_pipe_closed_by_reader(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = _decompose_golden_in_child(stdout=write_end)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (
            2, f"error: cannot write <stdout>: {os.strerror(errno.EPIPE)}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("explain", "{csv}", "--target", "outcome", "--permutations", "0"),
            ("explain", "{csv}", "--target", "outcome", "--permutations", "-3", "--sampled"),
            ("explain", "{csv}", "--target", "outcome", "--background-subsample", "-5",
             "--sampled"),
            ("simulate", "--rhos", "0.0", "--n-samples", "30", "--permutations", "0",
             "--out", "{tmp}/g.csv"),
            ("simulate", "--rhos", "0.0", "--n-samples", "30", "--background-subsample", "-5",
             "--permutations", "0", "--out", "{tmp}/g.csv"),
            ("simulate", "--rhos", "0.0", "--n-samples", "30", "--estimator", "sampled",
             "--background-subsample", "0", "--out", "{tmp}/g.csv"),
        ],
        ids=["explain-exact-permutations", "explain-sampled-permutations",
             "explain-sampled-subsample", "simulate-linear-permutations",
             "simulate-linear-both", "simulate-sampled-subsample"],
    )
    def test_sampling_options_below_one(self, cli, explain_csv, tmp_path, argv):
        _assert_input_error(cli(*[a.format(csv=explain_csv, tmp=tmp_path) for a in argv]))
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--model", "ols", "--iterations", "-5"), "iterations must be >= 1"),
            (("--model", "ols", "--learning-rate", "7"), "learning_rate must be in (0, 1]"),
            (("--model", "ols", "--learning-rate", "nan"), "learning_rate must be in (0, 1]"),
            (("--model", "stumps", "--target-r2", "0.5", "--iterations", "-5"),
             "iterations must be >= 1"),
        ],
        ids=["ols-iterations", "ols-learning-rate", "ols-learning-rate-nan",
             "target-r2-iterations"],
    )
    def test_model_options_checked_whichever_model_runs(self, cli, explain_csv, flags, message):
        for csv_path in (explain_csv, explain_csv.parent / "missing.csv"):  # before input is read
            result = cli("explain", str(csv_path), "--target", "outcome", *flags)
            assert (result.code, result.stderr, result.stdout) == (2, f"error: {message}\n", "")

    def test_csv_with_byte_order_mark(self, cli, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        source = (DATA_DIR / "golden_6row.csv").read_bytes()
        (tmp_path / "data" / "golden_6row.csv").write_bytes(b"\xef\xbb\xbf" + source)
        monkeypatch.chdir(tmp_path)
        result = cli("decompose", "data/golden_6row.csv")
        assert result.code == 0
        assert result.stdout == GOLDEN_REPORT.read_text(encoding="utf-8")

    def test_explain_csv_with_byte_order_mark(self, cli, explain_csv, tmp_path):
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + explain_csv.read_bytes())
        plain = json.loads(cli("explain", str(explain_csv), "--target", "outcome").stdout)
        result = cli("explain", str(bom_csv), "--target", "outcome")
        assert result.code == 0
        doc = json.loads(result.stdout)
        assert doc["features"] == plain["features"]

    def test_csv_not_utf8(self, cli, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,yhat,phi_a\n1,2,\xe9\n")
        _assert_input_error(cli("decompose", str(path)))

    def test_oversized_field_on_scan_names_line(self, cli, tmp_path):
        # the blank line sends the file to the scan, whose csv reader caps a field's length
        path = tmp_path / "wide.csv"
        path.write_text("y,yhat,phi_a\n1,1.5,-1\n\n2,2.5," + "0" * 200_000 + "\n4,3,1\n",
                        encoding="utf-8")
        result = cli("decompose", str(path))
        _assert_input_error(result)
        assert result.stderr.startswith(f"error: {path}, line 4: ")

    @pytest.mark.parametrize(
        "text, message",
        [('y,yhat,"phi_a\nz"\n1,1.5,-1\n2,2.5,x\n4,3,1\n', "line 4, column 'phi_a\\nz': not a number: 'x'"),
         ('y,yhat,phi_a\n1,"1.5\n",-1\n2,2.5,x\n4,3,1\n', "line 4, column 'phi_a': not a number: 'x'"),
         ('y,yhat,"phi_a\nz"\n1,1.5\n2,2.5,1\n', "line 3: expected 3 fields, got 2")],
        ids=["cell-after-two-line-header", "cell-after-two-line-record", "short-row-after-two-line-header"],
    )
    def test_scan_errors_name_the_line_a_record_starts_on(self, cli, tmp_path, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8", newline="")
        result = cli("decompose", str(path))
        _assert_input_error(result)
        assert result.stderr == f"error: {path}, {message}\n"

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_exact_background_subsample_below_one(self, cli, explain_csv, value):
        _assert_input_error(
            cli("explain", str(explain_csv), "--target", "outcome",
                "--background-subsample", value)
        )

    @pytest.mark.parametrize("learning_rate", ["1.5", "0"])
    def test_target_r2_learning_rate_domain(self, cli, explain_csv, learning_rate):
        result = cli("explain", str(explain_csv), "--target", "outcome",
                     "--model", "stumps", "--target-r2", "0.3",
                     "--learning-rate", learning_rate)
        _assert_input_error(result)
        assert "learning_rate" in result.stderr

    @pytest.mark.parametrize(
        "content",
        [
            "5",
            "[0.0, 0.2]",
            '{"n_samples": "abc"}',
            '{"n_samples": 2.5}',
            '{"seed": true}',
            '{"seed": -1}',
            '{"noise_sd": "loud"}',
            '{"estimator": 3}',
            '{"rho_values": ["abc"]}',
            '{"rho_values": 0.5}',
            '{"coefficient_configs": [{"id": "a", "coefficients": []}]}',
            '{"coefficient_configs": [{"id": "a", "coefficients": [1e400, 1.0]}]}',
            '{"noise_sd": 1e400}',
            pytest.param(
                '{"coefficient_configs": [{"id": "a", "coefficients": "12"}], '
                '"rho_values": [0.0], "n_samples": 30}',
                id="coefficients-string",
            ),
            pytest.param(
                '{"coefficient_configs": [{"id": "a", "coefficients": ["1", true]}], '
                '"rho_values": [0.0], "n_samples": 30}',
                id="coefficients-string-and-boolean",
            ),
            pytest.param('{"rho_values": [1' + "0" * 400 + "]}", id="rho-integer-overflows-float"),
            pytest.param(
                '{"coefficient_configs": [{"id": null, "coefficients": [1, 2]}, '
                '{"id": null, "coefficients": [2, 1]}], "rho_values": [0.0], "n_samples": 30}',
                id="null-ids",
            ),
            pytest.param('{"coefficient_configs": [{"id": 1, "coefficients": [1, 2]}]}',
                         id="number-id"),
            pytest.param('{"coefficient_configs": [{"coefficients": [1, 2]}]}', id="missing-id"),
            pytest.param('{"coefficient_configs": [{"id": "a", "coefficients": [1, 2], "x": 0}]}',
                         id="unknown-record-key"),
            pytest.param(
                '{"coefficient_configs": [{"id": "a", "coefficients": [1, 2]}, '
                '{"id": "a", "coefficients": [2, 1]}]}',
                id="duplicate-ids",
            ),
            pytest.param(
                '{"coefficient_configs": [{"id": "a", "coefficients": [1' + "0" * 400 + ", 1]}]}",
                id="coefficient-integer-overflows-float",
            ),
        ],
    )
    def test_malformed_config_values(self, cli, tmp_path, content):
        config = tmp_path / "grid.json"
        config.write_text(content, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            result = cli("simulate", "--config", str(config), "--n-samples", "40",
                         "--out", str(tmp_path / "g.csv"))
        _assert_input_error(result)

    @pytest.mark.parametrize(
        "flags, field",
        [
            (("--noise-sd", "nan"), "noise_sd"),
            (("--noise-sd", "inf"), "noise_sd"),
            (("--rhos", "0.0,1.5"), "rho"),
            (("--background-subsample", "50"), "background_subsample"),
            (("--n-samples", "3"), "n_samples"),
        ],
        ids=["noise-nan", "noise-inf", "rho-range", "subsample-over-samples", "n-samples-not-above-features"],
    )
    def test_grid_flag_rejected_naming_field(self, cli, tmp_path, flags, field):
        result = cli("simulate", "--rhos", "0.0", "--n-samples", "40", *flags,
                     "--out", str(tmp_path / "g.csv"))
        _assert_input_error(result)
        assert result.stderr.startswith(f"error: {field} ")
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("noise", [(), ("--noise-sd", "0")], ids=["default-noise", "zero-noise"])
    def test_all_zero_coefficients_need_noise(self, cli, tmp_path, noise):
        # an earlier config that runs fine does not get its cells run first
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"coefficient_configs": [
            {"id": "a", "coefficients": [1, 2, 3]}, {"id": "z", "coefficients": [0, 0, 0]}]}), encoding="utf-8")
        result = cli("simulate", "--config", str(config), "--rhos", "0.0", "--n-samples", "40", *noise,
                     "--out", str(tmp_path / "g.csv"))
        _assert_input_error(result)
        assert result.stderr.startswith("error: noise_sd ")
        assert not (tmp_path / "g.csv").exists()

    def test_one_message_for_subsample_over_rows(self, cli, explain_csv, tmp_path):
        # explain_csv has 80 rows, which are the background on both engines
        for engine in ((), ("--sampled",)):
            result = cli("explain", str(explain_csv), "--target", "outcome",
                         "--background-subsample", "81", "--out", str(tmp_path / "r.json"), *engine)
            expected = (2, "error: background_subsample 81 exceeds background size 80\n", "")
            assert (result.code, result.stderr, result.stdout) == expected, engine
            assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("permutations", 0, "permutations must be >= 1"),
            ("background_subsample", 0, "background_subsample must be >= 1 when set"),
            ("seed", -1, "seed must fit in an unsigned 64-bit integer"),
            ("seed", 2**64, "seed must fit in an unsigned 64-bit integer"),
        ],
        ids=["permutations-zero", "subsample-zero", "seed-negative", "seed-2-64"],
    )
    def test_one_message_per_sampling_rule(self, cli, explain_csv, tmp_path, key, value, message):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        flag = ("--" + key.replace("_", "-"), str(value))
        grid = ("--rhos", "0", "--n-samples", "40", "--out", str(tmp_path / "g.csv"))
        routes = {
            "explain": ("explain", str(explain_csv), "--target", "outcome", *flag),
            "explain-sampled": ("explain", str(explain_csv), "--target", "outcome", "--sampled",
                                *flag),
            "simulate-flag": ("simulate", *flag, *grid),
            "simulate-config": ("simulate", "--config", str(config), *grid),
        }
        before = sorted(tmp_path.iterdir())
        for route, argv in routes.items():
            result = cli(*argv)
            assert (result.code, result.stderr, result.stdout) == (2, f"error: {message}\n", ""), route
            assert sorted(tmp_path.iterdir()) == before, route


def _error_classes(base=Shapr2Error):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


class TestExitCodes:
    """The exit code of a failed command follows from its error class alone."""

    def test_both_groups_present(self):
        groups = {issubclass(cls, ValueError) for cls in _error_classes()}
        assert groups == {True, False}

    @pytest.mark.parametrize("error", list(_error_classes()), ids=lambda cls: cls.__name__)
    def test_exit_code_from_error_class(self, cli, error):
        with mock.patch.object(cli_module, "cmd_decompose", side_effect=error("boom")):
            result = cli("decompose", "unused.csv")
        assert result.code == (2 if issubclass(error, ValueError) else 3)
        assert result.stderr == "error: boom\n"  # no traceback
        assert result.stdout == ""

    def test_memory_error_exits_three(self, cli, tmp_path):
        grid = tmp_path / "g.csv"
        with mock.patch.object(cli_module, "cmd_simulate", side_effect=MemoryError("boom")):
            result = cli("simulate", "--rhos", "0", "--out", str(grid))
        assert result.code == 3
        assert result.stderr == "error: out of memory: boom\n"
        assert result.stdout == ""
        assert not grid.exists()

    def test_memory_error_while_staging_leaves_no_output(self, cli, tmp_path):
        # the grid CSV is queued before the summary fails, and is never written
        with mock.patch.object(cli_module, "_write_text", side_effect=MemoryError):
            result = cli("simulate", "--rhos", "0", "--n-samples", "40",
                         "--out", str(tmp_path / "g.csv"))
        assert result.code == 3
        assert result.stderr == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--rhos", "0.0", "--n-samples", "100000000000000000000", "--out", "{tmp}/g.csv"),
            ("simulate", "--rhos", "0.0", "--n-samples", "9223372036854775807", "--out", "{tmp}/g.csv"),
            ("simulate", "--estimator", "sampled", "--n-samples", "50", "--rhos", "0.0",
             "--permutations", "100000000000000000000", "--out", "{tmp}/g.csv"),
            ("explain", "{csv}", "--target", "outcome", "--sampled", "--permutations", "100000000000000000000"),
        ],
        ids=["n-samples-past-dimensions", "n-samples-past-bytes", "simulate-permutations",
             "explain-permutations"],
    )
    def test_arrays_past_the_address_space_are_out_of_memory(self, cli, explain_csv, tmp_path, argv):
        # numpy refuses such arrays with a ValueError, before any allocation
        (out := tmp_path / "out").mkdir()
        result = cli(*[a.format(csv=explain_csv, tmp=out) for a in argv])
        assert result.code == 3 and result.stdout == ""
        assert result.stderr.startswith("error: out of memory: ") and result.stderr.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("explain", "{csv}", "--target", "outcome", "--seed", "{seed}"),
            ("explain", "{csv}", "--target", "outcome", "--background-subsample", "20",
             "--seed", "{seed}"),
            ("explain", "{csv}", "--target", "outcome", "--sampled", "--permutations", "2",
             "--seed", "{seed}"),
            ("simulate", "--rhos", "0", "--n-samples", "40", "--seed", "{seed}",
             "--out", "{tmp}/g.csv"),
            ("simulate", "--config", "{tmp}/grid.json", "--rhos", "0", "--n-samples", "40",
             "--out", "{tmp}/g.csv"),
        ],
        ids=["explain-exact", "explain-subsample", "explain-sampled", "simulate-flag",
             "simulate-config"],
    )
    def test_seed_beyond_64_bits_exits_two(self, cli, explain_csv, tmp_path, argv):
        seed = 2**64
        (tmp_path / "grid.json").write_text(json.dumps({"seed": seed}), encoding="utf-8")
        result = cli(*[a.format(csv=explain_csv, tmp=tmp_path, seed=seed) for a in argv])
        assert (result.code, result.stderr, result.stdout) == (
            2, "error: seed must fit in an unsigned 64-bit integer\n", "")
        assert not (tmp_path / "g.csv").exists()
        # the largest seed that fits still runs
        argv = [a.format(csv=explain_csv, tmp=tmp_path, seed=seed - 1) for a in argv]
        (tmp_path / "grid.json").write_text(json.dumps({"seed": seed - 1}), encoding="utf-8")
        assert cli(*argv).code == 0


def _route(fast):
    """The default route, or with ``fast=False`` one on which ``_load_table``
    declines every file, so the per-cell scan reads it."""
    if fast:
        return contextlib.nullcontext()
    return mock.patch.object(cli_module, "_load_table", return_value=None)


def _read_columns(path, names=None, fast=True):
    """The named columns (all by default) of a CSV file, as ``_read_csv``
    returns them, or the message of the error it raises."""
    with _route(fast):
        try:
            header, columns_of = cli_module._read_csv(str(path))
            return columns_of(header if names is None else names)
        except ValidationError as exc:
            return str(exc)


def _decompose(path, fast=True):
    with _route(fast):
        result = run_cli("decompose", str(path))
    return result.code, result.stdout, result.stderr


def _scan_disabled():
    """A context in which any use of the per-cell scan fails the test."""
    stack = contextlib.ExitStack()
    for name in ("_read_table", "_parse_column"):
        stack.enter_context(mock.patch.object(cli_module, name, side_effect=AssertionError))
    return stack


_BODY = "1,1.5,-1\n2,2.5,0\n4,3,1\n"

#: Inputs on which the fast path could disagree with the scan, by name.
_LOADER_CASES = {
    "plain": "y,yhat,phi_a\n" + _BODY,
    "blank-line-middle": "y,yhat,phi_a\n1,1.5,-1\n\n2,2.5,0\n4,3,1\n",
    "blank-line-end": "y,yhat,phi_a\n" + _BODY + "\n",
    "whitespace-line": "y,yhat,phi_a\n1,1.5,-1\n   \n2,2.5,0\n4,3,1\n",
    "row-wider": "y,yhat,phi_a\n1,1.5,-1\n2,2.5,0,7\n4,3,1\n",
    "row-narrower": "y,yhat,phi_a\n1,1.5,-1\n2,2.5\n4,3,1\n",
    "all-rows-wider": "y,yhat,phi_a\n1,1.5,-1,0\n2,2.5,0,0\n4,3,1,0\n",
    "crlf": ("y,yhat,phi_a\n" + _BODY).replace("\n", "\r\n"),
    "cr-only": ("y,yhat,phi_a\n" + _BODY).replace("\n", "\r"),
    "cr-then-crlf": "y,yhat,phi_a\n" + _BODY + "\r\r\n",
    "no-final-newline": "y,yhat,phi_a\n" + _BODY.rstrip("\n"),
    "quoted-cell": 'y,yhat,phi_a\n1,"1.5",-1\n2,2.5,0\n4,3,1\n',
    "quoted-after-space": 'y,yhat,phi_a\n1, "1.5",-1\n2,2.5,0\n4,3,1\n',
    "quoted-newline": 'y,yhat,phi_a\n1,"1.5\n",-1\n2,2.5,0\n4,3,1\n',
    "hash-cell": "y,yhat,phi_a\n1,1.5,#\n2,2.5,0\n4,3,1\n",
    "hash-after-number": "y,yhat,phi_a\n1,1.5,-1#x\n2,2.5,0\n4,3,1\n",
    "hash-line": "y,yhat,phi_a\n1,1.5,-1\n#x\n2,2.5,0\n4,3,1\n",
    "trailing-comma": "y,yhat,phi_a\n1,1.5,-1,\n2,2.5,0,\n4,3,1,\n",
    "fullwidth-digit": "y,yhat,phi_a\n１,1.5,-1\n2,2.5,0\n4,3,1\n",
    "digit-separator": "y,yhat,phi_a\n1_000,1.5,-1\n2,2.5,0\n4,3,1\n",
    "inf": "y,yhat,phi_a\n1,1.5,inf\n2,2.5,0\n4,3,1\n",
    "nan": "y,yhat,phi_a\n1,1.5,-1\n2,nan,0\n4,3,1\n",
    "header-only": "y,yhat,phi_a\n",
    "header-blank-line": "y,yhat,phi_a\n\n",
    "empty": "",
    "byte-order-mark": "\ufeffy,yhat,phi_a\n" + _BODY,
    "duplicate-header": "y,yhat,y\n" + _BODY,
    "not-utf8": b"y,yhat,phi_a\n1,1.5,\xe9\n2,2.5,0\n",
    # loadtxt reads a field of any length; the scan's csv reader caps it at 131,072
    "long-field": "y,yhat,phi_a\n1,1.5,-1\n2,2.5," + "0" * 200_000 + "\n4,3,1\n",
    # a header that spans two lines, as --emit-shap writes for a name holding a line break
    "line-break-in-header": 'y,yhat,"phi_a\nz"\n' + _BODY,
    "crlf-in-header": ('y,yhat,"phi_a\nz"\n' + _BODY).replace("\n", "\r\n"),
}
#: The cases the fast path reads itself.
_FAST_CASES = ("plain", "crlf", "cr-only", "no-final-newline", "quoted-cell", "byte-order-mark",
               "line-break-in-header", "crlf-in-header")


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
    st.sampled_from(["", " 2 ", '"1.5"', ' "1.5"', '"1\n"', "1_0", "#", "-1#x", "１", "nan",
                     "inf", "1e400", '"2', "\x00"]),
)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "", "\n\n", "\r\r\n", "\n \n"])


def _assert_same(fast, scan):
    """Identical floats, bit for bit, or an identical error message."""
    if isinstance(scan, str):
        assert fast == scan
    else:
        assert fast.tobytes() == scan.tobytes()


class TestBulkCsvParse:
    """The ``loadtxt`` path reads what the per-cell scan reads, bit for bit,
    and leaves every input it could misread to the scan."""

    def test_golden_file_matches_scan(self):
        path = DATA_DIR / "golden_6row.csv"
        names = ["y", "yhat", "phi_b", "phi_a"]
        with _scan_disabled():
            fast = _read_columns(path, names)
        assert fast.tobytes() == _read_columns(path, names, fast=False).tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        values=st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        ),
        style=st.sampled_from(["{:.17g}", " {:.17g} ", "{:+.17g}", "{:.16e}"]),
    )
    def test_17_digit_floats_match_scan(self, tmp_path_factory, values, style):
        path = tmp_path_factory.getbasetemp() / "floats.csv"
        lines = ["y,phi_a,yhat", *(",".join(style.format(v) for v in row) for row in values)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        names = ["y", "yhat", "phi_a"]
        with _scan_disabled():
            fast = _read_columns(path, names)
        assert fast.tobytes() == _read_columns(path, names, fast=False).tobytes()
        assert fast.tobytes() == np.array(values)[:, [0, 2, 1]].tobytes()

    @pytest.mark.parametrize("name, text", _LOADER_CASES.items(), ids=_LOADER_CASES.keys())
    def test_fast_path_agrees_with_scan(self, tmp_path, name, text):
        path = tmp_path / "in.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8", newline="")
        _assert_same(_read_columns(path), _read_columns(path, fast=False))
        assert _decompose(path) == _decompose(path, fast=False)
        assert (cli_module._load_table(str(path)) is not None) == (name in _FAST_CASES)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(st.lists(_CELLS, min_size=2, max_size=4), _LINE_ENDS), max_size=5))
    def test_random_text_agrees_with_scan(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "random.csv"
        body = "".join(",".join(cells) + end for cells, end in rows)
        path.write_text("a,b,c\n" + body, encoding="utf-8", newline="")
        _assert_same(_read_columns(path), _read_columns(path, fast=False))

    @pytest.mark.parametrize(
        "text, message",
        [("y,yhat,phi_a\n", "no data rows"),
         ("y,yhat,phi_a\n\n", "line 2: expected 3 fields, got 0")],
        ids=["header-only", "header-blank-line"],
    )
    def test_empty_body_is_an_input_error_under_warnings_as_errors(self, cli, tmp_path, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body without rows
            result = cli("decompose", str(path))
        _assert_input_error(result)
        assert message in result.stderr

    def test_clean_file_loads_without_scan(self, tmp_path):
        path = tmp_path / "in.csv"
        y = np.random.default_rng(3).standard_normal(50)
        yhat = 0.8 * y
        phi_a = 0.25 * (yhat - yhat.mean())
        rows = np.column_stack([y, yhat, phi_a, yhat - yhat.mean() - phi_a])
        write_csv(path, ["y", "yhat", "phi_a", "phi_b"], [[f"{v:.17g}" for v in r] for r in rows])
        expected = _decompose(path, fast=False)
        with mock.patch.object(cli_module, "_parse_column", side_effect=AssertionError):
            assert _decompose(path) == expected
        assert expected[0] == 0

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
    def test_piped_input_is_read_once(self):
        result = _cli_in_child("decompose", "/dev/stdin", capture_output=True,
                               input=(DATA_DIR / "golden_6row.csv").read_bytes())
        assert result.returncode == 0, result.stderr
        golden = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
        assert json.loads(result.stdout)["features"] == golden["features"]

    def test_explain_input_loads_without_scan(self, cli, explain_csv):
        with _route(fast=False):
            expected = cli("explain", str(explain_csv), "--target", "outcome")
        with _scan_disabled():
            result = cli("explain", str(explain_csv), "--target", "outcome")
        assert result.code == 0 and result.stdout == expected.stdout

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "scan"])
    def test_explain_x_is_c_contiguous(self, explain_csv, fast):
        with _route(fast):
            dataset = cli_module._load_explain_input(str(explain_csv), "outcome")
        assert dataset.x.flags.c_contiguous and not dataset.x.flags.writeable
        assert dataset.x.shape == (80, 3)

    def test_report_independent_of_column_layout(self, tmp_path, monkeypatch):
        # phi adjacent (a view of the table), phi interleaved with y and yhat
        # (a gathered copy), and the per-cell scan give the same bytes
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((3000, 3)) * [1.0, 1e-3, 1e3]
        yhat = 0.25 + phi.sum(axis=1)
        columns = {"y": yhat + rng.standard_normal(3000), "yhat": yhat,
                   "phi0": np.full(3000, 0.26),  # off enough for an additivity warning
                   "phi_a": phi[:, 0], "phi_b": phi[:, 1], "phi_c": phi[:, 2]}
        orders = {"adjacent": ["y", "yhat", "phi0", "phi_a", "phi_b", "phi_c"],
                  "interleaved": ["phi_a", "y", "phi_b", "yhat", "phi_c", "phi0"]}
        results, shared = [], {}
        for name, header in orders.items():
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            write_csv(Path("in.csv"), header,
                      [[f"{v:.17g}" for v in row] for row in zip(*(columns[h] for h in header))])
            with _scan_disabled():
                y, _, matrix = cli_module._load_decompose_input("in.csv", None)
                shared[name] = _owner(matrix.phi) is _owner(y)
                results.append(_decompose("in.csv"))
            results.append(_decompose("in.csv", fast=False))
        assert shared == {"adjacent": True, "interleaved": False}
        assert results[0][0] == 0 and "additivity violated" in results[0][1]
        assert all(result == results[0] for result in results)


_DIGITS = st.integers(-9, 9).map(str)
_NUMBERS = st.one_of(_DIGITS, st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format))


@st.composite
def _decompose_files(draw):
    """CSV text: a header written by ``csv.writer``, with ``phi_`` names that
    hold the characters the csv dialect quotes and at times a duplicate, a
    ``phi0`` or an unknown column; then rows of raw cells (digits, any finite
    float, or the ``_CELLS`` cells too), the last at times of the wrong width."""
    names = st.text(st.sampled_from('ab,"\n\r '), max_size=3).map("phi_{}".format)
    header = ["y", "yhat", *draw(st.lists(names, min_size=1, max_size=3, unique=True)),
              *draw(st.lists(st.sampled_from(["y", "phi0", "x", "phi_a"]), max_size=1))]
    cells = draw(st.sampled_from([_DIGITS, _NUMBERS, st.one_of(_NUMBERS, _CELLS)]))
    rows = draw(st.lists(st.lists(cells, min_size=len(header), max_size=len(header)),
                         min_size=1, max_size=5))
    width = len(header) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    rows.append(draw(st.lists(cells, min_size=width, max_size=width)))
    text = io.StringIO()
    csv.writer(text).writerow(draw(st.permutations(header)))  # "\r\n" ends it, so "\r" is quoted
    return text.getvalue() + "".join(",".join(row) + "\n" for row in rows)


def _flag(name, values):
    """``[]`` or ``[name, value]`` for a value drawn from ``values``; None is no flag."""
    return st.one_of(st.just([]), values.map(lambda v: [] if v is None else [name, str(v)]))


def _mostly(valid, invalid):
    """One of the ``valid`` values, or now and then one of the ``invalid`` ones,
    so that most runs get past the option checks."""
    return st.sampled_from([*valid] * 8 + [*invalid])


def _lists(values, sizes, unique=False):
    """Lists of ``values`` whose length is drawn from ``sizes``."""
    return sizes.flatmap(lambda n: st.lists(values, min_size=n, max_size=n, unique=unique))


def _path(name):
    """The value of an output option: stdout (None) or a new file ``name``; now
    and then a file that holds "old\n", one another option may name too, one
    in a missing directory, or a device."""
    return _mostly([None, "{dir}/" + name], ["{dir}/old.out", "{dir}/missing/x.out", os.devnull])


@st.composite
def _explain_runs(draw):
    """CSV text with a target ``t`` and up to 3 features, at times a duplicate
    name, and up to 8 rows of small numbers (at times the ``_CELLS`` cells too),
    the last at times of the wrong width; then explain's argv for it, each flag
    absent or with a valid or an invalid value."""
    header = ["t", *draw(_lists(st.sampled_from("abc"), _mostly([1, 2, 3], [0]), unique=True))]
    if draw(_mostly([False], [True])):
        header.append(draw(st.sampled_from(header)))
    header = draw(st.permutations(header))
    small = st.one_of(_DIGITS, st.floats(-10, 10).map("{:.17g}".format))
    cells = draw(st.sampled_from([small] * 4 + [st.one_of(small, _CELLS)]))
    rows = draw(_lists(_lists(cells, st.just(len(header))), _mostly([4, 5, 6, 7], [0, 1, 2, 3])))
    width = len(header) + draw(_mostly([0], [-1, 1]))
    rows.append(draw(st.lists(cells, min_size=width, max_size=width)))
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    model = draw(_mostly(["ols", "stumps"], ["bogus"]))
    groups = [
        ["--target", draw(_mostly(["t"], ["a", "z"]))],
        ["--model", model],
        draw(_flag("--iterations", _mostly([1, 5, 20], [0, -1, 2.5]))),
        draw(_flag("--learning-rate", _mostly(["0.1", "0.5", "1"], ["0", "1.5", "nan"]))),
        # a target fit is only for stumps
        draw(_flag("--target-r2", _mostly(["0.3", "0.8"], ["0", "1", "nan"]) if model == "stumps"
                   else _mostly([None], ["0.3"]))),
        draw(st.sampled_from([[], ["--sampled"]])),
        draw(_flag("--permutations", _mostly([1, 2, 5], [0, -1]))),
        draw(_flag("--background-subsample", _mostly([1, 2, 5], [0, -1, 9]))),
        draw(_flag("--seed", _mostly([0, 1, 2**64 - 1], [2**64, -1]))),
        draw(_flag("--threads", _mostly([1, 2], [0, -1]))),
        draw(st.sampled_from([[], ["--eq7-as-printed"]])),
        draw(_flag("--emit-shap", _path("phi.csv"))),
        draw(_flag("--emit-model", _path("model.json"))),
        draw(_flag("--out", _path("report.json"))),
    ]
    return text, ["explain", "{dir}/in.csv", *[a for group in draw(st.permutations(groups)) for a in group]]


_RHO_LISTS = _lists(_mostly([-0.8, -0.5, 0.0, 0.3, 0.9, 1.0], [1.5]), _mostly([1, 2, 3], [0]))
_COEFFICIENT_RECORDS = st.fixed_dictionaries({
    "id": _mostly(["a", "b", "a,b"], [1]),
    "coefficients": _lists(_mostly([1.0, 0.0, -2.0], [1e300]), _mostly([1, 2, 3], [0])),
})


@st.composite
def _simulate_runs(draw):
    """A simulate config (JSON text, or None for no ``--config``) and
    simulate's argv. The rho values, ``n_samples`` and ``permutations`` each
    come from a flag, the config or both, so every grid has at most 3 rhos, 40
    samples and 5 permutations; every other key and flag is absent or has a
    valid or an invalid value."""
    config, groups = {}, []
    use_config = draw(st.booleans())
    for key, flag, values in (
        ("rho_values", "--rhos", _RHO_LISTS),
        ("n_samples", "--n-samples", _mostly([4, 10, 40], [-1, 1, 2, 3])),
        ("permutations", "--permutations", _mostly([1, 2, 5], [0, -1])),
    ):
        where = draw(st.sampled_from(["flag", "config", "both"] if use_config else ["flag"]))
        if where != "config":
            value = draw(values)
            groups.append([flag, ",".join(map(str, value)) if key == "rho_values" else str(value)])
        if where != "flag":
            config[key] = draw(values)
    for key, values in (
        ("seed", _mostly([0, 7], [2**64, -1, "1"])),
        ("noise_sd", _mostly([None, 0.0, 1.5], [-1.0, math.nan, "x"])),
        ("estimator", _mostly(["linear", "sampled"], ["bogus", 1])),
        ("background_subsample", _mostly([None, 1, 4], [0, 41, 2.5])),
        ("coefficient_configs", _lists(_COEFFICIENT_RECORDS, _mostly([1, 2, 3], [0]))),
        ("rho", _mostly([None], [[0.0]])),  # not a key
    ):
        value = draw(values)
        if use_config and value is not None and draw(st.booleans()):
            config[key] = value
    groups += [
        draw(_flag("--noise-sd", _mostly(["0", "1"], ["-1", "nan", "inf"]))),
        draw(_flag("--estimator", _mostly(["linear", "sampled"], ["bogus", "exact"]))),
        draw(_flag("--background-subsample", _mostly([1, 4], [0, -1, 41]))),
        draw(_flag("--seed", _mostly([0, 5], [2**64, -1]))),
        draw(_flag("--threads", _mostly([1, 2], [0, -1]))),
        ["--out", draw(_path("grid.csv").filter(lambda path: path is not None))],
        draw(_flag("--summary-out", _path("summary.json"))),
    ]
    text = None
    if use_config:
        groups.append(["--config", "{dir}/grid.json"])
        text = draw(_mostly([json.dumps(config)], ["[1]", "{"]))
    return text, ["simulate", *[a for group in draw(st.permutations(groups)) for a in group]]


def _files(work):
    """Every path under ``work``, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in work.rglob("*")}


def _run_in(work, argv):
    """``shapr2 argv`` in process, with ``{dir}`` standing for ``work``, where
    ``old.out`` holds "old\n"; checks the exit code and, on a failure, that one
    ``error:`` line is all it printed and that no file changed."""
    (work / "old.out").write_text("old\n", encoding="utf-8")
    before = _files(work)
    result = run_cli(*[arg.replace("{dir}", str(work)) for arg in argv])
    assert result.code in (0, 2, 3)
    if result.code:
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert _files(work) == before
    else:
        assert result.stderr == ""
    return result


def _assert_shares_sum(report_text):
    """The per-feature ``r2`` values of a report sum to its ``baseline_r2``."""
    report = json.loads(report_text)
    r2 = [feature["r2"] for feature in report["features"]]
    if any("feature-level shares are all zero" in w for w in report["warnings"]):
        assert r2 == [0.0] * len(r2)  # the all-null outcome (README)
    else:
        assert abs(sum(r2) - report["baseline_r2"]) <= 1e-10


class TestCliBoundary:
    """``decompose``, ``explain`` and ``simulate`` on generated inputs and
    command lines keep the CLI contract."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_decompose_files())
    def test_decompose_contract(self, tmp_path_factory, text):
        work = tmp_path_factory.mktemp("boundary")
        path, out = work / "in.csv", work / "report.json"
        path.write_text(text, encoding="utf-8", newline="")
        result = run_cli("decompose", str(path))
        to_file = run_cli("decompose", str(path), "--out", str(out))
        assert result.code in (0, 2, 3)
        assert (to_file.code, to_file.stdout, to_file.stderr) == (result.code, "", result.stderr)
        if result.code:
            assert result.stdout == ""
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
            assert not out.exists()
            return
        assert result.stderr == "" and out.read_text(encoding="utf-8") == result.stdout
        _assert_shares_sum(result.stdout)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(run=_explain_runs())
    def test_explain_contract(self, tmp_path_factory, run):
        text, argv = run
        work = tmp_path_factory.mktemp("explain")
        (work / "in.csv").write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(models, "TUNE_MAX_ITERATIONS", 200):  # bounds an unreachable search
            result = _run_in(work, argv)
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        if result.code == 0 and out != os.devnull:
            _assert_shares_sum(result.stdout if out is None else
                               Path(out.replace("{dir}", str(work))).read_text(encoding="utf-8"))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(run=_simulate_runs())
    def test_simulate_contract(self, tmp_path_factory, run):
        text, argv = run
        work = tmp_path_factory.mktemp("simulate")
        if text is not None:
            (work / "grid.json").write_text(text, encoding="utf-8")
        result = _run_in(work, argv)
        if result.code == 0 and "--summary-out" not in argv:
            assert json.loads(result.stdout)["version"] == cli_module.VERSION


def _owner(arr):
    """The array at the end of ``arr``'s ``.base`` chain."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


class TestLoaderMemory:
    """Ingest holds one copy of its input: the parsed table, which ``y``,
    ``yhat`` and ``phi`` view, read-only, through ``decompose``."""

    def test_decompose_loader_peak_within_budget(self, tmp_path):
        n, k = 50_000, 8
        rng = np.random.default_rng(11)
        phi = rng.standard_normal((n, k))
        yhat = 0.5 + phi.sum(axis=1)
        table = np.column_stack([yhat + rng.standard_normal(n), yhat, np.full(n, 0.5), phi])
        header = ["y", "yhat", "phi0", *(f"phi_x{j}" for j in range(k))]
        path = tmp_path / "in.csv"
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
        tracemalloc.start()
        try:
            with _scan_disabled():
                y, yhat_loaded, matrix = cli_module._load_decompose_input(str(path), None)
            matrix.additivity_gap(yhat_loaded)
            decompose(y, yhat_loaded, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * table.nbytes
        parsed = _owner(y)
        assert parsed.shape == table.shape and not parsed.flags.writeable
        for arr in (y, yhat_loaded, matrix.phi):
            assert _owner(arr) is parsed and np.shares_memory(arr, parsed)
            assert not arr.flags.writeable
        assert matrix.phi.tobytes() == phi.tobytes()


_STUMP_DOC = {
    "type": "stump_ensemble",
    "init_value": 1.0,
    "learning_rate": 0.5,
    "n_features": 2,
    "stumps": [{"feature_index": 1, "threshold": 0.0, "left_value": -1.0, "right_value": 1}],
}


_MISSING = object()


def _edited(changes, stump_changes=None):
    """``_STUMP_DOC`` with keys set, or deleted where the value is ``_MISSING``,
    at the top level and in its one stump record."""
    doc = json.loads(json.dumps(_STUMP_DOC))
    for record, edits in ((doc, changes), (doc["stumps"][0], stump_changes or {})):
        for key, value in edits.items():
            if value is _MISSING:
                del record[key]
            else:
                record[key] = value
    return doc


class TestModelDocument:
    def test_roundtrip(self):
        stumps = StumpEnsemble(1.0, (Stump(1, 0.0, -1.0, 1.0),), 0.5, 2)
        linear = LinearModel(0.5, np.array([1.0, -2.0]))
        assert model_from_document(_STUMP_DOC) == stumps
        doc = json.loads(cli_module.dumps(cli_module._model_document(linear)))
        rebuilt = model_from_document(doc)
        assert rebuilt.intercept == 0.5 and rebuilt.coefficients.tolist() == [1.0, -2.0]

    def test_document_bytes(self):
        stumps = StumpEnsemble(0.25, (Stump(1, 0.5, -1.0, 2.0), Stump(0, -0.125, 3.0, -0.75)), 0.1, 2)
        linear = LinearModel(0.5, np.array([1.0, -2.0]))
        assert cli_module.dumps(cli_module._model_document(stumps)) == (
            '{\n  "type": "stump_ensemble",\n  "init_value": 0.25,\n'
            '  "learning_rate": 0.10000000000000001,\n  "n_features": 2,\n  "stumps": [\n'
            '    {\n      "feature_index": 1,\n      "threshold": 0.5,\n'
            '      "left_value": -1,\n      "right_value": 2\n    },\n'
            '    {\n      "feature_index": 0,\n      "threshold": -0.125,\n'
            '      "left_value": 3,\n      "right_value": -0.75\n    }\n  ]\n}\n'
        )
        assert cli_module.dumps(cli_module._model_document(linear)) == (
            '{\n  "type": "linear",\n  "intercept": 0.5,\n  "coefficients": [\n    1,\n    -2\n  ]\n}\n'
        )

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"type": "tree"},
            _edited({"init_value": _MISSING}),
            _edited({"learning_rate": _MISSING}),
            _edited({"n_features": _MISSING}),
            _edited({"stumps": _MISSING}),
            _edited({}, {"feature_index": _MISSING}),
            _edited({}, {"threshold": _MISSING}),
            _edited({}, {"right_value": _MISSING}),
            _edited({"init_value": "1.0"}),
            _edited({"learning_rate": None}),
            _edited({"n_features": 2.0}),
            _edited({"n_features": True}),
            _edited({"stumps": {"feature_index": 0}}),
            _edited({"stumps": [[0, 0.0, 1.0, 2.0]]}),
            _edited({}, {"feature_index": 0.5}),
            _edited({}, {"left_value": [1.0]}),
            _edited({}, {"threshold": 10**400}),
            {"type": "linear", "coefficients": [1.0]},
            {"type": "linear", "intercept": 0.0, "coefficients": 1.0},
            {"type": "linear", "intercept": 0.0, "coefficients": ["1.0"]},
        ],
        ids=["not-object", "unknown-type", "no-init", "no-rate", "no-width", "no-stumps",
             "no-index", "no-threshold", "no-right", "init-string", "rate-null",
             "width-float", "width-bool", "stumps-object", "stump-list", "index-float",
             "left-list", "threshold-huge", "linear-no-intercept", "linear-scalar",
             "linear-string-coefficient"],
    )
    def test_malformed_document(self, doc):
        with pytest.raises(ValidationError):
            model_from_document(doc)

    @pytest.mark.parametrize(
        "doc, error",
        [
            (_edited({}, {"feature_index": 2}), ShapeError),
            (_edited({"n_features": 0, "stumps": []}), ShapeError),
            (_edited({"learning_rate": 0}), InvalidValue),
            (_edited({}, {"threshold": float("inf")}), InvalidValue),
            ({"type": "linear", "intercept": float("inf"), "coefficients": [1.0]}, InvalidValue),
        ],
        ids=["index-out-of-range", "no-features", "rate-zero", "threshold-inf",
             "linear-intercept-inf"],
    )
    def test_invalid_parameters(self, doc, error):
        with pytest.raises(error):
            model_from_document(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"coefficients": [1.0], "intercept": 0.0}, "missing key 'type'"),
        ({"type": 5}, "type must be a string, got 5"),
    ], ids=["no-type", "type-number"])
    def test_type_is_a_string(self, doc, message):
        with pytest.raises(ValidationError, match=f"^model document: {message}$"):
            model_from_document(doc)

    def test_unknown_model_type(self):
        with pytest.raises(InvalidValue, match="^cannot serialize model of type object$"):
            model_document(object())


class TestReportDumps:
    @pytest.mark.parametrize(
        "document, message",
        [
            ({"a": float("nan")}, "cannot serialize non-finite number nan"),
            ({"a": {1, 2}}, "cannot serialize set"),
        ],
        ids=["nan", "set"],
    )
    def test_rejects_what_json_cannot_hold(self, document, message):
        with pytest.raises(InvalidValue, match=f"^{message}$"):
            dumps(document)

    def test_empty_containers(self):
        assert dumps({}) == "{}\n"
        assert dumps({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'
