import csv
import json
from pathlib import Path

import numpy as np
import pytest

import greymatch as gm
from greymatch import cli, repro


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def water_csv(tmp_path):
    path = tmp_path / "water.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x1"])
        for k, v in enumerate(repro.WATER_VALUES, start=1):
            writer.writerow([k, v])
    return path


@pytest.fixture
def matching_config(tmp_path):
    path = tmp_path / "degree1.json"
    path.write_text(json.dumps({
        "model": "matching",
        "forcing": {"kind": "polynomial", "degree": 1},
        "include_constant": True,
    }))
    return path


class TestFit:
    def test_fit_writes_model_and_report(self, capsys, tmp_path, water_csv,
                                         matching_config):
        out = tmp_path / "fitted.json"
        code, stdout, _ = run_cli(capsys, "fit", "--input", str(water_csv),
                                  "--model", str(matching_config),
                                  "--output", str(out), "--split", "12")
        assert code == 0
        report = json.loads(stdout)
        assert report["mape_in"][0] == pytest.approx(4.40, abs=0.05)
        assert report["mape_out"][0] == pytest.approx(1.32, abs=0.05)
        payload = json.loads(out.read_text())
        assert payload["model"] == "matching"
        assert payload["A"][0][0] == pytest.approx(-0.0458, abs=5e-4)

    def test_empty_csv_is_a_data_error(self, capsys, tmp_path, matching_config):
        bad = tmp_path / "empty.csv"
        bad.write_text("t,x1\n")
        code, _, stderr = run_cli(capsys, "fit", "--input", str(bad),
                                  "--model", str(matching_config))
        assert code == cli.EXIT_DATA
        assert json.loads(stderr)["error"] == "CsvFormatError"

    def test_constant_columns_surface_singular_design(self, capsys, tmp_path):
        data = tmp_path / "const.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x1", "x2"])
            for k in range(1, 9):
                writer.writerow([k, 3.0, 3.0])
        config = tmp_path / "grey.json"
        config.write_text(json.dumps({"model": "grey",
                                      "forcing": {"kind": "zero"}}))
        code, _, stderr = run_cli(capsys, "fit", "--input", str(data),
                                  "--model", str(config))
        assert code == cli.EXIT_NUMERICAL
        err = json.loads(stderr)
        assert err["error"] == "SingularDesignError"
        assert "redundant" in err["message"]

    def test_grey_config_names_the_initial_strategy(self, capsys, tmp_path,
                                                    water_csv):
        config = tmp_path / "gpm.json"
        config.write_text(json.dumps({
            "model": "grey", "forcing": {"kind": "polynomial", "degree": 2},
            "strategy": "reduced_half_step",
        }))
        out = tmp_path / "fitted.json"
        code, stdout, _ = run_cli(capsys, "fit", "--input", str(water_csv),
                                  "--model", str(config), "--output", str(out),
                                  "--split", "12")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["strategy"] == "reduced_half_step"
        assert payload["eta"][0] == pytest.approx(21.5509, abs=5e-5)
        report = json.loads(stdout)
        assert report["mape_in"][0] == pytest.approx(4.75, abs=0.05)
        assert report["mape_out"][0] == pytest.approx(1.28, abs=0.05)

    def test_split_and_fraction_conflict(self, capsys, water_csv, matching_config):
        code, _, stderr = run_cli(capsys, "fit", "--input", str(water_csv),
                                  "--model", str(matching_config),
                                  "--split", "12", "--train-fraction", "0.8")
        assert code == cli.EXIT_USAGE

    def test_background_lambda_outside_unit_interval(self, capsys, tmp_path,
                                                     water_csv):
        config = tmp_path / "grey.json"
        config.write_text(json.dumps({"model": "grey", "forcing": {"kind": "zero"},
                                      "lambda": 1.5}))
        code, _, stderr = run_cli(capsys, "fit", "--input", str(water_csv),
                                  "--model", str(config))
        assert code == cli.EXIT_USAGE
        assert "background_lambda" in json.loads(stderr)["message"]


class TestForecast:
    def test_round_trip_fit_then_forecast_is_bit_identical(
            self, capsys, tmp_path, water_csv, matching_config):
        fitted = tmp_path / "fitted.json"
        run_cli(capsys, "fit", "--input", str(water_csv), "--model",
                str(matching_config), "--output", str(fitted), "--split", "12")
        out = tmp_path / "forecast.csv"
        code, _, _ = run_cli(capsys, "forecast", "--model", str(fitted),
                             "--input", str(water_csv), "--horizon", "0",
                             "--output", str(out))
        assert code == 0
        got = gm.read_csv(out)
        model = gm.model_from_dict(json.loads(fitted.read_text()))
        direct = gm.predict_on_grid(model, gm.read_csv(water_csv).grid)
        assert np.array_equal(got.values, direct.values)

    def test_forecast_horizon_extends_grid(self, capsys, tmp_path, water_csv,
                                           matching_config):
        fitted = tmp_path / "fitted.json"
        run_cli(capsys, "fit", "--input", str(water_csv), "--model",
                str(matching_config), "--output", str(fitted), "--split", "12")
        code, stdout, _ = run_cli(capsys, "forecast", "--model", str(fitted),
                                  "--input", str(water_csv), "--horizon", "2")
        assert code == 0
        rows = stdout.strip().splitlines()
        assert rows[0] == "t,x1_hat"
        assert len(rows) == 1 + len(repro.WATER_VALUES) + 2

    def test_dimension_mismatch(self, capsys, tmp_path, water_csv):
        fitted = tmp_path / "fitted.json"
        fitted.write_text(json.dumps({
            "model": "matching", "d": 2, "forcing": {"kind": "zero"},
            "A": [[0.1, 0.0], [0.0, 0.1]], "B": [[], []],
            "eta": [1.0, 1.0], "t1": 1.0,
        }))
        code, _, stderr = run_cli(capsys, "forecast", "--model", str(fitted),
                                  "--input", str(water_csv))
        assert code == cli.EXIT_DATA

    VALID = {
        "matching": {"model": "matching", "d": 1, "forcing": {"kind": "zero"},
                     "A": [[0.1]], "B": [[]], "eta": [1.0], "t1": 1.0},
        "grey": {"model": "grey", "d": 1,
                 "forcing": {"kind": "polynomial", "degree": 1},
                 "A": [[0.1]], "B": [[0.2]], "c": [0.3], "eta": [1.0],
                 "strategy": "fixed_first", "lambda": 0.5, "t1": 1.0},
    }

    @pytest.mark.parametrize("pipeline, change, field", [
        ("matching", {"eta": [1.0, 2.0]}, "eta"),
        ("matching", {"A": [[0.1, 0.2]]}, "A"),
        ("matching", {"A": [[float("nan")]]}, "A"),
        ("matching", {"c": None}, "c"),
        ("matching", {"c": [0.1, 0.2]}, "c"),
        ("matching", {"B": [[0.5]]}, "B"),
        ("matching", {"t1": float("inf")}, "t1"),
        ("grey", {"B": [[]]}, "B"),
        ("grey", {"c": None}, "c"),
        ("grey", {"c": [float("nan")]}, "c"),
        ("grey", {"eta": "one"}, "eta"),
    ])
    def test_invalid_model_file_is_a_data_error(self, capsys, tmp_path, water_csv,
                                                pipeline, change, field):
        fitted = tmp_path / "fitted.json"
        fitted.write_text(json.dumps({**self.VALID[pipeline], **change}))
        code, stdout, stderr = run_cli(capsys, "forecast", "--model", str(fitted),
                                       "--input", str(water_csv))
        assert code == cli.EXIT_DATA
        assert stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "DataError"
        assert f"'{field}'" in err["message"]

    def test_grey_model_file_without_constant_is_a_data_error(
            self, capsys, tmp_path, water_csv):
        fitted = tmp_path / "fitted.json"
        payload = dict(self.VALID["grey"])
        del payload["c"]
        fitted.write_text(json.dumps(payload))
        code, _, stderr = run_cli(capsys, "forecast", "--model", str(fitted),
                                  "--input", str(water_csv))
        assert code == cli.EXIT_DATA
        assert "'c'" in json.loads(stderr)["message"]

    def test_overflow_guard_is_a_numerical_error(self, capsys, tmp_path):
        fitted = tmp_path / "explosive.json"
        fitted.write_text(json.dumps({
            "model": "grey", "d": 1, "forcing": {"kind": "zero"},
            "A": [[2.0]], "B": [[]], "c": [0.0], "eta": [1.0],
            "strategy": "fixed_first", "lambda": 0.5, "t1": 0.0,
        }))
        data = tmp_path / "long.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x1"])
            for k in range(31):
                writer.writerow([float(k), 1.0])
        code, _, stderr = run_cli(capsys, "forecast", "--model", str(fitted),
                                  "--input", str(data))
        assert code == cli.EXIT_NUMERICAL
        assert json.loads(stderr)["error"] == "OverflowGuardError"


class TestSimulate:
    def test_writes_summary_and_tidy_csv(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "A": [[-0.25, 0.70], [0.75, -0.25]],
            "initial_state": [1.20, 0.35],
            "snr": 5.0, "replications": 4, "seed": 4,
        }))
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "simulate", "--scenario", str(scenario),
                             "--output", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] == 4
        with open(out / "replications.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["estimator"] for r in rows} == {"grey", "matching"}

    def test_zero_reps_refused(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "A": [[-0.25, 0.70], [0.75, -0.25]],
            "initial_state": [1.20, 0.35],
            "snr": 5.0, "replications": 7, "seed": 4,
        }))
        out = tmp_path / "out"
        code, _, stderr = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                  "--reps", "0", "--output", str(out))
        assert code == cli.EXIT_USAGE
        assert "need at least one replication" in json.loads(stderr)["message"]
        assert not (out / "summary.json").exists()


class TestVerify:
    def test_translation(self, capsys, water_csv):
        code, stdout, _ = run_cli(capsys, "verify", "--check", "translation",
                                  "--input", str(water_csv), "--shift", "4.0")
        assert code == 0
        report = json.loads(stdout)
        assert report["passed"]

    def test_proposition1(self, capsys, water_csv):
        code, stdout, _ = run_cli(capsys, "verify", "--check", "proposition1",
                                  "--input", str(water_csv))
        assert code == 0
        assert json.loads(stdout)["passed"]

    def test_reduction(self, capsys):
        code, stdout, _ = run_cli(capsys, "verify", "--check", "reduction",
                                  "--seed", "3")
        assert code == 0
        assert json.loads(stdout)["passed"]

    @pytest.mark.parametrize("check, extra", [
        ("translation", ("--value-tolerance", "0")),
        ("translation", ("--tolerance", "0")),
        ("proposition1", ("--tolerance", "0")),
        ("reduction", ("--tolerance", "0")),
    ])
    def test_zero_tolerance_is_kept(self, capsys, water_csv, check, extra):
        code, stdout, _ = run_cli(capsys, "verify", "--check", check,
                                  "--input", str(water_csv), *extra)
        assert code == cli.EXIT_TOLERANCE
        assert not json.loads(stdout)["passed"]


@pytest.mark.parametrize("argv", [
    ("fit", "--input", "{csv}", "--model", "{json}"),
    ("forecast", "--input", "{csv}", "--model", "{json}"),
    ("simulate", "--scenario", "{json}", "--output", "{out}"),
    ("verify", "--check", "translation", "--input", "{csv}", "--model", "{json}"),
])
def test_non_object_json_is_a_usage_error(capsys, tmp_path, water_csv, argv):
    array = tmp_path / "array.json"
    array.write_text("[1]")
    paths = {"csv": water_csv, "json": array, "out": tmp_path / "out"}
    code, stdout, stderr = run_cli(capsys, *[a.format(**paths) for a in argv])
    assert code == cli.EXIT_USAGE
    assert stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "ValueError"
    assert "JSON object" in err["message"]


class TestReproduce:
    def test_water_reproduces_every_cell(self, capsys):
        code, stdout, _ = run_cli(capsys, "reproduce", "--case", "water",
                                  "--verbose")
        assert code == cli.EXIT_OK
        assert "[FAIL]" not in stdout
        eta_rows = [line for line in stdout.splitlines()
                    if "GPM(1,1,2)" in line and "coeff eta" in line]
        assert len(eta_rows) == 1 and "[ok]" in eta_rows[0]
        assert "computed      21.5509" in eta_rows[0]

    def test_zero_tolerance_reports_failing_cells(self, capsys):
        code, stdout, _ = run_cli(capsys, "reproduce", "--case", "water",
                                  "--tolerance", "0")
        assert code == cli.EXIT_TOLERANCE
        assert "[FAIL]" in stdout


class TestPayloadCompatibility:
    """Configs and fitted models that still carry the retired
    quadrature_steps_per_unit key load, and forecast as they did."""

    CASES = json.loads((Path(__file__).parent / "data"
                        / "quadrature_key_payloads.json").read_text())
    # polynomial responses were exact before; Fourier ones went through
    # Simpson quadrature, accurate to about 1e-9 at this time scale
    TOLERANCE = {"grey_quadratic": 1e-12, "matching_linear": 1e-12,
                 "grey_fourier": 1e-9}

    def forecast(self, capsys, fitted, water_csv):
        code, stdout, _ = run_cli(capsys, "forecast", "--model", str(fitted),
                                  "--input", str(water_csv), "--horizon", "2")
        assert code == cli.EXIT_OK
        return np.array([float(row.split(",")[1])
                         for row in stdout.strip().splitlines()[1:]])

    @pytest.mark.parametrize("name", sorted(TOLERANCE))
    def test_fitted_model_forecasts_as_before(self, capsys, tmp_path, water_csv,
                                              name):
        case = self.CASES[name]
        assert "quadrature_steps_per_unit" in case["fitted"]
        fitted = tmp_path / "fitted.json"
        fitted.write_text(json.dumps(case["fitted"]))
        got = self.forecast(capsys, fitted, water_csv)
        want = np.array(case["forecast"])
        assert np.abs(got - want).max() <= self.TOLERANCE[name] * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(TOLERANCE))
    def test_config_with_the_key_fits_as_before(self, capsys, tmp_path,
                                                water_csv, name):
        case = self.CASES[name]
        assert "quadrature_steps_per_unit" in case["config"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(case["config"]))
        fitted = tmp_path / "fitted.json"
        code, _, _ = run_cli(capsys, "fit", "--input", str(water_csv), "--model",
                             str(config), "--output", str(fitted), "--split", "12")
        assert code == cli.EXIT_OK
        assert "quadrature_steps_per_unit" not in json.loads(fitted.read_text())
        got = self.forecast(capsys, fitted, water_csv)
        want = np.array(case["forecast"])
        assert np.abs(got - want).max() <= self.TOLERANCE[name] * np.abs(want).max()
