import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greymatch as gm
from greymatch import cli, repro, simulate


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

    def test_train_fraction_is_the_split_it_rounds_to(self, capsys, water_csv,
                                                      matching_config):
        fit = ("fit", "--input", str(water_csv), "--model", str(matching_config))
        code, by_fraction, _ = run_cli(capsys, *fit, "--train-fraction", "0.8")
        assert code == cli.EXIT_OK
        assert json.loads(by_fraction)["split_index"] == 12
        assert by_fraction == run_cli(capsys, *fit, "--split", "12")[1]
        code, _, stderr = run_cli(capsys, *fit, "--train-fraction", "0.02")
        assert code == cli.EXIT_USAGE
        assert "split index 0 " in json.loads(stderr)["message"]

    def test_background_lambda_outside_unit_interval(self, capsys, tmp_path,
                                                     water_csv):
        config = tmp_path / "grey.json"
        config.write_text(json.dumps({"model": "grey", "forcing": {"kind": "zero"},
                                      "lambda": 1.5}))
        code, _, stderr = run_cli(capsys, "fit", "--input", str(water_csv),
                                  "--model", str(config))
        assert code == cli.EXIT_USAGE
        assert "background_lambda" in json.loads(stderr)["message"]

    @pytest.mark.parametrize("config, named", [
        ({"model": "grey", "lambda": None}, "'lambda'"),
        ({"model": "grey", "lambda": "0.5"}, "'lambda'"),
        ({"model": "matching", "forcing": [1]}, "forcing config"),
        ({"model": "matching", "include_constant": "no"}, "'include_constant'"),
        ({"model": "grey", "forcing": None}, "forcing config"),
        ({"model": "grey", "forcing": {"kind": "polynomial", "degree": None}},
         "polynomial forcing"),
        ({"model": "grey", "forcing": {"kind": "fourier", "pairs": 1,
                                       "frequency": None}}, "fourier forcing"),
        ({"model": "grey", "forcing": {"kind": "mixed", "parts": None}}, "'parts'"),
        ({"model": "grey", "forcing": {"kind": "mixed", "parts": [1]}},
         "forcing config"),
    ], ids=["lambda-null", "lambda-string", "forcing-list", "include-constant-string",
            "forcing-null", "degree-null", "frequency-null", "parts-null", "part-int"])
    def test_wrongly_typed_config_is_a_usage_error(self, capsys, tmp_path,
                                                   water_csv, config, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, stderr = run_cli(capsys, "fit", "--input", str(water_csv),
                                  "--model", str(path))
        assert code == cli.EXIT_USAGE
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert named in error["message"]

    @pytest.mark.parametrize("field, value, named", [
        ("times", [str(k) for k in range(1, 15)], "'times'"),
        ("times", [True] * 14, "'times'"),
        ("values", [[True]] * 14, "'values'"),
        ("values", [["1.5"]] * 14, "'values'"),
        ("values", 5, "1 rows but grid has 14 points"),
    ], ids=["times-string", "times-bool", "values-bool", "values-string",
            "values-scalar"])
    @pytest.mark.parametrize("surface", ["config", "header"])
    def test_exogenous_samples_must_be_numbers(self, capsys, tmp_path, water_csv,
                                               field, value, named, surface):
        forcing = {"kind": "exogenous", "times": list(range(1, 15)),
                   "values": [[float(k)] for k in range(14)], field: value}
        path, out = tmp_path / "model.json", tmp_path / "fitted.json"
        if surface == "config":
            path.write_text(json.dumps({"model": "grey", "forcing": forcing}))
            argv = ("fit", "--input", str(water_csv), "--output", str(out))
        else:
            header = {**TestForecast.VALID["matching"], "forcing": forcing}
            path.write_text(json.dumps(header))
            argv = ("forecast", "--input", str(water_csv))
        code, stdout, stderr = run_cli(capsys, *argv, "--model", str(path))
        assert code == cli.EXIT_USAGE
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert named in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("forcing, named", [
        ({"kind": "polynomial", "degree": 2.5}, "'degree'"),
        ({"kind": "polynomial", "degree": "2"}, "'degree'"),
        ({"kind": "polynomial", "degree": True}, "'degree'"),
        ({"kind": "fourier", "pairs": 1.5, "frequency": 0.2}, "'pairs'"),
        ({"kind": "fourier", "pairs": "1", "frequency": 0.2}, "'pairs'"),
        ({"kind": "fourier", "pairs": 1, "frequency": True}, "'frequency'"),
    ], ids=["degree-float", "degree-string", "degree-bool", "pairs-float",
            "pairs-string", "frequency-bool"])
    def test_forcing_count_must_be_an_integer(self, capsys, tmp_path, water_csv,
                                              forcing, named):
        path = tmp_path / "config.json"
        out = tmp_path / "fitted.json"
        path.write_text(json.dumps({"model": "grey", "forcing": forcing}))
        code, _, stderr = run_cli(capsys, "fit", "--input", str(water_csv),
                                  "--model", str(path), "--output", str(out))
        assert code == cli.EXIT_USAGE
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert named in error["message"]
        assert not out.exists()


class TestForecast:
    def test_floating_point_overflow_is_a_numerical_error(self, capsys, tmp_path,
                                                           water_csv):
        # the antiderivative cos(w t) / w of a 5e-324 frequency overflows
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"forcing": {"kind": "fourier", "pairs": 1, "frequency": 5e-324}}))
        code, stdout, stderr = run_cli(capsys, "fit", "--input", str(water_csv),
                                       "--model", str(config))
        assert code == cli.EXIT_NUMERICAL
        assert stdout == ""
        assert json.loads(stderr)["error"] == "FloatingPointError"

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

    def test_negative_horizon_is_a_usage_error(self, capsys, tmp_path, water_csv,
                                               matching_config):
        fitted = tmp_path / "fitted.json"
        run_cli(capsys, "fit", "--input", str(water_csv), "--model",
                str(matching_config), "--output", str(fitted), "--split", "12")
        out = tmp_path / "forecast.csv"
        code, stdout, stderr = run_cli(capsys, "forecast", "--model", str(fitted),
                                       "--input", str(water_csv), "--horizon", "-3",
                                       "--output", str(out))
        assert code == cli.EXIT_USAGE
        assert json.loads(stderr)["error"] == "ValueError"
        assert not out.exists() and not stdout

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
        ("grey", {"eta": ["2.5"]}, "eta"),
        ("grey", {"eta": [True]}, "eta"),
        ("matching", {"A": [["0.1"]]}, "A"),
        ("matching", {"t1": False}, "t1"),
        ("matching", {"d": 7}, "d"),
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

    # A None value deletes the key.
    @pytest.mark.parametrize("change, named", [
        ({"strategy": "bogus"}, "strategy"),
        ({"strategy": 5}, "strategy"),
        ({"lambda": "0.5"}, "'lambda'"),
        ({"lambda": True}, "'lambda'"),
        ({"lambda": 1.5}, "background_lambda"),
        ({"model": None}, "'model'"),
    ], ids=["strategy-unknown", "strategy-int", "lambda-string", "lambda-bool",
            "lambda-outside", "model-missing"])
    def test_wrong_header_is_a_usage_error_as_in_fit(self, capsys, tmp_path,
                                                     water_csv, change, named):
        payload = {**self.VALID["grey"], **change}
        fitted = tmp_path / "fitted.json"
        fitted.write_text(json.dumps({k: v for k, v in payload.items()
                                      if v is not None}))
        code, stdout, stderr = run_cli(capsys, "forecast", "--model", str(fitted),
                                       "--input", str(water_csv))
        assert code == cli.EXIT_USAGE
        assert stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "ValueError"
        assert named in err["message"]

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

    def test_span_that_overflows_the_generator_is_a_numerical_error(self, capsys,
                                                                    tmp_path):
        # |A|_1 times the span is 1e307, but the constant's column of the
        # response generator sums to 2, and 2e308 overflows
        fitted = tmp_path / "matching.json"
        fitted.write_text(json.dumps({
            "model": "matching", "d": 2, "forcing": {"kind": "zero"},
            "A": [[0.1, 0.0], [0.0, 0.1]], "B": [[], []], "c": [1.0, 1.0],
            "eta": [1.0, 1.0], "t1": 0.0,
        }))
        data = tmp_path / "far.csv"
        data.write_text("t,x1,x2\n0,1,1\n1e308,1,1\n")
        code, stdout, stderr = run_cli(capsys, "forecast", "--model", str(fitted),
                                       "--input", str(data))
        assert code == cli.EXIT_NUMERICAL
        assert stdout == ""
        assert json.loads(stderr) == {
            "error": "OverflowGuardError",
            "message": "the time response overflows double precision"}

    def test_overflow_guard_is_a_numerical_error(self, capsys, tmp_path):
        fitted = tmp_path / "explosive.json"
        fitted.write_text(json.dumps({
            "model": "grey", "d": 1, "forcing": {"kind": "zero"},
            "A": [[30.0]], "B": [[]], "c": [0.0], "eta": [1.0],
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


@pytest.mark.parametrize("name", repro.WATER_MODELS)
def test_water_ladder_config_fits_as_the_reproduction(capsys, tmp_path, name):
    # each ladder entry, written as a config file, through fit and forecast
    model, predictions = repro.fit_water_model(name)
    files = {key: tmp_path / key for key in ("train.csv", "config.json",
                                             "fitted.json", "forecast.csv")}
    gm.write_csv(files["train.csv"], repro.water_series())
    files["config.json"].write_text(json.dumps(repro.WATER_CONFIGS[name]))
    assert run_cli(capsys, "fit", "--input", str(files["train.csv"]), "--model",
                   str(files["config.json"]), "--split", "12",
                   "--output", str(files["fitted.json"]))[0] == cli.EXIT_OK
    assert json.loads(files["fitted.json"].read_text()) == gm.model_to_dict(model)
    assert run_cli(capsys, "forecast", "--model", str(files["fitted.json"]),
                   "--input", str(files["train.csv"]), "--horizon", "5",
                   "--output", str(files["forecast.csv"]))[0] == cli.EXIT_OK
    got = gm.read_csv(files["forecast.csv"])
    assert np.array_equal(got.values, predictions.values)


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

    def test_noise_level_that_overflows_is_a_numerical_error(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "A": [[-0.25, 0.70], [0.75, -0.25]],
            "initial_state": [1.20, 1e300],
            "snr": 5.0, "replications": 3,
        }))
        code, _, stderr = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                  "--output", str(tmp_path / "out"))
        assert code == cli.EXIT_NUMERICAL
        assert json.loads(stderr)["error"] == "OverflowGuardError"

    def test_committed_scenario_runs(self, capsys, tmp_path):
        scenario = Path(__file__).parent / "data" / "scenario.json"
        code, _, _ = run_cli(capsys, "simulate", "--scenario", str(scenario),
                             "--reps", "3", "--output", str(tmp_path))
        assert code == cli.EXIT_OK
        assert json.loads((tmp_path / "summary.json").read_text())["completed"] == 3

    def test_file_value_an_option_overrides_is_still_checked(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "A": [[-0.25, 0.70], [0.75, -0.25]],
            "initial_state": [1.20, 0.35],
            "snr": 5.0, "replications": 0, "seed": 4,
        }))
        out = tmp_path / "out"
        code, _, stderr = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                  "--reps", "2", "--output", str(out))
        assert code == cli.EXIT_USAGE
        assert "'replications'" in json.loads(stderr)["message"]
        assert not out.exists()

    def test_negative_seed_refused_before_any_work(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "A": [[-0.25, 0.70], [0.75, -0.25]],
            "initial_state": [1.20, 0.35],
            "snr": 5.0, "replications": 4, "seed": 4,
        }))
        out = tmp_path / "out"
        code, _, stderr = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                  "--seed", "-1", "--output", str(out))
        assert code == cli.EXIT_USAGE
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert "seed" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("include_constant", "false"),
        ("include_constant", 0),
        ("replications", 2.5),
        ("replications", True),
        ("seed", "4"),
        ("horizon", 10.5),
        ("snr", True),
        ("snr", "5.0"),
        ("step", "0.25"),
        ("noise_exponent", False),
        ("noise_scale", "1.1"),
        ("t_span", [0.0]),
        ("t_span", "0, 5"),
        ("t_span", [0.0, "5.0"]),
        ("A", [["-0.25", True], [0.75, -0.25]]),
        ("initial_state", ["1.2", 0.35]),
        ("B", [[True]]),
        ("constant", ["0.5", 0.5]),
        ("step", 0),
        ("step", -0.25),
        ("t_span", [5.0, 0.0]),
        ("t_span", [0.0, float("inf")]),
        ("snr", float("nan")),
        ("snr", float("inf")),
        ("noise_exponent", float("nan")),
        ("noise_scale", -1.1),
        ("noise_scale", float("inf")),
        ("horizon", -1),
    ])
    def test_wrongly_typed_scenario_is_a_usage_error(self, capsys, tmp_path,
                                                     field, value):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "A": [[-0.25, 0.70], [0.75, -0.25]],
            "initial_state": [1.20, 0.35],
            "snr": 5.0, "replications": 4, "seed": 4, field: value,
        }))
        out = tmp_path / "out"
        code, _, stderr = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                  "--output", str(out))
        assert code == cli.EXIT_USAGE
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert repr(field) in error["message"]
        assert not (out / "summary.json").exists()


    @pytest.mark.parametrize("fields, name", [
        ({"B": [[1.0]], "forcing": {"kind": "polynomial", "degree": 1}}, "b_matrix"),
        ({"B": [[1.0]]}, "b_matrix"),
        ({"constant": [1.0]}, "constant"),
        ({"A": -0.25, "initial_state": 1.2}, "a_matrix"),
        ({"initial_state": [1.2]}, "initial_state"),
    ])
    def test_misshapen_scenario_is_a_usage_error(self, capsys, tmp_path, fields, name):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "A": [[-0.25, 0.70], [0.75, -0.25]],
            "initial_state": [1.20, 0.35],
            "snr": 5.0, "replications": 4, "seed": 4, **fields,
        }))
        out = tmp_path / "out"
        code, _, stderr = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                  "--output", str(out))
        assert code == cli.EXIT_USAGE
        error = json.loads(stderr)
        assert error["error"] == "ValueError"
        assert name in error["message"]
        assert not (out / "summary.json").exists()

    def test_absent_fields_take_the_library_defaults(self, capsys, tmp_path):
        a, state = [[-0.25, 0.70], [0.75, -0.25]], [1.20, 0.35]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"A": a, "initial_state": state, "snr": 5.0}))
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "simulate", "--scenario", str(scenario),
                             "--reps", "3", "--output", str(out))
        assert code == cli.EXIT_OK
        library = gm.run_monte_carlo(gm.SimulationScenario(
            a_matrix=a, initial_state=state, snr=5.0, replications=3, seed=0))
        assert (out / "summary.json").read_text() == json.dumps(
            simulate.summary_to_dict(library), indent=2) + "\n"


class TestVerify:
    def test_translation(self, capsys, water_csv):
        code, stdout, _ = run_cli(capsys, "verify", "--check", "translation",
                                  "--input", str(water_csv), "--shift", "4.0")
        assert code == 0
        report = json.loads(stdout)
        assert report["passed"]

    def test_translation_checks_the_config_strategy(self, capsys, tmp_path,
                                                    water_csv):
        # reduced_consistent maps the initial value through (I - A)^{-1}, so
        # the restored values move and the check fails, as in the library
        config = tmp_path / "grey.json"
        config.write_text(json.dumps({"model": "grey",
                                      "strategy": "reduced_consistent",
                                      "lambda": 0.5}))
        code, stdout, _ = run_cli(capsys, "verify", "--check", "translation",
                                  "--input", str(water_csv), "--model", str(config))
        assert code == cli.EXIT_TOLERANCE
        report = json.loads(stdout)
        library = gm.check_translation_invariance(
            gm.read_csv(water_csv), gm.ZeroForcing(), strategy="reduced_consistent",
            shift=np.full(1, 5.0), background_lambda=0.5)
        assert not report["passed"] and not library.passed
        assert report["details"] == library.details
        assert report["max_abs_discrepancy"] == library.max_abs_discrepancy

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

    def test_translation_reports_the_tolerance_each_detail_failed(self, capsys,
                                                                  water_csv):
        # --tolerance sets the parameter tolerance only: the restored values
        # are still judged by the default value tolerance
        code, stdout, _ = run_cli(capsys, "verify", "--check", "translation",
                                  "--input", str(water_csv), "--tolerance", "0")
        assert code == cli.EXIT_TOLERANCE
        report = json.loads(stdout)
        assert report["tolerances"] == {"A": 0.0, "B": 0.0, "c_shifted_by_A_shift": 0.0,
                                        "restored_from_second_point": 1e-8}
        assert report["details"]["c_shifted_by_A_shift"] > 0.0
        assert report["failures"]["c_shifted_by_A_shift"] == 0.0
        assert report["failures"] == {
            key: report["tolerances"][key] for key, value in report["details"].items()
            if value > report["tolerances"][key]}
        # the key older readers take stays: the largest tolerance
        assert report["tolerance"] == 1e-8 and not report["passed"]

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


@pytest.mark.parametrize("argv, code", [
    (("fit", "--input", "data.csv"), cli.EXIT_USAGE),
    (("reproduce", "--case", "weather"), cli.EXIT_USAGE),
    (("--help",), cli.EXIT_OK),
    (("simulate", "--help"), cli.EXIT_OK),
], ids=["missing option", "bad choice", "help", "command help"])
def test_argument_parsing_exits(capsys, argv, code):
    assert run_cli(capsys, *argv)[0] == code


def test_missing_input_file_is_a_usage_error(capsys, tmp_path, matching_config):
    code, stdout, stderr = run_cli(capsys, "fit", "--input", str(tmp_path / "absent.csv"),
                                   "--model", str(matching_config))
    assert code == cli.EXIT_USAGE
    assert stdout == ""
    err = json.loads(stderr)
    assert err["error"] == "file_not_found" and "absent.csv" in err["message"]


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: a fresh process that imports the
    # command line must not load any part of it
    source = str(Path(gm.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, greymatch.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": source})
    assert done.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("case, extra", [
        ("water", ()),
        ("simulation-table4", ("--reps", "200")),
        ("simulation-fig5", ("--reps", "200")),
    ])
    def test_verbose_report_is_unchanged(self, capsys, case, extra):
        # the reports pinned byte for byte: a change that moves any printed
        # cell shows here, and has to regenerate the file on purpose
        pinned = Path(__file__).parent / "data" / f"reproduce_{case}.txt"
        code, stdout, _ = run_cli(capsys, "reproduce", "--case", case,
                                  "--verbose", *extra)
        assert code == cli.EXIT_OK
        assert stdout == pinned.read_text()


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
