"""Seeded fuzzing of the command line.

A fixed-seed random.Random rewrites fields of a valid scenario file, fit
config, fitted-model file and data CSV with hostile values, and runs
`simulate`, `fit` and `forecast` through cli.main in-process.  Whatever
the input, no exception may escape main, the exit code must be one of
cli.EXIT_*, and a command that exits 0 must write only finite numbers.
"""

import copy
import csv
import json
import math
import random

import pytest

import greymatch as gm
from greymatch import cli, repro

SEED = 20210
CASES = 200
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERICAL,
              cli.EXIT_TOLERANCE}

HOSTILE = (
    True, False, None, "", "1.5", [], [[]], [[1.0], [1.0, 2.0]], {}, 0, -3,
    2 ** 70, -(2 ** 70), 1e308, -1e308, 5e-324, 1e-320, 1e9, 0.5,
    {"kind": "polynomial", "degree": -2},
    {"kind": "polynomial", "degree": 2 ** 70},
    {"kind": "fourier", "pairs": 1, "frequency": 1e308},
    {"kind": "fourier", "pairs": 2, "frequency": 1e9},
    {"kind": "mixed", "parts": []},
    {"kind": "exogenous", "times": [0.0, 1.0], "values": [1.0, 2.0]},
)
HOSTILE_CELLS = ("nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e400",
                 "", "abc", "True", "0", "-1")

SYSTEM = {"A": [[-0.25, 0.70], [0.75, -0.25]], "initial_state": [1.20, 0.35]}
SCENARIOS = (
    {**SYSTEM, "snr": 5.0},
    {**SYSTEM, "snr": 2.5, "t_span": [0.0, 2.0], "step": 0.25, "horizon": 3,
     "noise_exponent": 0.5, "noise_scale": 1.0, "include_constant": True},
    {**SYSTEM, "snr": 5, "forcing": {"kind": "polynomial", "degree": 1},
     "B": [[0.1], [0.05]], "constant": [0.2, 0.1]},
    {"A": [[-0.3]], "initial_state": [2.0], "snr": 10.0, "step": 0.5,
     "forcing": {"kind": "fourier", "pairs": 1, "frequency": 0.2},
     "B": [[0.5, 0.2]]},
)
WATER_TIMES = list(range(1, len(repro.WATER_VALUES) + 1))
CONFIGS = (
    *repro.WATER_CONFIGS.values(),
    {"model": "grey", "forcing": {"kind": "fourier", "pairs": 1, "frequency": 0.1},
     "strategy": "least_squares", "lambda": 0.4},
    {"model": "matching", "forcing": {"kind": "exogenous", "times": WATER_TIMES,
                                      "values": [0.1 * t for t in WATER_TIMES]}},
)
WATER_ROWS = [["t", "x1"]] + [[str(t), repr(v)]
                              for t, v in zip(WATER_TIMES, repro.WATER_VALUES)]


def _mutated(rng, value):
    """value with one part replaced by a hostile value: a field of an
    object, an entry of a list, or the whole."""
    if isinstance(value, dict) and value and rng.random() < 0.8:
        key = rng.choice(sorted(value))
        return {**value, key: _mutated(rng, value[key])}
    if isinstance(value, list) and value and rng.random() < 0.7:
        i = rng.randrange(len(value))
        return value[:i] + [_mutated(rng, value[i])] + value[i + 1:]
    return copy.deepcopy(rng.choice(HOSTILE))


def _hostile(rng, payload):
    for _ in range(rng.randint(1, 3)):
        payload = _mutated(rng, payload)
    return payload


def _hostile_rows(rng):
    rows = [list(row) for row in WATER_ROWS]
    for _ in range(rng.randint(1, 2)):
        row = rows[rng.randrange(len(rows))]
        change = rng.random()
        if change < 0.6:
            row[rng.randrange(len(row))] = rng.choice(HOSTILE_CELLS)
        elif change < 0.8:
            row.pop()
        else:
            rows.insert(rng.randrange(1, len(rows) + 1), list(row))
    return rows


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _refuse_constant(name):
    raise AssertionError(f"exit 0 wrote {name}")


def _check_json(text):
    json.loads(text, parse_constant=_refuse_constant)


def _check_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        for cell in row:
            # a number, not a label such as grey or step2
            if cell and cell[0] in "-.0123456789ni":
                assert math.isfinite(float(cell)), f"exit 0 wrote {cell}"


def _simulate(rng, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_hostile(rng, rng.choice(SCENARIOS))))
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", str(scenario), "--reps", "2", "--output", str(out)]

    def check():
        _check_json((out / "summary.json").read_text())
        _check_csv(out / "replications.csv")
    return argv, check


def _fit(rng, tmp_path):
    data, config, model = (tmp_path / name for name in
                           ("data.csv", "config.json", "fitted.json"))
    rows = _hostile_rows(rng) if rng.random() < 0.4 else WATER_ROWS
    _write_rows(data, rows)
    config.write_text(json.dumps(_hostile(rng, rng.choice(CONFIGS))
                                 if rows is WATER_ROWS else rng.choice(CONFIGS)))
    argv = ["fit", "--input", str(data), "--model", str(config), "--output", str(model)]
    if rng.random() < 0.5:
        argv += ["--split", str(rng.choice([1, 2, 5, 12, 15, 16]))]
    return argv, lambda: _check_json(model.read_text())


def _forecast(rng, tmp_path):
    data, model, out = (tmp_path / name for name in ("data.csv", "fitted.json", "out.csv"))
    raw = gm.make_series(WATER_TIMES, repro.WATER_VALUES)
    payload = gm.model_to_dict(gm.fit_config(raw, rng.choice(CONFIGS)))
    rows = _hostile_rows(rng) if rng.random() < 0.3 else WATER_ROWS
    _write_rows(data, rows)
    model.write_text(json.dumps(_hostile(rng, payload) if rows is WATER_ROWS else payload))
    horizon = rng.choice([0, 1, 10, 100, 1000])
    argv = ["forecast", "--model", str(model), "--input", str(data),
            "--horizon", str(horizon), "--output", str(out)]
    return argv, lambda: _check_csv(out)


@pytest.mark.parametrize("command", [_simulate, _fit, _forecast],
                         ids=["simulate", "fit", "forecast"])
def test_hostile_input_ends_in_an_exit_code(capsys, tmp_path, command):
    rng = random.Random(f"{SEED}-{command.__name__}")
    for case in range(CASES):
        where = tmp_path / str(case)
        where.mkdir()
        argv, check = command(rng, where)
        try:
            code = cli.main(argv)
        except Exception as exc:
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc} escaped main "
                        f"for {argv}")
        stdout = capsys.readouterr().out
        assert code in EXIT_CODES, f"case {case}: exit {code} for {argv}"
        if code == cli.EXIT_OK:
            if command is _fit:
                _check_json(stdout)
            check()
