"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error,
4 reproduction or verification tolerance failure.  Errors are emitted as a
JSON object on stderr so callers can parse them.
"""

import argparse
import csv as _csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import basis as _basis
from . import grey as _grey
from . import matching as _matching
from . import repro as _repro
from . import series as _series
from . import simulate as _simulate
from . import theory as _theory
from .errors import DataError, GreymatchError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_TOLERANCE = 4


def _fail(code, kind, message):
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _load_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")
    return payload


def _given(**options):
    """The options that were given, even a falsy 0, as keyword arguments:
    the called function keeps its own default for the rest."""
    return {key: value for key, value in options.items() if value is not None}


def _split_index(args, n):
    if args.split is not None and args.train_fraction is not None:
        raise ValueError("give either --split or --train-fraction, not both")
    if args.train_fraction is not None:
        split = int(round(args.train_fraction * n))
    elif args.split is not None:
        split = args.split
    else:
        split = n
    if not 1 <= split <= n:
        raise ValueError(f"split index {split} outside [1, {n}]")
    return split


def cmd_fit(args):
    config = _load_json(args.model)
    data = _series.read_csv(args.input)
    split = _split_index(args, data.n)
    model = _matching.fit_config(data.head(split), config)
    payload = _grey.model_to_dict(model)
    predictions = _grey.predict_on_grid(model, data.grid)
    report = _series.mape(data, predictions, split)
    summary = {
        "model_file": args.output,
        "n": data.n,
        "split_index": split,
        "mape_in": report.mape_in.tolist(),
        "mape_out": [None if np.isnan(v) else v for v in report.mape_out.tolist()],
        "residual_norm": payload["residual_norm"],
    }
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_forecast(args):
    model = _grey.model_from_dict(_load_json(args.model))
    data = _series.read_csv(args.input)
    if data.d != model.d:
        raise DataError(
            f"model has {model.d} components but data has {data.d}"
        )
    grid = data.grid.extended(args.horizon)
    predictions = _grey.predict_on_grid(model, grid)
    names = [f"x{i + 1}_hat" for i in range(predictions.d)]
    _series.write_csv(args.output or sys.stdout, predictions, names)
    return EXIT_OK


def cmd_simulate(args):
    scenario = _simulate.scenario_from_config(_load_json(args.scenario))
    scenario = replace(scenario, **_given(replications=args.reps, seed=args.seed))
    summary = _simulate.run_monte_carlo(scenario)
    out_dir = Path(args.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_simulate.summary_to_dict(summary), fh, indent=2)
        fh.write("\n")
    rows = _simulate.tidy_rows(summary)
    with open(out_dir / "replications.csv", "w", newline="") as fh:
        writer = _csv.DictWriter(
            fh, fieldnames=["replication", "estimator", "metric", "component", "value"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out_dir / 'summary.json'} and {out_dir / 'replications.csv'}")
    return EXIT_OK


def cmd_verify(args):
    if args.check == "translation":
        data = _series.read_csv(args.input)
        # the check fits the grey pipeline with the config's forcing,
        # strategy and lambda, whatever pipeline the config names
        config = _load_json(args.model) if args.model else {}
        _, spec, options = _grey.read_config({**config, "model": "grey"})
        shift = np.full(data.d, args.shift)
        report = _theory.check_translation_invariance(
            data, spec, shift=shift, **options,
            **_given(tol_params=args.tolerance, tol_values=args.value_tolerance))
    elif args.check == "proposition1":
        data = _series.read_csv(args.input)
        report = _theory.check_proposition_equal_spacing(
            data, **_given(tolerance=args.tolerance))
    elif args.check == "reduction":
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
        a = -0.2 - 0.3 * rng.random()
        spec = _basis.PolynomialForcing(2)
        grid = _series.TimeGrid(np.linspace(0.0, 4.0, 21))
        report = _theory.check_reduction_roundtrip(
            np.array([[a]]), rng.normal(size=(1, 2)), rng.normal(size=1),
            rng.normal(size=1), spec, grid, **_given(tolerance=args.tolerance))
    else:
        raise ValueError(f"unknown check {args.check!r}")
    json.dump(asdict(report), sys.stdout, indent=2, default=float)
    sys.stdout.write("\n")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def _print_report(report, verbose):
    print(f"case: {report.case}")
    failures = report.failures
    for note in report.notes:
        print(f"note: {note}")
    shown = report.rows if verbose else failures
    for row in shown:
        if not row["checked"]:
            status = "info"
        else:
            status = "ok" if row["passed"] else "FAIL"
        print(f"  [{status}] {row['model']:12s} {row['item']:22s} "
              f"computed {row['computed']:12.4f}  reference {row['reference']:12.4f}  "
              f"diff {row['diff']:.2e} (tol {row['tolerance']:.2e})")
    checked = [r for r in report.rows if r["checked"]]
    print(f"{len(checked) - len(failures)}/{len(checked)} checked cells within "
          f"tolerance ({len(report.rows) - len(checked)} informational)")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_reproduce(args):
    if args.case == "water":
        report = _repro.reproduce_water(**_given(tolerance_value=args.tolerance))
        code = _print_report(report, args.verbose)
        print("\ncontext: reference scores of generic baselines on this split "
              "(not computed here):")
        for name, ref in _repro.BASELINE_CONTEXT.items():
            print(f"  {name}: mape_in {ref['mape_in']:.2f}  mape_out {ref['mape_out']:.2f}")
        return code
    sample = _given(reps=args.reps, seed=args.seed)
    if args.case == "simulation-table4":
        return _print_report(_repro.reproduce_parameter_table(**sample), args.verbose)
    if args.case == "simulation-fig5":
        return _print_report(_repro.reproduce_error_medians(**sample), args.verbose)
    raise ValueError(f"unknown case {args.case!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="greymatch",
        description="Small-sample forecasting with cusum-side (grey) and "
                    "integral-matching pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model config to CSV data")
    fit.add_argument("--input", required=True)
    fit.add_argument("--model", required=True, help="model config JSON")
    fit.add_argument("--output", help="where to write the fitted-model JSON")
    fit.add_argument("--split", type=int, help="in-sample point count")
    fit.add_argument("--train-fraction", type=float)
    fit.set_defaults(func=cmd_fit)

    fc = sub.add_parser("forecast", help="evaluate a fitted model")
    fc.add_argument("--model", required=True, help="fitted-model JSON")
    fc.add_argument("--input", required=True, help="CSV supplying the time grid")
    fc.add_argument("--horizon", type=int, default=0)
    fc.add_argument("--output", help="forecast CSV path (stdout if omitted)")
    fc.set_defaults(func=cmd_forecast)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("--scenario", required=True, help="scenario JSON")
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--output", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run a structural identity check")
    ver.add_argument("--check", required=True,
                     choices=["translation", "proposition1", "reduction"])
    ver.add_argument("--input", help="CSV data (translation/proposition1)")
    ver.add_argument("--model", help="model config JSON (translation): its "
                     "forcing, strategy and lambda")
    ver.add_argument("--shift", type=float, default=5.0)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--tolerance", type=float,
                     help="parameter-identity tolerance (defaults per check)")
    ver.add_argument("--value-tolerance", type=float,
                     help="restored-value tolerance (translation check)")
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser("reproduce", help="rebuild a shipped benchmark")
    rep.add_argument("--case", required=True,
                     choices=["water", "simulation-table4", "simulation-fig5"])
    rep.add_argument("--reps", type=int)
    rep.add_argument("--seed", type=int)
    rep.add_argument("--tolerance", type=float,
                     help="override the value tolerance of the water diff")
    rep.add_argument("--verbose", action="store_true",
                     help="print every cell, not only failures")
    rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # an overflow or invalid operation is a numerical error, not a NaN
        with np.errstate(all="raise", under="ignore"):
            return args.func(args)
    except FileNotFoundError as exc:
        return _fail(EXIT_USAGE, "file_not_found", str(exc))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(EXIT_USAGE, type(exc).__name__, str(exc))
    except DataError as exc:
        return _fail(EXIT_DATA, type(exc).__name__, str(exc))
    except (NumericalError, ArithmeticError) as exc:
        return _fail(EXIT_NUMERICAL, type(exc).__name__, str(exc))
    except GreymatchError as exc:
        return _fail(EXIT_DATA, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
