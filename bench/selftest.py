"""Self-test of the greymatch benchmark.

    python3 bench/selftest.py

Run it from the root of a checkout.  It checks two things:

1. A one-second run of every workload, untraced and traced, passes its
   output checks and prints every metric BENCHMARK.json names.
2. Every checker accepts a true output and rejects one perturbed on
   purpose.

Exit code 0 when both hold; the failures are listed otherwise.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from greymatch.errors import OverflowGuardError  # noqa: E402

SEED = 7


def short_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=180)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{where}: exit {done.returncode}: {done.stderr[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                failures.append(f"{where}: checks failed: {done.stderr[-300:]}")
            if sorted(result["metrics"]) != sorted(names[trace]):
                failures.append(f"{where}: metrics differ from BENCHMARK.json")
            kept = 1 if workload == "small_fits" else 0
            ops = len(workloads.build(workload, SEED, traced=True).ops)
            if result["failed"] * ops != kept * result["attempted"]:
                failures.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            print(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    return failures


def _shifted(series, delta):
    values = series.values.copy()
    values[-1, 0] += delta * max(1.0, abs(values[-1, 0]))
    return dataclasses.replace(series, values=values)


def _model_with(model, **arrays):
    return dataclasses.replace(model, **{k: v.copy() for k, v in arrays.items()})


def _forecast_cases(op, out):
    """The operation's own check on its output, on the output with its
    last forecast value moved, and with the fitted A moved."""
    model, predictions = out
    a = model.A.copy()
    a[0, 0] += 1e-6
    return [
        (f"{op.label}: true output", op.check(out), False),
        (f"{op.label}: forecast off by 1e-5", op.check((model, _shifted(predictions, 1e-5))),
         True),
        (f"{op.label}: A off by 1e-6", op.check((_model_with(model, A=a), predictions)), True),
    ]


def perturbations():
    """(case, errors, should_fail) for every checker."""
    cases = []
    mc = workloads.build("mc_study", SEED)
    summary = mc.ops[0].run()         # an snr=5 cell
    per = summary.per_replication

    def with_rows(**rows):
        return dataclasses.replace(summary, per_replication={**per, **rows})

    gap = per["matching_A"].copy()
    gap[3, 1] += 1e-8
    biased = per["matching_A"] + 0.1
    leading = with_rows(**{key: rows[:5] for key, rows in per.items()})
    cases += [
        ("mc true output", mc.ops[0].check(summary), False),
        ("mc true leading rows", checks.leading_rows(summary, leading, 5), False),
        ("mc gap 1e-8", checks.monte_carlo(with_rows(matching_A=gap), workloads.MC_REPS,
                                           np.array(workloads.repro.SIM_A), True), True),
        ("mc mean off by 0.1", checks.monte_carlo(
            with_rows(matching_A=biased, grey_A=biased), workloads.MC_REPS,
            np.array(workloads.repro.SIM_A), True), True),
        ("mc leading row moved", checks.leading_rows(with_rows(matching_A=gap), leading, 5),
         True),
    ]

    forced = workloads.build("forced_forecast", SEED)
    for op in forced.ops:
        cases += _forecast_cases(op, op.run())

    small = workloads.build("small_fits", SEED)
    for op in small.ops:
        if op.expect is not None:
            try:
                op.run()
                cases.append((op.label, ["kept failure did not fail"], False))
            except OverflowGuardError:
                cases.append((f"{op.label}: refused as kept", [], False))
            continue
        out = op.run()
        if op.label.startswith("water"):
            values = out[1].values[:, 0].copy()
            values[-1] += 0.02
            name = op.label.split(" ", 1)[1]
            cases += [(f"{op.label}: true output", op.check(out), False),
                      (f"{op.label}: value off by 0.02", checks.water_table(
                          values, workloads.repro.REFERENCE_TABLE[name],
                          workloads.repro.WATER_VALUES, workloads.repro.WATER_SPLIT), True)]
            continue
        cases += _forecast_cases(op, out)
        if op.label.startswith("grey"):
            # The initial-value checker on its own, on a moved eta.
            _, label, strategy = op.label.split()
            raw, u_of = _small_inputs(label)
            model = out[0]
            cases.append((f"{op.label}: eta off by 1e-6", checks.initial_value(
                _model_with(model, eta=model.eta + 1e-6), raw, u_of, strategy),
                strategy != "reduced_half_step"))

    cli = workloads.build("cli_roundtrip", SEED, traced=True)
    for op in cli.ops:
        summary_text, forecast_text = op.run()
        lines = forecast_text.splitlines()
        t, value = lines[-1].split(",")
        lines[-1] = f"{t},{float(value) + 0.02!r}"
        name = op.label.split(" ", 1)[1]
        cases += [(f"{op.label}: true output", op.check((summary_text, forecast_text)), False),
                  (f"{op.label}: forecast off by 0.02", checks.cli_outputs(
                      (summary_text, "\n".join(lines)), workloads.repro.REFERENCE_TABLE[name],
                      workloads.repro.WATER_VALUES, workloads.CLI_SPLIT,
                      workloads.CLI_HORIZON), True)]
    return cases


def _small_inputs(label):
    """The grey inputs of small_fits, rebuilt as small_fits builds them."""
    if label == "water":
        return workloads.repro.water_series(), workloads.polynomial_values(2)
    t, x = workloads._linear_forced_series(workloads._rng(SEED, 3), 101, 0.05)
    return workloads.series.make_series(t, x), workloads.polynomial_values(2)


def main():
    failures = []
    cases = perturbations()
    for case, errors, should_fail in cases:
        if bool(errors) != should_fail:
            failures.append(f"{case}: expected {'rejection' if should_fail else 'pass'}, "
                            f"got {errors}")
    rejected = sum(should_fail for _, _, should_fail in cases)
    print(f"{len(cases)} checker cases, {rejected} of them perturbed; "
          f"{len(failures)} judged wrongly")
    failures += short_runs()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
