"""Run one workload of the greymatch benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: greymatch is imported from ./src.
Every workload runs in processes of its own, one at a time, with BLAS and
OpenMP pinned to one thread.

--trace 0 starts the workload SETUP_SAMPLES times.  All but the last stop
at their first timed operation; the last runs whole cycles of the
workload's operations for S seconds and checks the outputs.  It reports
the end-to-end metrics:

    setup_s      median time from process start to the first timed operation
    op_ms_p50    median wall time of one completed operation
    ops_per_s    completed operations per second of timed wall time
    peak_rss_mb  peak resident memory of the process running greymatch

--trace 1 runs the workload once with greymatch functions wrapped in spans
and reports the per-layer metrics, per attempted operation, plus the
import probe of `greymatch.cli`.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs the four workloads
in turn and prints one such block each.  The exit code is 0 when every
result was printed, and 2 when a workload could not run (no
./src/greymatch, or a process that crashed or ran out of time).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
WORKLOADS = ("mc_study", "forced_forecast", "small_fits", "cli_roundtrip")
SETUP_SAMPLES = 3
IMPORT_PROBES = 3
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB"}
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(Exception):
    """The workload could not be run to a result."""


def _environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE_DIR)
    env.pop("PYTHONSTARTUP", None)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def _run_child(args, env, deadline, probe):
    command = [sys.executable, str(BENCH_DIR / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        command.append("--probe")
    started = time.monotonic()
    command += ["--started", repr(started)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{args.workload} ran past the time limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{args.workload} process exited {done.returncode}")
    return json.loads(lines[-1])


def _end_to_end(args, env, deadline):
    setups = [_run_child(args, env, deadline, probe=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = _run_child(args, env, deadline, probe=False)
    setups.append(run["setup_s"])
    values = {"setup_s": statistics.median(setups), "op_ms_p50": run["op_ms_p50"],
              "ops_per_s": run["ops_per_s"], "peak_rss_mb": run["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return run, metrics


def _per_layer(args, env, deadline):
    from tracer import IMPORT_METRICS, import_probe, per_layer_units

    probes = [import_probe(env) for _ in range(IMPORT_PROBES)]
    run = _run_child(args, env, deadline, probe=False)
    values = dict(run["per_layer"])
    for name in IMPORT_METRICS:
        values[name] = statistics.median(p[name] for p in probes)
    if run["absent"]:
        print(f"absent hooks (reported as 0): {', '.join(run['absent'])}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_units().items()}
    return run, metrics


def _report(args, env):
    """Run one workload and print its result; False when it could not run."""
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            run, metrics = _per_layer(args, env, deadline)
        else:
            run, metrics = _end_to_end(args, env, deadline)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return False
    for error in run["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"{args.workload}: {run['cycles']} cycles, {run['attempted']} operations "
          f"attempted, {run['failed']} failed, {run['ops_per_s']:.4g} completed per "
          f"second over {run['wall_s']:.1f} s")
    for label, ms in run["op_ms"].items():
        print(f"  {label:32s} {ms:10.3f} ms median")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": not run["errors"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SOURCE_DIR / "greymatch" / "__init__.py").is_file():
        print(f"no greymatch sources under {SOURCE_DIR}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2

    env = _environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ran = [_report(argparse.Namespace(**{**vars(args), "workload": name}), env)
           for name in names]
    return 0 if all(ran) else 2


if __name__ == "__main__":
    sys.exit(main())
