"""One process of the greymatch benchmark: set up one workload, time whole
cycles of its operations, then check their outputs.

Run by run.py, never by hand:

    python bench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --started MONOTONIC [--probe]

`--started` is the parent's monotonic clock just before it started this
process, so the reported set-up time covers interpreter start, imports,
input generation and warm-up.  With `--probe` the process stops at its
first timed operation.  The last line of stdout is one JSON object.
"""

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

from greymatch.errors import GreymatchError

import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"


def _parse():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args()


def timed_cycles(workload, seconds, tracer=None):
    """Run whole cycles of the operation list until `seconds` have passed.

    Returns per-operation wall times of completed operations, the first
    output of every operation, and the cycle, failure and check tallies.  Timing covers only
    the operation itself; comparing a repeat with the first output happens
    between operations.
    """
    times = {op.label: [] for op in workload.ops}
    first = {}
    errors = []
    attempted = failed = cycles = 0
    deadline = time.perf_counter() + seconds
    while True:
        for op in workload.ops:
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            start = time.perf_counter()
            try:
                output = op.run()
            except GreymatchError as exc:
                failed += 1
                if not isinstance(exc, op.expect or ()):
                    errors.append(f"{op.label}: unexpected {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            times[op.label].append(elapsed)
            if op.label not in first:
                first[op.label] = output
            elif not workloads.same_output(output, first[op.label]):
                errors.append(f"{op.label}: output changed between cycles")
        cycles += 1
        if time.perf_counter() >= deadline:
            break
    return times, first, errors, attempted, failed, cycles


def main():
    args = _parse()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.build(args.workload, args.seed, traced=bool(args.trace))
    workload.warm_up()
    if tracer is not None:
        tracer.reset()
    first_op = time.monotonic()
    setup_s = first_op - args.started
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return

    loop_start = time.perf_counter()
    times, first, errors, attempted, failed, cycles = timed_cycles(
        workload, args.seconds, tracer)
    wall_s = time.perf_counter() - loop_start
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        # Before the checks, whose reruns would add spans of their own.
        per_layer = tracer.per_layer(attempted)
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv")

    for op in workload.ops:
        if op.label in first:
            errors += [f"{op.label}: {e}" for e in op.check(first[op.label])]
    if workload.final_checks is not None:
        errors += workload.final_checks(first)

    completed = [t for samples in times.values() for t in samples]
    result = {
        "setup_s": setup_s,
        "op_ms_p50": 1e3 * statistics.median(completed),
        "ops_per_s": len(completed) / sum(completed),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "cycles": cycles,
        "wall_s": wall_s,
        "errors": errors,
        "op_ms": {label: 1e3 * statistics.median(s) for label, s in times.items() if s},
    }
    if tracer is not None:
        result["per_layer"] = per_layer
        result["absent"] = tracer.absent
    print(json.dumps(result, default=float))


if __name__ == "__main__":
    main()
