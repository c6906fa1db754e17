"""Per-layer tracing for the greymatch benchmark.

The tracer wraps greymatch functions from outside: it replaces a module
attribute, and every other binding of the same function object in the
package (``from .grey import linear_response`` in matching, for example),
so calls made inside the package are caught too.  A class is traced
through its ``__init__``.  Each call records a span (id, parent span,
operation index, name, start, end, error type); spans stay in memory and
are written out when the run ends.

A layer's self time is its span's duration minus the time covered by its
direct child spans.  A hooked name the program no longer has is reported
as absent and does not stop the run.

The import probe runs ``python -X importtime`` on ``import greymatch.cli``
in a fresh process.
"""

import csv
import functools
import importlib
import subprocess
import sys
import time
from array import array

import numpy as np

HOOKS = (
    ("series", ("cusum", "inverse_cusum", "integrate_piecewise_linear", "mape",
                "read_csv", "write_csv", "VectorSeries")),
    ("basis", ("evaluate_forcing", "forcing_polynomial_coefficients", "forcing_callable")),
    ("numerics", ("solve_least_squares", "matrix_exponential", "polynomial_response",
                  "quadrature_response", "convolution_integral", "expm")),
    ("grey", ("fit_grey", "build_grey_regression", "select_initial_value",
              "linear_response", "predict_on_grid")),
    ("matching", ("fit_matching", "build_matching_regression", "matching_time_response")),
    ("simulate", ("run_monte_carlo",)),
    ("repro", ("fit_water_model",)),
    ("cli", ("main",)),
)
FORCING_CALLABLE = "basis.forcing_callable"
FORCING_EVALS = "basis.forcing_eval.calls"
LINEAR_RESPONSE = "grey.linear_response"
REFUSED = "grey.linear_response.refused"
IMPORT_METRICS = ("import.greymatch_cli_ms", "import.scipy_ms", "import.modules")


def hooked_names():
    return [f"{module}.{attr}" for module, attrs in HOOKS for attr in attrs]


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in hooked_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units[FORCING_EVALS] = "count"
    units[REFUSED] = "count"
    units["import.greymatch_cli_ms"] = "ms"
    units["import.scipy_ms"] = "ms"
    units["import.modules"] = "count"
    return units


class Tracer:
    """Spans of wrapped greymatch calls, grouped by benchmark operation.

    Spans are kept column-wise in int64 arrays (48 bytes a span): a traced
    run of small_fits records about a million of them."""

    COLUMNS = ("parent", "op", "name", "start_ns", "end_ns", "error")

    def __init__(self):
        self.columns = {column: array("q") for column in self.COLUMNS}
        self.names = hooked_names()
        self.errors = [""]
        self.stack = []
        self.op = -1
        self.forcing_evals = 0
        self.absent = []

    def reset(self):
        """Forget what warm-up recorded."""
        for column in self.columns.values():
            del column[:]
        self.forcing_evals = 0

    def _error_id(self, exc):
        name = type(exc).__name__
        if name not in self.errors:
            self.errors.append(name)
        return self.errors.index(name)

    def _wrap(self, name, func):
        parent, op, names, start, end, error = (self.columns[c] for c in self.COLUMNS)
        name_id = self.names.index(name)
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op)
            names.append(name_id)
            end.append(0)
            error.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                error[index] = self._error_id(exc)
                raise
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def _count_evals(self, func):
        # Counts calls of the callables forcing_callable hands out; a mixed
        # spec's inner callables are built by forcing_callable itself and
        # are not counted twice.
        wrapped = self._wrap(FORCING_CALLABLE, func)
        name_id = self.names.index(FORCING_CALLABLE)

        def hooked(*args, **kwargs):
            evaluate = wrapped(*args, **kwargs)
            if self.stack and self.columns["name"][self.stack[-1]] == name_id:
                return evaluate

            def counted(t):
                self.forcing_evals += 1
                return evaluate(t)

            return counted

        return functools.wraps(func)(hooked)

    def install(self):
        """Wrap every hooked name in the imported greymatch package."""
        modules = {name: importlib.import_module(f"greymatch.{name}") for name, _ in HOOKS}
        package = [m for key, m in sorted(sys.modules.items())
                   if key == "greymatch" or key.startswith("greymatch.")]
        for module_name, attrs in HOOKS:
            module = modules[module_name]
            for attr in attrs:
                name = f"{module_name}.{attr}"
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(name)
                elif isinstance(original, type):
                    original.__init__ = self._wrap(name, original.__init__)
                else:
                    hook = (self._count_evals(original) if name == FORCING_CALLABLE
                            else self._wrap(name, original))
                    for other in package:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, key, hook)

    def per_layer(self, attempted):
        """Per-operation calls and self time of every hooked name."""
        cols = {c: np.frombuffer(self.columns[c], dtype=np.int64) for c in self.COLUMNS}
        duration = cols["end_ns"] - cols["start_ns"]
        nested = cols["parent"] >= 0
        child_ns = np.bincount(cols["parent"][nested], weights=duration[nested],
                               minlength=len(duration))
        count = len(self.names)
        calls = np.bincount(cols["name"], minlength=count)
        self_ns = np.bincount(cols["name"], weights=duration - child_ns, minlength=count)
        refused = 0
        if "OverflowGuardError" in self.errors:
            refused = np.count_nonzero(
                (cols["name"] == self.names.index(LINEAR_RESPONSE))
                & (cols["error"] == self.errors.index("OverflowGuardError")))
        metrics = {}
        for index, name in enumerate(self.names):
            metrics[f"{name}.calls"] = calls[index] / attempted
            metrics[f"{name}.self_ms"] = self_ns[index] / 1e6 / attempted
        metrics[FORCING_EVALS] = self.forcing_evals / attempted
        metrics[REFUSED] = refused / attempted
        return metrics

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", *self.COLUMNS])
            rows = zip(*(self.columns[c] for c in self.COLUMNS))
            for index, (parent, op, name, start, end, error) in enumerate(rows):
                writer.writerow([index, parent, op, self.names[name], start, end,
                                 self.errors[error]])


def _topmost_cumulative_us(entries, prefix):
    """Sum of cumulative import times of the entries named `prefix` or
    `prefix.*` that are not nested inside another such entry.

    importtime prints a module after the modules it imported, one level
    of indentation deeper, so walking the lines backwards visits parents
    first."""
    total = 0
    stack = []
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        matches = name == prefix or name.startswith(prefix + ".")
        if matches and not any(m for _, m in stack):
            total += cumulative
        stack.append((depth, matches))
    return total


def import_probe(env):
    """Import cost of `greymatch.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import sys, greymatch.cli; print(len(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed: {done.stderr[-500:]}")
    entries = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        name = name[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    return {
        "import.greymatch_cli_ms": _topmost_cumulative_us(entries, "greymatch") / 1e3,
        "import.scipy_ms": _topmost_cumulative_us(entries, "scipy") / 1e3,
        "import.modules": int(done.stdout.strip().splitlines()[-1]),
    }
