"""Output checks of the greymatch benchmark, computed apart from greymatch.

Each check returns a list of error strings; an empty list means the output
is correct.  The oracles are:

* forecasts: a DOP853 integration (``scipy.integrate.solve_ivp``, tight
  tolerances) of the fitted (A, B, c, eta), one grid interval at a time so
  that the kinks of interpolated forcing fall on interval ends.  A grey
  forecast is integrated on the cusum scale and restored by differences
  here;
* fitted structure: a least-squares refit on regressions built here from
  the paper's definitions (trapezoid integral and exact forcing integrals
  for matching; cusum, trapezoid background and difference quotients for
  grey);
* grey initial values: the defining property of each strategy;
* the water ladder and the command line: the paper's printed table
  (``repro.REFERENCE_TABLE``);
* Monte Carlo summaries: the equal-spacing identity on every replication,
  recovery of the true A, and independence from execution order.

The checks run after the timed section.  scipy.integrate is imported only
when an oracle first runs, so it adds neither to the measured set-up time
nor to the measured peak memory.
"""

import json

import numpy as np

# Forecast against the ODE oracle, relative to the largest value.  Simpson
# quadrature with 50 steps per time unit is fourth order: over 43 seeds of
# the forced inputs its error was 6e-10 or less but once 1.2e-8 (seed 405,
# two Fourier pairs), so the bound sits a factor of about 100 above the
# worst seen.  Polynomial forcing is exact to round-off (1e-13).
FORECAST_RTOL = 1e-6
# Refit and initial value: two solutions of one linear problem, which
# agree to about 1e-11 on these inputs.
COEFFICIENT_RTOL = 1e-9
# Paper's table: one unit of the last printed digit.
TABLE_TOL = 0.01
# Monte Carlo: the paper's equal-spacing identity, and mean recovery.
STRUCTURAL_GAP = 1e-9
MEAN_STANDARD_ERRORS = 5.0


def ode_response(a_matrix, b_matrix, constant, eta, u_of, times):
    """z' = A z + B u(t) + c, z(times[0]) = eta, at every entry of times."""
    from scipy.integrate import solve_ivp

    def rhs(s, z):
        return a_matrix @ z + b_matrix @ u_of(s) + constant

    out = [np.asarray(eta, dtype=float)]
    for start, end in zip(times[:-1], times[1:]):
        sol = solve_ivp(rhs, (start, end), out[-1], method="DOP853",
                        rtol=1e-12, atol=1e-12)
        if not sol.success:
            raise RuntimeError(f"oracle integration failed: {sol.message}")
        out.append(sol.y[:, -1])
    return np.array(out)


def _intervals(t):
    """Cusum interval weights: h_1 = 1 by convention, then the steps."""
    return np.concatenate([[1.0], np.diff(t)])


def _structure(model):
    d = model.A.shape[0]
    b = model.B.reshape(d, -1)
    c = np.zeros(d) if model.c is None else np.asarray(model.c)
    return model.A, b, c


def _relative_error(computed, expected):
    computed, expected = np.asarray(computed), np.asarray(expected)
    if computed.shape != expected.shape:
        return np.inf
    return float(np.max(np.abs(computed - expected)) / max(1.0, np.max(np.abs(expected))))


def forecast(out, pipeline, raw, u_of, horizon):
    """A fit-plus-forecast (model, predictions) of either pipeline."""
    model, predictions = out
    t = raw.grid.points
    times = np.concatenate([t, t[-1] + (t[-1] - t[-2]) * np.arange(1, horizon + 1)])
    if _relative_error(predictions.grid.points, times) > 1e-12:
        return [f"forecast grid differs from the data grid extended by {horizon}"]
    a, b, c = _structure(model)
    z = ode_response(a, b, c, model.eta, u_of, times)
    if pipeline == "grey":
        z = np.vstack([z[:1], np.diff(z, axis=0) / np.diff(times)[:, None]])
    errors = []
    err = _relative_error(predictions.values, z)
    if not err <= FORECAST_RTOL:
        errors.append(f"forecast differs from the ODE oracle by {err:.3g} (relative)")
    return errors + refit(model, pipeline, raw, u_of)


def _forcing_integrals(u_of, t, p):
    """U(t_k) - U(t_1) per forcing column, integrated interval by interval."""
    from scipy.integrate import quad_vec

    steps = [quad_vec(u_of, lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
             for lo, hi in zip(t[:-1], t[1:])]
    return np.cumsum(np.vstack([np.zeros((1, p)), *steps]), axis=0)


def refit(model, pipeline, raw, u_of):
    """The fitted structure against a least-squares refit built here."""
    x, t = raw.values, raw.grid.points
    a, b, c = _structure(model)
    p = b.shape[1]
    u = np.array([u_of(s) for s in t]).reshape(len(t), p)
    if pipeline == "grey":
        h = _intervals(t)
        y = np.cumsum(h[:, None] * x, axis=0)
        design = np.column_stack([0.5 * (y[:-1] + y[1:]), 0.5 * (u[:-1] + u[1:]),
                                  np.ones(len(t) - 1)])
        targets = np.diff(y, axis=0) / h[1:, None]
        fitted = np.vstack([a.T, b.T, c])
    else:
        integral = np.vstack([np.zeros(x.shape[1]),
                              np.cumsum(0.5 * np.diff(t)[:, None] * (x[:-1] + x[1:]), axis=0)])
        blocks = [integral[1:], _forcing_integrals(u_of, t, p)[1:]]
        if model.c is not None:
            blocks.append((t[1:] - t[0])[:, None])
        blocks.append(np.ones((len(t) - 1, 1)))
        design = np.column_stack(blocks)
        targets = x[1:]
        rows = [a.T, b.T] + ([c] if model.c is not None else []) + [model.eta]
        fitted = np.vstack(rows)
    expected = np.linalg.lstsq(design, targets, rcond=None)[0]
    err = _relative_error(fitted, expected)
    if not err <= COEFFICIENT_RTOL:
        return [f"fitted {pipeline} structure differs from the refit by {err:.3g} (relative)"]
    return []


def initial_value(model, raw, u_of, strategy):
    """A grey initial value against the property its strategy defines.

    reduced_half_step has no independent definition; its water-ladder use
    is held to the paper's printed table instead."""
    t = raw.grid.points
    y = np.cumsum(_intervals(t)[:, None] * raw.values, axis=0)
    a, b, c = _structure(model)
    d = len(c)
    if strategy == "fixed_first":
        expected = y[0]
    elif strategy == "reduced_consistent":
        expected = np.linalg.solve(np.eye(d) - a, c + b @ u_of(t[0]))
    elif strategy in ("fixed_last", "least_squares"):
        free = ode_response(a, b, c, np.zeros(d), u_of, t)
        none = np.zeros((d, 0))
        columns = [ode_response(a, none, np.zeros(d), e, lambda s: np.zeros(0), t)
                   for e in np.eye(d)]
        propagators = np.stack(columns, axis=2)        # (n, d, d)
        if strategy == "fixed_last":
            expected = np.linalg.solve(propagators[-1], y[-1] - free[-1])
        else:
            expected = np.linalg.lstsq(propagators.reshape(-1, d),
                                       (y - free).reshape(-1), rcond=None)[0]
    else:
        return []
    err = _relative_error(model.eta, expected)
    if not err <= COEFFICIENT_RTOL:
        return [f"{strategy} initial value differs from its definition by {err:.3g}"]
    return []


def water_table(values, table, actual, split):
    """Water-ladder predictions (fit, holdout and extrapolation years)
    against the printed values, APEs and MAPEs."""
    values = np.asarray(values, dtype=float)
    expected = np.asarray(table["values"])
    if values.shape != expected.shape:
        return [f"{len(values)} predicted values, the table prints {len(expected)}"]
    actual = np.asarray(actual, dtype=float)
    ape = np.abs(values[:len(actual)] - actual) / actual * 100.0
    errors = []
    for item, computed, printed in (
            ("value", values, expected),
            ("ape", ape, np.asarray(table["ape"])),
            ("mape_in", ape[:split].mean(), table["mape_in"]),
            ("mape_out", ape[split:].mean(), table["mape_out"])):
        diff = np.max(np.abs(np.asarray(computed) - printed))
        if not diff <= TABLE_TOL:
            errors.append(f"{item} differs from the printed table by {diff:.4f}")
    return errors


def cli_outputs(out, table, actual, split, horizon):
    """`greymatch fit` summary and `greymatch forecast` CSV against the
    printed table."""
    summary_text, forecast_text = out
    summary = json.loads(summary_text)
    lines = forecast_text.strip().splitlines()
    n = len(actual)
    errors = []
    if summary.get("n") != n or summary.get("split_index") != split:
        errors.append(f"fit summary reports n={summary.get('n')}, "
                      f"split={summary.get('split_index')}")
    if lines[0] != "t,x1_hat" or len(lines) != n + horizon + 1:
        return errors + [f"forecast CSV has header {lines[0]!r} and {len(lines) - 1} rows"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if not np.array_equal(rows[:, 0], np.arange(1.0, n + horizon + 1)):
        errors.append("forecast CSV times are not 1..n+horizon")
    printed = np.asarray(table["values"][:n + horizon])
    diff = np.max(np.abs(rows[:, 1] - printed))
    if not diff <= TABLE_TOL:
        errors.append(f"forecast differs from the printed table by {diff:.4f}")
    for key in ("mape_in", "mape_out"):
        diff = abs(summary[key][0] - table[key])
        if not diff <= TABLE_TOL:
            errors.append(f"{key} differs from the printed table by {diff:.4f}")
    return errors


def monte_carlo(summary, reps, true_a, check_mean):
    """One Monte Carlo cell: no failed replication, the grey and matching A
    estimates equal on every replication, and (when asked) the matching A
    means within MEAN_STANDARD_ERRORS standard errors of the true A."""
    errors = []
    if summary.completed != reps or summary.failure_count != 0:
        errors.append(f"{summary.failure_count} of {reps} replications failed")
    for key, arr in summary.per_replication.items():
        if arr.shape[0] != reps or not np.isfinite(arr).all():
            errors.append(f"{key}: {arr.shape[0]} rows or non-finite values")
    grey_a = summary.per_replication["grey_A"]
    match_a = summary.per_replication["matching_A"]
    if grey_a.shape != match_a.shape:
        return errors + ["grey and matching A have different shapes"]
    gap = float(np.max(np.abs(grey_a - match_a)))
    if not gap <= STRUCTURAL_GAP:
        errors.append(f"grey and matching A differ by {gap:.3g} on some replication")
    if check_mean:
        mean = match_a.mean(axis=0)
        standard_error = match_a.std(axis=0, ddof=1) / np.sqrt(len(match_a))
        distance = np.abs(mean - np.asarray(true_a).ravel()) / standard_error
        if not np.max(distance) <= MEAN_STANDARD_ERRORS:
            errors.append(f"matching A mean lies {np.max(distance):.2f} standard "
                          "errors from the true A")
    return errors


def leading_rows(full, short, count):
    """A rerun with `count` replications gives the leading rows of `full`."""
    if full.per_replication.keys() != short.per_replication.keys():
        return ["rerun reports other metrics"]
    return [f"rerun with {count} replications changes {key}"
            for key, arr in full.per_replication.items()
            if not np.array_equal(arr[:count], short.per_replication[key])]
