"""The four workloads of the greymatch benchmark.

Each workload is a fixed list of operations, built from inputs the
benchmark generates from its seed.  The program receives only those
inputs: it never sees the seed.  An operation returns its output, which
the checks in ``checks.py`` compare with an oracle computed apart from
greymatch, or with the paper's printed numbers.

The workloads are chosen so that each open ROADMAP item acts on one of
them and leaves the others alone:

* ``mc_study``: the Monte Carlo loop (batched engine);
* ``forced_forecast``: Simpson quadrature of non-polynomial forcing
  (exact propagators);
* ``small_fits``: per-call overhead of millisecond fits and the overflow
  guard (one-core refactor, guard rewrite);
* ``cli_roundtrip``: cold start of the command line (no scipy at start).
"""

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from greymatch import basis, grey, matching, repro, series, simulate
from greymatch.errors import OverflowGuardError

import checks

WORK_DIR = Path(__file__).resolve().parent / "out" / "work"


@dataclass
class Op:
    """One operation: `run()` returns the output that `check(output)`
    verifies (a list of error strings, empty when correct).  `expect` names
    the greymatch error an operation is kept failing with, if any."""

    label: str
    run: object
    check: object
    expect: type = None


@dataclass
class Workload:
    ops: list
    warm_up: object
    final_checks: object = None
    rss_of_children: bool = False


def _rng(seed, stream):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _expm(a_matrix, t):
    """exp(A t) by eigendecomposition; the inputs' A is diagonalizable."""
    w, v = np.linalg.eig(a_matrix)
    return (v @ np.diag(np.exp(w * t)) @ np.linalg.inv(v)).real


def _stable_matrix(rng, low, high, coupling):
    """Decay rates in [low, high] and a rotation of at most `coupling`:
    the eigenvalues stay at least `low` away from zero, so every mode is
    seen in the data."""
    a = np.diag(-rng.uniform(low, high, 2))
    w = rng.uniform(-coupling, coupling)
    a[0, 1], a[1, 0] = w, -w
    return a


# ---------------------------------------------------------------- mc_study

# (21, 2.5) is left out: about one replication in 12 000 there is refused by
# the overflow guard although its fitted A is stable (see CHANGES.md), and
# a refusal that depends on the seed would make runs differ in what fails.
MC_CELLS = ((21, 5.0), (51, 2.5), (101, 2.5), (101, 5.0))
MC_REPS = 200
MC_HORIZONS = (2, 5, 10)
MC_SHORT_REPS = 20


def _scenario(n, snr, reps, seed):
    return simulate.SimulationScenario(
        a_matrix=np.array(repro.SIM_A), initial_state=np.array(repro.SIM_ETA),
        snr=snr, replications=reps, seed=seed, t_span=(0.0, 5.0),
        step=5.0 / (n - 1), horizon=max(MC_HORIZONS),
    )


def mc_study(seed):
    seeds = [int(s) for s in np.random.SeedSequence([seed, 1]).generate_state(len(MC_CELLS))]
    cells = [(n, snr, s) for (n, snr), s in zip(MC_CELLS, seeds)]
    ops = []
    for n, snr, cell_seed in cells:
        scenario = _scenario(n, snr, MC_REPS, cell_seed)
        ops.append(Op(
            f"n={n} snr={snr}",
            lambda sc=scenario: simulate.run_monte_carlo(sc, horizons=MC_HORIZONS),
            lambda out, snr=snr: checks.monte_carlo(out, MC_REPS, np.array(repro.SIM_A),
                                                    check_mean=snr == 5.0),
        ))

    def warm_up():
        for n, snr, cell_seed in cells:
            simulate.run_monte_carlo(_scenario(n, snr, 2, cell_seed), horizons=MC_HORIZONS)

    def final_checks(first_outputs):
        # A rerun with fewer replications must give the same leading rows:
        # each replication draws from its own stream.
        errors = []
        for (n, snr, cell_seed), op in zip(cells, ops):
            short = simulate.run_monte_carlo(_scenario(n, snr, MC_SHORT_REPS, cell_seed),
                                             horizons=MC_HORIZONS)
            errors += [f"{op.label}: {e}" for e in checks.leading_rows(
                first_outputs[op.label], short, MC_SHORT_REPS)]
        return errors

    return Workload(ops, warm_up, final_checks)


# --------------------------------------------------------- forced_forecast

FORCED_HORIZON = 10
FOURIER_FREQUENCY = 0.2
IDENTIFY_FACTOR = 2.0


def fourier_values(pairs, frequency):
    omegas = 2.0 * np.pi * frequency * np.arange(1, pairs + 1)

    def u_of(t):
        out = np.empty(2 * pairs)
        out[0::2] = np.sin(omegas * t)
        out[1::2] = np.cos(omegas * t)
        return out

    return u_of


def _identified(t, x, integrals, a_matrix):
    """Whether the benchmark's own integral-matching refit of the samples
    finds an A of norm at most IDENTIFY_FACTOR times the true one.

    When the transient is too weak to tell the state feedback from the
    forcing, the fitted A can grow an eigenvalue of +5 and a forecast truly
    explodes; such systems are redrawn.  `integrals` holds U(t) - U(t_1).
    """
    steps = 0.5 * np.diff(t)[:, None] * (x[:-1] + x[1:])
    design = np.column_stack([np.cumsum(steps, axis=0), integrals[1:],
                              t[1:] - t[0], np.ones(len(t) - 1)])
    fitted = np.linalg.lstsq(design, x[1:], rcond=None)[0][:x.shape[1]]
    return np.linalg.norm(fitted, 2) <= IDENTIFY_FACTOR * np.linalg.norm(a_matrix, 2)


def _redraw(draw):
    for _ in range(100):
        t, x, integrals, a_matrix = draw()
        if _identified(t, x, integrals, a_matrix):
            return t, x
    raise RuntimeError("no identifiable system in 100 draws")


def _fourier_series(rng, pairs, n, t1, step):
    """Noisy samples of z' = A z + B u(t) + c with u the Fourier basis,
    from the closed form: a periodic particular solution plus exp(A t)."""
    t = t1 + step * np.arange(n)
    omegas = 2.0 * np.pi * FOURIER_FREQUENCY * np.arange(1, pairs + 1)
    integrals = np.empty((n, 2 * pairs))
    integrals[:, 0::2] = -np.cos(np.outer(t, omegas)) / omegas
    integrals[:, 1::2] = np.sin(np.outer(t, omegas)) / omegas
    integrals -= integrals[0]

    def draw():
        a = _stable_matrix(rng, 0.4, 0.8, 0.3)
        b = rng.normal(size=(2, 2 * pairs))
        c = rng.uniform(1.0, 3.0, 2)
        eta = -np.linalg.solve(a, c) + rng.choice((-1.0, 1.0), 2) * rng.uniform(4.0, 8.0, 2)
        eye = np.eye(2)
        particular = np.tile(-np.linalg.solve(a, c), (n, 1))
        for i, w in enumerate(omegas):
            # sin part P, cos part Q:  -w Q = A P + b_s,  w P = A Q + b_c
            lhs = np.block([[a, w * eye], [-w * eye, a]])
            pq = np.linalg.solve(lhs, -np.concatenate([b[:, 2 * i], b[:, 2 * i + 1]]))
            particular += np.outer(np.sin(w * t), pq[:2]) + np.outer(np.cos(w * t), pq[2:])
        x = particular + np.array([_expm(a, tk - t1) @ (eta - particular[0]) for tk in t])
        return t, x * (1.0 + 0.01 * rng.standard_normal(x.shape)), integrals, a

    return _redraw(draw)


def _exogenous_series(rng, n, horizon, t1, step):
    """Noisy samples of x' = a x + b u(t) + c, u linear between its
    samples, stepped exactly; u is sampled over the forecast horizon too."""
    t = t1 + step * np.arange(n + horizon)
    u = 2.0 + np.sin(0.6 * t + rng.uniform(0, 2 * np.pi)) + 0.2 * rng.standard_normal(len(t))
    a, b, c = rng.uniform(-0.4, -0.2), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    g = b * u + c
    decay = np.exp(a * step)
    phi1 = (decay - 1.0) / a
    phi2 = (decay - 1.0 - a * step) / a ** 2
    x = np.empty(n)
    x[0] = rng.uniform(5.0, 10.0)
    for k in range(n - 1):
        x[k + 1] = decay * x[k] + g[k] * phi1 + (g[k + 1] - g[k]) * phi2 / step
    return t, u, x * (1.0 + 0.01 * rng.standard_normal(n))


def _fit_forecast(pipeline, raw, spec, horizon):
    if pipeline == "grey":
        model = grey.fit_grey(raw, spec)
        return model, grey.grey_forecast(raw, spec, horizon=horizon, model=model)
    model = matching.fit_matching(raw, spec)
    return model, matching.matching_forecast(raw, spec, horizon=horizon, model=model)


def _forced_op(label, pipeline, raw, spec, u_of, horizon=FORCED_HORIZON):
    return Op(f"{pipeline} {label}",
              lambda: _fit_forecast(pipeline, raw, spec, horizon),
              lambda out: checks.forecast(out, pipeline, raw, u_of, horizon))


def forced_forecast(seed):
    """Each input maps a pipeline to its forcing spec and the benchmark's
    own evaluation of that forcing.  Integrating the raw-scale model once
    turns its constant into a linear term, so the grey counterpart of a
    Fourier matching fit carries Fourier plus degree-1 forcing (as GPM(1,1,2)
    pairs with IMDE3); on equal spacing both then estimate the same A."""
    rng = _rng(seed, 2)
    inputs = []
    for pairs in (1, 2):
        t, x = _fourier_series(rng, pairs, 41, 1.0, 0.25)
        fourier = basis.FourierForcing(pairs, FOURIER_FREQUENCY)
        u_of = fourier_values(pairs, FOURIER_FREQUENCY)
        inputs.append((f"fourier{pairs}", series.make_series(t, x), {
            "grey": (basis.MixedForcing((fourier, basis.PolynomialForcing(1))),
                     lambda s, u_of=u_of: np.append(u_of(s), s)),
            "matching": (fourier, u_of)}))
    t, u, x = _exogenous_series(rng, 30, FORCED_HORIZON, 1.0, 0.5)
    exogenous = (basis.ExogenousForcing(series.make_series(t, u)),
                 lambda s: np.array([np.interp(s, t, u)]))
    inputs.append(("exogenous", series.make_series(t[:30], x),
                   {"grey": exogenous, "matching": exogenous}))
    ops = [_forced_op(label, pipeline, raw, *specs[pipeline])
           for label, raw, specs in inputs for pipeline in ("grey", "matching")]

    def warm_up():
        # The full fits, but responses at three times only: quadrature cost
        # grows with the square of the span.
        for _, raw, specs in inputs:
            head = raw.grid.points[:3]
            grey.grey_time_response(grey.fit_grey(raw, specs["grey"][0]), head)
            matching.matching_time_response(
                matching.fit_matching(raw, specs["matching"][0]), head)

    return Workload(ops, warm_up)


# -------------------------------------------------------------- small_fits

GREY_STRATEGIES = ("fixed_first", "fixed_last", "least_squares", "reduced_consistent",
                   "reduced_half_step")
WATER_GREY_HORIZON = len(repro.WATER_FORECAST_YEARS) - repro.WATER_SPLIT
SMALL_HORIZON = 10
DECAY_HORIZON = 200


def polynomial_values(degree):
    return lambda t: float(t) ** np.arange(1, degree + 1)


def _linear_forced_series(rng, n, step):
    """Noisy samples of z' = A z + b t + c from its closed form."""
    t = step * np.arange(n)

    def draw():
        a = _stable_matrix(rng, 0.8, 1.6, 0.3)
        b = rng.uniform(0.5, 1.5, 2)
        c = rng.uniform(1.0, 3.0, 2)
        eta = rng.uniform(5.0, 10.0, 2)
        slope = -np.linalg.solve(a, b)
        offset = np.linalg.solve(a, slope - c)
        x = np.array([offset + slope * tk + _expm(a, tk) @ (eta - offset) for tk in t])
        return t, x * (1.0 + 0.01 * rng.standard_normal(x.shape)), (t ** 2 / 2)[:, None], a

    return _redraw(draw)


def _grey_op(label, raw, spec, strategy, u_of, horizon, table=None):
    def run():
        model = grey.fit_grey(raw, spec, strategy=strategy)
        return model, grey.grey_forecast(raw, spec, horizon=horizon, model=model)

    def check(out):
        errors = checks.forecast(out, "grey", raw, u_of, horizon)
        errors += checks.initial_value(out[0], raw, u_of, strategy)
        if table is not None:
            errors += checks.water_table(out[1].values[:, 0], table, repro.WATER_VALUES,
                                         repro.WATER_SPLIT)
        return errors

    return Op(f"grey {label} {strategy}", run, check)


def small_fits(seed):
    ops = []
    for name in repro.WATER_MODELS:
        ops.append(Op(f"water {name}", lambda name=name: repro.fit_water_model(name),
                      lambda out, name=name: checks.water_table(
                          out[1].values[:, 0], repro.REFERENCE_TABLE[name],
                          repro.WATER_VALUES, repro.WATER_SPLIT)))
    water = repro.water_series()
    quadratic = basis.PolynomialForcing(2)
    for strategy in GREY_STRATEGIES:
        table = repro.REFERENCE_TABLE["GPM(1,1,2)"] if strategy == "reduced_half_step" else None
        ops.append(_grey_op("water", water, quadratic, strategy, polynomial_values(2),
                            WATER_GREY_HORIZON, table))

    # A linearly forced series; its grey counterpart carries degree-2
    # forcing, as in the water ladder.
    t, x = _linear_forced_series(_rng(seed, 3), 101, 0.05)
    raw = series.make_series(t, x)
    ops.append(_forced_op("linear", "matching", raw, basis.PolynomialForcing(1),
                          polynomial_values(1), SMALL_HORIZON))
    for strategy in GREY_STRATEGIES[:4]:
        ops.append(_grey_op("linear", raw, quadratic, strategy, polynomial_values(2),
                            SMALL_HORIZON))

    # Kept failure: the overflow guard refuses a decaying forecast because it
    # tests |A| * span although exp(A t) only shrinks.  The input does not
    # depend on the seed, so the operation fails on every run.
    td = np.arange(1.0, 21.0)
    decay = series.make_series(td, 50.0 * np.exp(-0.3 * td) + 5.0)
    zero = basis.ZeroForcing()
    ops.append(Op("matching decay h=200",
                  lambda: _fit_forecast("matching", decay, zero, DECAY_HORIZON),
                  lambda out: checks.forecast(out, "matching", decay,
                                              lambda s: np.zeros(0), DECAY_HORIZON),
                  expect=OverflowGuardError))

    def warm_up():
        for op in ops:
            try:
                op.run()
            except OverflowGuardError:
                pass

    return Workload(ops, warm_up)


# ----------------------------------------------------------- cli_roundtrip

CLI_CONFIGS = {
    "GPM(1,1,2)": {"model": "grey", "forcing": {"kind": "polynomial", "degree": 2},
                   "strategy": "reduced_half_step"},
    "IMDE3": {"model": "matching", "forcing": {"kind": "polynomial", "degree": 1},
              "include_constant": True},
}
CLI_SPLIT = 12
CLI_HORIZON = 2


def _cli_files(name):
    stem = WORK_DIR / name.replace("(", "").replace(")", "").replace(",", "")
    return {"config": f"{stem}-config.json", "fitted": f"{stem}-fitted.json",
            "forecast": f"{stem}-forecast.csv"}


def _cli_argv(files, csv_path):
    fit = ["fit", "--input", csv_path, "--model", files["config"],
           "--split", str(CLI_SPLIT), "--output", files["fitted"]]
    forecast = ["forecast", "--model", files["fitted"], "--input", csv_path,
                "--horizon", str(CLI_HORIZON), "--output", files["forecast"]]
    return fit, forecast


def _run_process(argv):
    """One fresh `python -m greymatch.cli` process; returns its stdout."""
    done = subprocess.run([sys.executable, "-m", "greymatch.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"greymatch {argv[0]} exited {done.returncode}: {done.stderr}")
    return done.stdout


def _run_in_process(argv):
    """cli.main in this process, for the traced run."""
    from greymatch import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"greymatch {argv[0]} returned {code}")
    return buffer.getvalue()


def cli_roundtrip(seed, in_process=False):
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    csv_path = str(WORK_DIR / "water.csv")
    with open(csv_path, "w") as fh:
        fh.write("t,x1\n")
        for k, value in enumerate(repro.WATER_VALUES, start=1):
            fh.write(f"{k},{value!r}\n")
    call = _run_in_process if in_process else _run_process
    # The seed sets which model leads each cycle.
    names = sorted(CLI_CONFIGS, reverse=bool(seed % 2))
    ops = []
    for name in names:
        files = _cli_files(name)
        with open(files["config"], "w") as fh:
            json.dump(CLI_CONFIGS[name], fh)
        fit_argv, forecast_argv = _cli_argv(files, csv_path)

        def run(fit_argv=fit_argv, forecast_argv=forecast_argv, files=files):
            summary = call(fit_argv)
            call(forecast_argv)
            with open(files["forecast"]) as fh:
                return summary, fh.read()

        ops.append(Op(f"cli {name}", run,
                      lambda out, name=name: checks.cli_outputs(
                          out, repro.REFERENCE_TABLE[name], repro.WATER_VALUES,
                          CLI_SPLIT, CLI_HORIZON)))

    def warm_up():
        ops[0].run()

    return Workload(ops, warm_up, rss_of_children=not in_process)


WORKLOADS = {"mc_study": mc_study, "forced_forecast": forced_forecast,
             "small_fits": small_fits, "cli_roundtrip": cli_roundtrip}


def build(name, seed, traced=False):
    if name == "cli_roundtrip":
        return cli_roundtrip(seed, in_process=traced)
    return WORKLOADS[name](seed)


def same_output(a, b):
    """Exact equality of two outputs of one operation."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same_output(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_output(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            same_output(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, float) and a != a:
        return b != b
    return a == b
