"""The grey pipeline: cusum the raw series, fit the structural parameters of
dy/dt = A y + B u(t) + c, choose an initial value, evaluate the time
response and restore to the original scale.

Both pipelines fit by one integral-matching regression, defined here: the
raw values x(t_k) are regressed on an integral of x, forcing columns and an
intercept.  The grey pipeline's integral is the background value of the
cusum; integral matching (matching.py) uses the trapezoid integral.  The
fitted-model record, its time response, its predictions and its JSON form
live here too and serve both pipelines.

Fits, initial values, responses and predictions take a stack of series
(VectorSeries values (R, n, d)) as well as a single one: every fitted field
then gains the leading replication axis, and each slice gets the numbers it
gets alone.  A slice that fails is reported through errors.fail; a time
response that overflows is refused by the propagator that forms its
exponent (numerics.exosystem_response), which linear_response calls.
"""

from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from . import numerics as _numerics
from . import series as _series
from .errors import DataError, InsufficientDataError, StrategyError, fail

INITIAL_STRATEGIES = ("fixed_first", "fixed_last", "least_squares",
                      "reduced_consistent", "reduced_half_step")
PIPELINES = ("grey", "matching")


@dataclass(frozen=True)
class FittedModel:
    """Fitted dz/dt = A z + B u(t) + c, z(t1) = eta, from either pipeline.

    pipeline "grey" fits the cusum scale, so its predictions are restored
    by the inverse cusum; "matching" fits the raw scale.  c is None for a
    model without a constant term.  strategy (the initial-value rule) and
    background_lambda (the weight of the earlier point of each interval in
    the background-value blend) record how a grey fit was made; they are
    None on matching fits.  A fit of a stack of series holds one model per
    slice: A (R, d, d), eta (R, d), ... and residual_norm (R,).
    """

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    eta: np.ndarray
    spec: object
    t1: float
    pipeline: str
    residual_norm: float = 0.0
    strategy: str = None
    background_lambda: float = None

    @property
    def d(self):
        return self.A.shape[-1]


def require_points(n, cols):
    """InsufficientDataError unless n points give a design of cols columns
    its n - 1 rows; the fits check this before they evaluate the forcing."""
    if n - 1 < cols:
        raise InsufficientDataError(f"need at least {cols + 1} points for this "
                                    f"model; got {n}")


def integral_regression(raw, integral, forcing, ramp=None):
    """Least-squares fit of the integral form of dx/dt = A x + B u(t) + c.

    Rows k = 2..n:  x(t_k)  ~  A I_k + B F_k [+ c r_k] + intercept,
    with I the integral of x under the pipeline's quadrature rule, F the
    forcing columns under the same rule and r the optional ramp (n - 1 rows
    each).  The cusum is a discrete form of the integral operator, so the
    two pipelines differ only in these arguments.
    Returns (A, B, rest, residual_norm), where rest holds the coefficient
    rows after B: the ramp's (when given), then the intercept's.  For a
    stack of series (integral (R, n - 1, d), forcing and ramp shared or
    stacked alike) each of them gains the leading axis.
    """
    x = raw.values
    n, d = x.shape[-2:]
    p = forcing.shape[-1]
    cols = d + p + (ramp is not None) + 1
    require_points(n, cols)
    # columns: integral | forcing | ramp (when given) | intercept
    design = np.ones(x.shape[:-2] + (n - 1, cols))
    design[..., :d] = integral
    design[..., d:d + p] = forcing
    if ramp is not None:
        design[..., -2] = ramp
    solution = _numerics.solve_least_squares(design, x[..., 1:, :])
    stacked = solution.coefficients.swapaxes(-1, -2)  # columns: A | B | rest^T
    return (stacked[..., :d], stacked[..., d:d + p],
            stacked[..., d + p:].swapaxes(-1, -2), solution.residual_norm)


def _check_grey_options(strategy, background_lambda):
    """ValueError unless strategy names an initial-value rule and
    background_lambda lies in [0, 1]."""
    if strategy not in INITIAL_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {INITIAL_STRATEGIES}")
    if not 0.0 <= background_lambda <= 1.0:
        raise ValueError("background_lambda must lie in [0, 1]")


def read_config(config):
    """(pipeline, forcing spec, fit keyword options) from a fit config or a
    fitted-model header.  Absent keys default to model "matching", forcing
    zero, strategy "fixed_first", lambda (background_lambda) 0.5 and
    include_constant true; other keys are ignored.  ValueError names a
    wrong field."""
    pipeline = config.get("model", "matching")
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown model kind {pipeline!r}")
    spec = _basis.spec_from_config(config.get("forcing", {"kind": "zero"}))
    if pipeline == "matching":
        return pipeline, spec, {"include_constant": _basis.config_field(
            config, "include_constant", True, (bool,), "true or false")}
    options = {"strategy": config.get("strategy", "fixed_first"),
               "background_lambda": float(_basis.config_field(
                   config, "lambda", 0.5, (int, float), "a number"))}
    _check_grey_options(**options)
    return pipeline, spec, options


def fit_grey(raw, spec, strategy="fixed_first", background_lambda=0.5):
    """Fit the grey model to a raw series (the cusum happens internally).

    The integral of x is the background value of the cusum y,
    lam * y(t_{k-1}) + (1 - lam) * y(t_k), and the forcing columns blend
    u(t_k) the same way; the intercept is c.  background_lambda (lam)
    weights the earlier point of each interval; 0.5 is the trapezoid rule
    used throughout the literature.
    """
    _check_grey_options(strategy, background_lambda)
    require_points(raw.n, raw.d + spec.dimension + 1)
    lam = background_lambda
    y = _series.cusum(raw)
    u = spec.values(y.grid.points)
    # the background blend, built in one buffer
    background = lam * y.values[..., :-1, :]
    background += (1.0 - lam) * y.values[..., 1:, :]
    A, B, rest, residual = integral_regression(raw, background,
                                               lam * u[:-1] + (1.0 - lam) * u[1:])
    c = rest[..., 0, :]
    eta = select_initial_value(y, A, B, c, spec, strategy)
    return FittedModel(A, B, c, eta, spec, float(y.grid.points[0]), "grey",
                       residual, strategy, background_lambda)


def linear_response(a_matrix, b_matrix, constant, spec, eta, t1, times):
    """Solution of dz/dt = A z + B u(t) + c, z(t1) = eta, at given times.

    The forcing spec is written as its exosystem and marched exactly with
    the state (numerics.exosystem_response) for every forcing kind; times
    before t1 march backward.  Pass constant=None for a model without c.
    A stack of systems (a_matrix (R, d, d), eta (R, d), ...) gives values
    (R, len(times), d).  A slice is one A: leading axes of B, c or eta
    ahead of A's stack are systems marched with it (B (k, R, d, p) gives
    values (k, R, len(times), d)), and each system gets the numbers it gets
    alone.  A slice whose response overflows double precision fails with
    OverflowGuardError and reads 0 (numerics.exosystem_response), or with
    DataError when it holds a NaN or infinite entry of A, B, c or eta; a time
    that is not finite raises ValueError naming it, and a time outside the
    sample range of exogenous forcing AlignmentError.
    """
    exo = spec.exosystem
    return _numerics.exosystem_response(a_matrix, b_matrix @ exo.output, constant,
                                        exo, eta, t1, times)


def _half_step_forcing_constant(grid, B, spec):
    """The term c~ of the reduced_half_step strategy: B u'(-h/2), the value
    at t = 0 of B u'(t - h/2) on a grid of common spacing h, with
    u' = C S w read from the forcing's exosystem."""
    if not spec.dimension:
        return np.zeros(B.shape[:-1])
    exo = spec.exosystem
    if not exo.is_polynomial:
        raise StrategyError("reduced_half_step needs polynomial forcing; "
                            f"got {type(spec).__name__}")
    if len(grid) < 2 or not grid.is_uniform():
        raise StrategyError("reduced_half_step needs an equally spaced grid "
                            "of at least two points")
    h = float(grid.points[1] - grid.points[0])
    return B @ exo.output @ exo.generator @ exo.state(-h / 2.0)


def select_initial_value(y, A, B, c, spec, strategy):
    """Choose the integration constant eta for the fitted structure.

    fixed_first anchors at the first cusum value, fixed_last at the final
    one, least_squares minimizes the cusum-scale squared error, and
    reduced_consistent takes the value implied by the equivalent
    reduced-order model, (I - A)^{-1} (c + B u(t1)).

    The response is affine in eta, so least_squares is a linear fit: one
    linear_response call marches d + 1 systems per A, on a systems axis of
    B, c and eta ahead of A's stack, and gives column j of exp(A (t - t1))
    from e_j unforced and the forced part from 0 with B u + c.  A slice
    whose march overflows is a masked row.

    reduced_half_step solves (I - A) eta = c + B u(t1) + c~, where c~ is the
    constant term (value at t = 0) of the reduced-order forcing
    B u'(t - h/2) and h is the common grid spacing.  Its domain is zero
    forcing on any grid, where c~ = 0 and it equals reduced_consistent, and
    polynomial forcing on an equally spaced grid.  Fourier, exogenous or mixed
    non-polynomial forcing, an uneven grid, or a singular I - A raise
    StrategyError.  The formula was reconstructed from the published
    GPM(1,1,2) water-supply column (initial value 21.5509), not taken from
    a published derivation.  Up to polynomial degree 2, c~ equals the
    constant of the integral-matching fit with forcing u' on the same raw
    series; beyond degree 2 that tie breaks and no source settles the rule.
    """
    t = y.grid.points
    t1 = float(t[0])
    d = A.shape[-1]
    if strategy == "fixed_first":
        return y.values[..., 0, :].copy()
    if strategy in ("reduced_consistent", "reduced_half_step"):
        rhs = c + B @ spec.values(np.array([t1]))[0]
        if strategy == "reduced_half_step":
            rhs = rhs + _half_step_forcing_constant(y.grid, B, spec)
        eye_minus = np.eye(d) - A
        try:
            return np.linalg.solve(eye_minus, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # solve refuses the whole stack; the same LU factorization in
            # slogdet names the singular slices, solved with I instead
            singular = np.linalg.slogdet(eye_minus).sign == 0
            fail(singular, StrategyError,
                 f"I - A is singular; {strategy} strategy not applicable")
        eye_minus = np.where(singular[..., None, None], np.eye(d), eye_minus)
        return np.linalg.solve(eye_minus, rhs[..., None])[..., 0]
    if strategy == "fixed_last":
        return linear_response(A, B, c, spec, y.values[..., -1, :], float(t[-1]),
                               np.array([t1]))[..., 0, :]
    if strategy == "least_squares":
        # the systems axis, ahead of A's stack: e_j unforced, then 0 forced
        forced = (np.arange(d + 1) == d).reshape((d + 1,) + (1,) * c.ndim)
        z = linear_response(A, np.where(forced[..., None], B, 0.0),
                            np.where(forced, c, 0.0), spec,
                            np.eye(d + 1, d).reshape(forced.shape[:-1] + (d,)), t1, t)
        stack = z.shape[1:-2]
        return _numerics.solve_least_squares(
            np.moveaxis(z[:d], 0, -1).reshape(stack + (-1, d)),
            (y.values - z[d]).reshape(stack + (-1,))).coefficients
    raise ValueError(f"unknown strategy {strategy!r}")


def time_response(model, times):
    """The fitted model's own-scale response at the given times: the cusum
    scale for a grey fit, the raw scale for a matching fit."""
    values = linear_response(model.A, model.B, model.c, model.spec, model.eta,
                             model.t1, np.asarray(times, dtype=float))
    return _series.make_series(times, values)


# bench/workloads.py calls the response by this name.
grey_time_response = time_response


def predict_on_grid(model, grid):
    """Original-scale predictions of a fitted model on an arbitrary grid."""
    response = _series.VectorSeries(grid, linear_response(
        model.A, model.B, model.c, model.spec, model.eta, model.t1, grid.points))
    if model.pipeline == "grey":
        return _series.inverse_cusum(response)
    return response


def grey_forecast(raw, spec, strategy="fixed_first", horizon=0, model=None):
    """Full pipeline: cusum, fit, respond over the extended grid, restore.

    Returns the fitted-plus-forecast series on the original scale, length
    n + horizon.  Pass a pre-fitted `model` to skip refitting.
    """
    if model is None:
        model = fit_grey(raw, spec, strategy)
    return predict_on_grid(model, raw.grid.extended(horizon))


def model_to_dict(model):
    """JSON-ready dictionary; floats survive the round trip losslessly."""
    payload = {
        "model": model.pipeline,
        "d": model.d,
        "forcing": _basis.spec_to_config(model.spec),
        "A": model.A.tolist(),
        "B": model.B.tolist(),
    }
    if model.c is not None:
        payload["c"] = model.c.tolist()
    payload["eta"] = model.eta.tolist()
    if model.pipeline == "grey":
        payload["strategy"] = model.strategy
        payload["lambda"] = model.background_lambda
    payload["t1"] = model.t1
    payload["residual_norm"] = model.residual_norm
    return payload


def _checked_array(key, value, shape=None):
    """A model-file field as a float array of the given shape (any shape
    when None) with finite entries; DataError names the field otherwise."""
    if (array := _basis.real_array(value)) is None:
        raise DataError(f"model field {key!r} is not numeric")
    if shape is not None and array.shape != shape:
        raise DataError(f"model field {key!r} has shape {array.shape}; "
                        f"expected {shape}")
    if not np.isfinite(array).all():
        raise DataError(f"model field {key!r} holds a non-finite value")
    return array


def model_from_dict(payload):
    """Inverse of model_to_dict for either pipeline.

    read_config reads the header as it reads a fit config, but model and
    forcing must be present.  Raises DataError, naming the field, unless A
    is a square d x d matrix, B is d x (forcing dimension), eta and c have
    length d, c is present for a grey model, and every value is a finite
    JSON number.  Unknown keys (quadrature_steps_per_unit) are ignored.
    """
    if missing := {"model", "forcing"} - payload.keys():
        raise ValueError(f"model file lacks the {min(missing)!r} field")
    pipeline, spec, options = read_config(payload)
    A = _checked_array("A", payload["A"])
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise DataError(f"model field 'A' has shape {A.shape}; expected a "
                        "nonempty square matrix")
    d = A.shape[0]
    if _checked_array("d", payload.get("d", d), ()) != d:
        raise DataError(f"model field 'd' is {payload['d']!r}; A is {d} x {d}")
    if pipeline == "grey" and "c" not in payload:
        raise DataError("model field 'c' is missing; a grey model carries "
                        "a constant")
    return FittedModel(
        A=A,
        B=_checked_array("B", payload["B"], (d, spec.dimension)),
        c=_checked_array("c", payload["c"], (d,)) if "c" in payload else None,
        eta=_checked_array("eta", payload["eta"], (d,)),
        spec=spec,
        t1=float(_checked_array("t1", payload.get("t1", 0.0), ())),
        pipeline=pipeline,
        residual_norm=float(_checked_array(
            "residual_norm", payload.get("residual_norm", 0.0), ())),
        strategy=options.get("strategy"),
        background_lambda=options.get("background_lambda"),
    )
