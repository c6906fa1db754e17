"""The grey pipeline: cusum the raw series, fit the structural parameters of
dy/dt = A y + B u(t) + c by a weighted-trapezoid regression, choose an
initial value, evaluate the time response and restore to the original scale.

The fitted-model record, its time response, its predictions and its JSON
form live here too and serve both pipelines: integral matching fits the
same family on the raw scale.
"""

from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from . import numerics as _numerics
from . import series as _series
from .errors import (DataError, InsufficientDataError, OverflowGuardError,
                     StrategyError)

INITIAL_STRATEGIES = ("fixed_first", "fixed_last", "least_squares",
                      "reduced_consistent", "reduced_half_step")
PIPELINES = ("grey", "matching")

# Spectral-norm * time-span budget beyond which exp(A t) is refused.
RESPONSE_NORM_BUDGET = 50.0


@dataclass(frozen=True)
class FittedModel:
    """Fitted dz/dt = A z + B u(t) + c, z(t1) = eta, from either pipeline.

    pipeline "grey" fits the cusum scale, so its predictions are restored
    by the inverse cusum; "matching" fits the raw scale.  c is None for a
    model without a constant term.  strategy (the initial-value rule) and
    background_lambda (the weight of the earlier point of each interval in
    the background-value blend) record how a grey fit was made; they are
    None on matching fits.
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
        return self.A.shape[0]


def build_grey_regression(y, forcing, background_lambda=0.5):
    """Design and target matrices of the discretized cusum-side model.

    Rows k = 2..n:  [lam*y(t_{k-1}) + (1-lam)*y(t_k),
                     lam*u(t_{k-1}) + (1-lam)*u(t_k),  1]
    against difference quotients (y(t_k) - y(t_{k-1})) / h_k.
    """
    lam = background_lambda
    yv = y.values
    n, d = yv.shape
    p = forcing.values.shape[1]
    if n - 1 < d + p + 1:
        raise InsufficientDataError(
            f"need at least {d + p + 2} points for d={d}, p={p}; got {n}"
        )
    background = lam * yv[:-1] + (1.0 - lam) * yv[1:]
    blocks = [background]
    if p:
        u = forcing.values
        blocks.append(lam * u[:-1] + (1.0 - lam) * u[1:])
    blocks.append(np.ones((n - 1, 1)))
    design = np.column_stack(blocks)
    h = y.grid.intervals[1:]
    targets = (yv[1:] - yv[:-1]) / h[:, None]
    return design, targets


def fit_grey(raw, spec, strategy="fixed_first", background_lambda=0.5):
    """Fit the grey model to a raw series (the cusum happens internally).

    background_lambda weights the earlier point of each interval in the
    background-value blend; 0.5 is the trapezoid rule used throughout the
    literature.
    """
    if strategy not in INITIAL_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {INITIAL_STRATEGIES}")
    if not 0.0 <= background_lambda <= 1.0:
        raise ValueError("background_lambda must lie in [0, 1]")
    y = _series.cusum(raw)
    sample = _basis.evaluate_forcing(spec, y.grid)
    design, targets = build_grey_regression(y, sample, background_lambda)
    solution = _numerics.solve_least_squares(design, targets)
    d = raw.d
    p = spec.dimension
    stacked = solution.coefficients  # rows: A^T | B^T | c^T
    A = stacked[:d].T
    B = stacked[d:d + p].T if p else np.zeros((d, 0))
    c = stacked[d + p]
    eta = select_initial_value(y, A, B, c, spec, strategy)
    return FittedModel(A, B, c, eta, spec, float(y.grid.points[0]), "grey",
                       solution.residual_norm, strategy, background_lambda)


def linear_response(a_matrix, b_matrix, constant, spec, eta, t1, times):
    """Solution of dz/dt = A z + B u(t) + c, z(t1) = eta, at given times.

    The forcing spec is written as its exosystem and marched exactly with
    the state (numerics.exosystem_response) for every forcing kind; times
    before t1 march backward.  Pass constant=None for a model without c.
    Raises OverflowGuardError when |A|_2 times the largest |t - t1| exceeds
    RESPONSE_NORM_BUDGET, and AlignmentError at times outside the sample
    range of exogenous forcing.
    """
    times = np.asarray(times, dtype=float)
    span = float(np.max(np.abs(times - t1), initial=0.0))
    norm = float(np.linalg.norm(a_matrix, 2)) if a_matrix.size else 0.0
    if norm * span > RESPONSE_NORM_BUDGET:
        raise OverflowGuardError(
            f"|A| * span = {norm * span:.1f} exceeds the stability budget "
            f"{RESPONSE_NORM_BUDGET}; refusing to exponentiate"
        )
    exo = spec.exosystem()
    return _numerics.exosystem_response(a_matrix, b_matrix @ exo.output, constant,
                                        exo, eta, t1, times)


def _half_step_forcing_constant(grid, B, spec):
    """The term c~ of the reduced_half_step strategy: B u'(-h/2), the value
    at t = 0 of B u'(t - h/2) on a grid of common spacing h."""
    if not spec.dimension:
        return np.zeros(B.shape[0])
    if not spec.exosystem().is_polynomial:
        raise StrategyError("reduced_half_step needs polynomial forcing; "
                            f"got {type(spec).__name__}")
    if len(grid) < 2 or not grid.is_uniform():
        raise StrategyError("reduced_half_step needs an equally spaced grid "
                            "of at least two points")
    h = float(grid.points[1] - grid.points[0])
    return B @ spec.derivatives(np.array([-h / 2.0]))[0]


def select_initial_value(y, A, B, c, spec, strategy):
    """Choose the integration constant eta for the fitted structure.

    fixed_first anchors at the first cusum value, fixed_last at the final
    one, least_squares minimizes the cusum-scale squared error (a linear
    problem since the response is affine in eta), and reduced_consistent
    takes the value implied by the equivalent reduced-order model,
    (I - A)^{-1} (c + B u(t1)).

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
    if strategy == "fixed_first":
        return y.values[0].copy()
    if strategy in ("reduced_consistent", "reduced_half_step"):
        rhs = c + (B @ spec.values(np.array([t1]))[0] if spec.dimension else 0.0)
        if strategy == "reduced_half_step":
            rhs = rhs + _half_step_forcing_constant(y.grid, B, spec)
        eye_minus = np.eye(len(c)) - A
        try:
            return np.linalg.solve(eye_minus, rhs)
        except np.linalg.LinAlgError as exc:
            raise StrategyError(f"I - A is singular; {strategy} "
                                "strategy not applicable") from exc
    if strategy == "fixed_last":
        return linear_response(A, B, c, spec, y.values[-1], float(t[-1]),
                               np.array([t1]))[0]
    if strategy == "least_squares":
        # the response is affine in eta: exp(A (t - t1)) eta + forced(t)
        forced = linear_response(A, B, c, spec, np.zeros(len(c)), t1, t)
        design = np.vstack([_numerics.matrix_exponential(A, tk - t1) for tk in t])
        target = (y.values - forced).reshape(-1)
        return _numerics.solve_least_squares(design, target).coefficients
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
    response = time_response(model, grid.points)
    if model.pipeline == "grey":
        return _series.inverse_cusum(_series.VectorSeries(grid, response.values))
    return response


def grey_forecast(raw, spec, strategy="fixed_first", horizon=0, model=None):
    """Full pipeline: cusum, fit, respond over the extended grid, restore.

    Returns the fitted-plus-forecast series on the original scale, length
    n + horizon.  Pass a pre-fitted `model` to skip refitting.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
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
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"model field {key!r} is not numeric") from exc
    if shape is not None and array.shape != shape:
        raise DataError(f"model field {key!r} has shape {array.shape}; "
                        f"expected {shape}")
    if not np.isfinite(array).all():
        raise DataError(f"model field {key!r} holds a non-finite value")
    return array


def model_from_dict(payload):
    """Inverse of model_to_dict for either pipeline.

    Raises DataError, naming the field, unless A is a square d x d matrix,
    B is d x (forcing dimension), eta and c have length d, c is present for
    a grey model, and every value is finite.  Payloads that still carry the
    retired quadrature_steps_per_unit key load; the key is ignored.
    """
    pipeline = payload.get("model")
    if pipeline not in PIPELINES:
        raise ValueError(f"model file has unknown kind {pipeline!r}")
    spec = _basis.spec_from_config(payload["forcing"])
    A = _checked_array("A", payload["A"])
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise DataError(f"model field 'A' has shape {A.shape}; expected a "
                        "nonempty square matrix")
    d = A.shape[0]
    grey = pipeline == "grey"
    if grey and "c" not in payload:
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
        strategy=payload["strategy"] if grey else None,
        background_lambda=float(_checked_array(
            "lambda", payload.get("lambda", 0.5), ())) if grey else None,
    )
