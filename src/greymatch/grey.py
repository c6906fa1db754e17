"""The grey pipeline: cusum the raw series, fit the structural parameters of
dy/dt = A y + B u(t) + c by a weighted-trapezoid regression, choose an
initial value, evaluate the time response and restore to the original scale.
"""

from dataclasses import dataclass, field

import numpy as np

from . import basis as _basis
from . import numerics as _numerics
from . import series as _series
from .errors import InsufficientDataError, OverflowGuardError, StrategyError

INITIAL_STRATEGIES = ("fixed_first", "fixed_last", "least_squares",
                      "reduced_consistent", "reduced_half_step")

# Spectral-norm * time-span budget beyond which exp(A t) is refused.
RESPONSE_NORM_BUDGET = 50.0


@dataclass(frozen=True)
class GreyFitConfig:
    """Hyperparameters of the grey fit.

    background_lambda weights the earlier point of each interval in the
    background-value blend; 0.5 is the trapezoid rule used throughout the
    literature.
    """

    background_lambda: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.background_lambda <= 1.0:
            raise ValueError("background_lambda must lie in [0, 1]")


@dataclass(frozen=True)
class GreyModel:
    """Fitted cusum-side model dy/dt = A y + B u + c with initial value eta."""

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    eta: np.ndarray
    spec: object
    strategy: str
    config: GreyFitConfig = field(default_factory=GreyFitConfig)
    residual_norm: float = 0.0
    t1: float = 0.0

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


def fit_grey(raw, spec, config=None, strategy="fixed_first"):
    """Fit the grey model to a raw series (the cusum happens internally)."""
    if strategy not in INITIAL_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {INITIAL_STRATEGIES}")
    config = config or GreyFitConfig()
    y = _series.cusum(raw)
    sample = _basis.evaluate_forcing(spec, y.grid)
    design, targets = build_grey_regression(y, sample, config.background_lambda)
    solution = _numerics.solve_least_squares(design, targets)
    d = raw.d
    p = spec.dimension
    stacked = solution.coefficients  # rows: A^T | B^T | c^T
    A = stacked[:d].T
    B = stacked[d:d + p].T if p else np.zeros((d, 0))
    c = stacked[d + p]
    eta = select_initial_value(y, A, B, c, spec, strategy)
    return GreyModel(A, B, c, eta, spec, strategy, config, solution.residual_norm,
                     t1=float(y.grid.points[0]))


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


def grey_time_response(model, times):
    """Cusum-scale response of a fitted grey model at the given times."""
    values = linear_response(model.A, model.B, model.c, model.spec, model.eta,
                             model.t1, np.asarray(times, dtype=float))
    return _series.make_series(times, values)


def grey_forecast(raw, spec, config=None, strategy="fixed_first", horizon=0,
                  model=None):
    """Full pipeline: cusum, fit, respond over the extended grid, restore.

    Returns the fitted-plus-forecast series on the original scale, length
    n + horizon.  Pass a pre-fitted `model` to skip refitting.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if model is None:
        model = fit_grey(raw, spec, config, strategy)
    grid = raw.grid.extended(horizon)
    yhat = grey_time_response(model, grid.points)
    return _series.inverse_cusum(_series.VectorSeries(grid, yhat.values))


def predict_on_grid(model, grid):
    """Original-scale predictions of a grey model on an arbitrary grid."""
    yhat = grey_time_response(model, grid.points)
    return _series.inverse_cusum(_series.VectorSeries(grid, yhat.values))


def model_to_dict(model):
    """JSON-ready dictionary; floats survive the round trip losslessly."""
    return {
        "model": "grey",
        "d": model.d,
        "forcing": _basis.spec_to_config(model.spec),
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "c": model.c.tolist(),
        "eta": model.eta.tolist(),
        "strategy": model.strategy,
        "lambda": model.config.background_lambda,
        "t1": model.t1,
        "residual_norm": model.residual_norm,
    }


def model_from_dict(payload):
    config = GreyFitConfig(background_lambda=payload.get("lambda", 0.5))
    return GreyModel(
        A=np.array(payload["A"], dtype=float),
        B=np.array(payload["B"], dtype=float).reshape(len(payload["A"]), -1),
        c=np.array(payload["c"], dtype=float),
        eta=np.array(payload["eta"], dtype=float),
        spec=_basis.spec_from_config(payload["forcing"]),
        strategy=payload["strategy"],
        config=config,
        residual_norm=payload.get("residual_norm", 0.0),
        t1=payload.get("t1", 0.0),
    )
