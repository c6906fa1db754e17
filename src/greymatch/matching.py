"""Integral matching: estimate the reduced-order model dx/dt = A x + B u + c
directly on the raw series, with the initial value as a joint regression
parameter.

This is the grey pipeline's regression (grey.integral_regression) with the
trapezoid rule: the trapezoid integral of the observed series supplies the
A-block of the design; forcing components enter through their
antiderivatives U(t_k) - U(t_1); an optional constant term rides along as a
ramp t_k - t_1.  The intercept estimates x(t_1).
"""

from . import series as _series
from .grey import (FittedModel, fit_grey, integral_regression, predict_on_grid,
                   read_config, time_response)

# bench/workloads.py calls the response by this name.
matching_time_response = time_response


def fit_matching(raw, spec, include_constant=True):
    """Jointly estimate structure and initial value by least squares; a
    stack of series gives one model per slice (see grey.FittedModel)."""
    x = raw.values
    t = raw.grid.points
    U = spec.antiderivatives(t)
    integral = _series.integrate_piecewise_linear(raw).values - x[..., :1, :]
    A, B, rest, residual = integral_regression(
        raw, integral[..., 1:, :], U[1:] - U[0],
        t[1:] - t[0] if include_constant else None)
    c = rest[..., 0, :] if include_constant else None
    return FittedModel(A, B, c, rest[..., -1, :], spec, float(t[0]), "matching",
                       residual)


def fit_config(raw, config):
    """Fit the model a config describes (see grey.read_config) to a raw
    series, by the pipeline its "model" key names."""
    pipeline, spec, options = read_config(config)
    return (fit_grey if pipeline == "grey" else fit_matching)(raw, spec, **options)


def matching_forecast(raw, spec, horizon=0, include_constant=True, model=None):
    """Fit and evaluate over the data grid extended by `horizon` steps.

    No restore step is needed; the model lives on the original scale.
    """
    if model is None:
        model = fit_matching(raw, spec, include_constant)
    return predict_on_grid(model, raw.grid.extended(horizon))
