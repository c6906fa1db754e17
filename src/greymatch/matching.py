"""Integral matching: estimate the reduced-order model dx/dt = A x + B u + c
directly on the raw series, with the initial value as a joint regression
parameter.

The trapezoid integral of the observed series supplies the A-block of the
design; forcing components enter through their antiderivatives U(t_k) -
U(t_1); an optional constant term rides along as a forcing column whose
antiderivative is t itself.  The remaining intercept column estimates
x(t_1).
"""

import numpy as np

from . import basis as _basis
from . import numerics as _numerics
from . import series as _series
from .errors import InsufficientDataError
from .grey import FittedModel, predict_on_grid, time_response

# bench/workloads.py calls the response by this name.
matching_time_response = time_response


def build_matching_regression(raw, forcing, include_constant=True):
    """Design and target matrices of the integrated reduced model.

    Rows k = 2..n:  [trapezoid integral of x up to t_k,
                     U(t_k) - U(t_1) per forcing column,
                     t_k - t_1 when a constant term is included,
                     1]
    against x(t_k).
    """
    x = raw.values
    t = raw.grid.points
    n, d = x.shape
    p = forcing.values.shape[1]
    cols = d + p + (1 if include_constant else 0) + 1
    if n - 1 < cols:
        raise InsufficientDataError(
            f"need at least {cols + 1} points for this model; got {n}"
        )
    integral = _series.integrate_piecewise_linear(raw).values - x[0]
    blocks = [integral[1:]]
    if p:
        U = forcing.antiderivatives
        blocks.append(U[1:] - U[0])
    if include_constant:
        blocks.append((t[1:] - t[0])[:, None])
    blocks.append(np.ones((n - 1, 1)))
    design = np.column_stack(blocks)
    targets = x[1:]
    return design, targets


def fit_matching(raw, spec, include_constant=True):
    """Jointly estimate structure and initial value by least squares."""
    sample = _basis.evaluate_forcing(spec, raw.grid)
    design, targets = build_matching_regression(raw, sample, include_constant)
    solution = _numerics.solve_least_squares(design, targets)
    d = raw.d
    p = spec.dimension
    stacked = solution.coefficients  # rows: A^T | B^T | c^T? | eta^T
    A = stacked[:d].T
    B = stacked[d:d + p].T if p else np.zeros((d, 0))
    row = d + p
    c = stacked[row] if include_constant else None
    row += 1 if include_constant else 0
    eta = stacked[row]
    return FittedModel(A, B, c, eta, spec, float(raw.grid.points[0]), "matching",
                       solution.residual_norm)


def matching_forecast(raw, spec, horizon=0, include_constant=True, model=None):
    """Fit and evaluate over the data grid extended by `horizon` steps.

    No restore step is needed; the model lives on the original scale.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if model is None:
        model = fit_matching(raw, spec, include_constant)
    return predict_on_grid(model, raw.grid.extended(horizon))
