"""Executable checks of the structural facts the two pipelines rest on:
translation invariance of the grey fit, the order-reduction map between the
cusum-side and raw-side models, and the exact parameter correspondence
between the two estimators on equally spaced autonomous data.
"""

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from . import basis as _basis
from . import grey as _grey
from . import matching as _matching
from . import numerics as _numerics
from . import series as _series
from .errors import DataError


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one numerical identity check."""

    check_name: str
    max_abs_discrepancy: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


def _report(name, details, tolerance):
    worst = max(details.values()) if details else 0.0
    return EquivalenceReport(name, float(worst), float(tolerance),
                             bool(worst <= tolerance), dict(details))


def reduce_order(A, B, c, xi, spec, t1=0.0):
    """Initial value of the reduced model: x(t1) = A xi + B u(t1) + c."""
    x1 = A @ np.asarray(xi, dtype=float) + np.asarray(c, dtype=float)
    if spec.dimension:
        x1 = x1 + B @ spec.values(np.array([t1]))[0]
    return x1


def recover_constant(A, B, x1, xi, spec, t1=0.0):
    """Inverse of reduce_order: c = x(t1) - A xi - B u(t1)."""
    c = np.asarray(x1, dtype=float) - A @ np.asarray(xi, dtype=float)
    if spec.dimension:
        c = c - B @ spec.values(np.array([t1]))[0]
    return c


def check_translation_invariance(raw, spec, strategy="fixed_first", shift=None,
                                 tol_params=1e-9, tol_values=1e-8):
    """Adding `shift` to the first raw observation translates the cusum
    series; the fitted A and B must not move, c must move by -A*shift, and
    the restored values from the second point on must be unchanged.

    Value invariance holds for the fixed_first, fixed_last and
    least_squares strategies, whose initial values co-translate with the
    data.  The reduced_consistent and reduced_half_step rules map the
    initial value through (I - A)^{-1}, so it moves by -(I - A)^{-1} A shift
    rather than by the shift, and only their structural invariances hold.
    """
    shift = np.zeros(raw.d) if shift is None else np.asarray(shift, dtype=float)
    shifted_values = raw.values.copy()
    shifted_values[0] += shift
    shifted = _series.VectorSeries(raw.grid, shifted_values)

    base = _grey.fit_grey(raw, spec, strategy)
    moved = _grey.fit_grey(shifted, spec, strategy)
    restored_base = _grey.predict_on_grid(base, raw.grid)
    restored_moved = _grey.predict_on_grid(moved, raw.grid)

    details = {
        "A": float(np.abs(moved.A - base.A).max()),
        "B": float(np.abs(moved.B - base.B).max()) if base.B.size else 0.0,
        "c_shifted_by_A_shift": float(np.abs((moved.c + moved.A @ shift) - base.c).max()),
        "restored_from_second_point": float(
            np.abs(restored_moved.values[1:] - restored_base.values[1:]).max()
        ),
    }
    # parameter identities at tol_params, restored values at tol_values
    worst_param = max(details["A"], details["B"], details["c_shifted_by_A_shift"])
    passed = worst_param <= tol_params and details["restored_from_second_point"] <= tol_values
    return EquivalenceReport(
        "translation_invariance",
        float(max(worst_param, details["restored_from_second_point"])),
        float(max(tol_params, tol_values)),
        bool(passed),
        details,
    )


def check_proposition_equal_spacing(raw, tolerance=1e-9):
    """On equally spaced data with no forcing, the two estimators share the
    structural matrix exactly, and the matching initial value equals
    c + (1 - h/2) A x(t_1) from the grey fit.
    """
    if not raw.grid.is_uniform():
        raise DataError("the parameter correspondence requires an equally "
                        "spaced series")
    h = float(raw.grid.points[1] - raw.grid.points[0]) if raw.n > 1 else 1.0
    spec = _basis.ZeroForcing()
    g = _grey.fit_grey(raw, spec, strategy="fixed_first")
    m = _matching.fit_matching(raw, spec, include_constant=False)
    x1 = raw.values[0]
    predicted_eta = g.c + g.A @ x1 - (h / 2.0) * (g.A @ x1)
    scale = max(1.0, float(np.abs(g.A).max()))
    details = {
        "A_relative": float(np.abs(g.A - m.A).max()) / scale,
        "eta_identity": float(np.abs(m.eta - predicted_eta).max()),
    }
    return _report("equal_spacing_parameter_correspondence", details, tolerance)


def check_reduction_roundtrip(A, B, c, xi, spec, grid, tolerance=1e-6,
                              steps_per_unit=50):
    """Verify both directions of the order reduction on a known system.

    Forward: along the cusum-side trajectory y, the reduced trajectory must
    equal A y + B u + c pointwise.  Backward: integrating the reduced
    trajectory from xi must recover y at every grid point.

    The reduced trajectory solves x' = A x + B u'(t), x(t1) = A xi + B u(t1)
    + c, and is propagated exactly: u' is the output C S w of the same
    exosystem w' = S w that gives u = C w.  The backward integral is a
    composite Simpson rule with steps_per_unit steps per time unit, so it
    checks the propagator independently.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    xi = np.asarray(xi, dtype=float)
    t = grid.points
    t1 = float(t[0])

    y = _grey.linear_response(A, B, c, spec, xi, t1, t)
    x1 = reduce_order(A, B, c, xi, spec, t1)
    exo = spec.exosystem()
    gain = B @ exo.output @ exo.generator

    def x_at(times):
        return _numerics.exosystem_response(A, gain, None, exo, x1, t1, times)

    x = x_at(t)
    u = spec.values(t) if spec.dimension else np.zeros((len(t), 0))
    derivative_of_y = y @ A.T + c
    if spec.dimension:
        derivative_of_y = derivative_of_y + u @ B.T
    forward_gap = float(np.abs(x - derivative_of_y).max())

    backward_gap = 0.0
    for k, tk in enumerate(t):
        if tk == t1:
            integral = np.zeros(len(xi))
        else:
            steps = max(1, ceil(steps_per_unit * (tk - t1)))
            integral = _simpson_values(x_at, t1, tk, steps)
        backward_gap = max(backward_gap, float(np.abs(xi + integral - y[k]).max()))

    details = {"reduced_equals_derivative": forward_gap,
               "cusum_of_reduced_recovers_full": backward_gap}
    return _report("order_reduction_roundtrip", details, tolerance)


def _simpson_values(fn_of_times, a, b, steps):
    """Composite Simpson rule; the integrand is evaluated in one vectorized
    call over all quadrature nodes."""
    panels = 2 * steps
    nodes = np.linspace(a, b, panels + 1)
    values = fn_of_times(nodes)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (b - a) / (3.0 * panels) * (weights[:, None] * values).sum(axis=0)


def scalar_closed_form(a, forcing_poly, eta, t1=0.0):
    """Closed form of dz/dt = a z + g(t), z(t1) = eta, for scalar a and
    polynomial g given by ascending coefficients.

    Returns (particular_coefficients, exponential_coefficient) so that
    z(t) = sum_j p_j t^j + C exp(a t).  Requires a != 0.
    """
    if a == 0.0:
        raise ValueError("closed form requires a nonzero decay coefficient")
    g = list(forcing_poly)
    q = len(g) - 1
    p = [0.0] * (q + 1)
    for j in range(q, -1, -1):
        higher = (j + 1) * p[j + 1] if j < q else 0.0
        p[j] = (higher - g[j]) / a
    particular = np.polynomial.polynomial.polyval(t1, p)
    exp_coeff = (eta - particular) * np.exp(-a * t1)
    return np.array(p), float(exp_coeff)
