"""Dense small-matrix utilities: least squares, matrix exponentials, the
exact time response of a linear system driven by an exosystem, and a
Simpson convolution integral kept as an independent check of it.

Everything here works on plain numpy arrays.  Matrices are small (the rest
of the package uses d <= 2 state dimensions and a handful of forcing
columns), so clarity wins over cleverness throughout.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import AlignmentError, SingularDesignError
from .series import UNIFORM_RTOL

# Numerical rank threshold, relative to the largest singular value.
RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class LeastSquaresSolution:
    """Minimizer of ||targets - design @ coefficients||_F."""

    coefficients: np.ndarray
    residual_norm: float
    condition_estimate: float


def solve_least_squares(design, targets):
    """Solve an overdetermined linear system in the least-squares sense.

    Uses an orthogonal (SVD) factorization rather than forming the normal
    equations, which matters because cumulative-sum regressors tend to be
    strongly collinear.

    Raises SingularDesignError when the numerical rank of the design falls
    below its column count at a relative tolerance of 1e-10.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    targets = np.asarray(targets, dtype=float)
    flat_target = targets.ndim == 1
    if flat_target:
        targets = targets[:, None]
    rows, cols = design.shape
    if rows < cols:
        raise SingularDesignError(
            f"design has {rows} rows but {cols} columns; system is underdetermined"
        )
    if targets.shape[0] != rows:
        raise ValueError(
            f"targets have {targets.shape[0]} rows, design has {rows}"
        )
    if not (np.isfinite(design).all() and np.isfinite(targets).all()):
        raise ValueError("design and targets must be finite")

    coeffs, _, _, singular_values = np.linalg.lstsq(design, targets, rcond=None)
    smax = singular_values[0] if len(singular_values) else 0.0
    rank = int(np.sum(singular_values > RANK_TOLERANCE * smax)) if smax > 0 else 0
    if rank < cols:
        raise SingularDesignError(
            f"design is rank-deficient: {cols - rank} of {cols} columns redundant"
        )
    residual = float(np.linalg.norm(targets - design @ coeffs))
    condition = float(singular_values[0] / singular_values[-1])
    if flat_target:
        coeffs = coeffs[:, 0]
    return LeastSquaresSolution(coeffs, residual, condition)


def matrix_exponential(matrix, scale=1.0):
    """exp(scale * matrix) via scaling-and-squaring (Pade approximant)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix exponential needs a square matrix, got {matrix.shape}")
    return expm(scale * matrix)


def convolution_integral(a_matrix, forcing, t_from, t_to, steps):
    """Composite-Simpson approximation of

        int_{t_from}^{t_to} exp(A (t_from - s)) f(s) ds

    over 2*steps panels.  `forcing` is a callable mapping a time to a
    d-vector.  Fourth-order accurate in the panel width.
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    if a_matrix.ndim != 2 or a_matrix.shape[0] != a_matrix.shape[1]:
        raise ValueError("A must be square")
    if t_to < t_from:
        raise ValueError("t_to must be >= t_from")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    d = a_matrix.shape[0]
    if t_to == t_from:
        return np.zeros(d)

    panels = 2 * int(steps)
    nodes = np.linspace(t_from, t_to, panels + 1)
    delta = (t_to - t_from) / panels
    # exp(A (t_from - s_j)) = P^j with P = exp(-A delta); iterate powers.
    step_kernel = expm(-a_matrix * delta)
    kernel = np.eye(d)
    weighted = np.zeros(d)
    for j, s in enumerate(nodes):
        w = 1.0 if j in (0, panels) else (4.0 if j % 2 else 2.0)
        weighted += w * (kernel @ np.asarray(forcing(float(s)), dtype=float))
        kernel = kernel @ step_kernel
    return weighted * delta / 3.0


def exosystem_response(a_matrix, gain, constant, exosystem, eta, t1, times):
    """Exact solution of z' = A z + G w(t) + c, z(t1) = eta, at given times,
    where the forcing state w follows an exosystem w' = S w
    (basis.Exosystem).  Pass constant=None for no c.

    z and w march together through exp([[A, G, c], [0, S, 0], [0, 0, 0]] dt)
    (Van Loan, IEEE TAC 23(3), 1978), so no quadrature error enters.  The
    march runs outward from t1, forward to later times and backward to
    earlier ones, and re-reads w at each knot of the exosystem on the way.
    A step exponential is reused while the steps agree to UNIFORM_RTOL, so
    equally spaced times cost one exponential.  Times outside the
    exosystem's domain raise AlignmentError.  Returns an array of shape
    (len(times), d).
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    eta = np.asarray(eta, dtype=float)
    times = np.asarray(times, dtype=float)
    lo, hi = exosystem.domain
    reached = np.append(times, t1)
    outside = reached[(reached < lo - 1e-12) | (reached > hi + 1e-12)]
    if outside.size:
        raise AlignmentError(
            f"t={outside[0]} outside the forcing's sample range [{lo}, {hi}]"
        )
    d, m = len(eta), len(exosystem.generator)
    tail = np.ones(0 if constant is None else 1)
    gen = np.zeros((d + m + len(tail), d + m + len(tail)))
    gen[:d, :d] = a_matrix
    gen[:d, d:d + m] = gain
    gen[d:d + m, d:d + m] = exosystem.generator
    if constant is not None:
        gen[:d, -1] = constant
    out = np.empty((len(times), d))
    knots = exosystem.knots
    for forward in (True, False):
        sign = 1.0 if forward else -1.0
        targets = np.flatnonzero((times >= t1) == forward)
        if not targets.size:
            continue
        reach = sign * (knots - t1)
        inner = knots[(reach > 0) & (reach < (sign * (times[targets] - t1)).max())]
        # a knot sorts before a target at the same time; z is continuous there
        stop_times = np.concatenate([inner, times[targets]])
        stop_index = np.concatenate([np.full(len(inner), -1), targets])
        order = np.argsort(sign * stop_times, kind="stable")
        state = np.concatenate([eta, exosystem.state(t1, forward), tail])
        at, h = t1, None
        for t, k in zip(stop_times[order].tolist(), stop_index[order].tolist()):
            if t != at:
                if h is None or abs(t - at - h) > UNIFORM_RTOL * abs(h):
                    h = t - at
                    step = expm(gen * h)
                state = step @ state
                at = t
            if k < 0:
                state[d:d + m] = exosystem.state(t, forward)
            else:
                out[k] = state[:d]
    return out
