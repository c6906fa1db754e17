"""Dense small-matrix utilities: least squares, a batched matrix
exponential, the exact time response of a linear system driven by an
exosystem, and a composite Simpson rule with which theory checks that
response independently.

Everything here works on plain numpy arrays; numpy is the only runtime
dependency.  Matrices are small (the rest of the package uses d <= 2 state
dimensions and a handful of forcing columns), so per-call overhead, not
flops, sets the cost.  Each function therefore takes a stack of problems
along a leading axis, one per slice (a Monte Carlo block of replications),
and does the same operations on each slice as a call on it alone, so a
single problem is the one-slice case: `solve_least_squares` solves a stack
of designs by one stacked SVD, `expm` exponentiates a stack of matrices by
one Pade approximant with scaling and squaring, and the response march
moves a stack of states through each run of equal steps with one step
exponential, by doubling, in a few stacked products; the knots of sampled
forcing inside a run enter as kicks of one prefix scan, so the march makes
no stop per knot.  A slice that fails is reported through errors.fail.
"""

from bisect import bisect_left
from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from .errors import AlignmentError, SingularDesignError, fail
from .series import UNIFORM_RTOL

# Numerical rank threshold, relative to the largest singular value.
RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class LeastSquaresSolution:
    """Minimizer of ||targets - design @ coefficients||_F; for a stack of
    problems, one per slice of the leading axis, each field gains that
    axis."""

    coefficients: np.ndarray
    residual_norm: float
    condition_estimate: float


def solve_least_squares(design, targets):
    """Solve an overdetermined linear system in the least-squares sense.

    Uses an orthogonal (SVD) factorization rather than forming the normal
    equations, which matters because cumulative-sum regressors tend to be
    strongly collinear.  design may be a stack (R, rows, cols) with targets
    (R, rows[, k]); each slice is solved as it would be alone.

    A design whose numerical rank falls below its column count at a
    relative tolerance of 1e-10 fails with SingularDesignError; a failed
    slice of a stack gets zero coefficients (errors.fail).
    """
    design = np.asarray(design, dtype=float)
    if design.ndim == 1:
        design = design[None]
    targets = np.asarray(targets, dtype=float)
    flat_target = targets.ndim == design.ndim - 1
    if flat_target:
        targets = targets[..., None]
    rows, cols = design.shape[-2:]
    if rows < cols:
        raise SingularDesignError(
            f"design has {rows} rows but {cols} columns; system is underdetermined"
        )
    if targets.shape[-2] != rows:
        raise ValueError(
            f"targets have {targets.shape[-2]} rows, design has {rows}"
        )
    if not (np.isfinite(design).all() and np.isfinite(targets).all()):
        raise ValueError("design and targets must be finite")

    left, singular_values, right = np.linalg.svd(design, full_matrices=False)
    largest, smallest = singular_values[..., 0], singular_values[..., -1]
    deficient = smallest <= RANK_TOLERANCE * largest
    if deficient.any():
        redundant = cols - np.count_nonzero(
            singular_values > RANK_TOLERANCE * largest[..., None], axis=-1)
        fail(deficient, SingularDesignError, "design is rank-deficient: "
             f"{np.max(redundant)} of {cols} columns redundant")
        # a masked slice: zero coefficients, infinite condition estimate
        singular_values = np.where(deficient[..., None], np.inf, singular_values)
        largest = np.where(deficient, np.inf, largest)
        smallest = np.where(deficient, 1.0, smallest)
    coeffs = right.swapaxes(-1, -2) @ (
        (left.swapaxes(-1, -2) @ targets) / singular_values[..., None])
    residual = np.sqrt(np.square(targets - design @ coeffs).sum(axis=(-2, -1)))
    condition = largest / smallest
    if flat_target:
        coeffs = coeffs[..., 0]
    return LeastSquaresSolution(coeffs, residual[()], condition[()])


# The [13/13] Pade approximant of exp, V + U over V - U with
# V = sum b_2j A^2j and U = A sum b_2j+1 A^2j, is accurate to double
# precision for 1-norms up to theta_13 (Higham, SIAM J. Matrix Anal. Appl.
# 26(4), 2005, Table 2.3).  b_j = (26 - j)! / (j! (13 - j)!), here divided
# by b_0, so the constant term is 1 and exp(0) = I exactly.
PADE_THETA = 5.371920351148152
_PADE_COEFFICIENTS = [factorial(26 - j) * factorial(13)
                      / (factorial(26) * factorial(j) * factorial(13 - j))
                      for j in range(14)]


def expm(a):
    """exp(a) of a square matrix or a stack of them, shape (..., n, n).

    Pade scaling and squaring (Higham 2005) with one approximant: each
    matrix is scaled by 2^-s, s the fewest halvings that bring its 1-norm
    within theta_13, put through the [13/13] approximant and squared s
    times.  A slice of a stack gets the same operations as a call on it
    alone.  A 1x1 matrix is the scalar exponential of its entry.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix exponential needs square matrices, got {a.shape}")
    n = a.shape[-1]
    stack = a.reshape(prod(a.shape[:-2]), n, n)
    norms = np.abs(stack).sum(axis=1).max(axis=1, initial=0.0)
    if not np.isfinite(norms).all():
        raise ValueError("matrix exponential needs finite entries")
    if n == 1:
        return np.exp(a)
    squarings = np.ceil(np.log2(np.maximum(norms / PADE_THETA, 1.0)))
    scaled = stack / np.exp2(squarings)[:, None, None]
    # Higham's even/odd split: the powers stop at A^6 and the higher ones
    # enter as A^6 times a sum.  The sums are formed entry by entry, so
    # every slice gets the same roundings however many others share the
    # stack.
    b, ident = _PADE_COEFFICIENTS, np.eye(n)
    a2 = scaled @ scaled
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = scaled @ (b[1] * ident + b[3] * a2 + b[5] * a4 + b[7] * a6
                  + a6 @ (b[9] * a2 + b[11] * a4 + b[13] * a6))
    v = (b[0] * ident + b[2] * a2 + b[4] * a4 + b[6] * a6
         + a6 @ (b[8] * a2 + b[10] * a4 + b[12] * a6))
    power = np.linalg.solve(v - u, v + u)
    for level in range(int(squarings.max(initial=0.0))):
        power = np.where((squarings > level)[:, None, None], power @ power, power)
    return power.reshape(a.shape)


def simpson_integral(fn_of_times, a, b, steps):
    """Composite Simpson approximation of int_a^b f(s) ds over 2*steps
    panels, fourth-order accurate in the panel width.  fn_of_times maps an
    array of times to an array of values, one row per time, and is called
    once on all the nodes."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    panels = 2 * steps
    nodes = np.linspace(a, b, panels + 1)
    values = fn_of_times(nodes)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (b - a) / (3.0 * panels) * (weights[:, None] * values).sum(axis=0)


def _march(step, state, count, kicks=None):
    """States s_1, ..., s_count of s_k = step s_(k-1) + kicks_k from
    s_0 = state, for a stack of step matrices and states: shape
    (..., count, D); kicks (count, D) is shared by the stack, or
    (..., count, D) gives each slice its own.

    Without kicks, doubling on the states: once the first m states are
    made, the power step^m maps them to the next m in one stacked product,
    and is then squared; about 2 log2(count) products in all, and no stack
    of powers held in memory.  With kicks, the doubling (prefix) scan of
    the affine recurrence (Blelloch, "Prefix sums and their applications",
    1990): row k starts as kick k (row 1 also takes step s_0), and the
    round with power step^r adds step^r times row k - r, after which row k
    sums step^(k-j) kick_j over its last 2r inputs; about log2(count)
    rounds of one stacked product and one squaring finish every row.
    """
    if kicks is None:
        states = state[..., None, :] @ step.swapaxes(-1, -2)
        power = step
        while (made := states.shape[-2]) < count:
            if made > 1:
                power = power @ power
            ahead = states[..., :count - made, :] @ power.swapaxes(-1, -2)
            states = np.concatenate([states, ahead], axis=-2)
        return states
    states = np.broadcast_to(kicks, state.shape[:-1] + kicks.shape[-2:]).copy()
    states[..., :1, :] += state[..., None, :] @ step.swapaxes(-1, -2)
    power, reach = step, 1
    while reach < count:
        states[..., reach:, :] += states[..., :-reach, :] @ power.swapaxes(-1, -2)
        reach *= 2
        if reach < count:
            power = power @ power
    return states


def exosystem_response(a_matrix, gain, constant, exosystem, eta, t1, times):
    """Exact solution of z' = A z + G w(t) + c, z(t1) = eta, at given times,
    where the forcing state w follows an exosystem w' = S w
    (basis.Exosystem).  Pass constant=None for no c.

    z and w march together through exp([[A, G, c], [0, S, 0], [0, 0, 0]] dt)
    (Van Loan, IEEE TAC 23(3), 1978), so no quadrature error enters.  The
    march runs outward from t1, forward to later times and backward to
    earlier ones.  Each direction merges its times and the exosystem's
    knots between t1 and its farthest time into one sorted list of stops
    (a knot at a target time is one stop) and marches each run of equal
    gaps, equal to UNIFORM_RTOL, with one step exponential P and one
    _march, however many times and knots the run holds.  Without a knot
    in the way, the whole state is marched by doubling: P s, P^2 s, ...,
    P^k s in about 2 log2(k) stacked products.  Across knots, w is re-read
    (basis.Exosystem) as it leaves t1 and every stop, all in one call, and
    the step response of z to each re-read forcing state becomes a kick:
    z alone is marched by the prefix scan z_k = P_zz z_(k-1) + kick_k.  The
    kicks are small single-step responses, so no large ramps cancel, and
    the result agrees with stopping at each knot to round-off.  Times
    outside the exosystem's domain raise AlignmentError.  The inputs
    [G | c] enter divided by g, one power of two at least their largest
    entry, and their state (w, then 1 for c) multiplied by g: the scaling
    is exact, and the generator's 1-norm, which sets only the squarings of
    expm, does not grow with the inputs.

    A, G, c and eta may carry a leading stack axis, one system per slice
    (a_matrix (R, d, d), eta (R, d), ...), which all march over the same
    times and knots in the same products; each slice gets the numbers it
    gets alone.  Returns an array of shape (..., len(times), d).
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
    stack = a_matrix.shape[:-2]
    d, m = eta.shape[-1], len(exosystem.generator)
    unit = int(constant is not None)  # the input state's entry for c
    size = d + m + unit
    gen = np.zeros(stack + (size, size))
    gen[..., :d, :d] = a_matrix
    gen[..., :d, d:d + m] = gain
    if constant is not None:
        gen[..., :d, -1] = constant
    # g, the lift of the inputs (see above)
    lift = np.exp2(np.ceil(np.log2(
        np.abs(gen[..., :d, d:]).max(axis=(-2, -1), initial=1.0))))[..., None]
    gen[..., :d, d:] /= lift[..., None]
    gen[..., d:d + m, d:d + m] = exosystem.generator
    out = np.empty(stack + (len(times), d))
    knots = exosystem.knots
    for forward in (True, False):
        sign = 1.0 if forward else -1.0
        targets = np.flatnonzero((times >= t1) == forward)
        if not targets.size:
            continue
        reach = sign * (knots - t1)
        inner = knots[(reach > 0) & (reach < (sign * (times[targets] - t1)).max())]
        # the targets in marching order, then the stops: targets and knots
        # merged, each time once (negation is exact)
        marching = targets[np.argsort(sign * times[targets], kind="stable")]
        wanted = ahead = sign * times[marching]
        if inner.size:
            ahead = np.sort(np.concatenate([sign * inner, ahead]))
        ahead = ahead[np.concatenate(([True], ahead[1:] != ahead[:-1]))]
        stops = sign * ahead
        # each target reads the row of the stop at its time
        reads = np.searchsorted(ahead, wanted)
        rows, past = reads.tolist(), 0
        leaving = np.concatenate(([t1], stops[:-1]))
        gaps = stops - leaving
        if inner.size:
            # w re-read as it leaves t1 and every stop; z alone marches
            rest = lift[..., None, :] * np.concatenate(
                [exosystem.state(leaving, forward), np.ones((len(stops), unit))], axis=-1)
            state = eta
        else:
            state = np.concatenate(
                [eta, lift * np.append(exosystem.state(t1, forward), np.ones(unit))], axis=-1)
        i = 0
        while i < len(stops):
            h = gaps[i]
            if h == 0:
                # t1 itself
                j, states = i + 1, state[..., None, :]
            else:
                apart = np.abs(gaps[i:] - h) > UNIFORM_RTOL * abs(h)
                j = i + int(apart.argmax()) if apart.any() else len(stops)
                step = expm(gen * h)
                if inner.size:
                    # z_k = P_zz z_(k-1) + P_z,rest rest_(k-1): the forcing's
                    # step response from each stop's re-read state is its kick
                    states = _march(step[..., :d, :d], state, j - i,
                                    rest[..., i:j, :] @ step[..., :d, d:].swapaxes(-1, -2))
                else:
                    states = _march(step, state, j - i)
                state = states[..., -1, :]
            first, past = past, bisect_left(rows, j, past)
            out[..., marching[first:past], :] = states[..., reads[first:past] - i, :d]
            i = j
    return out
