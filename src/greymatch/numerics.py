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
of designs by one stacked SVD, `expm` exponentiates a stack of matrices,
and the response march moves a stack of states through each run of equal
steps with one step exponential, by doubling, in a few stacked products;
the knots of sampled forcing inside a run enter as kicks of one prefix
scan, so the march makes no stop per knot.  A slice that fails is reported
through errors.fail.
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


# Pade degrees m and the 1-norm bounds theta_m up to which the [m/m]
# approximant of exp is accurate to double precision without scaling
# (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3).
PADE_DEGREES = (3, 5, 7, 9, 13)
PADE_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                       9.504178996162932e-1, 2.097847961257068e0,
                       5.371920351148152e0])
# Coefficients b_j = (2m - j)! / (j! (m - j)!) of the [m/m] approximant
# V + U over V - U, with V = sum b_{2j} A^{2j} and U = A sum b_{2j+1} A^{2j}.
_PADE_COEFFICIENTS = {
    m: [factorial(2 * m - j) / (factorial(j) * factorial(m - j)) for j in range(m + 1)]
    for m in PADE_DEGREES
}


def _pade(a, m):
    """[m/m] Pade approximant of exp on a stack a of shape (k, n, n).

    The sums of powers are formed entry by entry, so every slice gets the
    same roundings however many others share the stack; degree 13 stops at
    A^6 and takes the higher powers as A^6 times a sum (Higham 2005)."""
    b = _PADE_COEFFICIENTS[m]
    ident = np.eye(a.shape[-1])
    powers = [a @ a]
    while len(powers) < (3 if m == 13 else (m - 1) // 2):
        powers.append(powers[-1] @ powers[0])
    odd, even = b[1] * ident, b[0] * ident
    for j, power in enumerate(powers, start=1):
        odd = odd + b[2 * j + 1] * power
        even = even + b[2 * j] * power
    if m == 13:
        a2, a4, a6 = powers
        odd = odd + a6 @ (b[9] * a2 + b[11] * a4 + b[13] * a6)
        even = even + a6 @ (b[8] * a2 + b[10] * a4 + b[12] * a6)
    u = a @ odd
    return np.linalg.solve(even - u, even + u)


def _squared_pade(a, norms):
    """exp of a stack whose 1-norms exceed theta_13: the degree-13
    approximant of 2^-s a, squared s times, with s per matrix just large
    enough to bring its norm within theta_13."""
    squarings = np.ceil(np.log2(norms / PADE_THETA[-1]))
    power = _pade(a / np.exp2(squarings)[:, None, None], 13)
    for level in range(int(squarings.max())):
        power = np.where((squarings > level)[:, None, None], power @ power, power)
    return power


def expm(a):
    """exp(a) of a square matrix or a stack of them, shape (..., n, n).

    Pade scaling and squaring (Higham 2005): each matrix gets the lowest
    degree m in PADE_DEGREES whose bound theta_m covers its 1-norm, and a
    matrix beyond theta_13 is scaled by 2^-s to within it, exponentiated and
    squared s times.  Matrices of one degree are evaluated together, and a
    slice of a stack gets the same operations as a call on it alone.  A 1x1
    matrix is the scalar exponential of its entry.
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
    # index len(PADE_DEGREES) marks the matrices that need scaling
    degree = np.searchsorted(PADE_THETA, norms)
    groups = set(degree.tolist())
    out = np.empty_like(stack)
    for index in groups:
        rows = degree == index if len(groups) > 1 else slice(None)
        if index < len(PADE_DEGREES):
            out[rows] = _pade(stack[rows], PADE_DEGREES[index])
        else:
            out[rows] = _squared_pade(stack[rows], norms[rows])
    return out.reshape(a.shape)


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
    outside the exosystem's domain raise AlignmentError.

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
    if constant is None:
        tail = np.ones(stack + (0,))
    else:
        # c enters as (c / g) times a constant state g, a power of two at
        # least max |c|: exact, and it keeps the generator's 1-norm, which
        # sets the Pade degree and the squarings, from growing with |c|
        tail = np.exp2(np.ceil(np.log2(
            np.abs(constant).max(axis=-1, initial=1.0))))[..., None]
    size = d + m + tail.shape[-1]
    gen = np.zeros(stack + (size, size))
    gen[..., :d, :d] = a_matrix
    gen[..., :d, d:d + m] = gain
    gen[..., d:d + m, d:d + m] = exosystem.generator
    if constant is not None:
        gen[..., :d, -1] = constant / tail
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
            rest = np.concatenate([
                np.broadcast_to(exosystem.state(leaving, forward), stack + (len(stops), m)),
                np.broadcast_to(tail[..., None, :], stack + (len(stops), tail.shape[-1]))],
                axis=-1)
            state = eta
        else:
            state = np.concatenate([
                eta, np.broadcast_to(exosystem.state(t1, forward), stack + (m,)), tail],
                axis=-1)
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
