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
exponential, by doubling, in a few stacked products written in place into
one buffer; the knots of sampled forcing inside a run enter as kicks of
one prefix scan, so the march makes no stop per knot, and every requested
time is read out of the buffer at once.  Sorting, merging and the backward
march run only for the calls that need them.  A slice that fails is
reported through errors.fail; exosystem_response, which forms the
exponent, is the one place that refuses a response that overflows.
"""

from dataclasses import dataclass
from math import factorial, isfinite, prod

import numpy as np

from .errors import (AlignmentError, DataError, OverflowGuardError, SingularDesignError,
                     fail)
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
    # U is as large as the design: release it, and form the residual in
    # one buffer
    del left
    residual = design @ coeffs
    np.subtract(targets, residual, out=residual)
    residual = np.sqrt(np.square(residual, out=residual).sum(axis=(-2, -1)))
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
    fewest, most = int(squarings.min(initial=0.0)), int(squarings.max(initial=0.0))
    # halving no slice leaves the stack as it is (a division by 1 is exact)
    scaled = stack / np.exp2(squarings)[:, None, None] if most else stack
    # Higham's even/odd split: the powers stop at A^6 and the higher ones
    # enter as A^6 times a sum.  The sums are formed entry by entry, so
    # every slice gets the same roundings however many others share the
    # stack.  The identity's coefficient is added on the diagonal of the
    # first term, which rounds as b I + ... does: off the diagonal only the
    # sign of a zero can differ, and the A^6 product added last settles it.
    b = _PADE_COEFFICIENTS
    a2 = scaled @ scaled
    a4 = a2 @ a2
    a6 = a4 @ a2
    odd, even = b[3] * a2, b[2] * a2
    odd.reshape(-1, n * n)[:, ::n + 1] += b[1]
    even.reshape(-1, n * n)[:, ::n + 1] += b[0]
    u = scaled @ (odd + b[5] * a4 + b[7] * a6
                  + a6 @ (b[9] * a2 + b[11] * a4 + b[13] * a6))
    v = (even + b[4] * a4 + b[6] * a6
         + a6 @ (b[8] * a2 + b[10] * a4 + b[12] * a6))
    power = np.linalg.solve(v - u, v + u)
    # every slice takes the first `fewest` squarings; the rest only where due
    for level in range(most):
        squared = power @ power
        power = squared if level < fewest else np.where(
            (squarings > level)[:, None, None], squared, power)
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


def _march(step, state, out, kicked=False):
    """Fill out, shape (..., count, D), with the states s_1, ..., s_count
    of s_k = step s_(k-1) [+ kick_k] from s_0 = state, for a stack of step
    matrices and states; with kicked, out holds kick_1, ..., kick_count on
    entry.  Every product is written into out in place; returns out.

    Without kicks, doubling on the states: once the first m states are
    made, the power step^m maps them to the next m in one stacked product,
    and is then squared; about 2 log2(count) products in all, and no stack
    of powers held in memory.  With kicks, the doubling (prefix) scan of
    the affine recurrence (Blelloch, "Prefix sums and their applications",
    1990): row 1 also takes step s_0, and the round with power step^r adds
    step^r times row k - r to row k, after which row k sums
    step^(k-j) kick_j over its last 2r inputs; about log2(count) rounds of
    one stacked product and one squaring finish every row.
    """
    count = out.shape[-2]
    if not kicked:
        np.matmul(state[..., None, :], step.swapaxes(-1, -2), out=out[..., :1, :])
        power, made = step, 1
        while made < count:
            if made > 1:
                power = power @ power
            ahead = min(made, count - made)
            np.matmul(out[..., :ahead, :], power.swapaxes(-1, -2),
                      out=out[..., made:made + ahead, :])
            made += ahead
        return out
    out[..., :1, :] += state[..., None, :] @ step.swapaxes(-1, -2)
    power, reach = step, 1
    while reach < count:
        out[..., reach:, :] += out[..., :-reach, :] @ power.swapaxes(-1, -2)
        reach *= 2
        if reach < count:
            power = power @ power
    return out


def _stops(t1, times, knots, forward):
    """The stops of a march from t1 to times that all lie ahead of it
    (forward) or all behind it: the times and the knots strictly between
    t1 and the farthest time, each time once, in marching order.  Returns
    the stops, those knots, and the row of each time among the stops, or
    None when the stops are the times in order (negation is exact)."""
    sign = 1.0 if forward else -1.0
    inner = knots
    if knots.size:
        reach = sign * (knots - t1)
        inner = knots[(reach > 0) & (reach < (sign * (times - t1)).max())]
    ahead = times if forward else -times
    if not inner.size and (ahead[1:] > ahead[:-1]).all():
        return times, inner, None
    # sorted and each time once (np.unique would do, but its first call
    # alone raises a process's peak memory by about 1 MB)
    merged = np.sort(np.concatenate([sign * inner, ahead]))
    merged = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
    return sign * merged, inner, np.searchsorted(merged, ahead)


def _march_out(gen, lift, eta, exosystem, t1, times, forward):
    """z at the stops (_stops) of the march from t1 to times, which all
    lie on one side of t1, through the exosystem_response generator gen
    with its input lift; and the row of each time among the stops (None
    when they are the times in order).  Every run of equal gaps is
    marched into its rows of one buffer."""
    stops, inner, reads = _stops(t1, times, exosystem.knots, forward)
    d, m = eta.shape[-1], len(exosystem.generator)
    stack, size = gen.shape[:-2], gen.shape[-1]
    leaving = np.concatenate(([t1], stops[:-1]))
    gaps = stops - leaving
    if inner.size:
        # w re-read as it leaves t1 and every stop; z alone marches
        rest = lift[..., None, :] * np.concatenate(
            [exosystem.state(leaving, forward), np.ones((len(stops), size - d - m))],
            axis=-1)
        state = eta
    else:
        # (eta, g w(t1)[, g]) filled in place
        state = np.empty(stack + (size,))
        state[..., :d] = eta
        state[..., d:] = lift
        state[..., d:d + m] *= exosystem.state(t1, forward)
    out = np.empty(stack + (len(stops), state.shape[-1]))
    i = 0
    if gaps[0] == 0:
        # t1 itself
        out[..., 0, :] = state
        i = 1
    while i < len(stops):
        h = gaps[i]
        apart = np.flatnonzero(np.abs(gaps[i:] - h) > UNIFORM_RTOL * abs(h))
        j = i + int(apart[0]) if apart.size else len(stops)
        step = expm(gen * h)
        run = out[..., i:j, :]
        if inner.size:
            # z_k = P_zz z_(k-1) + P_z,rest rest_(k-1): the forcing's step
            # response from each stop's re-read state is its kick
            np.matmul(rest[..., i:j, :], step[..., :d, d:].swapaxes(-1, -2), out=run)
            _march(step[..., :d, :d], state, run, kicked=True)
        else:
            _march(step, state, run)
        state = out[..., j - 1, :]
        i = j
    return out[..., :d], reads


def exosystem_response(a_matrix, gain, constant, exosystem, eta, t1, times):
    """Exact solution of z' = A z + G w(t) + c, z(t1) = eta, at given times,
    where the forcing state w follows an exosystem w' = S w
    (basis.Exosystem).  Pass constant=None for no c.

    z and w march together through exp([[A, G, c], [0, S, 0], [0, 0, 0]] dt)
    (Van Loan, IEEE TAC 23(3), 1978), so no quadrature error enters.  The
    march runs outward from t1, forward to later times and, only when a
    time precedes t1, backward to earlier ones.  A direction stops at its
    times, unless they are unsorted or repeated or the exosystem has knots
    between t1 and its farthest time: then at those times and knots
    merged into one sorted list, each time once.  Each run of equal gaps,
    equal to UNIFORM_RTOL, is marched with one step exponential P and one
    _march, however many times and knots the run holds, into its rows of
    one buffer of states per direction; every time is then read out of
    the buffers at once (by one np.take, or none when the times are the
    stops in order).  Without a knot in the way, the whole state is
    marched by doubling: P s, P^2 s, ..., P^k s in about 2 log2(k) stacked
    products.  Across knots, w is re-read (basis.Exosystem) as it leaves
    t1 and every stop, all in one call, and the step response of z to
    each re-read forcing state becomes a kick: z alone is marched by the
    prefix scan z_k = P_zz z_(k-1) + kick_k.  The kicks are small
    single-step responses, so no large ramps cancel, and the result
    agrees with stopping at each knot to round-off.  Times outside the
    domain of sampled forcing raise AlignmentError, and a time or t1 that
    is not finite raises ValueError naming it.  The inputs [G | c]
    enter divided by g, one power of two at least their largest entry,
    and their state (w, then 1 for c) multiplied by g: the scaling is
    exact, and the generator's 1-norm, which sets only the squarings of
    expm, does not grow with the inputs.

    A, G, c and eta may carry leading stack axes, one system per slice
    (a_matrix (R, d, d), eta (R, d), ...): the stack is the broadcast of
    their leading axes, so an unstacked A marches with a stacked eta, and
    stacks that do not broadcast raise ValueError.  Every system marches
    over the same times and knots in the same products and gets the numbers
    it gets alone.  Returns an array of shape stack + (len(times), d).

    A slice is one A: systems on axes ahead of A's stack (given by G, c
    or eta) share its fate.  A slice fails with OverflowGuardError
    (errors.fail) and reads 0 when its response overflows double
    precision: when the generator's 1-norm times the span of the march,
    max |t - t1|, is not finite for one of its systems, even where the
    span alone overflows between finite times (such a slice is not
    marched with that exponent, so expm never sees a non-finite entry),
    or when any of its values is not finite.  A slice so refused that holds
    a NaN or infinite entry of A, G, c or eta fails with DataError naming
    the first such input instead; sound calls never look.
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    gain = np.asarray(gain, dtype=float)
    eta = np.asarray(eta, dtype=float)
    times = np.asarray(times, dtype=float)
    if not (np.isfinite(times).all() and np.isfinite(t1)):
        bad = np.append(times, t1)
        raise ValueError(f"t={bad[~np.isfinite(bad)][0]} is not a finite time")
    lo, hi = exosystem.domain
    if -np.inf < lo or hi < np.inf:
        reached = np.append(times, t1)
        outside = reached[(reached < lo - 1e-12) | (reached > hi + 1e-12)]
        if outside.size:
            raise AlignmentError(
                f"t={outside[0]} outside the forcing's sample range [{lo}, {hi}]"
            )
    stack = np.broadcast_shapes(a_matrix.shape[:-2], gain.shape[:-2], eta.shape[:-1],
                                np.shape(constant)[:-1])
    d, m = eta.shape[-1], len(exosystem.generator)
    if not times.size:
        return np.empty(stack + (0, d))
    size = d + m + (constant is not None)
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
    # a slice is one A: systems on axes ahead of A's stack share its fate
    systems = tuple(range(len(stack) - a_matrix.ndim + 2))
    # overflow shows as a non-finite exponent bound or value, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        span = max(times.max() - t1, t1 - times.min())
        unbounded = ~np.isfinite(np.abs(gen).sum(axis=-2).max(
            axis=(*systems, -1), initial=0.0) * span)
        # an unbounded slice is not marched with its exponent, and a span
        # that overflows leaves no slice to march
        values = _march_both_ways(
            np.where(unbounded[..., None, None], 0.0, gen), lift, eta, exosystem,
            t1, times) if isfinite(span) else np.zeros(stack + (len(times), d))
    overflowed = unbounded | ~np.isfinite(values).all(axis=(*systems, -2, -1))
    if not overflowed.any():
        return values
    # a refused slice with a non-finite input is bad data, not an overflow
    for name, given, axes in (("A", a_matrix, (-2, -1)), ("the gain", gain, (-2, -1)),
                              ("c", constant, -1), ("eta", eta, -1)):
        if given is not None:
            bad = np.broadcast_to(~np.isfinite(given).all(axis=axes), stack).any(axis=systems)
            if bad.any():
                fail(bad, DataError, f"{name} holds a non-finite entry")
    fail(overflowed, OverflowGuardError, "the time response overflows double precision")
    return np.where(overflowed[..., None, None], 0.0, values)


def _march_both_ways(gen, lift, eta, exosystem, t1, times):
    """z at the times, marched outward from t1 (_march_out): forward, and
    backward too when a time precedes t1."""
    if t1 <= times.min():
        z, reads = _march_out(gen, lift, eta, exosystem, t1, times, True)
        return np.ascontiguousarray(z) if reads is None else np.take(z, reads, axis=-2)
    # both directions: the backward stops, then the forward ones, and each
    # time's row among them
    before = times < t1
    parts, rows, first = [], np.empty(len(times), dtype=np.intp), 0
    for forward in (False, True):
        picked = np.flatnonzero(before != forward)
        if picked.size:
            z, reads = _march_out(gen, lift, eta, exosystem, t1, times[picked], forward)
            rows[picked] = first + (np.arange(picked.size) if reads is None else reads)
            parts.append(z)
            first += z.shape[-2]
    return np.take(np.concatenate(parts, axis=-2), rows, axis=-2)
