"""Differential tests of grey.linear_response and the least_squares initial
value against an independent integrator: scipy's DOP853 at rtol = atol =
1e-12 (tests.conftest.ode_oracle), over random stable systems, every forcing
kind and both time directions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greymatch as gm
from greymatch.grey import linear_response, select_initial_value
from tests.conftest import make_stable_system, ode_oracle

KINDS = ("zero", "polynomial", "fourier", "exogenous", "mixed")


def forcing_function(spec):
    """t -> u(t), with exogenous samples linearly interpolated."""
    if isinstance(spec, gm.ExogenousForcing):
        own, values = spec.series.grid.points, spec.series.values
        return lambda t: np.array([np.interp(t, own, v) for v in values.T])
    if isinstance(spec, gm.MixedForcing):
        parts = [forcing_function(p) for p in spec.parts]
        return lambda t: np.concatenate([f(t) for f in parts])
    return lambda t: spec.values(t)[0]


def sample_times(spec):
    """The sample times of every exogenous part of a spec, where u kinks."""
    if isinstance(spec, gm.ExogenousForcing):
        return spec.series.grid.points
    if isinstance(spec, gm.MixedForcing):
        return np.concatenate([sample_times(p) for p in spec.parts])
    return np.empty(0)


def oracle(a, b, c, spec, eta, t1, times):
    u = forcing_function(spec)
    return ode_oracle(a, lambda t: b @ u(t) + c, eta, t1, times, sample_times(spec))


def assert_matches_oracle(a, b, c, spec, eta, t1, times):
    got = linear_response(a, b, c, spec, eta, t1, times)
    want = oracle(a, b, c, spec, eta, t1, times)
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def random_spec(rng, kind, lo, hi):
    if kind == "zero":
        return gm.ZeroForcing()
    if kind == "polynomial":
        return gm.PolynomialForcing(int(rng.integers(1, 4)))
    if kind == "exogenous":
        # samples off the response grid, so knots fall between its times
        inner = np.sort(rng.uniform(lo, hi, size=int(rng.integers(2, 9))))
        times = np.unique(np.concatenate([[lo], inner, [hi]]))
        values = rng.normal(size=(len(times), int(rng.integers(1, 3))))
        return gm.ExogenousForcing(gm.make_series(times, values))
    fourier = gm.FourierForcing(int(rng.integers(1, 3)), float(rng.uniform(0.05, 0.5)))
    if kind == "fourier":
        return fourier
    return gm.MixedForcing((fourier, gm.PolynomialForcing(int(rng.integers(1, 3)))))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(KINDS),
       d=st.integers(1, 2), backward=st.booleans(), uniform=st.booleans())
def test_linear_response_matches_solve_ivp(seed, kind, d, backward, uniform):
    rng = np.random.default_rng(seed)
    a = make_stable_system(rng, d)
    t1 = float(rng.uniform(-1.0, 1.0))
    n = int(rng.integers(2, 12))
    steps = np.full(n - 1, rng.uniform(0.1, 0.5)) if uniform \
        else rng.uniform(0.05, 0.6, size=n - 1)
    offsets = np.concatenate([[0.0], np.cumsum(steps)])
    times = t1 - offsets[::-1] if backward else t1 + offsets
    spec = random_spec(rng, kind, times.min(), times.max())
    b = rng.normal(size=(d, spec.dimension))
    c = rng.normal(size=d)
    eta = rng.normal(size=d)
    assert_matches_oracle(a, b, c, spec, eta, t1, times)


def test_exogenous_quarter_step():
    # Sample times on a 0.25 step fall inside Simpson pairs of a fixed
    # 50-steps-per-unit rule, which left errors of 1e-5 and more.
    t = 1.0 + 0.25 * np.arange(21)
    u = np.column_stack([np.sqrt(t) + np.sin(3.0 * t), np.cos(t) ** 2])
    spec = gm.ExogenousForcing(gm.make_series(t, u))
    a = np.array([[-0.4, 0.3], [-0.2, -0.1]])
    b = np.array([[1.5, -0.7], [0.4, 2.0]])
    c = np.array([0.3, -0.2])
    eta = np.array([1.0, 2.0])
    assert_matches_oracle(a, b, c, spec, eta, 1.0, t)
    assert_matches_oracle(a, b, c, spec, eta, 6.0, t)


def test_jittered_grid_is_not_uniform():
    # steps that differ by 1e-10 relative are not equally spaced, so no
    # single step exponential is reused, and the response stays exact
    rng = np.random.default_rng(12)
    steps = 0.25 * (1.0 + 1e-10 * rng.uniform(-1.0, 1.0, size=40))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    assert not gm.TimeGrid(times).is_uniform()
    assert gm.TimeGrid(0.25 * np.arange(41)).is_uniform()
    a = make_stable_system(rng, 2)
    spec = gm.PolynomialForcing(2)
    assert_matches_oracle(a, rng.normal(size=(2, 2)), rng.normal(size=2), spec,
                          rng.normal(size=2), 0.0, times)


def test_large_constant():
    # c rides in the march as (c / g) times a power of two g >= max |c|;
    # a grey model's c is of the size of the data
    rng = np.random.default_rng(31)
    a = make_stable_system(rng, 2)
    spec = gm.PolynomialForcing(2)
    times = 2.0 + 0.5 * np.arange(30)
    c = np.array([3.1e3, -517.0])
    for t1 in (2.0, 16.5):
        assert_matches_oracle(a, rng.normal(size=(2, 2)), c, spec,
                              rng.normal(size=2), t1, times)


@pytest.mark.parametrize("gain", [1e6, 1e12, 1e300])
def test_large_gain_matches_closed_form(gain):
    # dz/dt = -0.05 z + B t, z(1) = 1: B rides in the march divided by a
    # power of two, so its size adds no squarings whose rounding would
    # reach the result
    t = np.arange(1.0, 21.0)
    particular, exp_coeff = gm.theory.scalar_closed_form(-0.05, [0.0, gain], 1.0, t1=1.0)
    want = np.polynomial.polynomial.polyval(t, particular) + exp_coeff * np.exp(-0.05 * t)
    got = linear_response(np.array([[-0.05]]), np.array([[gain]]), None,
                          gm.PolynomialForcing(1), np.ones(1), 1.0, t)[:, 0]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["polynomial", "fourier", "exogenous", "mixed"])
def test_response_scales_with_its_inputs(kind):
    # the solution is linear in (B, c, eta): scaling all three by 1e9 scales
    # it by 1e9, up to round-off, on both sides of t1
    rng = np.random.default_rng(KINDS.index(kind))
    a = make_stable_system(rng, 2)
    times = 0.5 * np.arange(13)
    spec = random_spec(rng, kind, times.min(), times.max())
    b = rng.normal(size=(2, spec.dimension))
    c, eta = rng.normal(size=2), rng.normal(size=2)
    small = linear_response(a, b, c, spec, eta, 2.0, times)
    large = linear_response(a, 1e9 * b, 1e9 * c, spec, 1e9 * eta, 2.0, times)
    assert np.abs(large - 1e9 * small).max() <= 1e-13 * np.abs(1e9 * small).max()


@pytest.mark.parametrize("kind", ["fourier", "exogenous", "grey constant"])
def test_stacked_response_matches_solve_ivp(kind):
    # four systems, each with its own A, B, c and eta, marched in one stack
    # over times on both sides of t1; every slice must match the oracle and
    # equal the one-slice call bit for bit
    rng = np.random.default_rng({"fourier": 3, "exogenous": 4, "grey constant": 5}[kind])
    times = -1.0 + 0.3 * np.arange(25)
    t1 = 1.4
    if kind == "fourier":
        spec = gm.FourierForcing(2, 0.3)
    elif kind == "exogenous":
        spec = random_spec(rng, "exogenous", times[0], times[-1])
        assert spec.exosystem().knots.size > 2
    else:
        spec = gm.PolynomialForcing(2)
    stack = 4
    a = np.array([make_stable_system(rng, 2) for _ in range(stack)])
    b = rng.normal(size=(stack, 2, spec.dimension))
    c = rng.normal(size=(stack, 2))
    if kind == "grey constant":
        c *= 3.0e3
    eta = rng.normal(size=(stack, 2))
    got = linear_response(a, b, c, spec, eta, t1, times)
    assert got.shape == (stack, len(times), 2)
    for k in range(stack):
        want = oracle(a[k], b[k], c[k], spec, eta[k], t1, times)
        assert np.abs(got[k] - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
        alone = linear_response(a[k], b[k], c[k], spec, eta[k], t1, times)
        assert np.array_equal(got[k], alone)


def exogenous(rng, times, p=1):
    return gm.ExogenousForcing(gm.make_series(
        times, np.sin(times)[:, None] + 0.3 * rng.normal(size=(len(times), p))))


def knot_case(case):
    """(spec, times, t1) of a forcing with many knots in the way."""
    rng = np.random.default_rng(["mixed", "on grid", "between"].index(case))
    if case == "mixed":
        # exogenous samples three to a response step, next to a polynomial:
        # one run of equal gaps with knots on and between the response times
        times = 0.5 + 0.3 * np.arange(30)
        own = 0.5 + 0.1 * np.arange(88)
        return (gm.MixedForcing((exogenous(rng, own, 2), gm.PolynomialForcing(2))),
                times, float(times[11]))
    if case == "on grid":
        # a knot on every response time, 120 samples, marched both ways
        times = -2.0 + 0.25 * np.arange(120)
        return exogenous(rng, times, 2), times, float(times[47])
    # an uneven response grid with knots between its times
    times = 1.0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.6, 40))])
    own = np.concatenate([[times[0]], np.sort(rng.uniform(times[0], times[-1], 60)),
                          [times[-1]]])
    return exogenous(rng, own), times, float(times[25])


@pytest.mark.parametrize("case", ["mixed", "on grid", "between"])
def test_knots_match_solve_ivp(case):
    # three systems marched in one stack across the knots; every slice
    # matches the oracle and equals its one-slice call bit for bit
    spec, times, t1 = knot_case(case)
    assert sample_times(spec).size >= 27
    rng = np.random.default_rng(40)
    stack = 3
    a = np.array([make_stable_system(rng, 2) for _ in range(stack)])
    b = rng.normal(size=(stack, 2, spec.dimension))
    c = rng.normal(size=(stack, 2))
    eta = rng.normal(size=(stack, 2))
    got = linear_response(a, b, c, spec, eta, t1, times)
    for k in range(stack):
        want = oracle(a[k], b[k], c[k], spec, eta[k], t1, times)
        assert np.abs(got[k] - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
        alone = linear_response(a[k], b[k], c[k], spec, eta[k], t1, times)
        assert np.array_equal(got[k], alone)


@pytest.mark.parametrize("t1, times", [
    (0.0, [1.0, 2.0, 2.0]),
    (3.0, [2.0, 5.0, 1.0, 4.0, 1.0, 5.0]),
], ids=["forward", "both ways"])
def test_repeated_times_between_knots_match_solve_ivp(t1, times):
    # as many knot-only stops as repeated targets: each direction has one
    # stop per target, yet a repeated target must read its own time's row
    rng = np.random.default_rng(41)
    spec = exogenous(rng, 1.5 * np.arange(5.0))
    assert_matches_oracle(make_stable_system(rng, 2), rng.normal(size=(2, 1)),
                          rng.normal(size=2), spec, rng.normal(size=2), t1, np.array(times))


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "uneven"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_least_squares_initial_value_matches_solve_ivp(kind, d, uniform):
    # the same linear fit with its columns exp(A (t - t1)) e_j integrated
    # by DOP853 from e_j with no forcing, and its forced part from 0
    rng = np.random.default_rng([KINDS.index(kind), d, uniform])
    n = 15
    steps = np.full(n - 1, 0.3) if uniform else rng.uniform(0.1, 0.6, size=n - 1)
    t = 1.0 + np.concatenate([[0.0], np.cumsum(steps)])
    spec = random_spec(rng, kind, t[0], t[-1])
    a = make_stable_system(rng, d)
    b = rng.normal(size=(d, spec.dimension))
    c = rng.normal(size=d)
    truth = oracle(a, b, c, spec, rng.uniform(1.0, 2.0, size=d), t[0], t)
    y = gm.make_series(t, truth + 0.1 * rng.normal(size=truth.shape))
    got = select_initial_value(y, a, b, c, spec, "least_squares")
    columns = np.stack([oracle(a, np.zeros((d, 0)), np.zeros(d), gm.ZeroForcing(),
                               e, t[0], t) for e in np.eye(d)], axis=-1)
    forced = oracle(a, b, c, spec, np.zeros(d), t[0], t)
    want = np.linalg.lstsq(columns.reshape(-1, d), (y.values - forced).reshape(-1),
                           rcond=None)[0]
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
