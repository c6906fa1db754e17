from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from greymatch import (ExogenousForcing, PolynomialForcing, TimeGrid, ZeroForcing,
                       make_series, numerics)
from greymatch.errors import (DataError, OverflowGuardError, SingularDesignError,
                              record_failures)
from greymatch.grey import linear_response
from greymatch.theory import check_reduction_roundtrip
from tests.conftest import ode_oracle


def normal_equations(design, targets):
    """Brute-force oracle: coefficients via the explicit normal equations."""
    return np.linalg.solve(design.T @ design, design.T @ targets)


class TestSolveLeastSquares:
    def test_identity_design(self):
        sol = numerics.solve_least_squares(np.eye(3), np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(sol.coefficients, [[1.0], [2.0], [3.0]])
        assert sol.residual_norm == pytest.approx(0.0, abs=1e-12)

    def test_exact_line(self):
        design = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        sol = numerics.solve_least_squares(design, np.array([2.0, 3.0, 4.0]))
        assert np.allclose(sol.coefficients, [1.0, 1.0])
        assert sol.residual_norm == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            design = rng.normal(size=(8, 3))
            targets = rng.normal(size=(8, 2))
            sol = numerics.solve_least_squares(design, targets)
            oracle = normal_equations(design, targets)
            rel = np.abs(sol.coefficients - oracle).max() / np.abs(oracle).max()
            assert rel < 1e-8

    def test_residual_matches_objective(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(10, 2))
        targets = rng.normal(size=10)
        sol = numerics.solve_least_squares(design, targets)
        direct = np.linalg.norm(targets - design @ sol.coefficients)
        assert sol.residual_norm == pytest.approx(direct, rel=1e-12)

    def test_rank_deficient_reports_column_count(self):
        col = np.arange(6.0)
        design = np.column_stack([col, 2 * col, np.ones(6)])
        with pytest.raises(SingularDesignError, match="1 of 3 columns"):
            numerics.solve_least_squares(design, np.ones(6))

    def test_underdetermined_rejected(self):
        with pytest.raises(SingularDesignError):
            numerics.solve_least_squares(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("design, targets, message", [
        (np.ones((3, 2)), np.ones(4), "targets have 4 rows, design has 3"),
        (np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 1.0]]), np.ones(3), "must be finite"),
        (np.eye(3, 2), np.array([1.0, np.inf, 0.0]), "must be finite"),
    ], ids=["row mismatch", "nan design", "inf target"])
    def test_malformed_input_rejected(self, design, targets, message):
        with pytest.raises(ValueError, match=message):
            numerics.solve_least_squares(design, targets)


class TestStackedLeastSquares:
    """A stack of designs (R, rows, cols) is solved slice by slice."""

    @staticmethod
    def stack(deficient_slice=None):
        rng = np.random.default_rng(5)
        design = rng.normal(size=(3, 8, 3))
        targets = rng.normal(size=(3, 8, 2))
        if deficient_slice is not None:
            design[deficient_slice, :, 2] = 2.0 * design[deficient_slice, :, 0]
        return design, targets

    def test_each_slice_is_the_one_slice_solve(self):
        design, targets = self.stack()
        sol = numerics.solve_least_squares(design, targets)
        assert sol.coefficients.shape == (3, 3, 2)
        for k in range(3):
            one = numerics.solve_least_squares(design[k], targets[k])
            assert np.array_equal(sol.coefficients[k], one.coefficients)
            assert sol.residual_norm[k] == one.residual_norm
            assert sol.condition_estimate[k] == one.condition_estimate

    def test_rank_deficient_slice_is_masked(self):
        design, targets = self.stack(deficient_slice=1)
        with record_failures(3) as failed:
            sol = numerics.solve_least_squares(design, targets)
        assert list(failed) == [None, SingularDesignError, None]
        assert not sol.coefficients[1].any()
        assert sol.condition_estimate[1] == np.inf
        for k in (0, 2):
            one = numerics.solve_least_squares(design[k], targets[k])
            assert np.array_equal(sol.coefficients[k], one.coefficients)

    def test_outside_a_record_the_stack_raises(self):
        design, targets = self.stack(deficient_slice=1)
        with pytest.raises(SingularDesignError, match="slice 1 of the stack"):
            numerics.solve_least_squares(design, targets)
        with pytest.raises(SingularDesignError, match="1 of 3 columns"):
            numerics.solve_least_squares(design[1], targets[1])


class TestResponseOverflow:
    """exosystem_response refuses a slice whose generator's 1-norm times
    the span of the march is not finite, before expm sees it."""

    def test_span_that_overflows_is_refused(self):
        # t1 = 1e308 and a time at -1e308 are finite, their span is not
        with pytest.raises(OverflowGuardError, match="overflows double precision"):
            numerics.exosystem_response(-np.eye(1), np.zeros((1, 0)), None,
                                        ZeroForcing().exosystem, np.ones(1), 1e308,
                                        [-1e308])

    def test_input_columns_count_in_the_bound(self):
        # |A|_1 times the span is 1e307, but the constant's column of the
        # generator sums to 2, and 2e308 overflows; a slice with A = 0 and
        # no constant spans the same times and is returned as its eta
        exo = ZeroForcing().exosystem
        a = np.stack([0.1 * np.eye(2), np.zeros((2, 2))])
        c = np.array([[1.0, 1.0], [0.0, 0.0]])
        eta = np.array([[1.0, 1.0], [2.0, 3.0]])
        times = [0.0, 1e308]
        with pytest.raises(OverflowGuardError, match="overflows double precision"):
            numerics.exosystem_response(a[0], np.zeros((2, 0)), c[0], exo, eta[0],
                                        0.0, times)
        with record_failures(2) as failed:
            values = numerics.exosystem_response(a, np.zeros((2, 2, 0)), c, exo, eta,
                                                 0.0, times)
        assert list(failed) == [OverflowGuardError, None]
        assert not values[0].any()
        assert np.array_equal(values[1], [[2.0, 3.0], [2.0, 3.0]])


class TestNonFiniteInput:
    """A NaN or infinite entry of A, the gain, c or eta is bad data, refused
    as DataError naming the input, through every caller of
    exosystem_response; it is not reported as an overflow."""

    SPEC = PolynomialForcing(1)
    TIMES = [0.5, 1.0, 2.0]

    @classmethod
    def respond(cls, a, b, c, eta):
        exo = cls.SPEC.exosystem
        return numerics.exosystem_response(a, b @ exo.output, c, exo, eta, 0.0, cls.TIMES)

    @classmethod
    def linear_response(cls, a, b, c, eta):
        return linear_response(a, b, c, cls.SPEC, eta, 0.0, cls.TIMES)

    @classmethod
    def roundtrip(cls, a, b, c, eta):
        return check_reduction_roundtrip(a, b, c, eta, cls.SPEC,
                                         TimeGrid(np.array([0.0, *cls.TIMES])))

    @pytest.mark.parametrize("caller", ["respond", "linear_response", "roundtrip"])
    @pytest.mark.parametrize("entry, value, name", [
        ("a", np.nan, "A"), ("eta", np.nan, "eta"), ("eta", np.inf, "eta"),
        ("c", np.nan, "c"), ("b", np.nan, "the gain")])
    def test_refused_as_data_error(self, caller, entry, value, name):
        inputs = {"a": np.array([[-0.5]]), "b": np.array([[0.3]]),
                  "c": np.array([1.0]), "eta": np.array([2.0])}
        inputs[entry] = np.full_like(inputs[entry], value)
        with pytest.raises(DataError, match=f"^{name} holds a non-finite entry$"):
            getattr(self, caller)(**inputs)

    def test_stacked_slice_is_recorded_apart_from_an_overflow(self):
        # slice 0 holds a NaN eta, slice 1 is finite and overflows, slice 2
        # is sound and gets the numbers it gets alone
        a = np.array([[[-0.5]], [[800.0]], [[-0.5]]])
        b = np.full((3, 1, 1), 0.3)
        c = np.ones((3, 1))
        eta = np.array([[np.nan], [2.0], [2.0]])
        with record_failures(3) as failed:
            values = self.respond(a, b, c, eta)
        assert list(failed) == [DataError, OverflowGuardError, None]
        assert not values[:2].any()
        assert np.array_equal(values[2], self.respond(a[2], b[2], c[2], eta[2]))
        with pytest.raises(DataError, match="^slice 0 of the stack: eta holds"):
            self.respond(a, b, c, eta)


def taylor_exponential(m, terms=60):
    """Independent oracle: plain Taylor series summed to convergence."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(numerics.expm(3.7 * np.zeros((2, 2))),
                              np.eye(2))

    def test_nilpotent(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(numerics.expm(m),
                           [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_against_taylor_oracle(self):
        m = np.array([[-0.25, 0.70], [0.75, -0.25]])
        got = numerics.expm(m)
        ref = taylor_exponential(m)
        assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            numerics.expm(np.ones((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 3.8))
    def test_inverse_and_semigroup(self, seed, scale):
        # |(s+t) M| stays below 10; tolerances are relative to the result
        # magnitude (entries reach e^10, where absolute 1e-9 would exceed
        # double precision)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2, 2))
        m *= scale / max(np.linalg.norm(m, 2), 1e-9)
        fwd = numerics.expm(1.3 * m)
        back = numerics.expm(-1.3 * m)
        assert np.abs(fwd @ back - np.eye(2)).max() < 1e-9 * max(
            1.0, np.abs(fwd).max() * np.abs(back).max())
        s, t = 0.7, 1.9
        lhs = numerics.expm((s + t) * m)
        rhs = numerics.expm(s * m) @ numerics.expm(t * m)
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(lhs).max())


EPS = np.finfo(float).eps


def random_matrix(rng, n, norm):
    """An n x n Gaussian matrix rescaled to the given 1-norm."""
    m = rng.normal(size=(n, n))
    return m * (norm / np.abs(m).sum(axis=0).max())


class TestExpm:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
           log_norm=st.floats(-3.0, 2.0))
    def test_matches_scipy(self, seed, n, log_norm):
        # Over 7500 such draws the largest gap was 1.1e-11 relative, at
        # 1-norms between 10 and 100; against a 40-digit reference that gap
        # was scipy's own error, while this function stayed below 1e-13.
        m = random_matrix(np.random.default_rng(seed), n, 10.0 ** log_norm)
        want = scipy.linalg.expm(m)
        assert np.abs(numerics.expm(m) - want).max() <= 5e-11 * np.abs(want).max()

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_batched_slices_equal_single_calls(self, n):
        # norms from 1e-3 to 1e2 need from none to five squarings
        rng = np.random.default_rng(n)
        norms = np.geomspace(1e-3, 1e2, 24)
        stack = np.array([random_matrix(rng, n, s) for s in rng.permutation(norms)])
        batched = numerics.expm(stack.reshape(4, 6, n, n)).reshape(stack.shape)
        for matrix, got in zip(stack, batched):
            assert np.array_equal(got, numerics.expm(matrix))

    @pytest.mark.parametrize("low, high", [(11.0, 21.0), (11.0, 300.0)],
                             ids=["equal squarings", "mixed squarings"])
    def test_scaled_stack_slices_equal_single_calls(self, low, high):
        # every slice needs two squarings, or from two to six: the squarings
        # all slices share, and those only some take
        rng = np.random.default_rng(int(high))
        norms = rng.permutation(np.geomspace(low, high, 9))
        stack = np.array([random_matrix(rng, 4, s) for s in norms])
        squarings = np.ceil(np.log2(norms / numerics.PADE_THETA))
        assert squarings.min() == 2 and (squarings.max() == 2) == (high == 21.0)
        for matrix, got in zip(stack, numerics.expm(stack)):
            assert np.array_equal(got, numerics.expm(matrix))

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_zero_is_exactly_the_identity(self, n):
        assert np.array_equal(numerics.expm(np.zeros((n, n))), np.eye(n))
        assert np.array_equal(numerics.expm(np.zeros((2, n, n))),
                              np.broadcast_to(np.eye(n), (2, n, n)))

    def test_zero_stack_is_identity(self):
        assert np.array_equal(numerics.expm(np.zeros((3, 4, 4))),
                              np.broadcast_to(np.eye(4), (3, 4, 4)))

    @pytest.mark.parametrize("t", [1e-3, 0.4, 3.0, 40.0])
    def test_nilpotent_closed_form(self, t):
        shift = t * np.eye(3, k=1)
        want = np.array([[1.0, t, t * t / 2], [0.0, 1.0, t], [0.0, 0.0, 1.0]])
        assert np.abs(numerics.expm(shift) - want).max() <= 8 * EPS * np.abs(want).max()

    def test_rotation_closed_form(self):
        # scipy's expm is 3.6e-13 off at the angle 60; this one 1.3e-15
        angles = np.array([1e-3, 0.3, 2.0, 7.5, 60.0])
        generators = angles[:, None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
        c, s = np.cos(angles), np.sin(angles)
        want = np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)
        assert np.abs(numerics.expm(generators) - want).max() < 1e-13

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            numerics.expm(np.array([[0.0, np.nan], [0.0, 0.0]]))


class TestConvolutionIntegral:
    """numerics.simpson_integral on convolution integrals
    int_{t0}^{t1} exp(A (t0 - s)) f(s) ds with closed forms."""

    def test_zero_integrand(self):
        out = numerics.simpson_integral(lambda s: np.zeros((len(s), 2)),
                                        0.0, 3.0, steps=8)
        assert out.shape == (2,)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_plain_integral_when_a_zero(self):
        c = np.array([2.0, -1.0])
        out = numerics.simpson_integral(lambda s: np.tile(c, (len(s), 1)),
                                        1.0, 4.0, steps=16)
        assert np.allclose(out, 3.0 * c, atol=1e-12)

    def test_scalar_closed_form(self):
        # int_0^2 exp(-a s) ds = (1 - e^{-2a}) / a with a = -0.25
        a = -0.25
        exact = (1.0 - np.exp(0.5)) / a
        out = numerics.simpson_integral(lambda s: np.exp(-a * s)[:, None],
                                        0.0, 2.0, steps=64)
        assert abs(out[0] - exact) < 1e-8

    def test_fourth_order_convergence(self):
        a = -0.25
        exact = (1.0 - np.exp(0.5)) / a

        def err(steps):
            out = numerics.simpson_integral(lambda s: np.exp(-a * s)[:, None],
                                            0.0, 2.0, steps)
            return abs(out[0] - exact)

        assert err(2) / err(4) >= 8.0
        assert err(4) / err(8) >= 8.0

    def test_rejects_no_steps(self):
        with pytest.raises(ValueError):
            numerics.simpson_integral(lambda s: np.ones((len(s), 1)), 0.0, 1.0, 0)


def polynomial_response(a, coeffs, eta, t1, times):
    """Solution of z' = A z + sum_j coeffs[:, j] t^j, z(t1) = eta."""
    degree = coeffs.shape[1] - 1
    spec = PolynomialForcing(degree) if degree else ZeroForcing()
    return linear_response(a, coeffs[:, 1:], coeffs[:, 0], spec, eta, t1, times)


class TestPolynomialResponse:
    def test_constant_forcing_zero_matrix(self):
        # z' = c with A = 0 integrates to a straight line
        coeffs = np.array([[2.0]])
        out = polynomial_response(np.zeros((1, 1)), coeffs,
                                  np.array([1.0]), 0.0, np.array([0.0, 1.5]))
        assert np.allclose(out[:, 0], [1.0, 4.0], atol=1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(5)
        a = rng.normal(scale=0.3, size=(2, 2))
        coeffs = rng.normal(size=(2, 3))
        eta = rng.normal(size=2)
        times = np.array([0.0, 0.7, 1.9, 3.3])

        def g(t):
            return coeffs[:, 0] + coeffs[:, 1] * t + coeffs[:, 2] * t ** 2

        exact = polynomial_response(a, coeffs, eta, 0.0, times)
        oracle = ode_oracle(a, g, eta, 0.0, times)
        assert np.abs(exact - oracle).max() < 1e-9

    def test_uniform_and_scattered_paths_agree(self):
        rng = np.random.default_rng(9)
        a = rng.normal(scale=0.3, size=(2, 2))
        coeffs = rng.normal(size=(2, 2))
        eta = rng.normal(size=2)
        uniform = np.linspace(0.0, 5.0, 21)
        # same times, but evaluated one by one so no step exponential is reused
        single = np.vstack([
            polynomial_response(a, coeffs, eta, 0.0, np.array([t]))
            for t in uniform
        ])
        stepped = polynomial_response(a, coeffs, eta, 0.0, uniform)
        assert np.abs(single - stepped).max() < 1e-11

    def test_power_doubling_matches_single_steps(self):
        # 111 equally spaced times around t1: a backward run of 40, t1
        # itself, a forward run of 70 and a repeated time, each marched by
        # powers of one step exponential, against one exponential per time
        rng = np.random.default_rng(21)
        a = rng.normal(scale=0.3, size=(2, 2))
        coeffs = rng.normal(size=(2, 3))
        eta = rng.normal(size=2)
        grid = 0.5 + 0.05 * np.arange(111)
        t1 = float(grid[40])
        times = np.insert(grid, 90, grid[90])
        single = np.vstack([
            polynomial_response(a, coeffs, eta, t1, np.array([t])) for t in times
        ])
        marched = polynomial_response(a, coeffs, eta, t1, times)
        assert np.array_equal(marched[40], eta)
        assert np.array_equal(marched[90], marched[91])
        assert np.abs(marched - single).max() < 1e-12 * np.abs(single).max()


class TestKnotScan:
    """Sampled forcing on a uniform grid is marched in one run per direction,
    with no stop per knot."""

    def counted_forecast(self, monkeypatch, samples):
        # an exogenous model with t1 inside its grid: both directions cross
        # every sample, each a knot
        rng = np.random.default_rng(samples)
        times = 1.0 + 0.5 * np.arange(samples)
        spec = ExogenousForcing(make_series(times, rng.normal(size=(samples, 1))))
        calls = {"expm": 0, "state": 0}
        exo, expm = spec.exosystem, numerics.expm

        def counted_state(t, forward=True):
            calls["state"] += 1
            return exo.state(t, forward)

        def counted_expm(a):
            calls["expm"] += 1
            return expm(a)

        monkeypatch.setattr(numerics, "expm", counted_expm)
        monkeypatch.setattr(ExogenousForcing, "exosystem",
                            lambda self: replace(exo, state=counted_state))
        a = np.array([[-0.4, 0.2], [-0.1, -0.3]])
        out = linear_response(a, rng.normal(size=(2, 1)), rng.normal(size=2), spec,
                              rng.normal(size=2), float(times[samples // 3]), times)
        assert np.isfinite(out).all()
        monkeypatch.undo()
        return calls

    def test_one_exponential_per_direction_whatever_the_knot_count(self, monkeypatch):
        few = self.counted_forecast(monkeypatch, 50)
        many = self.counted_forecast(monkeypatch, 200)
        assert few["expm"] == many["expm"] == 2
        assert few["state"] == many["state"] <= 4

    def test_kicked_march_is_the_affine_recurrence(self):
        # s_k = P s_(k-1) + kick_k, for counts around powers of two and a
        # stack of steps with kicks of their own
        rng = np.random.default_rng(8)
        step = 0.3 * rng.normal(size=(3, 4, 4))
        state = rng.normal(size=(3, 4))
        for count in (1, 2, 3, 7, 8, 9, 33):
            kicks = rng.normal(size=(3, count, 4))
            want, s = [], state
            for k in range(count):
                s = np.einsum("rij,rj->ri", step, s) + kicks[:, k]
                want.append(s)
            got = numerics._march(step, state, kicks.copy(), kicked=True)
            assert np.allclose(got, np.stack(want, axis=1), rtol=1e-13, atol=1e-13)
            shared = numerics._march(step, state, np.tile(kicks[0], (3, 1, 1)),
                                     kicked=True)
            assert np.array_equal(shared[0], numerics._march(step[0], state[0],
                                                             kicks[0].copy(), kicked=True))
