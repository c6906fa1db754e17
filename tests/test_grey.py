import json

import numpy as np
import pytest

import greymatch as gm
from greymatch import grey, repro
from greymatch.errors import (InsufficientDataError, OverflowGuardError,
                              SingularDesignError, StrategyError,
                              record_failures)


class TestBuildRegression:
    """fit_grey is grey.integral_regression with the cusum background as its
    integral: x(t_k) ~ A bg_k + B u_bg_k + c."""

    def test_hand_assembled_example(self):
        raw = gm.make_series([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert np.allclose(gm.cusum(raw).values[:, 0], [1.0, 3.0, 6.0])
        # background [2, 4.5] against targets [2, 3]: a = 0.4, c = 1.2
        A, B, (c,), residual = grey.integral_regression(
            raw, np.array([[2.0], [4.5]]), np.zeros((2, 0)))
        assert np.allclose([A[0, 0], c[0]], [0.4, 1.2])
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert B.shape == (1, 0)
        model = gm.fit_grey(raw, gm.ZeroForcing())
        assert np.array_equal(model.A, A) and np.array_equal(model.c, c)

    def test_lambda_one_keeps_earlier_point(self):
        # background [1, 3] against targets [2, 3]: a = 0.5, c = 1.5
        raw = gm.make_series([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        model = gm.fit_grey(raw, gm.ZeroForcing(), background_lambda=1.0)
        assert np.allclose([model.A[0, 0], model.c[0]], [0.5, 1.5])
        A, _, (c,), _ = grey.integral_regression(raw, np.array([[1.0], [3.0]]),
                                                 np.zeros((2, 0)))
        assert np.array_equal(model.A, A) and np.array_equal(model.c, c)

    def test_constant_cusum_gives_zero_targets(self):
        # the targets are the raw values x_2..x_n, which a constant cusum
        # makes zero, so every coefficient is zero
        y = gm.make_series(np.arange(5.0), np.full(5, 2.2))
        raw = gm.inverse_cusum(y)
        assert np.array_equal(raw.values[1:], np.zeros((4, 1)))
        A, B, rest, residual = grey.integral_regression(
            raw, np.arange(1.0, 5.0)[:, None], np.zeros((4, 0)))
        assert np.allclose(A, 0.0) and np.allclose(rest, 0.0)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_reproduces_trapezoid_matrices_exactly(self):
        rng = np.random.default_rng(12)
        raw = gm.make_series(np.arange(1.0, 9.0), np.abs(rng.normal(size=(8, 2))) + 1)
        spec = gm.PolynomialForcing(1)
        y = gm.cusum(raw)
        yv = y.values
        t = y.grid.points
        background = (yv[:-1] + yv[1:]) / 2.0
        forcing = ((t[:-1] + t[1:]) / 2.0)[:, None]
        A, B, (c,), _ = grey.integral_regression(raw, background, forcing)
        model = gm.fit_grey(raw, spec)
        assert np.array_equal(model.A, A)
        assert np.array_equal(model.B, B)
        assert np.array_equal(model.c, c)
        # difference quotients of the cusum restore the raw values up to
        # round-off of the running sum, so regressing them instead of the
        # raw values moves the coefficients by round-off only
        targets = (yv[1:] - yv[:-1]) / y.grid.intervals[1:, None]
        assert np.abs(targets - raw.values[1:]).max() < 1e-13
        design = np.column_stack([background, forcing, np.ones((7, 1))])
        quotient_fit = gm.solve_least_squares(design, targets).coefficients
        stacked = np.vstack([A.T, B.T, c])
        assert np.abs(quotient_fit - stacked).max() <= 1e-12 * np.abs(stacked).max()

    def test_too_few_rows(self):
        raw = gm.make_series([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(InsufficientDataError, match="need at least 3 points"):
            gm.fit_grey(raw, gm.ZeroForcing())


class TestFit:
    @pytest.mark.parametrize("fit", [gm.fit_grey, gm.fit_matching])
    def test_too_few_points_refused_before_the_forcing_is_evaluated(self, water_train, fit):
        # 2**70 harmonics could not be evaluated at all
        with pytest.raises(InsufficientDataError, match="need at least"):
            fit(water_train, gm.FourierForcing(2 ** 70, 1e-30))

    def test_water_quadratic_development_coefficient(self, water_train):
        model = gm.fit_grey(water_train, gm.PolynomialForcing(2))
        assert model.A[0, 0] == pytest.approx(-0.04578, abs=5e-5)
        assert model.B[0] == pytest.approx([0.9626, 0.3865], abs=5e-4)
        assert model.c[0] == pytest.approx(20.6123, abs=5e-4)

    def test_noiseless_recovery_structural(self, sim_system):
        # Discretization bias is O(h): measured c-hat errors 0.104 / 0.041 /
        # 0.020 at h = 0.25 / 0.1 / 0.05, which fixes the bounds below.
        a_true, eta_true = sim_system
        c_true = (np.eye(2) - a_true) @ eta_true
        errs = []
        for h in (0.1, 0.05):
            sc = gm.SimulationScenario(a_matrix=a_true, initial_state=eta_true,
                                       snr=1.0, replications=1, seed=0,
                                       step=h, noise_scale=0.0)
            _, noisy = gm.generate_trajectory(sc)
            model = gm.fit_grey(noisy, gm.ZeroForcing())
            assert np.abs(model.A - a_true).max() < 1e-2
            errs.append(np.abs(model.c - c_true).max())
        assert errs[-1] < 2.5e-2
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)  # first order

    def test_constant_series_singular_with_polynomial_forcing(self):
        raw = gm.make_series(np.arange(1.0, 9.0), np.full(8, 3.0))
        with pytest.raises(SingularDesignError):
            gm.fit_grey(raw, gm.PolynomialForcing(1))

    def test_constant_two_component_series_singular(self):
        raw = gm.make_series(np.arange(1.0, 9.0), np.full((8, 2), 3.0))
        with pytest.raises(SingularDesignError):
            gm.fit_grey(raw, gm.ZeroForcing())


class TestInitialStrategies:
    def exact_setup(self):
        a = np.array([[-0.4]])
        b = np.array([[0.3]])
        c = np.array([1.2])
        xi = np.array([2.5])
        spec = gm.PolynomialForcing(1)
        t = np.linspace(0.0, 4.0, 17)
        y_exact = grey.linear_response(a, b, c, spec, xi, 0.0, t)
        return a, b, c, xi, spec, gm.make_series(t, y_exact)

    def test_fixed_first_is_definitional(self, water_train):
        y = gm.cusum(water_train)
        model = gm.fit_grey(water_train, gm.PolynomialForcing(1),
                            strategy="fixed_first")
        assert np.array_equal(model.eta, y.values[0])

    def test_least_squares_recovers_exact_initial_value(self):
        a, b, c, xi, spec, y = self.exact_setup()
        eta = grey.select_initial_value(y, a, b, c, spec, "least_squares")
        assert np.abs(eta - xi).max() < 1e-6

    def test_fixed_last_anchors_final_point(self, water_train):
        spec = gm.PolynomialForcing(2)
        model = gm.fit_grey(water_train, spec, strategy="fixed_last")
        y = gm.cusum(water_train)
        response = gm.time_response(model, y.grid.points)
        assert abs(response.values[-1, 0] - y.values[-1, 0]) < 1e-8

    def test_reduced_consistent_formula(self, water_train):
        model = gm.fit_grey(water_train, gm.ZeroForcing(),
                            strategy="reduced_consistent")
        expected = np.linalg.solve(np.eye(1) - model.A, model.c)
        assert np.allclose(model.eta, expected)

    @pytest.mark.parametrize("h, t1", [(1.0, 1.0), (0.5, 2.0)])
    def test_reduced_half_step_formula(self, h, t1):
        # quadratic forcing: u(t1) = (t1, t1^2) and u'(-h/2) = (1, -h), so
        # (1 - a) eta = c + b1 (t1 + 1) + b2 (t1^2 - h)
        rng = np.random.default_rng(31)
        raw = gm.make_series(t1 + h * np.arange(12),
                             np.cumsum(rng.uniform(1.0, 3.0, size=12)) + 10.0)
        model = gm.fit_grey(raw, gm.PolynomialForcing(2),
                            strategy="reduced_half_step")
        a, (b1, b2), c = model.A[0, 0], model.B[0], model.c[0]
        expected = (c + b1 * (t1 + 1.0) + b2 * (t1 ** 2 - h)) / (1.0 - a)
        assert model.eta[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("times", [np.arange(1.0, 11.0),
                                       np.array([0.0, 0.5, 1.5, 1.7, 3.0, 3.2,
                                                 4.0, 5.5, 6.0, 7.25])])
    def test_reduced_half_step_is_reduced_consistent_without_forcing(
            self, times, positive_series_factory):
        rng = np.random.default_rng(32)
        values = positive_series_factory(rng, len(times), 2).values
        raw = gm.make_series(times, values)
        half = gm.fit_grey(raw, gm.ZeroForcing(), strategy="reduced_half_step")
        consistent = gm.fit_grey(raw, gm.ZeroForcing(),
                                 strategy="reduced_consistent")
        assert np.abs(half.eta - consistent.eta).max() <= 1e-12

    @pytest.mark.parametrize("spec, times", [
        (gm.FourierForcing(pairs=1, frequency=0.1), np.arange(1.0, 13.0)),
        (gm.MixedForcing((gm.PolynomialForcing(1),
                          gm.FourierForcing(pairs=1, frequency=0.1))),
         np.arange(1.0, 13.0)),
        (gm.ExogenousForcing(gm.make_series(np.arange(1.0, 13.0),
                                            np.sqrt(np.arange(1.0, 13.0)))),
         np.arange(1.0, 13.0)),
        (gm.PolynomialForcing(1), np.array([1.0, 2.0, 3.5, 4.0, 6.0, 6.5,
                                            8.0, 9.0, 11.0, 12.0])),
    ])
    def test_reduced_half_step_outside_its_domain(self, spec, times,
                                                  positive_series_factory):
        rng = np.random.default_rng(33)
        values = positive_series_factory(rng, len(times), 1).values
        raw = gm.make_series(times, values)
        with pytest.raises(StrategyError):
            gm.fit_grey(raw, spec, strategy="reduced_half_step")

    @pytest.mark.parametrize("strategy", ["reduced_consistent",
                                          "reduced_half_step"])
    def test_reduced_strategies_refuse_singular_system(self, strategy):
        y = gm.make_series(np.arange(1.0, 6.0), np.arange(1.0, 6.0))
        with pytest.raises(StrategyError, match="singular"):
            grey.select_initial_value(y, np.eye(1), np.array([[0.5]]),
                                      np.array([1.0]), gm.PolynomialForcing(1),
                                      strategy)

    def test_unknown_strategy_rejected(self):
        y = gm.make_series(np.arange(1.0, 6.0), np.arange(1.0, 6.0))
        with pytest.raises(ValueError, match="unknown strategy 'median'"):
            grey.select_initial_value(y, np.eye(1), np.zeros((1, 0)), np.zeros(1),
                                      gm.ZeroForcing(), "median")

    def test_least_squares_objective_dominates(self, water_train):
        spec = gm.PolynomialForcing(2)
        y = gm.cusum(water_train)

        def objective(strategy):
            model = gm.fit_grey(water_train, spec, strategy=strategy)
            response = gm.time_response(model, y.grid.points)
            return np.sum((response.values - y.values) ** 2)

        best = objective("least_squares")
        assert best <= objective("fixed_first") + 1e-12
        assert best <= objective("fixed_last") + 1e-12


class TestStackedFits:
    """A stack of series (values (R, n, d)) fits one model per slice, each
    bit for bit the model of its series alone; a failed slice is masked."""

    @staticmethod
    def stack():
        rng = np.random.default_rng(21)
        values = np.abs(rng.normal(loc=6.0, scale=1.0, size=(3, 12, 2))) + 1.0
        values[1] = 4.0  # constant equal components: a singular design
        return gm.VectorSeries(gm.TimeGrid(np.arange(1.0, 13.0)), values)

    @pytest.mark.parametrize("strategy", grey.INITIAL_STRATEGIES)
    def test_grey_slices_are_single_fits(self, strategy):
        raw = self.stack()
        with record_failures(3) as failed:
            model = gm.fit_grey(raw, gm.ZeroForcing(), strategy)
        assert list(failed) == [None, SingularDesignError, None]
        assert model.A.shape == (3, 2, 2) and model.eta.shape == (3, 2)
        for k in (0, 2):
            one = gm.fit_grey(gm.VectorSeries(raw.grid, raw.values[k]),
                              gm.ZeroForcing(), strategy)
            for field in ("A", "B", "c", "eta"):
                assert np.array_equal(getattr(model, field)[k],
                                      getattr(one, field)), (k, field)

    @pytest.mark.parametrize("kind", ["polynomial", "exogenous"])
    def test_forced_least_squares_slices_are_single_fits(self, kind):
        raw = self.stack()
        t = raw.grid.points
        spec = gm.PolynomialForcing(2) if kind == "polynomial" \
            else gm.ExogenousForcing(gm.make_series(t, np.sqrt(t)))
        with record_failures(3) as failed:
            model = gm.fit_grey(raw, spec, "least_squares")
        assert list(failed) == [None, SingularDesignError, None]
        for k in (0, 2):
            one = gm.fit_grey(gm.VectorSeries(raw.grid, raw.values[k]), spec,
                              "least_squares")
            for field in ("A", "B", "c", "eta"):
                assert np.array_equal(getattr(model, field)[k],
                                      getattr(one, field)), (k, field)

    def test_matching_slices_are_single_fits(self):
        raw = self.stack()
        spec = gm.PolynomialForcing(1)
        with record_failures(3) as failed:
            model = gm.fit_matching(raw, spec)
            pred = gm.predict_on_grid(model, raw.grid.extended(4))
        assert list(failed) == [None, SingularDesignError, None]
        for k in (0, 2):
            one = gm.fit_matching(gm.VectorSeries(raw.grid, raw.values[k]), spec)
            for field in ("A", "B", "c", "eta"):
                assert np.array_equal(getattr(model, field)[k], getattr(one, field))
            assert np.array_equal(pred.values[k],
                                  gm.predict_on_grid(one, raw.grid.extended(4)).values)

    @pytest.mark.parametrize("strategy", ["reduced_consistent", "reduced_half_step"])
    def test_singular_slice_of_a_stack_is_masked(self, water_train, strategy):
        y = gm.cusum(water_train)
        a = np.array([[[0.2]], [[1.0]], [[-0.3]]])  # I - A singular in slice 1
        b = np.zeros((3, 1, 0))
        c = np.array([[1.5], [2.0], [0.5]])
        with record_failures(3) as failed:
            eta = grey.select_initial_value(y, a, b, c, gm.ZeroForcing(), strategy)
        assert list(failed) == [None, StrategyError, None]
        assert np.isfinite(eta).all()
        for k in (0, 2):
            one = grey.select_initial_value(y, a[k], b[k], c[k], gm.ZeroForcing(),
                                            strategy)
            assert np.array_equal(eta[k], one)
        with pytest.raises(StrategyError, match="slice 1 of the stack"):
            grey.select_initial_value(y, a, b, c, gm.ZeroForcing(), strategy)

    def test_least_squares_guard_masks_its_slice_with_one_check(
            self, water_train, monkeypatch):
        y = gm.cusum(water_train)
        # exp(A (t - t1)) grows by e^1100 over the span 11 in slice 1
        a = np.array([[[-0.2]], [[100.0]], [[0.1]]])
        b, c = np.zeros((3, 1, 0)), np.array([[1.5], [2.0], [0.5]])
        checks = []
        respond = grey.linear_response
        monkeypatch.setattr(grey, "linear_response",
                            lambda *args: checks.append(1) or respond(*args))
        with record_failures(3) as failed:
            eta = grey.select_initial_value(y, a, b, c, gm.ZeroForcing(),
                                            "least_squares")
        assert len(checks) == 1
        assert list(failed) == [None, OverflowGuardError, None]
        assert np.isfinite(eta).all()
        for k in (0, 2):
            one = grey.select_initial_value(y, a[k], b[k], c[k], gm.ZeroForcing(),
                                            "least_squares")
            assert np.array_equal(eta[k], one)
        with pytest.raises(OverflowGuardError, match="slice 1 of the stack"):
            grey.select_initial_value(y, a, b, c, gm.ZeroForcing(), "least_squares")

    def test_overflowing_system_masks_its_whole_slice(self):
        # B (2, 3, 1, 1): two systems per A, and the second system of
        # A-slice 1 overflows (dz/dt = -0.05 z + 1e307 t)
        a = np.broadcast_to(np.array([[-0.05]]), (3, 1, 1))
        b = np.ones((2, 3, 1, 1))
        b[1, 1] = 1e307
        eta, times = np.ones((3, 1)), np.arange(1.0, 101.0)
        with record_failures(3) as failed:
            values = grey.linear_response(a, b, None, gm.PolynomialForcing(1), eta,
                                          1.0, times)
        assert values.shape == (2, 3, len(times), 1)
        assert list(failed) == [None, OverflowGuardError, None]
        assert not values[:, 1].any()
        for j in range(2):
            for k in (0, 2):
                assert np.array_equal(values[j, k], grey.linear_response(
                    a[k], b[j, k], None, gm.PolynomialForcing(1), eta[k], 1.0, times))
        with pytest.raises(OverflowGuardError, match="slice 1 of the stack"):
            grey.linear_response(a, b, None, gm.PolynomialForcing(1), eta, 1.0, times)

    def test_unstacked_refusal_names_no_slice(self):
        # one A with two systems on B's leading axis is one slice
        a, b = np.array([[-0.05]]), np.array([[[1.0]], [[1e307]]])
        with pytest.raises(OverflowGuardError, match="overflows") as refused:
            grey.linear_response(a, b, None, gm.PolynomialForcing(1), np.ones(1), 1.0,
                                 np.arange(1.0, 101.0))
        assert "slice" not in str(refused.value)
        with pytest.raises(OverflowGuardError, match="overflows") as refused:
            grey.linear_response(np.array([[40.0]]), np.zeros((2, 1, 0)), None,
                                 gm.ZeroForcing(), np.ones(1), 0.0, np.arange(21.0))
        assert "slice" not in str(refused.value)

    def test_guard_refuses_only_its_slice(self):
        a = np.array([[[-0.2]], [[40.0]], [[0.1]]])  # growth e^(40 * 20) in slice 1
        b, c, eta = np.zeros((3, 1, 0)), np.ones((3, 1)), np.ones((3, 1))
        times = np.arange(21.0)
        with record_failures(3) as failed:
            values = grey.linear_response(a, b, c, gm.ZeroForcing(), eta, 0.0, times)
        assert list(failed) == [None, OverflowGuardError, None]
        assert np.isfinite(values).all()
        for k in (0, 2):
            one = grey.linear_response(a[k], b[k], c[k], gm.ZeroForcing(), eta[k],
                                       0.0, times)
            assert np.array_equal(values[k], one)


class TestGrowthGuard:
    """The overflow guard refuses a response only when it overflows double
    precision: growth short of that is returned, whatever its size, and a
    decaying march is never refused."""

    def test_decaying_long_forecast_is_not_refused(self):
        # x = 50 e^(-0.3 t) + 5, fitted on t = 1..12 and forecast 200 steps:
        # |A| * span is about 63, but exp(A t) only shrinks
        t = np.arange(1.0, 13.0)
        raw = gm.make_series(t, 50.0 * np.exp(-0.3 * t) + 5.0)
        model = gm.fit_matching(raw, gm.ZeroForcing())
        forecast = gm.matching_forecast(raw, gm.ZeroForcing(), horizon=200, model=model)
        a, c, eta = model.A[0, 0], model.c[0], model.eta[0]
        later = forecast.grid.points
        assert a < 0.0
        assert np.allclose(forecast.values[:, 0],
                           -c / a + (eta + c / a) * np.exp(a * (later - 1.0)),
                           rtol=1e-12, atol=0.0)
        assert abs(forecast.values[-1, 0] - 5.0) < 0.05

    def test_backward_march_bounds_the_decay_rate(self):
        # marched backward over 20, exp(A (t - t1)) grows by e^800 when
        # A = -40, by e^60 when A = -3, and shrinks by e^-60 when A = +3
        t = np.arange(21.0)

        def respond(rate):
            return grey.linear_response(np.array([[rate]]), np.zeros((1, 0)), None,
                                        gm.ZeroForcing(), np.ones(1), 20.0, t)

        with pytest.raises(OverflowGuardError, match="overflows"):
            respond(-40.0)
        for rate in (-3.0, 3.0):
            assert np.allclose(respond(rate)[:, 0], np.exp(rate * (t - 20.0)),
                               rtol=1e-12, atol=0.0)

    def test_norm_that_overflows_is_refused(self):
        # |A|_1 * span overflows, so the exponent A (t - t1) does: the
        # slice is refused without a march of A, even where exp(A t) decays,
        # and the other slices are not
        a = np.array([[1e308, 1e308], [0.0, 1.0]])
        with pytest.raises(OverflowGuardError, match="overflows"):
            grey.linear_response(a, np.zeros((2, 0)), None, gm.ZeroForcing(),
                                 np.ones(2), 0.0, np.arange(3.0))
        stack = np.stack([-np.eye(2), -a, np.eye(2)])
        with record_failures(3) as failed:
            values = grey.linear_response(stack, np.zeros((3, 2, 0)), None,
                                          gm.ZeroForcing(), np.ones((3, 2)), 0.0,
                                          np.arange(3.0))
        assert list(failed) == [None, OverflowGuardError, None]
        assert not values[1].any()
        for k, rate in ((0, -1.0), (2, 1.0)):
            exact = np.repeat(np.exp(rate * np.arange(3.0))[:, None], 2, axis=1)
            assert np.allclose(values[k], exact, rtol=1e-12, atol=0.0)

    def test_growth_short_of_overflow_is_returned(self):
        # growth of e^60, forward and backward, against the closed form
        t = np.arange(21.0)
        for rate, t1 in ((3.0, 0.0), (-3.0, 20.0)):
            z = grey.linear_response(np.array([[rate]]), np.zeros((1, 0)), None,
                                     gm.ZeroForcing(), np.ones(1), t1, t)
            assert np.allclose(z[:, 0], np.exp(rate * (t - t1)), rtol=1e-12, atol=0.0)
        # a non-normal 2 x 2 system: exp(A t) = [[e^3t, e^3t - e^2t], [0, e^2t]]
        a = np.array([[3.0, 1.0], [0.0, 2.0]])
        z = grey.linear_response(a, np.zeros((2, 0)), None, gm.ZeroForcing(),
                                 np.array([0.0, 1.0]), 0.0, t)
        exact = np.stack([np.exp(3.0 * t) - np.exp(2.0 * t), np.exp(2.0 * t)], axis=-1)
        assert np.allclose(z, exact, rtol=1e-12, atol=0.0)

    def test_span_that_overflows_between_finite_times_is_refused(self):
        # t1 = 1e308 and a time at -1e308: the span, and with it the
        # exponent, overflows whatever A is; every slice of a stack is
        # recorded and reads 0
        def respond(stack):
            return grey.linear_response(-np.ones(stack + (1, 1)), np.zeros(stack + (1, 0)),
                                        None, gm.ZeroForcing(), np.ones(stack + (1,)),
                                        1e308, np.array([-1e308]))

        with pytest.raises(OverflowGuardError, match="overflows"):
            respond(())
        with record_failures(3) as failed:
            values = respond((3,))
        assert list(failed) == [OverflowGuardError] * 3
        assert values.shape == (3, 1, 1) and not values.any()

    def test_empty_stack(self):
        values = grey.linear_response(np.zeros((0, 2, 2)), np.zeros((0, 2, 0)), None,
                                      gm.ZeroForcing(), np.zeros((0, 2)), 0.0,
                                      np.arange(3.0))
        assert values.shape == (0, 3, 2)

    def test_overflowing_response_is_refused(self):
        # dz/dt = -0.05 z + 1e307 t reaches past the largest double; |A|_1
        # times the span is finite, the result is not
        a, b = np.array([[-0.05]]), np.array([[1e307]])
        args = (gm.PolynomialForcing(1), np.ones(1), 1.0, np.arange(1.0, 101.0))
        with pytest.raises(OverflowGuardError, match="overflows"):
            grey.linear_response(a, b, None, *args)
        stack_b = np.array([[[1.0]], [[1e307]], [[2.0]]])
        with record_failures(3) as failed:
            values = grey.linear_response(np.broadcast_to(a, (3, 1, 1)), stack_b, None,
                                          gm.PolynomialForcing(1), np.ones((3, 1)), 1.0,
                                          args[-1])
        assert list(failed) == [None, OverflowGuardError, None]
        assert np.isfinite(values).all()
        for k in (0, 2):
            assert np.array_equal(values[k], grey.linear_response(a, stack_b[k], None, *args))

    @pytest.mark.parametrize("rate, t1, times, bad", [
        (-0.2, 0.0, [0.0, np.nan, 2.0], "nan"),
        (0.2, 0.0, [1.0, np.inf], "inf"),
        (-0.2, 0.0, [-np.inf, 1.0], "-inf"),
        (0.2, np.nan, [1.0], "nan"),
    ])
    def test_time_that_is_not_finite_is_named_not_guarded(self, rate, t1, times, bad):
        # the guard leaves a non-finite span to the propagator, which names
        # the time, whether exp(A t) would grow or not
        for stack in ((), (3,)):
            a = np.full(stack + (1, 1), rate)
            with pytest.raises(ValueError, match=f"^t={bad} is not a finite time"):
                grey.linear_response(a, np.zeros(stack + (1, 0)), None, gm.ZeroForcing(),
                                     np.ones(stack + (1,)), t1, np.array(times))

    def test_overflowing_least_squares_initial_value_is_refused(self):
        # the same system marched for the least_squares initial value: its
        # d + 1 systems overflow in one slice, which is masked alone
        t = np.arange(1.0, 101.0)
        y = gm.make_series(t, 2.0 + 0.1 * t)
        a, c, spec = np.array([[-0.05]]), np.array([1.0]), gm.PolynomialForcing(1)
        with pytest.raises(OverflowGuardError, match="overflows"):
            grey.select_initial_value(y, a, np.array([[1e307]]), c, spec, "least_squares")
        stack_b = np.array([[[1.0]], [[1e307]], [[2.0]]])
        stacked = gm.VectorSeries(y.grid, np.broadcast_to(y.values, (3,) + y.values.shape))
        with record_failures(3) as failed:
            eta = grey.select_initial_value(stacked, np.broadcast_to(a, (3, 1, 1)), stack_b,
                                            np.broadcast_to(c, (3, 1)), spec, "least_squares")
        assert list(failed) == [None, OverflowGuardError, None]
        assert np.isfinite(eta).all()
        for k in (0, 2):
            assert np.array_equal(eta[k], grey.select_initial_value(
                y, a, stack_b[k], c, spec, "least_squares"))


class TestTimeResponse:
    def test_constant_when_everything_zero(self):
        model = gm.FittedModel(np.zeros((2, 2)), np.zeros((2, 0)), np.zeros(2),
                               np.array([1.5, -0.5]), gm.ZeroForcing(),
                               t1=0.0, pipeline="grey")
        out = gm.time_response(model, np.array([0.0, 2.0, 7.0]))
        assert np.allclose(out.values, [[1.5, -0.5]] * 3)

    def test_quadratic_forcing_closed_form(self):
        # dz/dt = a z + b2 t^2 + b1 t + c, z(0) = xi, against the analytic
        # solution assembled by hand.
        a, b2, b1, c, xi = -0.5, 0.3, -0.2, 1.0, 2.0
        t = np.linspace(0.0, 5.0, 26)
        tail = c / a + b1 / a ** 2 + 2 * b2 / a ** 3
        exact = ((xi + tail) * np.exp(a * t)
                 - (b2 / a) * t ** 2 - (b1 / a + 2 * b2 / a ** 2) * t - tail)
        model = gm.FittedModel(np.array([[a]]), np.array([[b1, b2]]),
                               np.array([c]), np.array([xi]),
                               gm.PolynomialForcing(2), t1=0.0, pipeline="grey")
        got = gm.time_response(model, t).values[:, 0]
        assert np.abs(got - exact).max() < 1e-8

    def test_overflow_guard(self):
        # e^(30 * 30) exceeds the largest double
        model = gm.FittedModel(np.array([[30.0]]), np.zeros((1, 0)), np.zeros(1),
                               np.array([1.0]), gm.ZeroForcing(), t1=0.0,
                               pipeline="grey")
        with pytest.raises(OverflowGuardError):
            gm.time_response(model, np.array([0.0, 30.0]))

    def test_fourier_forcing_matches_rk4(self):
        spec = gm.FourierForcing(pairs=1, frequency=0.2)
        model = gm.FittedModel(np.array([[-0.3]]), np.array([[0.4, -0.1]]),
                               np.array([0.5]), np.array([1.0]), spec, t1=0.0,
                               pipeline="grey")
        t = np.array([0.0, 1.0, 2.5])
        got = gm.time_response(model, t).values[:, 0]
        # independent check: dense classical RK4 integration
        def rhs(s, z):
            u = spec.values(np.array([s]))[0]
            return model.A[0, 0] * z + model.B[0] @ u + model.c[0]
        z, s, dt = 1.0, 0.0, 1e-3
        dense = {0.0: 1.0}
        while s < 2.5 - dt / 2:
            k1 = rhs(s, z)
            k2 = rhs(s + dt / 2, z + dt * k1 / 2)
            k3 = rhs(s + dt / 2, z + dt * k2 / 2)
            k4 = rhs(s + dt, z + dt * k3)
            z += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
            s += dt
            dense[round(s, 9)] = z
        assert got[1] == pytest.approx(dense[1.0], abs=1e-7)
        assert got[2] == pytest.approx(dense[2.5], abs=1e-7)


class TestForecast:
    def test_zero_horizon_returns_fitted_length(self, water_train):
        out = gm.grey_forecast(water_train, gm.PolynomialForcing(2))
        assert out.n == water_train.n
        model = gm.fit_grey(water_train, gm.PolynomialForcing(2))
        assert out.values[0, 0] == pytest.approx(model.eta[0])

    def test_noiseless_restore_is_second_order(self, sim_system):
        a_true, eta_true = sim_system
        errs = []
        for h in (0.1, 0.05):
            sc = gm.SimulationScenario(a_matrix=a_true, initial_state=eta_true,
                                       snr=1.0, replications=1, seed=0,
                                       step=h, noise_scale=0.0)
            clean, noisy = gm.generate_trajectory(sc)
            pred = gm.grey_forecast(noisy, gm.ZeroForcing(),
                                    strategy="fixed_first", horizon=0)
            errs.append(np.abs(pred.values - clean.values[:noisy.n]).max())
        assert errs[-1] < 2e-3
        assert errs[0] / errs[1] > 3.0  # ~second order

    def test_water_quadratic_one_step_forecast(self, water_train):
        # holdout forecast of the first test year; reference value 71.14
        model, _ = repro.fit_water_model("GPM(1,1,2)")
        pred = gm.grey_forecast(water_train, model.spec, horizon=1,
                                model=model)
        assert pred.values[-1, 0] == pytest.approx(71.14, abs=0.05)


class TestSerialization:
    def test_round_trip_is_lossless(self, water_train):
        for strategy in ("least_squares", "reduced_half_step"):
            model = gm.fit_grey(water_train, gm.PolynomialForcing(2),
                                strategy=strategy)
            payload = json.loads(json.dumps(gm.model_to_dict(model)))
            back = gm.model_from_dict(payload)
            assert np.array_equal(back.A, model.A)
            assert np.array_equal(back.B, model.B)
            assert np.array_equal(back.c, model.c)
            assert np.array_equal(back.eta, model.eta)
            assert back.strategy == strategy
            assert back.spec == model.spec
            assert back.pipeline == "grey"
            assert back.background_lambda == 0.5


class TestReadConfig:
    def test_defaults(self):
        assert gm.read_config({}) == ("matching", gm.ZeroForcing(),
                                      {"include_constant": True})
        assert gm.read_config({"model": "grey"}) == (
            "grey", gm.ZeroForcing(),
            {"strategy": "fixed_first", "background_lambda": 0.5})

    def test_keys_of_the_other_pipeline_are_ignored(self):
        pipeline, spec, options = gm.read_config(
            {"model": "matching", "forcing": {"kind": "polynomial", "degree": 1},
             "strategy": "bogus", "lambda": "x", "include_constant": False})
        assert (pipeline, spec, options) == (
            "matching", gm.PolynomialForcing(1), {"include_constant": False})
        assert gm.read_config({"model": "grey", "include_constant": "no"})[2] == {
            "strategy": "fixed_first", "background_lambda": 0.5}

    @pytest.mark.parametrize("config, named", [
        ({"model": "arima"}, "model"),
        ({"model": "grey", "strategy": "bogus"}, "strategy"),
        ({"model": "grey", "lambda": -0.1}, "background_lambda"),
        ({"model": "grey", "lambda": False}, "'lambda'"),
        ({"include_constant": 1}, "'include_constant'"),
    ])
    def test_wrong_field_is_named(self, config, named):
        with pytest.raises(ValueError, match=named):
            gm.read_config(config)

    def test_fit_config_dispatches_on_the_pipeline(self, water_train):
        config = {"model": "grey", "forcing": {"kind": "polynomial", "degree": 2},
                  "strategy": "least_squares", "lambda": 0.4}
        got = gm.fit_config(water_train, config)
        want = gm.fit_grey(water_train, gm.PolynomialForcing(2),
                           strategy="least_squares", background_lambda=0.4)
        assert np.array_equal(got.eta, want.eta) and np.array_equal(got.A, want.A)
        assert (got.strategy, got.background_lambda) == ("least_squares", 0.4)


class TestTranslationInvariance:
    def test_shift_moves_only_the_constant(self, positive_series_factory):
        # The invariance covers the anchored and least-squares strategies;
        # the reduced_consistent rule maps eta to eta - (I-A)^{-1} A shift,
        # not eta + shift, so its restored values genuinely move.
        rng = np.random.default_rng(21)
        raw = positive_series_factory(rng, 14, 1)
        for strategy in ("fixed_first", "fixed_last", "least_squares"):
            report = gm.check_translation_invariance(
                raw, gm.PolynomialForcing(1), strategy=strategy,
                shift=np.array([5.0]))
            assert report.passed, (strategy, report.details)

    def test_reduced_consistent_is_not_shift_invariant(self, positive_series_factory):
        rng = np.random.default_rng(22)
        raw = positive_series_factory(rng, 14, 1)
        report = gm.check_translation_invariance(
            raw, gm.PolynomialForcing(1), strategy="reduced_consistent",
            shift=np.array([5.0]))
        assert report.details["A"] <= 1e-9           # structure still invariant
        assert report.details["restored_from_second_point"] > 1e-3

    def test_reduced_half_step_is_not_shift_invariant(self, positive_series_factory):
        # eta goes through (I - A)^{-1} as for reduced_consistent, so it
        # moves by -(I - A)^{-1} A shift rather than by the shift itself
        rng = np.random.default_rng(23)
        raw = positive_series_factory(rng, 14, 1)
        spec = gm.PolynomialForcing(2)
        shift = np.array([5.0])
        moved_values = raw.values.copy()
        moved_values[0] += shift
        base = gm.fit_grey(raw, spec, strategy="reduced_half_step")
        moved = gm.fit_grey(gm.make_series(raw.grid.points, moved_values), spec,
                            strategy="reduced_half_step")
        expected = base.eta - np.linalg.solve(np.eye(1) - base.A, base.A @ shift)
        assert np.abs(moved.eta - expected).max() < 1e-9
        report = gm.check_translation_invariance(
            raw, spec, strategy="reduced_half_step", shift=shift)
        assert report.details["A"] <= 1e-9
        assert report.details["restored_from_second_point"] > 1e-3

    def test_zero_shift_changes_nothing(self, water_train):
        report = gm.check_translation_invariance(water_train,
                                                 gm.PolynomialForcing(2))
        assert report.max_abs_discrepancy == 0.0
