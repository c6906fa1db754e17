import json

import numpy as np
import pytest

import greymatch as gm
from greymatch import grey, repro
from greymatch.errors import (InsufficientDataError, OverflowGuardError,
                              SingularDesignError, StrategyError)


class TestBuildRegression:
    def test_hand_assembled_example(self):
        y = gm.make_series([1.0, 2.0, 3.0], [1.0, 3.0, 6.0])
        sample = gm.evaluate_forcing(gm.ZeroForcing(), y.grid)
        design, targets = grey.build_grey_regression(y, sample, 0.5)
        assert np.allclose(design, [[2.0, 1.0], [4.5, 1.0]])
        assert np.allclose(targets, [[2.0], [3.0]])

    def test_lambda_one_keeps_earlier_point(self):
        y = gm.make_series([1.0, 2.0, 3.0], [1.0, 3.0, 6.0])
        sample = gm.evaluate_forcing(gm.ZeroForcing(), y.grid)
        design, _ = grey.build_grey_regression(y, sample, 1.0)
        assert np.allclose(design[:, 0], [1.0, 3.0])

    def test_constant_cusum_gives_zero_targets(self):
        y = gm.make_series(np.arange(5.0), np.full(5, 2.2))
        sample = gm.evaluate_forcing(gm.ZeroForcing(), y.grid)
        _, targets = grey.build_grey_regression(y, sample, 0.5)
        assert np.allclose(targets, 0.0)

    def test_reproduces_trapezoid_matrices_exactly(self):
        rng = np.random.default_rng(12)
        raw = gm.make_series(np.arange(1.0, 9.0), np.abs(rng.normal(size=(8, 2))) + 1)
        spec = gm.PolynomialForcing(1)
        y = gm.cusum(raw)
        sample = gm.evaluate_forcing(spec, y.grid)
        design, targets = grey.build_grey_regression(y, sample, 0.5)
        yv = y.values
        t = y.grid.points
        manual = np.column_stack([
            (yv[:-1] + yv[1:]) / 2.0,
            ((t[:-1] + t[1:]) / 2.0)[:, None],
            np.ones((7, 1)),
        ])
        assert np.array_equal(design, manual)
        # difference quotients of the cusum restore the raw values up to
        # round-off of the running sum
        assert np.abs(targets - raw.values[1:]).max() < 1e-13

    def test_too_few_rows(self):
        y = gm.make_series([1.0, 2.0], [1.0, 3.0])
        sample = gm.evaluate_forcing(gm.ZeroForcing(), y.grid)
        with pytest.raises(InsufficientDataError):
            grey.build_grey_regression(y, sample, 0.5)


class TestFit:
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
        model = gm.FittedModel(np.array([[2.0]]), np.zeros((1, 0)), np.zeros(1),
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
