import json

import numpy as np
import pytest

import greymatch as gm
from greymatch import grey, matching
from greymatch.errors import InsufficientDataError


def trapezoid_integral(raw):
    """Rows k = 2..n of the trapezoid integral of x from t_1."""
    return (gm.integrate_piecewise_linear(raw).values - raw.values[0])[1:]


class TestBuildRegression:
    """fit_matching is grey.integral_regression with the trapezoid integral:
    x(t_k) ~ A I_k + B (U(t_k) - U(t_1)) [+ c (t_k - t_1)] + eta."""

    def test_hand_assembled_constant_series(self):
        # x = (2, 2, 2) on a unit grid: integral column is 2(t_k - t_1)
        raw = gm.make_series([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert np.allclose(trapezoid_integral(raw), [[2.0], [4.0]])
        A, _, rest, _ = grey.integral_regression(raw, np.array([[2.0], [4.0]]),
                                                 np.zeros((2, 0)))
        model = matching.fit_matching(raw, gm.ZeroForcing(), include_constant=False)
        assert np.array_equal(model.A, A) and np.array_equal(model.eta, rest[-1])
        assert model.A[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert model.eta[0] == pytest.approx(2.0)

    def test_zero_forcing_column_count(self):
        rng = np.random.default_rng(0)
        raw = gm.make_series(np.arange(8.0), np.abs(rng.normal(size=(8, 3))) + 1)
        A, B, rest, _ = grey.integral_regression(raw, trapezoid_integral(raw),
                                                 np.zeros((7, 0)))
        # d integral columns and the intercept
        assert A.shape == (raw.d, raw.d) and B.shape == (raw.d, 0)
        assert rest.shape == (1, raw.d)
        model = matching.fit_matching(raw, gm.ZeroForcing(), include_constant=False)
        assert np.array_equal(model.A, A) and np.array_equal(model.eta, rest[0])

    def test_constant_column_is_time_shift(self, water_train):
        ramp = water_train.grid.points[1:] - 1.0
        _, _, (c, eta), _ = grey.integral_regression(
            water_train, trapezoid_integral(water_train), np.zeros((11, 0)), ramp)
        model = matching.fit_matching(water_train, gm.ZeroForcing(),
                                      include_constant=True)
        assert np.array_equal(model.c, c) and np.array_equal(model.eta, eta)

    def test_too_few_points(self):
        raw = gm.make_series([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(InsufficientDataError, match="need at least 5 points"):
            matching.fit_matching(raw, gm.PolynomialForcing(1))


class TestWaterCoefficients:
    """Reference coefficients of the water case study (printed to 4 d.p.)."""

    def test_degree_one_with_constant(self, water_train):
        model = gm.fit_matching(water_train, gm.PolynomialForcing(1))
        assert model.A[0, 0] == pytest.approx(-0.0458, abs=5e-4)
        assert model.B[0, 0] == pytest.approx(0.7730, abs=5e-4)
        assert model.c[0] == pytest.approx(0.5761, abs=5e-4)
        assert model.eta[0] == pytest.approx(20.8931, abs=5e-4)

    def test_degree_two_with_constant(self, water_train):
        model = gm.fit_matching(water_train, gm.PolynomialForcing(2))
        assert model.A[0, 0] == pytest.approx(-0.0395, abs=5e-4)
        assert model.B[0] == pytest.approx([0.7717, -0.0018], abs=5e-4)
        assert model.c[0] == pytest.approx(0.4509, abs=5e-4)
        assert model.eta[0] == pytest.approx(20.9025, abs=5e-4)

    def test_autonomous_without_constant(self, water_train):
        model = gm.fit_matching(water_train, gm.ZeroForcing(),
                                include_constant=False)
        assert model.A[0, 0] == pytest.approx(0.1144, abs=5e-4)
        assert model.eta[0] == pytest.approx(18.2176, abs=5e-4)

    def test_noiseless_simulation_recovery(self, sim_system):
        a_true, eta_true = sim_system
        sc = gm.SimulationScenario(a_matrix=a_true, initial_state=eta_true,
                                   snr=1.0, replications=1, seed=0,
                                   step=0.05, noise_scale=0.0)
        _, noisy = gm.generate_trajectory(sc)
        model = gm.fit_matching(noisy, gm.ZeroForcing(), include_constant=False)
        assert np.abs(model.A - a_true).max() < 1e-2
        assert np.abs(model.eta - eta_true).max() < 1e-2


class TestTimeResponse:
    def test_constant_when_zero_matrix(self):
        model = gm.FittedModel(np.zeros((1, 1)), np.zeros((1, 0)), None,
                               np.array([4.0]), gm.ZeroForcing(), t1=0.0,
                               pipeline="matching")
        out = gm.time_response(model, np.array([0.0, 3.0]))
        assert np.allclose(out.values[:, 0], [4.0, 4.0])

    def test_degree_one_closed_form_coefficients(self, water_train):
        # x(t) = 16.8847 t + 377.1157 e^{-0.04578 t} - 356.2318
        model = gm.fit_matching(water_train, gm.PolynomialForcing(1))
        poly, exp_coeff = gm.scalar_closed_form(
            model.A[0, 0], [model.c[0], model.B[0, 0]], model.eta[0], t1=1.0)
        assert poly[1] == pytest.approx(16.8847, abs=5e-3)
        assert poly[0] == pytest.approx(-356.2318, abs=5e-3)
        assert exp_coeff == pytest.approx(377.1157, abs=5e-3)

    def test_autonomous_closed_form(self, water_train):
        # x(t) = 16.2482 exp(0.1144 t), i.e. eta = 16.2482 e^{0.1144}
        model = gm.fit_matching(water_train, gm.ZeroForcing(),
                                include_constant=False)
        exp_coeff = model.eta[0] * np.exp(-model.A[0, 0] * 1.0)
        assert exp_coeff == pytest.approx(16.2482, abs=5e-4)


class TestForecast:
    def test_holdout_years(self, water_train):
        pred = gm.matching_forecast(water_train, gm.PolynomialForcing(1),
                                    horizon=5)
        assert pred.values[12:15, 0] == pytest.approx([71.24, 78.82, 86.81],
                                                      abs=0.01)
        assert pred.values[15:17, 0] == pytest.approx([95.21, 103.98], abs=0.01)

    def test_holdout_mape(self, water_train, water_full):
        pred = gm.matching_forecast(water_train, gm.PolynomialForcing(1),
                                    horizon=3)
        report = gm.mape(water_full, pred, split_index=12)
        assert report.mape_in[0] == pytest.approx(4.40, abs=0.05)
        assert report.mape_out[0] == pytest.approx(1.32, abs=0.05)

    def test_zero_horizon_includes_initial_value(self, water_train):
        pred = gm.matching_forecast(water_train, gm.PolynomialForcing(1))
        assert pred.n == water_train.n
        assert pred.values[0, 0] == pytest.approx(20.89, abs=0.01)
        ape_2004 = abs(pred.values[0, 0] - 17.20) / 17.20 * 100
        assert ape_2004 == pytest.approx(21.47, abs=0.05)


class TestStructuralCorrespondence:
    def test_equal_spacing_shared_structure(self, positive_series_factory):
        rng = np.random.default_rng(14)
        raw = positive_series_factory(rng, 21, 2)
        g = gm.fit_grey(raw, gm.ZeroForcing())
        m = gm.fit_matching(raw, gm.ZeroForcing(), include_constant=False)
        assert np.abs(g.A - m.A).max() < 1e-9 * max(1.0, np.abs(g.A).max())
        h = 1.0
        predicted = g.c + (1 - h / 2) * (g.A @ raw.values[0])
        assert np.abs(m.eta - predicted).max() < 1e-9

    def test_parameter_count_one_below_grey(self, water_train):
        # matching degree-1 + constant vs grey degree-2: same model family,
        # one redundant degree of freedom eliminated.
        g = gm.fit_grey(water_train, gm.PolynomialForcing(2))
        m = gm.fit_matching(water_train, gm.PolynomialForcing(1))
        grey_params = g.A.size + g.B.size + g.c.size + g.eta.size
        matching_params = m.A.size + m.B.size + m.c.size + m.eta.size
        assert matching_params == grey_params - g.d

    def test_quadratic_grey_and_linear_matching_share_fitted_space(self, water_train):
        # the two designs span the same column space, so the closed forms
        # agree except for the exponential coefficient
        g = gm.fit_grey(water_train, gm.PolynomialForcing(2))
        m = gm.fit_matching(water_train, gm.PolynomialForcing(1))
        assert g.A[0, 0] == pytest.approx(m.A[0, 0], abs=1e-12)
        assert m.B[0, 0] == pytest.approx(2 * g.B[0, 1], abs=1e-12)
        assert m.c[0] == pytest.approx(g.B[0, 0] - g.B[0, 1], abs=1e-12)


class TestSerialization:
    def test_round_trip_with_constant(self, water_train):
        model = gm.fit_matching(water_train, gm.PolynomialForcing(1))
        payload = json.loads(json.dumps(gm.model_to_dict(model)))
        back = gm.model_from_dict(payload)
        assert np.array_equal(back.A, model.A)
        assert np.array_equal(back.B, model.B)
        assert np.array_equal(back.c, model.c)
        assert np.array_equal(back.eta, model.eta)
        assert back.pipeline == "matching"
        assert back.strategy is None and back.background_lambda is None

    def test_round_trip_without_constant(self, water_train):
        model = gm.fit_matching(water_train, gm.ZeroForcing(),
                                include_constant=False)
        payload = json.loads(json.dumps(gm.model_to_dict(model)))
        assert "c" not in payload
        back = gm.model_from_dict(payload)
        assert back.c is None
        assert np.array_equal(back.eta, model.eta)
