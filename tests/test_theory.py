import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greymatch as gm

from greymatch.errors import DataError
from tests.conftest import make_stable_system


class TestReduceOrder:
    def test_two_dimensional_autonomous_constants(self, sim_system):
        # c = (I - A) xi for the autonomous system with x(t1) = xi
        a_true, eta_true = sim_system
        c = gm.recover_constant(a_true, np.zeros((2, 0)), eta_true, eta_true,
                                gm.ZeroForcing())
        assert np.allclose(c, [1.2550, -0.4625], atol=1e-12)

    def test_zero_matrix(self):
        spec = gm.PolynomialForcing(1)
        b = np.array([[2.0]])
        c = np.array([3.0])
        x1 = gm.reduce_order(np.zeros((1, 1)), b, c, np.array([9.0]), spec, t1=2.0)
        assert x1[0] == pytest.approx(2.0 * 2.0 + 3.0)

    def test_scalar_worked_example(self):
        # forcing (t, t^2) at t1 = 0 contributes nothing: x(0) = a xi + c
        a = np.array([[-0.5]])
        b = np.array([[0.3, -0.2]])
        x1 = gm.reduce_order(a, b, np.array([1.0]), np.array([2.0]),
                             gm.PolynomialForcing(2), t1=0.0)
        assert x1[0] == pytest.approx(-0.5 * 2.0 + 1.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2))
            c = rng.normal(size=2)
            xi = rng.normal(size=2)
            spec = gm.PolynomialForcing(2)
            x1 = gm.reduce_order(a, b, c, xi, spec, t1=1.5)
            back = gm.recover_constant(a, b, x1, xi, spec, t1=1.5)
            assert np.abs(back - c).max() < 1e-13 * max(1.0, np.abs(x1).max())


class TestTranslationInvariance:
    def test_zero_shift(self, water_train):
        report = gm.check_translation_invariance(water_train,
                                                 gm.PolynomialForcing(1))
        assert report.passed
        assert report.max_abs_discrepancy == 0.0

    def test_random_univariate_shift(self, positive_series_factory):
        rng = np.random.default_rng(17)
        raw = positive_series_factory(rng, 15, 1)
        report = gm.check_translation_invariance(
            raw, gm.PolynomialForcing(1), strategy="least_squares",
            shift=np.array([5.0]))
        assert report.passed
        assert report.details["A"] <= 1e-9
        assert report.details["restored_from_second_point"] <= 1e-8

    def test_shift_linking_the_two_pipelines(self, sim_system):
        # With shift (h-2)/2 * x(t1) on equally spaced autonomous data, the
        # translated grey constant coincides with the matching initial value.
        a_true, eta_true = sim_system
        h = 0.25
        sc = gm.SimulationScenario(a_matrix=a_true, initial_state=eta_true,
                                   snr=1.0, replications=1, seed=0, step=h,
                                   noise_scale=0.0)
        _, noisy = gm.generate_trajectory(sc)
        shift = (h - 2.0) / 2.0 * noisy.values[0]
        shifted_values = noisy.values.copy()
        shifted_values[0] += shift
        shifted = gm.VectorSeries(noisy.grid, shifted_values)
        g = gm.fit_grey(shifted, gm.ZeroForcing())
        m = gm.fit_matching(noisy, gm.ZeroForcing(), include_constant=False)
        assert np.abs(g.A - m.A).max() < 1e-9
        assert np.abs(g.c - m.eta).max() < 1e-9


class TestEqualSpacingCorrespondence:
    def test_random_two_dimensional(self, positive_series_factory):
        rng = np.random.default_rng(23)
        raw = positive_series_factory(rng, 21, 2)
        report = gm.check_proposition_equal_spacing(raw)
        assert report.passed
        assert report.max_abs_discrepancy <= 1e-9

    def test_interval_two_makes_constants_coincide(self, positive_series_factory):
        rng = np.random.default_rng(29)
        raw = positive_series_factory(rng, 12, 1, t_step=2.0)
        g = gm.fit_grey(raw, gm.ZeroForcing())
        m = gm.fit_matching(raw, gm.ZeroForcing(), include_constant=False)
        assert np.abs(m.eta - g.c).max() < 1e-9

    def test_unequal_spacing_rejected(self):
        raw = gm.make_series([0.0, 1.0, 3.0, 4.0, 5.0, 6.0],
                             [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(DataError):
            gm.check_proposition_equal_spacing(raw)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 2),
           n=st.integers(6, 30), h=st.floats(0.05, 0.5))
    def test_random_stable_systems(self, seed, d, n, h):
        # noisy samples of x' = A x on an equally spaced grid: the same A
        # from both pipelines, and eta = c + (1 - h/2) A x(t1)
        rng = np.random.default_rng(seed)
        a = make_stable_system(rng, d)
        t = rng.uniform(-2.0, 2.0) + h * np.arange(n)
        clean = gm.expm(a * (t - t[0])[:, None, None]) @ rng.normal(2.0, 1.0, size=d)
        raw = gm.make_series(t, clean + rng.normal(scale=0.1, size=(n, d)))
        assert gm.check_proposition_equal_spacing(raw).passed


class TestReductionRoundTrip:
    def test_worked_example_system(self):
        report = gm.check_reduction_roundtrip(
            np.array([[-0.5]]), np.array([[0.3, -0.2]]), np.array([1.0]),
            np.array([2.0]), gm.PolynomialForcing(2),
            gm.TimeGrid(np.linspace(0.0, 5.0, 11)))
        assert report.passed
        assert report.max_abs_discrepancy < 1e-8

    def test_fourier_forcing_round_trip(self):
        report = gm.check_reduction_roundtrip(
            np.array([[-0.3]]), np.array([[0.5, 0.2]]), np.array([0.7]),
            np.array([1.0]), gm.FourierForcing(pairs=1, frequency=0.3),
            gm.TimeGrid(np.linspace(0.0, 3.0, 7)), tolerance=1e-5)
        assert report.passed


class TestScalarClosedForm:
    def test_matches_numeric_response(self):
        a, poly_g, eta = -0.7, [1.0, -0.4, 0.15], 2.3
        coeffs, exp_coeff = gm.scalar_closed_form(a, poly_g, eta, t1=0.5)
        t = np.linspace(0.5, 4.0, 9)
        closed = (np.polynomial.polynomial.polyval(t, coeffs)
                  + exp_coeff * np.exp(a * t))
        numeric = gm.grey.linear_response(
            np.array([[a]]), np.array([poly_g[1:]]), np.array(poly_g[:1]),
            gm.PolynomialForcing(2), np.array([eta]), 0.5, t)[:, 0]
        assert np.abs(closed - numeric).max() < 1e-10

    def test_zero_decay_rejected(self):
        with pytest.raises(ValueError):
            gm.scalar_closed_form(0.0, [1.0], 1.0)
