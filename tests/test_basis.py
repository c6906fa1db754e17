from dataclasses import replace

import numpy as np
import pytest

import greymatch as gm
from greymatch import basis
from greymatch.errors import AlignmentError


def analytic_derivative(spec, t):
    """u'(t) written out by hand: i t^(i-1) for the monomial t^i and
    (w cos wt, -w sin wt) for the pair (sin wt, cos wt)."""
    if isinstance(spec, gm.PolynomialForcing):
        return np.array([i * t ** (i - 1) for i in range(1, spec.degree + 1)])
    if isinstance(spec, gm.FourierForcing):
        out = []
        for i in range(1, spec.pairs + 1):
            w = 2.0 * i * np.pi * spec.frequency
            out += [w * np.cos(w * t), -w * np.sin(w * t)]
        return np.array(out)
    return np.concatenate([analytic_derivative(p, t) for p in spec.parts])


def exosystem_derivative(spec, t):
    """u'(t) = C S w(t), read from the spec's exosystem w' = S w, u = C w."""
    exo = spec.exosystem()
    return exo.output @ exo.generator @ exo.state(t)


class TestEvaluate:
    def test_zero_spec_has_no_columns(self):
        t = np.arange(4.0)
        assert gm.ZeroForcing().values(t).shape == (4, 0)
        assert gm.ZeroForcing().antiderivatives(t).shape == (4, 0)

    def test_polynomial_monomials(self):
        spec = gm.PolynomialForcing(2)
        assert np.allclose(spec.values(np.array([3.0])), [[3.0, 9.0]])

    def test_polynomial_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            gm.PolynomialForcing(0)

    def test_fourier_values(self):
        spec = gm.FourierForcing(pairs=1, frequency=0.25)
        # at t=1: (sin(pi/2), cos(pi/2))
        assert np.allclose(spec.values(np.array([1.0])), [[1.0, 0.0]], atol=1e-15)

    def test_fourier_derivatives(self):
        spec = gm.FourierForcing(pairs=1, frequency=0.25)
        got = exosystem_derivative(spec, 0.0)
        assert np.allclose(got, [np.pi / 2, 0.0], atol=1e-15)

    def test_polynomial_derivatives(self):
        spec = gm.PolynomialForcing(2)
        assert np.allclose(exosystem_derivative(spec, 3.0), [1.0, 6.0])

    def test_zero_derivative_empty(self):
        for t in np.arange(4.0):
            assert exosystem_derivative(gm.ZeroForcing(), t).shape == (0,)


class TestExosystemDerivative:
    @pytest.mark.parametrize("spec", [
        *(gm.PolynomialForcing(k) for k in range(1, 6)),
        gm.FourierForcing(pairs=3, frequency=0.17),
        basis.MixedForcing((gm.PolynomialForcing(4),
                            gm.FourierForcing(pairs=2, frequency=0.5))),
    ])
    def test_matches_analytic_derivative(self, spec):
        # the grid half-steps -h/2 of reduced_half_step and times up to 12
        times = np.concatenate([-np.geomspace(0.005, 1.5, 9), [0.0],
                                np.linspace(0.1, 12.0, 17)])
        for t in times:
            got = exosystem_derivative(spec, t)
            want = analytic_derivative(spec, t)
            assert (np.abs(got - want) <= 1e-15 * np.abs(want)).all(), (t, got, want)


class TestAntiderivatives:
    @pytest.mark.parametrize("spec", [
        gm.PolynomialForcing(3),
        gm.FourierForcing(pairs=2, frequency=0.3),
        basis.MixedForcing((gm.PolynomialForcing(1),
                            gm.FourierForcing(pairs=1, frequency=0.5))),
    ])
    def test_difference_quotients_approximate_midpoint_values(self, spec):
        h = 1e-4
        t = np.array([1.0, 1.0 + h])
        U = spec.antiderivatives(t)
        mid = spec.values(np.array([1.0 + h / 2]))[0]
        quotient = (U[1] - U[0]) / h
        assert np.abs(quotient - mid).max() < 1e-7  # O(h^2)

    def test_columns_linearly_independent(self):
        rng = np.random.default_rng(6)
        t = np.sort(rng.uniform(0.2, 9.0, size=12))
        for spec in (gm.PolynomialForcing(3),
                     gm.FourierForcing(pairs=2, frequency=0.17)):
            cols = spec.values(t)
            assert np.linalg.matrix_rank(cols) == spec.dimension


class TestExogenous:
    def make_spec(self):
        t = np.arange(0.0, 5.0, 0.5)
        return gm.ExogenousForcing(gm.make_series(t, np.sin(t)))

    def test_values_on_aligned_grid(self):
        spec = self.make_spec()
        got = spec.values(np.array([0.5, 1.0]))
        assert np.allclose(got[:, 0], np.sin([0.5, 1.0]))

    def test_misaligned_grid_rejected(self):
        spec = self.make_spec()
        with pytest.raises(AlignmentError):
            spec.values(np.array([0.25]))

    def test_antiderivative_matches_trapezoid(self):
        spec = self.make_spec()
        t = np.arange(0.0, 5.0, 0.5)
        U = spec.antiderivatives(t)
        manual = gm.integrate_piecewise_linear(gm.make_series(t, np.sin(t))).values
        assert np.allclose(U, manual)

    def test_antiderivative_integrates_every_sample(self):
        # sampled every 0.5, read every 1.0: the integral runs over the
        # samples between the read times too, as the propagator marches u
        spec = self.make_spec()
        t = np.arange(0.0, 5.0, 1.0)
        U = spec.antiderivatives(t)
        fine = np.arange(0.0, 5.0, 0.5)
        want = [np.trapezoid(np.sin(fine[fine <= tk]), fine[fine <= tk]) for tk in t]
        assert np.abs((U[:, 0] - U[0, 0]) - want).max() <= 1e-12

    def test_exosystem_interpolates(self):
        spec = self.make_spec()
        exo = spec.exosystem()
        # halfway between samples 0.5 and 1.0, marching either way
        for forward in (True, False):
            u = exo.output @ exo.state(0.75, forward)
            assert u[0] == pytest.approx((np.sin(0.5) + np.sin(1.0)) / 2)
        # within one interval the state flows with its generator
        moved = gm.expm(0.15 * exo.generator) @ exo.state(0.6)
        assert np.allclose(moved, exo.state(0.75), atol=1e-14)
        for outside in (99.0, -1.0):
            with pytest.raises(AlignmentError):
                gm.grey.linear_response(np.zeros((1, 1)), np.ones((1, 1)), None,
                                        spec, np.zeros(1), 0.0, np.array([outside]))


class TestPolynomialCoefficients:
    def test_grey_style_assembly(self):
        # g(t) = B u(t) + c read off the exosystem: B C w(t) + c
        spec = gm.PolynomialForcing(2)
        B = np.array([[0.5, 0.25]])
        c = np.array([2.0])
        exo = spec.exosystem()
        for t in (-1.5, 0.0, 0.7, 3.0):
            g = B @ exo.output @ exo.state(t) + c
            assert np.allclose(g, [np.polyval([0.25, 0.5, 2.0], t)])

    def test_zero_spec_with_constant(self):
        # z' = c from z(0) = 0 with A = 0: the constant is the slope
        out = gm.grey.linear_response(np.zeros((2, 2)), np.zeros((2, 0)),
                                      np.array([1.0, -1.0]), gm.ZeroForcing(),
                                      np.zeros(2), 0.0, np.array([1.0]))
        assert np.allclose(out.T, [[1.0], [-1.0]])

    def test_homogeneous_case(self):
        exo = gm.ZeroForcing().exosystem()
        assert exo.generator.shape == exo.output.shape == (0, 0)
        assert exo.state(1.0).shape == (0,)

    def test_fourier_not_polynomial(self):
        spec = gm.FourierForcing(pairs=1, frequency=1.0)
        assert not spec.exosystem().is_polynomial
        assert gm.PolynomialForcing(3).exosystem().is_polynomial

    def test_derivative_monomials(self):
        # du/dt is the exosystem output C S w
        spec = gm.PolynomialForcing(3)
        exo = spec.exosystem()
        dmono = np.array([[1.0, 0.0, 0.0],
                          [0.0, 2.0, 0.0],
                          [0.0, 0.0, 3.0]])
        # d/dt (t, t^2, t^3) = (1, 2t, 3t^2)
        for t in (-2.0, 0.5, 1.75):
            got = exo.output @ exo.generator @ exo.state(t)
            assert np.allclose(got, dmono @ t ** np.arange(3))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("spec", [
        gm.ZeroForcing(),
        gm.PolynomialForcing(3),
        gm.FourierForcing(pairs=2, frequency=0.25),
        basis.MixedForcing((gm.PolynomialForcing(1), gm.ZeroForcing())),
    ])
    def test_round_trip(self, spec):
        assert gm.spec_from_config(gm.spec_to_config(spec)) == spec

    def test_exogenous_round_trip(self):
        spec = gm.ExogenousForcing(gm.make_series([0.0, 1.0], [2.0, 3.0]))
        back = gm.spec_from_config(gm.spec_to_config(spec))
        assert np.array_equal(back.series.values, spec.series.values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gm.spec_from_config({"kind": "spline"})


def every_kind():
    own = np.array([0.0, 0.4, 1.0, 1.3, 2.5, 3.0])
    sampled = gm.ExogenousForcing(gm.make_series(own, np.column_stack([np.sin(own),
                                                                         own ** 2])))
    return {
        "zero": gm.ZeroForcing(),
        "polynomial": gm.PolynomialForcing(3),
        "fourier": gm.FourierForcing(pairs=2, frequency=0.3),
        "exogenous": sampled,
        "mixed": gm.MixedForcing((sampled, gm.FourierForcing(1, 0.2),
                                  gm.PolynomialForcing(1))),
    }


class TestVectorisedState:
    @pytest.mark.parametrize("kind", list(every_kind()))
    def test_array_of_times_stacks_the_scalar_calls(self, kind):
        # between samples, at the samples themselves and at both ends
        exo = every_kind()[kind].exosystem()
        times = np.array([0.0, 0.2, 0.4, 0.7, 1.0, 1.3, 2.0, 2.5, 2.9, 3.0])
        for forward in (True, False):
            rows = np.stack([exo.state(t, forward) for t in times])
            assert np.array_equal(exo.state(times, forward), rows)
            assert exo.state(times[3], forward).shape == rows.shape[1:]
            assert exo.state(times[:0], forward).shape == (0,) + rows.shape[1:]

    def test_sample_states_differ_by_the_change_of_slope(self):
        spec = every_kind()["exogenous"]
        exo, own = spec.exosystem(), spec.series.grid.points
        jump = exo.state(own[1:-1], True) - exo.state(own[1:-1], False)
        slopes = np.diff(spec.series.values, axis=0) / np.diff(own)[:, None]
        assert np.allclose(jump[:, 2:], np.diff(slopes, axis=0), rtol=1e-14)
        assert np.allclose(jump[:, :2], 0.0, atol=1e-14)


class TestExosystemBuiltOnce:
    @pytest.mark.parametrize("kind", list(every_kind()))
    def test_kept_on_the_spec(self, kind):
        spec = every_kind()[kind]
        assert spec.exosystem() is spec.exosystem()

    @pytest.mark.parametrize("kind", list(every_kind()))
    def test_fields_alone_are_seen(self, kind):
        spec, fresh = every_kind()[kind], every_kind()[kind]
        text, config = repr(spec), gm.spec_to_config(spec)
        spec.exosystem()
        assert repr(spec) == text == repr(fresh)
        assert gm.spec_to_config(spec) == config
        if kind not in ("exogenous", "mixed"):
            # == of a sampled series compares arrays and has no truth value
            assert spec == fresh and fresh == spec

    def test_model_file_unchanged(self):
        t = np.linspace(0.0, 3.0, 13)
        spec = gm.MixedForcing((gm.ExogenousForcing(gm.make_series(t, np.sin(t))),
                                gm.FourierForcing(1, 0.2)))
        raw = gm.make_series(t, 5.0 + np.cos(t) + 0.1 * t)
        model = gm.fit_matching(raw, spec)
        before = gm.grey.model_to_dict(model)
        gm.grey.time_response(model, t)
        assert gm.grey.model_to_dict(model) == before

    @pytest.mark.parametrize("kind", ["fourier", "exogenous", "mixed"])
    def test_replaced_copy_builds_its_own(self, kind):
        spec = every_kind()[kind]
        built = spec.exosystem()
        copy = replace(spec)
        assert copy.exosystem() is not built
        assert np.array_equal(copy.exosystem().generator, built.generator)
        if kind == "fourier":
            faster = replace(spec, frequency=0.6)
            assert np.array_equal(faster.exosystem().generator, 2.0 * built.generator)
