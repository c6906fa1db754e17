import numpy as np
import pytest
from scipy.integrate import solve_ivp

import greymatch as gm
from greymatch import repro


@pytest.fixture
def water_train():
    return repro.water_series()


@pytest.fixture
def water_full():
    return repro.water_full_series()


@pytest.fixture
def sim_system():
    """True system of the two-dimensional simulation study."""
    return np.array(repro.SIM_A), np.array(repro.SIM_ETA)


def make_stable_system(rng, d):
    """Random system matrix with spectral abscissa below 0.5."""
    a = rng.normal(scale=0.4, size=(d, d))
    shift = max(np.linalg.eigvals(a).real.max() - 0.4, 0.0)
    return a - shift * np.eye(d)


def ode_oracle(a, g, eta, t1, times, knots=()):
    """z(t) of z' = A z + g(t), z(t1) = eta, by DOP853 at rtol = atol = 1e-12.

    The integration runs outward from t1 in each direction and restarts at
    every knot, where g may have a kink, so that the error control never
    steps across one.
    """
    out = np.empty((len(times), len(eta)))
    for sign in (1.0, -1.0):
        ahead = [k for k, t in enumerate(times) if sign * (t - t1) > 0]
        if not ahead:
            continue
        far = max(sign * (times[k] - t1) for k in ahead)
        inner = [q for q in knots if 0 < sign * (q - t1) < far]
        stops = sorted({*(times[k] for k in ahead), *inner}, key=lambda s: sign * s)
        z, at, reached = np.asarray(eta, dtype=float), t1, {}
        for stop in stops:
            z = solve_ivp(lambda s, y: a @ y + g(s), (at, stop), z,
                          method="DOP853", rtol=1e-12, atol=1e-12).y[:, -1]
            at, reached[stop] = stop, z
        for k in ahead:
            out[k] = reached[times[k]]
    out[np.asarray(times) == t1] = eta
    return out


@pytest.fixture
def stable_system_factory():
    return make_stable_system


def positive_series(rng, n, d, t_step=1.0, t0=1.0):
    """Random strictly positive series on a uniform grid."""
    values = rng.normal(loc=8.0, scale=1.5, size=(n, d))
    values = np.abs(values) + 1.0
    return gm.make_series(t0 + t_step * np.arange(n), values)


@pytest.fixture
def positive_series_factory():
    return positive_series
