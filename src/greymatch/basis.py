"""Forcing-term specifications u(t) with exact antiderivatives.

A forcing spec describes the known input entering a linear model
dz/dt = A z + B u(t) + c.  Polynomial and Fourier bases carry analytic
antiderivatives; exogenous forcing is a sampled series whose antiderivative
is formed with the trapezoid rule.  Every spec also writes itself as an
exosystem w' = S w, u = C w, through which time responses are propagated
exactly and from which the derivative u' = C S w is read.  The constant term
is not a basis component: the grey pipeline always carries it separately and
the matching pipeline attaches it explicitly.

A spec is treated as immutable: it builds its exosystem on the first call
of `exosystem()` and keeps it, outside its dataclass fields, so equality,
repr and serialization see only the fields, and a `dataclasses.replace`
copy builds its own.
"""

from dataclasses import dataclass, field
from functools import wraps
from math import factorial, pi
from typing import Callable

import numpy as np

from .errors import AlignmentError
from .series import TimeGrid, VectorSeries, integrate_piecewise_linear


@dataclass(frozen=True)
class Exosystem:
    """Forcing written as the output u = C w of a linear system w' = S w.

    `state(t, forward)` returns w(t) for a march that leaves t forward
    (or backward) in time: shape (m,) for a scalar t, and one row per time,
    (..., m), for an array of times.  Sampled forcing is linear between its
    samples, so its state, the value and the slope of u, holds only up to
    the next knot; re-reading w there means replacing it by
    state(t, forward), which differs from state(t, not forward), the state
    the march arrives with, by the change of slope.  `domain` bounds the
    times where it is defined.
    """

    generator: np.ndarray
    output: np.ndarray
    state: Callable
    knots: np.ndarray = field(default_factory=lambda: np.empty(0))
    domain: tuple = (-np.inf, np.inf)

    @property
    def is_polynomial(self):
        """u is a polynomial in t: a nilpotent generator and no knots."""
        power = np.linalg.matrix_power(self.generator, len(self.generator))
        return not self.knots.size and not power.any()


def _block_diagonal(blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    row = col = 0
    for b in blocks:
        out[row:row + b.shape[0], col:col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return out


def _built_once(build):
    """An exosystem() method that builds on the first call and keeps the
    result on the spec, outside its fields."""

    @wraps(build)
    def exosystem(self):
        if "_exosystem" not in self.__dict__:
            object.__setattr__(self, "_exosystem", build(self))
        return self._exosystem

    return exosystem


def _times(t):
    """t as a float array, with a trailing axis for the state components."""
    return np.asarray(t, dtype=float)[..., None]


@dataclass(frozen=True)
class ZeroForcing:
    """No forcing input (autonomous model).

    Treated as immutable: its exosystem is built once and kept.
    """

    @property
    def dimension(self):
        return 0

    def values(self, times):
        return np.zeros((len(np.atleast_1d(times)), 0))

    def antiderivatives(self, times):
        return np.zeros((len(np.atleast_1d(times)), 0))

    @_built_once
    def exosystem(self):
        return Exosystem(np.zeros((0, 0)), np.zeros((0, 0)),
                         lambda t, forward=True: np.zeros(np.shape(t) + (0,)))


@dataclass(frozen=True)
class PolynomialForcing:
    """Monomial basis u_i(t) = t^i for i = 1..degree (constant excluded).

    Treated as immutable: its exosystem is built once and kept.
    """

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("polynomial degree must be >= 1; the constant "
                             "term is carried separately")

    @property
    def dimension(self):
        return self.degree

    def values(self, times):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        return np.column_stack([t ** i for i in range(1, self.degree + 1)])

    def antiderivatives(self, times):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        return np.column_stack(
            [t ** (i + 1) / (i + 1) for i in range(1, self.degree + 1)]
        )

    @_built_once
    def exosystem(self):
        # w_j = t^j / j! for j = 0..degree: w_j' = w_{j-1} and u_i = i! w_i.
        scale = np.array([factorial(j) for j in range(self.degree + 1)], dtype=float)
        powers = np.arange(self.degree + 1)
        return Exosystem(np.eye(self.degree + 1, k=-1),
                         np.eye(self.degree, self.degree + 1, k=1) * scale,
                         lambda t, forward=True: _times(t) ** powers / scale)


@dataclass(frozen=True)
class FourierForcing:
    """Interleaved pairs u_{2i-1} = sin(2 i pi f t), u_{2i} = cos(2 i pi f t).

    Treated as immutable: its exosystem is built once and kept.
    """

    pairs: int
    frequency: float

    def __post_init__(self):
        if self.pairs < 1:
            raise ValueError("fourier forcing needs at least one pair")
        if self.frequency <= 0:
            raise ValueError("fourier frequency must be positive")

    @property
    def dimension(self):
        return 2 * self.pairs

    def _omegas(self):
        return [2.0 * i * pi * self.frequency for i in range(1, self.pairs + 1)]

    def values(self, times):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        cols = []
        for w in self._omegas():
            cols.append(np.sin(w * t))
            cols.append(np.cos(w * t))
        return np.column_stack(cols)

    def antiderivatives(self, times):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        cols = []
        for w in self._omegas():
            cols.append(-np.cos(w * t) / w)
            cols.append(np.sin(w * t) / w)
        return np.column_stack(cols)

    @_built_once
    def exosystem(self):
        # Each pair (sin wt, cos wt) turns as w' = [[0, w], [-w, 0]] w.
        rotation = np.kron(np.diag(self._omegas()), [[0.0, 1.0], [-1.0, 0.0]])
        return Exosystem(rotation, np.eye(self.dimension),
                         lambda t, forward=True: self.values(t).reshape(
                             np.shape(t) + (self.dimension,)))


@dataclass(frozen=True)
class ExogenousForcing:
    """Forcing sampled from an observed series; values between samples are
    linearly interpolated when a continuous evaluation is required.

    Treated as immutable: its exosystem is built once and kept, so the
    series' arrays are not to be changed in place afterwards.
    """

    series: VectorSeries

    @property
    def dimension(self):
        return self.series.d

    def _align(self, times):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        own = self.series.grid.points
        idx = np.searchsorted(own, t)
        missing = (idx >= len(own)) | ~np.isclose(
            own[np.minimum(idx, len(own) - 1)], t, rtol=1e-9, atol=1e-12
        )
        if missing.any():
            raise AlignmentError(
                f"exogenous series has no sample at t={t[missing][0]!r}"
            )
        return np.minimum(idx, len(own) - 1)

    def values(self, times):
        return self.series.values[self._align(times)]

    def antiderivatives(self, times):
        # the trapezoid over every sample, as the propagator marches u
        return integrate_piecewise_linear(self.series).values[self._align(times)]

    @_built_once
    def exosystem(self):
        # w = (u, du/dt), with du/dt constant between samples: every sample
        # time is a knot where the slope changes.
        own = self.series.grid.points
        values = self.series.values
        p = self.dimension
        slopes = np.vstack([np.diff(values, axis=0) / np.diff(own)[:, None],
                            np.zeros((1, p))])
        # w(t) = at_sample[k] + rate[k] (t - own[k]) on the piece from sample k
        at_sample = np.hstack([values, slopes])
        rate = np.hstack([slopes, np.zeros_like(slopes)])

        def state(t, forward=True):
            k = np.searchsorted(own, t, side="right" if forward else "left") - 1
            k = np.maximum(k, 0)
            return at_sample[k] + rate[k] * (_times(t) - own[k, None])

        return Exosystem(np.kron([[0.0, 1.0], [0.0, 0.0]], np.eye(p)),
                         np.eye(p, 2 * p), state, knots=own,
                         domain=(own[0], own[-1]))


@dataclass(frozen=True)
class MixedForcing:
    """Concatenation of several forcing specs.

    Treated as immutable: its exosystem is built once and kept.
    """

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("mixed forcing needs at least one part")

    @property
    def dimension(self):
        return sum(p.dimension for p in self.parts)

    def values(self, times):
        return np.column_stack([p.values(times) for p in self.parts])

    def antiderivatives(self, times):
        return np.column_stack([p.antiderivatives(times) for p in self.parts])

    @_built_once
    def exosystem(self):
        parts = [p.exosystem() for p in self.parts]

        def state(t, forward=True):
            return np.concatenate([e.state(t, forward) for e in parts], axis=-1)

        return Exosystem(
            _block_diagonal([e.generator for e in parts]),
            _block_diagonal([e.output for e in parts]),
            state,
            knots=np.sort(np.concatenate([e.knots for e in parts])),
            domain=(max(e.domain[0] for e in parts), min(e.domain[1] for e in parts)),
        )


def config_field(config, key, default, kinds, expected, owner="config"):
    """config[key], or default when absent; ValueError naming the field
    unless it is one of the given types (a JSON true or false never passes
    for a number)."""
    value = config.get(key, default)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ValueError(f"{owner} field {key!r} must be {expected}, got {value!r}")
    return value


def _json_numbers(value):
    """Whether value is a JSON number or nested lists of them; true and
    false do not count as numbers."""
    if isinstance(value, (list, tuple)):
        return all(map(_json_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def config_array(config, key, owner="config"):
    """config[key] as a float array; ValueError naming the field unless it
    holds JSON numbers or nested lists of them."""
    value = config[key]
    if not _json_numbers(value):
        raise ValueError(f"{owner} field {key!r} must hold only numbers, got {value!r}")
    return np.array(value, dtype=float)


def spec_to_config(spec):
    """JSON-serializable description of a forcing spec."""
    if isinstance(spec, ZeroForcing):
        return {"kind": "zero"}
    if isinstance(spec, PolynomialForcing):
        return {"kind": "polynomial", "degree": spec.degree}
    if isinstance(spec, FourierForcing):
        return {"kind": "fourier", "pairs": spec.pairs, "frequency": spec.frequency}
    if isinstance(spec, ExogenousForcing):
        return {
            "kind": "exogenous",
            "times": spec.series.grid.points.tolist(),
            "values": spec.series.values.tolist(),
        }
    if isinstance(spec, MixedForcing):
        return {"kind": "mixed", "parts": [spec_to_config(p) for p in spec.parts]}
    raise TypeError(f"unknown forcing spec {spec!r}")


def spec_from_config(config):
    """Inverse of spec_to_config.

    Raises ValueError, not a TypeError or AttributeError, when the config
    is not a JSON object or a field has a type its kind cannot take:
    degree and pairs must be JSON integers, frequency a number, times and
    values JSON numbers or lists of them.
    """
    if not isinstance(config, dict):
        raise ValueError(f"forcing config must be a JSON object, got {config!r}")
    kind = config.get("kind")
    if kind == "zero":
        return ZeroForcing()
    if kind == "mixed":
        parts = config["parts"]
        if not isinstance(parts, list):
            raise ValueError(f"mixed forcing 'parts' must be a list, got {parts!r}")
        return MixedForcing(tuple(spec_from_config(p) for p in parts))
    if kind == "polynomial":
        return PolynomialForcing(config_field(config, "degree", None, (int,),
                                              "an integer", "polynomial forcing"))
    if kind == "fourier":
        return FourierForcing(
            config_field(config, "pairs", None, (int,), "an integer",
                         "fourier forcing"),
            float(config_field(config, "frequency", None, (int, float),
                               "a number", "fourier forcing")))
    if kind == "exogenous":
        return ExogenousForcing(VectorSeries(
            TimeGrid(config_array(config, "times", "exogenous forcing")),
            config_array(config, "values", "exogenous forcing")))
    raise ValueError(f"unknown forcing kind {kind!r}")
