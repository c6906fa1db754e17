"""Time grids, vector series, cumulative-sum operators and error metrics.

The cumulative-sum (cusum) convention follows the grey-modelling literature:
the first interval weight is fixed to 1 regardless of where the grid starts,
so y(t_1) = x(t_1) always.  This surprises users of irregular grids whose
first point carries other units; it is intentional and matched by the
inverse operator.

A VectorSeries may hold a stack of series on one grid, values shaped
(R, n, d); cusum, inverse_cusum and integrate_piecewise_linear work along
the time axis of each, so a single series is the one-slice case.
"""

import csv as _csv
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError, ZeroValueError

# Relative spread of the steps below which times count as equally spaced,
# here and in numerics.exosystem_response, which then reuses one step
# exponential.  At 1e-12 that march stays exact to round-off.
UNIFORM_RTOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing observation times t_1 < ... < t_n."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) < 1:
            raise ValueError("time grid needs at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("time grid must be finite")
        if len(pts) > 1 and not (np.diff(pts) > 0).all():
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    @property
    def intervals(self):
        """Interval weights h_k: h_1 = 1 by convention, h_k = t_k - t_{k-1}."""
        h = np.empty(len(self.points))
        h[0] = 1.0
        h[1:] = np.diff(self.points)
        return h

    def is_uniform(self):
        steps = np.diff(self.points)
        return bool(np.allclose(steps, steps[:1], rtol=UNIFORM_RTOL, atol=0.0))

    def extended(self, horizon):
        """Append `horizon` points continuing with the last interval width;
        ValueError for a negative horizon."""
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        if horizon == 0:
            return self
        step = self.points[-1] - self.points[-2] if len(self.points) > 1 else 1.0
        extra = self.points[-1] + step * np.arange(1, horizon + 1)
        return TimeGrid(np.concatenate([self.points, extra]))


@dataclass(frozen=True)
class VectorSeries:
    """d-dimensional observations on a TimeGrid, one row per time point;
    values of shape (n, d), or (R, n, d) for R series on the same grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim < 2:
            vals = vals.reshape(-1, 1)
        if vals.shape[-2] != len(self.grid):
            raise ValueError(
                f"series has {vals.shape[-2]} rows but grid has {len(self.grid)} points"
            )
        if not np.isfinite(vals).all():
            raise ValueError("series values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return self.values.shape[-2]

    @property
    def d(self):
        return self.values.shape[-1]

    def head(self, count):
        return VectorSeries(TimeGrid(self.grid.points[:count]),
                            self.values[..., :count, :])


def make_series(times, values):
    """Convenience constructor from raw arrays."""
    return VectorSeries(TimeGrid(np.asarray(times, dtype=float)), values)


def cusum(series):
    """Interval-weighted running sum: y(t_k) = sum_{i<=k} h_i x(t_i)."""
    h = series.grid.intervals
    return VectorSeries(series.grid, np.cumsum(h[:, None] * series.values, axis=-2))


def inverse_cusum(series):
    """Difference quotients restoring x from y; exact inverse of cusum."""
    h = series.grid.intervals
    y = series.values
    x = np.empty_like(y)
    x[..., 0, :] = y[..., 0, :] / h[0]
    x[..., 1:, :] = (y[..., 1:, :] - y[..., :-1, :]) / h[1:, None]
    return VectorSeries(series.grid, x)


def integrate_piecewise_linear(series):
    """Second-order (trapezoid) discretization of x(t_1) + int x ds."""
    x = series.values
    h = series.grid.intervals
    # cumsum adds the increments in row order, so each row rounds exactly
    # as a running sum does
    increments = np.concatenate(
        [x[..., :1, :], 0.5 * h[1:, None] * (x[..., :-1, :] + x[..., 1:, :])], axis=-2)
    return VectorSeries(series.grid, np.cumsum(increments, axis=-2))


@dataclass(frozen=True)
class ErrorReport:
    """Per-component MAPEs plus the full absolute-percentage-error table."""

    mape_in: np.ndarray
    mape_out: np.ndarray
    ape: np.ndarray
    split_index: int


def mape(actual, predicted, split_index):
    """Mean absolute percentage errors, split into fitting and forecasting
    windows.  The first `split_index` points count as in-sample.

    mape_out is NaN when the split leaves no held-out points.
    """
    if actual.values.shape != predicted.values.shape:
        raise ValueError("actual and predicted series must have matching shapes")
    n = actual.n
    if not 1 <= split_index <= n:
        raise ValueError(f"split_index must be in [1, {n}], got {split_index}")
    zero_rows, zero_cols = np.nonzero(actual.values == 0.0)
    if len(zero_rows):
        raise ZeroValueError(
            f"actual value is zero at index {zero_rows[0]} (component {zero_cols[0]}); "
            "percentage error undefined"
        )
    ape = np.abs((predicted.values - actual.values) / actual.values) * 100.0
    mape_in = ape[:split_index].mean(axis=0)
    if split_index < n:
        mape_out = ape[split_index:].mean(axis=0)
    else:
        mape_out = np.full(actual.d, np.nan)
    return ErrorReport(mape_in, mape_out, ape, split_index)


def read_csv(path):
    """Read a series from CSV with header `t,x1,...,xd`.

    Rows must be sorted by t; any parse failure aborts with the offending
    line number.
    """
    times = []
    rows = []
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "t" or len(header) < 2:
            raise CsvFormatError("line 1: expected header 't,x1,...,xd'")
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise CsvFormatError(
                    f"line {lineno}: expected {width} fields, found {len(row)}"
                )
            try:
                parsed = [float(cell) for cell in row]
            except ValueError:
                raise CsvFormatError(f"line {lineno}: non-numeric value in {row!r}")
            times.append(parsed[0])
            rows.append(parsed[1:])
    if not times:
        raise CsvFormatError("line 2: no data rows found")
    try:
        return make_series(np.array(times), np.array(rows))
    except ValueError as exc:
        raise CsvFormatError(f"line 2: {exc}") from exc


def write_csv(target, series, column_names=None):
    """Write a series as CSV with header `t,<names>` to a path or to an open
    text stream."""
    names = column_names or [f"x{i + 1}" for i in range(series.d)]
    if len(names) != series.d:
        raise ValueError("one column name per component required")
    is_stream = hasattr(target, "write")
    with nullcontext(target) if is_stream else open(target, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["t", *names])
        for t, row in zip(series.grid.points, series.values):
            writer.writerow([repr(float(t)), *[repr(float(v)) for v in row]])
