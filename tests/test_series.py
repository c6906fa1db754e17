import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greymatch as gm
from greymatch.errors import CsvFormatError, ZeroValueError


class TestCusum:
    def test_unit_spacing(self):
        s = gm.make_series([1, 2, 3, 4], [1, 2, 3, 4])
        assert np.allclose(gm.cusum(s).values.ravel(), [1, 3, 6, 10])

    def test_single_point_first_weight_is_one(self):
        s = gm.make_series([7.0], [5.0])
        assert gm.cusum(s).values[0, 0] == 5.0

    def test_irregular_grid(self):
        # h = (1, 0.5, 1) -> running sums 2, 2 + 0.5*4, 4 + 1*6
        s = gm.make_series([1.0, 1.5, 2.5], [2.0, 4.0, 6.0])
        assert np.allclose(gm.cusum(s).values.ravel(), [2.0, 4.0, 10.0])

    def test_inverse_of_example(self):
        y = gm.make_series([1.0, 1.5, 2.5], [2.0, 4.0, 10.0])
        assert np.allclose(gm.inverse_cusum(y).values.ravel(), [2.0, 4.0, 6.0])

    def test_constant_cusum_restores_to_zeros(self):
        y = gm.make_series([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        assert np.allclose(gm.inverse_cusum(y).values.ravel(), [3.0, 0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=25),
           st.integers(0, 2 ** 31 - 1))
    def test_round_trip(self, values, seed):
        rng = np.random.default_rng(seed)
        t = np.cumsum(0.05 + rng.random(len(values)))
        s = gm.make_series(t, np.array(values))
        back = gm.inverse_cusum(gm.cusum(s))
        scale = max(1.0, np.abs(s.values).max())
        assert np.abs(back.values - s.values).max() <= 1e-12 * scale
        fwd = gm.cusum(gm.inverse_cusum(s))
        assert np.abs(fwd.values - s.values).max() <= 1e-12 * scale


def integrate_piecewise_constant(series):
    """First-order (right-endpoint) discretization of x(t_1) + int x ds.

    A loop written apart from cusum, so that their agreement is a tested
    fact rather than an aliasing accident.
    """
    x = series.values
    h = series.grid.intervals
    y = np.empty_like(x)
    y[0] = x[0]
    for k in range(1, len(x)):
        y[k] = y[k - 1] + h[k] * x[k]
    return gm.VectorSeries(series.grid, y)


def integrate_piecewise_linear_loop(series):
    """The trapezoid running sum as a plain loop, the reference that
    series.integrate_piecewise_linear must equal bit for bit."""
    x = series.values
    h = series.grid.intervals
    y = np.empty_like(x)
    y[0] = x[0]
    for k in range(1, len(x)):
        y[k] = y[k - 1] + 0.5 * h[k] * (x[k - 1] + x[k])
    return gm.VectorSeries(series.grid, y)


class TestSumsThatOverflow:
    # each sum overflows, and the series refuses it by name without a
    # RuntimeWarning first
    @pytest.mark.parametrize("integral", [gm.cusum, gm.integrate_piecewise_linear])
    def test_refused_by_name(self, integral):
        with pytest.raises(ValueError, match="series values must be finite"):
            integral(gm.make_series([0.0, 1.0], [1e308, 1e308]))


class TestIntegralDiscretizations:
    def test_piecewise_constant_equals_cusum(self):
        rng = np.random.default_rng(2)
        s = gm.make_series(np.cumsum(0.1 + rng.random(12)), rng.normal(size=(12, 3)))
        assert np.array_equal(integrate_piecewise_constant(s).values,
                              gm.cusum(s).values)

    def test_constant_signal(self):
        s = gm.make_series([0, 1, 2], [4.0, 4.0, 4.0])
        assert np.allclose(integrate_piecewise_constant(s).values.ravel(),
                           [4.0, 8.0, 12.0])

    def test_piecewise_constant_is_first_order(self):
        def endpoint_error(h):
            t = np.arange(0.0, 1.0 + h / 2, h)
            s = gm.make_series(t, t)  # x(t) = t, integral = 0.5
            got = integrate_piecewise_constant(s).values[-1, 0]
            return abs(got - (0.0 + 0.5))

        assert endpoint_error(0.05) == pytest.approx(endpoint_error(0.1) / 2, rel=0.1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 3))
    def test_trapezoid_equals_loop_reference(self, seed, n, d):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.05, 3.0, n))
        s = gm.make_series(t, rng.normal(scale=10.0, size=(n, d)))
        assert np.array_equal(gm.integrate_piecewise_linear(s).values,
                              integrate_piecewise_linear_loop(s).values)

    def test_trapezoid_exact_on_linear(self):
        t = np.array([0.0, 0.4, 1.1, 2.0])
        alpha, beta = 1.7, -0.3
        s = gm.make_series(t, alpha * t + beta)
        got = gm.integrate_piecewise_linear(s).values[:, 0]
        exact = s.values[0, 0] + alpha * (t ** 2 - t[0] ** 2) / 2 + beta * (t - t[0])
        assert np.allclose(got, exact, atol=1e-12)

    def test_equally_spaced_identity(self):
        # y_lnt(t_k) = (y(t_{k-1}) + y(t_k)) / 2 + (h/2) x(t_1)
        rng = np.random.default_rng(8)
        h = 0.5
        s = gm.make_series(h * np.arange(9), rng.normal(size=(9, 2)))
        y = gm.cusum(s).values
        lnt = gm.integrate_piecewise_linear(s).values
        expected = 0.5 * (y[:-1] + y[1:]) + (h / 2) * s.values[0]
        assert np.abs(lnt[1:] - expected).max() < 1e-12

    def test_trapezoid_is_second_order(self):
        def endpoint_error(h):
            t = np.arange(0.0, 1.0 + h / 2, h)
            s = gm.make_series(t, t ** 2)  # integral = 1/3
            got = gm.integrate_piecewise_linear(s).values[-1, 0]
            return abs(got - (0.0 + 1.0 / 3.0))

        assert endpoint_error(0.05) == pytest.approx(endpoint_error(0.1) / 4, rel=0.05)


class TestMape:
    def test_perfect_prediction(self):
        s = gm.make_series([1, 2, 3], [5.0, 6.0, 7.0])
        report = gm.mape(s, s, 2)
        assert np.allclose(report.mape_in, 0.0)
        assert np.allclose(report.mape_out, 0.0)

    def test_single_point_definition(self):
        actual = gm.make_series([1.0], [100.0])
        predicted = gm.make_series([1.0], [110.0])
        report = gm.mape(actual, predicted, 1)
        assert report.mape_in[0] == pytest.approx(10.0)
        assert np.isnan(report.mape_out[0])

    def test_zero_actual_rejected(self):
        actual = gm.make_series([1, 2], [[1.0], [0.0]])
        predicted = gm.make_series([1, 2], [[1.0], [1.0]])
        with pytest.raises(ZeroValueError, match="index 1"):
            gm.mape(actual, predicted, 1)

    def test_percentage_error_that_overflows_rejected(self):
        # 1 / 5e-324 overflows: the error is refused, not reported as inf
        actual = gm.make_series([1, 2], [[1.0], [5e-324]])
        predicted = gm.make_series([1, 2], [[1.0], [1.0]])
        with pytest.raises(ZeroValueError, match="5e-324 at index 1"):
            gm.mape(actual, predicted, 1)

    def test_stacked_errors_name_the_actual_value(self):
        # leading axes of predicted ahead of actual's are a stack
        predicted = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(gm.series.percentage_errors(predicted, np.array([2.0, 4.0])),
                              [[50.0, 50.0], [50.0, 0.0]])
        with pytest.raises(ZeroValueError, match="^actual value 0.0 at component 1;"):
            gm.series.percentage_errors(predicted, np.array([2.0, 0.0]))

    @pytest.mark.parametrize("predicted, split, message", [
        ([[5.0, 1.0], [6.0, 1.0], [7.0, 1.0]], 2, "matching shapes"),
        ([5.0, 6.0, 7.0], 0, r"split_index must be in \[1, 3\], got 0"),
        ([5.0, 6.0, 7.0], 4, r"split_index must be in \[1, 3\], got 4"),
    ])
    def test_malformed_arguments_rejected(self, predicted, split, message):
        actual = gm.make_series([1, 2, 3], [5.0, 6.0, 7.0])
        with pytest.raises(ValueError, match=message):
            gm.mape(actual, gm.make_series([1, 2, 3], predicted), split)

    def test_component_reordering_invariance(self):
        rng = np.random.default_rng(4)
        a = np.abs(rng.normal(size=(6, 3))) + 1
        p = a + rng.normal(scale=0.1, size=a.shape)
        t = np.arange(6.0)
        direct = gm.mape(gm.make_series(t, a), gm.make_series(t, p), 4)
        perm = [2, 0, 1]
        swapped = gm.mape(gm.make_series(t, a[:, perm]), gm.make_series(t, p[:, perm]), 4)
        assert np.allclose(direct.mape_in[perm], swapped.mape_in)
        assert np.allclose(direct.mape_out[perm], swapped.mape_out)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 5.0))
    def test_one_sided_error_scales_linearly(self, factor):
        t = np.arange(5.0)
        actual = gm.make_series(t, np.full(5, 10.0))
        err = np.array([1.0, 2.0, 0.5, 3.0, 1.5])
        base = gm.mape(actual, gm.make_series(t, 10.0 + err), 3)
        scaled = gm.mape(actual, gm.make_series(t, 10.0 + factor * err), 3)
        assert np.allclose(scaled.mape_in, factor * base.mape_in, rtol=1e-9)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        s = gm.make_series(np.cumsum(0.3 + rng.random(7)), rng.normal(size=(7, 2)))
        path = tmp_path / "series.csv"
        gm.write_csv(path, s)
        back = gm.read_csv(path)
        assert np.array_equal(back.grid.points, s.grid.points)
        assert np.array_equal(back.values, s.values)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("t,x1\n1,2\n\n , \n2,3\n\n")
        back = gm.read_csv(path)
        assert np.array_equal(back.grid.points, [1.0, 2.0])
        assert np.array_equal(back.values, [[2.0], [3.0]])

    def test_one_column_name_per_component(self, tmp_path):
        s = gm.make_series([1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="one column name per component"):
            gm.write_csv(tmp_path / "out.csv", s, ["only"])
        assert not (tmp_path / "out.csv").exists()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            gm.read_csv(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n1,2\n2,oops\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            gm.read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,x1\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            gm.read_csv(path)

    def test_unsorted_times_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n2,1\n1,2\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            gm.read_csv(path)

    @pytest.mark.parametrize("text, line, message", [
        ("t,x1\n1,2\n2,3\n3,4\n4,5\n3.5,6\n6,7\n", 6, "strictly increasing"),
        ("t,x1\n1,2\n2,3\n2,4\n", 4, "strictly increasing"),
        ("t,x1\n1,2\n2,3\n3,nan\n4,5\n", 4, "non-finite"),
        ("t,x1,x2\n1,2,3\n2,3,-inf\n", 3, "non-finite"),
        ("t,x1\n1,2\ninf,3\n", 3, "non-finite"),
    ])
    def test_bad_row_names_its_own_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=f"^line {line}: .*{message}"):
            gm.read_csv(path)


class TestTimeGrid:
    def test_extension_uses_last_interval(self):
        grid = gm.TimeGrid(np.array([0.0, 1.0, 3.0]))
        assert np.allclose(grid.extended(2).points, [0.0, 1.0, 3.0, 5.0, 7.0])

    def test_extension_that_overflows_is_refused_by_name(self):
        with pytest.raises(ValueError, match="time grid must be finite"):
            gm.TimeGrid(np.array([0.0, 1e308])).extended(3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            gm.TimeGrid(np.array([]))

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            gm.TimeGrid(np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("spread, uniform", [(0.9, True), (1.1, False)])
    def test_uniform_within_the_relative_step_tolerance(self, spread, uniform):
        # the last step is 1 + spread * UNIFORM_RTOL against steps of 1
        last = 3.0 + spread * gm.series.UNIFORM_RTOL
        assert gm.TimeGrid(np.array([0.0, 1.0, 2.0, last])).is_uniform() is uniform

    def test_one_or_two_points_are_uniform(self):
        assert gm.TimeGrid(np.array([0.5])).is_uniform()
        assert gm.TimeGrid(np.array([0.5, 2.0])).is_uniform()
