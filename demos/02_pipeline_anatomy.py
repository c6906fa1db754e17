"""Anatomy of the two estimation pipelines on a toy series.

Both pipelines explain the data with the same linear model family
dz/dt = A z + B u(t) + c, and both fit it by one regression,
grey.integral_regression: the raw values x(t_k) against an integral of x,
forcing columns and an intercept.  They differ only in the quadrature rule.

* grey: the integral is the background value of the cusum (consecutive
  cusum points blended with the trapezoid weights), the intercept is c;
  then pick an initial value and restore forecasts through the inverse
  cusum.
* integral matching: the integral is the trapezoid integral of the raw
  data, a ramp t - t1 carries c, and the intercept is the initial value.
"""

import numpy as np

import greymatch as gm
from greymatch import grey

rng = np.random.default_rng(7)
t = np.arange(1.0, 13.0)
truth = 5.0 * np.exp(0.12 * t) + 0.8 * t
raw = gm.make_series(t, truth * (1 + 0.01 * rng.normal(size=t.size)))

print("raw series:", np.round(raw.values[:, 0], 2))
y = gm.cusum(raw)
print("cusum     :", np.round(y.values[:, 0], 2))
print("restored  :", np.round(gm.inverse_cusum(y).values[:, 0], 2))

spec = gm.PolynomialForcing(1)

# each pipeline's rule: [integral of x, forcing, ramp], then the shared fit
x = raw.values
u = spec.values(t)
U = spec.antiderivatives(t)
rules = {
    "grey": ((y.values[:-1] + y.values[1:]) / 2.0, (u[:-1] + u[1:]) / 2.0, None,
             "c"),
    "matching": ((gm.integrate_piecewise_linear(raw).values - x[0])[1:],
                 U[1:] - U[0], t[1:] - t[0], "c, eta"),
}
print(f"\ntarget row 1 (raw x at t = {t[1]:g}): {x[1, 0]:.3f}")
for name, (integral, forcing, ramp, rest_names) in rules.items():
    first = [integral[0, 0], *forcing[0], *([] if ramp is None else [ramp[0]]), 1.0]
    A, B, rest, _ = grey.integral_regression(raw, integral, forcing, ramp)
    print(f"{name:>8} design row 1 : {np.round(first, 3)}  ->  a = {A[0, 0]:.4f}, "
          f"b1 = {B[0, 0]:.4f}, ({rest_names}) = {np.round(rest[:, 0], 4)}")

gmodel = gm.fit_grey(raw, spec, strategy="least_squares")
mmodel = gm.fit_matching(raw, spec)
print("\ngrey fit     : a = %.4f, b1 = %.4f, c = %.4f, eta = %.4f"
      % (gmodel.A[0, 0], gmodel.B[0, 0], gmodel.c[0], gmodel.eta[0]))
print("matching fit : a = %.4f, b1 = %.4f, c = %.4f, eta = %.4f"
      % (mmodel.A[0, 0], mmodel.B[0, 0], mmodel.c[0], mmodel.eta[0]))

print("\ninitial-value strategies for the grey fit:")
for strategy in grey.INITIAL_STRATEGIES:
    m = gm.fit_grey(raw, spec, strategy=strategy)
    print(f"  {strategy:>18}: eta = {m.eta[0]:8.4f}")

horizon = 4
gpred = gm.grey_forecast(raw, spec, strategy="least_squares", horizon=horizon)
mpred = gm.matching_forecast(raw, spec, horizon=horizon)
print(f"\n{horizon}-step-ahead forecasts")
print("grey     :", np.round(gpred.values[-horizon:, 0], 2))
print("matching :", np.round(mpred.values[-horizon:, 0], 2))
print("truth    :", np.round(5.0 * np.exp(0.12 * gpred.grid.points[-horizon:])
                             + 0.8 * gpred.grid.points[-horizon:], 2))
