"""greymatch: small-sample time-series forecasting with continuous-time
grey models and their integral-matching reformulation.

Two estimation pipelines share one model family dz/dt = A z + B u(t) + c:

* the grey pipeline fits the cumulative-sum series and restores forecasts
  through the inverse cusum operator;
* the integral-matching pipeline fits the raw series directly, estimating
  the structural parameters and the initial value in one least-squares pass.

The simulate module provides a reproducible Monte Carlo harness comparing
the two, and repro rebuilds the shipped benchmark tables.
"""

from .basis import (ExogenousForcing, Exosystem, ForcingSample,
                    FourierForcing, MixedForcing, PolynomialForcing, ZeroForcing,
                    evaluate_forcing, forcing_derivative, spec_from_config,
                    spec_to_config)
from .errors import (AlignmentError, CsvFormatError, DataError,
                     GreymatchError, InsufficientDataError, NumericalError,
                     OverflowGuardError, SingularDesignError, StrategyError,
                     UnsupportedForcingError, ZeroValueError)
from .grey import (FittedModel, build_grey_regression, fit_grey, grey_forecast,
                   model_from_dict, model_to_dict, predict_on_grid,
                   select_initial_value, time_response)
from .matching import build_matching_regression, fit_matching, matching_forecast
from .numerics import (LeastSquaresSolution, convolution_integral,
                       exosystem_response, matrix_exponential,
                       solve_least_squares)
from .series import (ErrorReport, TimeGrid, VectorSeries, cusum,
                     integrate_piecewise_linear, inverse_cusum, make_series,
                     mape, read_csv, write_csv)
from .simulate import (ReplicationSummary, SimulationScenario,
                       generate_trajectory, run_monte_carlo)
from .theory import (EquivalenceReport, check_proposition_equal_spacing,
                     check_reduction_roundtrip, check_translation_invariance,
                     recover_constant, reduce_order, scalar_closed_form)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
