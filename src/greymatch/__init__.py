"""greymatch: small-sample time-series forecasting with continuous-time
grey models and their integral-matching reformulation.

Two estimation pipelines share one model family dz/dt = A z + B u(t) + c:

* the grey pipeline fits the cumulative-sum series and restores forecasts
  through the inverse cusum operator;
* the integral-matching pipeline fits the raw series directly, estimating
  the structural parameters and the initial value in one least-squares pass.

The simulate module provides a reproducible Monte Carlo harness comparing
the two, and repro rebuilds the shipped benchmark tables.  simulate and
theory, and the names re-exported from them, load on first attribute
access (PEP 562), so a process that only fits and forecasts never
compiles or runs them.
"""

from importlib import import_module as _import_module

from . import basis, errors, grey, matching, numerics, series
from .basis import (ExogenousForcing, Exosystem, FourierForcing, MixedForcing,
                    PolynomialForcing, ZeroForcing, spec_from_config,
                    spec_to_config)
from .errors import (AlignmentError, CsvFormatError, DataError,
                     GreymatchError, InsufficientDataError, NumericalError,
                     OverflowGuardError, SingularDesignError, StrategyError,
                     ZeroValueError)
from .grey import (FittedModel, fit_grey, grey_forecast, integral_regression,
                   model_from_dict, model_to_dict, predict_on_grid, read_config,
                   select_initial_value, time_response)
from .matching import fit_config, fit_matching, matching_forecast
from .numerics import (LeastSquaresSolution, expm, exosystem_response,
                       simpson_integral, solve_least_squares)
from .series import (ErrorReport, TimeGrid, VectorSeries, cusum,
                     integrate_piecewise_linear, inverse_cusum, make_series,
                     mape, read_csv, write_csv)

__version__ = "0.1.0"

# name -> the submodule that defines it (a submodule maps to itself),
# imported on first access
_LAZY = {
    "simulate": "simulate",
    "ReplicationSummary": "simulate", "SimulationScenario": "simulate",
    "generate_trajectory": "simulate", "run_monte_carlo": "simulate",
    "theory": "theory",
    "EquivalenceReport": "theory", "check_proposition_equal_spacing": "theory",
    "check_reduction_roundtrip": "theory", "check_translation_invariance": "theory",
    "recover_constant": "theory", "reduce_order": "theory",
    "scalar_closed_form": "theory",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "AlignmentError", "CsvFormatError", "DataError", "EquivalenceReport",
    "ErrorReport", "ExogenousForcing", "Exosystem", "FittedModel",
    "FourierForcing", "GreymatchError", "InsufficientDataError",
    "LeastSquaresSolution", "MixedForcing", "NumericalError",
    "OverflowGuardError", "PolynomialForcing", "ReplicationSummary",
    "SimulationScenario", "SingularDesignError", "StrategyError", "TimeGrid",
    "VectorSeries", "ZeroForcing", "ZeroValueError", "basis",
    "check_proposition_equal_spacing", "check_reduction_roundtrip",
    "check_translation_invariance", "cusum", "errors", "exosystem_response",
    "expm", "fit_config", "fit_grey", "fit_matching", "generate_trajectory",
    "grey", "grey_forecast", "integral_regression", "integrate_piecewise_linear",
    "inverse_cusum", "make_series", "mape", "matching", "matching_forecast",
    "model_from_dict", "model_to_dict", "numerics", "predict_on_grid",
    "read_config", "read_csv", "recover_constant", "reduce_order",
    "run_monte_carlo", "scalar_closed_form", "select_initial_value", "series",
    "simpson_integral", "simulate", "solve_least_squares", "spec_from_config",
    "spec_to_config", "theory", "time_response", "write_csv",
]
