import importlib
import sys
from types import ModuleType

import pytest

import greymatch as gm

# the package namespace as it stood when every module loaded at import time
PUBLIC = {
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
}


def defining_object(name):
    """What the name is in the module that defines it."""
    value = getattr(gm, name)
    if isinstance(value, ModuleType):
        return importlib.import_module(f"greymatch.{name}")
    return getattr(sys.modules[value.__module__], name)


def test_all_names_the_parent_namespace():
    assert len(PUBLIC) == 65
    assert len(gm.__all__) == 65 and set(gm.__all__) == PUBLIC


def test_each_name_is_the_defining_modules_own_object():
    for name in PUBLIC:
        assert getattr(gm, name) is defining_object(name), name
    assert PUBLIC <= set(dir(gm))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from greymatch import *", namespace)
    assert PUBLIC <= namespace.keys()
    for name in PUBLIC:
        assert namespace[name] is getattr(gm, name)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gm.no_such_name
