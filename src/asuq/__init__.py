"""Active-subspace uncertainty quantification for expensive black boxes.

Discovers a one-dimensional active subspace of a scalar quantity of
interest from O(m) samples, then exploits it for sensitivity ranking,
output-range estimation, safe-operating-set inversion, and CDF
estimation. A scenario module reproduces the HyShot II inflow
characterization arithmetic.

Names outside ``errors`` load on first use (PEP 562), so no numpy at import.
"""

import importlib

from . import errors
from .errors import (DataError, DegeneracyError, EvaluatorError, ToolkitError,
                     UsageError)

# Public name -> the submodule that defines it.
_LAZY = {name: module for module, names in {
    "active_subspace": (
        "ActiveSubspace", "CMatrixEstimate", "SummaryData",
        "bootstrap_direction", "bootstrap_quantiles",
        "estimate_c_gradient_oracle", "fit_active_direction",
        "sensitivity_ranking", "summary_data"),
    "campaign": (
        "Campaign", "CommandEvaluator", "EvalRequest", "RunRecord",
        "append_run", "evaluate_campaign", "load_campaign", "new_campaign",
        "ridge_direction", "save_campaign", "synthetic_ridge"),
    "param_space": (
        "ParameterSpace", "ParameterSpec", "hyshot_space", "sample_hypercube",
        "unit_space"),
    "surrogate": ("QuadraticSurrogate", "fit_quadratic"),
    "uq_analysis": (
        "CdfEstimate", "RangeEstimate", "SafeSetResult",
        "corner_extrema", "estimate_cdf", "estimate_range", "inscribed_box",
        "invert_safe_set"),
}.items() for name in names}

_SUBMODULES = frozenset(_LAZY.values()) | {"cli", "hyshot", "svgplot"}

__all__ = [*errors.__all__, *_LAZY]


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)


__version__ = "0.1.0"
