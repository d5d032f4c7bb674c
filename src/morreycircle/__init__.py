"""Morrey-space functionals of piecewise-constant functions on the unit circle.

The public names are loaded from their modules on first access, so that
``import morreycircle`` alone imports no numpy; ``morreycircle.cli`` relies on
that to set numpy's BLAS thread count before numpy loads.
"""

from importlib import import_module

_EXPORTS = {
    "circle_step": (
        "Arc",
        "StepFunction",
        "constant",
        "decreasing_rearrangement",
        "equimeasurable",
        "indicator",
        "integral_p",
        "make_step",
        "wrap_angle",
    ),
    "counterexample": (
        "BoundedValue",
        "CounterexampleParams",
        "arc_index_bounds",
        "build_f",
        "build_g",
        "divergence_lower_bound",
        "f_prefix_ratio",
        "g_ratio_upper_bound",
        "gamma_arc",
        "measure_lower_bound_check",
        "phi",
        "phi_sup",
        "validate_params",
    ),
    "io": ("load_step_function", "save_step_function"),
    "morrey": (
        "MorreyParams",
        "NormResult",
        "grid_search",
        "morrey_norm_exact",
        "morrey_norm_grid",
        "morrey_ratio",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
