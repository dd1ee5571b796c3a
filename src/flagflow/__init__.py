"""Exact-arithmetic Kahler-Ricci flow and divisor invariants on flag varieties.

Each exported name is loaded from its home module on first use (PEP 562), so
importing the package, or one of its modules, loads no module it does not need.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "dimcount": ("gt_count", "weyl_dim"),
    "errors": ("BudgetExceeded", "DomainError"),
    "flow": ("RM_BOUND_SYMBOLIC", "BoundsReport", "FlowSolution", "KahlerClass",
             "bounds_report", "class_at", "diameter_bound", "flow_of_divisor",
             "lambda1_bounds", "make_flow", "ricci_norm_sq", "scalar_curvature",
             "volume"),
    "invariants": ("BorelBounds", "InvariantReport", "LctReport", "degree",
                   "invariants_of", "lct_lower", "nef_value", "script_C", "script_T"),
    "oracle": ("CheckOutcome", "SuiteConfig", "SuiteReport", "brute_nef",
               "check_nef_consistency", "check_ricci_identity",
               "check_scalar_volume_identity", "check_scale_laws",
               "check_trajectory_bounds", "check_weyl_gt_grid", "run_suite"),
    "parabolic": ("DivisorClass", "ParabolicFlag", "build_flag", "canonical_divisor",
                  "char_of_divisor", "is_ample", "is_integral", "require_ample"),
    "rootsys": ("Root", "RootSystem", "Weight", "build_root_system", "cartan_matrix",
                "fund_coords", "pairing", "rho", "rho_pairing", "validate_type"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the home module of an exported name and bind the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
