"""Geodesic curvature of constant-angle spirals on constant-curvature surfaces.

Closed forms, intrinsic polar-chart traces, embedded model surfaces
(plane, sphere, pseudosphere) with numeric cross-checks, a Liouville
decomposition, and a verification battery behind a small CLI.

The public names below are imported from their submodules on first
access (PEP 562), so `import spiralcurv` loads no submodule and a CLI
call loads only what its subcommand uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "closed_form": (
        "CurvatureProfile",
        "first_positive_circle_zero",
        "geodesic_circle_curvature",
        "geodesic_circle_curvature_dK",
        "profile",
        "spiral_curvature",
        "spiral_curvature_abs_dK",
        "spiral_curvature_dK",
        "spiral_curvature_with_method",
    ),
    "curves": (
        "ChartCurve",
        "CurveSample",
        "angle_to_parallel",
        "arc_length",
        "coordinate_curve",
        "geodesic_curvature_numeric",
        "plane_log_spiral",
        "pseudosphere_loxodrome",
        "sample",
        "speed",
        "sphere_loxodrome",
    ),
    "errors": (
        "BadParameter",
        "DegenerateJet",
        "DomainError",
        "GeometryError",
        "NotOrthogonal",
        "NumericalBreakdown",
        "OutOfDomain",
        "Unsupported",
    ),
    "liouville": ("LiouvilleBreakdown", "liouville_breakdown"),
    "polar": (
        "PolarMetric",
        "PolarTracePoint",
        "circle_curvature",
        "embed_polar_trace",
        "polar_metric",
        "spiral_chart_trace",
    ),
    "surfaces": (
        "JET_MODE_ANALYTIC",
        "JET_MODE_FD",
        "FormCoefficients",
        "Interval",
        "Jet2",
        "Rect",
        "SurfacePatch",
        "eval_jet",
        "fundamental_forms",
        "gaussian_curvature",
        "plane_patch",
        "pseudosphere_patch",
        "sphere_patch",
        "surface_of_revolution",
        "unit_normal",
    ),
    "vec": ("Vec3",),
    "verify": (
        "Observation",
        "VerificationReport",
        "reports_to_json",
        "reports_to_text",
        "run_suites",
    ),
}

# public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "numdiff", "svg"}

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
