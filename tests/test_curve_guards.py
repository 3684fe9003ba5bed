"""Curve measurements at parameters where the trace is not usable: an
infinite t, or a t where the trace is undefined, raises OutOfDomain, and a
trace (or speed) that overflows at a finite t raises NumericalBreakdown,
never a bare ValueError or OverflowError."""

import dataclasses
import math

import pytest

from spiralcurv.curves import (
    MERIDIAN,
    PARALLEL,
    angle_to_parallel,
    arc_length,
    coordinate_curve,
    geodesic_curvature_numeric,
    plane_log_spiral,
    pseudosphere_loxodrome,
    sample,
    speed,
    sphere_loxodrome,
)
from spiralcurv.errors import GeometryError, NumericalBreakdown, OutOfDomain
from spiralcurv.liouville import liouville_breakdown
from spiralcurv.polar import embed_polar_trace, spiral_chart_trace
from spiralcurv.surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
)

MEASUREMENTS = (speed, sample, angle_to_parallel, geodesic_curvature_numeric)


def test_infinite_ends_of_the_domain_are_open():
    spiral = plane_log_spiral(1.0)
    assert spiral.t_domain == (-math.inf, math.inf)
    assert spiral.contains(-1e300) and spiral.contains(1e300)
    assert not spiral.contains(-math.inf)
    assert not spiral.contains(math.inf)
    assert not spiral.contains(math.nan)


@pytest.mark.parametrize("measure", MEASUREMENTS)
@pytest.mark.parametrize("t", [-math.inf, math.inf])
def test_infinite_parameter_is_out_of_domain(measure, t):
    with pytest.raises(OutOfDomain):
        measure(plane_log_spiral(1.0), t)


@pytest.mark.parametrize("t0, t1", [(-math.inf, 0.0), (0.0, math.inf), (math.inf, 0.0)])
def test_arc_length_to_infinity_is_out_of_domain(t0, t1):
    # it used to integrate to inf (or nan) without a word
    with pytest.raises(OutOfDomain):
        arc_length(plane_log_spiral(1.0), t0, t1)


@pytest.mark.parametrize("measure", MEASUREMENTS + (liouville_breakdown,))
def test_trace_overflow_is_numerical_breakdown(measure):
    # exp(800) overflows inside the chart trace (t, exp(-t))
    with pytest.raises(NumericalBreakdown):
        measure(plane_log_spiral(1.0), -800.0)


def test_arc_length_from_an_overflowing_end_is_numerical_breakdown():
    with pytest.raises(NumericalBreakdown, match="chart trace overflows at t=-800"):
        arc_length(plane_log_spiral(1.0), -800.0, 0.0)


def _polar(K, patch, r1):
    rs = [0.5 + i * (r1 - 0.5) / 4.0 for i in range(5)]
    return embed_polar_trace(patch, [spiral_chart_trace(K, 1.0, 0.5, 0.2, r) for r in rs])


CURVES = [
    plane_log_spiral(1.0),
    sphere_loxodrome(1.0, 1.0),
    sphere_loxodrome(2.0, -0.5),
    pseudosphere_loxodrome(1.0, 1.0),
    pseudosphere_loxodrome(2.0, 2.5, 0.3, 0.01),
    _polar(0.0, plane_patch(), 2.0),
    _polar(1.0, sphere_patch(1.0), 2.5),
] + [
    coordinate_curve(patch, kind, fixed)
    for patch in (plane_patch(), sphere_patch(1.0), pseudosphere_patch(1.0))
    for kind, fixed in ((PARALLEL, 1.0), (MERIDIAN, 0.3))
]
ENDS = [(curve, t) for curve in CURVES for t in curve.t_domain]


def _finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return all(_finite(c) for c in value)
    return value is None  # a CurveSample without a center distance


@pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
@pytest.mark.parametrize("curve,t", ENDS, ids=[f"{c.label}-t={t}" for c, t in ENDS])
def test_every_measurement_at_an_end_of_the_domain_is_finite_or_a_geometry_error(
    curve, t, mode
):
    # the sphere loxodrome's trace (a ln tan t, pi - 2t) is undefined at the
    # closed end t = 0 of its domain; it used to raise a bare ValueError there
    lo, hi = curve.t_domain
    inner = 0.5 * (max(lo, -1.0) + min(hi, 1.0))
    for measure in (
        speed,
        sample,
        angle_to_parallel,
        geodesic_curvature_numeric,
        liouville_breakdown,
        lambda c, t, m: arc_length(c, t, inner, m),
        lambda c, t, m: arc_length(c, inner, t, m),
    ):
        try:
            value = measure(curve, t, mode)
        except GeometryError:
            continue
        assert _finite(value), (measure, value)


@pytest.mark.parametrize("curve,t", ENDS, ids=[f"{c.label}-t={t}" for c, t in ENDS])
def test_point_and_velocity_at_an_end_of_the_domain(curve, t):
    # they check no domain (the curve stencil calls point many times per
    # sample), so an open infinite end may give infinite values; but only a
    # GeometryError is raised, and a closed end gives finite values
    for method in (curve.point, curve.velocity):
        try:
            value = method(t)
        except GeometryError:
            continue
        assert not curve.contains(t) or _finite(value), (method, value)


def test_undefined_trace_point_and_velocity_are_out_of_domain():
    lox = sphere_loxodrome(1.0, 1.0)
    with pytest.raises(OutOfDomain, match="the chart trace is undefined at t=0.0"):
        lox.point(0.0)  # ln tan 0
    with pytest.raises(OutOfDomain, match="the chart velocity is undefined at t=0.0"):
        lox.velocity(0.0)  # 2a / sin 0

@pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
def test_undefined_trace_is_out_of_domain(mode):
    with pytest.raises(OutOfDomain, match="the chart trace is undefined at t=0.0"):
        sample(sphere_loxodrome(1.0, 1.0), 0.0, mode)


def test_overflowing_speed_is_numerical_breakdown():
    # the trace is finite at t = -700, but E = exp(1400) is not
    spiral = plane_log_spiral(1.0)
    with pytest.raises(NumericalBreakdown, match="speed overflows at t=-700"):
        speed(spiral, -700.0)
    with pytest.raises(NumericalBreakdown):
        arc_length(spiral, -700.0, 0.0)
