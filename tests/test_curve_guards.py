"""Curve measurements at parameters where the trace is not usable: an
infinite t, or a t where the trace is undefined, raises OutOfDomain, and a
trace (or speed) that overflows at a finite t raises NumericalBreakdown,
never a bare ValueError or OverflowError.  A curve with a direction sign
other than +1 or -1, or without callable trace_derivatives, is refused
when it is built."""

import dataclasses
import math

import pytest

from spiralcurv.curves import (
    MERIDIAN,
    PARALLEL,
    ChartCurve,
    _spiral_on,
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
from spiralcurv.errors import (
    BadParameter,
    DomainError,
    GeometryError,
    NumericalBreakdown,
    OutOfDomain,
)
from spiralcurv.liouville import liouville_breakdown
from spiralcurv.polar import _embedded_spiral
from spiralcurv.surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    Interval,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
)

from test_curve_kernel import stencil_curve

MEASUREMENTS = (speed, sample, angle_to_parallel, geodesic_curvature_numeric)


def test_infinite_ends_of_the_domain_are_open():
    spiral = plane_log_spiral(1.0)
    assert spiral.t_domain == Interval(-math.inf, math.inf)
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


def _point(curve, t):
    return curve.point(t)


def _velocity(curve, t):
    return curve.velocity(t)


def _fd_velocity(curve, t):
    # a difference stencil on the trace as the derivatives
    return stencil_curve(curve).velocity(t)


@pytest.mark.parametrize("t", [-math.inf, math.inf, math.nan])
def test_fd_velocity_at_a_non_finite_parameter_is_out_of_domain(t):
    # the closed forms themselves give (1.0, nan) at nan, (1.0, -inf) at
    # -inf, and the sphere loxodrome's a value at t = 5, outside (0, pi/2)
    for curve, at in ((plane_log_spiral(1.0), t), (sphere_loxodrome(1.0, 1.0), 5.0)):
        with pytest.raises(OutOfDomain, match=rf"^t={at} outside parameter domain "):
            curve.velocity(at)


@pytest.mark.parametrize(
    "measure", MEASUREMENTS + (liouville_breakdown, _point, _velocity, _fd_velocity)
)
def test_trace_overflow_is_numerical_breakdown(measure):
    # exp(800) overflows inside the chart trace (t, exp(-t)) and its velocity
    with pytest.raises(NumericalBreakdown, match="the chart (trace|velocity) overflows at t=-800"):
        measure(plane_log_spiral(1.0), -800.0)


_RECIPROCAL = ChartCurve(
    plane_patch(), lambda t: (t, 1.0 / t), (-1.0, 1.0),
    trace_derivatives=lambda t: (1.0, -1.0 / (t * t), 0.0, 2.0 / (t * t * t)),
)


@pytest.mark.parametrize(
    "curve", [_RECIPROCAL, stencil_curve(_RECIPROCAL)], ids=["closed", "fd"]
)
@pytest.mark.parametrize("measure", MEASUREMENTS + (liouville_breakdown,))
def test_trace_dividing_by_zero_is_out_of_domain(measure, curve):
    # 1/t raises ZeroDivisionError at t = 0, inside the domain, whether the
    # derivatives are closed forms or a difference stencil on the trace
    with pytest.raises(OutOfDomain, match="the chart trace is undefined at t=0.0"):
        measure(curve, 0.0)


def test_a_hand_given_pair_is_an_open_interval():
    # as surface_of_revolution takes its domains; dataclasses.replace keeps
    # a closed end closed
    assert _RECIPROCAL.t_domain == Interval(-1.0, 1.0)
    assert not _RECIPROCAL.contains(1.0)
    lox = pseudosphere_loxodrome(1.0, 1.0)
    assert dataclasses.replace(lox, direction_sign=-1).t_domain == lox.patch.domain.v
    assert lox.contains(math.pi / 2.0)


def test_arc_length_from_an_overflowing_end_is_numerical_breakdown():
    with pytest.raises(NumericalBreakdown, match="chart trace overflows at t=-800"):
        arc_length(plane_log_spiral(1.0), -800.0, 0.0)


def _polar(K, r1):
    return _embedded_spiral(K, 1.0, 0.5, r1)


CURVES = [
    plane_log_spiral(1.0),
    sphere_loxodrome(1.0, 1.0),
    sphere_loxodrome(2.0, -0.5),
    pseudosphere_loxodrome(1.0, 1.0),
    pseudosphere_loxodrome(2.0, 2.5, 0.3, 0.01),
    _polar(0.0, 2.0),
    _polar(1.0, 2.5),
] + [
    coordinate_curve(patch, kind, fixed)
    for patch in (plane_patch(), sphere_patch(1.0), pseudosphere_patch(1.0))
    for kind, fixed in ((PARALLEL, 1.0), (MERIDIAN, 0.3))
]
ENDS = [(curve, t) for curve in CURVES for t in (curve.t_domain.lo, curve.t_domain.hi)]


def _finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, tuple):  # a Vec3, CurveSample or LiouvilleBreakdown too
        return all(_finite(c) for c in value)
    return value is None  # a CurveSample without a center distance


@pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
@pytest.mark.parametrize("curve,t", ENDS, ids=[f"{c.label}-t={t}" for c, t in ENDS])
def test_every_measurement_at_an_end_of_the_domain_is_finite_or_a_geometry_error(
    curve, t, mode
):
    # the sphere loxodrome's trace (a ln tan t, pi - 2t) is undefined at
    # t = 0, an open end of its domain
    lo, hi = curve.t_domain.lo, curve.t_domain.hi
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
    # a closed end gives finite values, and both refuse an open one
    for method in (curve.point, curve.velocity):
        if curve.contains(t):
            assert _finite(method(t)), method
        else:
            with pytest.raises(OutOfDomain, match=rf"^t={t} outside parameter domain "):
                method(t)


LOXODROME_END = r"^t=0.0 outside parameter domain \(0.0, 1.5707963267948966\)$"


def test_undefined_trace_point_and_velocity_are_out_of_domain():
    # ln tan 0 and 2a / sin 0 are undefined at t = 0, an open end
    lox = sphere_loxodrome(1.0, 1.0)
    with pytest.raises(OutOfDomain, match=LOXODROME_END):
        lox.point(0.0)
    with pytest.raises(OutOfDomain, match=LOXODROME_END):
        lox.velocity(0.0)


@pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
def test_undefined_trace_is_out_of_domain(mode):
    with pytest.raises(OutOfDomain, match=LOXODROME_END):
        sample(sphere_loxodrome(1.0, 1.0), 0.0, mode)


@pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
def test_a_sample_next_to_the_closed_end_is_a_geometry_error(mode):
    # v = pi - 2e-170 rounds to the pole, outside the chart; the t-stencil
    # raised a bare ZeroDivisionError there, its halved step squared to 0
    with pytest.raises(OutOfDomain):
        sample(sphere_loxodrome(1.0, 1.0), 1e-170, mode)


def test_overflowing_speed_is_numerical_breakdown():
    # the trace is finite at t = -700, but E = exp(1400) is not
    spiral = plane_log_spiral(1.0)
    with pytest.raises(NumericalBreakdown, match="speed overflows at t=-700"):
        speed(spiral, -700.0)
    with pytest.raises(NumericalBreakdown):
        arc_length(spiral, -700.0, 0.0)


@pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
def test_overflowing_velocity_is_numerical_breakdown_in_the_angle(mode):
    # the trace (t, exp(-a t)) is finite at a = 1e306, t = -1e-305, but its
    # v' = -a exp(-a t) is -inf: the angle was nan with analytic jets and a
    # finite pi/4 with FD jets, where the true angle is about pi/2
    with pytest.raises(NumericalBreakdown, match="the chart velocity overflows at t=-1e-305"):
        angle_to_parallel(plane_log_spiral(1e306), -1e-305, mode)


def test_overflowing_velocity_has_the_angle_message_in_the_velocity():
    # velocity and angle_to_parallel share one finiteness check of (u', v')
    with pytest.raises(NumericalBreakdown, match="the chart velocity overflows at t=-1e-305"):
        plane_log_spiral(1e306).velocity(-1e-305)


@pytest.mark.parametrize("sign", [0, 2])
def test_a_bad_direction_sign_is_refused_when_built(sign):
    # a direction sign of 2 doubled k without an error
    lox = sphere_loxodrome(1.0, 1.0)
    match = r"^direction sign must be \+1 or -1, got "
    with pytest.raises(BadParameter, match=match):
        dataclasses.replace(lox, direction_sign=sign)
    with pytest.raises(BadParameter, match=match):
        ChartCurve(patch=lox.patch, trace=lox.trace, t_domain=lox.t_domain,
                   trace_derivatives=lox.trace_derivatives, direction_sign=sign)


@pytest.mark.parametrize("derivatives", [None, (1.0, 0.0, 0.0, 0.0)], ids=["none", "tuple"])
def test_a_curve_without_callable_trace_derivatives_is_refused_when_built(derivatives):
    lox = sphere_loxodrome(1.0, 1.0)
    match = r"^trace_derivatives must be callable, got "
    with pytest.raises(BadParameter, match=match):
        dataclasses.replace(lox, trace_derivatives=derivatives)
    with pytest.raises(BadParameter, match=match):
        ChartCurve(patch=lox.patch, trace=lox.trace, t_domain=lox.t_domain,
                   trace_derivatives=derivatives)


@pytest.mark.parametrize(
    "surface,R,theta",
    [
        ("sphere", 1.0, 0.0),  # cos(theta) / sin(theta) divides by zero
        ("sphere", 1.0, math.inf),  # math domain error in cos and sin
        ("plane", 1.0, math.inf),  # math domain error in tan
        ("plane", 1.0, -0.5),  # a winding angle, not an angle in (0, pi)
        ("pseudosphere", 1.0, math.pi),
    ],
)
def test_a_spiral_angle_outside_zero_to_pi_is_a_domain_error(surface, R, theta):
    # the spiral that trace and the verify battery build on each surface
    with pytest.raises(DomainError, match=f"theta={theta} outside"):
        _spiral_on(surface, R, theta)


def test_a_spiral_on_an_unknown_surface_is_refused():
    with pytest.raises(BadParameter, match="unknown surface 'torus'"):
        _spiral_on("torus", 1.0, math.pi / 4.0)
