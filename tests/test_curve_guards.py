"""Curve measurements at parameters where the trace is not usable: an
infinite t raises OutOfDomain, and a trace (or speed) that overflows at a
finite t raises NumericalBreakdown, never a bare ValueError or
OverflowError."""

import math

import pytest

from spiralcurv.curves import (
    angle_to_parallel,
    arc_length,
    geodesic_curvature_numeric,
    plane_log_spiral,
    sample,
    speed,
)
from spiralcurv.errors import NumericalBreakdown, OutOfDomain
from spiralcurv.liouville import liouville_breakdown

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


def test_overflowing_speed_is_numerical_breakdown():
    # the trace is finite at t = -700, but E = exp(1400) is not
    spiral = plane_log_spiral(1.0)
    with pytest.raises(NumericalBreakdown, match="speed overflows at t=-700"):
        speed(spiral, -700.0)
    with pytest.raises(NumericalBreakdown):
        arc_length(spiral, -700.0, 0.0)
