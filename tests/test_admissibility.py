"""One admissibility gate: every public closed-form and polar routine, at
any float inputs (NaN, +-inf, subnormals included), returns a finite float
or raises a GeometryError."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiralcurv import (
    BadParameter,
    DomainError,
    GeometryError,
    NumericalBreakdown,
    circle_curvature,
    first_positive_circle_zero,
    fundamental_forms,
    gaussian_curvature,
    geodesic_circle_curvature,
    geodesic_circle_curvature_dK,
    plane_log_spiral,
    plane_patch,
    polar_metric,
    pseudosphere_loxodrome,
    sphere_loxodrome,
    spiral_chart_trace,
    spiral_curvature,
    spiral_curvature_abs_dK,
    spiral_curvature_dK,
    spiral_curvature_with_method,
)
from spiralcurv.closed_form import spiral_curvature_series

PI = math.pi

floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def finite_or_geometry_error(fn, *args):
    try:
        value = fn(*args)
    except GeometryError:
        return
    assert isinstance(value, float) and math.isfinite(value), (fn.__name__, args, value)


@settings(deadline=None, max_examples=400)
@given(floats, floats, floats)
@example(math.nan, 1.0, 0.7)
@example(-math.inf, 1.0, 0.7)
@example(0.0, math.inf, 0.7)
@example(0.0, 1e-320, 0.7)
@example(-1e6, 1.0, 0.7)
@example(1.0, 1.0, math.nan)
def test_closed_form_is_finite_or_geometry_error(K, r, theta):
    finite_or_geometry_error(spiral_curvature, K, r, theta)
    finite_or_geometry_error(lambda *a: spiral_curvature_with_method(*a)[0], K, r, theta)
    finite_or_geometry_error(spiral_curvature_series, K, r, theta)
    finite_or_geometry_error(spiral_curvature_dK, K, r, theta)
    finite_or_geometry_error(spiral_curvature_abs_dK, K, r, theta)
    finite_or_geometry_error(geodesic_circle_curvature, K, r)
    finite_or_geometry_error(geodesic_circle_curvature_dK, K, r)


@settings(deadline=None, max_examples=400)
@given(floats, floats)
@example(math.nan, 1.0)
@example(-math.inf, 1.0)
@example(-1.0, 1000.0)
@example(-5e-324, 3e164)
@example(0.0, 1e-320)
def test_polar_metric_is_finite_or_geometry_error(K, r):
    finite_or_geometry_error(circle_curvature, K, r)
    try:
        m = polar_metric(K)
    except GeometryError:
        return
    finite_or_geometry_error(m.sqrtG, r)
    finite_or_geometry_error(m.sqrtG_r, r)


@settings(deadline=None, max_examples=400)
@given(floats, floats, floats, floats, floats)
@example(1.0, 1.0, 0.5, math.nan, 1.0)
@example(0.0, 1.0, 0.5, 1.7e308, 1e300)
@example(math.nan, 1.0, 0.5, 0.0, 1.0)
@example(0.0, 1.0, 5e-324, 0.0, 1.0)
def test_spiral_chart_trace_is_finite_or_geometry_error(K, theta, r0, u0, r):
    finite_or_geometry_error(lambda *a: spiral_chart_trace(*a).u, K, theta, r0, u0, r)


def test_gate_is_shared():
    # the same region, the same error, from every entry point
    for K, r, theta in ((math.nan, 1.0, 0.7), (4.0, 2.0, 0.7), (0.0, 1e-320, 0.7),
                        (0.0, 1.0, PI), (-math.inf, 1.0, 0.7)):
        with pytest.raises(DomainError):
            spiral_curvature(K, r, theta)
        with pytest.raises(DomainError):
            spiral_curvature_dK(K, r, theta)
        if not 0.0 < theta < PI:
            continue
        for fn in (geodesic_circle_curvature, geodesic_circle_curvature_dK, circle_curvature):
            with pytest.raises(DomainError):
                fn(K, r)
        with pytest.raises(DomainError):
            spiral_chart_trace(K, theta, r, 0.0, 0.5)


@pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf])
def test_a_non_finite_K_is_rejected_by_the_gate(K):
    # first_positive_circle_zero gave inf at nan and 0.0 at inf; polar_metric
    # built a metric with r_limit inf at nan and 0.0 at inf, which failed
    # only at sqrtG
    message = f"^K={K} must be finite$"
    with pytest.raises(DomainError, match=message):
        first_positive_circle_zero(K)
    with pytest.raises(DomainError, match=message):
        polar_metric(K)


@pytest.mark.parametrize("K,zero,r_limit", [(4.0, PI / 4.0, PI / 2.0), (-1.0, math.inf, math.inf)])
def test_a_finite_K_passes_the_gate(K, zero, r_limit):
    assert first_positive_circle_zero(K) == zero
    assert polar_metric(K).r_limit == r_limit


class TestPolarOverflow:
    def test_metric_past_the_float_range_is_domain_error(self):
        # sinh and cosh of r*sqrt(-K) overflow from about 710 on
        with pytest.raises(DomainError):
            circle_curvature(-1.0, 1000.0)
        with pytest.raises(DomainError):
            polar_metric(-1).sqrtG(1000.0)
        with pytest.raises(DomainError):
            polar_metric(-1).sqrtG_r(1000.0)

    def test_metric_below_the_float_range_is_unchanged(self):
        m = polar_metric(-1.0)
        assert m.sqrtG(700.0) == math.sinh(700.0)
        assert m.sqrtG_r(700.0) == math.cosh(700.0)
        assert circle_curvature(-1.0, 700.0) == math.cosh(700.0) / math.sinh(700.0)


class TestNonFiniteCurveParameters:
    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_plane_log_spiral(self, a):
        with pytest.raises(BadParameter):
            plane_log_spiral(a)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_sphere_loxodrome(self, a):
        with pytest.raises(BadParameter):
            sphere_loxodrome(1.0, a)

    @pytest.mark.parametrize("theta,u0", [(math.nan, 0.0), (1.0, math.nan), (1.0, math.inf)])
    def test_pseudosphere_loxodrome(self, theta, u0):
        with pytest.raises(BadParameter):
            pseudosphere_loxodrome(1.0, theta, u0)

    @pytest.mark.parametrize("u0", [math.nan, math.inf])
    def test_spiral_chart_trace(self, u0):
        with pytest.raises(DomainError):
            spiral_chart_trace(1.0, 1.0, 0.5, u0, 1.0)


class TestFiniteDifferenceStepUnderflow:
    @pytest.mark.parametrize("v", [2e-162, 1e-170])
    def test_second_step_squared_to_zero_is_numerical_breakdown(self, v):
        # the FD 2-jet divides by its halved second step squared, 0 here
        with pytest.raises(NumericalBreakdown):
            gaussian_curvature(plane_patch(), 0.0, v, "finite_difference")
        with pytest.raises(NumericalBreakdown):
            fundamental_forms(plane_patch(), 0.0, v, "finite_difference")
