"""Measurements whose intermediate products overflow raise
NumericalBreakdown instead of returning a wrong finite value or NaN.

On a sphere of radius R, |p_u x p_v| and E*G - F^2 scale as R^2 and R^4,
and overflow from about R = 1e77, although the constructors admit R up to
about 1.3e154; a curvature that overflows raises NumericalBreakdown too.
Below those sizes the outputs are unchanged."""

import math

import pytest

from spiralcurv.closed_form import spiral_curvature
from spiralcurv.curves import (
    PARALLEL,
    angle_to_parallel,
    coordinate_curve,
    geodesic_curvature_numeric,
    sample,
    speed,
    sphere_loxodrome,
)
from spiralcurv.errors import NumericalBreakdown
from spiralcurv.liouville import liouville_breakdown
from spiralcurv.surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    fundamental_forms,
    gaussian_curvature,
    plane_patch,
    sphere_patch,
)

MODES = [JET_MODE_ANALYTIC, JET_MODE_FD]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "measure",
    [geodesic_curvature_numeric, angle_to_parallel, liouville_breakdown, sample],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("R", [1e78, 1e100, 1e150, 1.3e154])
def test_huge_sphere_loxodrome_breaks_down(R, measure, mode):
    # k was 0.0, the angle nan or pi/2, and sample raised a bare OverflowError
    with pytest.raises(NumericalBreakdown):
        measure(sphere_loxodrome(R, 1.0), 0.7, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("R", [1e78, 1e100, 1.3e154])
def test_huge_sphere_curvature_breaks_down(R, mode):
    # K was -0.0 with analytic jets and nan with FD jets
    patch = sphere_patch(R)
    with pytest.raises(NumericalBreakdown):
        gaussian_curvature(patch, 0.5, 1.0, mode)
    with pytest.raises(NumericalBreakdown):
        fundamental_forms(patch, 0.5, 1.0, mode)


@pytest.mark.parametrize("mode", MODES)
def test_every_radius_measures_or_breaks_down(mode):
    # never a wrong finite value: K R^2 = 1 and k matches the closed form
    # wherever the measurement returns, from R = 1 up to the largest radius
    outcomes = []
    for e in range(0, 155, 7):
        R = 10.0**e
        curve = sphere_loxodrome(R, 1.0)
        try:
            K = gaussian_curvature(curve.patch, 0.5, 1.0, mode)
            s = sample(curve, 0.7, mode)
        except NumericalBreakdown:
            outcomes.append((e, "breakdown"))
            continue
        outcomes.append((e, "value"))
        assert K * R * R == pytest.approx(1.0, rel=1e-6)
        want = spiral_curvature(1.0 / (R * R), s.r, math.pi / 4.0)
        assert s.k == pytest.approx(want, rel=1e-6)
        assert s.theta == pytest.approx(math.pi / 4.0, rel=1e-6)
    # the measurements hold up to R = 1e77 and break down from there on
    assert [e for e, o in outcomes if o == "value"] == list(range(0, 78, 7))


@pytest.mark.parametrize("mode", MODES)
def test_fast_curve_measures_where_its_speed_cubed_overflows(mode):
    # the parallel v = 1e103 of the plane runs at speed 1e103: |gamma'|^3
    # overflows, so k divides by the speed three times, and measures 1/v
    # where the cube raised NumericalBreakdown (before that, a bare
    # OverflowError)
    for v in (1e100, 1e103):
        curve = coordinate_curve(plane_patch(), PARALLEL, v)
        assert speed(curve, 0.5, mode) == pytest.approx(v, rel=1e-9)
        assert angle_to_parallel(curve, 0.5, mode) == 0.0
        assert geodesic_curvature_numeric(curve, 0.5, mode) == pytest.approx(1.0 / v, rel=1e-6)
        assert sample(curve, 0.5, mode).k == geodesic_curvature_numeric(curve, 0.5, mode)


def test_curvature_that_overflows_breaks_down():
    # a = 1e130: gamma'' ~ 1e260 and <gamma'', N x gamma'> overflows to -inf,
    # which liouville_breakdown returned as k_direct
    curve = sphere_loxodrome(1.0, 1e130)
    for measure in (liouville_breakdown, geodesic_curvature_numeric, sample):
        with pytest.raises(NumericalBreakdown, match="is not finite"):
            measure(curve, 0.7)
