"""Numerical guards that do not depend on the size of the surface, and the
second-difference retry near the sphere loxodrome's pole.

The degeneracy bound on |p_u x p_v| is 1e-12 in units of the patch's area
(SurfacePatch.degeneracy_bound: 1e-12 R^2 on the sphere and the tractroid
of radius R, the absolute 1e-12 on the plane), so a sphere or a tractroid
of any radius degenerates at the same chart points, and the plane and the
unit-radius surfaces keep the absolute bound.  The curve stencil halves
its second-difference step up to three times before it gives up, which
carries the loxodrome to within r = 0.05 of the pole."""

import dataclasses
import math

import pytest

from spiralcurv import curves
from spiralcurv.cli import main
from spiralcurv.closed_form import spiral_curvature
from spiralcurv.curves import (
    geodesic_curvature_numeric,
    pseudosphere_loxodrome,
    sample,
    sphere_loxodrome,
)
from spiralcurv.errors import DegenerateJet, NumericalBreakdown
from spiralcurv.surfaces import (
    DEGENERACY_THRESHOLD,
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    eval_jet,
    gaussian_curvature,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
    unit_normal,
)

RADII = (1e-6, 1e-3, 1.0, 1e3)
MODES = [JET_MODE_ANALYTIC, JET_MODE_FD]

# chart points from well inside the chart to next to the sphere's poles and
# the tractroid's rim, where the chart degenerates
SPHERE_POINTS = [(0.5, 1.0), (2.0, 0.3), (0.1, 1e-6), (0.1, 1e-10), (0.1, 1e-14),
                 (0.1, math.pi - 1e-10), (0.1, math.pi - 1e-15)]
PSEUDO_POINTS = [(0.5, 0.8), (2.0, 1.4), (0.1, math.pi / 2 - 1e-6),
                 (0.1, math.pi / 2 - 1e-14), (0.1, math.pi / 2)]


def _outcome(fn):
    try:
        value = fn()
    except DegenerateJet:
        return "degenerate"
    assert math.isfinite(value)
    return "value"


@pytest.mark.parametrize(
    "make, points",
    [(sphere_patch, SPHERE_POINTS), (pseudosphere_patch, PSEUDO_POINTS)],
    ids=["sphere", "pseudosphere"],
)
def test_degeneracy_does_not_depend_on_the_radius(make, points):
    outcomes = {}
    for R in RADII:
        patch = make(R)
        for u, v in points:
            jet = eval_jet(patch, u, v, JET_MODE_ANALYTIC)
            normal = _outcome(
                lambda: unit_normal(jet, patch.orientation_sign, patch.degeneracy_bound).norm()
            )
            K = _outcome(lambda: gaussian_curvature(patch, u, v, JET_MODE_ANALYTIC))
            outcomes.setdefault((u, v), set()).add((normal, K))
    assert all(len(seen) == 1 for seen in outcomes.values()), outcomes
    # both kinds of outcome occur, so the points straddle the bound
    assert {next(iter(seen))[0] for seen in outcomes.values()} == {"value", "degenerate"}


@pytest.mark.parametrize("R", RADII)
@pytest.mark.parametrize("mode", MODES)
def test_small_and_large_radii_measure(R, mode):
    tol = 1e-12 if mode == JET_MODE_ANALYTIC else 1e-6
    K = gaussian_curvature(sphere_patch(R), 0.5, 1.0, mode)
    assert K * R * R == pytest.approx(1.0, rel=tol)
    K = gaussian_curvature(pseudosphere_patch(R), 0.5, 0.8, mode)
    assert K * R * R == pytest.approx(-1.0, rel=tol)
    k = geodesic_curvature_numeric(sphere_loxodrome(R, 1.0), 0.7, mode)
    want = spiral_curvature(1.0 / (R * R), R * (math.pi - 1.4), math.pi / 4.0)
    assert k == pytest.approx(want, rel=1e-6)
    s = sample(pseudosphere_loxodrome(R, 1.0), 0.7, mode)
    assert s.k * R == pytest.approx(-math.cos(1.0), rel=1e-6)


@pytest.mark.parametrize("R", RADII)
def test_tractroid_rim_still_degenerates(R):
    patch = pseudosphere_patch(R)
    with pytest.raises(DegenerateJet):
        gaussian_curvature(patch, 0.3, math.pi / 2.0, JET_MODE_ANALYTIC)
    jet = eval_jet(patch, 0.3, math.pi / 2.0)
    with pytest.raises(DegenerateJet):
        unit_normal(jet, patch.orientation_sign, patch.degeneracy_bound)


def test_the_bound_is_absolute_on_the_plane_and_at_unit_radius():
    assert plane_patch().degeneracy_bound == DEGENERACY_THRESHOLD
    assert sphere_patch(1.0).degeneracy_bound == DEGENERACY_THRESHOLD
    assert pseudosphere_patch(1.0).degeneracy_bound == DEGENERACY_THRESHOLD
    assert sphere_patch(1e-7).degeneracy_bound == pytest.approx(1e-26, rel=1e-15)
    # unit_normal without a bound keeps the absolute 1e-12
    patch = sphere_patch(1e-7)
    jet = eval_jet(patch, 0.5, 1.0)
    with pytest.raises(DegenerateJet):
        unit_normal(jet, patch.orientation_sign)
    assert unit_normal(jet, patch.orientation_sign, patch.degeneracy_bound).norm() == pytest.approx(1.0)


@pytest.mark.parametrize("mode", MODES)
def test_the_plane_far_from_the_origin_measures(mode):
    # |p_u| = v and |p_v| = 1 there: the chart is anisotropic, not degenerate
    assert gaussian_curvature(plane_patch(), 0.0, 1e13, mode) == 0.0


@pytest.mark.parametrize("surface", [["plane"], ["polar", "--K", "0"]])
def test_trace_on_the_plane_far_from_the_origin_exits_0(capsys, surface):
    code = main(["trace", "--surface", *surface, "--theta", "1", "--r0", "1e12",
                 "--r1", "1e13", "--samples", "3"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize("mode", MODES)
def test_the_tractroid_below_the_default_floor_measures(mode):
    # sin v < 1e-6 on the unit tractroid: |p_u x p_v| ~ 1e-6, above 1e-12
    patch = pseudosphere_patch(1.0, v_floor=1e-7)
    # the FD stencil spans v from 3.2e-7 to 6.8e-7, where 1/sin v doubles
    tol = 1e-12 if mode == JET_MODE_ANALYTIC else 1e-2
    assert gaussian_curvature(patch, 0.1, 5e-7, mode) == pytest.approx(-1.0, rel=tol)


def test_trace_on_a_tiny_sphere_exits_0(capsys):
    code = main(["trace", "--surface", "sphere", "--R", "1e-7", "--theta", "1",
                 "--r0", "5e-8", "--r1", "1e-7", "--samples", "2"])
    out, err = capsys.readouterr()
    assert code == 0, err
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# the pole retry


def test_trace_near_the_sphere_pole_exits_0(capsys):
    code = main(["trace", "--surface", "sphere", "--theta", "0.6", "--r0", "0.05",
                 "--r1", "1", "--samples", "3"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize("mode", MODES)
def test_sample_near_the_pole_matches_the_closed_form(mode):
    theta = 0.6
    curve = sphere_loxodrome(1.0, math.cos(theta) / math.sin(theta))
    t = (math.pi - 0.05) / 2.0
    s = sample(curve, t, mode)
    want = spiral_curvature(1.0, s.r, theta)
    assert s.r == pytest.approx(0.05, rel=1e-12)
    assert abs(s.k - want) <= 1e-5 * abs(want)


@pytest.mark.parametrize("mode", MODES)
def test_the_retry_is_what_measures_near_the_pole(monkeypatch, mode):
    theta = 0.6
    curve = sphere_loxodrome(1.0, math.cos(theta) / math.sin(theta))
    t = (math.pi - 0.05) / 2.0
    monkeypatch.setattr(curves, "STEP_HALVINGS", 0)
    with pytest.raises(NumericalBreakdown):
        sample(curve, t, mode)


@pytest.mark.parametrize("mode", MODES)
def test_a_sample_that_passes_first_time_is_unchanged(monkeypatch, mode):
    theta = 0.6
    curve = sphere_loxodrome(1.0, math.cos(theta) / math.sin(theta))
    ts = [0.3, 0.8, 1.2, 1.4]
    with_retry = [sample(curve, t, mode) for t in ts]
    monkeypatch.setattr(curves, "STEP_HALVINGS", 0)
    assert [sample(curve, t, mode) for t in ts] == with_retry


def test_too_close_to_the_pole_still_breaks_down():
    # three halvings are not enough at v = 0.001: the stencil reports it
    curve = sphere_loxodrome(1.0, 1.0)
    with pytest.raises(NumericalBreakdown):
        geodesic_curvature_numeric(curve, (math.pi - 1e-3) / 2.0)


@pytest.mark.parametrize("mode, first_try", [(JET_MODE_ANALYTIC, 9), (JET_MODE_FD, 17)])
def test_each_halving_costs_one_central_difference(mode, first_try):
    # three halvings at r = 0.05: each reuses the previous half-step
    # difference and the centre, and evaluates the position 2 more times
    theta = 0.6
    curve = sphere_loxodrome(1.0, math.cos(theta) / math.sin(theta))
    calls = []
    position = curve.patch.eval

    def counted(u, v):
        calls.append((u, v))
        return position(u, v)

    counted_curve = dataclasses.replace(
        curve, patch=dataclasses.replace(curve.patch, eval=counted)
    )
    sample(counted_curve, 0.7, mode)
    assert len(calls) == first_try
    calls.clear()
    sample(counted_curve, (math.pi - 0.05) / 2.0, mode)
    assert len(calls) == first_try + 3 * 2
