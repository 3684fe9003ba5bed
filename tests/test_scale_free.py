"""Numerical guards that do not depend on the size of the surface, and the
second-difference retry near the sphere loxodrome's pole.

The degeneracy bound on |p_u x p_v| is 1e-12 in units of the patch's area
(SurfacePatch.degeneracy_bound: 1e-12 R^2 on the sphere and the tractroid
of radius R, the absolute 1e-12 on the plane), so a sphere or a tractroid
of any radius degenerates at the same chart points, and the plane and the
unit-radius surfaces keep the absolute bound.  The curvature reads the
patch's 2-jet and the trace's closed-form derivatives, so it measures next
to the sphere loxodrome's pole and far out on the plane spiral, where a
difference stencil in t lost its accuracy."""

import dataclasses
import math

import pytest

from spiralcurv.cli import main
from spiralcurv.closed_form import spiral_curvature
from spiralcurv.curves import (
    geodesic_curvature_numeric,
    plane_log_spiral,
    pseudosphere_loxodrome,
    sample,
    sphere_loxodrome,
)
from spiralcurv.errors import DegenerateJet
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
            normal = _outcome(lambda: unit_normal(jet, patch).norm())
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
        unit_normal(jet, patch)


def test_the_bound_is_absolute_on_the_plane_and_at_unit_radius():
    assert plane_patch().degeneracy_bound == DEGENERACY_THRESHOLD
    assert sphere_patch(1.0).degeneracy_bound == DEGENERACY_THRESHOLD
    assert pseudosphere_patch(1.0).degeneracy_bound == DEGENERACY_THRESHOLD
    assert sphere_patch(1e-7).degeneracy_bound == pytest.approx(1e-26, rel=1e-15)
    # the normal reads the bound off the patch, so it measures where the
    # curvature does
    patch = sphere_patch(1e-7)
    jet = eval_jet(patch, 0.5, 1.0)
    assert unit_normal(jet, patch).norm() == pytest.approx(1.0)
    assert gaussian_curvature(patch, 0.5, 1.0) == pytest.approx(1e14, rel=1e-12)


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
# next to the pole and far out


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
def test_trace_to_the_pole_of_a_larger_sphere_matches_the_closed_form(capsys, mode):
    # the t-stencil of the embedded curve failed 5 of these 40 samples (at
    # r/R <= 0.024 and near the antipode) in both jet modes
    jets = "analytic" if mode == JET_MODE_ANALYTIC else "fd"
    code = main(["trace", "--surface", "sphere", "--R", "2.5", "--theta", "0.6", "--r0", "0.05",
                 "--r1", "6", "--samples", "40", "--jets", jets])
    out, err = capsys.readouterr()
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 40
    for row in rows:
        v, k = float(row[5]), float(row[6])
        assert abs(k - spiral_curvature(1.0 / 6.25, 2.5 * v, 0.6)) <= 1e-6


def test_right_next_to_the_pole_matches_the_closed_form():
    # v = 0.001: the t-stencil broke down here even after three halvings
    curve = sphere_loxodrome(1.0, 1.0)
    s = sample(curve, (math.pi - 1e-3) / 2.0)
    want = spiral_curvature(1.0, s.r, math.pi / 4.0)
    assert s.k == pytest.approx(want, rel=1e-14)
    assert geodesic_curvature_numeric(curve, (math.pi - 1e-3) / 2.0) == s.k


@pytest.mark.parametrize("r", [1e50, 1e100])
def test_the_plane_spiral_far_out_matches_the_closed_form(r):
    # the t-stencil's error grew as t^4 with t = -ln(r) / a: 1.7e-5 at
    # r = 1e50 and 2.8e-4 at r = 1e100
    theta = math.pi / 4.0
    s = sample(plane_log_spiral(1.0), -math.log(r), JET_MODE_ANALYTIC)
    want = math.cos(theta) / s.r
    assert abs(s.k - want) <= 1e-12 * want


@pytest.mark.parametrize("mode, per_sample", [(JET_MODE_ANALYTIC, 0), (JET_MODE_FD, 25)])
def test_a_sample_next_to_the_pole_costs_what_it_costs_anywhere(mode, per_sample):
    # no position with analytic jets, the FD 2-jet's 25 with FD jets, at
    # r = 0.05 as at the equator
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
    for t in (0.7, (math.pi - 0.05) / 2.0):
        calls.clear()
        sample(counted_curve, t, mode)
        assert len(calls) == per_sample
