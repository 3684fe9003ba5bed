import dataclasses
import math

import numpy as np
import pytest

from spiralcurv import (
    BadParameter,
    DegenerateJet,
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    OutOfDomain,
    Vec3,
    eval_jet,
    fundamental_forms,
    gaussian_curvature,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
    surface_of_revolution,
    unit_normal,
)
from spiralcurv.numdiff import (
    STEP_FIRST,
    STEP_SECOND,
    fit_step,
    richardson,
    richardson_first,
    richardson_second,
    scaled_step,
)
from spiralcurv.surfaces import Interval


ALL_PATCHES = [
    (plane_patch(), 0.0),
    (sphere_patch(0.5), 4.0),
    (sphere_patch(1.0), 1.0),
    (sphere_patch(2.0), 0.25),
    (pseudosphere_patch(0.5), -4.0),
    (pseudosphere_patch(1.0), -1.0),
    (pseudosphere_patch(2.0), -0.25),
]


def _probe(patch):
    if patch.name.startswith("pseudosphere"):
        return 0.8, 0.9
    if patch.name.startswith("sphere"):
        return 0.8, 1.1
    return 0.8, 1.7


def _fd_jet_ndarray(patch, u, v):
    """The finite-difference jet with every position taken as an ndarray."""
    dom = patch.domain
    hu1 = fit_step(scaled_step(u, STEP_FIRST), u, dom.u.lo, dom.u.hi)
    hv1 = fit_step(scaled_step(v, STEP_FIRST), v, dom.v.lo, dom.v.hi)
    hu2 = fit_step(scaled_step(u, STEP_SECOND), u, dom.u.lo, dom.u.hi)
    hv2 = fit_step(scaled_step(v, STEP_SECOND), v, dom.v.lo, dom.v.hi)
    e = lambda uu, vv: patch.eval(uu, vv).as_array()
    fu = lambda uu: e(uu, v)
    fv = lambda vv: e(u, vv)

    def cross(c):
        h, k = c * hu2, c * hv2
        return (e(u + h, v + k) - e(u + h, v - k) - e(u - h, v + k) + e(u - h, v - k)) / (
            4.0 * h * k
        )

    return {
        "p": e(u, v),
        "p_u": richardson_first(fu, u, hu1)[0],
        "p_v": richardson_first(fv, v, hv1)[0],
        "p_uu": richardson_second(fu, u, hu2)[0],
        "p_uv": richardson(cross, 1.0)[0],
        "p_vv": richardson_second(fv, v, hv2)[0],
    }


class TestGaussianCurvature:
    @pytest.mark.parametrize("patch,K", ALL_PATCHES)
    def test_analytic_jets(self, patch, K):
        u, v = _probe(patch)
        got = gaussian_curvature(patch, u, v)
        if K == 0.0:
            assert abs(got) < 1e-12
        else:
            assert got == pytest.approx(K, rel=1e-12)

    @pytest.mark.parametrize("patch,K", ALL_PATCHES)
    def test_fd_jets(self, patch, K):
        u, v = _probe(patch)
        got = gaussian_curvature(patch, u, v, JET_MODE_FD)
        if K == 0.0:
            assert abs(got) < 1e-8
        else:
            assert got == pytest.approx(K, rel=1e-6)

    @pytest.mark.parametrize("patch,K", ALL_PATCHES)
    def test_orientation_flip_leaves_K(self, patch, K):
        u, v = _probe(patch)
        flipped = dataclasses.replace(patch, orientation_sign=-patch.orientation_sign)
        assert gaussian_curvature(patch, u, v) == gaussian_curvature(flipped, u, v)

    def test_constant_over_grid(self):
        patch = pseudosphere_patch(1.0)
        vals = [
            gaussian_curvature(patch, u, v)
            for u in np.linspace(0.0, 6.0, 8)
            for v in np.linspace(0.05, 1.5, 8)
        ]
        assert max(abs(x + 1.0) for x in vals) < 1e-9


class TestJets:
    def test_fd_matches_analytic(self):
        for patch, _ in ALL_PATCHES:
            u, v = _probe(patch)
            an = eval_jet(patch, u, v, JET_MODE_ANALYTIC)
            fd = eval_jet(patch, u, v, JET_MODE_FD)
            for name in ("p", "p_u", "p_v", "p_uu", "p_uv", "p_vv"):
                a = getattr(an, name)
                f = getattr(fd, name)
                assert (f - a).norm() <= 1e-6 * max(1.0, a.norm())

    @pytest.mark.parametrize("patch", [p for p, _ in ALL_PATCHES], ids=lambda p: p.name)
    def test_fd_jet_bit_identical_to_ndarray_stencil(self, patch):
        # the FD jet differences Vec3 positions; the same stencils on numpy
        # arrays give the same bits, also next to the edges of the chart,
        # where fit_step shrinks the steps
        u, v = _probe(patch)
        dom = patch.domain.v
        for vv in (v, dom.lo + 1e-3, min(dom.hi, 3.0) - 1e-3):
            fd = eval_jet(patch, u, vv, JET_MODE_FD)
            ref = _fd_jet_ndarray(patch, u, vv)
            for name, want in ref.items():
                assert tuple(getattr(fd, name).as_array()) == tuple(want), name

    def test_unknown_mode_rejected(self):
        with pytest.raises(BadParameter):
            eval_jet(plane_patch(), 0.0, 1.0, "symbolic")

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            eval_jet(sphere_patch(1.0), 0.0, -0.1)
        with pytest.raises(OutOfDomain):
            eval_jet(sphere_patch(1.0), 0.0, math.pi)
        with pytest.raises(OutOfDomain):
            eval_jet(pseudosphere_patch(1.0), 0.0, 1e-4)

    def test_rim_evaluates_but_normal_degenerates(self):
        # the tractrix rim v = pi/2 is inside the (closed) domain, but the
        # chart is singular there: the jet exists, the normal does not
        patch = pseudosphere_patch(1.0)
        jet = eval_jet(patch, 0.3, math.pi / 2.0)
        assert math.isfinite(jet.p.x)
        with pytest.raises(DegenerateJet):
            unit_normal(jet, patch.orientation_sign)
        with pytest.raises(DegenerateJet):
            gaussian_curvature(patch, 0.3, math.pi / 2.0)


class TestNormals:
    def test_plane_normal_up(self):
        jet = eval_jet(plane_patch(), 0.4, 1.3)
        n = unit_normal(jet, plane_patch().orientation_sign)
        assert (n - Vec3(0.0, 0.0, 1.0)).norm() < 1e-14

    def test_sphere_normal_outward(self):
        patch = sphere_patch(2.0)
        u, v = 0.7, 1.0
        jet = eval_jet(patch, u, v)
        n = unit_normal(jet, patch.orientation_sign)
        radial = jet.p / 2.0
        assert (n - radial).norm() < 1e-13

    def test_pseudosphere_normal_outward(self):
        patch = pseudosphere_patch(1.0)
        u, v = 0.0, 0.7
        jet = eval_jet(patch, u, v)
        n = unit_normal(jet, patch.orientation_sign)
        want = Vec3(math.cos(v), 0.0, -math.sin(v))
        assert (n - want).norm() < 1e-12


class TestForms:
    def test_plane_metric(self):
        F = fundamental_forms(plane_patch(), 0.7, 2.0)
        assert F.E == pytest.approx(4.0, rel=1e-14)
        assert F.F == pytest.approx(0.0, abs=1e-14)
        assert F.G == pytest.approx(1.0, rel=1e-14)
        for c in (F.e, F.f, F.g):
            assert abs(c) < 1e-13

    def test_sphere_metric(self):
        R, v = 2.0, 1.1
        F = fundamental_forms(sphere_patch(R), 0.3, v)
        assert F.E == pytest.approx(R * R * math.sin(v) ** 2, rel=1e-13)
        assert F.G == pytest.approx(R * R, rel=1e-13)
        assert F.F == pytest.approx(0.0, abs=1e-12)
        # shape scales with the metric: (eg - f^2)/(EG - F^2) = 1/R^2
        K = (F.e * F.g - F.f * F.f) / (F.E * F.G - F.F * F.F)
        assert K == pytest.approx(1.0 / (R * R), rel=1e-12)


class TestBuilder:
    def test_cylinder_is_flat(self):
        patch = surface_of_revolution(
            x=lambda v: 1.0,
            z=lambda v: v,
            dx=None,
            d2x=None,
            dz=None,
            d2z=None,
            v_domain=(-2.0, 2.0),
            orientation_sign=-1,
            known_K=0.0,
            name="cylinder",
        )
        assert patch.jet is None
        with pytest.raises(BadParameter):
            eval_jet(patch, 0.0, 0.5, JET_MODE_ANALYTIC)
        assert abs(gaussian_curvature(patch, 0.0, 0.5, JET_MODE_FD)) < 1e-8

    def test_cone_flat_away_from_apex(self):
        patch = surface_of_revolution(
            x=lambda v: v,
            z=lambda v: 2.0 * v,
            dx=lambda v: 1.0,
            d2x=lambda v: 0.0,
            dz=lambda v: 2.0,
            d2z=lambda v: 0.0,
            v_domain=(0.1, 3.0),
            orientation_sign=-1,
            known_K=0.0,
            name="cone",
        )
        assert abs(gaussian_curvature(patch, 1.0, 1.5)) < 1e-12


class TestInterval:
    def test_open_closed_endpoints(self):
        i = Interval(0.0, 1.0, closed_lo=True, closed_hi=False)
        assert i.contains(0.0)
        assert not i.contains(1.0)
        assert i.contains(0.5)
        assert not i.contains(-1e-9)

    def test_infinite_endpoints_always_open(self):
        i = Interval(-math.inf, math.inf, closed_lo=True, closed_hi=True)
        assert i.contains(1e300)
        assert not i.contains(math.inf)


@pytest.mark.parametrize("make", [sphere_patch, pseudosphere_patch])
def test_radius_without_a_finite_curvature_is_bad_parameter(make):
    # 1/R^2 is inf below R ~ 7e-155 (R*R underflows to 0 below ~1e-162) and 0
    # above R ~ 1.3e154
    for R in (1e-300, 1e-160, 7e-155, 1.4e154, 1e300, math.inf, math.nan):
        with pytest.raises(BadParameter):
            make(R)
    sign = 1.0 if make is sphere_patch else -1.0
    for R in (8e-155, 0.5, 3.0, 1.3e154):
        assert make(R).known_K == sign * (1.0 / (R * R))
