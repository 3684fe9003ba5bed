"""The forms suite reads K at every grid point through one grid call, and
takes jets only at every 4th point in u and in v; each curve measurement
reads the profile of its surface of revolution once at its curve point
and takes no jet.

Per run_suites("all"): 2,800 curvatures (7 patches x 400 grid points)
from surfaces._curvature_grid in the battery's mode, which takes no jet
in either mode and reads each of the 20 grid v's profile once, 175 jets
from surfaces._jet_grid in each mode (the orientation flip, the
regularity and the two sides of jet_consistency at every 4th point),
and 32 jets in the battery's mode, one call of eval_jet per liouville
breakdown.  The curve measurements read the profile
(surfaces._revolution_profile) 298 + 653 times: the curvatures 298 (250
numeric_vs_closed_form samples, 36 curvatures of orientation_covariance
and 12 meridian curvatures), the speeds and angles 653: 75 speeds (5 arc
lengths of one 15-node panel each) and 578 angles (350 of
constant_angle, 100 of embedded_polar_angle and the 4-point dtheta/dt
stencil of the 32 liouville breakdowns).  Wrappers around
_curvature_grid, _jet_grid, eval_jet and _revolution_profile in every
module that binds them count the calls per route; a call made inside
another route counts apart, as nested in the outermost one."""

import collections
import dataclasses
import sys

import pytest

from spiralcurv import surfaces, verify
from spiralcurv.surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    curvature_from_jet,
    eval_jet,
    gaussian_curvature,
)

from test_form_kernel import vec3_jet
from test_surfaces import fd_profile_jet

MODES = [JET_MODE_ANALYTIC, JET_MODE_FD]
OTHER = {JET_MODE_ANALYTIC: JET_MODE_FD, JET_MODE_FD: JET_MODE_ANALYTIC}


@pytest.fixture
def jet_counts(monkeypatch):
    counts = collections.Counter()
    original, profile = surfaces.eval_jet, surfaces._revolution_profile
    inside = []

    def count(route, mode, n):
        if inside:
            counts[inside[0], route, mode] += n
        else:
            counts[route, mode] += n

    def counted(patch, u, v, mode=JET_MODE_ANALYTIC):
        count("eval_jet", mode, 1)
        inside.append("eval_jet")
        try:
            return original(patch, u, v, mode)
        finally:
            inside.pop()

    def counted_profile(patch, u, v, mode):
        count("_revolution_profile", mode, 1)
        return profile(patch, u, v, mode)

    def counting(route, grid):
        def counted_grid(patch, us, vs, mode):
            count(route, mode, len(us) * len(vs))
            inside.append(route)
            try:
                return grid(patch, us, vs, mode)
            finally:
                inside.pop()

        return counted_grid

    wrappers = {
        id(original): counted,
        id(profile): counted_profile,
        id(surfaces._jet_grid): counting("_jet_grid", surfaces._jet_grid),
        id(surfaces._curvature_grid): counting("_curvature_grid", surfaces._curvature_grid),
    }
    for name, module in list(sys.modules.items()):
        if name == "spiralcurv" or name.startswith("spiralcurv."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(value)])
    return counts


@pytest.mark.parametrize("mode", MODES)
def test_battery_jet_counts(jet_counts, mode):
    reports = verify.run_suites("all", mode)
    assert all(r.passed for r in reports)
    # analytic jets of _jet_grid are eval_jet calls; the curvatures of
    # _curvature_grid take no jet in either mode; an FD jet reads the
    # profile once
    fd_jets = {("eval_jet", "_revolution_profile", JET_MODE_FD): 32} if mode == JET_MODE_FD else {}
    assert jet_counts == {
        ("_curvature_grid", mode): 2800,
        ("_curvature_grid", "_revolution_profile", mode): 7 * 20,
        ("eval_jet", mode): 32,
        ("_revolution_profile", mode): 298 + 75 + 578,
        **fd_jets,
        ("_jet_grid", mode): 175,
        ("_jet_grid", OTHER[mode]): 175,
        ("_jet_grid", "eval_jet", JET_MODE_ANALYTIC): 175,
        ("_jet_grid", "_revolution_profile", JET_MODE_FD): 7 * 5,
    }


@pytest.mark.parametrize("mode", MODES)
def test_one_jet_gives_both_orientations_bit_for_bit(mode):
    for patch, us, vs in verify._patches():
        flipped = dataclasses.replace(patch, orientation_sign=-patch.orientation_sign)
        for u, v in ((us[0], vs[0]), (us[4], vs[8]), (us[-1], vs[-1])):
            jet = eval_jet(patch, u, v, mode)
            K = curvature_from_jet(jet, patch)
            assert K == gaussian_curvature(patch, u, v, mode)
            assert curvature_from_jet(jet, flipped) == K
            assert gaussian_curvature(flipped, u, v, mode) == K


@pytest.mark.parametrize("mode", MODES)
def test_forms_suite_observations_match_gaussian_curvature(mode):
    reports = verify.suite_forms(mode)
    by_name = {r.check_name: r for r in reports}
    for patch, _, _ in verify._patches():
        obs = by_name[f"forms.curvature_constancy.{patch.name}"].observations
        for o in obs[::37]:
            _, u, v = o.input
            assert o.actual == gaussian_curvature(patch, u, v, mode)


@pytest.mark.parametrize("mode", MODES)
def test_jet_consistency_is_the_vec3_route(mode):
    # each observation is the largest |fd - an| / max(1, |an|) over the six
    # fields, by Vec3's - and norm on the fields wrapped in Vec3
    patches = {patch.name: patch for patch, _, _ in verify._patches()}
    (report,) = [r for r in verify.suite_forms(mode) if r.check_name == "forms.jet_consistency"]
    assert len(report.observations) == 175
    for o in report.observations:
        name, u, v = o.input
        an = vec3_jet(eval_jet(patches[name], u, v, JET_MODE_ANALYTIC))
        fd = vec3_jet(eval_jet(patches[name], u, v, JET_MODE_FD))
        worst = 0.0
        for a, f in zip(an, fd):
            worst = max(worst, (f - a).norm() / max(1.0, a.norm()))
        assert repr((o.actual, o.error)) == repr((worst, worst)), o.input


# The finite-difference jet of the battery's surfaces of revolution
# through numdiff's scalar routines on the profile (test_surfaces): the
# reference that surfaces' FD jet reproduces.


def _generic_fd_jet(patch, u, v):
    return surfaces.Jet2(*fd_profile_jet(patch, u, v).values())


def _hex(jets):
    return [tuple(c.hex() for field in jet for c in field) for jet in jets]


def test_forms_suite_kernel_matches_generic_richardson(monkeypatch):
    # every FD jet of the battery's grids has the generic routines' bits
    for patch, us, vs in verify._patches():
        grid = surfaces._jet_grid(patch, us, vs, JET_MODE_FD)
        assert _hex(grid) == _hex(_generic_fd_jet(patch, u, v) for u in us for v in vs)
    # and so does the suite built on them: its curvatures are
    # curvature_from_jet of the generic jets, and its FD jets those jets
    kernel = verify.suite_forms(JET_MODE_FD)
    calls = collections.Counter()
    original_grid = verify._jet_grid

    def generic_grid(patch, us, vs, mode):
        if mode != JET_MODE_FD:
            return original_grid(patch, us, vs, mode)
        calls["jets"] += len(us) * len(vs)
        return [_generic_fd_jet(patch, u, v) for u in us for v in vs]

    def generic_curvatures(patch, us, vs, mode):
        assert mode == JET_MODE_FD
        calls["curvatures"] += len(us) * len(vs)
        return [curvature_from_jet(_generic_fd_jet(patch, u, v), patch) for u in us for v in vs]

    monkeypatch.setattr(verify, "_jet_grid", generic_grid)
    monkeypatch.setattr(verify, "_curvature_grid", generic_curvatures)
    generic_suite = verify.suite_forms(JET_MODE_FD)
    assert calls == {"curvatures": 2800, "jets": 175}
    assert [(r.check_name, r.observations) for r in kernel] == [
        (r.check_name, r.observations) for r in generic_suite
    ]
