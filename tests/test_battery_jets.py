"""The forms suite evaluates one jet per grid point, in the battery's mode.

Per run_suites("all"): 2,800 jets in the battery's mode (7 patches x 400
grid points) and 175 in the other mode (the other side of jet_consistency
at every 4th point in u and in v), counted by a wrapper around eval_jet in
every module that binds it."""

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

MODES = [JET_MODE_ANALYTIC, JET_MODE_FD]
OTHER = {JET_MODE_ANALYTIC: JET_MODE_FD, JET_MODE_FD: JET_MODE_ANALYTIC}


@pytest.fixture
def jet_counts(monkeypatch):
    counts = collections.Counter()
    original = surfaces.eval_jet

    def counted(patch, u, v, mode=JET_MODE_ANALYTIC):
        counts[mode] += 1
        return original(patch, u, v, mode)

    for name, module in list(sys.modules.items()):
        if name == "spiralcurv" or name.startswith("spiralcurv."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("mode", MODES)
def test_battery_jet_counts(jet_counts, mode):
    reports = verify.run_suites("all", mode, 1.0 if mode == JET_MODE_ANALYTIC else 100.0)
    assert all(r.passed for r in reports)
    assert jet_counts == {mode: 2800, OTHER[mode]: 175}


@pytest.mark.parametrize("mode", MODES)
def test_one_jet_gives_both_orientations_bit_for_bit(mode):
    for patch, us, vs in verify._patches():
        flipped = dataclasses.replace(patch, orientation_sign=-patch.orientation_sign)
        for u, v in ((us[0], vs[0]), (us[4], vs[8]), (us[-1], vs[-1])):
            jet = eval_jet(patch, u, v, mode)
            K = curvature_from_jet(jet, patch.orientation_sign)
            assert K == gaussian_curvature(patch, u, v, mode)
            assert curvature_from_jet(jet, -patch.orientation_sign) == K
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
