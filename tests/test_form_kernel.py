"""The straight-line form kernel against Vec3's operators.

forms_from_jet and curvature_from_jet compute E, F, G, the unit normal and
e, f, g on plain floats, as first_form and unit_normal do.  These tests
wrap the jet's float triples in Vec3 (vec3_jet), rebuild all four from
Vec3's dot, cross, norm and * and require the same bits on every grid of the verify battery, in both jet modes and
for both orientation signs, and on random jets whose sums show their
association; and the same exception
class and message where the Vec3 route raises.  Where the first or
second form or K is not finite, the kernel raises NumericalBreakdown.
Every reader takes its orientation sign and degeneracy bound from the
patch, which checks the sign once, when it is built.
"""

import dataclasses
import math
import random

import pytest

from spiralcurv.errors import BadParameter, DegenerateJet, NumericalBreakdown
from spiralcurv.surfaces import (
    DEGENERACY_THRESHOLD,
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    Jet2,
    SurfacePatch,
    curvature_from_jet,
    eval_jet,
    first_form,
    forms_from_jet,
    fundamental_forms,
    gaussian_curvature,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
    surface_of_revolution,
    unit_normal,
)
from spiralcurv.vec import Vec3
from spiralcurv.verify import _patches

MODES = (JET_MODE_ANALYTIC, JET_MODE_FD)
BATTERY = _patches()
# the patch for jets that belong to none: the plane, whose bound is the
# absolute 1e-12 because it has no length of its own
FREE = plane_patch()
assert FREE.degeneracy_bound == DEGENERACY_THRESHOLD


def oriented(patch, sign):
    return dataclasses.replace(patch, orientation_sign=sign)


def vec3_jet(jet):
    """The jet with each field wrapped in a Vec3, for the reference routes
    on Vec3's operators."""
    return Jet2(*(Vec3(*field) for field in jet))


# the Vec3 route of first_form and unit_normal, which tests/test_curve_kernel.py
# also reads
def reference_first_form(jet):
    jet = vec3_jet(jet)
    return jet.p_u.dot(jet.p_u), jet.p_u.dot(jet.p_v), jet.p_v.dot(jet.p_v)


def reference_normal(jet, patch):
    jet = vec3_jet(jet)
    c = jet.p_u.cross(jet.p_v)
    n = c.norm()
    if n < patch.degeneracy_bound:
        raise DegenerateJet(f"|p_u x p_v| = {n:.3e} below degeneracy threshold")
    if not math.isfinite(n):
        raise NumericalBreakdown("|p_u x p_v| overflows")
    return c * (patch.orientation_sign / n)


def reference_forms(jet, patch):
    jet = vec3_jet(jet)
    E, F, G = reference_first_form(jet)
    n = reference_normal(jet, patch)
    if not all(map(math.isfinite, (E, F, G))):
        raise NumericalBreakdown(f"first form E={E!r}, F={F!r}, G={G!r} is not finite")
    return E, F, G, -n.dot(jet.p_uu), -n.dot(jet.p_uv), -n.dot(jet.p_vv)


def reference_curvature(jet, patch):
    E, F, G, e, f, g = reference_forms(jet, patch)
    return (e * g - f * f) / (E * G - F * F)


def hexes(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("patch,us,vs", BATTERY, ids=[p.name for p, _, _ in BATTERY])
def test_bits_of_the_vec3_route_on_the_battery_grids(patch, us, vs, mode):
    for u in us:
        for v in vs:
            jet = eval_jet(patch, u, v, mode)
            for sign in (1, -1):
                signed = oriented(patch, sign)
                got = forms_from_jet(jet, signed)
                assert hexes(got) == hexes(reference_forms(jet, signed)), (u, v, sign)
                K = curvature_from_jet(jet, signed)
                assert K.hex() == reference_curvature(jet, signed).hex(), (u, v, sign)


def test_bits_of_the_vec3_route_on_jets_without_zero_components():
    # the battery's jets are of surfaces of revolution, whose p_u, p_uu and
    # p_uv have z = 0; here every product of every sum is nonzero, so
    # the association of each sum shows
    rng = random.Random(15)
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        jet = Jet2(*(Vec3(*(scale * rng.uniform(-1.0, 1.0) for _ in range(3))) for _ in range(6)))
        for sign in (1, -1):
            patch = oriented(FREE, sign)
            assert hexes(first_form(jet)) == hexes(reference_first_form(jet)), jet
            assert hexes(unit_normal(jet, patch)) == hexes(reference_normal(jet, patch)), jet
            assert hexes(forms_from_jet(jet, patch)) == hexes(reference_forms(jet, patch)), jet
            K = curvature_from_jet(jet, patch)
            assert K.hex() == reference_curvature(jet, patch).hex(), jet


def _raises_as_the_vec3_route(jet, patch, sign, exc_type, match,
                              kernels=(forms_from_jet, curvature_from_jet)):
    patch = oriented(patch, sign)
    with pytest.raises(exc_type, match=match) as want:
        reference_forms(jet, patch)
    for kernel in kernels:
        with pytest.raises(exc_type) as got:
            kernel(jet, patch)
        assert str(got.value) == str(want.value)


NORMAL_READERS = (forms_from_jet, curvature_from_jet, unit_normal)


@pytest.mark.parametrize("sign", [0, 2, -1.5])
def test_a_bad_sign_raises_bad_parameter(sign):
    # the patch checks its sign when it is built, so no reader sees one
    patch = sphere_patch(1.0)
    match = r"orientation sign must be \+1 or -1"
    with pytest.raises(BadParameter, match=match):
        oriented(patch, sign)
    with pytest.raises(BadParameter, match=match):
        SurfacePatch(eval=patch.eval, domain=patch.domain, orientation_sign=sign)
    with pytest.raises(BadParameter, match=match):
        surface_of_revolution(math.sin, math.cos, v_domain=(0.0, math.pi), orientation_sign=sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_the_pseudosphere_rim_is_degenerate(sign):
    patch = pseudosphere_patch(1.0)
    jet = eval_jet(patch, 0.3, math.pi / 2, JET_MODE_ANALYTIC)
    _raises_as_the_vec3_route(jet, patch, sign, DegenerateJet,
                              r"below degeneracy threshold", NORMAL_READERS)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("sign", [1, -1])
def test_a_huge_sphere_overflows_the_normal(mode, sign):
    patch = sphere_patch(1e78)
    jet = eval_jet(patch, 0.3, 1.0, mode)
    _raises_as_the_vec3_route(jet, patch, sign, NumericalBreakdown,
                              r"^\|p_u x p_v\| overflows$", NORMAL_READERS)


# A unit sphere whose analytic z'' is a non-finite value, and one whose
# position map has one at the points of the second-difference stencil (at
# v = 1 those lie 1.2e-3 and 2.5e-3 away, the first differences' within 7.4e-4).
def _analytic_repro(bad):
    return surface_of_revolution(
        math.sin, math.cos, v_domain=(0.0, math.pi),
        derivatives=lambda v: (math.cos(v), -math.sin(v), -math.sin(v), bad),
    )


def _fd_repro(bad):
    return surface_of_revolution(
        math.sin, lambda v: math.cos(v) if abs(v - 1.0) < 1e-3 else bad,
        v_domain=(0.0, math.pi),
    )


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("mode,repro", [(JET_MODE_ANALYTIC, _analytic_repro),
                                        (JET_MODE_FD, _fd_repro)])
def test_a_non_finite_second_form_raises(mode, repro, bad):
    # the FD jet itself raises, where a second difference is not finite
    patch = repro(bad)
    match = "second form .* is not finite" if mode == JET_MODE_ANALYTIC else (
        r"^the FD 2-jet at \(0\.3, 1\.0\) in revolution is not finite$")
    with pytest.raises(NumericalBreakdown, match=match):
        gaussian_curvature(patch, 0.3, 1.0, mode)
    with pytest.raises(NumericalBreakdown, match=match):
        fundamental_forms(patch, 0.3, 1.0, mode)


# A surface of revolution at radius 1e155: |p_u x p_v| = 1e155 * 1e-160 is
# finite and above the degeneracy bound, E = |p_u|^2 = 1e310 is not.
def _huge_radius_repro():
    return surface_of_revolution(
        lambda v: 1e155, lambda v: 1e-160 * v, v_domain=(0.0, 1.0),
        derivatives=lambda v: (0.0, 1e-160, 0.0, 0.0),
    )


@pytest.mark.parametrize("mode", MODES)
def test_a_non_finite_first_form_raises(mode):
    patch = _huge_radius_repro()
    for measure in (fundamental_forms, gaussian_curvature):
        with pytest.raises(NumericalBreakdown, match=r"^first form E=inf, .* is not finite$"):
            measure(patch, 0.3, 0.5, mode)
    jet = eval_jet(patch, 0.3, 0.5, mode)
    for sign in (1, -1):
        _raises_as_the_vec3_route(jet, patch, sign, NumericalBreakdown,
                                  r"^first form E=inf, .* is not finite$")


@pytest.mark.parametrize("sign", [1, -1])
def test_an_overflowing_numerator_raises(sign):
    # e = g = 1e200 are finite, e*g - f*f is not
    x, y, p = Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, -1e200)
    jet = Jet2(Vec3(0.0, 0.0, 0.0), x, y, p, Vec3(0.0, 0.0, 0.0), p)
    patch = oriented(FREE, sign)
    assert hexes(forms_from_jet(jet, patch)) == hexes(reference_forms(jet, patch))
    assert math.isinf(reference_curvature(jet, patch))
    with pytest.raises(NumericalBreakdown, match=r"K = .* is not finite"):
        curvature_from_jet(jet, patch)
