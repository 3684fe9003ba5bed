"""The representation contract of the geometry core.

Inside the core a point or a derivative is a plain tuple of three floats:
eval_jet, analytic or by finite differences, returns a Jet2 whose six
fields are each one.  A point that leaves the package is a Vec3: a
curve sample's position, a curve point, a unit normal and a patch's
position map.  The patches are the plane, the sphere, the tractroid and
a hand-built chart that is not a surface of revolution, whose FD jet
calls its position map at each stencil point (it has no analytic jet).
"""

import math

import pytest

from spiralcurv import curves as cv
from spiralcurv.surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    Interval,
    Jet2,
    Rect,
    SurfacePatch,
    eval_jet,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
    unit_normal,
)
from spiralcurv.vec import Vec3

BOTH = (JET_MODE_ANALYTIC, JET_MODE_FD)

SKEW = SurfacePatch(
    eval=lambda u, v: Vec3(
        math.exp(0.3 * u) * math.cos(v) + u * v,
        math.sin(u * v) + v * v * v,
        u * u * v - math.cos(u + 2.0 * v),
    ),
    domain=Rect(Interval(-2.0, 2.0), Interval(0.1, 3.0)),
    name="skew",
)

# (patch, a chart point, the jet modes it has)
PATCHES = [
    (plane_patch(), (0.8, 1.7), BOTH),
    (sphere_patch(1.0), (0.8, 1.1), BOTH),
    (pseudosphere_patch(1.0), (0.8, 0.9), BOTH),
    (SKEW, (0.45, 1.7), (JET_MODE_FD,)),
]
IDS = [p.name for p, _, _ in PATCHES]


def is_float_triple(field):
    return type(field) is tuple and len(field) == 3 and all(type(c) is float for c in field)


@pytest.mark.parametrize("patch,point,modes", PATCHES, ids=IDS)
def test_a_jet_is_a_jet2_of_plain_float_triples(patch, point, modes):
    for mode in modes:
        jet = eval_jet(patch, *point, mode)
        assert type(jet) is Jet2, mode
        for name, field in zip(jet._fields, jet):
            assert is_float_triple(field), (mode, name, field)


@pytest.mark.parametrize("patch,point,modes", PATCHES, ids=IDS)
def test_a_point_that_leaves_the_package_is_a_vec3(patch, point, modes):
    u, v = point
    assert type(patch.eval(u, v)) is Vec3
    curve = cv.coordinate_curve(patch, cv.PARALLEL, v)
    assert type(curve.point(u)) is Vec3
    for mode in modes:
        assert type(unit_normal(eval_jet(patch, u, v, mode), patch)) is Vec3, mode
        assert type(cv.sample(curve, u, mode).position) is Vec3, mode
