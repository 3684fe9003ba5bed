"""The 2-jet route of the curve measurements.

Every curve measurement reads one 2-jet of the patch (eval_jet): the speed
and the angle its first form (E, F, G), the curvature the whole jet by the
chain rule, and sample everything off that jet.  These tests rebuild each
measurement from a 2-jet, written out from the formulas on Vec3's
operators over the jet's fields (vec3_jet), and require the same bits, or the same exception and message, count the position
evaluations each measurement makes, and pin the exception class at the
edges of the domain.
"""

import dataclasses
import math

import pytest

from spiralcurv import curves as cv
from spiralcurv.curves import MERIDIAN, PARALLEL, coordinate_curve
from spiralcurv.errors import (
    BadParameter,
    DegenerateJet,
    GeometryError,
    NumericalBreakdown,
    OutOfDomain,
)
from spiralcurv.liouville import LiouvilleBreakdown, liouville_breakdown
from spiralcurv.numdiff import STEP_FIRST_FINE, fit_steps, richardson_first
from spiralcurv.polar import _embedded_spiral
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
    surface_of_revolution,
    unit_normal,
)
from spiralcurv.vec import Vec3

from test_curve_kernel import stencil_curve
from test_form_kernel import vec3_jet

MODES = (JET_MODE_ANALYTIC, JET_MODE_FD)
PI = math.pi


def _polar(K, theta):
    return _embedded_spiral(K, theta, 0.3, 1.2)


CURVES = [
    (cv.plane_log_spiral(0.5), (-1.0, 0.2, 1.7)),
    (cv.plane_log_spiral(-1.0), (-0.5, 0.8)),
    (cv.sphere_loxodrome(1.0, 1.0), (0.5, 0.9, 1.3)),
    (cv.sphere_loxodrome(2.0, -0.5), (0.6, 1.1)),
    (cv.pseudosphere_loxodrome(1.0, PI / 3.0), (0.3, 0.8, 1.4)),
    (cv.pseudosphere_loxodrome(0.5, 2.0 * PI / 3.0), (0.5, 1.2)),
    (_polar(1.0, 1.0), (0.4, 1.0)),
    (_polar(0.0, 2.0), (0.5, 1.1)),
]
CASES = [(c, t) for c, ts in CURVES for t in ts]
IDS = [f"{c.label}-t={t}" for c, t in CASES]


# ---------------------------------------------------------------------------
# the 2-jet route, written out from the formulas


def two_jet_k(curve, t, mode):
    """<gamma'', N x gamma'>/|gamma'|^3, gamma' and gamma'' by the chain rule
    from the patch's 2-jet and the trace's closed-form derivatives."""
    jet = vec3_jet(eval_jet(curve.patch, *curve.trace(t), mode))
    du, dv, ddu, ddv = curve.trace_derivatives(t)
    d1 = jet.p_u * du + jet.p_v * dv
    d2 = (jet.p_uu * (du * du) + jet.p_uv * (2.0 * du * dv) + jet.p_vv * (dv * dv)
          + jet.p_u * ddu + jet.p_v * ddv)
    n = unit_normal(jet, curve.patch)
    sp = d1.norm()
    return curve.direction_sign * (d2.dot(n.cross(d1)) / sp / sp / sp)


def _first_form(curve, t, mode):
    """(E, F, G) off the patch's 2-jet at the curve's point, after the
    domain check of t."""
    jet = vec3_jet(eval_jet(curve.patch, *cv._chart_point(curve, t), mode))
    return jet.p_u.dot(jet.p_u), jet.p_u.dot(jet.p_v), jet.p_v.dot(jet.p_v)


def two_jet_theta(curve, t, mode):
    """atan2(orientation_sign * dv * sqrt(EG - F^2), E du + F dv) in
    (-pi, pi], (du, dv) the chart velocity in the direction of travel.
    DegenerateJet where the first form is not positive definite or the
    velocity vanishes, NumericalBreakdown where EG - F^2 overflows."""
    E, F, G = _first_form(curve, t, mode)
    du, dv = curve.velocity(t)
    area2 = E * G - F * F
    if area2 <= 0.0 or E <= 0.0:
        raise DegenerateJet("first form is not positive definite")
    if not math.isfinite(area2):
        raise NumericalBreakdown("E*G - F^2 overflows")
    du *= curve.direction_sign
    dv *= curve.direction_sign
    if E * du * du + 2.0 * F * du * dv + G * dv * dv <= 0.0:
        raise DegenerateJet(f"curve velocity vanishes at t={t}")
    sin_leg = curve.patch.orientation_sign * dv * math.sqrt(area2)
    theta = math.atan2(sin_leg, E * du + F * dv)
    return theta + 2.0 * PI if theta <= -PI else theta


def two_jet_speed(curve, t, mode):
    """sqrt(E du^2 + 2F du dv + G dv^2); NumericalBreakdown where it
    overflows."""
    E, F, G = _first_form(curve, t, mode)
    du, dv = curve.velocity(t)
    value = math.sqrt(E * du * du + 2.0 * F * du * dv + G * dv * dv)
    if not math.isfinite(value):
        raise NumericalBreakdown(f"the speed overflows at t={t}")
    return value


def two_jet_breakdown(curve, t, mode):
    u, v = curve.trace(t)
    k1 = two_jet_k(coordinate_curve(curve.patch, PARALLEL, v), u, mode)
    k2 = two_jet_k(coordinate_curve(curve.patch, MERIDIAN, u), v, mode)
    theta = two_jet_theta(curve, t, mode)
    k_direct = two_jet_k(curve, t, mode)
    (h,) = fit_steps(t, curve.t_domain.lo, curve.t_domain.hi, STEP_FIRST_FINE)

    def unwrapped(s):
        a = two_jet_theta(curve, s, mode)
        while a - theta > PI:
            a -= 2.0 * PI
        while a - theta < -PI:
            a += 2.0 * PI
        return a

    dtheta_ds = richardson_first(unwrapped, t, h)[0] / two_jet_speed(curve, t, mode)
    k_l = k1 * math.cos(theta) + k2 * math.sin(theta) + dtheta_ds
    return LiouvilleBreakdown(k1, k2, theta, dtheta_ds, k_l, k_direct, abs(k_l - k_direct))


def same_bits(got, want):
    # repr tells -0.0 from 0.0 and prints every float in shortest round-trip form
    assert repr(got) == repr(want)


def outcome(fn, *args):
    """The repr of the result (every bit of every float, and -0.0), or the
    exception's class and message."""
    try:
        return repr(fn(*args))
    except GeometryError as exc:
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# the gate of eval_jet


def test_the_gate_of_eval_jet():
    nojet = surface_of_revolution(lambda v: 2.0 + math.cos(v), math.sin, v_domain=(0.0, 3.0))
    ps = pseudosphere_patch(1.0)
    for args, exc in [
        ((plane_patch(), 0.0, 1.0, "symbolic"), BadParameter),
        ((nojet, 0.0, 1.0, JET_MODE_ANALYTIC), BadParameter),
        ((sphere_patch(1.0), 0.0, -0.1, JET_MODE_FD), OutOfDomain),
        ((ps, 0.0, 1e-4, JET_MODE_ANALYTIC), OutOfDomain),
        # the closed edges of the tractroid are inside the domain, but leave
        # no room for a stencil
        ((ps, 0.0, PI / 2.0, JET_MODE_FD), OutOfDomain),
        ((ps, 0.0, 1e-3, JET_MODE_FD), OutOfDomain),
    ]:
        with pytest.raises(exc):
            eval_jet(*args)


def test_no_mode_picks_analytic_exactly_when_the_patch_has_a_jet():
    sphere = sphere_patch(1.0)
    assert eval_jet(sphere, 0.3, 1.2) == sphere.jet(0.3, 1.2)
    # a patch without an analytic jet gets finite differences, bit for bit,
    # where naming "analytic" still raises
    nojet = surface_of_revolution(lambda v: 2.0 + math.cos(v), math.sin, v_domain=(0.0, 3.0))
    same_bits(eval_jet(nojet, 0.5, 1.0), eval_jet(nojet, 0.5, 1.0, JET_MODE_FD))
    same_bits(eval_jet(nojet, 0.5, 1.0, None), eval_jet(nojet, 0.5, 1.0, JET_MODE_FD))
    with pytest.raises(BadParameter):
        eval_jet(nojet, 0.5, 1.0, JET_MODE_ANALYTIC)


# the floor v = 1e-3 of the tractroid is a closed edge: inside the domain of
# the patch and of the loxodrome's t = v, but with no room for a stencil
NO_ROOM = r"^no room for a difference stencil at 0\.001 inside \(0\.001, 1\.5707963267948966\)$"
# (u0 puts the loxodrome's floor point at u = 0, where liouville_breakdown's
# parallel through it measures)
_FLOOR_LOX = cv.pseudosphere_loxodrome(
    1.0, PI / 3.0, u0=(1.0 / math.sin(1e-3) - 1.0) / math.sqrt(3.0)
)
NO_ROOM_SITES = {
    "fd-jet": lambda: eval_jet(pseudosphere_patch(1.0), 0.3, 1e-3, JET_MODE_FD),
    "speed": lambda: cv.speed(_FLOOR_LOX, 1e-3, JET_MODE_FD),
    "angle": lambda: cv.angle_to_parallel(_FLOOR_LOX, 1e-3, JET_MODE_FD),
    "sample": lambda: cv.sample(_FLOOR_LOX, 1e-3, JET_MODE_FD),
    "velocity": lambda: stencil_curve(_FLOOR_LOX).velocity(1e-3),
    "liouville": lambda: liouville_breakdown(_FLOOR_LOX, 1e-3),
}


@pytest.mark.parametrize("site", NO_ROOM_SITES)
def test_every_stencil_site_raises_the_one_no_room_error(site):
    with pytest.raises(OutOfDomain, match=NO_ROOM):
        NO_ROOM_SITES[site]()


# ---------------------------------------------------------------------------
# every curve measurement gives the bits of the 2-jet route


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("curve,t", CASES, ids=IDS)
def test_measurements_equal_the_two_jet_route(curve, t, mode):
    k = two_jet_k(curve, t, mode)
    theta = two_jet_theta(curve, t, mode)
    same_bits(cv.geodesic_curvature_numeric(curve, t, mode), k)
    same_bits(cv.angle_to_parallel(curve, t, mode), theta)
    same_bits(cv.speed(curve, t, mode), two_jet_speed(curve, t, mode))
    s = cv.sample(curve, t, mode)
    same_bits((s.t, s.position, s.k, s.theta), (t, curve.point(t), k, theta))


def _skew_curve():
    """A line on a curved chart that is not orthogonal (F = 0.5 + 0.09 uv),
    with an analytic jet, so every term of the first form counts."""
    def jet(u, v):
        return Jet2(Vec3(u + 0.5 * v, v, 0.3 * u * v), Vec3(1.0, 0.0, 0.3 * v),
                    Vec3(0.5, 1.0, 0.3 * u), Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.3),
                    Vec3(0.0, 0.0, 0.0))

    patch = SurfacePatch(
        eval=lambda u, v: Vec3(u + 0.5 * v, v, 0.3 * u * v),
        domain=Rect(Interval(-3.0, 3.0), Interval(-3.0, 3.0)),
        jet=jet,
        name="skew",
    )
    return cv.ChartCurve(patch=patch, trace=lambda t: (t, 0.4 + 0.7 * t), t_domain=(-2.0, 2.0),
                         trace_derivatives=lambda t: (1.0, 0.7, 0.0, 0.0), label="skew line")


# the smooth cases, a non-orthogonal chart, the same curves with a
# difference stencil on the trace as their derivatives, and the edges: next
# to the sphere loxodrome's pole, the plane spiral where exp(-t) nearly
# overflows and where E = exp(-2t) underflows, the tractroid loxodrome next
# to its floor and on its rim, and outside the parameter domain
_SKEW = [(_skew_curve(), t) for t in (-0.5, 0.3, 1.2)]
_STENCIL = [(stencil_curve(c), t) for c, t in CASES[::3] + _SKEW]
_EDGES = [
    *((CURVES[2][0], (PI - r) / 2.0) for r in (0.1, 1e-3, 1e-6)),
    *((cv.plane_log_spiral(1.0), t) for t in (-709.7, 371.5, 373.0)),
    (CURVES[4][0], 0.0012),
    (CURVES[4][0], PI / 2.0),
    (CURVES[0][0], math.inf),
    (CURVES[2][0], 2.0),
]
TANGENT_CASES = CASES + _SKEW + _STENCIL + _EDGES
TANGENT_IDS = IDS + [f"{c.label}-t={t}" for c, t in _SKEW] + [
    f"bare {c.label}-t={t}" for c, t in _STENCIL
] + [f"{c.label}-t={t}" for c, t in _EDGES]


@pytest.mark.parametrize("direction", (1, -1), ids=("forward", "backward"))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("curve,t", TANGENT_CASES, ids=TANGENT_IDS)
def test_speed_and_angle_give_the_bits_of_the_two_jet_route(curve, t, mode, direction):
    curve = dataclasses.replace(curve, direction_sign=direction)
    assert outcome(cv.speed, curve, t, mode) == outcome(two_jet_speed, curve, t, mode)
    assert outcome(cv.angle_to_parallel, curve, t, mode) == outcome(
        two_jet_theta, curve, t, mode
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("curve,t", [CASES[i] for i in (1, 3, 7, 9, 12)],
                         ids=[IDS[i] for i in (1, 3, 7, 9, 12)])
def test_liouville_breakdown_equals_the_two_jet_route(curve, t, mode):
    same_bits(liouville_breakdown(curve, t, mode), two_jet_breakdown(curve, t, mode))


# ---------------------------------------------------------------------------
# position evaluations


def counting(curve):
    """The curve on a copy of its patch whose position map records each call."""
    calls = []
    position = curve.patch.eval

    def counted(u, v):
        calls.append((u, v))
        return position(u, v)

    return dataclasses.replace(curve, patch=dataclasses.replace(curve.patch, eval=counted)), calls


@pytest.mark.parametrize("curve,t", [CASES[i] for i in (0, 3, 6, 13)],
                         ids=[IDS[i] for i in (0, 3, 6, 13)])
def test_position_evaluations_per_measurement(curve, t):
    counted, calls = counting(curve)
    # per measurement: none with analytic jets, an FD 2-jet's 25 with FD jets
    for fn in (cv.sample, cv.geodesic_curvature_numeric, cv.speed, cv.angle_to_parallel):
        for mode, want in ((JET_MODE_ANALYTIC, 0), (JET_MODE_FD, 25)):
            calls.clear()
            fn(counted, t, mode)
            assert len(calls) == want, (fn.__name__, mode)
            assert len(set(calls)) == want, (fn.__name__, mode)
    u, v = curve.trace(t)
    # a full FD jet: 1 centre + 8 first + 8 second (the centre shared) + 8 mixed
    calls.clear()
    eval_jet(counted.patch, u, v, JET_MODE_FD)
    assert len(calls) == 25
    calls.clear()
    eval_jet(counted.patch, u, v, JET_MODE_ANALYTIC)
    assert calls == []


# ---------------------------------------------------------------------------
# the exception classes at the edges of the tractroid loxodrome's domain


_LOX = cv.pseudosphere_loxodrome(1.0, 1.0)
_RIM = coordinate_curve(pseudosphere_patch(1.0), PARALLEL, PI / 2.0)
FUNCTIONS = (cv.sample, cv.geodesic_curvature_numeric, cv.angle_to_parallel, cv.speed,
             liouville_breakdown)
OOD, DJ, BP = OutOfDomain, DegenerateJet, BadParameter
# per edge and mode: the outcome of each of FUNCTIONS, None for finite floats
EDGES = [
    ("rim", _RIM, 0.3, {JET_MODE_ANALYTIC: (DJ, DJ, None, None, DJ),
                        JET_MODE_FD: (OOD,) * 5, "symbolic": (BP,) * 5}),
    # the rim is degenerate; at the floor only liouville's angle stencil
    # in t and the FD stencils find no room
    ("top", _LOX, PI / 2.0, {JET_MODE_ANALYTIC: (DJ, DJ, None, None, DJ),
                             JET_MODE_FD: (OOD,) * 5, "symbolic": (BP,) * 5}),
    ("bottom", _LOX, 1e-3, {JET_MODE_ANALYTIC: (None, None, None, None, OOD),
                            JET_MODE_FD: (OOD,) * 5, "symbolic": (BP,) * 5}),
    ("outside", _LOX, 2.0, {m: (OOD,) * 5 for m in MODES + ("symbolic",)}),
]


@pytest.mark.parametrize("name,curve,t,table", EDGES, ids=[e[0] for e in EDGES])
def test_edge_exceptions(name, curve, t, table):
    for mode, outcomes in table.items():
        for fn, want in zip(FUNCTIONS, outcomes):
            if want is None:
                value = fn(curve, t, mode)
                if isinstance(value, cv.CurveSample):
                    value = value.k + value.theta
                assert math.isfinite(value), (fn.__name__, mode)
            else:
                with pytest.raises(want):
                    fn(curve, t, mode)


def test_patch_without_analytic_jet():
    nojet = surface_of_revolution(lambda v: 2.0 + math.cos(v), math.sin, v_domain=(0.0, 3.0))
    curve = coordinate_curve(nojet, PARALLEL, 1.0)
    for fn in FUNCTIONS:
        with pytest.raises(BadParameter):
            fn(curve, 0.5, JET_MODE_ANALYTIC)
        # no mode picks finite differences
        same_bits(fn(curve, 0.5, None), fn(curve, 0.5, JET_MODE_FD))
    same_bits(cv.geodesic_curvature_numeric(curve, 0.5), two_jet_k(curve, 0.5, JET_MODE_FD))


def test_fd_measurements_near_the_plane_origin_raise_geometry_errors():
    # within ~3e-162 of the origin the second FD step squares to 0: every
    # measurement reads a 2-jet, so each raises the FD jet's
    # NumericalBreakdown there, never a bare ZeroDivisionError
    curve = cv.plane_log_spiral(1.0)
    for t in (371.5, 373.0, 700.0):
        for fn in FUNCTIONS:
            with pytest.raises(NumericalBreakdown, match="second-difference step"):
                fn(curve, t, JET_MODE_FD)


def test_liouville_where_the_first_form_underflows_is_degenerate():
    # at t = 373 the plane spiral's v = exp(-t) ~ 1e-162, so E = v^2
    # underflows to 0 in an orthogonal chart: liouville_breakdown raises
    # the DegenerateJet of angle_to_parallel there, not NotOrthogonal
    curve = cv.plane_log_spiral(1.0)
    for t in (373.0, 700.0):
        want = outcome(cv.angle_to_parallel, curve, t, JET_MODE_ANALYTIC)
        assert want == "DegenerateJet: first form is not positive definite"
        assert outcome(liouville_breakdown, curve, t, JET_MODE_ANALYTIC) == want


@pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
@pytest.mark.parametrize("R", [1e78, 1e150])
def test_liouville_where_the_first_form_overflows_is_the_angle_outcome(R, mode):
    # on a sphere of R >= 1e78, E*G ~ R^4 overflows: liouville_breakdown
    # passes the first form through angle_to_parallel's gate, so both raise
    # its NumericalBreakdown, not the normal's "|p_u x p_v| overflows"
    for curve, t in (
        (cv.sphere_loxodrome(R, 1.0), 0.7),
        (coordinate_curve(sphere_patch(R), PARALLEL, 0.9), 0.3),
    ):
        want = outcome(cv.angle_to_parallel, curve, t, mode)
        assert want == "NumericalBreakdown: E*G - F^2 overflows"
        assert outcome(liouville_breakdown, curve, t, mode) == want
