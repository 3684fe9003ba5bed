"""The first-order frame route: eval_frame against the 2-jet it replaces.

Every measurement that needs only the tangent plane (the normal, E, F, G)
reads surfaces.eval_frame.  These tests rebuild each measurement from a
full 2-jet (eval_jet and unit_normal) and require the same bits, count
the position evaluations each route makes, and pin the exception class
at the edges of the domain.
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
from spiralcurv.numdiff import (
    STEP_FIRST_FINE,
    STEP_SECOND_FINE,
    fit_step,
    richardson_first,
    richardson_second,
    scaled_step,
)
from spiralcurv.polar import embed_polar_trace, spiral_chart_trace
from spiralcurv.surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    Frame,
    eval_frame,
    eval_jet,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
    surface_of_revolution,
    unit_normal,
)

MODES = (JET_MODE_ANALYTIC, JET_MODE_FD)
PI = math.pi


def _polar(K, theta):
    pts = [spiral_chart_trace(K, theta, 0.3, 0.0, r) for r in (0.3, 0.6, 0.9, 1.2)]
    patch = plane_patch() if K == 0.0 else sphere_patch(1.0 / math.sqrt(K))
    return embed_polar_trace(patch, pts)


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
# the 2-jet route, as the curve measurements were written before the frame


def two_jet_k(curve, t, mode):
    lo, hi = curve.t_domain
    h1 = fit_step(scaled_step(t, STEP_FIRST_FINE), t, lo, hi)
    h2 = fit_step(scaled_step(t, STEP_SECOND_FINE), t, lo, hi)
    d1 = richardson_first(curve.point, t, h1)[0]
    d2 = richardson_second(curve.point, t, h2)[0]
    jet = eval_jet(curve.patch, *curve.trace(t), mode)
    n = unit_normal(jet, curve.patch.orientation_sign)
    return curve.direction_sign * (d2.dot(n.cross(d1)) / d1.norm() ** 3)


def _first_form(curve, t, mode):
    jet = eval_jet(curve.patch, *curve.trace(t), mode)
    return jet.p_u.dot(jet.p_u), jet.p_u.dot(jet.p_v), jet.p_v.dot(jet.p_v)


def two_jet_theta(curve, t, mode):
    E, F, G = _first_form(curve, t, mode)
    du, dv = curve.velocity(t)
    du *= curve.direction_sign
    dv *= curve.direction_sign
    sin_leg = curve.patch.orientation_sign * dv * math.sqrt(E * G - F * F)
    theta = math.atan2(sin_leg, E * du + F * dv)
    return theta + 2.0 * PI if theta <= -PI else theta


def two_jet_speed(curve, t, mode):
    E, F, G = _first_form(curve, t, mode)
    du, dv = curve.velocity(t)
    return math.sqrt(E * du * du + 2.0 * F * du * dv + G * dv * dv)


def two_jet_breakdown(curve, t, mode):
    u, v = curve.trace(t)
    k1 = two_jet_k(coordinate_curve(curve.patch, PARALLEL, v), u, mode)
    k2 = two_jet_k(coordinate_curve(curve.patch, MERIDIAN, u), v, mode)
    theta = two_jet_theta(curve, t, mode)
    k_direct = two_jet_k(curve, t, mode)
    lo, hi = curve.t_domain
    h = fit_step(scaled_step(t, STEP_FIRST_FINE), t, lo, hi)

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


# ---------------------------------------------------------------------------
# the frame itself


PATCHES = [plane_patch(), sphere_patch(0.5), sphere_patch(2.0), pseudosphere_patch(1.0)]


@pytest.mark.parametrize("patch", PATCHES, ids=lambda p: p.name)
def test_fd_frame_equals_fd_jet_first_partials(patch):
    dom = patch.domain.v
    lo = dom.lo if math.isfinite(dom.lo) else -3.0
    hi = min(dom.hi, 3.0)
    # interior points and points next to the edges, where fit_step shrinks the steps
    for v in (lo + 1e-9, lo + 1e-3, (lo + hi) / 2.0, hi - 1e-3, hi - 1e-9):
        for u in (-2.0, 0.0, 0.7, 40.0):
            frame = eval_frame(patch, u, v, JET_MODE_FD)
            jet = eval_jet(patch, u, v, JET_MODE_FD)
            assert isinstance(frame, Frame)
            same_bits(frame.p_u, jet.p_u)
            same_bits(frame.p_v, jet.p_v)


@pytest.mark.parametrize("patch", PATCHES, ids=lambda p: p.name)
def test_analytic_frame_is_the_analytic_jet(patch):
    assert eval_frame(patch, 0.4, 1.0, JET_MODE_ANALYTIC) == patch.jet(0.4, 1.0)


def test_unit_normal_reads_a_frame_like_a_jet():
    patch = sphere_patch(1.0)
    for mode in MODES:
        jet = eval_jet(patch, 0.3, 1.2, mode)
        frame = eval_frame(patch, 0.3, 1.2, mode)
        same_bits(unit_normal(frame, -1), unit_normal(jet, -1))


def test_frame_shares_the_gate_of_eval_jet():
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
        with pytest.raises(exc):
            eval_frame(*args)
    frame, jet = eval_frame(nojet, 0.5, 1.0, JET_MODE_FD), eval_jet(nojet, 0.5, 1.0, JET_MODE_FD)
    same_bits((frame.p_u, frame.p_v), (jet.p_u, jet.p_v))


# ---------------------------------------------------------------------------
# every tangent-plane measurement gives the bits of the 2-jet route


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
    # per sample: 1 position + 10 for the curve's stencil, + 8 for an FD frame
    for mode, want in ((JET_MODE_ANALYTIC, 11), (JET_MODE_FD, 19)):
        calls.clear()
        cv.sample(counted, t, mode)
        assert len(calls) == want, mode
    calls.clear()
    cv.angle_to_parallel(counted, t, JET_MODE_FD)
    assert len(calls) == 8
    u, v = curve.trace(t)
    calls.clear()
    eval_frame(counted.patch, u, v, JET_MODE_FD)
    assert len(calls) == 8
    # a full FD jet: 1 centre + 8 first + 8 second (the centre shared) + 8 mixed
    calls.clear()
    eval_jet(counted.patch, u, v, JET_MODE_FD)
    assert len(calls) == 25
    calls.clear()
    eval_jet(counted.patch, u, v, JET_MODE_ANALYTIC)
    assert calls == []


# ---------------------------------------------------------------------------
# the exception classes at the edges, as the 2-jet route raised them


_LOX = cv.pseudosphere_loxodrome(1.0, 1.0)
_RIM = coordinate_curve(pseudosphere_patch(1.0), PARALLEL, PI / 2.0)
FUNCTIONS = (cv.sample, cv.geodesic_curvature_numeric, cv.angle_to_parallel, cv.speed,
             liouville_breakdown)
OOD, DJ, BP, NB = OutOfDomain, DegenerateJet, BadParameter, NumericalBreakdown
# per edge and mode: the outcome of each of FUNCTIONS, None for a finite float
EDGES = [
    ("rim", _RIM, 0.3, {JET_MODE_ANALYTIC: (DJ, DJ, None, None, DJ),
                        JET_MODE_FD: (OOD,) * 5, "symbolic": (BP,) * 5}),
    ("top", _LOX, PI / 2.0, {JET_MODE_ANALYTIC: (OOD, OOD, None, None, DJ),
                             JET_MODE_FD: (OOD,) * 5, "symbolic": (OOD, OOD, BP, BP, BP)}),
    ("bottom", _LOX, 1e-3, {JET_MODE_ANALYTIC: (OOD, OOD, None, None, NB),
                            JET_MODE_FD: (OOD,) * 5, "symbolic": (OOD, OOD, BP, BP, BP)}),
    ("outside", _LOX, 2.0, {m: (OOD,) * 5 for m in MODES + ("symbolic",)}),
]


@pytest.mark.parametrize("name,curve,t,table", EDGES, ids=[e[0] for e in EDGES])
def test_edge_exceptions(name, curve, t, table):
    for mode, outcomes in table.items():
        for fn, want in zip(FUNCTIONS, outcomes):
            if want is None:
                assert math.isfinite(fn(curve, t, mode)), (fn.__name__, mode)
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
    # within ~3e-162 of the origin the second FD step squares to 0; the 2-jet
    # route raised a bare ZeroDivisionError there, the frame needs no second
    # step and agrees with the analytic jets
    curve = cv.plane_log_spiral(1.0)
    for t in (371.5, 373.0, 700.0):
        for fn in FUNCTIONS:
            try:
                want = repr(fn(curve, t, JET_MODE_ANALYTIC))
            except GeometryError as exc:
                want = type(exc).__name__
            try:
                got = repr(fn(curve, t, JET_MODE_FD))
            except GeometryError as exc:
                got = type(exc).__name__
            assert got == want, (t, fn.__name__)
