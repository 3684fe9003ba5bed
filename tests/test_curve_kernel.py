"""The derivatives of a chart trace, which the curvature's chain rule reads.

curves measures k from the patch's 2-jet and the trace's (u', v', u'',
v'').  Every constructor gives them in closed form; the reference here is
the generic numdiff route on the trace, richardson_first and
richardson_second once per chart component, at the one step that
fit_steps sizes from STEP_SECOND_FINE.  The closed forms must agree with
it where the trace is smooth on the step's scale.  A curve without closed
forms takes both orders from one trace stencil.  Either way, sample and
geodesic_curvature_numeric must give the bits of the chain rule written
out on eval_jet, or raise its exception with its message, in both jet
modes and both directions: also next to the sphere loxodrome's pole, the
tractroid's floor, and where exp nearly overflows in the trace, and at
one input per raise of the kernel.  The route written out wraps the jet's
float triples in Vec3 and uses Vec3's operators only: its normal, first
form and angle do not call the package's float kernels.  liouville_breakdown's k1, k2 and theta are
pinned against it too.
"""

import dataclasses
import math

import pytest

from spiralcurv import curves as cv
from spiralcurv.errors import DegenerateJet, GeometryError, NumericalBreakdown
from spiralcurv.liouville import liouville_breakdown
from spiralcurv.numdiff import STEP_SECOND_FINE, fit_steps, richardson_first, richardson_second
from spiralcurv.polar import _embedded_spiral
from spiralcurv.surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    eval_jet,
    pseudosphere_patch,
    sphere_patch,
)

from test_form_kernel import reference_first_form, reference_normal, vec3_jet

MODES = (JET_MODE_ANALYTIC, JET_MODE_FD)
PI = math.pi


# ---------------------------------------------------------------------------
# the generic route


def reference_derivatives(curve, t):
    """(u', v', u'', v'') and the Richardson error of the second
    differences, relative to max(|(u'', v'')|, |(u', v')|^2)."""
    (h,) = fit_steps(t, *curve.t_domain, STEP_SECOND_FINE)
    first = [richardson_first(lambda s, i=i: curve.trace(s)[i], t, h)[0] for i in (0, 1)]
    second = [richardson_second(lambda s, i=i: curve.trace(s)[i], t, h) for i in (0, 1)]
    (du, dv), ((ddu, eu), (ddv, ev)) = first, second
    err = math.hypot(eu, ev) / max(math.hypot(ddu, ddv), du * du + dv * dv)
    return du, dv, ddu, ddv, err


def chain_rule_derivatives(curve, t):
    """The closed forms with error 0, or else the generic route."""
    if curve.trace_derivatives is None:
        return reference_derivatives(curve, t)
    try:
        return (*curve.trace_derivatives(t), 0.0)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise cv._trace_fault(exc, "velocity", t) from None


def reference_curvature(jet, patch, du, dv, ddu, ddv):
    """<gamma'', N x gamma'>/|gamma'|^3 on Vec3 operators, with the normal
    of the form kernel's Vec3 reference."""
    d1 = jet.p_u * du + jet.p_v * dv
    d2 = (jet.p_uu * (du * du) + jet.p_uv * (2.0 * du * dv) + jet.p_vv * (dv * dv)
          + jet.p_u * ddu + jet.p_v * ddv)
    sp = d1.norm()
    if sp == 0.0:
        raise DegenerateJet("the curve is not regular: gamma' vanishes")
    n = reference_normal(jet, patch)
    k = d2.dot(n.cross(d1)) / sp / sp / sp
    if not (math.isfinite(k) and math.isfinite(sp)):
        raise NumericalBreakdown(f"the curvature {k!r} at speed {sp!r} is not finite")
    return k


def reference_angle(curve, jet, du, dv, t):
    """The angle to the parallel from E, F, G by Vec3.dot on p_u and p_v."""
    E, F, G = reference_first_form(jet)
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


def reference_sample(curve, t, mode):
    jet = vec3_jet(eval_jet(curve.patch, *cv._chart_point(curve, t), mode))
    du, dv, ddu, ddv, err = chain_rule_derivatives(curve, t)
    if err > cv.BREAKDOWN_TOL:
        raise NumericalBreakdown(
            f"second-derivative estimate unreliable at t={t} (relative error ~{err:.2e})"
        )
    k = reference_curvature(jet, curve.patch, du, dv, ddu, ddv)
    return cv.CurveSample(
        t=t,
        position=jet.p,
        k=curve.direction_sign * k,
        theta=reference_angle(curve, jet, du, dv, t),
        r=curve.center_distance(t) if curve.center_distance is not None else None,
    )


def reference_k(curve, t, mode):
    return reference_sample(curve, t, mode).k


def outcome(fn, *args):
    """The repr of the result (every bit of every float, and -0.0), or the
    exception's class and message."""
    try:
        return repr(fn(*args))
    except GeometryError as exc:
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# the curves


def _polar(K, theta):
    return _embedded_spiral(K, theta, 0.3, 1.2)


# t = (pi - r) / 2 on the sphere loxodrome lies at distance r from the pole
_POLE = tuple((PI - r) / 2.0 for r in (0.4, 0.3, 0.1, 0.001))

# parameters where the trace is smooth on the scale of the stencil's step
CURVES = [
    (cv.plane_log_spiral(0.5), (-1.0, 0.2, 1.7)),
    (cv.plane_log_spiral(-2.0), (-3.0, 0.4)),
    (cv.sphere_loxodrome(1.0, math.cos(0.6) / math.sin(0.6)), (0.3, 0.7, 1.2)),
    (cv.sphere_loxodrome(2.0, -0.5), (0.6, 1.1)),
    (cv.pseudosphere_loxodrome(1.0, PI / 3.0), (0.3, 0.8, 1.4)),
    (cv.pseudosphere_loxodrome(0.5, 2.0 * PI / 3.0), (0.5, 1.2)),
    (cv.coordinate_curve(sphere_patch(1.5), cv.PARALLEL, 0.4), (-2.0, 0.5)),
    (cv.coordinate_curve(sphere_patch(1.5), cv.MERIDIAN, 0.4), (0.01, 1.0, 3.0)),
    (cv.coordinate_curve(pseudosphere_patch(1.0), cv.MERIDIAN, 0.2), (0.7, 1.5)),
    (_polar(1.0, 1.0), (0.4, 1.0, 2.5)),
    (_polar(0.25, 2.0), (0.4, 1.0, 5.0)),
    (_polar(0.0, 2.0), (0.5, 1.1, 30.0)),
]
CASES = [(c, t) for c, ts in CURVES for t in ts]
IDS = [f"{c.label}-t={t}" for c, t in CASES]


@pytest.mark.parametrize("curve,t", CASES, ids=IDS)
def test_closed_form_derivatives_match_the_trace(curve, t):
    got = curve.trace_derivatives(t)
    want = reference_derivatives(curve, t)[:4]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-8 * max(1.0, abs(g)), (got, want)


# the constructors' curves, also where the trace stencil could not
# measure: next to the sphere loxodrome's pole, where exp(-t) comes within
# 1% of overflowing, and next to the tractroid's floor
_NEAR_POLE = tuple((PI - r) / 2.0 for r in (0.2, 0.15, 0.05, 0.03, 0.02))
KERNEL_CURVES = CURVES + [
    (cv.plane_log_spiral(1.0), (-5.0, -709.7)),
    (CURVES[2][0], _POLE + _NEAR_POLE),
    (CURVES[3][0], _POLE),
    (CURVES[4][0], (0.0012,)),
    (CURVES[8][0], (0.01,)),
]
# and each raise of the kernel: the tractroid's rim, where the normal
# degenerates (FD: the stencil does not fit), a trace standing still, and
# a loxodrome so steep that k overflows (FD: the jet's normal underflows)
RAISES = [
    (cv.pseudosphere_loxodrome(1.0, 1.0), PI / 2.0,
     ("DegenerateJet: |p_u x p_v| = 6.123e-17 below degeneracy threshold", "OutOfDomain: ")),
    (dataclasses.replace(cv.plane_log_spiral(0.5), trace_derivatives=lambda t: (0.0,) * 4,
                         label="standing trace"), 0.2,
     ("DegenerateJet: the curve is not regular: gamma' vanishes",) * 2),
    (cv.sphere_loxodrome(1.0, 1e130), 0.7,
     ("NumericalBreakdown: the curvature -inf at speed 2e+130 is not finite",
      "DegenerateJet: |p_u x p_v| = ")),
]
KERNEL_CASES = [(c, t) for c, ts in KERNEL_CURVES for t in ts] + [(c, t) for c, t, _ in RAISES]
KERNEL_IDS = [f"{c.label}-t={t}" for c, t in KERNEL_CASES]


@pytest.mark.parametrize("direction", (1, -1), ids=("forward", "backward"))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("curve,t", KERNEL_CASES, ids=KERNEL_IDS)
def test_kernel_gives_the_bits_of_the_generic_route(curve, t, mode, direction):
    curve = dataclasses.replace(curve, direction_sign=direction)
    assert outcome(cv.sample, curve, t, mode) == outcome(reference_sample, curve, t, mode)
    assert outcome(cv.geodesic_curvature_numeric, curve, t, mode) == outcome(
        reference_k, curve, t, mode
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("curve,t,want", RAISES, ids=[c.label for c, _, _ in RAISES])
def test_the_raising_cases_reach_their_raise(curve, t, want, mode):
    for direction in (1, -1):
        curve = dataclasses.replace(curve, direction_sign=direction)
        for measure in (cv.sample, cv.geodesic_curvature_numeric):
            assert outcome(measure, curve, t, mode).startswith(want[mode == JET_MODE_FD])


# k1, k2 and theta of liouville_breakdown on the liouville suite's families
LIOUVILLE = [
    (cv.plane_log_spiral(1.0), (-0.5, 0.6, 1.5)),
    (cv.sphere_loxodrome(1.0, 1.0), (0.8, 1.1, 1.35)),
    (cv.pseudosphere_loxodrome(1.0, PI / 3.0), (0.4, 0.9, 1.3)),
    (cv.coordinate_curve(sphere_patch(1.0), cv.PARALLEL, 0.9), (0.0, 2.5, 5.0)),
]
LIOUVILLE_CASES = [(c, t) for c, ts in LIOUVILLE for t in ts]


def reference_liouville_terms(curve, t, mode):
    jet = vec3_jet(eval_jet(curve.patch, *cv._chart_point(curve, t), mode))
    du, dv = chain_rule_derivatives(curve, t)[:2]
    return (reference_curvature(jet, curve.patch, 1.0, 0.0, 0.0, 0.0),
            reference_curvature(jet, curve.patch, 0.0, 1.0, 0.0, 0.0),
            reference_angle(curve, jet, du, dv, t))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "curve,t", LIOUVILLE_CASES, ids=[f"{c.label}-t={t}" for c, t in LIOUVILLE_CASES]
)
def test_liouville_terms_give_the_bits_of_the_generic_route(curve, t, mode):
    b = liouville_breakdown(curve, t, mode)
    assert repr((b.k1, b.k2, b.theta)) == repr(reference_liouville_terms(curve, t, mode))


# the same curves without closed-form derivatives, and next to the sphere
# loxodrome's pole, where the stencil's step is coarse for the trace
BARE = [(dataclasses.replace(c, trace_derivatives=None), ts) for c, ts in CURVES] + [
    (dataclasses.replace(CURVES[2][0], trace_derivatives=None), _POLE),
]
BARE_CASES = [(c, t) for c, ts in BARE for t in ts]
BARE_IDS = [f"bare {c.label}-t={t}" for c, t in BARE_CASES]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("curve,t", BARE_CASES, ids=BARE_IDS)
def test_trace_stencil_gives_the_bits_of_the_generic_route(curve, t, mode):
    assert outcome(cv.sample, curve, t, mode) == outcome(reference_sample, curve, t, mode)
    assert outcome(cv.geodesic_curvature_numeric, curve, t, mode) == outcome(
        reference_k, curve, t, mode
    )


def test_the_pole_cases_reach_the_gate():
    # the trace stencil measures at r = 0.4 and 0.3 and fails its gate
    # closer in, where the closed-form derivatives still measure
    lox = CURVES[2][0]
    bare = dataclasses.replace(lox, trace_derivatives=None)
    seen = []
    for t in _POLE:
        try:
            cv.geodesic_curvature_numeric(bare, t)
            seen.append("measured")
        except NumericalBreakdown:
            seen.append("rejected")
        assert math.isfinite(cv.geodesic_curvature_numeric(lox, t))
    assert seen == ["measured", "measured", "rejected", "rejected"]


@pytest.mark.parametrize("t", (-1.0, 0.6, 3.0))
def test_fd_velocity_takes_the_trace_five_times(t):
    bare = BARE[0][0]
    calls = []

    def trace(s):
        calls.append(s)
        return bare.trace(s)

    du, dv = dataclasses.replace(bare, trace=trace).velocity(t)
    assert len(calls) == 5 and len(set(calls)) == 5
    assert repr((du, dv)) == repr(reference_derivatives(bare, t)[:2])


def test_fd_velocity_maps_trace_faults():
    curve = dataclasses.replace(BARE[0][0], trace=lambda t: (t, math.exp(-800.0 * t)))
    with pytest.raises(NumericalBreakdown, match="the chart velocity overflows at t=-1.0"):
        curve.velocity(-1.0)
