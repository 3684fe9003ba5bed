"""The derivatives of a chart trace, which the curvature's chain rule reads.

curves measures k from the patch's 2-jet and the trace's (u', v', u'',
v'').  Every constructor gives them in closed form; the reference here is
the generic numdiff route on the trace, richardson_first and
richardson_second once per chart component, at the one step that
fit_steps sizes from STEP_SECOND_FINE.  The closed forms must agree with
it where the trace is smooth on the step's scale; supplied as a curve's
trace_derivatives, it measures too.  sample and
geodesic_curvature_numeric must give the bits of the chain rule written
out on eval_jet, or raise its exception with its message, in both jet
modes and both directions: also next to the sphere loxodrome's pole, the
tractroid's floor, and where exp nearly overflows in the trace, and at
one input per raise of the kernel.  The route written out wraps the jet's
float triples in Vec3 and uses Vec3's operators only: its normal, first
form and angle do not call the package's float kernels.  liouville_breakdown's k1, k2 and theta are
pinned against it too.  On every built-in surface of revolution, sample,
speed, angle_to_parallel and geodesic_curvature_numeric give the outcomes
of that route with every way to a 2-jet raising.
"""

import dataclasses
import math

import pytest

from spiralcurv import curves as cv
from spiralcurv import surfaces
from spiralcurv.errors import DegenerateJet, GeometryError, NumericalBreakdown, OutOfDomain
from spiralcurv.liouville import liouville_breakdown
from spiralcurv.numdiff import STEP_SECOND_FINE, fit_steps, richardson_first, richardson_second
from spiralcurv.polar import _embedded_spiral
from spiralcurv.surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    eval_jet,
    pseudosphere_patch,
    sphere_patch,
    surface_of_revolution,
)

from test_form_kernel import reference_first_form, reference_normal, vec3_jet

MODES = (JET_MODE_ANALYTIC, JET_MODE_FD)
PI = math.pi


# ---------------------------------------------------------------------------
# the generic route


def reference_derivatives(curve, t):
    """(u', v', u'', v'') by richardson_first and richardson_second."""
    (h,) = fit_steps(t, curve.t_domain.lo, curve.t_domain.hi, STEP_SECOND_FINE)
    first = [richardson_first(lambda s, i=i: curve.trace(s)[i], t, h)[0] for i in (0, 1)]
    second = [richardson_second(lambda s, i=i: curve.trace(s)[i], t, h)[0] for i in (0, 1)]
    return (*first, *second)


def stencil_curve(curve):
    """curve with the generic route on its trace as its trace_derivatives,
    the way a hand-built curve without closed forms can supply them."""
    return dataclasses.replace(curve, trace_derivatives=lambda t: reference_derivatives(curve, t))


def chain_rule_derivatives(curve, t):
    """The closed forms, their faults mapped as curves maps them."""
    try:
        return curve.trace_derivatives(t)
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
    du, dv, ddu, ddv = chain_rule_derivatives(curve, t)
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


# the constructors' curves, also where a difference stencil on the trace
# could not measure: next to the sphere loxodrome's pole, where exp(-t)
# comes within 1% of overflowing, and next to the tractroid's floor
_NEAR_POLE = tuple((PI - r) / 2.0 for r in (0.2, 0.15, 0.05, 0.03, 0.02))
KERNEL_CURVES = CURVES + [
    (cv.plane_log_spiral(1.0), (-5.0, -709.7)),
    (CURVES[2][0], _POLE + _NEAR_POLE),
    (CURVES[3][0], _POLE),
    (CURVES[4][0], (0.0012,)),
    (CURVES[8][0], (0.01,)),
]


def _undefined_velocity(t):
    """Trace derivatives that fault (ValueError) at every t > 0."""
    return 1.0, math.log(-t), 0.0, 0.0


def _tabulated(v):
    """A profile x that refuses v past 1, as one read off a table would."""
    if v > 1.0:
        raise OutOfDomain("the profile is tabulated up to v=1")
    return 2.0 + math.cos(v)


# a torus-like patch whose profile faults past v = 1, at every abscissa of
# the FD stencil there too
TABULATED = surface_of_revolution(
    _tabulated, math.sin,
    derivatives=lambda v: (-math.sin(v), math.cos(v), -math.cos(v), -math.sin(v)),
    v_domain=(0.0, 3.0), name="tabulated",
)

# and each raise of the kernel: the tractroid's rim, where the normal
# degenerates (FD: the stencil does not fit), a trace standing still, and
# a loxodrome so steep that k overflows in both modes; trace derivatives
# that fault, before k, and a profile that faults at the point, before
# the trace derivatives, which fault there too
RAISES = [
    (cv.pseudosphere_loxodrome(1.0, 1.0), PI / 2.0,
     ("DegenerateJet: |p_u x p_v| = 6.123e-17 below degeneracy threshold", "OutOfDomain: ")),
    (dataclasses.replace(cv.plane_log_spiral(0.5), trace_derivatives=lambda t: (0.0,) * 4,
                         label="standing trace"), 0.2,
     ("DegenerateJet: the curve is not regular: gamma' vanishes",) * 2),
    (cv.sphere_loxodrome(1.0, 1e130), 0.7,
     ("NumericalBreakdown: the curvature -inf at speed 2e+130 is not finite",) * 2),
    (dataclasses.replace(cv.plane_log_spiral(0.5), trace_derivatives=_undefined_velocity,
                         label="undefined velocity"), 0.2,
     ("OutOfDomain: the chart velocity is undefined at t=0.2",) * 2),
    (dataclasses.replace(cv.coordinate_curve(TABULATED, cv.PARALLEL, 1.2),
                         trace_derivatives=_undefined_velocity, label="profile faults at v"), 0.2,
     ("OutOfDomain: the profile is tabulated up to v=1",) * 2),
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


def reference_theta(curve, t, mode):
    """angle_to_parallel's value: the reference angle at the chart velocity."""
    jet = vec3_jet(eval_jet(curve.patch, *cv._chart_point(curve, t), mode))
    return reference_angle(curve, jet, *curve.velocity(t), t)


def reference_speed(curve, t, mode):
    """sqrt(E du^2 + 2F du dv + G dv^2) from the reference first form."""
    E, F, G = reference_first_form(eval_jet(curve.patch, *cv._chart_point(curve, t), mode))
    du, dv = chain_rule_derivatives(curve, t)[:2]
    value = math.sqrt(E * du * du + 2.0 * F * du * dv + G * dv * dv)
    if not math.isfinite(value):
        raise NumericalBreakdown(f"the speed overflows at t={t}")
    return value


MEASURES = {cv.sample: reference_sample, cv.geodesic_curvature_numeric: reference_k,
            cv.angle_to_parallel: reference_theta, cv.speed: reference_speed}

# a curve on each built-in surface of revolution, built where the test
# runs: a patch binds the _revolution_jet it finds when it is built
ROUTE_CURVES = {
    "plane": (lambda: cv.plane_log_spiral(0.5), (-1.0, 1.7)),
    "sphere": (lambda: cv.sphere_loxodrome(1.0, math.cos(0.6) / math.sin(0.6)), (0.3, 1.2)),
    "tractroid": (lambda: cv.pseudosphere_loxodrome(1.0, PI / 3.0), (0.3, 1.4)),
    "polar-sphere": (lambda: _polar(1.0, 1.0), (0.4, 2.5)),
    "polar-plane": (lambda: _polar(0.0, 2.0), (0.5, 30.0)),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ROUTE_CURVES)
def test_a_surface_of_revolution_is_measured_without_a_jet(monkeypatch, name, mode):
    # every measurement reads the profile: with each route to a Jet2
    # raising, each gives the reference outcome of the jet route
    build, ts = ROUTE_CURVES[name]
    curve = build()
    want = [outcome(ref, curve, t, mode) for t in ts for ref in MEASURES.values()]

    def no_jet(*args):
        raise AssertionError("a 2-jet was taken")

    for module, attribute in ((surfaces, "eval_jet"), (cv, "eval_jet"),
                              (surfaces, "_revolution_jet"), (surfaces, "_profile_jet"),
                              (surfaces, "_fd_combine")):
        monkeypatch.setattr(module, attribute, no_jet, raising=False)
    curve = build()
    assert curve.patch.jet.func is no_jet
    assert [outcome(measure, curve, t, mode) for t in ts for measure in MEASURES] == want


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


# the same curves with the generic route as their derivatives, also next
# to the sphere loxodrome's pole, where its step is coarse for the trace:
# the kernel takes whatever trace_derivatives gives, through no gate
STENCIL = [(stencil_curve(c), ts) for c, ts in CURVES] + [(stencil_curve(CURVES[2][0]), _POLE)]
STENCIL_CASES = [(c, t) for c, ts in STENCIL for t in ts]
# ("bare": without the closed forms its constructor gave)
STENCIL_IDS = [f"bare {c.label}-t={t}" for c, t in STENCIL_CASES]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("curve,t", STENCIL_CASES, ids=STENCIL_IDS)
def test_trace_stencil_gives_the_bits_of_the_generic_route(curve, t, mode):
    assert outcome(cv.sample, curve, t, mode) == outcome(reference_sample, curve, t, mode)
    assert outcome(cv.geodesic_curvature_numeric, curve, t, mode) == outcome(
        reference_k, curve, t, mode
    )


def test_a_stencil_measures_the_pole_cases_near_the_closed_forms():
    # k from the stencil's derivatives is within 1e-3 of k from the closed
    # forms at every distance r from the pole, down to r = 0.001 (about
    # 2.5e-4 there), in both jet modes
    lox = CURVES[2][0]
    stencil = stencil_curve(lox)
    for t in _POLE:
        for mode in MODES:
            want = cv.geodesic_curvature_numeric(lox, t, mode)
            got = cv.geodesic_curvature_numeric(stencil, t, mode)
            assert abs(got - want) <= 1e-3 * abs(want), (t, mode, got, want)


@pytest.mark.parametrize("t", (-1.0, 0.6, 3.0))
def test_velocity_takes_the_derivatives_once_and_the_trace_never(t):
    spiral = CURVES[0][0]
    traced, derived = [], []

    def trace(s):
        traced.append(s)
        return spiral.trace(s)

    def derivatives(s):
        derived.append(s)
        return spiral.trace_derivatives(s)

    curve = dataclasses.replace(spiral, trace=trace, trace_derivatives=derivatives)
    assert repr(curve.velocity(t)) == repr(spiral.trace_derivatives(t)[:2])
    assert traced == [] and derived == [t]


def test_fd_velocity_maps_trace_faults():
    curve = dataclasses.replace(
        CURVES[0][0], trace_derivatives=lambda t: (1.0, math.exp(-800.0 * t), 0.0, 0.0)
    )
    with pytest.raises(NumericalBreakdown, match="the chart velocity overflows at t=-1.0"):
        curve.velocity(-1.0)
