"""The straight-line curve stencil against the generic numdiff route.

curves takes the position once at each of its stencil points and
differences the positions per component.  The reference here is the route
it replaces: richardson_first on ChartCurve.point for gamma', and the
halving sequence of central_second for gamma'', each halving reusing the
previous half-step difference, with the Richardson error |best - d_half|
deciding the halvings.  sample and geodesic_curvature_numeric must give its
bits, or raise its exception with its message, on every constructor family
in both jet modes: next to the sphere loxodrome's pole, where the halvings
fire, with no halvings at all, and where the trace overflows in the
stencil.
"""

import dataclasses
import math

import pytest

from spiralcurv import curves as cv
from spiralcurv.cli import main
from spiralcurv.errors import DegenerateJet, GeometryError, NumericalBreakdown
from spiralcurv.numdiff import (
    STEP_FIRST_FINE,
    STEP_SECOND_FINE,
    central_second,
    extrapolate,
    fit_steps,
    richardson_first,
)
from spiralcurv.polar import embed_polar_trace, spiral_chart_trace
from spiralcurv.surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    eval_frame,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
)

MODES = (JET_MODE_ANALYTIC, JET_MODE_FD)
PI = math.pi


# ---------------------------------------------------------------------------
# the generic route


def halving_sequence(f, x, h):
    """richardson_second at h, h/2, h/4, ...: (estimate, error) pairs, each
    reusing the previous half-step central difference."""
    d_h = central_second(f, x, h)
    while True:
        h /= 2.0
        d_half = central_second(f, x, h)
        best = extrapolate(d_h, d_half)
        yield best, (best - d_half).norm()
        d_h = d_half


def reference_derivatives(curve, t):
    h1, h2 = fit_steps(t, *curve.t_domain, STEP_FIRST_FINE, STEP_SECOND_FINE)
    d1, _ = richardson_first(curve.point, t, h1)
    halving = halving_sequence(curve.point, t, h2)
    d2, err = next(halving)
    sp = d1.norm()
    if sp == 0.0:
        raise DegenerateJet(f"curve is not regular at t={t}")
    for _ in range(cv.STEP_HALVINGS):
        if err / max(d2.norm(), sp * sp) <= cv.BREAKDOWN_TOL:
            break
        d2, err = next(halving)
    scale = max(d2.norm(), sp * sp)
    if err / scale > cv.BREAKDOWN_TOL:
        raise NumericalBreakdown(
            f"second-derivative estimate unreliable at t={t} "
            f"(relative error ~{err / scale:.2e})"
        )
    return d1, d2, sp


def reference_velocity(curve, t):
    """richardson_first once per chart component."""
    (h,) = fit_steps(t, *curve.t_domain, STEP_FIRST_FINE)
    du, _ = richardson_first(lambda s: curve.trace(s)[0], t, h)
    dv, _ = richardson_first(lambda s: curve.trace(s)[1], t, h)
    return du, dv


def reference_k(curve, t, mode):
    u, v = cv._chart_point(curve, t)
    d1, d2, sp = reference_derivatives(curve, t)
    return cv._curvature(curve, d1, d2, sp, eval_frame(curve.patch, u, v, mode))


def reference_sample(curve, t, mode):
    u, v = cv._chart_point(curve, t)
    position = curve.point(t)
    d1, d2, sp = reference_derivatives(curve, t)
    frame = eval_frame(curve.patch, u, v, mode)
    if curve.trace_velocity is None:
        curve = dataclasses.replace(curve, trace_velocity=lambda s: reference_velocity(curve, s))
    return cv.CurveSample(
        t=t,
        position=position,
        k=cv._curvature(curve, d1, d2, sp, frame),
        theta=cv._angle(curve, t, frame),
        r=curve.center_distance(t) if curve.center_distance is not None else None,
    )


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
    pts = [spiral_chart_trace(K, theta, 0.3, 0.0, r) for r in (0.3, 0.6, 0.9, 1.2)]
    patch = plane_patch() if K == 0.0 else sphere_patch(1.0 / math.sqrt(K))
    return embed_polar_trace(patch, pts)


# a plane log spiral with no closed-form velocity: its angle takes the FD one
_BARE = cv.ChartCurve(
    patch=plane_patch(), trace=lambda t: (t, math.exp(-0.5 * t)), t_domain=(-math.inf, math.inf)
)
# t = (pi - r) / 2 on the sphere loxodrome lies at distance r from the pole
_POLE = tuple((PI - r) / 2.0 for r in (0.3, 0.2, 0.15, 0.1, 0.05, 0.03, 0.02, 0.001))

CURVES = [
    (cv.plane_log_spiral(0.5), (-1.0, 0.2, 1.7)),
    # t - h1 = -710.2 overflows exp in the stencil
    (cv.plane_log_spiral(1.0), (-5.0, -709.7)),
    (cv.sphere_loxodrome(1.0, math.cos(0.6) / math.sin(0.6)), (0.3, 0.7) + _POLE),
    (cv.sphere_loxodrome(2.0, -0.5), (0.6, 1.1) + _POLE[:5]),
    (cv.pseudosphere_loxodrome(1.0, PI / 3.0), (0.0012, 0.3, 0.8, 1.4)),
    (cv.pseudosphere_loxodrome(0.5, 2.0 * PI / 3.0), (0.5, 1.2)),
    (cv.coordinate_curve(sphere_patch(1.5), cv.PARALLEL, 0.4), (-2.0, 0.5)),
    (cv.coordinate_curve(sphere_patch(1.5), cv.MERIDIAN, 0.4), (0.01, 1.0, 3.0)),
    (cv.coordinate_curve(pseudosphere_patch(1.0), cv.MERIDIAN, 0.2), (0.01, 0.7, 1.5)),
    (_polar(1.0, 1.0), (0.4, 1.0)),
    (_polar(0.0, 2.0), (0.5, 1.1)),
    (_BARE, (-1.0, 0.6)),
]
CASES = [(c, t) for c, ts in CURVES for t in ts]
IDS = [f"{c.label or 'bare plane spiral'}-t={t}" for c, t in CASES]


@pytest.mark.parametrize("halvings", [cv.STEP_HALVINGS, 0])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("curve,t", CASES, ids=IDS)
def test_kernel_gives_the_bits_of_the_generic_route(curve, t, mode, halvings, monkeypatch):
    monkeypatch.setattr(cv, "STEP_HALVINGS", halvings)
    assert outcome(cv.sample, curve, t, mode) == outcome(reference_sample, curve, t, mode)
    assert outcome(cv.geodesic_curvature_numeric, curve, t, mode) == outcome(
        reference_k, curve, t, mode
    )


def test_the_pole_cases_reach_every_branch_of_the_halvings():
    # 9 positions and 2 per halving: the sphere loxodrome's pole cases
    # pass with no halving and after each number of them, or are rejected
    calls = []
    lox = CURVES[2][0]

    def position(u, v):
        calls.append((u, v))
        return lox.patch.eval(u, v)

    counted = dataclasses.replace(lox, patch=dataclasses.replace(lox.patch, eval=position))
    seen = []
    for t in _POLE:
        calls.clear()
        try:
            cv.geodesic_curvature_numeric(counted, t, JET_MODE_ANALYTIC)
            seen.append((len(calls) - 9) // 2)
        except NumericalBreakdown:
            seen.append("rejected")
    assert seen == [0, 1, 1, 2, 3, 3, "rejected", "rejected"]


@pytest.mark.parametrize("t", (-1.0, 0.6, 3.0))
def test_fd_velocity_takes_the_trace_four_times(t):
    calls = []

    def trace(s):
        calls.append(s)
        return _BARE.trace(s)

    curve = dataclasses.replace(_BARE, trace=trace)
    du, dv = curve.velocity(t)
    assert len(calls) == 4 and len(set(calls)) == 4
    assert repr((du, dv)) == repr(reference_velocity(_BARE, t))


def test_fd_velocity_maps_trace_faults():
    curve = dataclasses.replace(_BARE, trace=lambda t: (t, math.exp(-800.0 * t)))
    with pytest.raises(NumericalBreakdown, match="the chart velocity overflows at t=-1.0"):
        curve.velocity(-1.0)


def test_trace_overflow_message_names_the_first_stencil_point(capsys):
    # the first stencil position that overflows is t - h1 of the first
    # sample: the positions are taken in the order of the generic route
    argv = ["trace", "--surface", "plane", "--theta-deg", "90", "--r0", "0.5", "--r1", "2"]
    code = main(argv + ["--samples", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "the chart trace overflows at t=-0.0007400959797413627" in err
