"""Curves on surface patches: constructors, lengths, angles, curvature.

A ChartCurve is a parametrized trace t -> (u, v) drawn on a SurfacePatch.
The geodesic curvature is measured numerically from the embedded curve
(central differences of the position with Richardson extrapolation), so it
serves as an independent cross-check of the closed-form predictions.  A
straight-line kernel takes the position once at t and at t +- h1, t +- h1/2
(for gamma'), t +- h2, t +- h2/2 (gamma'') and 2 more per halving of h2,
in that order, and differences it per component with numdiff's kernels:
the bits of richardson_first and richardson_second, whose error estimate
|best - d_half| decides the halvings.
Every measurement here reads the patch through its first-order frame
(surfaces.eval_frame): the normal for the curvature, the first form for
the speed and the angle.  None builds a 2-jet.  Each passes its jet mode
to eval_frame unchanged, so mode=None picks analytic exactly when the
patch carries a jet, and takes its difference steps in t from
numdiff.fit_steps, which raises OutOfDomain where the stencil has no room.

ChartCurve.point (so each stencil position), the stencil's centre,
ChartCurve.velocity and _chart_point map trace faults in one place,
_trace_fault: OverflowError to NumericalBreakdown, ValueError and
ZeroDivisionError to OutOfDomain.

Sign conventions: curvature and angles are measured against the patch's
oriented normal; direction_sign = -1 traverses the same point set backwards
and negates both the measured angle's sine and the curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .closed_form import _require_angle
from .errors import (
    BadParameter,
    DegenerateJet,
    DomainError,
    NumericalBreakdown,
    OutOfDomain,
)
from .numdiff import (
    STEP_FIRST_FINE,
    STEP_SECOND_FINE,
    extrapolate,
    extrapolated_first,
    extrapolated_second,
    fit_steps,
    gauss_kronrod,
)
from .surfaces import (
    SurfacePatch,
    eval_frame,
    first_form,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
    unit_normal,
)
from .vec import Vec3

BREAKDOWN_TOL = 1e-4
STEP_HALVINGS = 3  # retries of a second difference that fails BREAKDOWN_TOL
_TRACE_FAULTS = (OverflowError, ValueError, ZeroDivisionError)  # see _trace_fault

PARALLEL = "parallel"
MERIDIAN = "meridian"


@dataclass(frozen=True)
class ChartCurve:
    """A curve given by its chart trace on a patch.

    trace maps the parameter t to chart coordinates (u, v).  When the
    velocity of the trace is known in closed form it should be supplied
    as trace_velocity; otherwise it is recovered by finite differences.
    center_distance, when present, gives the geodesic distance to the
    spiral's pole as a function of t.
    """

    patch: SurfacePatch
    trace: Callable[[float], Tuple[float, float]]
    t_domain: Tuple[float, float]
    direction_sign: int = 1
    trace_velocity: Optional[Callable[[float], Tuple[float, float]]] = None
    center_distance: Optional[Callable[[float], float]] = None
    label: str = ""

    def contains(self, t: float) -> bool:
        """Whether t lies in t_domain; an infinite end is open."""
        return self.t_domain[0] <= t <= self.t_domain[1] and math.isfinite(t)

    def point(self, t: float) -> Vec3:
        """The curve's position in R^3 (unchecked: the curve stencil calls it)."""
        try:
            return self.patch.eval(*self.trace(t))
        except _TRACE_FAULTS as exc:
            raise _trace_fault(exc, "trace", t) from None

    def velocity(self, t: float) -> Tuple[float, float]:
        """Chart velocity (du/dt, dv/dt), before any direction flip."""
        try:
            if self.trace_velocity is not None:
                return self.trace_velocity(t)
            (h,) = fit_steps(t, *self.t_domain, STEP_FIRST_FINE)
            h2 = h / 2.0
            a, b, a2, b2 = map(self.trace, (t + h, t - h, t + h2, t - h2))
            # numdiff.extrapolated_first on the two chart components
            s, s2 = 2.0 * h, 2.0 * h2
            du = extrapolate((a[0] - b[0]) / s, (a2[0] - b2[0]) / s2)
            return du, extrapolate((a[1] - b[1]) / s, (a2[1] - b2[1]) / s2)
        except _TRACE_FAULTS as exc:
            raise _trace_fault(exc, "velocity", t) from None


def _trace_fault(exc: Exception, what: str, t: float) -> NumericalBreakdown | OutOfDomain:
    """The error for a fault exc of the chart {what} ("trace" or "velocity") at t."""
    if isinstance(exc, OverflowError):
        return NumericalBreakdown(f"the chart {what} overflows at t={t}")
    return OutOfDomain(f"the chart {what} is undefined at t={t}")


@dataclass(frozen=True)
class CurveSample:
    """One measured point of a curve."""

    t: float
    position: Vec3
    k: float
    theta: float
    r: Optional[float] = None


def _chart_point(curve: ChartCurve, t: float) -> Tuple[float, float]:
    """The chart point (u, v) at t, after the domain check."""
    if not curve.contains(t):
        raise OutOfDomain(f"t={t} outside parameter domain {curve.t_domain}")
    try:
        return curve.trace(t)
    except _TRACE_FAULTS as exc:
        raise _trace_fault(exc, "trace", t) from None


# ---------------------------------------------------------------------------
# constructors


def plane_log_spiral(a: float) -> ChartCurve:
    """Logarithmic spiral in the plane, chart trace (t, exp(-a t)).

    For a > 0 the curve winds counterclockwise into the origin; its
    constant angle to the circles about the origin is arctan(a).  a = 0
    would be a circle, not a spiral, and is rejected, as is a non-finite a.
    """
    if a == 0.0 or not math.isfinite(a):
        raise BadParameter(f"a={a} must be finite and nonzero (a = 0 gives a circle)")
    return ChartCurve(
        patch=plane_patch(),
        trace=lambda t: (t, math.exp(-a * t)),
        t_domain=(-math.inf, math.inf),
        trace_velocity=lambda t: (1.0, -a * math.exp(-a * t)),
        center_distance=lambda t: math.exp(-a * t),
        label=f"plane_log_spiral(a={a:g})",
    )


def sphere_loxodrome(R: float, a: float) -> ChartCurve:
    """Loxodrome on the sphere of radius R, constant angle arccot(a) to
    the parallels.

    Chart trace (a*ln tan t, pi - 2t) for t in (0, pi/2): the curve
    crosses the equator at t = pi/4 and spirals into the north pole as
    t -> pi/2, at constant speed 2R*sqrt(1+a^2).
    """
    patch = sphere_patch(R)
    if not math.isfinite(a):
        raise BadParameter(f"a={a} must be finite")
    return ChartCurve(
        patch=patch,
        trace=lambda t: (a * math.log(math.tan(t)), math.pi - 2.0 * t),
        t_domain=(0.0, math.pi / 2.0),
        trace_velocity=lambda t: (2.0 * a / math.sin(2.0 * t), -2.0),
        center_distance=lambda t: R * (math.pi - 2.0 * t),
        label=f"sphere_loxodrome(R={R:g}, a={a:g})",
    )


def pseudosphere_loxodrome(
    R: float, theta: float, u0: float = 0.0, v_floor: float = 1e-3
) -> ChartCurve:
    """Loxodrome on the tractroid, constant angle theta to the parallels.

    The constant-angle condition du/dv = cot(theta) * sqrt(G/E) =
    cot(theta) * cos(v)/sin(v)^2 integrates in closed form to the chart
    trace u(v) = u0 + cot(theta) * (1 - csc v), which passes through u0 at
    the rim v = pi/2; the curve is parametrized by t = v in [v_floor, pi/2].
    """
    patch = pseudosphere_patch(R, v_floor)
    try:
        _require_angle(theta)
    except DomainError as exc:
        raise BadParameter(str(exc)) from None
    if not math.isfinite(u0):
        raise BadParameter(f"u0={u0} must be finite")
    cot = math.cos(theta) / math.sin(theta)

    def rate(v: float) -> float:
        s = math.sin(v)
        return cot * math.cos(v) / (s * s)

    top = math.pi / 2.0

    def chart_u(v: float) -> float:
        if not v_floor <= v <= top:
            raise OutOfDomain(f"v={v} outside [{v_floor}, {top}]")
        return u0 + cot * (1.0 - 1.0 / math.sin(v))

    return ChartCurve(
        patch=patch,
        trace=lambda t: (chart_u(t), t),
        t_domain=(v_floor, top),
        trace_velocity=lambda t: (rate(t), 1.0),
        label=f"pseudosphere_loxodrome(R={R:g}, theta={theta:g})",
    )


def coordinate_curve(patch: SurfacePatch, kind: str, fixed: float) -> ChartCurve:
    """Coordinate curve of a patch: a parallel (v = fixed, parametrized by
    u) or a meridian (u = fixed, parametrized by v)."""
    if kind == PARALLEL:
        if not patch.domain.v.contains(fixed):
            raise OutOfDomain(f"v={fixed} outside domain of {patch.name}")
        lo, hi = patch.domain.u.lo, patch.domain.u.hi
        return ChartCurve(
            patch=patch,
            trace=lambda t: (t, fixed),
            t_domain=(lo, hi),
            trace_velocity=lambda t: (1.0, 0.0),
            label=f"{patch.name} parallel v={fixed:g}",
        )
    if kind == MERIDIAN:
        if not patch.domain.u.contains(fixed):
            raise OutOfDomain(f"u={fixed} outside domain of {patch.name}")
        lo, hi = patch.domain.v.lo, patch.domain.v.hi
        return ChartCurve(
            patch=patch,
            trace=lambda t: (fixed, t),
            t_domain=(lo, hi),
            trace_velocity=lambda t: (0.0, 1.0),
            label=f"{patch.name} meridian u={fixed:g}",
        )
    raise BadParameter(f"kind must be {PARALLEL!r} or {MERIDIAN!r}, got {kind!r}")


# ---------------------------------------------------------------------------
# measurements


def speed(curve: ChartCurve, t: float, mode: Optional[str] = None) -> float:
    """|d gamma/dt| through the first fundamental form; NumericalBreakdown
    where it overflows."""
    E, F, G = first_form(eval_frame(curve.patch, *_chart_point(curve, t), mode))
    du, dv = curve.velocity(t)
    value = math.sqrt(E * du * du + 2.0 * F * du * dv + G * dv * dv)
    if not math.isfinite(value):
        raise NumericalBreakdown(f"the speed overflows at t={t}")
    return value


def arc_length(curve: ChartCurve, t0: float, t1: float, mode: Optional[str] = None) -> float:
    """Arc length: the speed integrated by numdiff.gauss_kronrod, the
    adaptive G7/K15 rule, to max(1e-12, 1e-10 * |L|) in at most 200 panels.

    Exactly antisymmetric under swapping the endpoints; additive over
    adjacent intervals to the quadrature tolerance.  A sum that does not
    converge raises NumericalBreakdown.
    """
    _chart_point(curve, t0)
    _chart_point(curve, t1)
    value, _ = gauss_kronrod(lambda t: speed(curve, t, mode), t0, t1, epsabs=1e-12, epsrel=1e-10)
    return value


def geodesic_curvature_numeric(
    curve: ChartCurve, t: float, mode: Optional[str] = None
) -> float:
    """Geodesic curvature measured from the embedded curve.

    The position, taken at 9 points (see the module docstring), is
    differenced centrally (with one Richardson level) to get gamma' and
    gamma''; the unit-speed chain rule reduces the signed normal-frame
    curvature to <gamma'', N x gamma'>/|gamma'|^3.  The Richardson
    correction of the second derivative serves as an error estimate: while
    it exceeds 1e-4 relative to the curvature scale, the second-difference
    step is halved, up to three times, 2 more positions each; if it still
    does, or the trace overflows inside the stencil, the measurement
    is rejected with NumericalBreakdown.  The normal N comes from the patch's
    first-order frame (eval_frame), after the stencil is checked.
    """
    u, v = _chart_point(curve, t)
    _, d1, d2, sp = _embedded_derivatives(curve, t, u, v)
    frame = eval_frame(curve.patch, u, v, mode)
    return _curvature(curve, d1, d2, sp, frame)


def angle_to_parallel(curve: ChartCurve, t: float, mode: Optional[str] = None) -> float:
    """Signed angle in (-pi, pi] from the parallel direction to the curve.

    Measured in-chart through the first fundamental form: the cosine
    leg is <gamma', p_u> and the sine leg is the signed area
    orientation_sign * dv * sqrt(EG - F^2), which matches the ambient
    triple product <N, p_u x gamma'>.  E, F, G come from the patch's
    first-order frame (eval_frame).
    """
    frame = eval_frame(curve.patch, *_chart_point(curve, t), mode)
    return _angle(curve, t, frame)


def sample(curve: ChartCurve, t: float, mode: Optional[str] = None) -> CurveSample:
    """Measure position, curvature and angle at one parameter value.

    Gives the values of geodesic_curvature_numeric and angle_to_parallel,
    with one first-order frame of the patch serving both.
    """
    u, v = _chart_point(curve, t)
    position, d1, d2, sp = _embedded_derivatives(curve, t, u, v)
    frame = eval_frame(curve.patch, u, v, mode)
    return CurveSample(
        t=t,
        position=position,
        k=_curvature(curve, d1, d2, sp, frame),
        theta=_angle(curve, t, frame),
        r=curve.center_distance(t) if curve.center_distance is not None else None,
    )


def _embedded_derivatives(curve: ChartCurve, t: float, u: float, v: float):
    """The position gamma(t) at (u, v) = trace(t), gamma'(t), gamma''(t)
    and the speed |gamma'(t)|, or the exception that rejects the stencil
    at t.  The straight-line kernel of the module docstring."""
    try:
        p = curve.patch.eval(u, v)
    except _TRACE_FAULTS as exc:
        raise _trace_fault(exc, "trace", t) from None
    point = curve.point
    h1, h = fit_steps(t, *curve.t_domain, STEP_FIRST_FINE, STEP_SECOND_FINE)
    half = h1 / 2.0
    d1 = extrapolated_first(*map(point, (t + h1, t - h1, t + half, t - half)), h1, half)
    sp = d1.norm()
    a, b = point(t + h), point(t - h)
    # near a point where the trace stops being smooth (the sphere
    # loxodrome's pole) the step sized from |t| is too coarse: halve it,
    # the half-step positions serving as the next full-step ones
    for _ in range(STEP_HALVINGS + 1):
        half = h / 2.0
        a2, b2 = point(t + half), point(t - half)
        d2, d_half = extrapolated_second(p, a, b, a2, b2, h, half)
        err = (d2 - d_half).norm()
        if sp == 0.0:  # once the first h2 positions are in: their faults come first
            raise DegenerateJet(f"curve is not regular at t={t}")
        scale = max(d2.norm(), sp * sp)
        if err / scale <= BREAKDOWN_TOL:
            break
        a, b, h = a2, b2, half
    if err / scale > BREAKDOWN_TOL:
        raise NumericalBreakdown(
            f"second-derivative estimate unreliable at t={t} "
            f"(relative error ~{err / scale:.2e})"
        )
    return p, d1, d2, sp


def _curvature(curve: ChartCurve, d1: Vec3, d2: Vec3, sp: float, frame) -> float:
    n = unit_normal(frame, curve.patch.orientation_sign, curve.patch.degeneracy_bound)
    try:
        cube = sp**3
    except OverflowError:
        cube = math.inf
    if cube == math.inf:
        raise NumericalBreakdown("the cube of the curve's speed overflows")
    k = d2.dot(n.cross(d1)) / cube
    return curve.direction_sign * k


def _angle(curve: ChartCurve, t: float, frame) -> float:
    E, F, G = first_form(frame)
    area2 = E * G - F * F
    if area2 <= 0.0 or E <= 0.0:
        raise DegenerateJet("first form is not positive definite")
    if not math.isfinite(area2):
        raise NumericalBreakdown("E*G - F^2 overflows")
    du, dv = curve.velocity(t)
    du *= curve.direction_sign
    dv *= curve.direction_sign
    if E * du * du + 2.0 * F * du * dv + G * dv * dv <= 0.0:
        raise DegenerateJet(f"curve velocity vanishes at t={t}")
    sin_leg = curve.patch.orientation_sign * dv * math.sqrt(area2)
    cos_leg = E * du + F * dv
    theta = math.atan2(sin_leg, cos_leg)
    if theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta
