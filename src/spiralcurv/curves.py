"""Curves on surface patches: constructors, lengths, angles, curvature.

A ChartCurve is a parametrized trace t -> (u, v) drawn on a SurfacePatch.
Its geodesic curvature comes from one 2-jet of the patch (eval_jet, in
the curve's jet mode) and the trace's derivatives, by the chain rule (do
Carmo, Differential Geometry of Curves and Surfaces, 4-4):

    gamma'  = p_u u' + p_v v'
    gamma'' = p_uu u'^2 + 2 p_uv u'v' + p_vv v'^2 + p_u u'' + p_v v''
    k       = <gamma'', N x gamma'> / |gamma'|^3

It reads only the embedding and the trace, never the closed form c(K, r),
so it cross-checks the closed-form predictions.  Every curve carries the
trace's (u', v', u'', v'') in closed form, its required field
trace_derivatives; its curvature raises NumericalBreakdown where k is
not finite.

The chain rule, _curvature, is a straight-line float kernel: it unpacks
the jet once and forms gamma', gamma'', |gamma'|, N x gamma' and the
quotient in the float operations and order of Vec3's *, +, norm, cross
and dot, so it has their bits.

Every measurement reads one 2-jet of the patch (eval_jet) at the curve's
point: the speed and the angle its p_u and p_v, sample the position, k
and the angle off the same jet.  Each passes its jet mode on unchanged:
mode=None picks analytic exactly when the patch carries a jet.
A curve's t_domain is a surfaces.Interval, its ends open or closed as
declared; every reader, point and velocity too, refuses a t outside it
(OutOfDomain) before the trace is evaluated.  Inside it _trace_fault
maps every fault of the trace and its derivatives: OverflowError to
NumericalBreakdown, ValueError and ZeroDivisionError to OutOfDomain.

Sign conventions: curvature and angles are measured against the patch's
oriented normal; direction_sign = -1 traverses the same point set backwards
and negates both the measured angle's sine and the curvature.  A curve
checks that its direction sign is +1 or -1 and that its trace_derivatives
is callable when it is built, as its patch does for its orientation sign.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, replace

from .closed_form import _require_admissible, _require_angle
from .errors import (
    BadParameter,
    DegenerateJet,
    DomainError,
    NumericalBreakdown,
    OutOfDomain,
)
from .numdiff import gauss_kronrod
from .surfaces import (
    Interval,
    SurfacePatch,
    eval_jet,
    first_form,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
    _first_form_det,
    _normal,
)
from .vec import Record, Vec3

_isfinite = math.isfinite
_sqrt = math.sqrt
_TRACE_FAULTS = (OverflowError, ValueError, ZeroDivisionError)  # see _trace_fault

PARALLEL = "parallel"
MERIDIAN = "meridian"


@dataclass(frozen=True)
class ChartCurve:
    """A curve given by its chart trace on a patch.

    trace maps the parameter t in t_domain, a surfaces.Interval (a plain
    (lo, hi) pair is taken as open), to chart coordinates (u, v), and
    trace_derivatives maps t to the trace's derivatives (u', v', u'', v'')
    in closed form.  center_distance, when present, gives the geodesic
    distance to the spiral's pole as a function of t.
    """

    patch: SurfacePatch
    trace: Callable[[float], tuple[float, float]]
    t_domain: Interval
    trace_derivatives: Callable[[float], tuple[float, float, float, float]]
    direction_sign: int = 1
    center_distance: Callable[[float], float] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        # dataclasses.replace runs these checks too, and keeps an Interval
        object.__setattr__(self, "t_domain", Interval(*self.t_domain))
        if self.direction_sign not in (1, -1):
            raise BadParameter(f"direction sign must be +1 or -1, got {self.direction_sign!r}")
        if not callable(self.trace_derivatives):
            raise BadParameter(f"trace_derivatives must be callable, got {self.trace_derivatives!r}")

    def contains(self, t: float) -> bool:
        """Whether t lies in t_domain (Interval.contains)."""
        return self.t_domain.contains(t)

    def point(self, t: float) -> Vec3:
        """The curve's position in R^3, past the gates of every
        measurement: t in t_domain and (u, v) in the patch's domain."""
        u, v = _chart_point(self, t)
        if not self.patch.domain.contains(u, v):
            raise OutOfDomain(f"({u}, {v}) outside domain of {self.patch.name}")
        try:
            return self.patch.eval(u, v)
        except _TRACE_FAULTS as exc:
            raise _trace_fault(exc, "trace", t) from None

    def velocity(self, t: float) -> tuple[float, float]:
        """Chart velocity (du/dt, dv/dt), before any direction flip;
        OutOfDomain outside t_domain, NumericalBreakdown if not finite."""
        d = self.t_domain
        if not d.contains(t):
            raise OutOfDomain(f"t={t} outside parameter domain ({d.lo}, {d.hi})")
        return _chart_velocity(self, t)


def _trace_fault(exc: Exception, what: str, t: float) -> NumericalBreakdown | OutOfDomain:
    """The error for a fault exc of the chart {what} ("trace" or "velocity") at t."""
    if isinstance(exc, OverflowError):
        return NumericalBreakdown(f"the chart {what} overflows at t={t}")
    return OutOfDomain(f"the chart {what} is undefined at t={t}")


def _trace_jet(curve: ChartCurve, t: float) -> tuple[float, float, float, float]:
    """(u', v', u'', v'') of the trace at t, before any direction flip:
    trace_derivatives, its faults mapped by _trace_fault."""
    try:
        return curve.trace_derivatives(t)
    except _TRACE_FAULTS as exc:
        raise _trace_fault(exc, "velocity", t) from None


def _chart_velocity(curve: ChartCurve, t: float) -> tuple[float, float]:
    """The trace's (u', v') at t; NumericalBreakdown if not finite."""
    du, dv = _trace_jet(curve, t)[:2]
    if not (_isfinite(du) and _isfinite(dv)):
        raise NumericalBreakdown(f"the chart velocity overflows at t={t}")
    return du, dv


class CurveSample(Record, namedtuple("_CurveSample", "t position k theta r", defaults=(None,))):
    """One measured point of a curve: t, its position (a Vec3), k, theta
    and r, the pole distance (None for a curve without center_distance)."""

    __slots__ = ()


def _chart_point(curve: ChartCurve, t: float) -> tuple[float, float]:
    """The chart point (u, v) at t, after the domain check."""
    d = curve.t_domain
    if not d.contains(t):
        raise OutOfDomain(f"t={t} outside parameter domain ({d.lo}, {d.hi})")
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

    def derivatives(t: float) -> tuple[float, float, float, float]:
        e = math.exp(-a * t)
        return 1.0, -a * e, 0.0, a * a * e

    return ChartCurve(
        patch=plane_patch(),
        trace=lambda t: (t, math.exp(-a * t)),
        t_domain=Interval(-math.inf, math.inf),
        trace_derivatives=derivatives,
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

    def derivatives(t: float) -> tuple[float, float, float, float]:
        s = math.sin(2.0 * t)
        return 2.0 * a / s, -2.0, -4.0 * a * math.cos(2.0 * t) / s / s, 0.0

    return ChartCurve(
        patch=patch,
        trace=lambda t: (a * math.log(math.tan(t)), math.pi - 2.0 * t),
        t_domain=Interval(0.0, math.pi / 2.0),
        trace_derivatives=derivatives,
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

    def derivatives(v: float) -> tuple[float, float, float, float]:
        s, c = math.sin(v), math.cos(v)
        return cot * c / (s * s), 1.0, -cot * (s * s + 2.0 * c * c) / (s * s * s), 0.0

    return ChartCurve(
        patch=patch,
        trace=lambda t: (u0 + cot * (1.0 - 1.0 / math.sin(t)), t),
        t_domain=patch.domain.v,
        trace_derivatives=derivatives,
        label=f"pseudosphere_loxodrome(R={R:g}, theta={theta:g})",
    )


def _spiral_on(surface: str, R: float, theta: float):
    """The spiral at angle theta in (0, pi) on the plane, the sphere or the
    pseudosphere (tractroid) of radius R, and t_at(r), its parameter at
    pole distance r (the colatitude v on the tractroid, which has no pole).
    DomainError for theta, and from t_at for an r that closed_form's gate
    refuses.  Past pi/2 the plane's spiral runs backwards, so that it
    measures theta, not arctan(tan theta) = theta - pi."""
    _require_angle(theta)
    if surface == "pseudosphere":
        return pseudosphere_loxodrome(R, theta), lambda r: r
    if surface == "plane":
        a = math.tan(theta)
        curve = plane_log_spiral(a)
        if a < 0.0:
            curve = replace(curve, direction_sign=-1)
    elif surface == "sphere":
        curve = sphere_loxodrome(R, math.cos(theta) / math.sin(theta))
    else:
        raise BadParameter(f"unknown surface {surface!r}")

    def t_at(r: float) -> float:
        _require_admissible(curve.patch.known_K, r)
        return -math.log(r) / a if surface == "plane" else (math.pi - r / R) / 2.0

    return curve, t_at


def coordinate_curve(patch: SurfacePatch, kind: str, fixed: float) -> ChartCurve:
    """Coordinate curve of a patch: a parallel (v = fixed, parametrized by
    u) or a meridian (u = fixed, parametrized by v)."""
    if kind == PARALLEL:
        along, across, name = patch.domain.u, patch.domain.v, "v"
        trace, derivatives = (lambda t: (t, fixed)), (lambda t: (1.0, 0.0, 0.0, 0.0))
    elif kind == MERIDIAN:
        along, across, name = patch.domain.v, patch.domain.u, "u"
        trace, derivatives = (lambda t: (fixed, t)), (lambda t: (0.0, 1.0, 0.0, 0.0))
    else:
        raise BadParameter(f"kind must be {PARALLEL!r} or {MERIDIAN!r}, got {kind!r}")
    if not across.contains(fixed):
        raise OutOfDomain(f"{name}={fixed} outside domain of {patch.name}")
    return ChartCurve(patch=patch, trace=trace, t_domain=along, trace_derivatives=derivatives,
                      label=f"{patch.name} {kind} {name}={fixed:g}")


# ---------------------------------------------------------------------------
# measurements


def speed(curve: ChartCurve, t: float, mode: str | None = None) -> float:
    """|d gamma/dt| through the first fundamental form; NumericalBreakdown
    where it overflows."""
    jet = eval_jet(curve.patch, *_chart_point(curve, t), mode)
    return _speed(jet, *_trace_jet(curve, t)[:2], t)


def _speed(jet, du: float, dv: float, t: float) -> float:
    E, F, G = first_form(jet)
    value = math.sqrt(E * du * du + 2.0 * F * du * dv + G * dv * dv)
    if not math.isfinite(value):
        raise NumericalBreakdown(f"the speed overflows at t={t}")
    return value


def arc_length(curve: ChartCurve, t0: float, t1: float, mode: str | None = None) -> float:
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


def geodesic_curvature_numeric(curve: ChartCurve, t: float, mode: str | None = None) -> float:
    """Geodesic curvature measured by the chain rule of the module
    docstring, from one 2-jet of the patch (eval_jet) and the trace's
    derivatives: the signed <gamma'', N x gamma'>/|gamma'|^3.

    DegenerateJet where gamma' vanishes or the chart degenerates,
    NumericalBreakdown where k is not finite.
    """
    jet = eval_jet(curve.patch, *_chart_point(curve, t), mode)
    return _trace_k(curve, t, jet)[2]


def angle_to_parallel(curve: ChartCurve, t: float, mode: str | None = None) -> float:
    """Signed angle in (-pi, pi] from the parallel direction to the curve.

    Measured in-chart through the first fundamental form: the cosine
    leg is <gamma', p_u> and the sine leg is the signed area
    orientation_sign * dv * sqrt(EG - F^2), which matches the ambient
    triple product <N, p_u x gamma'>.  E, F, G come from the patch's
    2-jet (eval_jet).  NumericalBreakdown where the chart velocity
    overflows.
    """
    jet = eval_jet(curve.patch, *_chart_point(curve, t), mode)
    return _angle(curve, jet, *_chart_velocity(curve, t), t)


def sample(curve: ChartCurve, t: float, mode: str | None = None) -> CurveSample:
    """Measure position, curvature and angle at one parameter value.

    Gives the values of geodesic_curvature_numeric and angle_to_parallel,
    with one 2-jet of the patch serving the position and both.
    """
    jet = eval_jet(curve.patch, *_chart_point(curve, t), mode)
    du, dv, k = _trace_k(curve, t, jet)
    return CurveSample(
        t, Vec3(*jet.p), k, _angle(curve, jet, du, dv, t),
        curve.center_distance(t) if curve.center_distance is not None else None,
    )


def _trace_k(curve: ChartCurve, t: float, jet) -> tuple[float, float, float]:
    """The trace's (u', v') at t and the curve's signed k there from jet."""
    du, dv, ddu, ddv = _trace_jet(curve, t)
    return du, dv, curve.direction_sign * _curvature(curve.patch, jet, du, dv, ddu, ddv)


def _curvature(patch: SurfacePatch, jet, du: float, dv: float, ddu: float, ddv: float) -> float:
    """<gamma'', N x gamma'>/|gamma'|^3 for a trace through the point of
    jet with chart derivatives (du, dv, ddu, ddv), N oriented by patch
    (surfaces._normal): the chain-rule kernel of the module docstring."""
    _, p_u, p_v, (uu0, uu1, uu2), (uv0, uv1, uv2), (vv0, vv1, vv2) = jet
    x, y, z = p_u
    a, b, c = p_v
    tx, ty, tz = x * du + a * dv, y * du + b * dv, z * du + c * dv
    sp = _sqrt(tx * tx + ty * ty + tz * tz)
    if sp == 0.0:
        raise DegenerateJet("the curve is not regular: gamma' vanishes")
    nx, ny, nz = _normal(p_u, p_v, patch)
    duu, duv, dvv = du * du, 2.0 * du * dv, dv * dv
    k = ((uu0 * duu + uv0 * duv + vv0 * dvv + x * ddu + a * ddv) * (ny * tz - nz * ty)
         + (uu1 * duu + uv1 * duv + vv1 * dvv + y * ddu + b * ddv) * (nz * tx - nx * tz)
         + (uu2 * duu + uv2 * duv + vv2 * dvv + z * ddu + c * ddv) * (nx * ty - ny * tx)
         ) / sp / sp / sp
    if not (_isfinite(k) and _isfinite(sp)):
        raise NumericalBreakdown(f"the curvature {k!r} at speed {sp!r} is not finite")
    return k


def _angle(curve: ChartCurve, jet, du: float, dv: float, t: float) -> float:
    E, F, G = first_form(jet)
    area2 = _first_form_det(E, F, G)
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
