"""Geodesic polar coordinates on constant-curvature surfaces.

The metric is dr^2 + G(r) du^2 with sqrt(G) = sin(r sqrt(K))/sqrt(K), r,
or sinh(r sqrt(-K))/sqrt(-K) according to the sign of K; near r = 0 a short
series keeps the evaluation stable.  The circle curvature computed from the
metric quotient (sqrt(G))_r / sqrt(G) gives an independent route to the
closed-form module's circle curvature.

Intrinsic constant-angle traces u(r) = u0 + cot(theta) * int dr/sqrt(G)
are produced in closed form (a logarithm, or a ln tan / ln tanh difference);
the embedding into the plane and sphere charts uses the same closed form.
The polar angular coordinate winds opposite to the revolution-chart angle
(the (r, u) system is positively oriented, the (u, v) charts are not), so
the embedding maps u_polar -> -u_chart; embedded traces are parametrized by
r and traversed toward the pole, which makes the measured angle equal
+theta.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence

from .closed_form import _require_admissible, _require_angle, _require_finite_K
from .curves import ChartCurve
from .errors import BadParameter, DomainError, OutOfDomain, Unsupported
from .surfaces import Interval, SurfacePatch, plane_patch, sphere_patch
from .vec import Record

TRACE_TOL = 1e-9
_SERIES_Q = 1e-6


class PolarMetric(Record, namedtuple("_PolarMetric", "K sqrtG sqrtG_r r_limit")):
    """Radial metric data: sqrt(G) and its r-derivative, plus the first
    conjugate radius (pi/sqrt(K) for K > 0, else +inf)."""

    __slots__ = ()


class PolarTracePoint(Record, namedtuple("_PolarTracePoint", "r u")):
    """One point of an intrinsic polar trace."""

    __slots__ = ()


def polar_metric(K: float) -> PolarMetric:
    """Geodesic polar metric for constant curvature K, DomainError if K is
    not finite.  sqrtG and sqrtG_r take the radii closed_form's gate admits,
    and raise DomainError where a value leaves the float range (r*sqrt(-K)
    above about 710)."""
    _require_finite_K(K)
    r_limit = math.pi / math.sqrt(K) if K > 0.0 else math.inf

    def hyperbolic(fn: Callable[[float], float], r: float, scale: float) -> float:
        try:
            value = fn(r * math.sqrt(-K)) / scale
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise DomainError(f"the polar metric of K={K} leaves the float range at r={r}")
        return value

    def sqrtG(r: float) -> float:
        _require_admissible(K, r)
        q = K * r * r
        if abs(q) < _SERIES_Q:
            return r * (1.0 - q / 6.0 + q * q / 120.0 - q**3 / 5040.0)
        if K > 0.0:
            s = math.sqrt(K)
            return math.sin(r * s) / s
        return hyperbolic(math.sinh, r, math.sqrt(-K))

    def sqrtG_r(r: float) -> float:
        _require_admissible(K, r)
        q = K * r * r
        if abs(q) < _SERIES_Q:
            return 1.0 - q / 2.0 + q * q / 24.0 - q**3 / 720.0
        if K > 0.0:
            return math.cos(r * math.sqrt(K))
        return hyperbolic(math.cosh, r, 1.0)

    return PolarMetric(K=K, sqrtG=sqrtG, sqrtG_r=sqrtG_r, r_limit=r_limit)


def circle_curvature(K: float, r: float) -> float:
    """Curvature of the geodesic circle of radius r, from the metric:
    G_r / (2 G sqrt(E)) = (sqrt(G))_r / sqrt(G).

    Agrees with closed_form.geodesic_circle_curvature to ~1e-13 relative
    while being computed along an independent route.
    """
    m = polar_metric(K)
    return m.sqrtG_r(r) / m.sqrtG(r)


def _advance(K: float, r0: float, r: float) -> float:
    """int_r0^r dr / sqrt(G) in closed form: ln(r/r0) for K = 0 and the
    ln tan / ln tanh differences of (r/2)*sqrt(|K|) otherwise.

    Raises DomainError when the radii are so far apart or so extreme that
    a float on the way overflows or underflows (K = 0 takes
    ln(r/r0) alone, where 0 * r^2 would be nan once r^2 overflows).
    """
    try:
        if K == 0.0:
            value = math.log(r / r0)
        elif abs(K) * max(r, r0) ** 2 < 1e-8:
            # ln tan(x) = ln x + x^2/3 + ..., so the leading K-correction to
            # the flat formula is K (r^2 - r0^2)/12 for either sign of K.
            value = math.log(r / r0) + K * (r * r - r0 * r0) / 12.0
        elif K > 0.0:
            s = math.sqrt(K)
            value = math.log(math.tan(r * s / 2.0)) - math.log(math.tan(r0 * s / 2.0))
        else:
            b = math.sqrt(-K)
            value = math.log(math.tanh(r * b / 2.0)) - math.log(math.tanh(r0 * b / 2.0))
    except (OverflowError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"the trace from r0={r0} to r={r} leaves the float range")
    return value


def spiral_chart_trace(
    K: float, theta: float, r0: float, u0: float, r: float
) -> PolarTracePoint:
    """Intrinsic constant-angle trace through (r0, u0), evaluated at r.

    Integrates du/dr = cot(theta)/sqrt(G(r)) in closed form:
    cot(theta) * ln(r/r0) for K = 0 and the corresponding
    ln tan / ln tanh differences of (r/2)*sqrt(|K|) otherwise.  theta and
    both radii pass closed_form's gates, theta in (0, pi); a u that is not
    finite (a non-finite u0, or a cot(theta) that overflows next to 0 or
    pi) raises DomainError.
    """
    _require_angle(theta)
    _require_admissible(K, r0)
    _require_admissible(K, r)
    cot = math.cos(theta) / math.sin(theta)
    u = u0 + cot * _advance(K, r0, r)
    if not math.isfinite(u):
        raise DomainError(f"the trace through u0={u0} has no finite u at r={r}")
    return PolarTracePoint(r=r, u=u)


def embed_polar_trace(
    patch: SurfacePatch,
    points: Sequence[PolarTracePoint],
) -> ChartCurve:
    """Embed an intrinsic polar trace as a chart curve on a plane or
    sphere patch (pole at the chart center).

    The patch is recognized by its known constant curvature K: 0 -> plane
    chart (angle, radius), K > 0 -> sphere chart with colatitude r/R.
    Negative curvature is refused (the tractroid chart does not contain a
    full geodesic disk about any pole).  cot(theta) is fitted from the
    first and last points through the closed-form advance of
    spiral_chart_trace, and every point must lie on that one trace to
    TRACE_TOL (relative to max(1, |u|) at the ends), else BadParameter.
    Only this route fits points: _embedded_spiral builds the same
    _polar_curve from K and theta as given.
    """
    K = patch.known_K
    if K is None:
        raise Unsupported(f"{patch.name} has no known constant curvature")
    if K < 0.0:
        raise Unsupported(
            "embedding into a negatively curved chart is not supported"
        )
    if len(points) < 4:
        raise BadParameter("need at least 4 trace points to fit the trace")
    rs = [p.r for p in points]
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise BadParameter("trace points must be strictly increasing in r")

    v_scale = math.sqrt(K) if K > 0.0 else 1.0
    for r in (rs[0], rs[-1]):
        if not patch.domain.v.contains(r * v_scale):
            raise OutOfDomain(f"r={r} maps outside the chart of {patch.name}")

    first, last = points[0], points[-1]
    cot = (last.u - first.u) / _advance(K, first.r, last.r)
    tol = TRACE_TOL * max(1.0, abs(first.u), abs(last.u))
    for p in points:
        if not abs(p.u - first.u - cot * _advance(K, first.r, p.r)) <= tol:
            raise BadParameter(
                f"point (r={p.r}, u={p.u}) is not on the constant-angle trace "
                "through the first and last points"
            )
    return _polar_curve(patch, K, cot, first.r, first.u)


def _polar_curve(patch: SurfacePatch, K: float, cot: float, r0: float, u0: float) -> ChartCurve:
    """u(r) = u0 + cot * int_r0^r dr/sqrt(G) on the model patch of K, with K
    and cot as given: the closed form, t = r on the open t_domain
    (0, r_limit), and direction_sign = -1 (traversed toward the pole)."""
    m = polar_metric(K)
    v_scale = math.sqrt(K) if K > 0.0 else 1.0  # v = r / R on the sphere

    def derivatives(r: float):
        # u' = -cot/sqrt(G), u'' = cot (sqrt G)_r / G
        sG = m.sqrtG(r)
        return -cot / sG, v_scale, cot * m.sqrtG_r(r) / sG / sG, 0.0

    return ChartCurve(
        patch=patch,
        trace=lambda t: (-(u0 + cot * _advance(K, r0, t)), t * v_scale),
        t_domain=Interval(0.0, m.r_limit),
        direction_sign=-1,
        trace_derivatives=derivatives,
        center_distance=lambda t: t,
        label=f"polar trace on {patch.name}",
    )


def _embedded_spiral(K: float, theta: float, r_lo: float, r_hi: float) -> ChartCurve:
    """The intrinsic spiral at angle theta through (min(r_lo, r_hi), 0) on
    the model surface of K, built from K and theta as given; t = r.
    DomainError for theta, then K < 0, then as spiral_chart_trace (a K
    not finite among them), then for a K whose 1/sqrt(K) squared overflows."""
    _require_angle(theta)
    if K < 0.0:
        raise DomainError("polar traces embed only for K >= 0")
    lo, hi = sorted((r_lo, r_hi))
    spiral_chart_trace(K, theta, lo, 0.0, hi)
    try:
        patch = plane_patch() if K == 0.0 else sphere_patch(1.0 / math.sqrt(K))
    except BadParameter:
        raise DomainError(f"K={K} has no model sphere: 1/sqrt(K) squared overflows") from None
    return _polar_curve(patch, K, math.cos(theta) / math.sin(theta), lo, 0.0)
