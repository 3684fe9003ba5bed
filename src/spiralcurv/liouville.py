"""Frame decomposition of geodesic curvature in an orthogonal chart.

For a unit-speed curve crossing the coordinate net of an orthogonal
parametrization at angle theta (measured from the parallel direction), the
geodesic curvature splits as

    k = k1 cos(theta) + k2 sin(theta) + d(theta)/ds

where k1, k2 are the geodesic curvatures of the parallel and meridian
through the point.  This module measures every term independently and
reports the residual against the directly measured curvature — a strong
consistency check tying the curve machinery together.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .curves import (
    ChartCurve,
    _angle,
    _chart_point,
    _curvature,
    _speed,
    _trace_k,
    angle_to_parallel,
)
from .errors import NotOrthogonal
from .numdiff import STEP_FIRST_FINE, fit_steps, richardson_first
from .surfaces import _first_form_det, eval_jet, first_form
from .vec import Record

ORTHOGONALITY_TOL = 1e-10


class LiouvilleBreakdown(
    Record,
    namedtuple("_LiouvilleBreakdown", "k1 k2 theta dtheta_dt k_liouville k_direct residual"),
):
    """All terms of the decomposition at one curve point; dtheta_dt is
    taken with respect to arc length."""

    __slots__ = ()


def liouville_breakdown(
    curve: ChartCurve, t: float, mode: str | None = None
) -> LiouvilleBreakdown:
    """Measure k1, k2, theta, d(theta)/ds and both curvature routes, all
    but d(theta)/ds from one 2-jet: k1 and k2 are the chain rule of curves
    with the chart derivatives (1, 0, 0, 0) and (0, 1, 0, 0).

    The first form passes angle_to_parallel's gate, surfaces._first_form_det
    (DegenerateJet, as where E*G underflows, or NumericalBreakdown); then
    NotOrthogonal when |F| >= 1e-10 * sqrt(EG) at the point: the
    decomposition needs an orthogonal chart.
    """
    u, v = _chart_point(curve, t)
    jet = eval_jet(curve.patch, u, v, mode)
    E, F, G = first_form(jet)
    _first_form_det(E, F, G)
    if abs(F) >= ORTHOGONALITY_TOL * math.sqrt(E * G):
        raise NotOrthogonal(
            f"chart of {curve.patch.name} is not orthogonal at ({u}, {v})"
        )

    k1 = _curvature(curve.patch, jet, 1.0, 0.0, 0.0, 0.0)
    k2 = _curvature(curve.patch, jet, 0.0, 1.0, 0.0, 0.0)
    du, dv, k_direct = _trace_k(curve, t, jet)
    theta = _angle(curve, jet, du, dv, t)

    (h,) = fit_steps(t, curve.t_domain.lo, curve.t_domain.hi, STEP_FIRST_FINE)

    def unwrapped(s: float) -> float:
        a = angle_to_parallel(curve, s, mode)
        # keep the branch continuous around theta(t)
        while a - theta > math.pi:
            a -= 2.0 * math.pi
        while a - theta < -math.pi:
            a += 2.0 * math.pi
        return a

    dtheta_dparam, _ = richardson_first(unwrapped, t, h)
    dtheta_ds = dtheta_dparam / _speed(jet, du, dv, t)

    k_liouville = k1 * math.cos(theta) + k2 * math.sin(theta) + dtheta_ds
    residual = abs(k_liouville - k_direct)
    return LiouvilleBreakdown(k1, k2, theta, dtheta_ds, k_liouville, k_direct, residual)
