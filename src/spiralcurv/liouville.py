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
from dataclasses import dataclass
from typing import Optional

from .curves import (
    ChartCurve,
    MERIDIAN,
    PARALLEL,
    angle_to_parallel,
    coordinate_curve,
    geodesic_curvature_numeric,
    speed,
)
from .errors import NotOrthogonal, OutOfDomain
from .numdiff import STEP_FIRST_FINE, fit_step, richardson_first, scaled_step
from .surfaces import _pick_mode, eval_frame, first_form

ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class LiouvilleBreakdown:
    """All terms of the decomposition at one curve point."""

    k1: float
    k2: float
    theta: float
    dtheta_dt: float          # with respect to arc length
    k_liouville: float
    k_direct: float
    residual: float


def liouville_breakdown(
    curve: ChartCurve, t: float, mode: Optional[str] = None
) -> LiouvilleBreakdown:
    """Measure k1, k2, theta, d(theta)/ds and both curvature routes.

    Raises NotOrthogonal when |F| >= 1e-10 * sqrt(EG) at the point: the
    decomposition needs an orthogonal chart.
    """
    u, v = curve.trace(t)
    E, F, G = first_form(eval_frame(curve.patch, u, v, _pick_mode(curve.patch, mode)))
    if abs(F) >= ORTHOGONALITY_TOL * math.sqrt(E * G):
        raise NotOrthogonal(
            f"chart of {curve.patch.name} is not orthogonal at ({u}, {v})"
        )

    k1 = geodesic_curvature_numeric(coordinate_curve(curve.patch, PARALLEL, v), u, mode)
    k2 = geodesic_curvature_numeric(coordinate_curve(curve.patch, MERIDIAN, u), v, mode)
    theta = angle_to_parallel(curve, t, mode)
    k_direct = geodesic_curvature_numeric(curve, t, mode)

    lo, hi = curve.t_domain
    h = fit_step(scaled_step(t, STEP_FIRST_FINE), t, lo, hi)
    if h <= 0.0:
        raise OutOfDomain(f"t={t} leaves no room to differentiate the angle")

    def unwrapped(s: float) -> float:
        a = angle_to_parallel(curve, s, mode)
        # keep the branch continuous around theta(t)
        while a - theta > math.pi:
            a -= 2.0 * math.pi
        while a - theta < -math.pi:
            a += 2.0 * math.pi
        return a

    dtheta_dparam, _ = richardson_first(unwrapped, t, h)
    dtheta_ds = dtheta_dparam / speed(curve, t, mode)

    k_liouville = k1 * math.cos(theta) + k2 * math.sin(theta) + dtheta_ds
    return LiouvilleBreakdown(
        k1=k1,
        k2=k2,
        theta=theta,
        dtheta_dt=dtheta_ds,
        k_liouville=k_liouville,
        k_direct=k_direct,
        residual=abs(k_liouville - k_direct),
    )
