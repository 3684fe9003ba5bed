"""Numerical verification battery.

Each check produces a VerificationReport: a named list of observations
(input, expected, actual, error) plus one tolerance; the report passes
exactly when every observation error is at most the tolerance.  Reports are
deterministic — identical inputs produce identical observation lists — and
serialize to a line-oriented text form and to JSON.

The checks fall into two groups: structural properties of the closed-form
curvature (limit behaviour near K = 0, monotonicity and sign pattern in K,
series/direct seam agreement, the radial metric ODE) and cross-validation
of the numeric curve machinery against the closed forms.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import closed_form as cf
from . import curves as cv
from . import polar as pl
from .errors import BadParameter, PreconditionFailed
from .liouville import liouville_breakdown
from .numdiff import EPS, richardson_second, richardson_sequence, scaled_step
from .surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    eval_frame,
    eval_jet,
    first_form,
    gaussian_curvature,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
)

SUITES = ("forms", "curves", "liouville", "analysis", "all")


@dataclass(frozen=True)
class Observation:
    input: Tuple
    expected: float
    actual: float
    error: float


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    passed: bool
    observations: List[Observation]
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "observations": [dataclasses.asdict(o) for o in self.observations],
        }

    def to_text_line(self) -> str:
        worst = max((o.error for o in self.observations), default=0.0)
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.check_name}: {len(self.observations)} observations, "
            f"max error {worst:.3e}, tolerance {self.tolerance:.3e}"
        )


def make_report(name: str, observations: List[Observation], tolerance: float) -> VerificationReport:
    ok = all(o.error <= tolerance for o in observations)
    return VerificationReport(
        check_name=name, passed=ok, observations=observations, tolerance=tolerance
    )


def reports_to_text(reports: Sequence[VerificationReport]) -> str:
    return "\n".join(r.to_text_line() for r in reports)


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    return json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2)


# ---------------------------------------------------------------------------
# core checks


def verify_ratio_limit(
    K: float, K2: float, theta: float, r_sequence: Sequence[float]
) -> VerificationReport:
    """Spiral curvatures at two different ambient curvatures become equal
    as r -> 0: the ratio tends to 1 like |K - K2| r^2 / 3.

    Each observation stores the ratio and its deviation from 1 divided by
    the envelope 1.5 * |K - K2| r^2 / 3, so the report's tolerance is the
    dimensionless 1.0; errors shrink quadratically with r.
    """
    rs = list(r_sequence)
    if not rs or any(r <= 0.0 for r in rs):
        raise BadParameter("r_sequence must be positive")
    if any(b >= a for a, b in zip(rs, rs[1:])):
        raise BadParameter("r_sequence must be strictly decreasing")
    if K == K2:
        raise BadParameter("the two curvatures must differ")
    obs = []
    for r in rs:
        ratio = cf.spiral_curvature(K, r, theta) / cf.spiral_curvature(K2, r, theta)
        envelope = abs(K - K2) * r * r / 3.0 * 1.5
        obs.append(
            Observation(
                input=(K, K2, theta, r),
                expected=1.0,
                actual=ratio,
                error=abs(ratio - 1.0) / envelope,
            )
        )
    return make_report("analysis.ratio_limit", obs, 1.0)


def verify_derivative_at_zero(
    r: float, theta: float, h_sequence: Sequence[float] = (8e-3, 4e-3, 2e-3, 1e-3)
) -> VerificationReport:
    """The K-derivative of the spiral curvature at K = 0 is -(r/3)cos(theta).

    Measured by central differences in K over h_sequence, extrapolated with
    a Neville tableau in h^2; the extrapolated value must agree with the
    closed form to 1e-8 relative (1e-12 absolute when cos(theta) ~ 0).
    """
    hs = list(h_sequence)
    if len(hs) < 2 or any(h <= 0.0 for h in hs):
        raise BadParameter("need at least two positive steps")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise BadParameter("h_sequence must be strictly decreasing")
    diffs = [
        (cf.spiral_curvature(h, r, theta) - cf.spiral_curvature(-h, r, theta)) / (2.0 * h)
        for h in hs
    ]
    estimate = richardson_sequence(diffs, hs)
    target = -(r / 3.0) * math.cos(theta)
    if abs(math.cos(theta)) < 1e-12:
        error = abs(estimate)
        tol = 1e-12
    else:
        error = abs(estimate - target) / abs(target)
        tol = 1e-8
    obs = [Observation(input=(r, theta), expected=target, actual=estimate, error=error)]
    return make_report("analysis.derivative_at_zero", obs, tol)


def verify_monotone_in_K(r: float, t_grid: Sequence[float]) -> VerificationReport:
    """The circle curvature is strictly decreasing in the ambient
    curvature: its K-derivative is negative at every grid point and the
    values themselves decrease along the grid."""
    ts = list(t_grid)
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise BadParameter("t_grid must be strictly increasing")
    obs = []
    prev = None
    for t in ts:
        fp = cf.geodesic_circle_curvature_dK(t, r)
        obs.append(
            Observation(
                input=(t, r),
                expected=0.0,
                actual=fp,
                error=0.0 if fp < 0.0 else max(abs(fp), 5e-324),
            )
        )
        val = cf.geodesic_circle_curvature(t, r)
        if prev is not None:
            step = val - prev[1]
            obs.append(
                Observation(
                    input=(prev[0], t, r),
                    expected=0.0,
                    actual=step,
                    error=0.0 if step < 0.0 else max(abs(step), 5e-324),
                )
            )
        prev = (t, val)
    return make_report("analysis.monotonicity", obs, 0.0)


def verify_sign_pattern(
    K: float, theta_grid: Sequence[float], r: float
) -> VerificationReport:
    """Sign pattern of the spiral curvature and of d|k|/dK.

    Requires the circle curvature at (K, r) to be positive (r inside the
    first zero), else PreconditionFailed.  For theta away from pi/2 the
    curvature has the sign of cos(theta) and |k| is strictly decreasing
    in K; at theta = pi/2 both quantities vanish to within 1e-12.
    """
    if cf.geodesic_circle_curvature(K, r) <= 0.0:
        raise PreconditionFailed(
            f"circle curvature not positive at K={K}, r={r}; "
            f"first zero at r={cf.first_positive_circle_zero(K)}"
        )
    obs = []
    for theta in theta_grid:
        k = cf.spiral_curvature(K, r, theta)
        d = cf.spiral_curvature_abs_dK(K, r, theta)
        c = math.cos(theta)
        if abs(theta - math.pi / 2.0) < 1e-9:
            obs.append(Observation((K, r, theta, "k"), 0.0, k, abs(k)))
            obs.append(Observation((K, r, theta, "d|k|/dK"), 0.0, d, abs(d)))
        else:
            sign_ok = (k > 0.0) if c > 0.0 else (k < 0.0)
            obs.append(
                Observation(
                    (K, r, theta, "k"), 0.0, k, 0.0 if sign_ok else 1.0 + abs(k)
                )
            )
            obs.append(
                Observation(
                    (K, r, theta, "d|k|/dK"),
                    0.0,
                    d,
                    0.0 if d < 0.0 else 1.0 + abs(d),
                )
            )
    return make_report("analysis.sign_pattern", obs, 1e-12)


def verify_numeric_vs_closed_form(
    surface: str,
    R: float,
    theta: float,
    sample_count: int = 50,
    mode: Optional[str] = None,
) -> VerificationReport:
    """Numeric geodesic curvature of a constant-angle curve against the
    closed-form prediction, at sample_count parameter values.

    surface is "plane", "sphere" or "pseudosphere"; theta is the
    constant angle (for the plane it must lie in (-pi/2, pi/2) \\ {0},
    the winding angle of the spiral arctan(a))."""
    if sample_count < 2:
        raise BadParameter("sample_count must be at least 2")
    if surface == "plane":
        curve = cv.plane_log_spiral(math.tan(theta))
        ts = np.linspace(0.0, 2.0, sample_count)
    elif surface == "sphere":
        curve = cv.sphere_loxodrome(R, math.cos(theta) / math.sin(theta))
        ts = (math.pi - np.linspace(0.4, 1.2, sample_count)) / 2.0
    elif surface == "pseudosphere":
        # no pole: the loxodrome crosses horocycles, whose curvature is
        # the r -> inf limit of the coth branch
        curve = cv.pseudosphere_loxodrome(R, theta)
        ts = np.linspace(0.35, 1.35, sample_count)
    else:
        raise BadParameter(f"unknown surface {surface!r}")
    obs = []
    for t in ts:
        t = float(t)
        if curve.center_distance is None:
            expected = -(1.0 / R) * math.cos(theta)
        else:
            r = curve.center_distance(t)
            expected = math.cos(theta) * cf.geodesic_circle_curvature(curve.patch.known_K, r)
        actual = cv.geodesic_curvature_numeric(curve, t, mode)
        err = abs(actual - expected) / abs(expected)
        obs.append(Observation((surface, R, theta, t), expected, actual, err))
    return make_report(f"curves.numeric_vs_closed_form.{surface}", obs, 1e-5)


# ---------------------------------------------------------------------------
# suites


def _patches():
    out = [plane_patch()]
    for R in (0.5, 1.0, 2.0):
        out.append(sphere_patch(R))
        out.append(pseudosphere_patch(R))
    return out


def _grid_for(patch) -> Tuple[np.ndarray, np.ndarray]:
    us = np.linspace(0.0, 6.0, 20)
    name = patch.name
    if name.startswith("sphere"):
        vs = np.linspace(0.3, math.pi - 0.3, 20)
    elif name.startswith("pseudosphere"):
        vs = np.linspace(0.1, 1.45, 20)
    else:
        vs = np.linspace(0.2, 3.0, 20)
    return us, vs


def suite_forms(mode: str = JET_MODE_ANALYTIC, tol_scale: float = 1.0) -> List[VerificationReport]:
    reports = []

    for patch in _patches():
        us, vs = _grid_for(patch)
        obs = []
        relative = patch.known_K != 0.0
        for u in us:
            for v in vs:
                K = gaussian_curvature(patch, float(u), float(v), mode)
                if relative:
                    err = abs(K - patch.known_K) / abs(patch.known_K)
                else:
                    err = abs(K)
                obs.append(Observation((patch.name, float(u), float(v)), patch.known_K, K, err))
        tol = (1e-6 if relative else 1e-8) * tol_scale
        reports.append(make_report(f"forms.curvature_constancy.{patch.name}", obs, tol))

    obs = []
    for patch in _patches():
        us, vs = _grid_for(patch)
        flipped = dataclasses.replace(patch, orientation_sign=-patch.orientation_sign)
        for u in us[::4]:
            for v in vs[::4]:
                K1 = gaussian_curvature(patch, float(u), float(v), mode)
                K2 = gaussian_curvature(flipped, float(u), float(v), mode)
                obs.append(Observation((patch.name, float(u), float(v)), K1, K2, abs(K1 - K2)))
    reports.append(make_report("forms.orientation_invariance", obs, 1e-12 * tol_scale))

    obs = []
    for patch in _patches():
        us, vs = _grid_for(patch)
        for u in us[::4]:
            for v in vs[::4]:
                E, F, G = first_form(eval_frame(patch, float(u), float(v), JET_MODE_ANALYTIC))
                det = E * G - F * F
                obs.append(
                    Observation(
                        (patch.name, float(u), float(v)),
                        0.0,
                        det,
                        0.0 if det > 0.0 else 1.0,
                    )
                )
    reports.append(make_report("forms.regularity", obs, 0.0))

    obs = []
    for patch in _patches():
        us, vs = _grid_for(patch)
        for u in us[::4]:
            for v in vs[::4]:
                an = eval_jet(patch, float(u), float(v), JET_MODE_ANALYTIC)
                fd = eval_jet(patch, float(u), float(v), JET_MODE_FD)
                worst = 0.0
                for name in ("p", "p_u", "p_v", "p_uu", "p_uv", "p_vv"):
                    va = getattr(an, name)
                    vf = getattr(fd, name)
                    diff = (vf - va).norm() / max(1.0, va.norm())
                    worst = max(worst, diff)
                obs.append(Observation((patch.name, float(u), float(v)), 0.0, worst, worst))
    reports.append(make_report("forms.jet_consistency", obs, 1e-6 * tol_scale))

    return reports


def _angle_families() -> List[Tuple[cv.ChartCurve, float, np.ndarray]]:
    fams = []
    for a in (0.5, 2.0, -1.0):
        fams.append((cv.plane_log_spiral(a), math.atan(a), np.linspace(-1.0, 2.0, 50)))
    for R, a in ((1.0, 1.0), (2.0, 0.5)):
        fams.append(
            (cv.sphere_loxodrome(R, a), math.atan2(1.0, a), np.linspace(0.5, 1.4, 50))
        )
    for theta in (math.pi / 3.0, 2.0 * math.pi / 3.0):
        fams.append(
            (cv.pseudosphere_loxodrome(1.0, theta), theta, np.linspace(0.3, 1.4, 50))
        )
    return fams


def suite_curves(mode: str = JET_MODE_ANALYTIC, tol_scale: float = 1.0) -> List[VerificationReport]:
    reports = []

    obs = []
    for curve, theta, ts in _angle_families():
        for t in ts:
            measured = cv.angle_to_parallel(curve, float(t), mode)
            obs.append(
                Observation((curve.label, float(t)), theta, measured, abs(measured - theta))
            )
    reports.append(make_report("curves.constant_angle", obs, 1e-7 * tol_scale))

    obs = []
    for curve, _, ts in _angle_families()[:4]:
        for t in ts[5::17]:
            k = cv.geodesic_curvature_numeric(curve, float(t), mode)
            flipped_patch = dataclasses.replace(
                curve.patch, orientation_sign=-curve.patch.orientation_sign
            )
            k_o = cv.geodesic_curvature_numeric(
                dataclasses.replace(curve, patch=flipped_patch), float(t), mode
            )
            k_d = cv.geodesic_curvature_numeric(
                dataclasses.replace(curve, direction_sign=-curve.direction_sign),
                float(t),
                mode,
            )
            obs.append(Observation((curve.label, float(t), "orientation"), 0.0, k + k_o, abs(k + k_o)))
            obs.append(Observation((curve.label, float(t), "direction"), 0.0, k + k_d, abs(k + k_d)))
    reports.append(make_report("curves.orientation_covariance", obs, 1e-9 * tol_scale))

    for args in (
        ("plane", 1.0, math.pi / 4.0),
        ("sphere", 1.0, math.atan2(1.0, 1.0)),
        ("sphere", 2.0, math.atan2(1.0, 0.5)),
        ("pseudosphere", 1.0, math.pi / 3.0),
        ("pseudosphere", 0.5, 2.0 * math.pi / 3.0),
    ):
        rep = verify_numeric_vs_closed_form(*args, sample_count=50, mode=mode)
        name = f"{rep.check_name}.R={args[1]:g}.theta={args[2]:.3f}"
        reports.append(make_report(name, rep.observations, rep.tolerance * tol_scale))

    obs = []
    spiral = cv.plane_log_spiral(1.0)
    L = cv.arc_length(spiral, 0.0, 2.0, mode)
    target = 1.222820569352273  # sqrt(2)*(1 - exp(-2)), 250-bit oracle
    obs.append(Observation(("plane spiral [0,2]",), target, L, abs(L - target) / target))
    La = cv.arc_length(spiral, 0.0, 0.8, mode)
    Lb = cv.arc_length(spiral, 0.8, 2.0, mode)
    obs.append(Observation(("additivity",), L, La + Lb, abs(L - La - Lb)))
    obs.append(
        Observation(
            ("antisymmetry",), -L, cv.arc_length(spiral, 2.0, 0.0, mode), abs(L + cv.arc_length(spiral, 2.0, 0.0, mode))
        )
    )
    equator = cv.coordinate_curve(sphere_patch(1.0), cv.PARALLEL, math.pi / 2.0)
    Le = cv.arc_length(equator, 0.0, 2.0 * math.pi, mode)
    obs.append(
        Observation(("sphere equator",), 2.0 * math.pi, Le, abs(Le - 2.0 * math.pi))
    )
    reports.append(make_report("curves.arc_length", obs, 1e-10 * tol_scale))

    obs = []
    for patch, K, theta, reference in (
        (plane_patch(), 0.0, math.pi / 4.0, cv.plane_log_spiral(1.0)),
        (sphere_patch(1.0), 1.0, math.atan2(1.0, 1.0), cv.sphere_loxodrome(1.0, 1.0)),
    ):
        r_lo, r_hi = 0.5, 2.0
        if K > 0.0:
            r_hi = 2.6
        rs = np.linspace(r_lo, r_hi, 400)
        r0, u0 = float(rs[0]), 0.0
        pts = [pl.spiral_chart_trace(K, theta, r0, u0, float(r)) for r in rs]
        emb = pl.embed_polar_trace(patch, pts)
        for t in np.linspace(r_lo + 0.1, r_hi - 0.1, 50):
            measured = cv.angle_to_parallel(emb, float(t), mode)
            obs.append(
                Observation((patch.name, float(t)), theta, measured, abs(measured - theta))
            )
    reports.append(make_report("curves.embedded_polar_angle", obs, 1e-7 * tol_scale))

    return reports


def suite_liouville(mode: str = JET_MODE_ANALYTIC, tol_scale: float = 1.0) -> List[VerificationReport]:
    reports = []

    families = [
        (cv.plane_log_spiral(1.0), np.linspace(-0.5, 1.5, 8)),
        (cv.sphere_loxodrome(1.0, 1.0), np.linspace(0.8, 1.35, 8)),
        (cv.pseudosphere_loxodrome(1.0, math.pi / 3.0), np.linspace(0.4, 1.3, 8)),
        (
            cv.coordinate_curve(sphere_patch(1.0), cv.PARALLEL, 0.9),
            np.linspace(0.0, 5.0, 8),
        ),
    ]
    obs = []
    for curve, ts in families:
        for t in ts:
            b = liouville_breakdown(curve, float(t), mode)
            obs.append(Observation((curve.label, float(t)), b.k_direct, b.k_liouville, b.residual))
    reports.append(make_report("liouville.residual", obs, 1e-5 * tol_scale))

    obs = []
    for patch, vs in (
        (plane_patch(), (0.5, 1.5, 2.5)),
        (sphere_patch(1.0), (0.6, 1.2, 2.2)),
        (sphere_patch(2.0), (0.6, 1.2, 2.2)),
        (pseudosphere_patch(1.0), (0.4, 0.8, 1.2)),
    ):
        meridian = cv.coordinate_curve(patch, cv.MERIDIAN, 0.7)
        for v in vs:
            k2 = cv.geodesic_curvature_numeric(meridian, v, mode)
            obs.append(Observation((patch.name, v), 0.0, k2, abs(k2)))
    reports.append(make_report("liouville.meridian_geodesic", obs, 1e-8 * tol_scale))

    return reports


def _jacobi_grid(K: float) -> np.ndarray:
    if K > 0.0:
        return np.linspace(0.03, 0.97 * math.pi / math.sqrt(K), 100)
    return np.linspace(0.05, 2.0, 100)


def suite_analysis(tol_scale: float = 1.0) -> List[VerificationReport]:
    reports = []

    rs_coarse = [10.0 ** (-e) for e in (1.0, 1.5, 2.0, 2.5, 3.0)]
    reports.append(verify_ratio_limit(4.0, -4.0, math.pi / 4.0, rs_coarse))
    reports.append(
        dataclasses.replace(
            verify_ratio_limit(1.0, 0.0, math.pi / 3.0, rs_coarse),
            check_name="analysis.ratio_limit.vs_flat",
        )
    )

    slope_rs = np.logspace(-1, -4, 13)
    devs = []
    for r in slope_rs:
        ratio = cf.spiral_curvature(4.0, float(r), math.pi / 4.0) / cf.spiral_curvature(
            -4.0, float(r), math.pi / 4.0
        )
        devs.append(abs(ratio - 1.0))
    slope = float(np.polyfit(np.log(slope_rs), np.log(devs), 1)[0])
    reports.append(
        make_report(
            "analysis.ratio_limit.slope",
            [Observation((4.0, -4.0), 2.0, slope, abs(slope - 2.0))],
            0.1,
        )
    )

    for r in (0.5, 1.0, 3.0):
        for theta in (math.pi / 6.0, math.pi / 3.0, 3.0 * math.pi / 4.0):
            rep = verify_derivative_at_zero(r, theta)
            name = f"analysis.derivative_at_zero.r={r:g}.theta={theta:.3f}"
            reports.append(make_report(name, rep.observations, rep.tolerance * tol_scale))

    for r in (0.25, 1.0, 4.0):
        t_max = (math.pi / r - 1e-3) ** 2
        grid = np.linspace(-25.0, t_max, 1000)
        rep = verify_monotone_in_K(r, [float(t) for t in grid])
        reports.append(
            dataclasses.replace(rep, check_name=f"analysis.monotonicity.r={r:g}")
        )

    obs = []
    for r in (0.25, 1.0, 4.0):
        got = cf.geodesic_circle_curvature_dK(0.0, r)
        want = -(r / 3.0)
        obs.append(Observation((0.0, r), want, got, 0.0 if got == want else abs(got - want)))
    reports.append(make_report("analysis.derivative_exact_at_zero", obs, 0.0))

    thetas = (math.pi / 6.0, math.pi / 3.0, math.pi / 2.0, 2.0 * math.pi / 3.0)
    for K in (-4.0, 0.0, 4.0):
        rep = verify_sign_pattern(K, thetas, 1e-2)
        reports.append(
            dataclasses.replace(rep, check_name=f"analysis.sign_pattern.K={K:g}")
        )

    obs = []
    theta = math.pi / 3.0
    for r in (0.5, 1.0, 2.0, 5.0):
        for frac in (0.9, 0.95, 1.0, 1.05, 1.1):
            for sgn in (1.0, -1.0):
                K = sgn * frac * 1e-4 / (r * r)
                series = cf.spiral_curvature_series(K, r, theta, 4)
                if K > 0.0:
                    direct = math.cos(theta) * math.sqrt(K) / math.tan(r * math.sqrt(K))
                else:
                    direct = math.cos(theta) * math.sqrt(-K) / math.tanh(r * math.sqrt(-K))
                obs.append(
                    Observation(
                        (K, r), direct, series, abs(series - direct) / abs(direct)
                    )
                )
    reports.append(make_report("analysis.seam_agreement", obs, 1e-12 * tol_scale))

    obs = []
    r, theta = 1.5, math.pi / 3.0
    base = cf.spiral_curvature(0.0, r, theta)
    eps_k = 1e-30
    jump = abs(
        cf.spiral_curvature(eps_k, r, theta) - cf.spiral_curvature(-eps_k, r, theta)
    )
    obs.append(Observation(("jump at K=0", r, theta), 0.0, jump, jump))
    prev = math.inf
    for h in (1e-2, 1e-4, 1e-6):
        gap = abs(cf.spiral_curvature(h, r, theta) - base)
        obs.append(
            Observation(
                ("continuity", h, r, theta),
                0.0,
                gap,
                0.0 if gap < prev else 1.0,
            )
        )
        prev = gap
    reports.append(make_report("analysis.seam_continuity", obs, 1e-12 * tol_scale))

    obs = []
    for K in (-4.0, -1.0, 0.0, 1.0, 4.0):
        metric = pl.polar_metric(K)
        for r in _jacobi_grid(K):
            r = float(r)
            h = scaled_step(r, EPS ** (1.0 / 6.0))
            d2, _ = richardson_second(metric.sqrtG, r, h)
            residual = abs(d2 + K * metric.sqrtG(r))
            obs.append(Observation((K, r), 0.0, d2, residual))
    reports.append(make_report("analysis.jacobi_residual", obs, 1e-6 * tol_scale))

    obs = []
    for K in (-4.0, -1.0, -1e-6, 0.0, 1e-6, 1.0, 4.0):
        grid = _jacobi_grid(K)[::10]
        for r in grid:
            r = float(r)
            a = pl.circle_curvature(K, r)
            b = cf.geodesic_circle_curvature(K, r)
            obs.append(Observation((K, r), b, a, abs(a - b) / abs(b)))
    reports.append(make_report("analysis.circle_consistency", obs, 1e-13 * tol_scale))

    # quad is the independent reference here; imported late so that
    # importing the package loads no scipy
    from scipy.integrate import quad

    obs = []
    theta = math.pi / 3.0
    cot = math.cos(theta) / math.sin(theta)
    for K in (-1.0, 0.0, 1.0):
        metric = pl.polar_metric(K)
        for r0, r1 in ((0.6, 1.4), (0.3, 0.9)):
            closed = pl.spiral_chart_trace(K, theta, r0, 0.0, r1).u
            integral, _ = quad(lambda s: 1.0 / metric.sqrtG(s), r0, r1, epsabs=1e-13, epsrel=1e-12)
            obs.append(
                Observation((K, r0, r1), cot * integral, closed, abs(closed - cot * integral))
            )
    reports.append(make_report("analysis.polar_trace_quadrature", obs, 1e-10 * tol_scale))

    return reports


def run_suites(
    suite: str, mode: str = JET_MODE_ANALYTIC, tol_scale: float = 1.0
) -> List[VerificationReport]:
    """Run one named suite ("forms", "curves", "liouville", "analysis") or
    "all".  mode selects analytic or finite-difference jets for the
    geometry-dependent checks; with finite-difference jets callers should
    relax tol_scale by 1e2."""
    if suite not in SUITES:
        raise BadParameter(f"unknown suite {suite!r}")
    reports: List[VerificationReport] = []
    if suite in ("forms", "all"):
        reports.extend(suite_forms(mode, tol_scale))
    if suite in ("curves", "all"):
        reports.extend(suite_curves(mode, tol_scale))
    if suite in ("liouville", "all"):
        reports.extend(suite_liouville(mode, tol_scale))
    if suite in ("analysis", "all"):
        reports.extend(suite_analysis(tol_scale))
    return reports
