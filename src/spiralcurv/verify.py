"""Numerical verification battery.

Each check produces a VerificationReport: a named list of observations
(input, expected, actual, error) plus one tolerance; the report passes
exactly when every observation error is at most the tolerance.  Reports are
deterministic — identical inputs produce identical observation lists — and
serialize to a line-oriented text form and to JSON; only the JSON form
imports json.  An Observation and a VerificationReport are tuples, like
surfaces.Jet2, with a frozen dataclass's value behaviour (vec.Record); a
suite renames a report with _replace(check_name=...).

The checks fall into two groups: structural properties of the closed-form
curvature (limit behaviour near K = 0, monotonicity and sign pattern in K,
series/direct seam agreement, the radial metric ODE) and cross-validation
of the numeric curve machinery against the closed forms.  The geometric
checks run with analytic or with finite-difference jets; each check states
one tolerance, which holds in both modes.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import product

from . import closed_form as cf
from . import curves as cv
from . import polar as pl
from .closed_form import _linspace
from .errors import BadParameter, DomainError, PreconditionFailed
from .liouville import liouville_breakdown
from .numdiff import (
    STEP_FIRST_FINE,
    STEP_SECOND_FINE,
    fit_steps,
    gauss_kronrod,
    richardson_first,
    richardson_second,
)
from .surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    SurfacePatch,
    _jet_grid,
    curvature_from_jet,
    first_form,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
)
from .vec import Record

_new = tuple.__new__  # an Observation from one tuple, for the dense grids

SUITES = ("forms", "curves", "liouville", "analysis", "all")


class Observation(Record, namedtuple("_Observation", "input expected actual error")):
    """One point of a check: its input tuple, the expected and the actual
    value, and the error that the check's tolerance bounds."""

    __slots__ = ()


class VerificationReport(
    Record, namedtuple("_VerificationReport", "check_name observations tolerance")
):
    """A named list of observations and the one tolerance that bounds
    their errors."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        """Every observation error is at most the tolerance (a nan fails)."""
        return all(o.error <= self.tolerance for o in self.observations)

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "observations": [o._asdict() for o in self.observations],
        }

    def to_text_line(self) -> str:
        worst = max((o.error for o in self.observations), default=0.0)
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.check_name}: {len(self.observations)} observations, "
            f"max error {worst:.3e}, tolerance {self.tolerance:.3e}"
        )


def reports_to_text(reports: Sequence[VerificationReport]) -> str:
    return "\n".join(r.to_text_line() for r in reports)


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    import json  # here, so that the text format never loads it

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
    dimensionless 1.0; errors shrink quadratically with r.  BadParameter
    when the envelope at some r is not a positive finite float (it
    underflows to 0 for a tiny r or |K - K2|).
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
        envelope = abs(K - K2) * r * r / 3.0 * 1.5
        if not 0.0 < envelope < math.inf:
            raise BadParameter(
                f"envelope 1.5*|K - K2|*r^2/3 = {envelope} at r={r} is not a positive finite float"
            )
        ratio = cf.spiral_curvature(K, r, theta) / cf.spiral_curvature(K2, r, theta)
        obs.append(
            Observation(
                input=(K, K2, theta, r),
                expected=1.0,
                actual=ratio,
                error=abs(ratio - 1.0) / envelope,
            )
        )
    return VerificationReport("analysis.ratio_limit", obs, 1.0)


def verify_derivative_at_zero(r: float, theta: float) -> VerificationReport:
    """The K-derivative of the spiral curvature at K = 0 is -(r/3)cos(theta).

    Measured by richardson_first in K about 0, at the step that fit_steps
    sizes from STEP_FIRST_FINE (about 7.4e-4); the estimate must agree
    with the closed form to 1e-8 relative (1e-12 absolute when
    cos(theta) ~ 0).
    """
    (h,) = fit_steps(0.0, -math.inf, math.inf, STEP_FIRST_FINE)
    estimate, _ = richardson_first(lambda K: cf.spiral_curvature(K, r, theta), 0.0, h)
    target = -(r / 3.0) * math.cos(theta)
    if abs(math.cos(theta)) < 1e-12:
        error = abs(estimate)
        tol = 1e-12
    else:
        error = abs(estimate - target) / abs(target)
        tol = 1e-8
    obs = [Observation(input=(r, theta), expected=target, actual=estimate, error=error)]
    return VerificationReport("analysis.derivative_at_zero", obs, tol)


def verify_monotone_in_K(r: float, t_grid: Sequence[float]) -> VerificationReport:
    """The circle curvature is strictly decreasing in the ambient
    curvature: its K-derivative is negative at every grid point and the
    values themselves decrease along the grid."""
    ts = list(t_grid)
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise BadParameter("t_grid must be strictly increasing")
    obs, prev = [], None
    for t in ts:
        cf._require_admissible(t, r)
        fp = cf._circle_dK(t, r)
        error = 0.0 if fp < 0.0 else max(abs(fp), 5e-324)
        obs.append(_new(Observation, ((t, r), 0.0, fp, error)))
        val = cf._circle_value(t, r)[0]
        if prev is not None:
            step = val - prev[1]
            error = 0.0 if step < 0.0 else max(abs(step), 5e-324)
            obs.append(_new(Observation, ((prev[0], t, r), 0.0, step, error)))
        prev = (t, val)
    return VerificationReport("analysis.monotonicity", obs, 0.0)


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
    return VerificationReport("analysis.sign_pattern", obs, 1e-12)


def verify_numeric_vs_closed_form(
    surface: str,
    R: float,
    theta: float,
    sample_count: int = 50,
    mode: str | None = None,
) -> VerificationReport:
    """Numeric geodesic curvature of a constant-angle curve against the
    closed-form prediction, at sample_count parameter values.

    surface is "plane", "sphere" or "pseudosphere"; on each, theta in
    (0, pi) is the spiral's angle to the parallels (curves._spiral_on).
    BadParameter for a sample_count that is not an int >= 2, a theta
    outside (0, pi) or an unknown surface."""
    if not isinstance(sample_count, int) or sample_count < 2:
        raise BadParameter(f"sample_count={sample_count!r} must be an int >= 2")
    try:
        curve, _ = cv._spiral_on(surface, R, theta)
    except DomainError as exc:
        raise BadParameter(str(exc)) from None
    if surface == "plane":
        ts = _linspace(0.0, 2.0, sample_count)
    elif surface == "sphere":
        ts = [(math.pi - x) / 2.0 for x in _linspace(0.4, 1.2, sample_count)]
    else:
        # no pole: the loxodrome crosses horocycles, whose curvature is
        # the r -> inf limit of the coth branch
        ts = _linspace(0.35, 1.35, sample_count)
    obs = []
    for t in ts:
        if curve.center_distance is None:
            expected = -(1.0 / R) * math.cos(theta)
        else:
            r = curve.center_distance(t)
            expected = math.cos(theta) * cf.geodesic_circle_curvature(curve.patch.known_K, r)
        actual = cv.geodesic_curvature_numeric(curve, t, mode)
        err = abs(actual - expected) / abs(expected)
        obs.append(Observation((surface, R, theta, t), expected, actual, err))
    return VerificationReport(f"curves.numeric_vs_closed_form.{surface}", obs, 1e-5)


# ---------------------------------------------------------------------------
# suites


def _patches() -> list[tuple[SurfacePatch, list[float], list[float]]]:
    """The battery's patches, each with its (u, v) grid."""
    us = _linspace(0.0, 6.0, 20)
    out = [(plane_patch(), us, _linspace(0.2, 3.0, 20))]
    for R in (0.5, 1.0, 2.0):
        out.append((sphere_patch(R), us, _linspace(0.3, math.pi - 0.3, 20)))
        out.append((pseudosphere_patch(R), us, _linspace(0.1, 1.45, 20)))
    return out


def suite_forms(mode: str = JET_MODE_ANALYTIC) -> list[VerificationReport]:
    """One pass per patch: the curvature at every grid point, and at every
    4th point in u and in v its orientation flip, the regularity of the
    first form and the analytic-vs-FD jet agreement.  Each grid point
    takes one jet in the battery's mode, which serves both orientations
    and its own side of the jet agreement, and every 4th point one in the
    other mode, both from surfaces._jet_grid (once per grid coordinate)."""
    reports = []
    orientation, regularity, consistency = [], [], []
    other = JET_MODE_FD if mode == JET_MODE_ANALYTIC else JET_MODE_ANALYTIC
    for patch, us, vs in _patches():
        flipped = dataclasses.replace(patch, orientation_sign=-patch.orientation_sign)
        relative = patch.known_K != 0.0
        others = iter(_jet_grid(patch, us[::4], vs[::4], other))
        obs = []
        points = product(enumerate(us), enumerate(vs))
        for ((i, u), (j, v)), jet in zip(points, _jet_grid(patch, us, vs, mode)):
            point = (patch.name, u, v)
            K = curvature_from_jet(jet, patch)
            if relative:
                err = abs(K - patch.known_K) / abs(patch.known_K)
            else:
                err = abs(K)
            obs.append(_new(Observation, (point, patch.known_K, K, err)))
            if i % 4 or j % 4:
                continue
            K2 = curvature_from_jet(jet, flipped)
            orientation.append(Observation(point, K, K2, abs(K - K2)))
            an, fd = (jet, next(others)) if mode == JET_MODE_ANALYTIC else (next(others), jet)
            E, F, G = first_form(an)
            det = E * G - F * F
            regularity.append(Observation(point, 0.0, det, 0.0 if det > 0.0 else 1.0))
            worst = 0.0
            for (a0, a1, a2), (f0, f1, f2) in zip(an, fd):  # |fd - an| / max(1, |an|)
                d0, d1, d2 = f0 - a0, f1 - a1, f2 - a2
                scale = max(1.0, math.sqrt(a0 * a0 + a1 * a1 + a2 * a2))
                worst = max(worst, math.sqrt(d0 * d0 + d1 * d1 + d2 * d2) / scale)
            consistency.append(Observation(point, 0.0, worst, worst))
        tol = 1e-6 if relative else 1e-8
        reports.append(VerificationReport(f"forms.curvature_constancy.{patch.name}", obs, tol))
    reports.append(VerificationReport("forms.orientation_invariance", orientation, 1e-12))
    reports.append(VerificationReport("forms.regularity", regularity, 0.0))
    reports.append(VerificationReport("forms.jet_consistency", consistency, 1e-6))
    return reports


def _angle_families() -> list[tuple[cv.ChartCurve, float, list[float]]]:
    fams = []
    for a in (0.5, 2.0, -1.0):
        fams.append((cv.plane_log_spiral(a), math.atan(a), _linspace(-1.0, 2.0, 50)))
    for R, a in ((1.0, 1.0), (2.0, 0.5)):
        fams.append(
            (cv.sphere_loxodrome(R, a), math.atan2(1.0, a), _linspace(0.5, 1.4, 50))
        )
    for theta in (math.pi / 3.0, 2.0 * math.pi / 3.0):
        fams.append(
            (cv.pseudosphere_loxodrome(1.0, theta), theta, _linspace(0.3, 1.4, 50))
        )
    return fams


def suite_curves(mode: str = JET_MODE_ANALYTIC) -> list[VerificationReport]:
    reports = []
    families = _angle_families()

    obs = []
    for curve, theta, ts in families:
        for t in ts:
            measured = cv.angle_to_parallel(curve, t, mode)
            obs.append(
                Observation((curve.label, t), theta, measured, abs(measured - theta))
            )
    reports.append(VerificationReport("curves.constant_angle", obs, 1e-7))

    obs = []
    for curve, _, ts in families[:4]:
        for t in ts[5::17]:
            k = cv.geodesic_curvature_numeric(curve, t, mode)
            flipped_patch = dataclasses.replace(
                curve.patch, orientation_sign=-curve.patch.orientation_sign
            )
            k_o = cv.geodesic_curvature_numeric(
                dataclasses.replace(curve, patch=flipped_patch), t, mode
            )
            k_d = cv.geodesic_curvature_numeric(
                dataclasses.replace(curve, direction_sign=-curve.direction_sign),
                t,
                mode,
            )
            obs.append(Observation((curve.label, t, "orientation"), 0.0, k + k_o, abs(k + k_o)))
            obs.append(Observation((curve.label, t, "direction"), 0.0, k + k_d, abs(k + k_d)))
    reports.append(VerificationReport("curves.orientation_covariance", obs, 1e-9))

    for args in (
        ("plane", 1.0, math.pi / 4.0),
        ("sphere", 1.0, math.atan2(1.0, 1.0)),
        ("sphere", 2.0, math.atan2(1.0, 0.5)),
        ("pseudosphere", 1.0, math.pi / 3.0),
        ("pseudosphere", 0.5, 2.0 * math.pi / 3.0),
    ):
        rep = verify_numeric_vs_closed_form(*args, sample_count=50, mode=mode)
        name = f"{rep.check_name}.R={args[1]:g}.theta={args[2]:.3f}"
        reports.append(rep._replace(check_name=name))

    obs = []
    spiral = cv.plane_log_spiral(1.0)
    L = cv.arc_length(spiral, 0.0, 2.0, mode)
    target = 1.222820569352273  # sqrt(2)*(1 - exp(-2)), 250-bit oracle
    obs.append(Observation(("plane spiral [0,2]",), target, L, abs(L - target) / target))
    La = cv.arc_length(spiral, 0.0, 0.8, mode)
    Lb = cv.arc_length(spiral, 0.8, 2.0, mode)
    obs.append(Observation(("additivity",), L, La + Lb, abs(L - La - Lb)))
    L_rev = cv.arc_length(spiral, 2.0, 0.0, mode)
    obs.append(Observation(("antisymmetry",), -L, L_rev, abs(L + L_rev)))
    equator = cv.coordinate_curve(sphere_patch(1.0), cv.PARALLEL, math.pi / 2.0)
    Le = cv.arc_length(equator, 0.0, 2.0 * math.pi, mode)
    obs.append(
        Observation(("sphere equator",), 2.0 * math.pi, Le, abs(Le - 2.0 * math.pi))
    )
    reports.append(VerificationReport("curves.arc_length", obs, 1e-10))

    obs = []
    theta, r_lo = math.pi / 4.0, 0.5
    for K, r_hi in ((0.0, 2.0), (1.0, 2.6)):
        emb = pl._embedded_spiral(K, theta, r_lo, r_hi)
        for t in _linspace(r_lo + 0.1, r_hi - 0.1, 50):
            measured = cv.angle_to_parallel(emb, t, mode)
            obs.append(Observation((emb.patch.name, t), theta, measured, abs(measured - theta)))
    reports.append(VerificationReport("curves.embedded_polar_angle", obs, 1e-7))

    return reports


def suite_liouville(mode: str = JET_MODE_ANALYTIC) -> list[VerificationReport]:
    reports = []

    families = [
        (cv.plane_log_spiral(1.0), _linspace(-0.5, 1.5, 8)),
        (cv.sphere_loxodrome(1.0, 1.0), _linspace(0.8, 1.35, 8)),
        (cv.pseudosphere_loxodrome(1.0, math.pi / 3.0), _linspace(0.4, 1.3, 8)),
        (
            cv.coordinate_curve(sphere_patch(1.0), cv.PARALLEL, 0.9),
            _linspace(0.0, 5.0, 8),
        ),
    ]
    obs = []
    for curve, ts in families:
        for t in ts:
            b = liouville_breakdown(curve, t, mode)
            obs.append(Observation((curve.label, t), b.k_direct, b.k_liouville, b.residual))
    reports.append(VerificationReport("liouville.residual", obs, 1e-5))

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
    reports.append(VerificationReport("liouville.meridian_geodesic", obs, 1e-8))

    return reports


def _jacobi_grid(K: float) -> list[float]:
    if K > 0.0:
        return _linspace(0.03, 0.97 * math.pi / math.sqrt(K), 100)
    return _linspace(0.05, 2.0, 100)


def suite_analysis() -> list[VerificationReport]:
    reports = []

    rs_coarse = [10.0 ** (-e) for e in (1.0, 1.5, 2.0, 2.5, 3.0)]
    reports.append(verify_ratio_limit(4.0, -4.0, math.pi / 4.0, rs_coarse))
    rep = verify_ratio_limit(1.0, 0.0, math.pi / 3.0, rs_coarse)
    reports.append(rep._replace(check_name="analysis.ratio_limit.vs_flat"))

    # least-squares slope of log|ratio - 1| against log r, r from 1e-1 to 1e-4
    xs, ys = [], []
    for e in _linspace(-1.0, -4.0, 13):
        r = 10.0 ** e
        ratio = cf.spiral_curvature(4.0, r, math.pi / 4.0) / cf.spiral_curvature(
            -4.0, r, math.pi / 4.0
        )
        xs.append(math.log(r))
        # a ratio of exactly 1 logs to -inf, and the slope to a nan that fails
        ys.append(math.log(abs(ratio - 1.0)) if ratio != 1.0 else -math.inf)
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
        (x - x_mean) ** 2 for x in xs
    )
    reports.append(
        VerificationReport(
            "analysis.ratio_limit.slope",
            [Observation((4.0, -4.0), 2.0, slope, abs(slope - 2.0))],
            0.1,
        )
    )

    for r in (0.5, 1.0, 3.0):
        for theta in (math.pi / 6.0, math.pi / 3.0, 3.0 * math.pi / 4.0):
            rep = verify_derivative_at_zero(r, theta)
            name = f"analysis.derivative_at_zero.r={r:g}.theta={theta:.3f}"
            reports.append(rep._replace(check_name=name))

    for r in (0.25, 1.0, 4.0):
        t_max = (math.pi / r - 1e-3) ** 2
        rep = verify_monotone_in_K(r, _linspace(-25.0, t_max, 1000))
        reports.append(rep._replace(check_name=f"analysis.monotonicity.r={r:g}"))

    obs = []
    for r in (0.25, 1.0, 4.0):
        got = cf.geodesic_circle_curvature_dK(0.0, r)
        want = -(r / 3.0)
        obs.append(Observation((0.0, r), want, got, 0.0 if got == want else abs(got - want)))
    reports.append(VerificationReport("analysis.derivative_exact_at_zero", obs, 0.0))

    thetas = (math.pi / 6.0, math.pi / 3.0, math.pi / 2.0, 2.0 * math.pi / 3.0)
    for K in (-4.0, 0.0, 4.0):
        rep = verify_sign_pattern(K, thetas, 1e-2)
        reports.append(rep._replace(check_name=f"analysis.sign_pattern.K={K:g}"))

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
    reports.append(VerificationReport("analysis.seam_agreement", obs, 1e-12))

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
    reports.append(VerificationReport("analysis.seam_continuity", obs, 1e-12))

    obs = []
    for K in (-4.0, -1.0, 0.0, 1.0, 4.0):
        metric = pl.polar_metric(K)
        for r in _jacobi_grid(K):
            (h,) = fit_steps(r, -math.inf, math.inf, STEP_SECOND_FINE)
            d2, _ = richardson_second(metric.sqrtG, r, h)
            residual = abs(d2 + K * metric.sqrtG(r))
            obs.append(Observation((K, r), 0.0, d2, residual))
    reports.append(VerificationReport("analysis.jacobi_residual", obs, 1e-6))

    obs = []
    for K in (-4.0, -1.0, -1e-6, 0.0, 1e-6, 1.0, 4.0):
        grid = _jacobi_grid(K)[::10]
        for r in grid:
            a = pl.circle_curvature(K, r)
            b = cf.geodesic_circle_curvature(K, r)
            obs.append(Observation((K, r), b, a, abs(a - b) / abs(b)))
    reports.append(VerificationReport("analysis.circle_consistency", obs, 1e-13))

    # the quadrature of 1/sqrt(G) is the independent route to the closed trace
    obs = []
    theta = math.pi / 3.0
    cot = math.cos(theta) / math.sin(theta)
    for K in (-1.0, 0.0, 1.0):
        metric = pl.polar_metric(K)
        for r0, r1 in ((0.6, 1.4), (0.3, 0.9)):
            closed = pl.spiral_chart_trace(K, theta, r0, 0.0, r1).u
            integral, _ = gauss_kronrod(lambda s: 1.0 / metric.sqrtG(s), r0, r1, epsabs=1e-13, epsrel=1e-12)
            obs.append(
                Observation((K, r0, r1), cot * integral, closed, abs(closed - cot * integral))
            )
    reports.append(VerificationReport("analysis.polar_trace_quadrature", obs, 1e-10))

    return reports


def run_suites(
    suite: str, mode: str = JET_MODE_ANALYTIC, tol_scale: float = 1.0
) -> list[VerificationReport]:
    """Run one named suite ("forms", "curves", "liouville", "analysis") or
    "all".  mode selects analytic or finite-difference jets for the
    geometry-dependent checks; each check has one tolerance, which holds
    in both modes.  Every report's tolerance is multiplied by tol_scale
    (1.0 leaves it bit for bit).  BadParameter for an unknown suite or
    mode, or a tol_scale that is not a positive finite number."""
    if suite not in SUITES:
        raise BadParameter(f"unknown suite {suite!r}")
    if mode not in (JET_MODE_ANALYTIC, JET_MODE_FD):
        raise BadParameter(f"unknown jet mode {mode!r}")
    if not 0.0 < tol_scale < math.inf:
        raise BadParameter(f"tol_scale must be a positive finite number, got {tol_scale!r}")
    reports: list[VerificationReport] = []
    if suite in ("forms", "all"):
        reports.extend(suite_forms(mode))
    if suite in ("curves", "all"):
        reports.extend(suite_curves(mode))
    if suite in ("liouville", "all"):
        reports.extend(suite_liouville(mode))
    if suite in ("analysis", "all"):
        reports.extend(suite_analysis())
    return [r._replace(tolerance=r.tolerance * tol_scale) for r in reports]
