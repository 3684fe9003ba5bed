"""Surface patches, frames, 2-jets, fundamental forms, Gaussian curvature.

A patch is a map (u, v) -> R^3 on a rectangle, carrying an orientation sign
that fixes which of the two unit normals the rest of the package uses.  The
second-form coefficients are read off the unit normal N and the second
partials, e = -<N, p_uu>, f = -<N, p_uv>, g = -<N, p_vv>, which is the
convention e = <N_u, p_u>, f = <N_u, p_v>, g = <N_v, p_v> because N is
orthogonal to p_u and p_v; flipping the orientation flips (e, f, g)
jointly and leaves the curvature untouched.  The curvature is read off one
2-jet by curvature_from_jet, which gaussian_curvature calls and which a
caller already holding the jet calls directly: the verify battery reads
both orientations' K off one jet per grid point.

Jets can be evaluated analytically (when the patch provides derivatives of
its profile functions) or by pure central differences of the position map.
Two entry points share one domain and mode gate: eval_jet builds the full
2-jet, which only the second fundamental form (fundamental_forms,
gaussian_curvature) needs; eval_frame returns just p_u and p_v, the
tangent plane that the unit normal and the first form read, which is all
the curve measurements use.  With finite differences a frame takes 8
position evaluations and a 2-jet 25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from .errors import BadParameter, DegenerateJet, NumericalBreakdown, OutOfDomain
from .numdiff import (
    STEP_FIRST,
    STEP_SECOND,
    fit_step,
    richardson,
    richardson_first,
    richardson_second,
    scaled_step,
)
from .vec import Vec3

DEGENERACY_THRESHOLD = 1e-12

JET_MODE_ANALYTIC = "analytic"
JET_MODE_FD = "finite_difference"


@dataclass(frozen=True)
class Interval:
    """Closed/open interval; infinite endpoints are always open."""

    lo: float
    hi: float
    closed_lo: bool = False
    closed_hi: bool = False

    def contains(self, x: float) -> bool:
        if not self.lo <= x <= self.hi:  # also False for nan
            return False
        if x == self.lo and not (self.closed_lo and math.isfinite(self.lo)):
            return False
        if x == self.hi and not (self.closed_hi and math.isfinite(self.hi)):
            return False
        return True


@dataclass(frozen=True)
class Rect:
    u: Interval
    v: Interval

    def contains(self, u: float, v: float) -> bool:
        return self.u.contains(u) and self.v.contains(v)


@dataclass(frozen=True)
class Jet2:
    """Position and partial derivatives through second order at one point."""

    p: Vec3
    p_u: Vec3
    p_v: Vec3
    p_uu: Vec3
    p_uv: Vec3
    p_vv: Vec3


@dataclass(frozen=True)
class Frame:
    """First partials at one point: the tangent plane of the patch."""

    p_u: Vec3
    p_v: Vec3


@dataclass(frozen=True)
class FormCoefficients:
    """First (E, F, G) and second (e, f, g) fundamental form coefficients."""

    E: float
    F: float
    G: float
    e: float
    f: float
    g: float


@dataclass(frozen=True)
class SurfacePatch:
    """A parametrized surface patch.

    Attributes
    ----------
    eval : callable
        Position map (u, v) -> Vec3.
    domain : Rect
        Admissible chart rectangle; closed edges may be evaluated but the
        jet there can be degenerate.
    orientation_sign : int
        +1 or -1; the unit normal is orientation_sign * (p_u x p_v)/|...|.
    jet : callable or None
        Analytic 2-jet (u, v) -> Jet2, present for the built-in surfaces.
    known_K : float or None
        The constant Gaussian curvature this patch is supposed to have,
        for downstream cross-checks and for degeneracy_bound; None if not
        constant/known.
    """

    eval: Callable[[float, float], Vec3]
    domain: Rect
    orientation_sign: int = 1
    jet: Optional[Callable[[float, float], Jet2]] = None
    known_K: Optional[float] = None
    name: str = "patch"

    @property
    def degeneracy_bound(self) -> float:
        """The |p_u x p_v| below which unit_normal calls the chart
        degenerate: 1e-12 in units of the patch's area, so 1e-12 / |K|
        (1e-12 * R^2 for the sphere and tractroid of radius R) when the
        patch has a known nonzero constant curvature K, else the absolute
        1e-12 (the plane has no length of its own).  A patch and its copy
        scaled by any factor thus degenerate at the same chart points."""
        K = self.known_K
        return DEGENERACY_THRESHOLD / abs(K) if K else DEGENERACY_THRESHOLD


def eval_jet(patch: SurfacePatch, u: float, v: float, mode: str = JET_MODE_ANALYTIC) -> Jet2:
    """Evaluate the 2-jet of a patch at a chart point.

    Parameters
    ----------
    mode : "analytic" or "finite_difference"
        Analytic mode requires the patch to carry an analytic jet.
        Finite-difference mode uses only the position map: central
        differences with step cbrt(eps)*max(1,|coord|) for first partials
        and the fourth root for second partials, one Richardson level each.

    Raises
    ------
    OutOfDomain
        If (u, v) is outside the domain (closed edges count as inside),
        or if a finite-difference stencil cannot fit inside the domain.
    BadParameter
        If mode is unknown or analytic mode is requested without an
        analytic jet.
    """
    if _analytic(patch, u, v, mode):
        return patch.jet(u, v)
    return _fd_jet(patch, u, v)


def eval_frame(
    patch: SurfacePatch, u: float, v: float, mode: str = JET_MODE_ANALYTIC
) -> Frame | Jet2:
    """Evaluate the first partials p_u, p_v of a patch at a chart point.

    The tangent plane is all that the unit normal and the first form
    need.  Analytic mode returns the patch's own Jet2; finite-difference
    mode differences the position only for p_u and p_v, with the steps
    and arithmetic of eval_jet's first partials, so both modes give the
    same bits as eval_jet's p_u and p_v.  Raises like eval_jet.
    """
    if _analytic(patch, u, v, mode):
        return patch.jet(u, v)
    return _fd_frame(patch, u, v)


def _analytic(patch: SurfacePatch, u: float, v: float, mode: str) -> bool:
    """The domain and mode gate of eval_jet and eval_frame: True for the
    analytic jet, False for finite differences."""
    if not patch.domain.contains(u, v):
        raise OutOfDomain(f"({u}, {v}) outside domain of {patch.name}")
    if mode == JET_MODE_ANALYTIC:
        if patch.jet is None:
            raise BadParameter(f"{patch.name} has no analytic jet; use finite_difference")
        return True
    if mode != JET_MODE_FD:
        raise BadParameter(f"unknown jet mode {mode!r}")
    return False


def _fd_steps(patch: SurfacePatch, u: float, v: float, rel: float):
    dom = patch.domain
    hu = fit_step(scaled_step(u, rel), u, dom.u.lo, dom.u.hi)
    hv = fit_step(scaled_step(v, rel), v, dom.v.lo, dom.v.hi)
    if min(hu, hv) <= 0.0:
        raise OutOfDomain(
            f"no room for finite-difference stencil at ({u}, {v}) in {patch.name}"
        )
    return hu, hv


def _fd_frame(patch: SurfacePatch, u: float, v: float) -> Frame:
    hu, hv = _fd_steps(patch, u, v, STEP_FIRST)
    p_u = richardson_first(lambda uu: patch.eval(uu, v), u, hu)[0]
    p_v = richardson_first(lambda vv: patch.eval(u, vv), v, hv)[0]
    return Frame(p_u=p_u, p_v=p_v)


def _fd_jet(patch: SurfacePatch, u: float, v: float) -> Jet2:
    # both step pairs fit the same room, so they fail this gate together
    hu2, hv2 = _fd_steps(patch, u, v, STEP_SECOND)
    # the second differences divide by the square of the halved step
    h = min(hu2, hv2) / 2.0
    if h * h == 0.0:
        raise NumericalBreakdown(
            f"the second-difference step at ({u}, {v}) in {patch.name} underflows when squared"
        )
    frame = _fd_frame(patch, u, v)
    # the centre is evaluated once, for p and both second differences
    p = patch.eval(u, v)
    p_uu = richardson_second(lambda uu: p if uu == u else patch.eval(uu, v), u, hu2)[0]
    p_vv = richardson_second(lambda vv: p if vv == v else patch.eval(u, vv), v, hv2)[0]
    # the mixed stencil halves both steps together: extrapolate in their scale c
    p_uv = richardson(lambda c: _cross_stencil(patch, u, v, c * hu2, c * hv2), 1.0)[0]
    return Jet2(p=p, p_u=frame.p_u, p_v=frame.p_v, p_uu=p_uu, p_uv=p_uv, p_vv=p_vv)


def _cross_stencil(patch, u, v, h, k):
    e = patch.eval
    return (
        e(u + h, v + k) - e(u + h, v - k) - e(u - h, v + k) + e(u - h, v - k)
    ) / (4.0 * h * k)


def unit_normal(jet: Frame | Jet2, sign: int, bound: float = DEGENERACY_THRESHOLD) -> Vec3:
    """Unit normal for the given orientation sign, from a Frame or a Jet2.

    Raises DegenerateJet when |p_u x p_v| < bound.  The default is the
    absolute 1e-12; the callers that know the patch pass its
    degeneracy_bound, which grows with the square of the surface's size.
    """
    if sign not in (1, -1):
        raise BadParameter("orientation sign must be +1 or -1")
    c = jet.p_u.cross(jet.p_v)
    n = c.norm()
    if n < bound:
        raise DegenerateJet(f"|p_u x p_v| = {n:.3e} below degeneracy threshold")
    return c * (sign / n)


def fundamental_forms(
    patch: SurfacePatch, u: float, v: float, mode: Optional[str] = None
) -> FormCoefficients:
    """First and second fundamental form coefficients at a chart point.

    The second form is e, f, g = -<N, p_uu>, -<N, p_uv>, -<N, p_vv>, with N
    the oriented unit normal, so the same code path serves analytic and
    finite-difference jets.  mode=None picks analytic when the patch has
    one.
    """
    jet = eval_jet(patch, u, v, _pick_mode(patch, mode))
    return forms_from_jet(jet, patch.orientation_sign, patch.degeneracy_bound)


def first_form(frame: Frame | Jet2) -> Tuple[float, float, float]:
    """First fundamental form (E, F, G) from a Frame or a Jet2."""
    p_u, p_v = frame.p_u, frame.p_v
    return p_u.dot(p_u), p_u.dot(p_v), p_v.dot(p_v)


def forms_from_jet(
    jet: Jet2, sign: int, bound: float = DEGENERACY_THRESHOLD
) -> FormCoefficients:
    E, F, G = first_form(jet)
    n = unit_normal(jet, sign, bound)
    return FormCoefficients(
        E=E, F=F, G=G, e=-n.dot(jet.p_uu), f=-n.dot(jet.p_uv), g=-n.dot(jet.p_vv)
    )


def gaussian_curvature(
    patch: SurfacePatch, u: float, v: float, mode: Optional[str] = None
) -> float:
    """K = (e*g - f^2) / (E*G - F^2)."""
    jet = eval_jet(patch, u, v, _pick_mode(patch, mode))
    return curvature_from_jet(jet, patch.orientation_sign, patch.degeneracy_bound)


def curvature_from_jet(jet: Jet2, sign: int, bound: float = DEGENERACY_THRESHOLD) -> float:
    """K = (e*g - f^2) / (E*G - F^2) from a 2-jet, the forms oriented by
    sign; the sign cancels in K.  DegenerateJet when |p_u x p_v| < bound
    (see unit_normal) or the first form is not positive definite."""
    forms = forms_from_jet(jet, sign, bound)
    denom = forms.E * forms.G - forms.F * forms.F
    if denom <= 0.0:
        raise DegenerateJet("first form is not positive definite")
    return (forms.e * forms.g - forms.f * forms.f) / denom


def _pick_mode(patch: SurfacePatch, mode: Optional[str]) -> str:
    if mode is not None:
        return mode
    return JET_MODE_ANALYTIC if patch.jet is not None else JET_MODE_FD


# ---------------------------------------------------------------------------
# built-in surfaces


def surface_of_revolution(
    x: Callable[[float], float],
    z: Callable[[float], float],
    *,
    dx: Optional[Callable[[float], float]] = None,
    d2x: Optional[Callable[[float], float]] = None,
    dz: Optional[Callable[[float], float]] = None,
    d2z: Optional[Callable[[float], float]] = None,
    v_domain,
    u_domain=Interval(-math.inf, math.inf),
    orientation_sign: int = 1,
    known_K: Optional[float] = None,
    name: str = "revolution",
) -> SurfacePatch:
    """Surface of revolution (x(v) cos u, x(v) sin u, z(v)).

    When all four profile derivatives are supplied the patch carries an
    analytic jet; otherwise only finite-difference jets are available.
    Domains may be Interval instances or plain (lo, hi) pairs, which are
    taken as open intervals.
    """
    if not isinstance(v_domain, Interval):
        v_domain = Interval(*v_domain)
    if not isinstance(u_domain, Interval):
        u_domain = Interval(*u_domain)

    def position(u: float, v: float) -> Vec3:
        r = x(v)
        return Vec3(r * math.cos(u), r * math.sin(u), z(v))

    jet = None
    if all(fn is not None for fn in (dx, d2x, dz, d2z)):

        def jet(u: float, v: float) -> Jet2:
            cu, su = math.cos(u), math.sin(u)
            r, r1, r2 = x(v), dx(v), d2x(v)
            h, h1, h2 = z(v), dz(v), d2z(v)
            return Jet2(
                p=Vec3(r * cu, r * su, h),
                p_u=Vec3(-r * su, r * cu, 0.0),
                p_v=Vec3(r1 * cu, r1 * su, h1),
                p_uu=Vec3(-r * cu, -r * su, 0.0),
                p_uv=Vec3(-r1 * su, r1 * cu, 0.0),
                p_vv=Vec3(r2 * cu, r2 * su, h2),
            )

    return SurfacePatch(
        eval=position,
        domain=Rect(u=u_domain, v=v_domain),
        orientation_sign=orientation_sign,
        jet=jet,
        known_K=known_K,
        name=name,
    )


def _inverse_square(R: float, surface: str) -> float:
    """1/R^2, the magnitude of the curvature of a surface of radius R.

    BadParameter unless R > 0 and 1/R^2 is a finite nonzero float, which
    fails for R below about 7e-155 (inf) and above about 1.3e154 (0).
    """
    if R <= 0.0:
        raise BadParameter(f"{surface} radius must be positive")
    R2 = R * R
    k = 1.0 / R2 if R2 > 0.0 else math.inf
    if not 0.0 < k < math.inf:
        raise BadParameter(f"{surface} radius R={R} has no finite nonzero curvature 1/R^2")
    return k


def plane_patch() -> SurfacePatch:
    """Flat plane in polar-style coordinates (v cos u, v sin u, 0), v > 0.

    Oriented so the unit normal is (0, 0, 1); with chart order (angle,
    radius) that requires orientation_sign = -1.
    """
    return surface_of_revolution(
        x=lambda v: v,
        z=lambda v: 0.0,
        dx=lambda v: 1.0,
        d2x=lambda v: 0.0,
        dz=lambda v: 0.0,
        d2z=lambda v: 0.0,
        v_domain=Interval(0.0, math.inf),
        orientation_sign=-1,
        known_K=0.0,
        name="plane",
    )


def sphere_patch(R: float = 1.0) -> SurfacePatch:
    """Round sphere of radius R, chart (u, v) = (longitude, colatitude).

    Oriented by the outward normal, which for this chart order is
    -(p_u x p_v)/|p_u x p_v|.
    """
    known_K = _inverse_square(R, "sphere")
    return surface_of_revolution(
        x=lambda v: R * math.sin(v),
        z=lambda v: R * math.cos(v),
        dx=lambda v: R * math.cos(v),
        d2x=lambda v: -R * math.sin(v),
        dz=lambda v: -R * math.sin(v),
        d2z=lambda v: -R * math.cos(v),
        v_domain=Interval(0.0, math.pi),
        orientation_sign=-1,
        known_K=known_K,
        name=f"sphere(R={R:g})",
    )


def pseudosphere_patch(R: float = 1.0, v_floor: float = 1e-3) -> SurfacePatch:
    """Tractroid of constant curvature -1/R^2.

    Chart (u, v) with v in [v_floor, pi/2]; the rim v = pi/2 is a closed
    edge where the position is fine but the jet is degenerate (the chart
    collapses along the cusp circle).  Oriented by the outward normal,
    which for this chart order is +(p_u x p_v)/|p_u x p_v|.
    """
    known_K = -_inverse_square(R, "pseudosphere")
    if not 0.0 < v_floor < math.pi / 2:
        raise BadParameter("v_floor must lie in (0, pi/2)")

    def z(v: float) -> float:
        return R * (math.log(math.tan(v / 2.0)) + math.cos(v))

    def dz(v: float) -> float:
        s = math.sin(v)
        c = math.cos(v)
        return R * c * c / s

    def d2z(v: float) -> float:
        s = math.sin(v)
        c = math.cos(v)
        return -R * c * (1.0 + s * s) / (s * s)

    return surface_of_revolution(
        x=lambda v: R * math.sin(v),
        z=z,
        dx=lambda v: R * math.cos(v),
        d2x=lambda v: -R * math.sin(v),
        dz=dz,
        d2z=d2z,
        v_domain=Interval(v_floor, math.pi / 2, closed_lo=True, closed_hi=True),
        orientation_sign=1,
        known_K=known_K,
        name=f"pseudosphere(R={R:g})",
    )
