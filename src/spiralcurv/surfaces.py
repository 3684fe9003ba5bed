"""Surface patches, 2-jets, fundamental forms, Gaussian curvature.

A patch is a map (u, v) -> R^3 on a rectangle, carrying an orientation sign
that fixes which of the two unit normals the rest of the package uses, and
a degeneracy bound on |p_u x p_v| in units of its area.  The patch owns
both: it checks the sign once, when it is built (dataclasses.replace
builds anew), and the jet readers unit_normal, forms_from_jet and
curvature_from_jet take (jet, patch) and read both off it.  The
second-form coefficients are read off the unit normal N and the second
partials, e = -<N, p_uu>, f = -<N, p_uv>, g = -<N, p_vv>, which is the
convention e = <N_u, p_u>, f = <N_u, p_v>, g = <N_v, p_v> because N is
orthogonal to p_u and p_v; flipping the orientation flips (e, f, g)
jointly and leaves the curvature untouched.  gaussian_curvature reads K
off one 2-jet through curvature_from_jet, which the verify battery calls
directly on the flipped orientation of its grid points.  It reads the
forms through forms_from_jet, a straight-line float kernel with
the bits and the raises of first_form, unit_normal and Vec3.dot; it
raises NumericalBreakdown where e, f, g or K is not finite rather than
return them.  The oriented unit normal has one owner, the private float
helper _normal: p_u x p_v, its norm, the degeneracy and overflow raises
and the orientation sign, in the float operations of Vec3.cross, norm
and *.  unit_normal wraps it in a Vec3; forms_from_jet and the curves'
chain-rule kernel read its floats, with the same bits.

Jet2 is a tuple of six plain float triples with a frozen dataclass's
value behaviour (vec.Record), as are Interval, Rect and FormCoefficients;
_replace and _asdict take the place of dataclasses.replace and asdict.
SurfacePatch stays a frozen dataclass, so that every copy passes the
sign check.  A Vec3 is built only where a point leaves the package: by
a surface of revolution's position map and by unit_normal.

Jets can be evaluated analytically (when the patch provides derivatives of
its profile functions; surface_of_revolution binds them with x and z in a
functools.partial of _revolution_jet) or by pure central differences.
eval_jet is the one entry point, and its domain and mode gate also picks
the mode of a call that names none (mode=None): analytic exactly when the
patch carries a jet, else finite differences.  fundamental_forms,
gaussian_curvature and every curve measurement pass their mode to it
unchanged.  Every finite difference takes one Richardson level at steps
fitted into the domain by numdiff.fit_steps from STEP_FIRST_FINE and
STEP_SECOND_FINE, and a jet carries the extrapolated values only.

On a surface of revolution (x(v) cos u, x(v) sin u, z(v)), recognised by
its position map (a functools.partial of _revolution_position over x and
z, as surface_of_revolution builds it), the FD jet is _revolution_jet of
the profile's derivatives by numdiff's richardson_first and
richardson_second along v (_fd_derivatives), with exact cos u and sin u:
the two modes differ only in where x', z', x'', z'' come from.  Any other
position map, such as a chart without that symmetry or a wrapped copy of
the map, is called at 25 stencil points in u and v (_fd_axis), which
_fd_combine differences in one straight-line block with the bits of the
richardson routines.  Both raise NumericalBreakdown where the halved
second step underflows when squared or the jet is not finite.

_jet_grid takes each grid v's profile derivatives, or each axis, once.
_curvature_grid, the forms battery's source of K, recognises a surface of
revolution the same way in both modes and reads K per point in plain
floats, no Jet2, the normal from _normal, from cos, sin once per grid u
and the profile once per grid v; any other grid it reads off the jets of
_jet_grid.  Each grid checks every coordinate before any point is
evaluated, so a coordinate outside the domain raises OutOfDomain first;
otherwise a grid raises the class that the row-major loop of eval_jet and
curvature_from_jet raises first, unless two points fail in different ways.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .errors import BadParameter, DegenerateJet, NumericalBreakdown, OutOfDomain
from .numdiff import STEP_FIRST_FINE, STEP_SECOND_FINE, fit_steps, richardson_first, richardson_second
from .vec import Record, Vec3

_new = tuple.__new__  # a record from one tuple
_isfinite = math.isfinite
_sqrt = math.sqrt

DEGENERACY_THRESHOLD = 1e-12

JET_MODE_ANALYTIC = "analytic"
JET_MODE_FD = "finite_difference"


class Interval(
    Record, namedtuple("_Interval", "lo hi closed_lo closed_hi", defaults=(False, False))
):
    """Closed/open interval; infinite endpoints are always open."""

    __slots__ = ()

    def contains(self, x: float) -> bool:
        if not self.lo <= x <= self.hi:  # also False for nan
            return False
        if x == self.lo and not (self.closed_lo and math.isfinite(self.lo)):
            return False
        if x == self.hi and not (self.closed_hi and math.isfinite(self.hi)):
            return False
        return True


class Rect(Record, namedtuple("_Rect", "u v")):
    """A chart rectangle: an Interval in u and one in v."""

    __slots__ = ()

    def contains(self, u: float, v: float) -> bool:
        return self.u.contains(u) and self.v.contains(v)


class Jet2(Record, namedtuple("_Jet2", "p p_u p_v p_uu p_uv p_vv")):
    """Position and partial derivatives through second order at one point."""

    __slots__ = ()


class FormCoefficients(Record, namedtuple("_FormCoefficients", "E F G e f g")):
    """First (E, F, G) and second (e, f, g) fundamental form coefficients."""

    __slots__ = ()


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
        Analytic 2-jet (u, v) -> Jet2, present for the built-in surfaces:
        a functools.partial of _revolution_jet (see the module docstring).
    known_K : float or None
        The constant Gaussian curvature this patch is supposed to have,
        for downstream cross-checks and for degeneracy_bound; None if not
        constant/known.
    """

    eval: Callable[[float, float], Vec3]
    domain: Rect
    orientation_sign: int = 1
    jet: Callable[[float, float], Jet2] | None = None
    known_K: float | None = None
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

    def __post_init__(self) -> None:
        # the one check of the sign: dataclasses.replace runs it too, and
        # the jet readers trust the field
        if self.orientation_sign not in (1, -1):
            raise BadParameter(f"orientation sign must be +1 or -1, got {self.orientation_sign!r}")


def eval_jet(patch: SurfacePatch, u: float, v: float, mode: str | None = None) -> Jet2:
    """Evaluate the 2-jet of a patch at a chart point.

    Parameters
    ----------
    mode : "analytic", "finite_difference" or None
        None (the default) picks analytic when the patch carries an
        analytic jet and finite differences otherwise.  Analytic mode
        requires the patch to carry an analytic jet.
        Finite-difference mode uses only the position map: central
        differences with step eps**(1/5)*max(1,|coord|) for first
        derivatives and eps**(1/6)*max(1,|coord|) for second ones, one
        Richardson level each (numdiff.STEP_FIRST_FINE and
        STEP_SECOND_FINE), of the profile x, z along v on a surface of
        revolution, else of the position in u and v (see the module
        docstring).  The jet holds no error estimate.

    Raises
    ------
    OutOfDomain
        If (u, v) is outside the domain (closed edges count as inside),
        or if a finite-difference stencil cannot fit inside the domain
        (numdiff.fit_steps raises it).
    BadParameter
        If mode is unknown or "analytic" is requested of a patch without
        an analytic jet.
    """
    if not patch.domain.contains(u, v):
        raise OutOfDomain(f"({u}, {v}) outside domain of {patch.name}")
    if mode is None:
        mode = JET_MODE_FD if patch.jet is None else JET_MODE_ANALYTIC
    if mode == JET_MODE_ANALYTIC:
        if patch.jet is None:
            raise BadParameter(f"{patch.name} has no analytic jet; use finite_difference")
        return patch.jet(u, v)
    if mode != JET_MODE_FD:
        raise BadParameter(f"unknown jet mode {mode!r}")
    profile = _fd_profile(patch, u)
    if profile is not None:
        return _revolution_jet(*profile, u, v)
    dom = patch.domain
    return _fd_combine(patch, _fd_axis(u, dom.u), _fd_axis(v, dom.v))


def _jet_grid(patch: SurfacePatch, us, vs, mode: str | None) -> list:
    """[eval_jet(patch, u, v, mode) for u in us for v in vs], bit for bit.

    With finite differences each grid v's profile derivatives, or each
    _fd_axis, are taken once, before any point is evaluated (see the
    module docstring for the raises).  In any other mode, or on an empty
    grid, the grid is the row-major loop."""
    if mode != JET_MODE_FD or not us:
        return [eval_jet(patch, u, v, mode) for u in us for v in vs]
    dom, profile = patch.domain, _fd_profile(patch, us[0])
    if profile is None:
        axes_u = [_fd_axis(u, dom.u) for u in us]
        axes_v = [_fd_axis(v, dom.v) for v in vs]
        return [_fd_combine(patch, au, av) for au in axes_u for av in axes_v]
    x, z, derivatives = profile
    if not all(map(dom.u.contains, us)):
        raise OutOfDomain(f"a grid point is outside the domain of {patch.name}")
    taken = [(v, lambda _, d=derivatives(v): d) for v in vs]
    return [_revolution_jet(x, z, d, u, v) for u in us for v, d in taken]


def _fd_profile(patch: SurfacePatch, u: float):
    """x, z and the FD derivatives of a surface_of_revolution patch, whose
    position map is a functools.partial of _revolution_position, else
    None.  u names the point in the derivatives' raises."""
    position = patch.eval
    if type(position) is partial and position.func is _revolution_position:
        return (*position.args, partial(_fd_derivatives, patch, u))


def _fd_derivatives(patch: SurfacePatch, u: float, v: float) -> tuple:
    """(x', z', x'', z'') at v of a surface_of_revolution patch's profile:
    richardson_first and richardson_second of x and z at the steps
    fit_steps fits into the v interval.  NumericalBreakdown where the
    halved second step underflows when squared or a derivative is not
    finite, as it is where x or z is (the second differences take v)."""
    x, z = patch.eval.args
    dom = patch.domain.v
    h, h2 = fit_steps(v, dom.lo, dom.hi, STEP_FIRST_FINE, STEP_SECOND_FINE)
    if (h2 / 2.0) * (h2 / 2.0) == 0.0:
        raise NumericalBreakdown(
            f"the second-difference step at ({u}, {v}) in {patch.name} underflows when squared"
        )
    d = (richardson_first(x, v, h)[0], richardson_first(z, v, h)[0],
         richardson_second(x, v, h2)[0], richardson_second(z, v, h2)[0])
    if not all(map(_isfinite, d)):
        raise NumericalBreakdown(f"the FD 2-jet at ({u}, {v}) in {patch.name} is not finite")
    return d


def _fd_axis(x: float, interval: Interval) -> tuple:
    """The axis of an FD jet at chart coordinate x: the steps h, h2 fitted
    into interval (numdiff.fit_steps), their halves, and the 9 abscissae
    x, x + h, x - h, x + h/2, x - h/2 and the same at h2."""
    h, h2 = fit_steps(x, interval.lo, interval.hi, STEP_FIRST_FINE, STEP_SECOND_FINE)
    h_half, h2_half = h / 2.0, h2 / 2.0
    return h, h_half, h2, h2_half, (
        x, x + h, x - h, x + h_half, x - h_half, x + h2, x - h2, x + h2_half, x - h2_half)


def _fd_combine(patch: SurfacePatch, axis_u: tuple, axis_v: tuple) -> Jet2:
    """The FD jet at (u, v) from the _fd_axis of u and of v (see the module
    docstring).  Each component takes the float operations and order of
    numdiff's central_first, central_second or cross stencil at both
    steps, then of extrapolate: richardson_first's, richardson_second's
    and richardson's bits on that component alone.  NumericalBreakdown
    where the squared second step underflows or a component is not
    finite."""
    hu, hu_half, hu2, hu2_half, us = axis_u
    hv, hv_half, hv2, hv2_half, vs = axis_v
    u, v = us[0], vs[0]
    # the second differences divide by the square of the halved step
    h = min(hu2, hv2) / 2.0
    if h * h == 0.0:
        raise NumericalBreakdown(
            f"the second-difference step at ({u}, {v}) in {patch.name} underflows when squared"
        )
    # a: the u abscissae at v, b: the v abscissae at u, m: the cross stencil
    # in the order of _CROSS
    e = patch.eval
    (
        (a1x, a1y, a1z), (a2x, a2y, a2z), (a3x, a3y, a3z), (a4x, a4y, a4z),
        (a5x, a5y, a5z), (a6x, a6y, a6z), (a7x, a7y, a7z), (a8x, a8y, a8z),
    ) = [e(a, v) for a in us[1:]]
    (
        (b1x, b1y, b1z), (b2x, b2y, b2z), (b3x, b3y, b3z), (b4x, b4y, b4z),
        (b5x, b5y, b5z), (b6x, b6y, b6z), (b7x, b7y, b7z), (b8x, b8y, b8z),
    ) = [e(u, b) for b in vs[1:]]
    px, py, pz = e(u, v)
    (
        (m1x, m1y, m1z), (m2x, m2y, m2z), (m3x, m3y, m3z), (m4x, m4y, m4z),
        (m5x, m5y, m5z), (m6x, m6y, m6z), (m7x, m7y, m7z), (m8x, m8y, m8z),
    ) = [e(us[i], vs[j]) for i, j in _CROSS]
    # w, w2: the divisors at the step and at its half; each component is
    # extrapolate(d_h, d_half) = d_half + (d_half - d_h) / 3.0
    w, w2 = 2.0 * hu, 2.0 * hu_half
    pux = (d := (a3x - a4x) / w2) + (d - (a1x - a2x) / w) / 3.0
    puy = (d := (a3y - a4y) / w2) + (d - (a1y - a2y) / w) / 3.0
    puz = (d := (a3z - a4z) / w2) + (d - (a1z - a2z) / w) / 3.0
    w, w2 = 2.0 * hv, 2.0 * hv_half
    pvx = (d := (b3x - b4x) / w2) + (d - (b1x - b2x) / w) / 3.0
    pvy = (d := (b3y - b4y) / w2) + (d - (b1y - b2y) / w) / 3.0
    pvz = (d := (b3z - b4z) / w2) + (d - (b1z - b2z) / w) / 3.0
    qx, qy, qz = 2.0 * px, 2.0 * py, 2.0 * pz
    w, w2 = hu2 * hu2, hu2_half * hu2_half
    puux = (d := ((a7x - qx) + a8x) / w2) + (d - ((a5x - qx) + a6x) / w) / 3.0
    puuy = (d := ((a7y - qy) + a8y) / w2) + (d - ((a5y - qy) + a6y) / w) / 3.0
    puuz = (d := ((a7z - qz) + a8z) / w2) + (d - ((a5z - qz) + a6z) / w) / 3.0
    # the mixed stencil halves both steps together, to the second
    # differences' half steps (numdiff.richardson's 0.5 * h is h / 2.0 exactly)
    w, w2 = 4.0 * hu2 * hv2, 4.0 * hu2_half * hv2_half
    puvx = (d := (((m5x - m6x) - m7x) + m8x) / w2) + (d - (((m1x - m2x) - m3x) + m4x) / w) / 3.0
    puvy = (d := (((m5y - m6y) - m7y) + m8y) / w2) + (d - (((m1y - m2y) - m3y) + m4y) / w) / 3.0
    puvz = (d := (((m5z - m6z) - m7z) + m8z) / w2) + (d - (((m1z - m2z) - m3z) + m4z) / w) / 3.0
    w, w2 = hv2 * hv2, hv2_half * hv2_half
    pvvx = (d := ((b7x - qx) + b8x) / w2) + (d - ((b5x - qx) + b6x) / w) / 3.0
    pvvy = (d := ((b7y - qy) + b8y) / w2) + (d - ((b5y - qy) + b6y) / w) / 3.0
    pvvz = (d := ((b7z - qz) + b8z) / w2) + (d - ((b5z - qz) + b6z) / w) / 3.0
    if not (_isfinite(px) and _isfinite(py) and _isfinite(pz) and _isfinite(pux)
            and _isfinite(puy) and _isfinite(puz) and _isfinite(pvx) and _isfinite(pvy)
            and _isfinite(pvz) and _isfinite(puux) and _isfinite(puuy) and _isfinite(puuz)
            and _isfinite(puvx) and _isfinite(puvy) and _isfinite(puvz) and _isfinite(pvvx)
            and _isfinite(pvvy) and _isfinite(pvvz)):
        raise NumericalBreakdown(f"the FD 2-jet at ({u}, {v}) in {patch.name} is not finite")
    return _new(Jet2, (
        (px, py, pz), (pux, puy, puz), (pvx, pvy, pvz),
        (puux, puuy, puuz), (puvx, puvy, puvz), (pvvx, pvvy, pvvz),
    ))


# The cross stencil of a jet, as (i, j) into the abscissae of its u and v
# axes: (+h, +k), (+h, -k), (-h, +k), (-h, -k) at the second-difference
# steps, then at their halves.
_CROSS = ((5, 5), (5, 6), (6, 5), (6, 6), (7, 7), (7, 8), (8, 7), (8, 8))


def unit_normal(jet: Jet2, patch: SurfacePatch) -> Vec3:
    """Unit normal of patch at the point of its 2-jet, from p_u and p_v,
    oriented by patch.orientation_sign.

    Raises DegenerateJet when |p_u x p_v| < patch.degeneracy_bound, which
    grows with the square of the surface's size.  Raises
    NumericalBreakdown when |p_u x p_v| overflows, which it does on a
    sphere or tractroid of radius above about 1e77.
    """
    return _new(Vec3, _normal(jet.p_u, jet.p_v, patch))


def _normal(p_u, p_v, patch: SurfacePatch) -> tuple[float, float, float]:
    """The components of unit_normal, with its raises: p_u.cross(p_v), its
    norm() and the scale by orientation_sign / norm in the float
    operations of Vec3, so the same bits."""
    x, y, z = p_u
    a, b, c = p_v
    cx, cy, cz = y * c - z * b, z * a - x * c, x * b - y * a
    n = _sqrt(cx * cx + cy * cy + cz * cz)
    if n < patch.degeneracy_bound:
        raise DegenerateJet(f"|p_u x p_v| = {n:.3e} below degeneracy threshold")
    if not _isfinite(n):
        raise NumericalBreakdown("|p_u x p_v| overflows")
    s = patch.orientation_sign / n
    return cx * s, cy * s, cz * s


def fundamental_forms(
    patch: SurfacePatch, u: float, v: float, mode: str | None = None
) -> FormCoefficients:
    """First and second fundamental form coefficients at a chart point.

    The second form is e, f, g = -<N, p_uu>, -<N, p_uv>, -<N, p_vv>, with N
    the oriented unit normal, so the same code path serves analytic and
    finite-difference jets.  mode is eval_jet's.
    """
    jet = eval_jet(patch, u, v, mode)
    return FormCoefficients(*forms_from_jet(jet, patch))


def first_form(jet: Jet2) -> tuple[float, float, float]:
    """First fundamental form (E, F, G) from a 2-jet's p_u and p_v, in the
    float operations of Vec3.dot."""
    x, y, z = jet.p_u
    a, b, c = jet.p_v
    return x * x + y * y + z * z, x * a + y * b + z * c, a * a + b * b + c * c


def forms_from_jet(
    jet: Jet2, patch: SurfacePatch
) -> tuple[float, float, float, float, float, float]:
    """(E, F, G, e, f, g) from a 2-jet of patch, the second form oriented
    by patch.orientation_sign.

    A straight-line float kernel: first_form, the normal of unit_normal
    and the three Vec3.dot of e, f, g in the float operations of Vec3.dot,
    so the same bits, and unit_normal's raises.  NumericalBreakdown also
    when e, f or g, or else E, F or G, is not finite.
    """
    _, p_u, p_v, (uu0, uu1, uu2), (uv0, uv1, uv2), (vv0, vv1, vv2) = jet
    E, F, G = first_form(jet)
    nx, ny, nz = _normal(p_u, p_v, patch)
    e = -(nx * uu0 + ny * uu1 + nz * uu2)
    f = -(nx * uv0 + ny * uv1 + nz * uv2)
    g = -(nx * vv0 + ny * vv1 + nz * vv2)
    if not (_isfinite(e) and _isfinite(f) and _isfinite(g)):
        raise NumericalBreakdown(f"second form e={e!r}, f={f!r}, g={g!r} is not finite")
    if not (_isfinite(E) and _isfinite(F) and _isfinite(G)):
        raise NumericalBreakdown(f"first form E={E!r}, F={F!r}, G={G!r} is not finite")
    return E, F, G, e, f, g


def gaussian_curvature(patch: SurfacePatch, u: float, v: float, mode: str | None = None) -> float:
    """K = (e*g - f^2) / (E*G - F^2)."""
    jet = eval_jet(patch, u, v, mode)
    return curvature_from_jet(jet, patch)


def _first_form_det(E: float, F: float, G: float) -> float:
    """E*G - F^2 of a first form: DegenerateJet when it or E is not
    positive (the form is not positive definite), NumericalBreakdown when
    it overflows."""
    det = E * G - F * F
    if det <= 0.0 or E <= 0.0:
        raise DegenerateJet("first form is not positive definite")
    if not _isfinite(det):
        raise NumericalBreakdown("E*G - F^2 overflows")
    return det


def curvature_from_jet(jet: Jet2, patch: SurfacePatch) -> float:
    """K = (e*g - f^2) / (E*G - F^2) from a 2-jet of patch, the forms
    oriented by patch.orientation_sign, which cancels in K.  DegenerateJet
    when |p_u x p_v| < patch.degeneracy_bound (see unit_normal) or the
    first form is not positive definite,
    NumericalBreakdown when |p_u x p_v| or E*G - F^2 overflows, when e, f
    or g is not finite, or when K is not (e*g - f^2 overflows)."""
    E, F, G, e, f, g = forms_from_jet(jet, patch)
    K = (e * g - f * f) / _first_form_det(E, F, G)
    if not _isfinite(K):
        raise NumericalBreakdown(f"K = (e*g - f^2)/(E*G - F^2) = {K!r} is not finite")
    return K


def _curvature_grid(patch: SurfacePatch, us, vs, mode: str | None) -> list:
    """[curvature_from_jet(eval_jet(patch, u, v, mode), patch) for u in us
    for v in vs], bit for bit.

    A surface_of_revolution patch, in either mode, takes one pass in the
    float operations of _revolution_jet, first_form, forms_from_jet and
    curvature_from_jet, no Jet2 (the tests of _first_form_det imply finite
    E, F, G, and a finite K finite e, f, g); it checks every coordinate
    against the domain first and raises OutOfDomain at one outside it.
    Any other grid reads K off each jet of _jet_grid.  The module
    docstring gives the raises of both routes."""
    jet = patch.jet
    if mode == JET_MODE_ANALYTIC and type(jet) is partial and jet.func is _revolution_jet:
        x, z, derivatives = jet.args
    elif mode == JET_MODE_FD and us and (fd := _fd_profile(patch, us[0])):
        x, z, derivatives = fd
    else:
        return [curvature_from_jet(j, patch) for j in _jet_grid(patch, us, vs, mode)]
    dom = patch.domain
    if not (all(map(dom.u.contains, us)) and all(map(dom.v.contains, vs))):
        raise OutOfDomain(f"a grid point is outside the domain of {patch.name}")
    profile = [(x(v), z(v), *derivatives(v)) for v in vs]  # z(v) for its raises
    Ks = []
    for u in us:
        cu, su = math.cos(u), math.sin(u)
        for r, _, r1, h1, r2, h2 in profile:
            x0, x1, a0, a1 = -r * su, r * cu, r1 * cu, r1 * su  # p_u and p_v
            E = x0 * x0 + x1 * x1 + 0.0 * 0.0
            F = x0 * a0 + x1 * a1 + 0.0 * h1
            G = a0 * a0 + a1 * a1 + h1 * h1
            nx, ny, nz = _normal((x0, x1, 0.0), (a0, a1, h1), patch)
            e = -(nx * (-r * cu) + ny * x0 + nz * 0.0)  # p_uu = (-r cu, -r su, 0)
            f = -(nx * (-r1 * su) + ny * a0 + nz * 0.0)  # p_uv = (-r1 su, r1 cu, 0)
            g = -(nx * (r2 * cu) + ny * (r2 * su) + nz * h2)
            K = (e * g - f * f) / _first_form_det(E, F, G)
            if not _isfinite(K):
                raise NumericalBreakdown(f"K = {K!r} is not finite")
            Ks.append(K)
    return Ks


# ---------------------------------------------------------------------------
# built-in surfaces


def _revolution_position(x, z, u: float, v: float) -> Vec3:
    """The point (x(v) cos u, x(v) sin u, z(v)) of the surface of
    revolution with profile x, z.  surface_of_revolution's position map
    is this function with x and z bound by functools.partial, which the
    FD jets recognise (_fd_profile)."""
    r = x(v)
    return _new(Vec3, (r * math.cos(u), r * math.sin(u), z(v)))


def _revolution_jet(x, z, derivatives, u: float, v: float) -> Jet2:
    """The analytic 2-jet at (u, v) of _revolution_position, from the
    profile's derivatives (x', z', x'', z''); bound as a partial, like it."""
    cu, su = math.cos(u), math.sin(u)
    r, h = x(v), z(v)
    r1, h1, r2, h2 = derivatives(v)
    return _new(
        Jet2,
        (
            (r * cu, r * su, h),
            (-r * su, r * cu, 0.0),
            (r1 * cu, r1 * su, h1),
            (-r * cu, -r * su, 0.0),
            (-r1 * su, r1 * cu, 0.0),
            (r2 * cu, r2 * su, h2),
        ),
    )


def surface_of_revolution(
    x: Callable[[float], float],
    z: Callable[[float], float],
    *,
    derivatives: Callable[[float], tuple[float, float, float, float]] | None = None,
    v_domain,
    orientation_sign: int = 1,
    known_K: float | None = None,
    name: str = "revolution",
) -> SurfacePatch:
    """Surface of revolution (x(v) cos u, x(v) sin u, z(v)).

    derivatives(v) -> (x', z', x'', z''), the profile's derivatives in the
    order of ChartCurve.trace_derivatives, gives the patch an analytic
    jet; without it the patch has finite-difference jets only.  u is the
    revolution angle, on all of (-inf, inf); v_domain may be an Interval
    or a plain (lo, hi) pair, which is taken as open.
    """
    return SurfacePatch(
        eval=partial(_revolution_position, x, z),
        domain=Rect(Interval(-math.inf, math.inf), Interval(*v_domain)),
        orientation_sign=orientation_sign,
        jet=None if derivatives is None else partial(_revolution_jet, x, z, derivatives),
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
        derivatives=lambda v: (1.0, 0.0, 0.0, 0.0),
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

    def derivatives(v: float) -> tuple[float, float, float, float]:
        s, c = math.sin(v), math.cos(v)
        return R * c, -R * s, -R * s, -R * c

    return surface_of_revolution(
        x=lambda v: R * math.sin(v),
        z=lambda v: R * math.cos(v),
        derivatives=derivatives,
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

    def derivatives(v: float) -> tuple[float, float, float, float]:
        s, c = math.sin(v), math.cos(v)
        return R * c, R * c * c / s, -R * s, -R * c * (1.0 + s * s) / (s * s)

    return surface_of_revolution(
        x=lambda v: R * math.sin(v),
        z=lambda v: R * (math.log(math.tan(v / 2.0)) + math.cos(v)),
        derivatives=derivatives,
        v_domain=Interval(v_floor, math.pi / 2, closed_lo=True, closed_hi=True),
        orientation_sign=1,
        known_K=known_K,
        name=f"pseudosphere(R={R:g})",
    )
