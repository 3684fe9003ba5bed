import collections
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiralcurv import (
    BadParameter,
    DegenerateJet,
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    OutOfDomain,
    Vec3,
    eval_jet,
    fundamental_forms,
    gaussian_curvature,
    plane_patch,
    pseudosphere_patch,
    sphere_patch,
    surface_of_revolution,
    surfaces,
    unit_normal,
    verify,
)
from spiralcurv.numdiff import (
    STEP_FIRST_FINE,
    STEP_SECOND_FINE,
    fit_steps,
    richardson,
    richardson_first,
    richardson_second,
)
from spiralcurv.curves import MERIDIAN, PARALLEL, coordinate_curve
from spiralcurv.errors import GeometryError, NumericalBreakdown
from spiralcurv.surfaces import (
    Interval,
    Rect,
    SurfacePatch,
    _curvature_grid,
    _jet_grid,
    curvature_from_jet,
)

from test_form_kernel import vec3_jet


ALL_PATCHES = [
    (plane_patch(), 0.0),
    (sphere_patch(0.5), 4.0),
    (sphere_patch(1.0), 1.0),
    (sphere_patch(2.0), 0.25),
    (pseudosphere_patch(0.5), -4.0),
    (pseudosphere_patch(1.0), -1.0),
    (pseudosphere_patch(2.0), -0.25),
]


def _probe(patch):
    if patch.name.startswith("pseudosphere"):
        return 0.8, 0.9
    if patch.name.startswith("sphere"):
        return 0.8, 1.1
    return 0.8, 1.7


def _fd_jet_ndarray(patch, u, v):
    """The finite-difference jet with every position taken as an ndarray,
    each component differenced and extrapolated by the scalar routines."""
    dom = patch.domain
    hu1, hu2 = fit_steps(u, dom.u.lo, dom.u.hi, STEP_FIRST_FINE, STEP_SECOND_FINE)
    hv1, hv2 = fit_steps(v, dom.v.lo, dom.v.hi, STEP_FIRST_FINE, STEP_SECOND_FINE)
    e = lambda uu, vv: np.array(patch.eval(uu, vv))
    fu = lambda uu: e(uu, v)
    fv = lambda vv: e(u, vv)

    def cross(c):
        h, k = c * hu2, c * hv2
        return (e(u + h, v + k) - e(u + h, v - k) - e(u - h, v + k) + e(u - h, v - k)) / (
            4.0 * h * k
        )

    def each(rich, f, *at):
        return np.array([rich(lambda s: f(s)[i], *at)[0] for i in range(3)])

    return {
        "p": e(u, v),
        "p_u": each(richardson_first, fu, u, hu1),
        "p_v": each(richardson_first, fv, v, hv1),
        "p_uu": each(richardson_second, fu, u, hu2),
        "p_uv": each(richardson, cross, 1.0),
        "p_vv": each(richardson_second, fv, v, hv2),
    }


def fd_profile_jet(patch, u, v):
    """The finite-difference jet of a surface of revolution from the scalar
    routines on its profile: richardson_first and richardson_second of x
    and z along v at the steps fit_steps fits into the v interval, and
    the jet of (x cos u, x sin u, z) with those derivatives and exact
    cos u and sin u.  u takes no step."""
    x, z = patch.eval.args
    dom = patch.domain.v
    h, h2 = fit_steps(v, dom.lo, dom.hi, STEP_FIRST_FINE, STEP_SECOND_FINE)
    x1, z1 = richardson_first(x, v, h)[0], richardson_first(z, v, h)[0]
    x2, z2 = richardson_second(x, v, h2)[0], richardson_second(z, v, h2)[0]
    c, s, r = math.cos(u), math.sin(u), x(v)
    return {
        "p": (r * c, r * s, z(v)),
        "p_u": (-r * s, r * c, 0.0),
        "p_v": (x1 * c, x1 * s, z1),
        "p_uu": (-r * c, -r * s, 0.0),
        "p_uv": (-x1 * s, x1 * c, 0.0),
        "p_vv": (x2 * c, x2 * s, z2),
    }


def _fd_reference(patch):
    """The reference of the FD jet's route: the profile's differences on a
    surface_of_revolution patch, the ndarray stencil on any other map."""
    return fd_profile_jet if isinstance(patch.eval, functools.partial) else _fd_jet_ndarray


def _assert_fd_kernel_is_reference(patch, points):
    """The FD jet at each point carries the bits of its route's reference."""
    reference = _fd_reference(patch)
    for u, v in points:
        ref = reference(patch, u, v)
        jet = eval_jet(patch, u, v, JET_MODE_FD)
        for field, want in ref.items():
            assert tuple(np.array(getattr(jet, field))) == tuple(want), (u, v, field)


# a chart without the symmetry of a surface of revolution: on one, some
# stencil sums are exactly 0 (the cross stencil of z), so this chart varies
# every component with both u and v
SKEW = SurfacePatch(
    eval=lambda u, v: Vec3(
        math.exp(0.3 * u) * math.cos(v) + u * v,
        math.sin(u * v) + v * v * v,
        u * u * v - math.cos(u + 2.0 * v),
    ),
    domain=Rect(Interval(-2.0, 2.0), Interval(0.1, 3.0)),
    name="skew",
)
SKEW_US = (-1.9, -0.7, 0.0, 0.45, 1.3, 2.0 - 1e-3)
SKEW_VS = (0.1 + 1e-3, 0.6, 1.7, 2.9)


class TestGaussianCurvature:
    @pytest.mark.parametrize("patch,K", ALL_PATCHES)
    def test_analytic_jets(self, patch, K):
        u, v = _probe(patch)
        got = gaussian_curvature(patch, u, v)
        if K == 0.0:
            assert abs(got) < 1e-12
        else:
            assert got == pytest.approx(K, rel=1e-12)

    @pytest.mark.parametrize("patch,K", ALL_PATCHES)
    def test_fd_jets(self, patch, K):
        u, v = _probe(patch)
        got = gaussian_curvature(patch, u, v, JET_MODE_FD)
        if K == 0.0:
            assert abs(got) < 1e-8
        else:
            assert got == pytest.approx(K, rel=1e-6)

    @pytest.mark.parametrize("patch,K", ALL_PATCHES)
    def test_orientation_flip_leaves_K(self, patch, K):
        u, v = _probe(patch)
        flipped = dataclasses.replace(patch, orientation_sign=-patch.orientation_sign)
        assert gaussian_curvature(patch, u, v) == gaussian_curvature(flipped, u, v)

    def test_constant_over_grid(self):
        patch = pseudosphere_patch(1.0)
        vals = [
            gaussian_curvature(patch, u, v)
            for u in np.linspace(0.0, 6.0, 8)
            for v in np.linspace(0.05, 1.5, 8)
        ]
        assert max(abs(x + 1.0) for x in vals) < 1e-9


class TestJets:
    def test_fd_matches_analytic(self):
        for patch, _ in ALL_PATCHES:
            u, v = _probe(patch)
            an = vec3_jet(eval_jet(patch, u, v, JET_MODE_ANALYTIC))
            fd = vec3_jet(eval_jet(patch, u, v, JET_MODE_FD))
            for name in ("p", "p_u", "p_v", "p_uu", "p_uv", "p_vv"):
                a = getattr(an, name)
                f = getattr(fd, name)
                assert (f - a).norm() <= 1e-6 * max(1.0, a.norm())

    @pytest.mark.parametrize(
        "name", ["sphere(R=0.5)", "sphere(R=1)", "sphere(R=2)",
                 "pseudosphere(R=0.5)", "pseudosphere(R=1)", "pseudosphere(R=2)"]
    )
    def test_fd_jet_within_1e9_of_the_analytic_jet_on_the_battery_grids(self, name):
        # one Richardson level on steps eps^(1/5) and eps^(1/6): every field
        # within 1e-9 of the analytic jet, relative to max(1, |field|).
        # The tractroid's two lowest rows (v = 0.1 and 0.17) are held to
        # 5e-8: z = log tan(v/2) + cos v has a sixth derivative of order
        # 1/v^6 there, so the h^4 truncation of the extrapolated second
        # difference at the fixed relative step 2.5e-3 dominates
        (patch, us, vs), = [b for b in verify._patches() if b[0].name == name]
        for j, v in enumerate(vs):
            tol = 5e-8 if name.startswith("pseudosphere") and j < 2 else 1e-9
            for u in us:
                an = vec3_jet(eval_jet(patch, u, v, JET_MODE_ANALYTIC))
                fd = vec3_jet(eval_jet(patch, u, v, JET_MODE_FD))
                for field, a, f in zip(an._fields, an, fd):
                    assert (f - a).norm() <= tol * max(1.0, a.norm()), (u, v, field)

    @pytest.mark.parametrize("patch", [p for p, _ in ALL_PATCHES], ids=lambda p: p.name)
    def test_fd_jet_bit_identical_to_ndarray_stencil(self, patch):
        # the FD jet of a surface of revolution differences its profile;
        # the scalar routines on x and z give the same bits, also next to
        # the edges of the chart, where fit_steps shrinks the steps
        u, v = _probe(patch)
        dom = patch.domain.v
        _assert_fd_kernel_is_reference(
            patch, [(u, vv) for vv in (v, dom.lo + 1e-3, min(dom.hi, 3.0) - 1e-3)])

    @pytest.mark.parametrize(
        "name", ["sphere(R=0.5)", "sphere(R=2)", "pseudosphere(R=0.5)", "pseudosphere(R=2)"]
    )
    def test_fd_kernel_bit_identical_on_battery_patches(self, name):
        # the verify battery's scaled patches, at the corners of its grid
        # and two inner points: the jet gives the profile reference's bits
        (patch, us, vs), = [b for b in verify._patches() if b[0].name == name]
        corners = ((0, 0), (0, -1), (-1, 0), (-1, -1), (10, 10), (7, 13))
        _assert_fd_kernel_is_reference(patch, [(us[i], vs[j]) for i, j in corners])

    def test_fd_kernel_bit_identical_on_a_chart_without_symmetry(self):
        # on a surface of revolution some stencil sums are exactly 0 (the
        # cross stencil of z), so this chart varies every component with
        # both u and v
        grid = [(u, v) for u in SKEW_US for v in SKEW_VS]
        _assert_fd_kernel_is_reference(SKEW, grid)

    @pytest.mark.parametrize("patch", [p for p, _ in ALL_PATCHES], ids=lambda p: p.name)
    def test_fd_stencil_evaluates_each_point_once(self, patch):
        points = []

        def counted(u, v):
            points.append((u, v))
            return patch.eval(u, v)

        counting = dataclasses.replace(patch, eval=counted)
        u, v = _probe(patch)
        eval_jet(counting, u, v, JET_MODE_FD)
        assert len(points) == len(set(points)) == 25

    def test_unknown_mode_rejected(self):
        with pytest.raises(BadParameter):
            eval_jet(plane_patch(), 0.0, 1.0, "symbolic")

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            eval_jet(sphere_patch(1.0), 0.0, -0.1)
        with pytest.raises(OutOfDomain):
            eval_jet(sphere_patch(1.0), 0.0, math.pi)
        with pytest.raises(OutOfDomain):
            eval_jet(pseudosphere_patch(1.0), 0.0, 1e-4)

    def test_rim_evaluates_but_normal_degenerates(self):
        # the tractrix rim v = pi/2 is inside the (closed) domain, but the
        # chart is singular there: the jet exists, the normal does not
        patch = pseudosphere_patch(1.0)
        jet = eval_jet(patch, 0.3, math.pi / 2.0)
        assert all(map(math.isfinite, jet.p))
        with pytest.raises(DegenerateJet):
            unit_normal(jet, patch)
        with pytest.raises(DegenerateJet):
            gaussian_curvature(patch, 0.3, math.pi / 2.0)


def _wrapped(patch):
    """The patch with its position map behind a plain function, which the
    FD kernel evaluates at each stencil point (the generic route)."""
    position = patch.eval
    return dataclasses.replace(patch, eval=lambda u, v: position(u, v))


def _bits(obj):
    return tuple(float(c).hex() for name in obj._fields for c in getattr(obj, name))


def _reference_outcome(reference, patch, u, v):
    """The bits of the reference jet at (u, v), or the class it raises, or
    NumericalBreakdown where one of its components is not finite."""
    try:
        with np.errstate(all="ignore"):  # the stencils with inf or nan
            ref = reference(patch, u, v)
    except GeometryError as exc:
        return type(exc)
    if not all(np.isfinite(want).all() for want in ref.values()):
        return NumericalBreakdown
    return tuple(float(c).hex() for want in ref.values() for c in want)


def _fd_outcome(patch, u, v):
    try:
        return _bits(eval_jet(patch, u, v, JET_MODE_FD))
    except GeometryError as exc:
        return type(exc)


def _assert_each_route_is_its_reference(patch, points):
    """FD jets of the patch carry the bits of its route's reference, and
    those of its wrapped copy the bits of the ndarray stencil (the generic
    richardson routines on the position), or each raises its reference's
    class: the profile's differences on a surface of revolution, the
    position's on the copy."""
    generic, reference = _wrapped(patch), _fd_reference(patch)
    for u, v in points:
        assert _fd_outcome(generic, u, v) == _reference_outcome(_fd_jet_ndarray, patch, u, v)
        assert _fd_outcome(patch, u, v) == _reference_outcome(reference, patch, u, v), (u, v)


NOJET = surface_of_revolution(lambda v: 2.0 + math.cos(v), math.sin, v_domain=(0.0, 3.0))


def _spoilt(f, value, where):
    """The profile function f, but value at every v where where(v)."""
    return lambda v: value if where(v) else f(v)


# NOJET's profile with an infinite or nan x or z at some abscissae of the
# stencil at v = 1: the 4 of its 9 above or below 1, or the centre; at
# u = 0, sin u = 0.0 exactly, so an infinite x gives inf * 0.0 = nan
_X, _Z = NOJET.eval.args
_ABOVE, _BELOW, _CENTRE = (lambda v: v > 1.0), (lambda v: v < 1.0), (lambda v: v == 1.0)
NONFINITE = {
    "x=inf-above": (_spoilt(_X, math.inf, _ABOVE), _Z),
    "x=-inf-below": (_spoilt(_X, -math.inf, _BELOW), _Z),
    "x=nan-above": (_spoilt(_X, math.nan, _ABOVE), _Z),
    "x=inf-centre": (_spoilt(_X, math.inf, _CENTRE), _Z),
    "z=-inf-above": (_X, _spoilt(_Z, -math.inf, _ABOVE)),
    "z=inf-below": (_X, _spoilt(_Z, math.inf, _BELOW)),
    "z=nan-below": (_X, _spoilt(_Z, math.nan, _BELOW)),
    "z=nan-centre": (_X, _spoilt(_Z, math.nan, _CENTRE)),
}
# x = -(v - 1) is -0.0 at the centre v = 1, so the stencil's zero
# components carry signs, and z = sin(1 - v) changes sign there
SIGNED_ZERO = surface_of_revolution(
    lambda v: -(v - 1.0), lambda v: math.sin(1.0 - v), v_domain=(0.0, 3.0)
)


# profiles beside the built-in ones: FD only, signed zeros, a non-finite x
# or z at some abscissae, and one out to |v| = 60, where the steps grow with |v|
PROFILES = [NOJET, SIGNED_ZERO,
            *(surface_of_revolution(x, z, v_domain=(0.0, 3.0)) for x, z in NONFINITE.values()),
            surface_of_revolution(lambda v: 1.0 + v * v, math.atan, v_domain=(-40.0, 60.0))]


def _powers(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def kernel_points(draw):
    """A patch, a u and a v anywhere in its v interval, or within 1e-12 to
    1e-3 of either finite end, where fit_steps shrinks the steps."""
    patch = draw(st.one_of(
        st.just(plane_patch()),
        _powers(-3, 3).map(sphere_patch),
        _powers(-3, 3).map(pseudosphere_patch),
        st.sampled_from(PROFILES),
    ))
    lo, hi = patch.domain.v.lo, patch.domain.v.hi
    ends = [_powers(-12, -3).map(lambda d: lo + d)]
    if math.isfinite(hi):
        ends.append(_powers(-12, -3).map(lambda d: hi - d))
    v = draw(st.one_of(st.floats(lo, min(hi, 1e6)), *ends))
    return patch, draw(st.floats(-10.0, 10.0)), v


def _first_calls(log):
    """The profile's calls in the order of their first one."""
    return list(dict.fromkeys(log))


class TestRevolutionKernel:
    """FD jets of a surface of revolution difference the profile along v,
    with exact cos u and sin u; a wrapped position map takes the generic
    route, the position at 25 stencil points."""

    def test_profile_evaluated_once_per_distinct_v(self):
        # once at each abscissa of the two first differences and the two
        # second ones along v, v itself among them: the position takes x
        # and z at v from the second differences
        seen = {"x": [], "z": []}

        def counted(name, f):
            def g(v):
                seen[name].append(v)
                return f(v)
            return g

        patch = surface_of_revolution(
            counted("x", lambda v: 2.0 + math.cos(v)), counted("z", math.sin),
            v_domain=(0.0, 3.0),
        )
        eval_jet(patch, 0.4, 1.2, JET_MODE_FD)
        for name in ("x", "z"):
            counts = collections.Counter(seen[name])
            assert len(counts) == 9 and 1.2 in counts, name
            assert set(counts.values()) == {1}, name

    @pytest.mark.parametrize(
        "patch,points",
        [
            # next to the rim v = pi/2 and the floor v = 1e-3 of the tractroid,
            # where fit_steps shrinks the steps, and on both closed edges
            (pseudosphere_patch(1.0), [(0.3, math.pi / 2 - d) for d in (0.0, 1e-9, 1e-5, 1e-3)]
             + [(0.3, 1e-3 + d) for d in (0.0, 1e-9, 1e-5, 1e-3)]),
            (pseudosphere_patch(2.0), [(-2.5, math.pi / 2 - 1e-7), (6.0, 1e-3 + 1e-7)]),
            # next to both poles of the sphere
            (sphere_patch(1.0), [(u, v) for u in (0.0, 2.0) for v in (
                1e-12, 1e-8, 1e-3, math.pi - 1e-3, math.pi - 1e-8, math.pi - 1e-12)]),
            (sphere_patch(0.5), [(-1.0, 1e-6), (1.0, math.pi - 1e-6)]),
            # FD only: no analytic jet
            (NOJET, [(0.5, 1.0), (-3.0, 1e-6), (3.0, 3.0 - 1e-6), (0.0, 1.5), (1e-3, 1.0)]),
            # a chart without the symmetry, which both routes call per point;
            # at u = 0 its z = -cos(2v) changes sign at v = pi/4, and at the
            # last two points its z crosses a power of 2 along u, so that
            # each order of the second difference rounds its own way
            (SKEW, [(u, v) for u in SKEW_US for v in SKEW_VS]
             + [(0.0, math.pi / 4), (-1.9, 0.11), (-1.75, 0.61)]),
            # profiles with an infinite or nan x or z at some abscissae, and
            # one whose x is -0.0 at the centre
            *((surface_of_revolution(x, z, v_domain=(0.0, 3.0)),
               [(0.0, 1.0), (0.5, 1.0), (-2.0, 1.0)]) for x, z in NONFINITE.values()),
            (SIGNED_ZERO, [(u, 1.0) for u in (0.0, -0.0, 0.5, math.pi / 2, math.pi)]),
        ],
        ids=["pseudosphere(R=1)", "pseudosphere(R=2)", "sphere(R=1)", "sphere(R=0.5)", "nojet",
             "skew", *NONFINITE, "signed-zero"],
    )
    def test_bit_identical_to_the_generic_route_at_the_edges(self, patch, points):
        _assert_each_route_is_its_reference(patch, points)

    @pytest.mark.parametrize("patch", [p for p, _ in ALL_PATCHES] + [NOJET],
                             ids=lambda p: p.name)
    def test_a_wrapped_position_map_gives_the_same_jets(self, patch):
        # the wrapper is called at every stencil point, where it gives the
        # ndarray stencil's bits, and the jets of the two routes agree to
        # 1e-9 of max(1, |field|)
        calls = []
        position = patch.eval

        def counted(u, v):
            calls.append((u, v))
            return position(u, v)

        wrapped = dataclasses.replace(patch, eval=counted)
        u, v = _probe(patch)
        jet = eval_jet(wrapped, u, v, JET_MODE_FD)
        assert len(calls) == 25
        want = _fd_jet_ndarray(patch, u, v)
        assert _bits(jet) == tuple(float(c).hex() for field in want.values() for c in field)
        own = vec3_jet(eval_jet(patch, u, v, JET_MODE_FD))
        for field, a, b in zip(own._fields, own, vec3_jet(jet)):
            assert (a - b).norm() <= 1e-9 * max(1.0, a.norm()), field

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(kernel_points())
    def test_the_kernel_has_the_bits_and_calls_of_numdiff(self, case):
        # the FD jet is fd_profile_jet's (numdiff's routines), or both raise
        # the same class; and the profile is first called at each abscissa
        # in the order of numdiff's calls, 18 calls in all
        patch, u, v = case
        log = []

        def logged(name, f):
            def g(w):
                log.append((name, w.hex()))
                return f(w)
            return g

        counted = surface_of_revolution(
            *map(logged, "xz", patch.eval.args), v_domain=patch.domain.v
        )
        try:
            want = _reference_outcome(fd_profile_jet, counted, u, v)
        except ZeroDivisionError:  # numdiff's, where the squared half step underflows
            want, log[:] = NumericalBreakdown, []
        calls, log[:] = _first_calls(log), []
        assert _fd_outcome(patch, u, v) == want
        try:
            surfaces._fd_derivatives(counted, u, v)
        except GeometryError:
            pass
        assert _first_calls(log) == calls
        assert len(log) == (18 if calls else 0)


@pytest.mark.parametrize("v_domain,v_range", [
    ((0.0, 3.0), Interval(0.0, 3.0)),
    (Interval(0.0, 3.0, True, False), Interval(0.0, 3.0, True, False)),
], ids=["pair", "interval"])
def test_revolution_u_range_is_the_whole_angle(v_domain, v_range):
    # u is the revolution angle on all of (-inf, inf); there is no knob for it
    patch = surface_of_revolution(lambda v: 2.0 + math.cos(v), math.sin, v_domain=v_domain)
    assert patch.domain == Rect(Interval(-math.inf, math.inf), v_range)
    with pytest.raises(TypeError, match="u_domain"):
        surface_of_revolution(math.sin, math.cos, v_domain=v_domain, u_domain=(0.0, 1.0))


def _row_major(patch, us, vs, mode):
    """The jets of eval_jet over the grid, row-major, or the type and
    message of the first exception it raises."""
    try:
        return [_bits(eval_jet(patch, u, v, mode)) for u in us for v in vs]
    except Exception as exc:
        return type(exc), str(exc)


def _grid(patch, us, vs, mode):
    try:
        return [_bits(jet) for jet in _jet_grid(patch, us, vs, mode)]
    except Exception as exc:
        return type(exc), str(exc)


# grids of charts other than the battery's, which the FD kernel evaluates
# at each stencil point or which have no analytic jet
OTHER_GRIDS = {
    "skew": (SKEW, SKEW_US, SKEW_VS),
    "wrapped-sphere": (
        _wrapped(sphere_patch(2.0)), (0.0, 1.5, 6.0), (1e-3, 0.4, 2.0, math.pi - 1e-9)
    ),
    "wrapped-pseudosphere": (
        _wrapped(pseudosphere_patch(1.0)), (-3.0, 0.2), (1e-3 + 1e-9, 0.7, math.pi / 2 - 1e-6)
    ),
    "nojet": (NOJET, (-1.0, 0.0, 2.5), (1e-6, 1.5, 3.0 - 1e-6)),
}

# grids at the edges of the charts, where the row-major loop raises in
# one jet mode or in both
EDGE_GRIDS = {
    # u outside the chart, and v outside it at the first u, which the
    # row-major loop meets first
    "u": (SKEW, (0.0, 2.5), (0.5,)),
    "v-before-u": (SKEW, (0.0, 2.5), (0.5, 3.5)),
    # v below the tractroid's floor; on its rim, the point is in the domain
    # but no FD stencil fits
    "v-floor": (pseudosphere_patch(1.0), (0.5, 1.0), (1.0, 1e-4, math.pi / 2)),
    "rim": (pseudosphere_patch(1.0), (0.5, 1.0), (1.0, math.pi / 2)),
    "wrapped-rim": (_wrapped(pseudosphere_patch(1.0)), (0.5,), (1.0, math.pi / 2)),
    # a step that underflows when squared, next to the plane's origin
    "underflow": (plane_patch(), (0.0, 1.0), (1.0, 1e-200)),
    "nan": (sphere_patch(1.0), (0.0, math.nan), (1.0,)),
}


def _faulty_first_call(f):
    """f, but its first call raises TypeError, as a fault in a profile
    would; a rerun of the grid would meet no fault."""
    calls = []

    def g(v):
        calls.append(v)
        if len(calls) == 1:
            raise TypeError("fault in the profile")
        return f(v)

    return g


class TestJetGrid:
    """_jet_grid gives the jets of eval_jet at every point of a grid, bit
    for bit.  With finite differences a coordinate outside the domain
    raises OutOfDomain before any point is evaluated; otherwise the grid
    raises the class that the row-major loop of eval_jet raises first."""

    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_eval_jet_on_the_battery_grids(self, mode):
        for patch, us, vs in verify._patches():
            want = _row_major(patch, us, vs, mode)
            assert len(want) == len(us) * len(vs) == 400
            assert _grid(patch, us, vs, mode) == want, patch.name

    @pytest.mark.parametrize("name", OTHER_GRIDS)
    def test_eval_jet_on_other_charts(self, name):
        patch, us, vs = OTHER_GRIDS[name]
        want = _row_major(patch, us, vs, JET_MODE_FD)
        assert len(want) == len(us) * len(vs)
        assert _grid(patch, us, vs, JET_MODE_FD) == want

    # what the row-major loop raises on each edge grid in analytic mode and
    # with finite differences; None where it raises nothing
    RAISES = {
        "u": (BadParameter, OutOfDomain),
        "v-before-u": (BadParameter, OutOfDomain),
        "v-floor": (OutOfDomain, OutOfDomain),
        "rim": (None, OutOfDomain),
        "wrapped-rim": (None, OutOfDomain),
        "underflow": (None, NumericalBreakdown),
        "nan": (OutOfDomain, OutOfDomain),
    }

    @pytest.mark.parametrize("name", EDGE_GRIDS)
    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_raises_what_the_row_major_loop_raises_first(self, name, mode):
        patch, us, vs = EDGE_GRIDS[name]
        want = _row_major(patch, us, vs, mode)
        kind = self.RAISES[name][mode == JET_MODE_FD]
        if kind is None:
            assert len(want) == len(us) * len(vs)
            assert _grid(patch, us, vs, mode) == want
        else:
            assert want[0] is kind
            assert _grid(patch, us, vs, mode)[0] is kind

    def test_a_fault_in_the_profile_propagates(self):
        patch = surface_of_revolution(
            _faulty_first_call(lambda v: 2.0 + math.cos(v)), math.sin, v_domain=(0.0, 3.0)
        )
        with pytest.raises(TypeError, match="fault in the profile"):
            _jet_grid(patch, (0.0, 0.7), (0.5, 1.0), JET_MODE_FD)

    def test_profile_evaluated_9_times_per_distinct_grid_v(self):
        seen = {"x": [], "z": []}

        def counted(name, f):
            def g(v):
                seen[name].append(v)
                return f(v)
            return g

        patch = surface_of_revolution(
            counted("x", lambda v: 2.0 + math.cos(v)), counted("z", math.sin),
            v_domain=(0.0, 3.0),
        )
        # each grid v's differences are taken once, at the 9 abscissae of
        # eval_jet's stencil, v itself among them, which serves every grid
        # point's position too
        us, vs = (0.0, 0.7, 1.4, 2.1, 2.8), (0.5, 1.0, 1.5, 2.0)
        jets = _jet_grid(patch, us, vs, JET_MODE_FD)
        assert len(jets) == 20
        for name in ("x", "z"):
            counts = collections.Counter(seen[name])
            assert len(counts) == 9 * len(vs), name
            assert all(v in counts for v in vs), name
            assert set(counts.values()) == {1}, name


def _row_major_K(patch, us, vs, mode):
    """curvature_from_jet of each jet of eval_jet over the grid, row-major,
    as float.hex, or the type and message of the first exception raised."""
    try:
        return [curvature_from_jet(eval_jet(patch, u, v, mode), patch).hex()
                for u in us for v in vs]
    except Exception as exc:
        return type(exc), str(exc)


def _K_grid(patch, us, vs, mode):
    try:
        return [K.hex() for K in _curvature_grid(patch, us, vs, mode)]
    except Exception as exc:
        return type(exc), str(exc)


def _cylinder(r, derivatives, name):
    """A cylinder of radius r whose analytic jet takes the given profile
    derivatives (x', z', x'', z'') at every v, whether or not they match."""
    return surface_of_revolution(lambda v: r, lambda v: v, derivatives=lambda v: derivatives,
                                 v_domain=(0.0, 1.0), name=name)


def _jet_behind_a_function(patch):
    """The patch with its analytic jet behind a plain function, whose K
    _curvature_grid reads off each jet (the generic route)."""
    jet = patch.jet
    return dataclasses.replace(patch, jet=lambda u, v: jet(u, v))


# grids on which every point has a curvature, next to the edges of the
# charts, on scaled surfaces, and on charts read through their jets
CURVATURE_GRIDS = {
    **OTHER_GRIDS,
    "sphere-poles": (sphere_patch(1.0), (0.0, 2.0, -5.5),
                     (1e-8, 1e-3, math.pi - 1e-3, math.pi - 1e-8)),
    "pseudosphere-rim-and-floor": (pseudosphere_patch(2.0), (-2.5, 6.0),
                                   (1e-3 + 1e-9, 1e-3 + 1e-7, 0.9, math.pi / 2 - 1e-6)),
    "plane-origin": (plane_patch(), (0.0, 3.0), (1e-6, 1e-3, 1e3)),
    "tiny-sphere": (sphere_patch(1e-60), (0.5, 4.0), (1.0, 2.0)),
    "huge-pseudosphere": (pseudosphere_patch(1e50), (0.5, 4.0), (0.2, 1.0)),
    "jet-behind-a-function": (_jet_behind_a_function(sphere_patch(2.0)), (0.0, 1.5, 6.0),
                              (1e-3, 0.4, 2.0, math.pi - 1e-9)),
}

# grids where the row-major loop raises in one jet mode or in both: the
# edge grids of _jet_grid, and grids where a test of curvature_from_jet
# fails at a point whose jet is in the domain
CURVATURE_EDGE_GRIDS = {
    **EDGE_GRIDS,
    # on the rim the analytic jet is in the domain but degenerate, and the
    # loop meets it before the point below the floor
    "rim-before-floor": (pseudosphere_patch(1.0), (0.5,), (math.pi / 2, 1e-4)),
    # past the sphere's pole, where the profile still has a curvature
    "v-past-pole": (sphere_patch(1.0), (0.5,), (1.0, 4.0)),
    "normal-overflow": (sphere_patch(1e80), (0.5,), (1.0,)),
    "E-overflow": (_cylinder(1e160, (1e-10, 1e-10, 0.0, 0.0), "E-overflow"), (0.5,), (0.5,)),
    "g-not-finite": (_cylinder(1.0, (1.0, 1.0, math.inf, 0.0), "g-not-finite"), (0.5,), (0.5,)),
    "K-overflow": (_cylinder(1e100, (1.0, 1.0, 1e300, 0.0), "K-overflow"), (0.5,), (0.5,)),
}


class TestCurvatureGrid:
    """_curvature_grid gives curvature_from_jet of the jet of eval_jet at
    every point of a grid, bit for bit.  With finite differences, and in
    analytic mode on a surface of revolution, a coordinate outside the
    domain raises OutOfDomain before any point is evaluated; otherwise the
    grid raises the class that that row-major loop raises first."""

    # what the loop raises on each edge grid in analytic mode and with
    # finite differences; None where it raises nothing
    RAISES = {
        **TestJetGrid.RAISES,
        "rim": (DegenerateJet, OutOfDomain),
        "wrapped-rim": (DegenerateJet, OutOfDomain),
        "underflow": (DegenerateJet, NumericalBreakdown),
        "rim-before-floor": (DegenerateJet, OutOfDomain),
        "v-past-pole": (OutOfDomain, OutOfDomain),
        "normal-overflow": (NumericalBreakdown, NumericalBreakdown),
        "E-overflow": (NumericalBreakdown, NumericalBreakdown),
        "g-not-finite": (NumericalBreakdown, None),
        "K-overflow": (NumericalBreakdown, None),
    }
    # where the grid raises another class: the analytic pass checks the
    # floor before it meets the degenerate rim
    GRID_RAISES = {"rim-before-floor": (OutOfDomain, OutOfDomain)}

    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_the_battery_grids(self, mode):
        for patch, us, vs in verify._patches():
            want = _row_major_K(patch, us, vs, mode)
            assert len(want) == len(us) * len(vs) == 400
            assert _K_grid(patch, us, vs, mode) == want, patch.name

    @pytest.mark.parametrize("name", CURVATURE_GRIDS)
    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_other_grids(self, name, mode):
        patch, us, vs = CURVATURE_GRIDS[name]
        want = _row_major_K(patch, us, vs, mode)
        if patch.jet is not None or mode == JET_MODE_FD:
            assert len(want) == len(us) * len(vs)
        else:  # skew and nojet: no analytic jet
            assert want[0] is BadParameter
        assert _K_grid(patch, us, vs, mode) == want

    @pytest.mark.parametrize("name", CURVATURE_EDGE_GRIDS)
    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_raises_what_the_row_major_loop_raises_first(self, name, mode):
        patch, us, vs = CURVATURE_EDGE_GRIDS[name]
        want = _row_major_K(patch, us, vs, mode)
        kind = self.RAISES[name][mode == JET_MODE_FD]
        if kind is None:
            assert len(want) == len(us) * len(vs)
            assert _K_grid(patch, us, vs, mode) == want
        else:
            assert want[0] is kind
            grid_kind = self.GRID_RAISES.get(name, self.RAISES[name])[mode == JET_MODE_FD]
            assert _K_grid(patch, us, vs, mode)[0] is grid_kind

    def test_a_fault_in_the_profile_propagates(self):
        patch = surface_of_revolution(
            lambda v: 2.0 + math.cos(v), math.sin,
            derivatives=_faulty_first_call(lambda v: (-math.sin(v), math.cos(v),
                                                      -math.cos(v), -math.sin(v))),
            v_domain=(0.0, 3.0),
        )
        with pytest.raises(TypeError, match="fault in the profile"):
            _curvature_grid(patch, (0.0, 0.7), (0.5, 1.0), JET_MODE_ANALYTIC)

    def test_profile_once_per_grid_v_and_no_jet(self, monkeypatch):
        calls = collections.Counter()

        def counted(name, f):
            def g(*args):
                calls[name] += 1
                return f(*args)
            return g

        monkeypatch.setattr(surfaces, "_revolution_jet", counted("jet", surfaces._revolution_jet))
        patch = surface_of_revolution(
            counted("x", lambda v: 2.0 + math.cos(v)), counted("z", math.sin),
            derivatives=counted("derivatives", lambda v: (-math.sin(v), math.cos(v),
                                                          -math.cos(v), -math.sin(v))),
            v_domain=(0.0, 3.0),
        )

        def no_jet(*args):
            raise AssertionError("a jet was taken")

        us, vs = (0.0, 0.7, 1.4, 2.1, 2.8), (0.5, 1.0, 1.5, 2.0)
        with monkeypatch.context() as m:
            m.setattr(surfaces, "eval_jet", no_jet)
            m.setattr(surfaces, "_jet_grid", no_jet)
            grid = _K_grid(patch, us, vs, JET_MODE_ANALYTIC)
        assert calls == {"x": len(vs), "z": len(vs), "derivatives": len(vs)}
        assert grid == _row_major_K(patch, us, vs, JET_MODE_ANALYTIC)
        assert calls["jet"] == len(us) * len(vs)


class TestNormals:
    def test_plane_normal_up(self):
        jet = eval_jet(plane_patch(), 0.4, 1.3)
        n = unit_normal(jet, plane_patch())
        assert (n - Vec3(0.0, 0.0, 1.0)).norm() < 1e-14

    def test_sphere_normal_outward(self):
        patch = sphere_patch(2.0)
        u, v = 0.7, 1.0
        jet = eval_jet(patch, u, v)
        n = unit_normal(jet, patch)
        radial = Vec3(*jet.p) / 2.0
        assert (n - radial).norm() < 1e-13

    def test_pseudosphere_normal_outward(self):
        patch = pseudosphere_patch(1.0)
        u, v = 0.0, 0.7
        jet = eval_jet(patch, u, v)
        n = unit_normal(jet, patch)
        want = Vec3(math.cos(v), 0.0, -math.sin(v))
        assert (n - want).norm() < 1e-12


class TestForms:
    def test_plane_metric(self):
        F = fundamental_forms(plane_patch(), 0.7, 2.0)
        assert F.E == pytest.approx(4.0, rel=1e-14)
        assert F.F == pytest.approx(0.0, abs=1e-14)
        assert F.G == pytest.approx(1.0, rel=1e-14)
        for c in (F.e, F.f, F.g):
            assert abs(c) < 1e-13

    def test_sphere_metric(self):
        R, v = 2.0, 1.1
        F = fundamental_forms(sphere_patch(R), 0.3, v)
        assert F.E == pytest.approx(R * R * math.sin(v) ** 2, rel=1e-13)
        assert F.G == pytest.approx(R * R, rel=1e-13)
        assert F.F == pytest.approx(0.0, abs=1e-12)
        # shape scales with the metric: (eg - f^2)/(EG - F^2) = 1/R^2
        K = (F.e * F.g - F.f * F.f) / (F.E * F.G - F.F * F.F)
        assert K == pytest.approx(1.0 / (R * R), rel=1e-12)


class TestBuilder:
    def test_cylinder_is_flat(self):
        patch = surface_of_revolution(
            x=lambda v: 1.0,
            z=lambda v: v,
            derivatives=None,
            v_domain=(-2.0, 2.0),
            orientation_sign=-1,
            known_K=0.0,
            name="cylinder",
        )
        assert patch.jet is None
        with pytest.raises(BadParameter):
            eval_jet(patch, 0.0, 0.5, JET_MODE_ANALYTIC)
        assert abs(gaussian_curvature(patch, 0.0, 0.5, JET_MODE_FD)) < 1e-8

    def test_cone_flat_away_from_apex(self):
        patch = surface_of_revolution(
            x=lambda v: v,
            z=lambda v: 2.0 * v,
            derivatives=lambda v: (1.0, 2.0, 0.0, 0.0),
            v_domain=(0.1, 3.0),
            orientation_sign=-1,
            known_K=0.0,
            name="cone",
        )
        assert abs(gaussian_curvature(patch, 1.0, 1.5)) < 1e-12

    def test_derivatives_run_once_per_analytic_jet(self):
        calls = []

        def derivatives(v):
            calls.append(v)
            return math.cos(v), -math.sin(v), -math.sin(v), -math.cos(v)

        patch = surface_of_revolution(math.sin, math.cos, derivatives=derivatives,
                                      v_domain=(0.0, math.pi))
        for v in (0.5, 1.0, 2.0):
            eval_jet(patch, 0.3, v, JET_MODE_ANALYTIC)
        assert calls == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize("patch,us,vs", verify._patches(),
                             ids=[p.name for p, _, _ in verify._patches()])
    def test_analytic_jets_keep_the_bits_of_six_profile_formulas(self, patch, us, vs):
        # x, z and their derivatives each in their own formula, as the
        # built-in patches gave them before one derivatives callable
        sin, cos, log, tan = math.sin, math.cos, math.log, math.tan
        if patch.name == "plane":
            x, dx, d2x = (lambda v: v), (lambda v: 1.0), (lambda v: 0.0)
            z = dz = d2z = lambda v: 0.0
        else:
            R = 1.0 / math.sqrt(abs(patch.known_K))  # 0.5, 1 and 2 exactly
            assert patch.name.endswith(f"(R={R:g})")
            x, dx, d2x = (lambda v: R * sin(v)), (lambda v: R * cos(v)), (lambda v: -R * sin(v))
            if patch.name.startswith("sphere"):
                z, dz, d2z = (lambda v: R * cos(v)), (lambda v: -R * sin(v)), (lambda v: -R * cos(v))
            else:
                z = lambda v: R * (log(tan(v / 2.0)) + cos(v))
                dz = lambda v: R * cos(v) * cos(v) / sin(v)
                d2z = lambda v: -R * cos(v) * (1.0 + sin(v) * sin(v)) / (sin(v) * sin(v))
        for u in us:
            cu, su = cos(u), sin(u)
            for v in vs:
                r, r1, r2, h, h1, h2 = x(v), dx(v), d2x(v), z(v), dz(v), d2z(v)
                want = ((r * cu, r * su, h), (-r * su, r * cu, 0.0), (r1 * cu, r1 * su, h1),
                        (-r * cu, -r * su, 0.0), (-r1 * su, r1 * cu, 0.0), (r2 * cu, r2 * su, h2))
                got = eval_jet(patch, u, v, JET_MODE_ANALYTIC)
                assert [c.hex() for f in got for c in f] == [c.hex() for f in want for c in f]


class TestInterval:
    def test_open_closed_endpoints(self):
        i = Interval(0.0, 1.0, closed_lo=True, closed_hi=False)
        assert i.contains(0.0)
        assert not i.contains(1.0)
        assert i.contains(0.5)
        assert not i.contains(-1e-9)

    def test_infinite_endpoints_always_open(self):
        i = Interval(-math.inf, math.inf, closed_lo=True, closed_hi=True)
        assert i.contains(1e300)
        assert not i.contains(math.inf)


NAN_PATCHES = pytest.mark.parametrize(
    "patch", [plane_patch(), sphere_patch(1.0), pseudosphere_patch(1.0)],
    ids=["plane", "sphere", "pseudosphere"],
)


# every comparison with nan is False, so a gate that only rejects
# x < lo or x > hi lets nan through to a nan result
@NAN_PATCHES
@pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
@pytest.mark.parametrize("u,v", [(math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)])
@pytest.mark.parametrize("fn", [gaussian_curvature, fundamental_forms, eval_jet])
def test_nan_chart_point_is_out_of_domain(patch, mode, u, v, fn):
    with pytest.raises(OutOfDomain):
        fn(patch, u, v, mode)


@NAN_PATCHES
@pytest.mark.parametrize("kind", [PARALLEL, MERIDIAN])
def test_nan_coordinate_curve_is_out_of_domain(patch, kind):
    with pytest.raises(OutOfDomain):
        coordinate_curve(patch, kind, math.nan)


@pytest.mark.parametrize("make", [sphere_patch, pseudosphere_patch])
def test_radius_without_a_finite_curvature_is_bad_parameter(make):
    # 1/R^2 is inf below R ~ 7e-155 (R*R underflows to 0 below ~1e-162) and 0
    # above R ~ 1.3e154
    for R in (1e-300, 1e-160, 7e-155, 1.4e154, 1e300, math.inf, math.nan):
        with pytest.raises(BadParameter):
            make(R)
    sign = 1.0 if make is sphere_patch else -1.0
    for R in (8e-155, 0.5, 3.0, 1.3e154):
        assert make(R).known_K == sign * (1.0 / (R * R))
