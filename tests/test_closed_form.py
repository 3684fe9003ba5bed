import copy
import math
import pickle

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spiralcurv import (
    BadParameter,
    CurvatureProfile,
    DomainError,
    first_positive_circle_zero,
    geodesic_circle_curvature,
    geodesic_circle_curvature_dK,
    profile,
    spiral_curvature,
    spiral_curvature_abs_dK,
    spiral_curvature_dK,
    spiral_curvature_with_method,
)
from spiralcurv import closed_form
from spiralcurv.closed_form import (
    METHOD_CLOSED_FORM,
    METHOD_SERIES,
    SERIES_VALIDITY,
    SERIES_WINDOW,
    _linspace,
    spiral_curvature_series,
)

PI = math.pi

# reference values computed with a 250-bit oracle (tools/oracle.py)
COTH_1 = 1.3130352854993313
F_2_07 = 0.9282607252741535          # sqrt(2)*cot(0.7*sqrt(2))
FP_M1_1 = -0.29448681226651042       # d/dK of circle curvature at K=-1, r=1
FP_2_07 = -0.26872671414659869


class TestCircleCurvature:
    def test_flat_branch(self):
        assert geodesic_circle_curvature(0.0, 2.0) == 0.5
        assert geodesic_circle_curvature(0.0, 0.25) == 4.0

    def test_positive_branch(self):
        assert geodesic_circle_curvature(2.0, 0.7) == pytest.approx(F_2_07, rel=1e-15)
        # quarter turn on the unit sphere: cot(pi/2) = 0
        assert abs(geodesic_circle_curvature(1.0, PI / 2.0)) < 1e-15

    def test_negative_branch(self):
        assert geodesic_circle_curvature(-1.0, 1.0) == pytest.approx(COTH_1, rel=1e-15)
        assert geodesic_circle_curvature(-4.0, 0.5) == pytest.approx(2.0 * COTH_1, rel=1e-15)

    def test_large_radius_negative_K_saturates(self):
        # coth -> 1, so the curvature approaches sqrt(-K)
        assert geodesic_circle_curvature(-4.0, 40.0) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("K,r", [(1.0, PI), (1.0, 4.0), (4.0, PI / 2.0)])
    def test_conjugate_radius_rejected(self, K, r):
        with pytest.raises(DomainError):
            geodesic_circle_curvature(K, r)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_radius_rejected(self, r):
        with pytest.raises(DomainError):
            geodesic_circle_curvature(1.0, r)


class TestSpiralCurvature:
    def test_factorization_is_exact(self):
        for K in (-2.0, 0.0, 1.5):
            for theta in (0.3, PI / 4.0, 2.9):
                assert spiral_curvature(K, 1.2, theta) == math.cos(
                    theta
                ) * geodesic_circle_curvature(K, 1.2)

    def test_flat_value(self):
        # cos(pi/3)/2; fl(cos(pi/3)) is one ulp above 1/2
        k = spiral_curvature(0.0, 2.0, PI / 3.0)
        assert abs(k - 0.25) <= 5.6e-17

    def test_radial_direction_vanishes(self):
        # cos(fl(pi/2)) ~ 6.1e-17 times cot(0.5) ~ 1.83
        assert abs(spiral_curvature(1.0, 0.5, PI / 2.0)) < 2e-16

    def test_method_tag_reflects_route(self):
        _, m = spiral_curvature_with_method(1e-6, 1.0, 0.5)
        assert m == METHOD_SERIES
        _, m = spiral_curvature_with_method(1.0, 1.0, 0.5)
        assert m == METHOD_CLOSED_FORM

    def test_continuous_across_zero(self):
        k0 = spiral_curvature(0.0, 1.5, PI / 3.0)
        assert abs(spiral_curvature(1e-30, 1.5, PI / 3.0) - k0) < 1e-15
        assert abs(spiral_curvature(-1e-30, 1.5, PI / 3.0) - k0) < 1e-15

    @pytest.mark.parametrize("theta", [0.0, PI, -0.2, 4.0])
    def test_angle_domain(self, theta):
        with pytest.raises(DomainError):
            spiral_curvature(0.0, 1.0, theta)

    @pytest.mark.parametrize(
        "K,r", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf),
                (-1.0, math.inf), (1.0, math.nan)]
    )
    def test_non_finite_inputs_rejected(self, K, r):
        for fn in (spiral_curvature, spiral_curvature_dK):
            with pytest.raises(DomainError):
                fn(K, r, 0.7)
        with pytest.raises(DomainError):
            geodesic_circle_curvature(K, r)

    @pytest.mark.parametrize(
        "axis,fixed,hi", [("r", math.nan, 1.0), ("r", 0.0, math.inf), ("K", 1.0, math.inf),
                          ("K", math.inf, 1.0)]
    )
    def test_non_finite_profile_rejected(self, axis, fixed, hi):
        with pytest.raises(DomainError):
            profile(axis, fixed, 0.5, hi, 3, 0.7)


def _horner_series(y, r):
    """The four-term x*cot(x) series in y = K*r^2, over r, by a Horner
    loop over _COT_COEFFS."""
    acc = closed_form._COT_COEFFS[-1]
    for c in reversed(closed_form._COT_COEFFS[:-1]):
        acc = c + y * acc
    return acc / r


class TestSeries:
    def test_matches_direct_inside_validity(self):
        # the four terms miss x*cot(x) by about the fifth, y^4/4725
        for K in (3e-3, -3e-3, 8e-2):
            r = 1.0
            direct = math.cos(0.9) * (
                math.sqrt(K) / math.tan(r * math.sqrt(K))
                if K > 0
                else math.sqrt(-K) / math.tanh(r * math.sqrt(-K))
            )
            s = spiral_curvature_series(K, r, 0.9)
            assert s == pytest.approx(direct, rel=1.1 * K**4 / 4725.0 + 1e-15)

    def test_outside_validity_rejected(self):
        with pytest.raises(DomainError):
            spiral_curvature_series(0.5, 1.0, 0.7)  # |K| r^2 = 0.5 > 0.1


@settings(deadline=None, max_examples=400, derandomize=True)
@given(
    st.one_of(st.floats(0.0, 1e-4, exclude_max=True), st.floats(0.0, SERIES_VALIDITY)),
    st.sampled_from((1.0, -1.0)),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, PI - 1e-3),
)
@example(9.9e-5, 1.0, 0.25, 0.7)
@example(9.9e-5, -1.0, 4.0, 0.7)
@example(SERIES_VALIDITY, -1.0, 3.0, PI / 2.0)
def test_series_has_the_bits_of_the_scalar_in_the_seam_and_of_horner_past_it(q, sign, r, theta):
    K = sign * q / (r * r)
    y = K * r * r
    assume(abs(y) <= SERIES_VALIDITY)
    series = spiral_curvature_series(K, r, theta)
    assert series.hex() == (math.cos(theta) * _horner_series(y, r)).hex()
    if abs(y) < SERIES_WINDOW:
        assert series.hex() == spiral_curvature(K, r, theta).hex()


class TestDerivative:
    def test_exact_at_zero(self):
        for r in (0.25, 1.0, 3.0, 7.5):
            assert geodesic_circle_curvature_dK(0.0, r) == -(r / 3.0)

    def test_frozen_values(self):
        assert geodesic_circle_curvature_dK(-1.0, 1.0) == pytest.approx(FP_M1_1, rel=1e-14)
        assert geodesic_circle_curvature_dK(2.0, 0.7) == pytest.approx(FP_2_07, rel=1e-14)

    def test_matches_finite_difference(self):
        for K in (-2.0, -0.3, 0.4, 2.0):
            h = 1e-6
            fd = (
                geodesic_circle_curvature(K + h, 0.8)
                - geodesic_circle_curvature(K - h, 0.8)
            ) / (2.0 * h)
            assert geodesic_circle_curvature_dK(K, 0.8) == pytest.approx(fd, rel=1e-7)

    def test_spiral_derivative_factorization(self):
        assert spiral_curvature_dK(0.0, 1.5, PI / 3.0) == math.cos(PI / 3.0) * -(1.5 / 3.0)

    def test_abs_derivative_sign(self):
        # |k| decreases in K whenever the curve is not a radial geodesic
        assert spiral_curvature_abs_dK(1.0, 0.5, PI / 6.0) < 0.0
        assert spiral_curvature_abs_dK(1.0, 0.5, 2.5) < 0.0
        assert abs(spiral_curvature_abs_dK(1.0, 0.5, PI / 2.0)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            geodesic_circle_curvature_dK(4.0, 2.0)


class TestFirstZero:
    def test_values(self):
        assert first_positive_circle_zero(4.0) == pytest.approx(PI / 4.0, rel=1e-15)
        assert first_positive_circle_zero(0.0) == math.inf
        assert first_positive_circle_zero(-1.0) == math.inf

    def test_circle_curvature_changes_sign_past_zero(self):
        z = first_positive_circle_zero(1.0)
        assert geodesic_circle_curvature(1.0, z - 1e-3) > 0.0
        assert geodesic_circle_curvature(1.0, z + 1e-3) < 0.0


class TestProfile:
    def test_two_steps_hits_endpoints(self):
        prof = profile("r", 0.0, 0.5, 2.0, 2, PI / 4.0)
        xs = [x for x, _ in prof.samples]
        assert xs == [0.5, 2.0]

    def test_flat_radius_sweep_is_cos_over_r(self):
        theta = PI / 3.0
        prof = profile("r", 0.0, 0.25, 4.0, 17, theta)
        for x, k in prof.samples:
            assert k == math.cos(theta) * (1.0 / x)

    def test_method_column_flips_through_series(self):
        prof = profile("K", 1.0, -0.1, 0.1, 21, PI / 4.0)
        methods = prof.sample_methods
        assert methods[0] == METHOD_CLOSED_FORM
        assert methods[-1] == METHOD_CLOSED_FORM
        assert METHOD_SERIES in methods
        # the seam window is contiguous
        first = methods.index(METHOD_SERIES)
        last = len(methods) - 1 - methods[::-1].index(METHOD_SERIES)
        assert all(m == METHOD_SERIES for m in methods[first : last + 1])

    def test_domain_error_before_any_result(self):
        with pytest.raises(DomainError):
            profile("r", 4.0, 0.5, 3.0, 9, PI / 4.0)  # upper end past conjugate radius

    @pytest.mark.parametrize(
        "axis,steps,lo,hi",
        [("x", 5, 0.0, 1.0), ("r", 1, 0.5, 1.0), ("r", 5, 1.0, 0.5), ("K", 5, 1.0, 1.0)],
    )
    def test_bad_arguments(self, axis, steps, lo, hi):
        with pytest.raises(BadParameter):
            profile(axis, 0.0, lo, hi, steps, PI / 4.0)


@pytest.mark.parametrize("start,stop,num", [
    (0.1, 2.0, 1000),
    (-1.0, 1.0, 9),
    (-1.0, -4.0, 13),
    (0.08, PI - 0.08, 18),
    # descending onto the tractroid's floor: start + (stop - start) is
    # 0.0009999999999998899, below the floor
    (1.326570320789366, 0.001, 2),
])
def test_linspace_is_the_profile_grid_with_stop_last(start, stop, num):
    xs = _linspace(start, stop, num)
    assert len(xs) == num and xs[0] == start and xs[-1] == stop
    # the points before stop have the bits of profile's own former formula
    assert xs[:-1] == [start + i * (stop - start) / (num - 1) for i in range(num - 1)]


@pytest.mark.parametrize("start,stop", [(-0.0, -0.0), (-0.0, 1.0), (-0.0, -2.0), (0.0, -0.0)])
def test_linspace_keeps_the_sign_of_a_zero_end(start, stop):
    xs = _linspace(start, stop, 5)
    assert (xs[0].hex(), xs[-1].hex()) == (start.hex(), stop.hex())


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.floats(allow_nan=False), st.floats(allow_nan=False), st.integers(2, 60))
@example(-0.0, -0.0, 3)
@example(-0.0, 0.0, 4)
@example(1.5, 1.5, 5)
def test_linspace_keeps_the_bits_of_every_finite_span(start, stop, num):
    assume(math.isfinite(stop - start))
    xs = _linspace(start, stop, num)
    # the former grid, start + i*span/last with stop itself last, but
    # start itself first: before, a start of -0.0 came out as +0.0; and
    # start alone up to stop where the span is zero, where -0.0 + 0.0
    # turned the inner points of a grid from -0.0 to -0.0 into +0.0
    if stop - start == 0.0:
        former = [start] * (num - 1) + [stop]
    else:
        former = [start + i * (stop - start) / (num - 1) for i in range(num)]
        former[0], former[-1] = start, stop
    assert [x.hex() for x in xs] == [x.hex() for x in former]


@pytest.mark.parametrize("start,stop,num", [
    (-1e308, 1e308, 3),
    (-1.7976931348623157e308, 1.7976931348623157e308, 1000),
    (1e308, -1.5e308, 7),
])
def test_linspace_is_finite_where_the_span_overflows(start, stop, num):
    # stop - start is inf; before, _linspace(-1e308, 1e308, 3) was
    # [nan, inf, 1e308]
    xs = _linspace(start, stop, num)
    assert len(xs) == num and xs[0] == start and xs[-1] == stop
    assert all(map(math.isfinite, xs))
    sign = 1.0 if stop > start else -1.0
    assert all(sign * (b - a) > 0.0 for a, b in zip(xs, xs[1:]))


def test_profile_along_K_over_the_whole_float_range():
    # K from -1e308 to 1e308 at r = 1e-160 stays inside the conjugate
    # radius; before, the grid's first K was nan
    prof = profile("K", 1e-160, -1e308, 1e308, 3, 1.0)
    assert [K for K, _ in prof.samples] == [-1e308, 0.0, 1e308]
    for K, k in prof.samples:
        assert k == spiral_curvature(K, 1e-160, 1.0)


@st.composite
def _profile_grids(draw):
    """profile's arguments: grids along r that cross the seam ring
    |K| r^2 = 1e-4 at either sign of K, and grids along K that cross it on
    both sides of K = 0; or grids that end within 1e-6 of the conjugate
    radius pi/sqrt(K), or just past it.  One in eight holds K at +-0.0 or
    a subnormal value, or r at a subnormal value; one in eight starts at a
    point the gate refuses."""
    steps = draw(st.integers(2, 40))
    theta = draw(st.floats(0.05, PI - 0.05))
    edge, refused = (draw(st.integers(0, 7)) == 0 for _ in range(2))
    end = draw(st.sampled_from(("ring", "conjugate", "past")))
    near = draw(st.floats(1e-12, 1e-6))
    far = draw(st.floats(1.0, 20.0))  # how far past the ring the grid reaches
    if draw(st.booleans()):
        if edge:
            K = draw(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, -2e-308)))
        else:
            K = draw(st.sampled_from((1.0, -1.0))) * draw(
                st.one_of(st.floats(1e-8, 1e-5), st.floats(1e-5, 10.0)))
        ring = 0.01 / math.sqrt(abs(K)) if K else 1.0
        lo, hi = ring * draw(st.floats(0.05, 1.0)), ring * far
        if K > 0.0 and end != "ring":
            hi = PI / math.sqrt(K) * (1.0 - near if end == "conjugate" else 1.0 + near)
        if refused:
            lo = draw(st.sampled_from((0.0, -1.0, 1e-320)))
        return "r", K, lo, hi, steps, theta
    r = draw(st.sampled_from((1e-308, 1e-320, 0.0)) if edge else st.floats(1e-3, 10.0))
    ring = 1e-4 / (r * r) if r > 1e-100 else 1e300
    lo, hi = -ring * far, ring * draw(st.floats(0.05, 20.0))
    if r > 1e-100 and end != "ring":
        hi = (PI * (1.0 - near if end == "conjugate" else 1.0 + near) / r) ** 2
    return "K", r, -math.inf if refused else lo, hi, steps, theta


@settings(deadline=None, max_examples=250, derandomize=True)
@given(_profile_grids())
@example(("r", 4.0, 0.5, 3.0, 9, PI / 4.0))  # the gate refuses the 8th point
def test_profile_keeps_the_bits_of_the_scalar_route(grid):
    # every row and tag of profile's inline loop is spiral_curvature_with_method's
    # at that point, -0.0 included; an inadmissible grid raises the gate's
    # message at its first inadmissible point
    axis, fixed, lo, hi, steps, theta = grid
    assume(lo < hi)
    expected = ([], [])
    for x in _linspace(lo, hi, steps):
        K, r = (fixed, x) if axis == "r" else (x, fixed)
        try:
            k, tag = spiral_curvature_with_method(K, r, theta)
        except DomainError as exc:
            expected = str(exc)
            break
        expected[0].append((x.hex(), k.hex()))
        expected[1].append(tag)
    try:
        prof = profile(axis, fixed, lo, hi, steps, theta)
    except DomainError as exc:
        assert str(exc) == expected
    else:
        assert ([(x.hex(), k.hex()) for x, k in prof.samples], prof.sample_methods) == expected


def test_profile_calls_the_gate_only_at_a_failing_point(monkeypatch):
    calls = {"gate": 0, "branch": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(closed_form, "_require_admissible",
                        counted("gate", closed_form._require_admissible))
    monkeypatch.setattr(closed_form, "_circle_value",
                        counted("branch", closed_form._circle_value))
    # both cross the seam ring; the K sweep ends at r sqrt(K) = 0.9995 pi
    along_r = profile("r", -1e-6, 1e-3, 20.0, 1000, 0.7)
    along_K = profile("K", 1.0, -1.0, 0.999 * PI * PI, 1000, 0.7)
    assert calls == {"gate": 0, "branch": 0}
    for prof in (along_r, along_K):
        assert set(prof.sample_methods) == {METHOD_SERIES, METHOD_CLOSED_FORM}
    with pytest.raises(DomainError, match="conjugate radius"):
        profile("r", 4.0, 0.5, 3.0, 9, PI / 4.0)
    assert calls == {"gate": 1, "branch": 0}


def _reference_circle(K, r):
    """The circle curvature, its K-derivative and the tag by the route of
    the gate, then the branch: Horner loops over _COT_COEFFS and
    _DERIV_COEFFS on the seam, the cot/coth closed forms off it."""
    closed_form._require_admissible(K, r)
    y = K * r * r
    if abs(y) < SERIES_WINDOW:
        acc = closed_form._DERIV_COEFFS[-1]
        for c in reversed(closed_form._DERIV_COEFFS[:-1]):
            acc = c + y * acc
        return _horner_series(y, r), -(r / 3.0) * (1.0 + y * acc), METHOD_SERIES
    if K > 0.0:
        a = r * math.sqrt(K)
        s = math.sin(a)
        dK = (1.0 / (2.0 * math.sqrt(K))) * (1.0 / math.tan(a) - a / (s * s))
        return math.sqrt(K) / math.tan(a), dK, METHOD_CLOSED_FORM
    b = r * math.sqrt(-K)
    if b > closed_form._SINH_SQUARE_OVERFLOW:
        dK = (1.0 / (2.0 * math.sqrt(-K))) * (-1.0 / math.tanh(b))
    else:
        sh = math.sinh(b)
        dK = (1.0 / (2.0 * math.sqrt(-K))) * (-1.0 / math.tanh(b) + b / (sh * sh))
    return math.sqrt(-K) / math.tanh(b), dK, METHOD_CLOSED_FORM


def _reference_spiral(K, r, theta):
    """k, dk/dK, d|k|/dK and the tag: the (K, r) gate, then the angle gate."""
    value, dK, method = _reference_circle(K, r)
    closed_form._require_angle(theta)
    k, dk = math.cos(theta) * value, math.cos(theta) * dK
    return k, dk, 0.0 if k == 0.0 else math.copysign(1.0, k) * dk, method


def _outcome(fn, *args):
    """A result's float.hex, or the text of the DomainError it raised."""
    try:
        result = fn(*args)
    except DomainError as exc:
        return "DomainError", str(exc)
    if isinstance(result, tuple):
        return result[0].hex(), result[1]
    return result.hex()


_NEXT_PAST_RING = math.nextafter(SERIES_WINDOW, math.inf)
_BELOW_PI = math.nextafter(PI, 0.0)


@st.composite
def _scalar_points(draw):
    """(K, r, theta): on either side of the seam ring |K| r^2 = 1e-4 at
    either sign of K, within a few ulps of the conjugate radius, past
    r sqrt(-K) = 400, at +-0.0 and subnormal K or r, or any floats at all;
    theta inside (0, pi) three times in four, else at or past its ends."""
    kind = draw(st.sampled_from(("ring", "conjugate", "far", "edge", "any")))
    sign = draw(st.sampled_from((1.0, -1.0)))
    if kind == "ring":
        r = draw(st.floats(1e-3, 1e3))
        y = draw(st.sampled_from((SERIES_WINDOW, _NEXT_PAST_RING, 9.9e-5, 1.01e-4)))
        K = sign * y / (r * r)
        for _ in range(draw(st.integers(0, 3))):
            K = math.nextafter(K, draw(st.sampled_from((0.0, sign * math.inf))))
    elif kind == "conjugate":
        K = draw(st.floats(1e-6, 1e6))
        r = PI / math.sqrt(K)
        for _ in range(draw(st.integers(0, 4))):
            r = math.nextafter(r, draw(st.sampled_from((0.0, math.inf))))
    elif kind == "far":
        K = -draw(st.floats(1e-2, 1e6))
        r = draw(st.floats(300.0, 1000.0)) / math.sqrt(-K)
    elif kind == "edge":
        K = draw(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, -2e-308, 1.0, -1.0)))
        r = draw(st.sampled_from((5e-324, 1e-310, 5.6e-309, 6e-309, 1e-300, 0.5, 0.0, -0.0)))
    else:
        K, r = draw(st.floats()), draw(st.floats())
    theta = draw(st.one_of(
        st.floats(0.0, PI), st.floats(0.0, PI), st.floats(0.0, PI),
        st.sampled_from((0.0, -0.0, PI, -1.0, 5.0, math.nan, math.inf)),
    ))
    return K, r, theta


@settings(deadline=None, max_examples=600, derandomize=True)
@given(_scalar_points())
@example((9.9e-5, 1.0, 0.7))
@example((-9.9e-5, 1.0, 0.7))
@example((1.01e-4, 1.0, 0.7))
@example((-1.01e-4, 1.0, 0.7))
# the largest |K| below the ring at r = 1 where the fourth term of the
# derivative series changes a bit of the derivative
@example((9.999999999992543e-05, 1.0, 0.7))
@example((-9.999999999867813e-05, 1.0, 0.7))
@example((1.0, _BELOW_PI, 0.7))
@example((-1e6, 1.0, 0.7))
@example((0.0, 5e-324, 0.7))
@example((1.0, 4.0, 5.0))  # both gates refuse: the (K, r) message comes first
@example((math.nan, 1.0, -1.0))
def test_scalars_keep_the_bits_and_raises_of_the_gate_then_branch_route(point):
    K, r, theta = point
    try:
        k, dk, abs_dk, method = _reference_spiral(K, r, theta)
        expected = [(k.hex(), method), k.hex(), dk.hex(), abs_dk.hex()]
    except DomainError as exc:
        expected = [("DomainError", str(exc))] * 4
    try:
        value, dK, _ = _reference_circle(K, r)
        expected += [value.hex(), dK.hex()]
    except DomainError as exc:
        expected += [("DomainError", str(exc))] * 2
    assert [
        _outcome(spiral_curvature_with_method, K, r, theta),
        _outcome(spiral_curvature, K, r, theta),
        _outcome(spiral_curvature_dK, K, r, theta),
        _outcome(spiral_curvature_abs_dK, K, r, theta),
        _outcome(geodesic_circle_curvature, K, r),
        _outcome(geodesic_circle_curvature_dK, K, r),
    ] == expected


def test_scalars_call_the_gate_only_at_a_failing_point(monkeypatch):
    calls = []
    gate = closed_form._require_admissible

    def counted(K, r):
        calls.append((K, r))
        gate(K, r)

    monkeypatch.setattr(closed_form, "_require_admissible", counted)
    scalars = [
        spiral_curvature, spiral_curvature_with_method, spiral_curvature_dK,
        spiral_curvature_abs_dK,
        lambda K, r, theta: geodesic_circle_curvature(K, r),
        lambda K, r, theta: geodesic_circle_curvature_dK(K, r),
    ]
    # the series branch at both signs of K, the cot branch just inside the
    # conjugate radius, the coth branch past r sqrt(-K) = 400
    for K, r in ((1e-6, 2.0), (-1e-6, 2.0), (0.0, 6e-309), (1.0, _BELOW_PI), (-1e6, 1.0)):
        for fn in scalars:
            fn(K, r, 0.7)
    assert calls == []
    for K, r in ((1.0, PI), (math.nan, 1.0), (math.inf, 1.0), (0.0, 0.0), (0.0, 5e-324),
                 (-1.0, math.inf)):
        for fn in scalars:
            with pytest.raises(DomainError):
                fn(K, r, 0.7)
            assert calls == [(K, r)]
            calls.clear()
    with pytest.raises(DomainError, match="theta"):
        spiral_curvature(1.0, 1.0, 4.0)
    assert calls == []



class TestCurvatureProfileValue:
    """The tuple-backed CurvatureProfile behaves as the frozen dataclass it was."""

    FIELDS = ("axis", "samples", "theta", "fixed_value", "sample_methods")

    def make(self):
        return profile("r", 1.0, 0.1, 2.0, 3, 0.7)

    def test_fields_in_order(self):
        prof = self.make()
        assert prof._fields == self.FIELDS
        assert tuple(prof) == tuple(getattr(prof, name) for name in self.FIELDS)
        assert prof.axis == "r" and prof.theta == 0.7 and prof.fixed_value == 1.0
        assert isinstance(prof.samples, list) and isinstance(prof.sample_methods, list)

    def test_equality_only_between_profiles_with_equal_fields(self):
        prof = self.make()
        twin = CurvatureProfile("r", list(prof.samples), 0.7, 1.0, list(prof.sample_methods))
        assert prof == twin and not prof != twin
        assert prof != self.make()._replace(theta=0.8)
        assert prof != profile("r", 1.0, 0.1, 2.0, 4, 0.7)
        # a plain tuple with the same items is not a profile
        assert prof != tuple(prof) and not prof == tuple(prof)
        assert tuple(prof) != prof
        assert prof != list(prof) and prof != "r"

    @pytest.mark.parametrize("name", FIELDS + ("extra",))
    def test_fields_cannot_be_assigned(self, name):
        prof = self.make()
        with pytest.raises(AttributeError):
            setattr(prof, name, 0.0)

    def test_unhashable_like_the_dataclass(self):
        # a frozen dataclass hashes its fields, and samples is a list
        with pytest.raises(TypeError, match="list"):
            hash(self.make())

    def test_repr_names_every_field(self):
        samples = [(0.5, 1.0), (2.0, 0.25)]
        prof = CurvatureProfile("K", samples, 0.5, 2.0, [METHOD_SERIES, METHOD_SERIES])
        assert repr(prof) == (
            "CurvatureProfile(axis='K', samples=[(0.5, 1.0), (2.0, 0.25)], theta=0.5, "
            "fixed_value=2.0, sample_methods=['series', 'series'])"
        )

    def test_every_field_is_required(self):
        # the tags are the profile's one record of its branches
        with pytest.raises(TypeError, match="sample_methods"):
            CurvatureProfile("r", [], 0.5, 0.0)
        with pytest.raises(TypeError):
            CurvatureProfile("r", [], 0.5, 0.0, METHOD_CLOSED_FORM, [])

    def test_samples_stays_a_mutable_list(self):
        prof = self.make()
        x, k = prof.samples[1]
        prof.samples[1] = (x, math.nextafter(k, math.inf))
        assert prof.samples[1][1] > k

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)),
        lambda p: pickle.loads(pickle.dumps(p, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ])
    def test_pickle_and_copy_round_trip(self, clone):
        prof = self.make()
        again = clone(prof)
        assert type(again) is CurvatureProfile
        assert again == prof
        assert repr(again) == repr(prof)


admissible = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.05, max_value=PI - 0.05),
).filter(lambda t: not (t[0] > 0.0 and t[1] * math.sqrt(t[0]) >= PI - 1e-9))


@settings(deadline=None, max_examples=150)
@given(admissible)
def test_factorization_property(q):
    K, r, theta = q
    assert spiral_curvature(K, r, theta) == math.cos(theta) * geodesic_circle_curvature(K, r)


@settings(deadline=None, max_examples=150)
@given(admissible, st.floats(min_value=1e-4, max_value=1.0))
def test_monotone_decreasing_in_K(q, dk):
    K, r, theta = q
    assume(not (K + dk > 0.0 and r * math.sqrt(K + dk) >= PI - 1e-9))
    assert geodesic_circle_curvature(K + dk, r) < geodesic_circle_curvature(K, r)


@settings(deadline=None, max_examples=100)
@given(admissible)
def test_sign_follows_cos_theta_inside_first_zero(q):
    K, r, theta = q
    assume(r < first_positive_circle_zero(K) - 1e-6)
    assume(abs(theta - PI / 2.0) > 1e-3)
    k = spiral_curvature(K, r, theta)
    assert (k > 0.0) == (math.cos(theta) > 0.0)


class TestOverflowEdges:
    def test_subnormal_radius_is_domain_error(self):
        # 1/r overflows below r ~ 5.6e-309; the result used to be inf
        for r in (1e-320, 5e-324, 5e-309):
            with pytest.raises(DomainError):
                spiral_curvature(0.0, r, PI / 4.0)
            with pytest.raises(DomainError):
                geodesic_circle_curvature(-1.0, r)
            with pytest.raises(DomainError):
                spiral_curvature_series(0.0, r, PI / 4.0)

    def test_smallest_radii_with_a_finite_curvature_are_unchanged(self):
        for r in (6e-309, 1e-300, 1e-200):
            assert spiral_curvature(0.0, r, PI / 3.0) == math.cos(PI / 3.0) * (1.0 / r)
            assert geodesic_circle_curvature(1e-5, r) == 1.0 / r

    def test_dK_far_out_on_the_coth_branch_is_the_limit(self):
        # b = r sqrt(-K) = 1000: sinh(b) overflows, b / sinh(b)^2 underflows to 0
        for K, r in ((-1e6, 1.0), (-1.0, 800.0), (-1e300, 1e-140)):
            assert geodesic_circle_curvature_dK(K, r) == -0.5 / math.sqrt(-K)
        assert math.isfinite(spiral_curvature_dK(-1e6, 1.0, 0.7))

    @pytest.mark.parametrize("b", [0.5, 20.0, 355.0, 356.0, 399.9, 400.0, 400.1, 700.0, 710.0])
    def test_dK_guard_keeps_every_value_sinh_could_give(self, b):
        # where sinh(b) is finite the guarded derivative is the plain formula, bit for bit
        K = -4.0
        sh = math.sinh(b)
        plain = (1.0 / (2.0 * math.sqrt(-K))) * (-1.0 / math.tanh(b) + b / (sh * sh))
        assert geodesic_circle_curvature_dK(K, b / 2.0) == plain


def _oracle_circle(K, r):
    """tools/oracle.py's circle_curv and circle_curv_dK: the cot/coth
    expressions and their K-derivative, in mpmath at the caller's precision."""
    K, r = mpmath.mpf(K), mpmath.mpf(r)
    s = mpmath.sqrt(abs(K))
    a = r * s
    if K > 0:
        return s / mpmath.tan(a), (1 / mpmath.tan(a) - a / mpmath.sin(a) ** 2) / (2 * s)
    return s / mpmath.tanh(a), (-1 / mpmath.tanh(a) + a / mpmath.sinh(a) ** 2) / (2 * s)


def test_series_branch_below_the_seam_matches_the_oracle():
    # 1,000 (|K| r^2, r) pairs of a golden-ratio sequence, |K| r^2 in
    # [5e-5, 1e-4) and r log-uniform in [1e-2, 10], each at both signs of K.
    # The four-term series is within 2.1e-16 of the 250-bit value, its
    # derivative within 2.7e-16; three terms would miss c by up to 2.2e-15,
    # which no check of the battery sees (seam_agreement compares at 1e-12).
    worst_c = worst_dK = 0.0
    with mpmath.workprec(250):
        for i in range(1000):
            r = 10.0 ** (-2.0 + 3.0 * (i * 0.6180339887498949 % 1.0))
            q = 5e-5 * (1.0 + i * 0.41421356237309503 % 1.0)
            for K in (q / (r * r), -q / (r * r)):
                assert spiral_curvature_with_method(K, r, 1.0)[1] == METHOD_SERIES
                c, dK = _oracle_circle(K, r)
                worst_c = max(worst_c, float(abs(geodesic_circle_curvature(K, r) / c - 1)))
                worst_dK = max(worst_dK, float(abs(geodesic_circle_curvature_dK(K, r) / dK - 1)))
    assert worst_c <= 1e-15 and worst_dK <= 1e-15, (worst_c, worst_dK)
