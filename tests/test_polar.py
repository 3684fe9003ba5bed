import math

import numpy as np
import pytest

from spiralcurv import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    BadParameter,
    DomainError,
    Interval,
    OutOfDomain,
    PolarTracePoint,
    Unsupported,
    angle_to_parallel,
    circle_curvature,
    embed_polar_trace,
    geodesic_circle_curvature,
    plane_log_spiral,
    plane_patch,
    polar_metric,
    pseudosphere_patch,
    sample,
    spiral_chart_trace,
    spiral_curvature,
    sphere_loxodrome,
    sphere_patch,
)
from spiralcurv.closed_form import _require_admissible
from spiralcurv.polar import _embedded_spiral

PI = math.pi

# 250-bit oracle values (tools/oracle.py)
SINH_SQ_1 = 1.3810978455418157          # G at K=-1, r=1
SQRTG_K2_R13 = 0.68192442762874070      # sin(1.3*sqrt(2))/sqrt(2)
LNTAN_DIFF = 1.0016935785252012         # ln tan 0.7 - ln tan 0.3
LNTANH_DIFF = 0.72978595499082704       # ln tanh 0.7 - ln tanh 0.3


class TestPolarMetric:
    def test_negative_curvature_value(self):
        m = polar_metric(-1.0)
        assert m.sqrtG(1.0) ** 2 == pytest.approx(SINH_SQ_1, rel=1e-14)

    def test_positive_curvature_value(self):
        m = polar_metric(2.0)
        assert m.sqrtG(1.3) == pytest.approx(SQRTG_K2_R13, rel=1e-14)
        assert polar_metric(1.0).sqrtG(PI / 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_flat_is_r(self):
        m = polar_metric(0.0)
        assert m.sqrtG(2.0) == 2.0
        assert m.sqrtG_r(2.0) == 1.0

    @pytest.mark.parametrize("K", [-4.0, -1.0, 0.0, 1.0, 4.0])
    def test_limits_at_origin(self, K):
        m = polar_metric(K)
        assert m.sqrtG(1e-8) < 1e-7
        h = 5e-9
        d = (m.sqrtG(1e-8 + h) - m.sqrtG(1e-8 - h)) / (2.0 * h)
        assert 1.0 - 1e-6 <= d <= 1.0 + 1e-6

    @pytest.mark.parametrize("K", [-4.0, -1.0, 0.0, 1.0, 4.0])
    def test_jacobi_ode_residual(self, K):
        m = polar_metric(K)
        hi = 0.9 * PI / math.sqrt(K) if K > 0 else 2.0
        for r in np.linspace(0.05, hi, 25):
            r = float(r)
            h = 1e-4 * max(1.0, r)
            d2 = (m.sqrtG(r + h) - 2.0 * m.sqrtG(r) + m.sqrtG(r - h)) / (h * h)
            assert abs(d2 + K * m.sqrtG(r)) < 1e-6

    def test_domain_enforced_at_query_time(self):
        m = polar_metric(4.0)
        assert m.r_limit == pytest.approx(PI / 2.0, rel=1e-15)
        with pytest.raises(DomainError):
            m.sqrtG(2.0)
        with pytest.raises(DomainError):
            m.sqrtG(-0.5)


class TestCircleCurvature:
    @pytest.mark.parametrize("K", [-4.0, -1.0, -1e-5, 0.0, 1e-5, 1.0, 4.0])
    def test_matches_closed_form(self, K):
        hi = 0.95 * PI / math.sqrt(K) if K > 0 else 3.0
        for r in np.linspace(0.05, hi, 17):
            r = float(r)
            a = circle_curvature(K, r)
            b = geodesic_circle_curvature(K, r)
            assert abs(a - b) <= 1e-13 * abs(b)

    def test_simple_values(self):
        assert circle_curvature(0.0, 2.0) == pytest.approx(0.5, rel=1e-15)
        assert circle_curvature(-1.0, 1.0) == pytest.approx(
            math.cosh(1.0) / math.sinh(1.0), rel=1e-14
        )


class TestSpiralChartTrace:
    def test_radial_when_theta_is_right_angle(self):
        for r in (0.5, 1.0, 2.5):
            p = spiral_chart_trace(0.0, PI / 2.0, 0.5, 3.0, r)
            assert p.u == 3.0
            assert p.r == r

    def test_flat_logarithm(self):
        p = spiral_chart_trace(0.0, PI / 4.0, 1.0, 0.0, math.e)
        assert p.u == pytest.approx(1.0, rel=1e-14)

    def test_positive_curvature_closed_form(self):
        # K=1, theta=pi/4: u advance is ln tan(r/2) - ln tan(r0/2)
        p = spiral_chart_trace(1.0, PI / 4.0, 0.6, 0.0, 1.4)
        assert p.u == pytest.approx(LNTAN_DIFF, rel=1e-13)

    def test_negative_curvature_closed_form(self):
        p = spiral_chart_trace(-1.0, PI / 4.0, 0.6, 0.0, 1.4)
        assert p.u == pytest.approx(LNTANH_DIFF, rel=1e-13)

    def test_tiny_curvature_matches_flat_with_correction(self):
        # the small-K route must stay continuous with the K=0 logarithm
        u0 = spiral_chart_trace(0.0, PI / 4.0, 0.5, 0.0, 2.0).u
        u1 = spiral_chart_trace(1e-12, PI / 4.0, 0.5, 0.0, 2.0).u
        assert u1 == pytest.approx(u0, abs=1e-11)

    def test_theta_clamp(self):
        # theta passes the angle gate (0, pi) and nothing more: next to
        # either end the trace winds fast but is still finite
        for theta in (0.0, PI, math.nan):
            with pytest.raises(DomainError):
                spiral_chart_trace(0.0, theta, 0.5, 0.0, 1.0)
        for theta in (1e-5, PI - 1e-5):
            p = spiral_chart_trace(0.0, theta, 0.5, 0.0, 1.0)
            assert p.u == pytest.approx(math.log(2.0) / math.tan(theta), rel=1e-14)

    def test_admissibility_of_both_radii(self):
        with pytest.raises(DomainError):
            spiral_chart_trace(4.0, PI / 4.0, 0.5, 0.0, 2.0)  # r past pi/2
        with pytest.raises(DomainError):
            spiral_chart_trace(0.0, PI / 4.0, -0.5, 0.0, 1.0)


def _trace_points(K, theta, r0, u0, r1, n=400):
    rs = np.linspace(r0, r1, n)
    return [spiral_chart_trace(K, theta, r0, u0, float(r)) for r in rs]


class TestEmbedding:
    def test_rejects_unsupported_targets(self):
        pts = _trace_points(0.0, PI / 4.0, 0.5, 0.0, 2.0, n=8)
        with pytest.raises(Unsupported):
            embed_polar_trace(pseudosphere_patch(1.0), pts)

    def test_rejects_bad_point_lists(self):
        pts = _trace_points(0.0, PI / 4.0, 0.5, 0.0, 2.0, n=8)
        with pytest.raises(BadParameter):
            embed_polar_trace(plane_patch(), pts[:3])
        with pytest.raises(BadParameter):
            embed_polar_trace(plane_patch(), list(reversed(pts)))

    def test_rejects_points_outside_chart(self):
        # the last radius maps past the south pole of the unit sphere
        pts = [PolarTracePoint(r=r, u=0.0) for r in (2.8, 2.95, 3.05, 3.2)]
        with pytest.raises(OutOfDomain):
            embed_polar_trace(sphere_patch(1.0), pts)

    def test_plane_trace_coincides_with_spiral(self):
        a = 1.0
        r0 = 0.5
        # start angle chosen so the embedded trace and the spiral agree
        # pointwise, not just up to a rotation about the pole
        pts = _trace_points(0.0, math.atan(a), r0, math.log(r0) / a, 2.0)
        emb = embed_polar_trace(plane_patch(), pts)
        spiral = plane_log_spiral(a)
        for r in (0.6, 1.0, 1.9):
            d = np.linalg.norm(np.array(emb.point(r)) - np.array(spiral.point(-math.log(r) / a)))
            assert d < 1e-9

    def test_sphere_trace_coincides_with_loxodrome(self):
        a = 1.0
        r0 = 0.5
        theta = math.atan2(1.0, a)
        pts = _trace_points(1.0, theta, r0, a * math.log(math.tan(r0 / 2.0)), 2.6)
        emb = embed_polar_trace(sphere_patch(1.0), pts)
        lox = sphere_loxodrome(1.0, a)
        for r in (0.6, 1.3, 2.5):
            d = np.linalg.norm(np.array(emb.point(r)) - np.array(lox.point((PI - r) / 2.0)))
            assert d < 1e-9

    @pytest.mark.parametrize(
        "K,make_patch,r1", [(0.0, plane_patch, 2.0), (1.0, sphere_patch, 2.6)]
    )
    def test_embedded_angle_equals_theta(self, K, make_patch, r1):
        theta = PI / 4.0
        patch = make_patch() if K == 0.0 else make_patch(1.0)
        pts = _trace_points(K, theta, 0.5, 0.0, r1)
        emb = embed_polar_trace(patch, pts)
        for r in np.linspace(0.6, r1 - 0.1, 50):
            assert angle_to_parallel(emb, float(r)) == pytest.approx(theta, abs=1e-7)

    def test_parametrized_by_center_distance(self):
        pts = _trace_points(0.0, PI / 4.0, 0.5, 0.0, 2.0, n=16)
        emb = embed_polar_trace(plane_patch(), pts)
        assert emb.center_distance(1.2) == 1.2
        assert emb.direction_sign == -1

    def test_rejects_points_off_one_trace(self):
        pts = _trace_points(1.0, PI / 4.0, 0.5, 0.0, 2.0, n=8)
        bumped = list(pts)
        bumped[3] = PolarTracePoint(r=pts[3].r, u=pts[3].u + 1e-6)
        with pytest.raises(BadParameter):
            embed_polar_trace(sphere_patch(1.0), bumped)
        # two constant-angle traces spliced together
        mixed = pts[:4] + _trace_points(1.0, PI / 3.0, 0.5, 0.0, 2.0, n=8)[4:]
        with pytest.raises(BadParameter):
            embed_polar_trace(sphere_patch(1.0), mixed)
        nan = pts[:2] + [PolarTracePoint(r=pts[2].r, u=math.nan)] + pts[3:]
        with pytest.raises(BadParameter):
            embed_polar_trace(sphere_patch(1.0), nan)

    @pytest.mark.parametrize(
        "K,patch,radii",
        [
            (0.0, plane_patch(), (0.01, 0.3, 2.5, 40.0)),
            (1.0, sphere_patch(1.0), (0.01, 0.3, 2.5, 3.1)),
            (4.0, sphere_patch(0.5), (0.01, 0.1, 1.2, 1.55)),
        ],
    )
    def test_closed_form_beyond_supplied_points(self, K, patch, radii):
        # the points span [0.4, 1.0] and every probed radius lies well
        # outside it; both routes evaluate the same closed form, so the
        # bound is a few ulps: 1e-14 relative
        theta, r0, u0 = 0.9, 0.4, 0.3
        pts = _trace_points(K, theta, r0, u0, 1.0, n=6)
        emb = embed_polar_trace(patch, pts)
        m = polar_metric(K)
        cot = math.cos(theta) / math.sin(theta)
        for r in radii:
            want = spiral_chart_trace(K, theta, r0, u0, r).u
            u, v = emb.trace(r)
            assert abs(u + want) <= 1e-14 * abs(want)
            du, dv = emb.velocity(r)
            assert du == pytest.approx(-cot / m.sqrtG(r), rel=1e-14)
            assert v == pytest.approx(r * dv, rel=1e-15)

    def test_admissible_range_is_open(self):
        pts = _trace_points(1.0, PI / 4.0, 0.5, 0.0, 2.0, n=8)
        emb = embed_polar_trace(sphere_patch(1.0), pts)
        assert emb.t_domain == Interval(0.0, PI)
        for r in (0.0, PI):
            for measure in (emb.point, emb.velocity, lambda t: sample(emb, t)):
                with pytest.raises(OutOfDomain, match=rf"^t={r} outside parameter domain "):
                    measure(r)


def _near_conjugate_radii(K):
    """1e-6, 1e-10 and 1e-14 relative below pi/sqrt(K), and the float just
    below it, where the gate admits them."""
    conj = PI / math.sqrt(K)
    radii = [(1.0 - 10.0**-e) * conj for e in (6, 10, 14)] + [math.nextafter(conj, 0.0)]
    admitted = []
    for r in radii:
        try:
            _require_admissible(K, r)
        except DomainError:
            continue
        admitted.append(r)
    return admitted


class TestEmbeddedSpiral:
    def test_builds_from_K_and_theta_up_to_the_conjugate_radius(self):
        # next to the conjugate radius one ulp of K or of cot(theta) moves
        # theta and k by ~1e-9, so the curve must take both as given
        failures = []
        for K in np.logspace(-2.0, 2.0, 41):
            K = float(K)
            for r_hi in _near_conjugate_radii(K):
                r = r_hi / 2.0
                try:
                    s = sample(_embedded_spiral(K, 1.0, r, r_hi), r, JET_MODE_ANALYTIC)
                except DomainError as exc:
                    failures.append((K, r_hi, repr(exc)))
                    continue
                want = spiral_curvature(K, r, 1.0)
                if not (abs(s.theta - 1.0) <= 1e-12 and abs(s.k - want) <= 1e-12 * abs(want)):
                    failures.append((K, r_hi, s.theta, s.k, want))
        assert failures == []

    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("K", [0.0, 0.25, 1.0, 4.0])
    def test_same_curve_as_the_fitted_embedding(self, K, theta, mode):
        # K whose model sphere gives K back exactly, so the fitted route
        # sees the same K and the same cot to an ulp (at K = 1, theta = 0.3
        # it is one ulp off); FD jets turn that ulp of the chart u into
        # ~1e-11 of k and theta, the stencil's rounding error
        tol = 1e-15 if mode == JET_MODE_ANALYTIC else 1e-10
        lo, hi = 0.3, 1.2
        patch = plane_patch() if K == 0.0 else sphere_patch(1.0 / math.sqrt(K))
        pts = [spiral_chart_trace(K, theta, lo, 0.0, float(r)) for r in np.linspace(lo, hi, 4)]
        fitted = embed_polar_trace(patch, pts)
        direct = _embedded_spiral(K, theta, lo, hi)
        for r in np.linspace(lo, hi, 5):
            a, b = sample(fitted, float(r), mode), sample(direct, float(r), mode)
            assert abs(a.k - b.k) <= tol * abs(a.k)
            assert abs(a.theta - b.theta) <= tol * a.theta
            assert np.linalg.norm(np.subtract(a.position, b.position)) <= 1e-15 * np.linalg.norm(a.position)


class TestHugeRadii:
    def test_flat_trace_at_huge_radii_is_finite(self):
        # ln(r/r0) alone: (r^2 - r0^2) overflows and 0 * inf would be nan
        pt = spiral_chart_trace(0.0, 1.0, 1e200, 0.0, 1e300)
        assert pt.u == math.cos(1.0) / math.sin(1.0) * math.log(1e100)

    @pytest.mark.parametrize("K,r0,r", [
        (1e-320, 1e150, 1e160),      # |K| r^2 overflows on the way
        (0.0, 1e-300, 1e300),        # r / r0 overflows
        (-1.0, 5e-324, 1.0),         # tanh(r0 sqrt(-K) / 2) underflows to 0
    ])
    def test_trace_leaving_the_float_range_is_domain_error(self, K, r0, r):
        with pytest.raises(DomainError):
            spiral_chart_trace(K, 1.0, r0, 0.0, r)

    @pytest.mark.parametrize("K", [0.0, -0.0, 1e-9, -1e-9, 1.0, -1.0])
    def test_values_at_ordinary_radii_are_unchanged(self, K):
        # the closed forms as written before the range checks
        cot = math.cos(0.8) / math.sin(0.8)
        for r0, r in ((0.3, 0.5), (0.5, 0.3), (1e-3, 2.0), (2.0, 2.0)):
            if abs(K) * max(r, r0) ** 2 < 1e-8:
                adv = math.log(r / r0) + K * (r * r - r0 * r0) / 12.0
            elif K > 0.0:
                s = math.sqrt(K)
                adv = math.log(math.tan(r * s / 2.0)) - math.log(math.tan(r0 * s / 2.0))
            else:
                b = math.sqrt(-K)
                adv = math.log(math.tanh(r * b / 2.0)) - math.log(math.tanh(r0 * b / 2.0))
            assert spiral_chart_trace(K, 0.8, r0, 0.25, r).u == 0.25 + cot * adv
