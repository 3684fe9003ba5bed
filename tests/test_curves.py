import dataclasses
import math

import numpy as np
import pytest

from spiralcurv import (
    BadParameter,
    ChartCurve,
    DegenerateJet,
    OutOfDomain,
    angle_to_parallel,
    arc_length,
    coordinate_curve,
    geodesic_curvature_numeric,
    plane_log_spiral,
    plane_patch,
    pseudosphere_loxodrome,
    sample,
    speed,
    sphere_loxodrome,
    sphere_patch,
    verify,
)
from spiralcurv.curves import MERIDIAN, PARALLEL
from spiralcurv.surfaces import JET_MODE_ANALYTIC, JET_MODE_FD, eval_jet, unit_normal

PI = math.pi

# 250-bit oracle values (tools/oracle.py)
ARC_SPIRAL_0_2 = 1.2228205693522732      # sqrt(2) * (1 - exp(-2))
K_SPHERE_V08 = 0.68675243010733515       # cot(0.8) * cos(arccot 1)
K_SPHERE_R2_V11 = 0.11380872816938149    # (1/2) cot(1.1) * cos(arccot 0.5)
U_PSEUDO_V07 = -0.31885342193412658      # cot(pi/3) * (1 - csc 0.7)
U_PSEUDO_V12 = -0.042098290299141593     # cot(pi/3) * (1 - csc 1.2)


class TestPlaneSpiral:
    def test_radius_decays_exponentially(self):
        c = plane_log_spiral(1.0)
        _, v = c.trace(0.7)
        assert v == pytest.approx(math.exp(-0.7), rel=1e-15)
        assert c.center_distance(0.7) == v

    def test_angle_is_arctan_a(self):
        for a in (0.5, 1.0, 3.0, -1.0):
            c = plane_log_spiral(a)
            for t in (-0.5, 0.0, 1.2):
                assert angle_to_parallel(c, t) == pytest.approx(math.atan(a), abs=1e-12)

    def test_curvature_is_cos_theta_over_r(self):
        a = 1.0
        theta = math.atan(a)
        c = plane_log_spiral(a)
        for t in (-0.4, 0.0, 0.9, 1.7):
            r = math.exp(-a * t)
            k = geodesic_curvature_numeric(c, t)
            assert k == pytest.approx(math.cos(theta) / r, rel=1e-8)

    def test_speed(self):
        c = plane_log_spiral(1.0)
        # chart velocity (1, -e^{-t}) against metric diag(v^2, 1)
        assert speed(c, 0.3) == pytest.approx(math.sqrt(2.0) * math.exp(-0.3), rel=1e-12)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(BadParameter):
            plane_log_spiral(0.0)


class TestSphereLoxodrome:
    def test_equator_point(self):
        c = sphere_loxodrome(2.0, 1.0)
        p = c.patch.eval(*c.trace(PI / 4.0))
        assert (p.x, p.y, p.z) == pytest.approx((2.0, 0.0, 0.0), abs=1e-12)

    def test_speed_at_equator(self):
        for R, a in ((1.0, 1.0), (2.0, 0.5)):
            c = sphere_loxodrome(R, a)
            assert speed(c, PI / 4.0) == pytest.approx(
                2.0 * R * math.sqrt(1.0 + a * a), rel=1e-12
            )

    def test_angle_is_arccot_a(self):
        for R, a in ((1.0, 1.0), (2.0, 0.5), (1.0, 2.0)):
            c = sphere_loxodrome(R, a)
            for t in (0.6, PI / 4.0, 1.3):
                assert angle_to_parallel(c, t) == pytest.approx(
                    math.atan2(1.0, a), abs=1e-12
                )

    def test_curvature_against_oracle(self):
        c = sphere_loxodrome(1.0, 1.0)
        t = (PI - 0.8) / 2.0  # colatitude v = 0.8
        assert geodesic_curvature_numeric(c, t) == pytest.approx(K_SPHERE_V08, rel=1e-8)

        c = sphere_loxodrome(2.0, 0.5)
        t = (PI - 1.1) / 2.0
        assert geodesic_curvature_numeric(c, t) == pytest.approx(K_SPHERE_R2_V11, rel=1e-8)

    def test_parameter_domain(self):
        c = sphere_loxodrome(1.0, 1.0)
        with pytest.raises(OutOfDomain):
            geodesic_curvature_numeric(c, 2.0)

    def test_bad_radius(self):
        with pytest.raises(BadParameter):
            sphere_loxodrome(0.0, 1.0)


class TestPseudosphereLoxodrome:
    def test_trace_matches_closed_form(self):
        c = pseudosphere_loxodrome(1.0, PI / 3.0)
        u07, _ = c.trace(0.7)
        u12, _ = c.trace(1.2)
        assert u07 == pytest.approx(U_PSEUDO_V07, abs=1e-11)
        assert u12 == pytest.approx(U_PSEUDO_V12, abs=1e-11)

    def test_curvature_is_constant(self):
        for R, theta in ((1.0, PI / 3.0), (0.5, 2.0 * PI / 3.0)):
            c = pseudosphere_loxodrome(R, theta)
            want = -math.cos(theta) / R
            for v in (0.4, 0.8, 1.3):
                assert geodesic_curvature_numeric(c, v) == pytest.approx(want, abs=1e-7)

    def test_angle_is_theta(self):
        c = pseudosphere_loxodrome(1.0, PI / 6.0)
        for v in (0.3, 0.9, 1.5):
            assert angle_to_parallel(c, v) == pytest.approx(PI / 6.0, abs=1e-12)

    def test_floor_enforced(self):
        # the curve takes its patch's closed [v_floor, pi/2] as its t_domain
        c = pseudosphere_loxodrome(1.0, PI / 3.0, v_floor=0.05)
        assert c.t_domain == c.patch.domain.v
        assert c.contains(0.05) and not c.contains(0.01)
        for measure in (c.point, c.velocity, lambda t: sample(c, t)):
            with pytest.raises(OutOfDomain, match=r"^t=0.01 outside parameter domain \(0.05, "):
                measure(0.01)

    @pytest.mark.parametrize("theta", [0.0, PI, -1.0])
    def test_bad_angle(self, theta):
        with pytest.raises(BadParameter):
            pseudosphere_loxodrome(1.0, theta)


class TestCoordinateCurves:
    def test_sphere_parallel_curvature(self):
        c = coordinate_curve(sphere_patch(1.0), PARALLEL, 0.9)
        got = geodesic_curvature_numeric(c, 0.3)
        assert got == pytest.approx(math.cos(0.9) / math.sin(0.9), rel=1e-8)

    def test_parallel_angle_zero(self):
        c = coordinate_curve(sphere_patch(1.0), PARALLEL, 0.9)
        assert abs(angle_to_parallel(c, 1.0)) < 1e-12

    def test_meridians_are_geodesics(self):
        for patch in (plane_patch(), sphere_patch(2.0)):
            c = coordinate_curve(patch, MERIDIAN, 0.4)
            assert abs(geodesic_curvature_numeric(c, 1.0)) < 1e-8

    def test_unknown_kind(self):
        with pytest.raises(BadParameter):
            coordinate_curve(plane_patch(), "diagonal", 0.5)


class TestArcLength:
    def test_frozen_spiral_length(self):
        c = plane_log_spiral(1.0)
        assert arc_length(c, 0.0, 2.0) == pytest.approx(ARC_SPIRAL_0_2, rel=1e-12)

    def test_additive_and_antisymmetric(self):
        c = plane_log_spiral(1.0)
        whole = arc_length(c, 0.0, 2.0)
        assert whole == pytest.approx(
            arc_length(c, 0.0, 1.3) + arc_length(c, 1.3, 2.0), abs=1e-12
        )
        assert arc_length(c, 2.0, 0.0) == pytest.approx(-whole, abs=1e-12)

    def test_equator_circumference(self):
        c = coordinate_curve(sphere_patch(1.5), PARALLEL, PI / 2.0)
        assert arc_length(c, 0.0, 2.0 * PI) == pytest.approx(3.0 * PI, rel=1e-12)


class TestSignCovariance:
    def test_orientation_flip_negates_k(self):
        c = plane_log_spiral(1.0)
        k = geodesic_curvature_numeric(c, 0.5)
        flipped = dataclasses.replace(
            c, patch=dataclasses.replace(c.patch, orientation_sign=+1)
        )
        assert geodesic_curvature_numeric(flipped, 0.5) == pytest.approx(-k, abs=1e-12)

    def test_direction_flip_negates_k_and_reverses_angle(self):
        c = sphere_loxodrome(1.0, 1.0)
        k = geodesic_curvature_numeric(c, 1.0)
        theta = angle_to_parallel(c, 1.0)
        rev = dataclasses.replace(c, direction_sign=-1)
        assert geodesic_curvature_numeric(rev, 1.0) == pytest.approx(-k, abs=1e-12)
        assert angle_to_parallel(rev, 1.0) == pytest.approx(theta - PI, abs=1e-12)


class TestDiagnostics:
    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_steep_spiral_measures_the_closed_form(self, mode):
        # at theta = 90 degrees a = tan(theta) ~ 1.6e16: exp(-a t) overflowed
        # one step of the old t-stencil away from the sample point
        theta = math.radians(90.0)
        a = math.tan(theta)
        k = geodesic_curvature_numeric(plane_log_spiral(a), -math.log(0.5) / a, mode)
        assert k == pytest.approx(math.cos(theta) / 0.5, rel=1e-9)

    def test_stationary_point_is_degenerate(self):
        patch = plane_patch()
        frozen = ChartCurve(
            patch=patch,
            trace=lambda t: (0.3, 1.0),
            t_domain=(-1.0, 1.0),
            trace_derivatives=lambda t: (0.0, 0.0, 0.0, 0.0),
            label="stationary",
        )
        with pytest.raises(DegenerateJet):
            angle_to_parallel(frozen, 0.0)


def _k_numeric_ndarray(curve, t, mode):
    """geodesic_curvature_numeric by the chain rule on ndarrays, with
    numpy's dot, cross and norm."""
    jet = eval_jet(curve.patch, *curve.trace(t), mode)
    p_u, p_v, p_uu, p_uv, p_vv = (np.array(x) for x in jet[1:])
    du, dv, ddu, ddv = curve.trace_derivatives(t)
    d1 = p_u * du + p_v * dv
    d2 = p_uu * du**2 + 2.0 * p_uv * du * dv + p_vv * dv**2 + p_u * ddu + p_v * ddv
    n = np.array(unit_normal(jet, curve.patch))
    k = float(np.dot(d2, np.cross(n, d1))) / float(np.linalg.norm(d1)) ** 3
    return curve.direction_sign * k


class TestVec3Stencil:
    CURVES = [
        (plane_log_spiral(1.0), (-1.0, 0.4, 2.0)),
        (plane_log_spiral(-0.3), (-2.0, 0.5)),
        (sphere_loxodrome(1.0, 1.0), (0.5, 0.9, 1.4)),
        (sphere_loxodrome(2.5, -0.4), (0.3, 1.2)),
        (pseudosphere_loxodrome(1.0, PI / 3.0), (0.3, 0.8, 1.4)),
        (pseudosphere_loxodrome(0.5, 2.5), (0.4, 1.5)),
    ]

    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_matches_numpy_reference(self, mode):
        # numpy's dot may round a 3-vector sum differently, so the two
        # routes agree to a few ulp, not bit for bit
        for curve, ts in self.CURVES:
            for t in ts:
                k = geodesic_curvature_numeric(curve, t, mode)
                ref = _k_numeric_ndarray(curve, t, mode)
                assert abs(k - ref) <= 1e-13 * abs(ref), (curve.label, t)

    def test_point_and_ndarray(self):
        for curve, ts in self.CURVES:
            for t in ts:
                p = curve.point(t)
                assert p == curve.patch.eval(*curve.trace(t))
                assert tuple(np.array(p)) == (p.x, p.y, p.z)


class TestSample:
    def test_fields(self):
        s = sample(plane_log_spiral(1.0), 0.4)
        assert s.t == 0.4
        assert s.r == pytest.approx(math.exp(-0.4), rel=1e-15)
        assert s.theta == pytest.approx(PI / 4.0, abs=1e-12)
        assert s.k == pytest.approx(math.cos(PI / 4.0) / s.r, rel=1e-8)
        assert s.position.z == 0.0

    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_every_point_of_the_battery_angle_families(self, mode):
        # 7 curves x 50 t: the battery measures the angle there, and a
        # sample takes the curvature too, from the same jet
        for curve, theta, ts in verify._angle_families():
            for t in ts:
                s = sample(curve, t, mode)
                assert math.isfinite(s.k), (curve.label, t, s.k)
                assert abs(s.theta - theta) <= 1e-7, (curve.label, t, s.theta)
