import json
import math

import pytest

from spiralcurv import (
    BadParameter,
    DomainError,
    PreconditionFailed,
    reports_to_json,
    reports_to_text,
    run_suites,
    verify_derivative_at_zero,
    verify_monotone_in_K,
    verify_numeric_vs_closed_form,
    verify_ratio_limit,
    verify_sign_pattern,
)
from spiralcurv.surfaces import JET_MODE_ANALYTIC, JET_MODE_FD
from spiralcurv import closed_form as cf
from spiralcurv import verify
from spiralcurv.closed_form import _linspace
from spiralcurv.verify import Observation, VerificationReport, suite_analysis

PI = math.pi


class TestReportMechanics:
    def test_passed_iff_all_errors_within_tolerance(self):
        good = Observation(input=(1.0,), expected=1.0, actual=1.0 + 1e-9, error=1e-9)
        bad = Observation(input=(2.0,), expected=1.0, actual=1.5, error=0.5)
        assert VerificationReport("x", [good], 1e-8).passed
        assert not VerificationReport("x", [good, bad], 1e-8).passed

    def test_nan_error_fails(self):
        nan = Observation(input=(0.0,), expected=0.0, actual=math.nan, error=math.nan)
        assert not VerificationReport("x", [nan], 1.0).passed

    def test_text_line_format(self):
        rep = VerificationReport("demo.check", [Observation((1.0,), 0.0, 0.0, 0.0)], 1e-6)
        line = rep.to_text_line()
        assert line.startswith("PASS demo.check:")
        assert "tolerance 1.000e-06" in line

    def test_json_field_names(self):
        rep = VerificationReport("demo.check", [Observation((1.0, "tag"), 2.0, 2.5, 0.25)], 1.0)
        doc = json.loads(reports_to_json([rep]))
        assert set(doc.keys()) == {"reports"}
        entry = doc["reports"][0]
        assert set(entry.keys()) == {"check_name", "passed", "tolerance", "observations"}
        obs = entry["observations"][0]
        assert set(obs.keys()) == {"input", "expected", "actual", "error"}
        assert obs["input"] == [1.0, "tag"]
        assert obs["actual"] == 2.5

    def test_deterministic_serialization(self):
        a = reports_to_json(suite_analysis())
        b = reports_to_json(suite_analysis())
        assert a == b
        assert reports_to_text(suite_analysis()) == reports_to_text(suite_analysis())

    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_json_is_that_of_the_asdict_route(self, mode):
        # the reference serialises each observation through its _asdict
        reports = run_suites("all", mode)
        reference = {
            "reports": [
                {
                    "check_name": r.check_name,
                    "passed": r.passed,
                    "tolerance": r.tolerance,
                    "observations": [o._asdict() for o in r.observations],
                }
                for r in reports
            ]
        }
        assert reports_to_json(reports) == json.dumps(reference, indent=2)


class TestRatioLimit:
    def test_passes_with_quadratic_envelope(self):
        rep = verify_ratio_limit(4.0, -4.0, PI / 4.0, [1e-1, 1e-2, 1e-3])
        assert rep.passed
        assert rep.tolerance == 1.0

    def test_deviation_shrinks_quadratically(self):
        rs = [1e-1, 1e-2, 1e-3]
        rep = verify_ratio_limit(4.0, -4.0, PI / 4.0, rs)
        devs = [abs(o.actual - 1.0) for o in rep.observations]
        assert devs[1] == pytest.approx(devs[0] / 100.0, rel=0.1)
        assert devs[2] == pytest.approx(devs[1] / 100.0, rel=0.1)

    @pytest.mark.parametrize(
        "rs", [[], [1e-2, 1e-1], [1e-1, -1e-2], [1e-1, 1e-1]]
    )
    def test_bad_sequences(self, rs):
        with pytest.raises(BadParameter):
            verify_ratio_limit(4.0, -4.0, PI / 4.0, rs)

    def test_identical_curvatures_rejected(self):
        with pytest.raises(BadParameter):
            verify_ratio_limit(2.0, 2.0, PI / 4.0, [1e-1, 1e-2])

    @pytest.mark.parametrize(
        "K,K2,theta,rs,bad_r",
        [
            (1.0, -1.0, 1.0, [1e-300], 1e-300),  # r^2 underflows
            (0.0, 5e-324, 0.5, [0.1, 0.01], 0.1),  # |K - K2| r^2 underflows
        ],
    )
    def test_underflowing_envelope_rejected(self, K, K2, theta, rs, bad_r):
        # the deviation is divided by the envelope, which must not be 0
        with pytest.raises(BadParameter, match=f"r={bad_r}"):
            verify_ratio_limit(K, K2, theta, rs)


class TestDerivativeAtZero:
    def test_matches_closed_form(self):
        rep = verify_derivative_at_zero(1.0, PI / 3.0)
        assert rep.passed
        assert rep.observations[0].error < 1e-10
        assert rep.observations[0].expected == -(1.0 / 3.0) * math.cos(PI / 3.0)

    def test_right_angle_uses_absolute_tolerance(self):
        rep = verify_derivative_at_zero(1.0, PI / 2.0)
        assert rep.tolerance == 1e-12
        assert rep.passed

    def test_a_slope_of_1e_6_fails(self, monkeypatch):
        # the check has power: a curvature off by 1e-6 * K moves dk/dK at 0
        # by 1e-6, far past the 1e-8 relative tolerance
        exact = verify.cf.spiral_curvature
        monkeypatch.setattr(
            verify.cf, "spiral_curvature", lambda K, r, theta: exact(K, r, theta) + 1e-6 * K
        )
        for theta in (PI / 3.0, PI / 2.0):
            assert not verify_derivative_at_zero(1.0, theta).passed


class TestMonotone:
    def test_passes_on_principal_branch(self):
        grid = [-5.0 + 0.25 * i for i in range(40)]
        rep = verify_monotone_in_K(1.0, [t for t in grid if t < (PI - 1e-3) ** 2])
        assert rep.passed
        assert rep.tolerance == 0.0

    def test_grid_must_increase(self):
        with pytest.raises(BadParameter):
            verify_monotone_in_K(1.0, [1.0, 0.5])

    @staticmethod
    def two_gates(r, ts):
        """The observations as the public closed forms give them, each of
        which passes (t, r) through the admissibility gate."""
        obs, prev = [], None
        for t in ts:
            fp = cf.geodesic_circle_curvature_dK(t, r)
            error = 0.0 if fp < 0.0 else max(abs(fp), 5e-324)
            obs.append(Observation(input=(t, r), expected=0.0, actual=fp, error=error))
            val = cf.geodesic_circle_curvature(t, r)
            if prev is not None:
                step = val - prev[1]
                error = 0.0 if step < 0.0 else max(abs(step), 5e-324)
                obs.append(Observation(input=(prev[0], t, r), expected=0.0, actual=step, error=error))
            prev = (t, val)
        return obs

    @pytest.mark.parametrize("r", [0.25, 1.0, 4.0])
    def test_observations_of_the_public_closed_forms_bit_for_bit(self, r):
        # the battery's grids, through the seam window at K = 0
        ts = _linspace(-25.0, (PI / r - 1e-3) ** 2, 1000)
        got = verify_monotone_in_K(r, ts).observations
        want = self.two_gates(r, ts)
        assert all(type(o) is Observation for o in got)
        assert [repr(o) for o in got] == [repr(o) for o in want]

    def test_past_the_conjugate_radius_raises_the_gate_error(self):
        ts = [0.0, 1.0, PI * PI, 10.0]
        with pytest.raises(DomainError) as want:
            self.two_gates(1.0, ts)
        with pytest.raises(DomainError) as got:
            verify_monotone_in_K(1.0, ts)
        assert str(got.value) == str(want.value)
        assert "conjugate radius" in str(got.value)


class TestSignPattern:
    def test_passes_inside_first_zero(self):
        rep = verify_sign_pattern(4.0, (PI / 6.0, PI / 2.0, 2.0 * PI / 3.0), 1e-2)
        assert rep.passed

    def test_precondition_outside_first_zero(self):
        # at K=4 the circle curvature vanishes at r=pi/4 and turns negative
        with pytest.raises(PreconditionFailed):
            verify_sign_pattern(4.0, (PI / 6.0,), 1.0)


class TestNumericVsClosedForm:
    def test_all_surfaces_pass(self):
        for surface, R, theta in (
            ("plane", 1.0, PI / 4.0),
            ("sphere", 1.0, PI / 4.0),
            ("pseudosphere", 1.0, PI / 3.0),
        ):
            rep = verify_numeric_vs_closed_form(surface, R, theta, sample_count=10)
            assert rep.passed, rep.to_text_line()

    def test_unknown_surface(self):
        with pytest.raises(BadParameter):
            verify_numeric_vs_closed_form("torus", 1.0, PI / 4.0)

    def test_sample_count_validated(self):
        with pytest.raises(BadParameter):
            verify_numeric_vs_closed_form("plane", 1.0, PI / 4.0, sample_count=1)
        # a non-int count was a bare TypeError from the grid
        for count in (2.5, 50.0, "50", None):
            with pytest.raises(BadParameter, match="must be an int >= 2"):
                verify_numeric_vs_closed_form("plane", 1.0, PI / 4.0, sample_count=count)

    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_obtuse_plane_spiral_passes(self, mode):
        # the plane's theta is its angle to the circles in (0, pi), as on
        # the sphere and the tractroid, not the winding angle arctan(a)
        rep = verify_numeric_vs_closed_form("plane", 1.0, 2.0, mode=mode)
        assert rep.passed, rep.to_text_line()

    @pytest.mark.parametrize(
        "surface,R,theta",
        [
            ("sphere", 1.0, 0.0),  # cos(theta) / sin(theta) divides by zero
            ("sphere", 1.0, math.inf),  # math domain error in cos and sin
            ("plane", 1.0, math.inf),  # math domain error in tan
            ("plane", 1.0, -0.5),  # a winding angle, not an angle in (0, pi)
        ],
    )
    def test_angle_outside_range_rejected(self, surface, R, theta):
        with pytest.raises(BadParameter, match="theta="):
            verify_numeric_vs_closed_form(surface, R, theta, sample_count=2)


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(BadParameter):
            run_suites("everything")

    def test_analysis_suite_green(self):
        reports = run_suites("analysis")
        assert reports and all(r.passed for r in reports)

    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_scaled_tolerances_propagate(self, mode):
        # every report, ratio_limit and sign_pattern included, in one place
        strict = run_suites("all", mode)
        loose = run_suites("all", mode, 10.0)
        assert [r.check_name for r in loose] == [r.check_name for r in strict]
        for rep, base in zip(loose, strict):
            assert rep.tolerance == 10.0 * base.tolerance
            assert rep.observations == base.observations

    @pytest.mark.parametrize("scale", [math.nan, 0.0, -1.0, math.inf])
    def test_tol_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(BadParameter, match="tol_scale"):
            run_suites("analysis", JET_MODE_ANALYTIC, scale)

    def test_unknown_mode(self):
        # analysis reads no jets, yet the mode is still checked
        with pytest.raises(BadParameter, match="unknown jet mode"):
            run_suites("analysis", "bogus")
