import json
import math

import pytest

from spiralcurv import BadParameter, DomainError, reports_to_json, reports_to_text, run_suites
from spiralcurv.surfaces import JET_MODE_ANALYTIC, JET_MODE_FD
from spiralcurv import closed_form as cf
from spiralcurv import verify
from spiralcurv.closed_form import _linspace
from spiralcurv.verify import (
    Observation,
    VerificationReport,
    _derivative_at_zero,
    _monotone_in_K,
    _numeric_vs_closed_form,
    _ratio_limit,
    _sign_pattern,
    suite_analysis,
)

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

    def test_a_nan_after_the_first_error_is_the_worst(self):
        # max skipped it: "FAIL x: 2 observations, max error 5.000e-01"
        errors = (0.5, math.nan)
        rep = VerificationReport("x", [Observation((e,), 0.0, e, e) for e in errors], 1.0)
        assert rep.to_text_line() == "FAIL x: 2 observations, max error nan, tolerance 1.000e+00"
        rep = VerificationReport("x", [], 1.0)
        assert rep.to_text_line() == "PASS x: 0 observations, max error 0.000e+00, tolerance 1.000e+00"

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
        rep = _ratio_limit(4.0, -4.0, PI / 4.0, [1e-1, 1e-2, 1e-3])
        assert rep.passed
        assert rep.tolerance == 1.0

    def test_deviation_shrinks_quadratically(self):
        rs = [1e-1, 1e-2, 1e-3]
        rep = _ratio_limit(4.0, -4.0, PI / 4.0, rs)
        devs = [abs(o.actual - 1.0) for o in rep.observations]
        assert devs[1] == pytest.approx(devs[0] / 100.0, rel=0.1)
        assert devs[2] == pytest.approx(devs[1] / 100.0, rel=0.1)


class TestDerivativeAtZero:
    def test_matches_closed_form(self):
        rep = _derivative_at_zero(1.0, PI / 3.0)
        assert rep.passed
        assert rep.tolerance == 1e-8
        assert rep.observations[0].error < 1e-10
        assert rep.observations[0].expected == -(1.0 / 3.0) * math.cos(PI / 3.0)

    @pytest.mark.parametrize("theta", [PI / 6.0, PI / 3.0, 3.0 * PI / 4.0])
    def test_a_slope_of_1e_6_fails(self, monkeypatch, theta):
        # the check has power at each of the battery's angles: a curvature
        # off by 1e-6 * K moves dk/dK at 0 by 1e-6, far past the 1e-8
        # relative tolerance
        exact = verify.cf.spiral_curvature
        monkeypatch.setattr(
            verify.cf, "spiral_curvature", lambda K, r, theta: exact(K, r, theta) + 1e-6 * K
        )
        assert not _derivative_at_zero(1.0, theta).passed


class TestMonotone:
    def test_passes_on_principal_branch(self):
        grid = [-5.0 + 0.25 * i for i in range(40)]
        rep = _monotone_in_K(1.0, [t for t in grid if t < (PI - 1e-3) ** 2])
        assert rep.passed
        assert rep.tolerance == 0.0

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
        got = _monotone_in_K(r, ts).observations
        want = self.two_gates(r, ts)
        assert all(type(o) is Observation for o in got)
        assert [repr(o) for o in got] == [repr(o) for o in want]

    def test_past_the_conjugate_radius_raises_the_gate_error(self):
        ts = [0.0, 1.0, PI * PI, 10.0]
        with pytest.raises(DomainError) as want:
            self.two_gates(1.0, ts)
        with pytest.raises(DomainError) as got:
            _monotone_in_K(1.0, ts)
        assert str(got.value) == str(want.value)
        assert "conjugate radius" in str(got.value)


class TestSignPattern:
    def test_passes_inside_first_zero(self):
        rep = _sign_pattern(4.0, (PI / 6.0, PI / 2.0, 2.0 * PI / 3.0), 1e-2)
        assert rep.passed


class TestNumericVsClosedForm:
    @pytest.mark.parametrize(
        "surface,R,theta",
        [("plane", 1.0, PI / 4.0), ("sphere", 1.0, PI / 4.0), ("pseudosphere", 1.0, PI / 3.0)],
    )
    def test_every_surface_passes(self, surface, R, theta):
        rep = _numeric_vs_closed_form(surface, R, theta, JET_MODE_ANALYTIC)
        assert len(rep.observations) == 50
        assert rep.passed, rep.to_text_line()

    @pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
    def test_obtuse_plane_spiral_passes(self, mode):
        # the plane's theta is its angle to the circles in (0, pi), as on
        # the sphere and the tractroid, not the winding angle arctan(a)
        rep = _numeric_vs_closed_form("plane", 1.0, 2.0, mode)
        assert rep.passed, rep.to_text_line()


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
