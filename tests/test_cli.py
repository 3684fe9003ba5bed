import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings

import spiralcurv
from spiralcurv import spiral_curvature
from spiralcurv.cli import main

from test_curve_contract import floats

PI = math.pi


# sha256 of each `figure` output as first released; the figures are
# byte-identical across refactors of the curve machinery
FIGURE_SHA256 = {
    "spiral": "8e7b1eda9ad346f3b6d83008de78deb195b0b9f33182b0f68faf68f94a892597",
    "pseudosphere": "6098e873eaa60abeb2ef5a63234e3df9a590442cdf28e86e0d1df0fc2cf52861",
    "sphere-loxodrome": "ff2694cd8db410de953bd8fa474c7794f6783edca5df7cf39fe7b745610187b7",
    "pseudosphere-loxodrome": "42016caa8bd9be5c74fd2329a9630e0183b3efdf898d69d4d42daccb8115eaa2",
    "k-surface": "bc7777725143c87d96bdc3c5053119f93d1b06540816448e4f166a5c38128259",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurvature:
    def test_flat_example(self, capsys):
        code, out, _ = run(
            capsys, "curvature", "--K", "0", "--r", "2", "--theta", "1.0471975511965976"
        )
        assert code == 0
        assert abs(float(out) - 0.25) <= 5.6e-17

    def test_defaults(self, capsys):
        code, out, _ = run(capsys, "curvature")
        assert code == 0
        assert float(out) == spiral_curvature(0.0, 1.0, PI / 4.0)

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "curvature", "--K", "1", "--r", "3.2")
        assert code == 1
        assert err.startswith("domain error:")

    def test_right_angle_is_float_zero(self, capsys):
        code, out, _ = run(capsys, "curvature", "--theta", "1.5707963267948966")
        assert code == 0
        assert abs(float(out)) < 1e-16

    def test_theta_deg_flag(self, capsys):
        code1, out1, _ = run(capsys, "curvature", "--theta-deg", "60", "--r", "2")
        code2, out2, _ = run(capsys, "curvature", "--theta", str(PI / 3.0), "--r", "2")
        assert code1 == code2 == 0
        assert float(out1) == pytest.approx(float(out2), rel=1e-15)

    def test_theta_flags_exclusive(self, capsys):
        code, _, _ = run(capsys, "curvature", "--theta", "0.5", "--theta-deg", "30")
        assert code == 3

    def test_series_switch(self, capsys):
        # the scalar takes the series branch inside the seam window by itself;
        # there is no flag that forces it
        code, out, err = run(
            capsys, "curvature", "--series", "--K", "1e-3", "--r", "1", "--theta", "0.7"
        )
        assert (code, out) == (3, "")
        assert err == "spiralcurv: error: unrecognized arguments: --series\n"

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "curvature", "--radius", "1")
        assert code == 3


class TestProfile:
    def test_round_trip_exact(self, capsys, tmp_path):
        out_file = tmp_path / "profile.csv"
        code, _, _ = run(
            capsys,
            "profile", "--axis", "r", "--fixed", "-1", "--min", "0.5", "--max", "3",
            "--steps", "9", "--theta", str(PI / 3.0), "--out", str(out_file),
        )
        assert code == 0
        rows = list(csv.DictReader(out_file.open()))
        assert len(rows) == 9
        for row in rows:
            x = float(row["x"])
            assert float(row["k"]) == spiral_curvature(-1.0, x, PI / 3.0)
            assert row["method"] in ("closed_form", "series")

    def test_stdout_and_header(self, capsys):
        code, out, _ = run(
            capsys,
            "profile", "--axis", "K", "--fixed", "1", "--min", "-0.1", "--max", "0.1",
            "--steps", "5", "--theta", "0.8",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,k,method"
        assert len(lines) == 6

    def test_series_window_in_method_column(self, capsys):
        code, out, _ = run(
            capsys,
            "profile", "--axis", "K", "--fixed", "1", "--min", "-0.1", "--max", "0.1",
            "--steps", "21", "--theta", "0.8",
        )
        methods = [line.split(",")[2] for line in out.strip().split("\n")[1:]]
        assert methods[0] == "closed_form" and methods[-1] == "closed_form"
        assert "series" in methods

    def test_no_partial_file_on_domain_error(self, capsys, tmp_path):
        out_file = tmp_path / "bad.csv"
        code, _, err = run(
            capsys,
            "profile", "--axis", "r", "--fixed", "1", "--min", "0.5", "--max", "4",
            "--steps", "9", "--out", str(out_file),
        )
        assert code == 1
        assert err.startswith("domain error:")
        assert not out_file.exists()

    def test_steps_validated(self, capsys):
        code, _, _ = run(
            capsys,
            "profile", "--axis", "r", "--fixed", "0", "--min", "0.5", "--max", "1",
            "--steps", "1",
        )
        assert code == 3


class TestTrace:
    def test_sphere_csv_matches_closed_form(self, capsys):
        code, out, _ = run(
            capsys,
            "trace", "--surface", "sphere", "--R", "1", "--theta", str(PI / 4.0),
            "--r0", "1.8", "--r1", "0.8", "--samples", "12",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert list(rows[0].keys()) == ["t", "x", "y", "z", "u", "v", "k", "theta_meas"]
        for row in rows:
            v = float(row["v"])
            want = (math.cos(v) / math.sin(v)) * math.cos(PI / 4.0)
            assert float(row["k"]) == pytest.approx(want, rel=1e-5)
            assert float(row["theta_meas"]) == pytest.approx(PI / 4.0, abs=1e-7)

    def test_pseudosphere_constant_k(self, capsys):
        code, out, _ = run(
            capsys,
            "trace", "--surface", "pseudosphere", "--theta", str(PI / 3.0),
            "--r0", "1.3", "--r1", "0.4", "--samples", "10",
        )
        assert code == 0
        ks = [float(r["k"]) for r in csv.DictReader(out.splitlines())]
        for k in ks:
            assert k == pytest.approx(-0.5, abs=1e-5)

    def test_descending_onto_the_tractroid_floor(self, capsys):
        # the last sample is the floor v = 1e-3 itself, not the ulp below it
        # that r0 + (r1 - r0) rounds to; the ascending request measures too
        for r0, r1 in (("1.326570320789366", "0.001"), ("0.001", "1.326570320789366")):
            code, out, err = run(
                capsys,
                "trace", "--surface", "pseudosphere", "--theta", "1", "--r0", r0, "--r1", r1,
                "--samples", "2",
            )
            assert (code, err) == (0, "")
            rows = list(csv.DictReader(out.splitlines()))
            assert [r["v"] for r in rows] == [r0, r1]
            for row in rows:
                assert float(row["k"]) == pytest.approx(-math.cos(1.0), rel=1e-12)

    def test_polar_flat_matches_spiral_curvature(self, capsys):
        code, out, _ = run(
            capsys,
            "trace", "--surface", "polar", "--theta", str(PI / 4.0),
            "--r0", "0.5", "--r1", "1.5", "--samples", "7",
        )
        assert code == 0
        for row in csv.DictReader(out.splitlines()):
            r = float(row["t"])
            assert float(row["k"]) == pytest.approx(
                spiral_curvature(0.0, r, PI / 4.0), rel=1e-4
            )

    def test_polar_negative_curvature_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "trace", "--surface", "polar", "--K", "-1", "--theta", "0.8",
            "--r0", "0.5", "--r1", "1.5", "--samples", "5",
        )
        assert code == 1
        assert "domain error" in err

    def test_past_antipode_is_domain_error(self, capsys):
        # r1 = 3.2 > pi puts the last sample outside the loxodrome's domain
        code, out, err = run(
            capsys,
            "trace", "--surface", "sphere", "--theta", "0.7", "--r0", "1",
            "--r1", "3.2", "--samples", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("domain error:")

    def test_samples_arity(self, capsys):
        code, _, _ = run(
            capsys,
            "trace", "--surface", "plane", "--theta", "0.7", "--r0", "1",
            "--r1", "0.5", "--samples", "1",
        )
        assert code == 3

    def test_theta_required(self, capsys):
        code, _, _ = run(
            capsys,
            "trace", "--surface", "plane", "--r0", "1", "--r1", "0.5", "--samples", "5",
        )
        assert code == 3

    def test_svg_output(self, capsys, tmp_path):
        f = tmp_path / "trace.svg"
        code, _, _ = run(
            capsys,
            "trace", "--surface", "plane", "--theta", str(PI / 4.0), "--r0", "1",
            "--r1", "0.2", "--samples", "50", "--format", "svg", "--out", str(f),
        )
        assert code == 0
        text = f.read_text()
        assert text.startswith("<?xml")
        assert "<polyline" in text and "viewBox=" in text


class TestVerify:
    def test_analysis_suite_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "analysis")
        assert code == 0
        assert out.count("PASS") == len(out.strip().splitlines())

    def test_failure_exits_two(self, capsys, monkeypatch):
        from spiralcurv import verify

        failing = verify.VerificationReport(
            "analysis.failing", [verify.Observation((), 0.0, 1.0, 1.0)], 0.5
        )
        monkeypatch.setattr(verify, "run_suites", lambda suite, mode: [failing])
        code, out, _ = run(capsys, "verify", "--suite", "analysis")
        assert code == 2
        assert "FAIL" in out

    def test_fd_jets_keep_every_tolerance(self, capsys):
        # one tolerance per check, whichever jets the battery reads
        docs = {}
        for jets in ("analytic", "fd"):
            code, out, _ = run(
                capsys, "verify", "--suite", "all", "--jets", jets, "--format", "report-json"
            )
            assert code == 0
            docs[jets] = json.loads(out)["reports"]
        assert [(r["check_name"], r["tolerance"]) for r in docs["fd"]] == [
            (r["check_name"], r["tolerance"]) for r in docs["analytic"]
        ]
        assert all(r["passed"] for r in docs["fd"])

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "analysis", "--format", "report-json"
        )
        assert code == 0
        doc = json.loads(out)
        assert all(r["passed"] for r in doc["reports"])

    def test_bogus_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus")
        assert code == 3


class TestFigure:
    @pytest.mark.parametrize(
        "name",
        ["spiral", "pseudosphere", "sphere-loxodrome", "pseudosphere-loxodrome", "k-surface"],
    )
    def test_deterministic_output(self, capsys, tmp_path, name):
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(capsys, "figure", "--name", name, "--out", str(f1))[0] == 0
        assert run(capsys, "figure", "--name", name, "--out", str(f2))[0] == 0
        b1, b2 = f1.read_bytes(), f2.read_bytes()
        assert b1 == b2
        assert b1.startswith(b"<?xml")

    @pytest.mark.parametrize("name,digest", sorted(FIGURE_SHA256.items()))
    def test_matches_seed_digest(self, capsys, tmp_path, name, digest):
        f = tmp_path / "fig.svg"
        assert run(capsys, "figure", "--name", name, "--out", str(f))[0] == 0
        assert hashlib.sha256(f.read_bytes()).hexdigest() == digest

    def test_unknown_name(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "--name", "torus", "--out", str(tmp_path / "x.svg"))
        assert code == 3


def test_no_command_is_flag_error(capsys):
    assert run(capsys)[0] == 3


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


class TestNegativeNumbers:
    # argparse once took "-1e-6" after a flag for a flag of its own, and
    # "-1_000" too, a spelling float() reads that "--K=-1_000" always took
    @pytest.mark.parametrize("value", ["-1e-6", "-2.5E-3", "-1.e-4", "-.5e-5", "-1_000",
                                       "-1_0.2_5e-0_1", "-.5_0", "-1e1_0"])
    def test_curvature_K(self, capsys, value):
        code, out, _ = run(capsys, "curvature", "--K", value, "--r", "2", "--theta", "0.7")
        assert code == 0
        assert float(out) == spiral_curvature(float(value), 2.0, 0.7)

    def test_profile_bounds_and_fixed(self, capsys):
        code, out, _ = run(capsys, "profile", "--axis", "K", "--fixed", "1", "--min", "-1e-3",
                           "--max", "1e-3", "--steps", "3", "--theta", "0.7")
        assert code == 0
        assert out.splitlines()[1].startswith("-0.001,")
        code, out, _ = run(capsys, "profile", "--axis", "r", "--fixed", "-2.5E-3", "--min",
                           "0.5", "--max", "1", "--steps", "3", "--theta", "0.7")
        assert code == 0
        x, k, _ = out.splitlines()[1].split(",")
        assert float(k) == spiral_curvature(-2.5e-3, 0.5, 0.7)
        code, out, _ = run(capsys, "profile", "--axis", "r", "--fixed", "-1_0", "--min", "0.1",
                           "--max", "1", "--steps", "2", "--theta", "0.7")
        assert code == 0
        x, k, _ = out.splitlines()[1].split(",")
        assert float(k) == spiral_curvature(-10.0, 0.1, 0.7)

    def test_trace_radii_reach_the_domain_check(self, capsys):
        # parsed as values, so the plane's radius check answers, not argparse
        code, _, err = run(capsys, "trace", "--surface", "plane", "--theta", "1", "--r0",
                           "-1e-3", "--r1", "-2.5E-3", "--samples", "3")
        assert code == 1
        assert err.startswith("domain error:")

    # and "-inf" or "-nan", spellings float() reads in any case
    @pytest.mark.parametrize("argv,name", [
        (["curvature", "--K", "-inf", "--r", "1", "--theta", "1"], "K=-inf"),
        (["curvature", "--K", "-Infinity", "--r", "1", "--theta", "1"], "K=-inf"),
        (["curvature", "--K", "-nan", "--r", "1", "--theta", "1"], "K=nan"),
        (["curvature", "--K", "-NaN"], "K=nan"),
        (["profile", "--axis", "K", "--fixed", "1", "--min", "-inf", "--max", "0",
          "--steps", "3", "--theta", "1"], "K=-inf"),
    ])
    def test_negative_infinity_and_nan_reach_the_domain_check(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"domain error: {name} must be finite\n")

    def test_flags_still_rejected(self, capsys):
        assert run(capsys, "curvature", "--K", "-x")[0] == 3
        assert run(capsys, "curvature", "--K", "-infinite")[0] == 3
        assert run(capsys, "curvature", "--K", "--r", "1")[0] == 3
        # float() reads no double underscore, so neither does the parser
        assert run(capsys, "curvature", "--K", "-1__0", "--r", "0.01")[0] == 3

    def test_the_pattern_matches_what_float_reads(self):
        # every word of "-" and up to 6 characters over the characters of a
        # number: the parser takes it for a value exactly when float() reads it
        from spiralcurv.cli import _NEGATIVE_NUMBER

        def reads(word):
            try:
                float(word)
            except ValueError:
                return False
            return True

        differ = [
            word for n in range(7) for chars in itertools.product("01_.e+-", repeat=n)
            if (_NEGATIVE_NUMBER.match(word := "-" + "".join(chars)) is not None) != reads(word)
        ]
        assert differ == []


class TestInputValidation:
    @pytest.mark.parametrize("argv", [["--K", "nan"], ["--K", "inf"], ["--K=-inf"],
                                      ["--r", "inf"], ["--K", "nan", "--theta-deg", "30"]])
    def test_non_finite_curvature_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "curvature", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("domain error:")

    @pytest.mark.parametrize("argv", [
        ["--surface", "plane", "--theta", "3.5"],
        ["--surface", "sphere", "--theta", "0"],
    ])
    def test_trace_degenerate_angle_is_domain_error(self, capsys, argv):
        code, _, err = run(capsys, "trace", *argv, "--r0", "0.5", "--r1", "2", "--samples", "3")
        assert code == 1
        assert err.startswith("domain error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,given", [
        (["curvature", "--theta-deg", "-30"], "-30"),
        (["profile", "--axis", "r", "--fixed", "1", "--min", "0.5", "--max", "1", "--steps", "3",
          "--theta-deg", "200"], "200"),
        (["trace", "--surface", "plane", "--theta-deg", "0", "--r0", "1", "--r1", "2",
          "--samples", "2"], "0"),
        (["trace", "--surface", "polar", "--theta-deg", "180", "--r0", "1", "--r1", "2",
          "--samples", "2"], "180"),
    ])
    def test_an_angle_in_degrees_is_named_in_degrees(self, capsys, argv, given):
        # the message named the radians, theta=-0.5235987755982988 for -30
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"domain error: theta-deg={given} outside (0, 180)\n"

    def test_an_angle_in_radians_is_named_in_radians(self, capsys):
        code, _, err = run(capsys, "curvature", "--theta", "-0.5")
        assert (code, err) == (1, "domain error: theta=-0.5 outside (0, pi)\n")

    @pytest.mark.parametrize("jets", ["analytic", "fd"])
    @pytest.mark.parametrize("surface,theta,t,t_range", [
        # on the unit sphere t = (pi - r)/2 rounds onto pi/2 for r below
        # about 2.2e-16; on the plane t = -ln(r)/tan(theta) overflows
        ("sphere", "1", "1.5707963267948966", "(0.0, 1.5707963267948966)"),
        ("plane", "5e-324", "inf", "(-inf, inf)"),
    ])
    def test_a_radius_whose_t_rounds_out_of_range_is_named(
        self, capsys, surface, theta, t, t_range, jets
    ):
        # the message named the t, which the command never gave
        code, out, err = run(capsys, "trace", "--surface", surface, "--theta", theta, "--r0",
                             "1e-17", "--r1", "1", "--samples", "2", "--jets", jets)
        assert (code, out) == (1, "")
        assert err == f"domain error: r=1e-17 rounds t to {t}, outside {t_range}\n"

    @pytest.mark.parametrize("jets", ["analytic", "fd"])
    @pytest.mark.parametrize("degrees", ["90", "89.9999"])
    def test_trace_at_a_steep_angle_measures_the_closed_form(self, capsys, degrees, jets):
        # the trace (t, exp(-a t)) overflowed a step of the old t-stencil
        # away from each sample, a = tan(theta) being 1.6e16 and 5.7e5
        code, out, err = run(capsys, "trace", "--surface", "plane", "--theta-deg", degrees,
                             "--r0", "0.5", "--r1", "2", "--samples", "3", "--jets", jets)
        assert code == 0, err
        theta = math.radians(float(degrees))
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [float(row[5]) for row in rows] == [0.5, 1.0, 2.0]
        tol = 1e-12 if jets == "analytic" else 1e-9
        for row in rows:
            r, k = float(row[5]), float(row[6])
            assert k == pytest.approx(spiral_curvature(0.0, r, theta), rel=tol)
        if jets == "analytic":
            # at r = 1 (t = 0) the chain rule rounds to the closed form
            # itself: 1.7453292520723307e-06 at 89.9999 degrees
            assert float(rows[1][6]) == spiral_curvature(0.0, 1.0, theta)

    @pytest.mark.parametrize("jets", ["analytic", "fd"])
    @pytest.mark.parametrize("theta", [2.0, 3.0])
    def test_obtuse_plane_trace_measures_theta_and_the_closed_form(self, capsys, theta, jets):
        # plane_log_spiral(tan theta) winds at arctan(tan theta) = theta - pi;
        # the trace runs it backwards, so it measures theta and cos(theta)/r
        code, out, err = run(capsys, "trace", "--surface", "plane", "--theta", str(theta),
                             "--r0", "0.5", "--r1", "1.2", "--samples", "3", "--jets", jets)
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(out.splitlines()))
        tol = 1e-12 if jets == "analytic" else 1e-9
        for row in rows:
            assert abs(float(row["theta_meas"]) - theta) <= 1e-12
            want = spiral_curvature(0.0, float(row["v"]), theta)
            assert float(row["k"]) == pytest.approx(want, rel=tol)

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    @pytest.mark.parametrize("surface", ["plane", "sphere", "pseudosphere", "polar"])
    def test_every_surface_reads_its_angle_back(self, capsys, surface, theta):
        code, out, err = run(capsys, "trace", "--surface", surface, "--theta", str(theta),
                             "--r0", "0.5", "--r1", "1.2", "--samples", "5")
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 5
        for row in rows:
            assert abs(float(row["theta_meas"]) - theta) <= 1e-12

    @pytest.mark.parametrize("surface", ["plane", "sphere", "pseudosphere", "polar"])
    def test_equal_end_radii_give_identical_rows(self, capsys, surface):
        code, out, err = run(capsys, "trace", "--surface", surface, "--K", "1", "--theta", "1",
                             "--r0", "1", "--r1", "1", "--samples", "3")
        assert (code, err) == (0, "")
        # equal as printed: on the plane t = -ln(1)/tan(1) is -0.0, which
        # every row prints as -0.0 (the middle row read 0.0, and y and u
        # flipped sign with it)
        first, second, third = out.splitlines()[1:]
        assert first == second == third
        assert abs(float(first.split(",")[-1]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("r1", ["1.81379936", "1.8137993640528378"])
    def test_polar_trace_next_to_the_conjugate_radius(self, capsys, r1):
        # pi/sqrt(3) = 1.8137993642342178; the curve takes K = 3 as given,
        # not as 1/R^2 of the model sphere, which is one ulp below 3
        code, out, err = run(capsys, "trace", "--surface", "polar", "--K", "3", "--theta", "1",
                             "--r0", "0.5", "--r1", r1, "--samples", "3")
        assert (code, err) == (0, "")
        for row in csv.DictReader(out.splitlines()):
            want = spiral_curvature(3.0, float(row["t"]), 1.0)
            assert abs(float(row["theta_meas"]) - 1.0) <= 1e-12
            assert abs(float(row["k"]) - want) <= 1e-12 * abs(want)

    def test_trace_plane_radius_must_be_positive(self, capsys):
        code, _, err = run(capsys, "trace", "--surface", "plane", "--theta", "1", "--r0", "0",
                           "--r1", "2", "--samples", "3")
        assert code == 1
        assert err.startswith("domain error:")

    @pytest.mark.parametrize("K", ["nan", "inf"])
    def test_polar_non_finite_K_is_named_as_given(self, capsys, K):
        # the closed-form gate answers before the model sphere of radius
        # 1/sqrt(K) is built, so the message names K, not a radius
        code, out, err = run(capsys, "trace", "--surface", "polar", "--K", K, "--theta", "1",
                             "--r0", "0.5", "--r1", "1.2", "--samples", "3")
        assert (code, out) == (1, "")
        assert err == f"domain error: K={K} must be finite\n"

    @pytest.mark.parametrize("K", ["1e-320", "5e-324"])
    def test_polar_subnormal_K_is_named_as_given(self, capsys, K):
        # the model sphere's radius 1/sqrt(K) squares to inf; the message
        # named that radius, which the user never passed
        code, out, err = run(capsys, "trace", "--surface", "polar", "--K", K, "--theta", "1",
                             "--r0", "0.5", "--r1", "1", "--samples", "2")
        assert (code, out) == (1, "")
        assert err == f"domain error: K={K} has no model sphere: 1/sqrt(K) squared overflows\n"

    def test_tol_scale_is_not_an_option(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "analysis", "--tol-scale", "2")
        assert code == 3
        assert "unrecognized arguments: --tol-scale" in err


class TestFlagRules:
    # argparse owns every flag rule: a malformed value exits 3 with one
    # line that names the flag, before any command runs
    @pytest.mark.parametrize("terms", ["7", "1"])
    def test_terms_out_of_range_exits_3(self, capsys, terms):
        # the series has no term count: --series and --terms are not flags
        code, out, err = run(capsys, "curvature", "--series", "--terms", terms)
        assert (code, out) == (3, "")
        assert err == f"spiralcurv: error: unrecognized arguments: --series --terms {terms}\n"

    @pytest.mark.parametrize("argv,message", [
        (["curvature", "--theta", "1", "--theta-deg", "30"],
         "argument --theta-deg: not allowed with argument --theta"),
        (["trace", "--surface", "plane", "--r0", "1", "--r1", "2", "--samples", "3"],
         "one of the arguments --theta --theta-deg is required"),
        (["curvature", "--theta-deg", "abc"], "argument --theta-deg: invalid degrees value: 'abc'"),
        (["profile", "--axis", "r", "--fixed", "0", "--min", "0.5", "--max", "1", "--steps", "1"],
         "argument --steps: must be at least 2, got 1"),
        (["profile", "--axis", "r", "--fixed", "0", "--min", "0.5", "--max", "1", "--steps", "x"],
         "argument --steps: invalid count value: 'x'"),
        (["trace", "--surface", "plane", "--theta", "1", "--r0", "1", "--r1", "2", "--samples", "1"],
         "argument --samples: must be at least 2, got 1"),
        (["curvature", "--series", "--terms", "7"], "unrecognized arguments: --series --terms 7"),
    ])
    def test_message_names_the_flag_without_a_traceback(self, argv, message):
        proc = run_cli(*argv)
        assert proc.returncode == 3
        assert proc.stdout == ""
        # the top parser, not the subcommand's, reports unrecognized arguments
        prog = "spiralcurv" if message.startswith("unrecognized") else f"spiralcurv {argv[0]}"
        assert proc.stderr.startswith(f"{prog}: error: {message}")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_theta_is_one_value_in_radians(self):
        from spiralcurv.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["curvature", "--theta-deg", "60"])
        assert args.theta == math.radians(60.0) and not hasattr(args, "theta_deg")
        assert parser.parse_args(["profile", "--axis", "r", "--fixed", "0", "--min", "1",
                                  "--max", "2", "--steps", "2"]).theta == PI / 4.0


def test_parser_names_match_the_library():
    from spiralcurv import cli, surfaces, verify

    assert cli._JETS == {"analytic": surfaces.JET_MODE_ANALYTIC, "fd": surfaces.JET_MODE_FD}
    assert cli._SUITES == verify.SUITES


def _contract_argvs(a, b, c, d):
    """curvature, profile along r and along K, and trace on every surface
    in both jet modes, each flag value a contract float."""
    a, b, c, d = map(repr, (a, b, c, d))
    yield ["curvature", "--K", a, "--r", b, "--theta", c]
    yield ["profile", "--axis", "r", "--fixed", a, "--min", b, "--max", c, "--steps", "3",
           "--theta", d]
    yield ["profile", "--axis", "K", "--fixed", b, "--min", a, "--max", c, "--steps", "3",
           "--theta", d]
    for surface in ("plane", "sphere", "pseudosphere", "polar"):
        for jets in ("analytic", "fd"):
            yield ["trace", "--surface", surface, "--K", a, "--R", a, "--theta", d, "--r0", b,
                   "--r1", c, "--samples", "2", "--jets", jets]


@settings(deadline=None, max_examples=90, derandomize=True, database=None)
@given(floats, floats, floats, floats)
@example(1.0, 0.5, 1.2, 1.0)  # every command exits 0
@example(1.0, 0.001, 1.5707963267948966, 0.001)  # onto the tractroid's floor and rim
def test_every_command_over_the_contract_floats_keeps_its_exit_codes(a, b, c, d):
    # exit 0 with finite numbers only, 1 for inadmissible input or 3 for
    # a malformed flag, and never a traceback
    for argv in _contract_argvs(a, b, c, d):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        if code == 0:
            for line in out.getvalue().splitlines():
                for field in line.split(","):
                    try:
                        value = float(field)
                    except ValueError:
                        continue  # a header or a profile's method
                    assert math.isfinite(value), (argv, line)


def run_cli(*argv):
    """`python -m spiralcurv` in a fresh interpreter, so a traceback reaches stderr."""
    src = os.path.dirname(os.path.dirname(spiralcurv.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "spiralcurv", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


class TestFloatRangeEdges:
    @pytest.mark.parametrize("argv", [
        # 1/(R*R) divided by an underflowed 0
        ["trace", "--surface", "sphere", "--R", "1e-300", "--theta", "1", "--r0", "1e-301",
         "--r1", "2e-301", "--samples", "2"],
        ["trace", "--surface", "pseudosphere", "--R", "1e-300", "--theta", "1", "--r0", "0.5",
         "--r1", "1.2", "--samples", "2"],
        # the circle curvature 1/r overflowed to inf
        ["curvature", "--K", "0", "--r", "1e-320"],
        ["curvature", "--K", "0", "--r", "5e-324"],
        # the second FD step squared to 0 within ~3e-162 of the plane's origin
        ["trace", "--surface", "plane", "--jets", "fd", "--theta", "0.785", "--r0", "2e-162",
         "--r1", "3e-162", "--samples", "2"],
        # |p_u x p_v| and E*G - F^2 overflowed: k printed 0.0 and theta_meas nan
        ["trace", "--surface", "sphere", "--R", "1e100", "--theta", "1", "--r0", "5e99",
         "--r1", "1e100", "--samples", "2"],
    ])
    def test_exit_1_without_traceback(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("domain error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("jets", ["analytic", "fd"])
    def test_plane_trace_where_the_speed_cubed_overflows_exits_0(self, jets):
        # |gamma'|^3 overflows: it raised a bare OverflowError, then
        # NumericalBreakdown; k divides by the speed three times now
        proc = run_cli("trace", "--surface", "plane", "--theta", "1", "--r0", "1e103",
                       "--r1", "2e103", "--samples", "2", "--jets", jets)
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        tol = 1e-12 if jets == "analytic" else 1e-6
        for row in rows:
            r, k = float(row[5]), float(row[6])
            assert k == pytest.approx(math.cos(1.0) / r, rel=tol)
        if jets == "analytic":
            assert rows[0][6] == "5.4030230586811846e-104"

    def test_flat_polar_trace_at_huge_radii_is_finite(self):
        # max(r, r0) ** 2 raised OverflowError from r ~ 1.3e154 on; the
        # embedded trace is finite there
        from spiralcurv import polar, surfaces

        rs = (1e200, 1e250, 1e280, 1e300)
        pts = [polar.spiral_chart_trace(0.0, 1.0, 1e200, 0.0, r) for r in rs]
        curve = polar.embed_polar_trace(surfaces.plane_patch(), pts)
        assert all(math.isfinite(x) for t in rs for x in curve.point(t))
        # but |p_u x p_v| = r on the plane overflows when measured, so the
        # command exits 1 (it printed k = -0.0 and theta_meas = pi/4 for
        # theta = 1)
        proc = run_cli("trace", "--surface", "polar", "--theta", "1", "--r0", "1e200",
                       "--r1", "1e300", "--samples", "2")
        assert proc.returncode == 1
        assert proc.stderr.startswith("domain error:")
        assert "Traceback" not in proc.stderr

    def test_curved_polar_trace_leaving_the_float_range_exits_1(self):
        proc = run_cli("trace", "--surface", "polar", "--K", "1e-320", "--theta", "1",
                       "--r0", "1e150", "--r1", "1e160", "--samples", "2")
        assert proc.returncode == 1
        assert proc.stderr.startswith("domain error:")
        assert "Traceback" not in proc.stderr


class TestUnwritableOut:
    # every subcommand that takes --out writes through one routine; a path
    # it cannot open exits 3, as a bad flag does, with one line on stderr
    ARGVS = {
        "profile": ["profile", "--axis", "r", "--fixed", "1", "--min", "0.1", "--max", "2",
                    "--steps", "5", "--theta", "0.7"],
        "figure": ["figure", "--name", "spiral"],
        "trace-svg": ["trace", "--surface", "sphere", "--theta", "1", "--r0", "0.5", "--r1",
                      "1.2", "--samples", "5", "--format", "svg"],
        "verify": ["verify", "--suite", "analysis"],
    }

    @pytest.mark.parametrize("name", ARGVS)
    def test_missing_directory_exits_3(self, capsys, tmp_path, name):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *self.ARGVS[name], "--out", str(path))
        assert code == 3
        assert out == ""
        assert err == f"spiralcurv: error: cannot write {path}: No such file or directory\n"
        assert not path.parent.exists()

    @pytest.mark.parametrize("name", ARGVS)
    def test_directory_as_path_exits_3(self, capsys, tmp_path, name):
        code, out, err = run(capsys, *self.ARGVS[name], "--out", str(tmp_path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"spiralcurv: error: cannot write {tmp_path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ARGVS)
    def test_no_traceback_from_a_fresh_interpreter(self, tmp_path, name):
        path = tmp_path / "missing" / "out.txt"
        proc = run_cli(*self.ARGVS[name], "--out", str(path))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"spiralcurv: error: cannot write {path}: No such file or directory\n"
