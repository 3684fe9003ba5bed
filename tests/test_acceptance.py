"""End-to-end acceptance battery.

Each test prints one summary line (even under pytest's capture) so a
plain run shows the pass/fail status of every criterion, then asserts.
"""

import math
import time

import numpy as np

import spiralcurv as sc
from spiralcurv.cli import main as cli_main
from spiralcurv.closed_form import spiral_curvature_series
from spiralcurv.numdiff import EPS, fit_steps, richardson_first, richardson_second

PI = math.pi


def announce(capsys, num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_gaussian_curvature(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for R in (0.5, 1.0, 2.0):
        sphere = sc.sphere_patch(R)
        pseudo = sc.pseudosphere_patch(R)
        for v in (0.6, 1.2, 2.0):
            got = sc.gaussian_curvature(sphere, 0.4, v, mode=sc.JET_MODE_FD)
            worst = max(worst, abs(got - 1.0 / R**2) * R**2)
        for v in (0.35, 0.8, 1.3):
            got = sc.gaussian_curvature(pseudo, 0.4, v, mode=sc.JET_MODE_FD)
            worst = max(worst, abs(got + 1.0 / R**2) * R**2)
    plane = sc.plane_patch()
    plane_worst = max(
        abs(sc.gaussian_curvature(plane, u, v, mode=sc.JET_MODE_FD))
        for u, v in ((0.3, 0.9), (-1.2, 2.4))
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and plane_worst <= 1e-8 and elapsed < 1.0
    announce(
        capsys, 1, "numeric gaussian curvature", ok,
        f"curved max rel err {worst:.2e} (tol 1e-6), plane {plane_worst:.2e} "
        f"(tol 1e-8), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_plane_spiral(capsys):
    theta = math.atan(1.0)
    curve = sc.plane_log_spiral(1.0)
    worst = 0.0
    for t in np.linspace(-1.0, 3.0, 50):
        k = sc.geodesic_curvature_numeric(curve, float(t))
        want = math.cos(theta) / curve.center_distance(float(t))
        worst = max(worst, abs(k - want) / abs(want))
    announce(
        capsys, 2, "plane spiral curvature", worst <= 1e-5,
        f"50 samples, max rel err {worst:.2e} (tol 1e-5)",
    )


def test_criterion_03_sphere_loxodrome(capsys):
    worst = 0.0
    for R in (1.0, 2.0):
        for a in (0.5, 1.0, 2.0):
            curve = sc.sphere_loxodrome(R, a)
            theta = math.atan2(1.0, a)
            for v in np.linspace(0.3, 1.2, 8):
                t = (PI - float(v)) / 2.0
                k = sc.geodesic_curvature_numeric(curve, t)
                want = (math.cos(v) / math.sin(v)) * math.cos(theta) / R
                worst = max(worst, abs(k - want) / abs(want))
    announce(
        capsys, 3, "sphere loxodrome curvature", worst <= 1e-5,
        f"R in {{1,2}}, a in {{0.5,1,2}}, max rel err {worst:.2e} (tol 1e-5)",
    )


def test_criterion_04_pseudosphere_loxodrome(capsys):
    worst = 0.0
    for R, theta in ((1.0, PI / 4.0), (2.0, PI / 3.0)):
        curve = sc.pseudosphere_loxodrome(R, theta)
        want = -math.cos(theta) / R
        for v in np.linspace(0.3, 1.45, 25):
            k = sc.geodesic_curvature_numeric(curve, float(v))
            worst = max(worst, abs(k - want))
    announce(
        capsys, 4, "pseudosphere loxodrome curvature", worst <= 1e-5,
        f"50 samples, max abs err {worst:.2e} (tol 1e-5)",
    )


def test_criterion_05_liouville(capsys):
    families = (
        (sc.plane_log_spiral(1.0), np.linspace(0.2, 1.8, 5)),
        (sc.sphere_loxodrome(1.0, 1.0), np.linspace(1.0, 1.4, 5)),
        (sc.pseudosphere_loxodrome(1.0, PI / 3.0), np.linspace(0.3, 1.3, 5)),
        (
            sc.coordinate_curve(sc.sphere_patch(1.0), "parallel", 0.9),
            np.linspace(0.0, 2.0, 5),
        ),
    )
    worst = 0.0
    for curve, ts in families:
        for t in ts:
            worst = max(worst, sc.liouville_breakdown(curve, float(t)).residual)
    k2_worst = 0.0
    for patch, vs in (
        (sc.sphere_patch(1.0), (0.7, 1.2, 2.0)),
        (sc.pseudosphere_patch(1.0), (0.4, 0.9, 1.3)),
    ):
        meridian = sc.coordinate_curve(patch, "meridian", 0.3)
        for v in vs:
            k2_worst = max(k2_worst, abs(sc.liouville_breakdown(meridian, v).k2))
    ok = worst <= 1e-5 and k2_worst <= 1e-8
    announce(
        capsys, 5, "liouville decomposition", ok,
        f"4 families, max residual {worst:.2e} (tol 1e-5), "
        f"meridian |k2| {k2_worst:.2e} (tol 1e-8)",
    )


def test_criterion_06_derivative_at_flat(capsys):
    (h,) = fit_steps(0.0, -math.inf, math.inf, EPS ** 0.2)
    worst = 0.0
    for r in (0.5, 1.0, 3.0):
        for theta in (PI / 6.0, PI / 3.0, 3.0 * PI / 4.0):
            got = richardson_first(lambda K: sc.spiral_curvature(K, r, theta), 0.0, h)[0]
            want = -(r / 3.0) * math.cos(theta)
            worst = max(worst, abs(got - want) / abs(want))
    announce(
        capsys, 6, "K-derivative at K=0 (Richardson FD)", worst <= 1e-8,
        f"9 (r, theta) pairs, max rel err {worst:.2e} (tol 1e-8)",
    )


def test_criterion_07_ratio_limit(capsys):
    theta = PI / 4.0
    dev_at_fine = abs(
        sc.spiral_curvature(4.0, 1e-3, theta) / sc.spiral_curvature(-4.0, 1e-3, theta)
        - 1.0
    )
    rs = np.logspace(-1, -4, 13)
    devs = [
        abs(
            sc.spiral_curvature(4.0, float(r), theta)
            / sc.spiral_curvature(-4.0, float(r), theta)
            - 1.0
        )
        for r in rs
    ]
    slope = float(np.polyfit(np.log(rs), np.log(devs), 1)[0])
    ok = dev_at_fine <= 4e-6 and abs(slope - 2.0) <= 0.1
    announce(
        capsys, 7, "curvature ratio limit", ok,
        f"|ratio-1| = {dev_at_fine:.2e} at r=1e-3 (tol 4e-6), "
        f"log-log slope {slope:.3f} (2.0 +/- 0.1)",
    )


def test_criterion_08_monotone_in_K(capsys):
    checked = 0
    violations = 0
    for r in (0.25, 1.0, 4.0):
        t_max = (PI / r - 1e-3) ** 2
        for t in np.linspace(-25.0, t_max, 1000):
            checked += 1
            if not sc.geodesic_circle_curvature_dK(float(t), r) < 0.0:
                violations += 1
    exact = all(
        sc.geodesic_circle_curvature_dK(0.0, r) == -(r / 3.0)
        for r in (0.25, 1.0, 4.0)
    )
    ok = checked == 3000 and violations == 0 and exact
    announce(
        capsys, 8, "monotone decrease in K", ok,
        f"{checked} points, {violations} sign violations, "
        f"derivative at 0 bit-exact: {exact}",
    )


def test_criterion_09_sign_pattern(capsys):
    r = 1e-2
    neg_ok = True
    flat_worst = 0.0
    for K in (-4.0, 0.0, 4.0):
        for theta in (PI / 6.0, PI / 3.0, 2.0 * PI / 3.0):
            neg_ok = neg_ok and sc.spiral_curvature_abs_dK(K, r, theta) < 0.0
        flat_worst = max(flat_worst, abs(sc.spiral_curvature_abs_dK(K, r, PI / 2.0)))
    ok = neg_ok and flat_worst <= 1e-12
    announce(
        capsys, 9, "sign of d|k|/dK", ok,
        f"negative off the right angle: {neg_ok}, "
        f"|d|k|/dK| at theta=pi/2 {flat_worst:.2e} (tol 1e-12)",
    )


def test_criterion_10_seam_stability(capsys):
    theta = PI / 3.0
    worst = 0.0
    for r in (0.05, 0.3, 1.0, 5.0):
        for q in np.linspace(0.9e-4, 1.1e-4, 9):
            for sgn in (1.0, -1.0):
                K = sgn * float(q) / (r * r)
                if K > 0.0:
                    s = math.sqrt(K)
                    direct = s / math.tan(r * s) * math.cos(theta)
                else:
                    b = math.sqrt(-K)
                    direct = b / math.tanh(r * b) * math.cos(theta)
                series = spiral_curvature_series(K, r, theta)
                worst = max(worst, abs(series - direct) / abs(direct))
    jump_worst = 0.0
    for r in (0.5, 1.0, 2.0):
        k0 = sc.spiral_curvature(0.0, r, theta)
        for d in (1e-16, -1e-16):
            jump_worst = max(
                jump_worst, abs(sc.spiral_curvature(d, r, theta) - k0) / abs(k0)
            )
    ok = worst <= 1e-12 and jump_worst <= 1e-12
    announce(
        capsys, 10, "series/direct seam", ok,
        f"ring max rel gap {worst:.2e} (tol 1e-12), "
        f"K=0 jump {jump_worst:.2e} (tol 1e-12)",
    )


def test_criterion_11_jacobi_equation(capsys):
    worst = 0.0
    checked = 0
    for K in (-4.0, -1.0, 0.0, 1.0, 4.0):
        m = sc.polar_metric(K)
        hi = min(3.0, m.r_limit - 0.05)
        for r in np.linspace(0.05, hi, 20):
            h = fit_steps(float(r), -math.inf, math.inf, EPS ** (1.0 / 6.0))[0]
            d2 = richardson_second(m.sqrtG, float(r), h)[0]
            worst = max(worst, abs(d2 + K * m.sqrtG(float(r))))
            checked += 1
    ok = checked == 100 and worst <= 1e-6
    announce(
        capsys, 11, "jacobi equation residual", ok,
        f"{checked} points over 5 curvatures, max residual {worst:.2e} (tol 1e-6)",
    )


def test_criterion_12_verify_battery(capsys):
    t0 = time.perf_counter()
    code_analytic = cli_main(["verify", "--suite", "all", "--jets", "analytic"])
    dt = time.perf_counter() - t0
    code_fd = cli_main(["verify", "--suite", "all", "--jets", "fd"])
    capsys.readouterr()
    ok = code_analytic == 0 and dt < 30.0 and code_fd == 0
    announce(
        capsys, 12, "verify battery end to end", ok,
        f"analytic exit {code_analytic} in {dt:.2f}s (< 30s), fd exit {code_fd}",
    )
