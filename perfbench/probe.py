"""A short probe of every layer, for traced runs.

A traced run prints every per-layer metric on every workload.  A layer the
workload never calls would read 0 on every run, which measures nothing.  So
after the workload's traced rounds, the traced run calls the public
functions of every layer once, on fixed inputs, under a tracer of its own;
a per-layer time that the workload left at 0 takes the probe's value.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

from inputs import FIGURES


def run_probe(tracer, out_dir: Path) -> None:
    """Call every layer once with `tracer` enabled (it must be installed)."""
    from spiralcurv import cli
    from spiralcurv import curves as cv
    from spiralcurv import liouville as lv
    from spiralcurv import polar as pl
    from spiralcurv import surfaces as sf
    from spiralcurv import verify as vf

    figure = out_dir / "probe.svg"
    argvs = [
        ["curvature", "--K=1", "--r", "1", "--theta", "0.7"],
        ["profile", "--axis", "r", "--fixed=1", "--min=0.1", "--max=2", "--steps", "10",
         "--theta", "0.7"],
        ["trace", "--surface", "sphere", "--theta", "1.0", "--r0", "0.5", "--r1", "1.2",
         "--samples", "5"],
    ] + [["figure", "--name", name, "--out", str(figure)] for name in FIGURES]
    modes = ((sf.JET_MODE_ANALYTIC, 1.0), (sf.JET_MODE_FD, 100.0))
    tracer.enabled = True
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), tracer.span(f"cli.{argv[0]}"):
                cli.main(argv)
        curves = [(cv.plane_log_spiral(1.0), 0.5), (cv.sphere_loxodrome(1.0, 1.0), 0.9),
                  (cv.pseudosphere_loxodrome(1.0, math.pi / 3.0), 0.8)]
        for mode, _ in modes:
            for curve, t in curves:
                cv.sample(curve, t, mode)
            sf.gaussian_curvature(sf.sphere_patch(1.0), 0.5, 1.0, mode)
        cv.arc_length(curves[0][0], 0.0, 1.0)
        pts = [pl.spiral_chart_trace(1.0, 1.0, 0.5, 0.0, 0.5 + 0.01 * i) for i in range(100)]
        pl.embed_polar_trace(sf.sphere_patch(1.0), pts)
        pl.circle_curvature(1.0, 1.0)
        lv.liouville_breakdown(curves[1][0], 0.9)
        for mode, scale in modes:
            vf.run_suites("all", mode, scale)
    finally:
        tracer.enabled = False
        figure.unlink(missing_ok=True)
