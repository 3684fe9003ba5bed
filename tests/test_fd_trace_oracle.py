"""Exit 0 means a right k: traces against the closed form.

Seeded inputs of `trace` on the plane, the sphere and the polar spiral
with K >= 0, each built as the CLI builds it (cli._build_trace_curve) and
sampled at the CLI's 5 points, with FD jets and with analytic ones.  Each
k is measured against k_cf = spiral_curvature(K, r, theta) at the
sample's pole distance r, in units of the scale of the curvature:

    |k - k_cf| / (|cos theta| * max(|c|, 1/r)),  c = the circle curvature.

A sample passes if that is at most 1e-6, or if it raises DegenerateJet in
both modes, at the sphere chart's far pole, which the spiral reaches at
r = pi R up to rounding, or, with FD jets, if it raises NumericalBreakdown.
An input whose curve cli._build_trace_curve refuses (a GeometryError) is
a `trace` that exits 1, not a wrong k, and passes too: a tiny sphere r
whose t rounds onto the end of the spiral's parameter range is one,
refused with a message that names r.  theta is uniform in
(0.002, pi - 0.002), or within [1e-8, 1e-3) of 0 or of pi; R is
log-uniform in [1e-3, 1e3]; the plane's radii are log-uniform in
[1e-10, 1e10], the sphere's uniform in (0, pi R) and polar K is 0 or
log-uniform in [1e-6, 1e6], with radii up to its conjugate radius (10 at
K = 0).

The tractroid is left out: next to its floor the FD v-step
rel * max(1, |v|) is too coarse for z = R(log tan(v/2) + cos v), and k has
no error gate of its own, so some of its FD traces are still off by more
than 1e-6 (ROADMAP items 9 and 10).
"""
import argparse
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiralcurv import cli, curves as cv
from spiralcurv.closed_form import _linspace, geodesic_circle_curvature, spiral_curvature
from spiralcurv.errors import DegenerateJet, GeometryError, NumericalBreakdown
from spiralcurv.surfaces import JET_MODE_ANALYTIC, JET_MODE_FD

PI = math.pi
TOL = 1e-6


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


# theta across the open range, and within [1e-8, 1e-3) of either end
thetas = st.one_of(
    st.floats(0.002, PI - 0.002),
    log_uniform(-8, -3).filter(lambda d: d < 1e-3),
    log_uniform(-8, -3).filter(lambda d: d < 1e-3).map(lambda d: PI - d),
)


@st.composite
def trace_inputs(draw):
    surface = draw(st.sampled_from(("plane", "sphere", "polar")))
    theta, R, K = draw(thetas), draw(log_uniform(-3, 3)), 0.0
    if surface == "plane":
        radii = log_uniform(-10, 10)
    elif surface == "sphere":
        radii = st.floats(0.0, PI * R, exclude_min=True, exclude_max=True)
    else:
        K = draw(st.one_of(st.just(0.0), log_uniform(-6, 6)))
        radii = st.floats(0.0, PI / math.sqrt(K) if K else 10.0,
                          exclude_min=True, exclude_max=True)
    return surface, K, R, theta, draw(radii), draw(radii)


def worst_error(surface, K, R, theta, r0, r1, mode):
    """The largest error of the 5 samples of the trace in the jet mode,
    0.0 for one whose curve is refused; samples that raise as the
    module docstring allows are skipped."""
    args = argparse.Namespace(surface=surface, K=K, R=R, theta=theta, r0=r0, r1=r1)
    try:
        curve, t0, t1 = cli._build_trace_curve(args)
    except GeometryError:
        return 0.0
    if surface == "sphere":
        K = 1.0 / (R * R)
    worst = 0.0
    for t in _linspace(t0, t1, 5):
        try:
            s = cv.sample(curve, t, mode)
        except NumericalBreakdown:
            if mode != JET_MODE_FD:
                raise
            continue
        except DegenerateJet:
            with pytest.raises(DegenerateJet):
                cv.sample(curve, t, JET_MODE_ANALYTIC)
            continue
        scale = abs(math.cos(theta)) * max(abs(geodesic_circle_curvature(K, s.r)), 1.0 / s.r)
        worst = max(worst, abs(s.k - spiral_curvature(K, s.r, theta)) / scale)
    return worst


@pytest.mark.parametrize("mode", [JET_MODE_ANALYTIC, JET_MODE_FD])
@settings(deadline=None, max_examples=250, derandomize=True, database=None)
@given(trace_inputs())
# the polar spiral at theta = 1e-3 winds past u = -2900 at K = 4 and past
# u = -875 at K = 0, where a 2-D FD stencil steps 2 rad in u
@example(("polar", 4.0, 1.0, 0.001, 0.3, 1.4))
@example(("polar", 0.0, 1.0, 0.001, 0.5, 1.2))
# the plane's spiral at r0 = 2e-8 runs at u = -3290: cos(theta)/r0 = -5.1212e7
@example(("plane", 0.0, 1.0, 3.136196698714557, 1.952639558262677e-08, 1.0))
def test_a_trace_reads_the_closed_form(mode, case):
    assert worst_error(*case, mode) <= TOL, case
