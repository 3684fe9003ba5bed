"""The contract of a curve's public readers: sample,
geodesic_curvature_numeric, angle_to_parallel, speed and
liouville_breakdown in both jet modes, and ChartCurve.point and velocity,
on the three spiral families and the polar spiral, give finite values or
raise a GeometryError at any float parameters: log-uniform magnitudes
from 1e-320 to 1e308 of either sign, and 0, -0, pi/2 and subnormals."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiralcurv import curves as cv
from spiralcurv.errors import GeometryError
from spiralcurv.liouville import liouville_breakdown
from spiralcurv.polar import _embedded_spiral
from spiralcurv.surfaces import JET_MODE_ANALYTIC, JET_MODE_FD

from test_admissibility import finite_or_geometry_error

SPECIAL = (0.0, -0.0, math.pi / 2.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308)
floats = st.one_of(
    st.sampled_from(SPECIAL),
    st.builds(
        lambda sign, log: sign * math.exp(log),
        st.sampled_from((1.0, -1.0)),
        st.floats(math.log(1e-320), math.log(1e308)),
    ),
)


def families(p, q):
    """The curves the constructors build from (p, q), the polar spiral at
    K = p and theta = q from r = 0.5 to 1 among them (the trace command's
    builder); a rejected parameter is a GeometryError too."""
    for build, args in (
        (cv.plane_log_spiral, (q,)),
        (cv.sphere_loxodrome, (p, q)),
        (cv.pseudosphere_loxodrome, (p, q)),
        (_embedded_spiral, (p, q, 0.5, 1.0)),
    ):
        try:
            yield build(*args)
        except GeometryError:
            pass


def fields(record):
    """(owner, name) of every float a CurveSample or LiouvilleBreakdown
    reports."""
    if isinstance(record, cv.CurveSample):
        yield from ((record.position, name) for name in ("x", "y", "z"))
        names = ("k", "theta") if record.r is None else ("k", "theta", "r")
        yield from ((record, name) for name in names)
    else:
        yield from ((record, name) for name in record._fields)


def record_is_finite_or_geometry_error(fn, *args):
    try:
        record = fn(*args)
    except GeometryError:
        return
    for owner, name in fields(record):
        finite_or_geometry_error(getattr, owner, name)


@settings(deadline=None, max_examples=150, derandomize=True, database=None)
@given(floats, floats, floats)
@example(1.0, 1.0, 1e-170)  # was a bare ZeroDivisionError in sample
@example(1.0, 1e130, 0.7)  # was a bare ZeroDivisionError in liouville_breakdown
@example(1.0, 1.0, 0.7)  # every family builds, the polar spiral on the unit sphere
@example(0.0, 2.0, 1e-300)  # the plane's polar spiral next to its pole
@example(1.0, 1e306, -1e-305)  # plane_log_spiral(1e306): the angle was nan, v' is -inf
def test_curve_measurements_are_finite_or_geometry_error(p, q, t):
    for curve in families(p, q):
        for mode in (JET_MODE_ANALYTIC, JET_MODE_FD):
            for measure in (cv.geodesic_curvature_numeric, cv.angle_to_parallel, cv.speed):
                finite_or_geometry_error(measure, curve, t, mode)
            record_is_finite_or_geometry_error(cv.sample, curve, t, mode)
            record_is_finite_or_geometry_error(liouville_breakdown, curve, t, mode)


@settings(deadline=None, max_examples=150, derandomize=True, database=None)
@given(floats, floats, floats)
@example(1.0, 1.0, math.nan)  # plane_log_spiral(1.0).point(nan) was (nan, nan, 0.0)
@example(1.0, 1.0, 3.5)  # sphere_loxodrome(1, 1).point(3.5) was off its chart
@example(1.0, 2.0, -1e308)  # plane_log_spiral(2.0): point was infinite, velocity (1.0, -inf)
@example(1.0, 1.0, 1e-320)  # sphere_loxodrome(1, 1).velocity was (inf, -2.0)
def test_curve_point_and_velocity_are_finite_or_geometry_error(p, q, t):
    for curve in families(p, q):
        for read in (curve.point, curve.velocity):
            try:
                values = read(t)
            except GeometryError:
                continue
            assert curve.contains(t), (read, t)  # nothing is read off the curve's range
            assert all(isinstance(x, float) and math.isfinite(x) for x in values), (read, t)
