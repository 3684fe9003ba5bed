"""Closed-form geodesic curvature of constant-angle spirals.

On a surface of constant Gaussian curvature K, a curve that meets every
geodesic circle about a fixed pole at a constant angle theta has geodesic
curvature

    k(K, r, theta) = cos(theta) * circle(K, r)

where circle(K, r) is the curvature of the geodesic circle of radius r:
sqrt(K)*cot(r*sqrt(K)) for K > 0, 1/r for K = 0, and
sqrt(-K)*coth(r*sqrt(-K)) for K < 0.  The three branches glue into a single
real-analytic function of K; a short power series around K = 0 is used
inside the seam window |K|*r^2 < 1e-4 so sweeps across K = 0 never lose
precision to cancellation.

The K-derivative of the circle curvature is negative everywhere it is
defined, with value -r/3 at K = 0; consequently |k| is strictly decreasing
in K except for the radial geodesics theta = pi/2.

The kernels _circle_value and _circle_dK run the gate's tests inline and
call _require_admissible only to raise; each public scalar calls one kernel.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BadParameter, DomainError
from .vec import Record

# Taylor coefficients of x*cot(x) in powers of x^2 (valid for both signs of
# K through x^2 = K*r^2):  1 - y/3 - y^2/45 - 2 y^3/945 - ...
_COT_COEFFS = (
    1.0,
    -1.0 / 3.0,
    -1.0 / 45.0,
    -2.0 / 945.0,
)

# Coefficients of the derivative series, factored as
#   -(r/3) * (1 + (2/15) y + (2/105) y^2 + (4/1575) y^3 + (2/6237) y^4)
# so the K = 0 value is bit-exactly -(r/3).
_DERIV_COEFFS = (2.0 / 15.0, 2.0 / 105.0, 4.0 / 1575.0, 2.0 / 6237.0)

# the four-term series that both kernels write out
_C0, _C1, _C2, _C3 = _COT_COEFFS
_D0, _D1, _D2, _D3 = _DERIV_COEFFS

_SINH_SQUARE_OVERFLOW = 400.0  # sinh(b)^2 is inf from b ~ 355.6 on

SERIES_WINDOW = 1e-4          # |K| r^2 below this -> series branch
SERIES_VALIDITY = 0.1         # explicit series calls allowed up to here

METHOD_CLOSED_FORM = "closed_form"
METHOD_SERIES = "series"


class CurvatureProfile(
    Record, namedtuple("_Fields", "axis samples theta fixed_value sample_methods")
):
    """A 1-D sweep of spiral curvature along r (fixed K) or K (fixed r):
    samples lists (x, k) and sample_methods the branch tag of each sample.
    A tuple with a frozen dataclass's value behaviour (vec.Record):
    read-only fields, a repr by field, equal only to a CurvatureProfile
    with equal fields, and not ordered."""

    __slots__ = ()


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """The one sampling grid of the package: num >= 2 points
    start + i*(stop - start)/(num - 1), with start itself first and stop
    itself last, so a sweep never ends an ulp past its end and keeps the
    sign of a zero end: start alone up to stop where stop == start, and
    (1 - t)*start + t*stop at t = i/(num - 1) where stop - start overflows."""
    span, last = stop - start, num - 1
    if span == 0.0:
        xs = [start] * num
    elif math.isinf(span) and math.isfinite(start) and math.isfinite(stop):
        xs = [(1.0 - i / last) * start + i / last * stop for i in range(num)]
    else:
        xs = [start + i * span / last for i in range(num)]
    xs[0], xs[-1] = start, stop
    return xs


def _require_finite_K(K: float) -> None:
    """The gate's check of K alone: K finite, else DomainError."""
    if not math.isfinite(K):
        raise DomainError(f"K={K} must be finite")


def _require_admissible(K: float, r: float) -> None:
    """The admissibility gate for (K, r), shared by every module.

    K finite; r finite, positive and above about 5.6e-309, below which
    1/r, and with it every branch, overflows; r*sqrt(K) < pi for K > 0
    (the conjugate radius).  Else DomainError.  Past the gate no branch
    divides by zero or overflows.  The kernels and profile run these tests
    inline and call the gate only to raise, so it words every message.
    """
    _require_finite_K(K)
    if not 0.0 < r < math.inf:
        raise DomainError(f"radius r={r} must be positive and finite")
    if K > 0.0 and r * math.sqrt(K) >= math.pi:
        raise DomainError(
            f"r={r} at or past the conjugate radius pi/sqrt(K)={math.pi / math.sqrt(K)}"
        )
    if 1.0 / r == math.inf:
        raise DomainError(f"radius r={r} too small: the circle curvature overflows")


def _require_angle(theta: float) -> None:
    """The admissibility gate for the spiral angle: theta in (0, pi)."""
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta={theta} outside (0, pi)")


def _circle_value(K: float, r: float) -> tuple[float, str]:
    """Circle curvature and the branch tag that produced it.  Runs
    _require_admissible's tests inline and calls it only where one fails."""
    if not (-math.inf < K < math.inf and 0.0 < r < math.inf
            and (K <= 0.0 or r * math.sqrt(K) < math.pi) and 1.0 / r != math.inf):
        _require_admissible(K, r)
    y = K * r * r
    if -SERIES_WINDOW < y < SERIES_WINDOW:
        return (_C0 + y * (_C1 + y * (_C2 + y * _C3))) / r, METHOD_SERIES
    if K > 0.0:
        s = math.sqrt(K)
        return s / math.tan(r * s), METHOD_CLOSED_FORM
    s = math.sqrt(-K)
    return s / math.tanh(r * s), METHOD_CLOSED_FORM


def geodesic_circle_curvature(K: float, r: float) -> float:
    """Geodesic curvature of the geodesic circle of radius r when the
    ambient Gaussian curvature is the constant K.

    Defined for r > 0 and, when K > 0, r*sqrt(K) < pi (the geodesic
    circle stops existing at the conjugate radius).  Inside the seam
    window |K|*r^2 < 1e-4 the series branch is used (exact 1/r at K = 0).
    """
    return _circle_value(K, r)[0]


def geodesic_circle_curvature_dK(K: float, r: float) -> float:
    """Partial derivative of the circle curvature with respect to K.

    Restricted to the principal branch r*sqrt(K) < pi for K > 0.  The
    value at K = 0 is exactly -(r/3); the sign is negative everywhere.
    """
    return _circle_dK(K, r)


def _circle_dK(K: float, r: float) -> float:
    """geodesic_circle_curvature_dK, with the gate's tests inline as in
    _circle_value."""
    if not (-math.inf < K < math.inf and 0.0 < r < math.inf
            and (K <= 0.0 or r * math.sqrt(K) < math.pi) and 1.0 / r != math.inf):
        _require_admissible(K, r)
    y = K * r * r
    if -SERIES_WINDOW < y < SERIES_WINDOW:
        return -(r / 3.0) * (1.0 + y * (_D0 + y * (_D1 + y * (_D2 + y * _D3))))
    if K > 0.0:
        q = math.sqrt(K)
        a = r * q
        s = math.sin(a)
        return (1.0 / (2.0 * q)) * (1.0 / math.tan(a) - a / (s * s))
    q = math.sqrt(-K)
    b = r * q
    if b > _SINH_SQUARE_OVERFLOW:
        # sinh(b)^2 is inf, so b / sinh(b)^2 is 0; sinh itself overflows past b ~ 710
        return (1.0 / (2.0 * q)) * (-1.0 / math.tanh(b))
    sh = math.sinh(b)
    return (1.0 / (2.0 * q)) * (-1.0 / math.tanh(b) + b / (sh * sh))


def spiral_curvature_with_method(K: float, r: float, theta: float) -> tuple[float, str]:
    """Spiral curvature plus the branch tag ("closed_form" or "series")."""
    value, method = _circle_value(K, r)
    if not 0.0 < theta < math.pi:
        _require_angle(theta)
    return math.cos(theta) * value, method


def spiral_curvature(K: float, r: float, theta: float) -> float:
    """Geodesic curvature of the constant-angle spiral: cos(theta) times
    the geodesic-circle curvature.  See _require_admissible and
    _require_angle for the admissible region."""
    value = _circle_value(K, r)[0]
    if not 0.0 < theta < math.pi:
        _require_angle(theta)
    return math.cos(theta) * value


def spiral_curvature_series(K: float, r: float, theta: float) -> float:
    """Spiral curvature from the four-term series in y = K*r^2 that
    _circle_value uses inside the seam window, at any |y| up to the
    validity window 0.1 (DomainError past it); inside the seam window it
    has the bits of spiral_curvature."""
    _require_admissible(K, r)
    _require_angle(theta)
    y = K * r * r
    if abs(y) > SERIES_VALIDITY:
        raise DomainError(
            f"|K|*r^2 = {abs(y)} outside the series validity window {SERIES_VALIDITY}"
        )
    return math.cos(theta) * ((_C0 + y * (_C1 + y * (_C2 + y * _C3))) / r)


def spiral_curvature_dK(K: float, r: float, theta: float) -> float:
    """Partial derivative of the spiral curvature with respect to K.

    Equals cos(theta) times the circle-curvature derivative; at K = 0 the
    value is -(r/3)*cos(theta)."""
    dK = _circle_dK(K, r)
    if not 0.0 < theta < math.pi:
        _require_angle(theta)
    return math.cos(theta) * dK


def spiral_curvature_abs_dK(K: float, r: float, theta: float) -> float:
    """Derivative of |k| with respect to K, using sign(k)*dk/dK with the
    convention sign(0) = 0.

    Negative whenever the curve is not a radial geodesic; for theta =
    pi/2 the factor cos(theta) kills it (exactly in exact arithmetic, to
    ~1e-16 in floats)."""
    k = spiral_curvature(K, r, theta)
    if k == 0.0:
        return 0.0
    return math.copysign(1.0, k) * spiral_curvature_dK(K, r, theta)


def first_positive_circle_zero(K: float) -> float:
    """Smallest r > 0 where the circle curvature vanishes (K > 0 only);
    +inf for K <= 0.  DomainError for a K that is not finite."""
    _require_finite_K(K)
    if K > 0.0:
        return math.pi / (2.0 * math.sqrt(K))
    return math.inf


def profile(
    axis: str,
    fixed_value: float,
    x_min: float,
    x_max: float,
    steps: int,
    theta: float,
) -> CurvatureProfile:
    """Sweep the spiral curvature along r (axis="r", fixed K) or along K
    (axis="K", fixed r).

    Every row and tag has the bits of spiral_curvature_with_method at that
    point.  The gate's tests run inline; the first inadmissible grid point
    raises the gate's own DomainError, and no partial result is returned.
    """
    if axis not in ("r", "K"):
        raise BadParameter(f"axis must be 'r' or 'K', got {axis!r}")
    if not isinstance(steps, int) or steps < 2:
        raise BadParameter(f"steps={steps!r} must be an int >= 2")
    if not x_min < x_max:
        raise BadParameter(f"need x_min < x_max, got [{x_min}, {x_max}]")

    xs = _linspace(x_min, x_max, steps)
    _require_angle(theta)
    # _require_admissible's tests and _circle_value's branches inline, in the
    # same float operations; only a point that fails the tests calls the gate
    c = math.cos(theta)
    c0, c1, c2, c3 = _COT_COEFFS
    sqrt, tan, tanh, inf, pi = math.sqrt, math.tan, math.tanh, math.inf, math.pi
    samples: list[tuple[float, float]] = []
    tags: list[str] = []
    if axis == "r":
        K, finite, s = fixed_value, math.isfinite(fixed_value), sqrt(abs(fixed_value))
        for r in xs:
            if not (finite and 0.0 < r < inf and (K <= 0.0 or r * s < pi) and 1.0 / r != inf):
                _require_admissible(K, r)
            y = K * r * r
            if -SERIES_WINDOW < y < SERIES_WINDOW:
                samples.append((r, c * ((c0 + y * (c1 + y * (c2 + y * c3))) / r)))
                tags.append(METHOD_SERIES)
            else:
                samples.append((r, c * (s / tan(r * s) if K > 0.0 else s / tanh(r * s))))
                tags.append(METHOD_CLOSED_FORM)
    else:
        r, r_ok = fixed_value, 0.0 < fixed_value < inf and 1.0 / fixed_value != inf
        for K in xs:
            if not (r_ok and -inf < K < inf and (K <= 0.0 or r * sqrt(K) < pi)):
                _require_admissible(K, r)
            y = K * r * r
            if -SERIES_WINDOW < y < SERIES_WINDOW:
                samples.append((K, c * ((c0 + y * (c1 + y * (c2 + y * c3))) / r)))
                tags.append(METHOD_SERIES)
            else:
                s = sqrt(abs(K))
                samples.append((K, c * (s / tan(r * s) if K > 0.0 else s / tanh(r * s))))
                tags.append(METHOD_CLOSED_FORM)
    return CurvatureProfile(axis, samples, theta, fixed_value, tags)
