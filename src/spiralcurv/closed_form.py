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
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BadParameter, DomainError

# Taylor coefficients of x*cot(x) in powers of x^2 (valid for both signs of
# K through x^2 = K*r^2):  1 - y/3 - y^2/45 - 2 y^3/945 - y^4/4725 - ...
_COT_COEFFS = (
    1.0,
    -1.0 / 3.0,
    -1.0 / 45.0,
    -2.0 / 945.0,
    -1.0 / 4725.0,
    -2.0 / 93555.0,
)

# Coefficients of the derivative series, factored as
#   -(r/3) * (1 + (2/15) y + (2/105) y^2 + (4/1575) y^3 + (2/6237) y^4)
# so the K = 0 value is bit-exactly -(r/3).
_DERIV_COEFFS = (2.0 / 15.0, 2.0 / 105.0, 4.0 / 1575.0, 2.0 / 6237.0)

_SINH_SQUARE_OVERFLOW = 400.0  # sinh(b)^2 is inf from b ~ 355.6 on

SERIES_WINDOW = 1e-4          # |K| r^2 below this -> series branch
SERIES_VALIDITY = 0.1         # explicit series calls allowed up to here

METHOD_CLOSED_FORM = "closed_form"
METHOD_SERIES = "series"


class CurvatureProfile(namedtuple("_Fields", "axis samples theta fixed_value method sample_methods")):
    """A 1-D sweep of spiral curvature along r (fixed K) or K (fixed r):
    samples lists (x, k) and sample_methods the per-sample tags.  A tuple
    with a frozen dataclass's value behaviour: read-only fields, a repr by
    field, and equal only to a CurvatureProfile with equal fields."""

    __slots__ = ()

    def __new__(cls, axis, samples, theta, fixed_value, method, sample_methods=None):
        tags = [] if sample_methods is None else sample_methods
        return tuple.__new__(cls, (axis, samples, theta, fixed_value, method, tags))

    def __eq__(self, other):
        if type(other) is CurvatureProfile:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__


def _require_admissible(K: float, r: float) -> None:
    """The admissibility gate for (K, r), shared by every module.

    K finite; r finite, positive and above about 5.6e-309, below which
    1/r, and with it every branch, overflows; r*sqrt(K) < pi for K > 0
    (the conjugate radius).  Else DomainError.  Past the gate no branch
    divides by zero or overflows.
    """
    if not math.isfinite(K):
        raise DomainError(f"K={K} must be finite")
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


def _series_value(y: float, r: float, terms: int) -> float:
    """Horner evaluation of the x*cot(x) series in y = K*r^2, over r."""
    acc = _COT_COEFFS[terms - 1]
    for c in reversed(_COT_COEFFS[: terms - 1]):
        acc = c + y * acc
    return acc / r


def _circle_value(K: float, r: float, terms: int = 4) -> tuple[float, str]:
    """Circle curvature and the branch tag that produced it, at a (K, r)
    that passed _require_admissible."""
    y = K * r * r
    if abs(y) < SERIES_WINDOW:
        return _series_value(y, r, terms), METHOD_SERIES
    if K > 0.0:
        a = r * math.sqrt(K)
        return math.sqrt(K) / math.tan(a), METHOD_CLOSED_FORM
    b = r * math.sqrt(-K)
    return math.sqrt(-K) / math.tanh(b), METHOD_CLOSED_FORM


def geodesic_circle_curvature(K: float, r: float) -> float:
    """Geodesic curvature of the geodesic circle of radius r when the
    ambient Gaussian curvature is the constant K.

    Defined for r > 0 and, when K > 0, r*sqrt(K) < pi (the geodesic
    circle stops existing at the conjugate radius).  Inside the seam
    window |K|*r^2 < 1e-4 the series branch is used (exact 1/r at K = 0).
    """
    _require_admissible(K, r)
    return _circle_value(K, r)[0]


def geodesic_circle_curvature_dK(K: float, r: float) -> float:
    """Partial derivative of the circle curvature with respect to K.

    Restricted to the principal branch r*sqrt(K) < pi for K > 0.  The
    value at K = 0 is exactly -(r/3); the sign is negative everywhere.
    """
    _require_admissible(K, r)
    return _circle_dK(K, r)


def _circle_dK(K: float, r: float) -> float:
    """geodesic_circle_curvature_dK at a (K, r) that passed the gate."""
    y = K * r * r
    if abs(y) < SERIES_WINDOW:
        acc = _DERIV_COEFFS[-1]
        for c in reversed(_DERIV_COEFFS[:-1]):
            acc = c + y * acc
        return -(r / 3.0) * (1.0 + y * acc)
    if K > 0.0:
        a = r * math.sqrt(K)
        s = math.sin(a)
        return (1.0 / (2.0 * math.sqrt(K))) * (1.0 / math.tan(a) - a / (s * s))
    b = r * math.sqrt(-K)
    if b > _SINH_SQUARE_OVERFLOW:
        # sinh(b)^2 is inf, so b / sinh(b)^2 is 0; sinh itself overflows past b ~ 710
        return (1.0 / (2.0 * math.sqrt(-K))) * (-1.0 / math.tanh(b))
    sh = math.sinh(b)
    return (1.0 / (2.0 * math.sqrt(-K))) * (-1.0 / math.tanh(b) + b / (sh * sh))


def spiral_curvature_with_method(K: float, r: float, theta: float) -> tuple[float, str]:
    """Spiral curvature plus the branch tag ("closed_form" or "series")."""
    _require_admissible(K, r)
    _require_angle(theta)
    value, method = _circle_value(K, r)
    return math.cos(theta) * value, method


def spiral_curvature(K: float, r: float, theta: float) -> float:
    """Geodesic curvature of the constant-angle spiral: cos(theta) times
    the geodesic-circle curvature.  See _require_admissible and
    _require_angle for the admissible region."""
    return spiral_curvature_with_method(K, r, theta)[0]


def spiral_curvature_series(K: float, r: float, theta: float, terms: int = 4) -> float:
    """Series evaluation around K = 0 with an explicit term count.

    terms counts the powers of (K*r^2) kept, between 2 and 6; validity
    window |K|*r^2 <= 0.1.
    """
    if not isinstance(terms, int) or not 2 <= terms <= 6:
        raise BadParameter(f"terms={terms!r} must be an int in [2, 6]")
    _require_admissible(K, r)
    _require_angle(theta)
    y = K * r * r
    if abs(y) > SERIES_VALIDITY:
        raise DomainError(
            f"|K|*r^2 = {abs(y)} outside the series validity window {SERIES_VALIDITY}"
        )
    return math.cos(theta) * _series_value(y, r, terms)


def spiral_curvature_dK(K: float, r: float, theta: float) -> float:
    """Partial derivative of the spiral curvature with respect to K.

    Equals cos(theta) times the circle-curvature derivative; at K = 0 the
    value is -(r/3)*cos(theta)."""
    _require_admissible(K, r)
    _require_angle(theta)
    return math.cos(theta) * _circle_dK(K, r)


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
    +inf for K <= 0."""
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

    An inadmissible grid point raises DomainError, and no partial
    result is returned.
    """
    if axis not in ("r", "K"):
        raise BadParameter(f"axis must be 'r' or 'K', got {axis!r}")
    if not isinstance(steps, int) or steps < 2:
        raise BadParameter(f"steps={steps!r} must be an int >= 2")
    if not x_min < x_max:
        raise BadParameter(f"need x_min < x_max, got [{x_min}, {x_max}]")

    xs = [x_min + i * (x_max - x_min) / (steps - 1) for i in range(steps)]
    xs[-1] = x_max

    _require_angle(theta)
    c = math.cos(theta)
    samples: list[tuple[float, float]] = []
    tags: list[str] = []
    for x in xs:
        K, r = (fixed_value, x) if axis == "r" else (x, fixed_value)
        _require_admissible(K, r)
        value, method = _circle_value(K, r)
        samples.append((x, c * value))
        tags.append(method)
    return CurvatureProfile(axis, samples, theta, fixed_value, METHOD_CLOSED_FORM, tags)
