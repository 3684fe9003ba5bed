"""Central-difference derivatives with one level of Richardson extrapolation.

Values may be floats, Vec3 or numpy arrays; all routines are pure.  Step sizes
follow the usual epsilon-power scalings, with the exponent chosen per call
site (truncation/roundoff balance differs between first and second
derivatives, and between chart jets and curve kinematics).
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .vec import Vec3

EPS = sys.float_info.epsilon

# default relative steps
STEP_FIRST = EPS ** (1.0 / 3.0)       # plain central first difference
STEP_SECOND = EPS ** 0.25             # plain central second difference
STEP_FIRST_FINE = EPS ** 0.2          # Richardson first difference
STEP_SECOND_FINE = EPS ** (1.0 / 6.0) # Richardson second difference


def scaled_step(x: float, rel: float) -> float:
    """Step proportional to the magnitude of x, floored at rel itself."""
    h = rel * max(1.0, abs(x))
    # snap so that x + h and x - h are exactly representable offsets
    t = x + h
    return t - x if t != x else rel


def central_first(f: Callable[[float], object], x: float, h: float):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_second(f: Callable[[float], object], x: float, h: float):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def richardson(d: Callable[[float], object], h: float):
    """One Richardson level on a central estimate d(step), and its error.

    d must have an even error expansion in the step, so combining d(h)
    and d(h/2) removes the h^2 term.  The returned error estimate is the
    magnitude of the extrapolation correction.
    """
    d_h, d_half = d(h), d(h / 2.0)
    best = d_half + (d_half - d_h) / 3.0
    return best, _mag(best - d_half)


def richardson_first(f, x, h):
    """Extrapolated first derivative and an error estimate."""
    return richardson(lambda s: central_first(f, x, s), h)


def richardson_second(f, x, h):
    """Extrapolated second derivative and an error estimate."""
    return richardson(lambda s: central_second(f, x, s), h)


def richardson_sequence(estimates, steps):
    """Neville tableau in h^2 for a list of same-order central estimates.

    estimates[i] computed at steps[i]; steps need not halve.  Returns the
    highest-order corner of the tableau.
    """
    work = list(estimates)
    hh = [s * s for s in steps]
    n = len(work)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            w = hh[i] / hh[i + level]
            nxt.append((w * work[i + 1] - work[i]) / (w - 1.0))
        work = nxt
    return work[0]


def fit_step(h: float, x: float, lo: float, hi: float) -> float:
    """Shrink h so the whole stencil [x-h, x+h] stays inside (lo, hi)."""
    room = min(x - lo, hi - x)
    if not math.isfinite(room):
        room = math.inf
    if room <= 0.0:
        return 0.0
    return min(h, 0.45 * room)


def _mag(v) -> float:
    if isinstance(v, Vec3):
        return v.norm()
    if isinstance(v, (int, float)):
        return abs(float(v))
    # a numpy array: the value np.linalg.norm returns for a real vector
    return math.sqrt(float(v.dot(v)))
