"""Central-difference derivatives with one level of Richardson extrapolation,
and adaptive Gauss-Kronrod quadrature.

Derivative values may be floats, Vec3 or numpy arrays; all routines are
pure.  Step sizes follow the usual epsilon-power scalings, with the exponent
chosen per call site (truncation/roundoff balance differs between first and
second derivatives, and between chart jets and curve kinematics).

gauss_kronrod integrates a float function over a finite interval with the
7-point Gauss / 15-point Kronrod pair (the QUADPACK qk15 constants).  It
bisects the panel with the largest error estimate |K15 - G7| until the
summed estimate is at most max(epsabs, epsrel * |I|); more than
PANEL_LIMIT = 200 panels, or a non-finite sum, raises NumericalBreakdown.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import NumericalBreakdown
from .vec import Vec3

EPS = sys.float_info.epsilon

# default relative steps
STEP_FIRST = EPS ** (1.0 / 3.0)       # plain central first difference
STEP_SECOND = EPS ** 0.25             # plain central second difference
STEP_FIRST_FINE = EPS ** 0.2          # Richardson first difference
STEP_SECOND_FINE = EPS ** (1.0 / 6.0) # Richardson second difference

PANEL_LIMIT = 200                     # gauss_kronrod panels


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


def richardson_second_halving(f, x, h):
    """richardson_second at h, then at h/2, h/4, ... for as long as the
    caller asks: yields (estimate, error) pairs, the first equal to
    richardson_second(f, x, h).  Each later pair reuses the previous
    pair's half-step central difference, so it costs one central
    difference (three evaluations of f), not the two of a fresh
    richardson_second."""
    d_h = central_second(f, x, h)
    while True:
        h /= 2.0
        d_half = central_second(f, x, h)
        best = d_half + (d_half - d_h) / 3.0
        yield best, _mag(best - d_half)
        d_h = d_half


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


# Kronrod nodes on [-1, 1] (the odd-indexed ones are the Gauss nodes), with
# the Kronrod and the Gauss weights; node 7 is the centre
_XK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)


def gauss_kronrod(
    f: Callable[[float], float],
    a: float,
    b: float,
    epsabs: float,
    epsrel: float,
):
    """Integral of f from a to b and its error estimate (see the module
    docstring).  Swapping the limits negates the value exactly."""
    if a == b:
        return 0.0, 0.0
    if b < a:
        value, err = gauss_kronrod(f, b, a, epsabs, epsrel)
        return -value, err
    panels = [_gk15(f, a, b)]
    while True:
        value = math.fsum(p[0] for p in panels)
        err = math.fsum(p[1] for p in panels)
        if not (math.isfinite(value) and math.isfinite(err)):
            raise NumericalBreakdown(f"integral over [{a}, {b}] is not finite")
        if err <= max(epsabs, epsrel * abs(value)):
            return value, err
        if len(panels) >= PANEL_LIMIT:
            raise NumericalBreakdown(
                f"integral over [{a}, {b}] not converged in {PANEL_LIMIT} panels "
                f"(error ~{err:.2e})"
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][1])
        _, _, lo, hi = panels[worst]
        mid = 0.5 * (lo + hi)
        panels[worst] = _gk15(f, lo, mid)
        panels.append(_gk15(f, mid, hi))


def _gk15(f, lo: float, hi: float):
    """(K15 value, |K15 - G7|, lo, hi) on one panel."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(centre)
    kronrod = _WK[7] * fc
    gauss = _WG[3] * fc
    for j in range(7):
        pair = f(centre - half * _XK[j]) + f(centre + half * _XK[j])
        kronrod += _WK[j] * pair
        if j % 2:
            gauss += _WG[j // 2] * pair
    return half * kronrod, abs(half * (kronrod - gauss)), lo, hi


def _mag(v) -> float:
    if isinstance(v, Vec3):
        return v.norm()
    if isinstance(v, (int, float)):
        return abs(float(v))
    # a numpy array: the value np.linalg.norm returns for a real vector
    return math.sqrt(float(v.dot(v)))
