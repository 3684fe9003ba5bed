"""Central-difference derivatives with one level of Richardson extrapolation,
and adaptive Gauss-Kronrod quadrature.

Derivatives are scalar-only: every routine takes and returns floats, and
all are pure.  Every stencil in the package takes one Richardson level,
so every relative step is one of two: STEP_FIRST_FINE = eps**(1/5) for
first differences and STEP_SECOND_FINE = eps**(1/6) for a stencil that
also takes second or mixed ones, which balance the extrapolated
estimate's h^4 truncation against its rounding.

fit_steps sizes and fits the steps of every stencil in the package: the
finite-difference jets of surfaces (once per differenced coordinate); the
angle stencil of liouville, once per curve parameter; and verify's
K-derivative check at K = 0 and its Jacobi check, once per point.
Each step is rel * max(1, |x|), shrunk to at most 0.45 of the distance
from x to the nearer finite end of its interval, so that the stencil
[x - h, x + h] stays inside; where no step fits, it raises OutOfDomain.

extrapolate is the one Richardson level that every estimate here takes.
richardson_first and richardson_second take liouville's angle stencil
and verify's checks.  Every FD 2-jet (a surface of revolution's profile
derivatives along v, or any other position map's in u and v) writes its
differences out in one straight-line block, each component in the float
operations of central_first, central_second or the cross stencil
(((A - B) - C) + D) / (4hk), then extrapolate: the bits of the
richardson routines, which the tests hold it to.

gauss_kronrod integrates a float function over a finite interval with the
7-point Gauss / 15-point Kronrod pair (the QUADPACK qk15 constants).  It
bisects the panel with the largest error estimate |K15 - G7| until the
summed estimate is at most max(epsabs, epsrel * |I|); more than
PANEL_LIMIT = 200 panels, or a non-finite sum, raises NumericalBreakdown.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .errors import NumericalBreakdown, OutOfDomain

EPS = sys.float_info.epsilon

# relative steps of a stencil with one Richardson level
STEP_FIRST_FINE = EPS ** 0.2          # Richardson first difference
STEP_SECOND_FINE = EPS ** (1.0 / 6.0) # Richardson second difference

PANEL_LIMIT = 200                     # gauss_kronrod panels


def fit_steps(x: float, lo: float, hi: float, *rels: float) -> list[float]:
    """One step per relative size in rels, each rel * max(1, |x|) snapped
    to a representable offset of x, then shrunk to at most 0.45 of the room
    min(x - lo, hi - x), so its whole stencil [x-h, x+h] stays inside
    (lo, hi).  An infinite room keeps the steps.  OutOfDomain when there
    is no room: x not finite, on or outside an end, or 0.45 of the room
    underflows."""
    room = min(x - lo, hi - x)
    cap = 0.45 * room if math.isfinite(room) else math.inf
    if cap <= 0.0 or not math.isfinite(x):
        raise OutOfDomain(f"no room for a difference stencil at {x} inside ({lo}, {hi})")
    m = max(1.0, abs(x))
    steps = []
    for rel in rels:
        # snap so that x + h and x - h are exactly representable offsets
        t = x + rel * m
        h = t - x if t != x else rel
        steps.append(cap if cap < h else h)
    return steps


def central_first(f: Callable[[float], float], x: float, h: float):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_second(f: Callable[[float], float], x: float, h: float):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def extrapolate(d_h, d_half):
    """One Richardson level: the h^2 term removed from two central
    estimates at steps h and h/2.  richardson takes it from here."""
    return d_half + (d_half - d_h) / 3.0


def richardson(d: Callable[[float], float], h: float):
    """One Richardson level on a central estimate d(step), and its error.

    d must have an even error expansion in the step, so combining d(h)
    and d(h/2) removes the h^2 term.  The returned error estimate is the
    magnitude of the extrapolation correction.
    """
    d_h, d_half = d(h), d(h / 2.0)
    best = extrapolate(d_h, d_half)
    return best, abs(best - d_half)


def richardson_first(f, x, h):
    """Extrapolated first derivative and an error estimate."""
    return richardson(lambda s: central_first(f, x, s), h)


def richardson_second(f, x, h):
    """Extrapolated second derivative and an error estimate."""
    return richardson(lambda s: central_second(f, x, s), h)


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
