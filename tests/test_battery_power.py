"""The battery's power: each mutation of the program below, applied in
process, must make run_suites return, not raise, with the named checks
among its failing ones.  A wrong closed form that the battery meets with
a traceback tells the user less than a FAIL line that names the check.

Mutations that no check catches yet (ROADMAP item 13's open rows), and
so kept out of the table: geodesic_circle_curvature_dK times 1.5 at
K > 0, the same at K < 0, and a series branch of three terms instead of
four."""

import math

import pytest

from spiralcurv import closed_form as cf
from spiralcurv import curves, liouville, surfaces
from spiralcurv.surfaces import JET_MODE_ANALYTIC, JET_MODE_FD
from spiralcurv.verify import run_suites

_circle_value = cf._circle_value
_curvature = curves._curvature


def coth_to_tanh(K, r):
    value, method = _circle_value(K, r)
    if method == cf.METHOD_CLOSED_FORM and K < 0.0:
        return math.sqrt(-K) * math.tanh(r * math.sqrt(-K)), method
    return value, method


def flat(K, r):
    # c = 1/r everywhere: the two curvatures of ratio_limit.slope are equal;
    # the kernel runs first, so the gate refuses a point before 1/r divides
    method = _circle_value(K, r)[1]
    return 1.0 / r, method


def nudged(K, r):
    value, method = _circle_value(K, r)
    return (value * (1.0 + 1e-7) if abs(K) * r * r > 1e-2 else value), method


def minus_u2(patch, jet, du, dv, ddu, ddv):
    return _curvature(patch, jet, du, dv, -ddu, ddv)


NUMERIC_VS_CLOSED_FORM = [
    "curves.numeric_vs_closed_form.sphere.R=1.theta=0.785",
    "curves.numeric_vs_closed_form.sphere.R=2.theta=1.107",
]
DERIVATIVE_AT_ZERO = [
    f"analysis.derivative_at_zero.r={r:g}.theta={theta:.3f}"
    for r in (0.5, 1.0, 3.0)
    for theta in (math.pi / 6.0, math.pi / 3.0, 3.0 * math.pi / 4.0)
]
MONOTONICITY = [f"analysis.monotonicity.r={r:g}" for r in (0.25, 1.0, 4.0)]

# (the attributes to set, the jet mode, checks that must be among the failing)
MUTATIONS = {
    "coth_to_tanh": (
        [(cf, "_circle_value", coth_to_tanh)], JET_MODE_ANALYTIC,
        ["analysis.ratio_limit", *DERIVATIVE_AT_ZERO, *MONOTONICITY,
         "analysis.circle_consistency"],
    ),
    "c_is_one_over_r": (
        [(cf, "_circle_value", flat)], JET_MODE_ANALYTIC,
        [*NUMERIC_VS_CLOSED_FORM, "analysis.ratio_limit.slope", *DERIVATIVE_AT_ZERO,
         *MONOTONICITY, "analysis.seam_continuity", "analysis.circle_consistency"],
    ),
    "c_times_1_plus_1e-7_off_the_seam": (
        [(cf, "_circle_value", nudged)], JET_MODE_ANALYTIC,
        ["analysis.circle_consistency"],
    ),
    "minus_u2_in_the_chain_rule": (
        [(curves, "_curvature", minus_u2), (liouville, "_curvature", minus_u2)],
        JET_MODE_ANALYTIC,
        [*NUMERIC_VS_CLOSED_FORM,
         "curves.numeric_vs_closed_form.pseudosphere.R=1.theta=1.047",
         "curves.numeric_vs_closed_form.pseudosphere.R=0.5.theta=2.094",
         "liouville.residual"],
    ),
    "fd_second_step_times_3": (
        [(surfaces, "STEP_SECOND_FINE", 3.0 * surfaces.STEP_SECOND_FINE)], JET_MODE_FD,
        [f"forms.curvature_constancy.pseudosphere(R={R:g})" for R in (0.5, 1.0, 2.0)]
        + ["forms.jet_consistency"],
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_returns_with_named_failures(monkeypatch, name):
    attributes, mode, caught = MUTATIONS[name]
    for module, attribute, value in attributes:
        monkeypatch.setattr(module, attribute, value)
    failing = [r.check_name for r in run_suites("all", mode) if not r.passed]
    assert set(caught) <= set(failing), failing

