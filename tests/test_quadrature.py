"""numdiff.gauss_kronrod, the adaptive G7/K15 rule, against mpmath.quad."""

import math

import mpmath
import pytest

from spiralcurv.curves import plane_log_spiral, speed
from spiralcurv.errors import NumericalBreakdown
from spiralcurv.numdiff import gauss_kronrod
from spiralcurv.polar import polar_metric


def peak(x):
    # a Lorentzian of width 1e-2: one panel cannot resolve it
    return 1.0 / (x * x + 1e-4)


def mp_quad(f, points):
    with mpmath.workdps(40):
        return float(mpmath.quad(f, points))


def counted(f):
    def wrapper(x):
        wrapper.calls += 1
        return f(x)

    wrapper.calls = 0
    return wrapper


def test_spiral_speed():
    spiral = plane_log_spiral(1.0)
    value, err = gauss_kronrod(lambda t: speed(spiral, t), 0.0, 2.0, 1e-12, 1e-10)
    exact = mp_quad(lambda t: mpmath.sqrt(2) * mpmath.exp(-t), [0, 2])
    assert value == pytest.approx(exact, rel=1e-15)
    assert abs(value - exact) <= err <= 1e-10 * exact


@pytest.mark.parametrize(
    "K, sqrtG", [(-1.0, mpmath.sinh), (0.0, lambda r: r), (1.0, mpmath.sin)]
)
@pytest.mark.parametrize("r0, r1", [(0.6, 1.4), (0.3, 0.9), (0.05, 2.0)])
def test_inverse_polar_metric(K, sqrtG, r0, r1):
    metric = polar_metric(K)
    value, err = gauss_kronrod(lambda s: 1.0 / metric.sqrtG(s), r0, r1, 1e-13, 1e-12)
    exact = mp_quad(lambda s: 1 / sqrtG(s), [r0, r1])
    assert value == pytest.approx(exact, rel=1e-12)
    assert err <= max(1e-13, 1e-12 * abs(value))


def test_bisects_a_peaked_integrand():
    f = counted(peak)
    value, err = gauss_kronrod(f, -1.0, 1.0, 1e-12, 1e-12)
    exact = mp_quad(lambda x: 1 / (x * x + mpmath.mpf("1e-4")), [-1, 0, 1])
    assert value == pytest.approx(exact, rel=1e-12)
    assert err <= 1e-12 * value
    # 15 evaluations per panel, and the first panel was split
    assert f.calls % 15 == 0 and f.calls > 15


def test_swapping_the_limits_negates_exactly():
    forward = gauss_kronrod(peak, -0.3, 1.0, 1e-12, 1e-12)
    backward = gauss_kronrod(peak, 1.0, -0.3, 1e-12, 1e-12)
    assert backward == (-forward[0], forward[1])


def test_zero_length_interval_evaluates_nothing():
    f = counted(math.exp)
    assert gauss_kronrod(f, 0.7, 0.7, 1e-12, 1e-12) == (0.0, 0.0)
    assert f.calls == 0


def test_panel_limit_raises_numerical_breakdown():
    # x^-0.9 is integrable on [0, 1], but the error of the panel [0, h]
    # shrinks only like h^0.1: 200 bisections leave it far above 1e-10
    with pytest.raises(NumericalBreakdown, match="not converged in 200 panels"):
        gauss_kronrod(lambda x: x**-0.9, 0.0, 1.0, 1e-10, 1e-10)


def test_non_finite_integrand_raises_numerical_breakdown():
    with pytest.raises(NumericalBreakdown, match="not finite"):
        gauss_kronrod(lambda x: math.inf, 0.0, 1.0, 1e-12, 1e-12)
    with pytest.raises(NumericalBreakdown, match="not finite"):
        gauss_kronrod(lambda x: 1e308 * (1.0 + x), 0.0, 1.0, 1e-12, 1e-12)
