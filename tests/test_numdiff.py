import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spiralcurv.errors import OutOfDomain
from spiralcurv.numdiff import (
    EPS,
    STEP_FIRST_FINE,
    STEP_SECOND_FINE,
    central_first,
    central_second,
    fit_steps,
    richardson,
    richardson_first,
    richardson_second,
)


def test_central_first_on_exp():
    d = central_first(math.exp, 1.0, 1e-5)
    assert d == pytest.approx(math.e, rel=1e-9)


def test_richardson_first_beats_plain_central():
    h = 1e-3
    plain = abs(central_first(math.sin, 0.7, h) - math.cos(0.7))
    rich, err = richardson_first(math.sin, 0.7, h)
    assert abs(rich - math.cos(0.7)) < plain / 100.0
    assert err < 1e-6


def test_richardson_single_level_formula():
    d = {0.5: 2.5, 1.0: 3.0}.__getitem__
    value, err = richardson(d, 1.0)
    assert value == 2.5 + (2.5 - 3.0) / 3.0
    assert err == abs(value - 2.5)


def test_richardson_second():
    d2, err = richardson_second(math.cos, 0.4, 1e-3)
    assert d2 == pytest.approx(-math.cos(0.4), rel=1e-9)
    assert err < 1e-5


def test_scaled_step_is_representable():
    x = 0.7
    h = fit_steps(x, -math.inf, math.inf, EPS ** (1.0 / 3.0))[0]
    assert (x + h) - x == h
    assert h > 0.0


def test_scaled_step_grows_with_magnitude():
    assert (
        fit_steps(100.0, -math.inf, math.inf, 1e-5)[0]
        > fit_steps(1.0, -math.inf, math.inf, 1e-5)[0]
    )


def test_fit_steps_clips_to_available_room():
    (h,) = fit_steps(1.0, 0.0, 1.05, 0.1)
    # only 0.05 of room above: the step must shrink below that
    assert 0.0 < h < 0.05
    # twice the smallest subnormal is room for a (subnormal) step
    assert fit_steps(1e-323, 0.0, 1.0, STEP_FIRST_FINE) == [5e-324]


def test_fit_steps_unbounded_room_keeps_steps():
    assert fit_steps(0.0, -math.inf, math.inf, 0.1, 0.01) == [0.1, 0.01]
    # one infinite end: the finite one bounds the room
    assert fit_steps(0.0, -1.0, math.inf, 0.1, 0.5) == [0.1, 0.45]


def _old_scaled_step(x, rel):
    h = rel * max(1.0, abs(x))
    t = x + h
    return t - x if t != x else rel


def _old_fit_step(h, x, lo, hi):
    room = min(x - lo, hi - x)
    if not math.isfinite(room):
        room = math.inf
    if room <= 0.0:
        return 0.0
    return min(h, 0.45 * room)


@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    lo=st.floats(allow_nan=False),
    hi=st.floats(allow_nan=False),
    rels=st.lists(
        st.sampled_from([STEP_FIRST_FINE, STEP_SECOND_FINE])
        | st.floats(min_value=1e-12, max_value=1.0),
        min_size=1,
        max_size=3,
    ),
)
def test_fit_steps_is_the_fitted_scaled_step(x, lo, hi, rels):
    # the steps of the separate scaled_step and fit_step it replaced, bit for
    # bit, wherever those fitted a positive step; OutOfDomain where they gave 0
    old = [_old_fit_step(_old_scaled_step(x, rel), x, lo, hi) for rel in rels]
    if min(old) > 0.0:
        assert [h.hex() for h in fit_steps(x, lo, hi, *rels)] == [h.hex() for h in old]
        assert [fit_steps(x, -math.inf, math.inf, rel)[0].hex() for rel in rels] == [
            _old_scaled_step(x, rel).hex() for rel in rels
        ]
    else:
        with pytest.raises(OutOfDomain):
            fit_steps(x, lo, hi, *rels)


# x on or past an end, or a subnormal room: 0.45 of the smallest subnormal
# underflows to 0; or x not finite
@pytest.mark.parametrize("x", [5e-324, 0.0, 1.0, 2.0, math.inf, -math.inf, math.nan])
def test_fit_steps_rejects_no_room(x):
    message = rf"^no room for a difference stencil at {x} inside \(0\.0, 1\.0\)$"
    with pytest.raises(OutOfDomain, match=message):
        fit_steps(x, 0.0, 1.0, STEP_FIRST_FINE, STEP_SECOND_FINE)


def test_richardson_error_is_the_size_of_the_correction():
    # the error estimate is |correction|, also where the correction is
    # negative
    _, err = richardson_first(math.exp, 0.3, 1e-2)
    assert err > 0.0
    best, err = richardson(lambda h: 13.0 * (h * h), 1.0)
    assert best == 0.0 and err == 13.0 / 4.0
