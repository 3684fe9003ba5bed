"""Vec3 is an immutable value: named components, vector arithmetic, equal
only to another Vec3, hashed as (x, y, z), and it survives pickle and copy.
It is a tuple underneath, and the sequence behaviour that brings is pinned
here too."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from spiralcurv.curves import sample, sphere_loxodrome
from spiralcurv.surfaces import eval_jet, sphere_patch
from spiralcurv.vec import Vec3

V = Vec3(1.5, -2.0, 0.25)


def test_components_and_repr():
    assert (V.x, V.y, V.z) == (1.5, -2.0, 0.25)
    assert repr(V) == "Vec3(x=1.5, y=-2.0, z=0.25)"
    assert Vec3(x=1.5, y=-2.0, z=0.25) == V


@pytest.mark.parametrize("name", ["x", "y", "z", "w"])
def test_attribute_assignment_raises(name):
    v = Vec3(1.0, 2.0, 3.0)
    with pytest.raises(AttributeError):
        setattr(v, name, 0.0)
    assert v == Vec3(1.0, 2.0, 3.0)


def test_equality_holds_only_between_vec3s():
    assert V == Vec3(1.5, -2.0, 0.25)
    assert not V != Vec3(1.5, -2.0, 0.25)
    assert V != Vec3(1.5, -2.0, 0.5)
    plain = (1.5, -2.0, 0.25)
    assert V != plain and plain != V
    assert not V == plain and not plain == V
    assert V != [1.5, -2.0, 0.25]
    assert V != None  # noqa: E711


def test_hash_is_that_of_the_components():
    assert hash(V) == hash((1.5, -2.0, 0.25))
    assert hash(Vec3(1.5, -2.0, 0.25)) == hash(V)
    assert {V: "a"}[Vec3(1.5, -2.0, 0.25)] == "a"


def test_not_ordered():
    with pytest.raises(TypeError):
        V < Vec3(2.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        (0.0, 0.0, 0.0) < V


def test_scaling_multiplies_components():
    want = Vec3(3.0, -4.0, 0.5)
    for got in (2.0 * V, V * 2.0, 2 * V, V * 2):
        assert type(got) is Vec3
        assert got == want
    assert -V == Vec3(-1.5, 2.0, -0.25)
    assert V / 2.0 == Vec3(0.75, -1.0, 0.125)


def test_vector_arithmetic():
    w = Vec3(0.5, 0.5, -1.0)
    assert V + w == Vec3(2.0, -1.5, -0.75)
    assert V - w == Vec3(1.0, -2.5, 1.25)
    assert V.dot(w) == 1.5 * 0.5 + -2.0 * 0.5 + 0.25 * -1.0
    assert V.cross(w) == Vec3(-2.0 * -1.0 - 0.25 * 0.5, 0.25 * 0.5 - 1.5 * -1.0, 1.5 * 0.5 - -2.0 * 0.5)
    assert Vec3(3.0, 4.0, 12.0).norm() == 13.0
    assert math.isnan(Vec3(math.nan, 0.0, 0.0).norm())


def test_as_array():
    a = V.as_array()
    assert isinstance(a, np.ndarray) and a.dtype == float
    assert a.tolist() == [1.5, -2.0, 0.25]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    back = pickle.loads(pickle.dumps(V, protocol))
    assert type(back) is Vec3 and back == V


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
def test_copy_round_trip(clone):
    back = clone(V)
    assert type(back) is Vec3 and back == V
    assert repr(back) == repr(V)


def test_sequence_behaviour_of_the_tuple_underneath():
    assert len(V) == 3 and V[1] == -2.0 and list(V) == [1.5, -2.0, 0.25]
    x, y, z = V
    assert (x, y, z) == (1.5, -2.0, 0.25)
    # a plain tuple on the left concatenates; a Vec3 on the left adds
    assert (1.0, 1.0, 1.0) + V == (1.0, 1.0, 1.0, 1.5, -2.0, 0.25)
    assert V + (1.0, 1.0, 1.0) == Vec3(2.5, -1.0, 1.25)
    assert json.loads(json.dumps(V)) == [1.5, -2.0, 0.25]
    assert np.asarray(V).tolist() == [1.5, -2.0, 0.25]
    assert not dataclasses.is_dataclass(V)


def test_asdict_and_astuple_of_a_holder_keep_the_vec3():
    s = sample(sphere_loxodrome(1.0, 1.0), 0.7)
    d = dataclasses.asdict(s)
    assert type(d["position"]) is Vec3 and d["position"] == s.position
    assert dataclasses.astuple(s)[1] == s.position
    jet = eval_jet(sphere_patch(1.0), 0.5, 1.0)
    assert dataclasses.asdict(jet) == {f.name: getattr(jet, f.name) for f in dataclasses.fields(jet)}
    assert Vec3._fields == ("x", "y", "z")
