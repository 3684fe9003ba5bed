"""The package's value records are tuples with a frozen dataclass's value
behaviour: the fields in order, read-only, a repr by field, equal only to
the same type, hashed as their fields, not ordered, and they survive
pickle and copy.  The sequence behaviour of the tuple underneath is
pinned too.  Eight of them were frozen dataclasses; each keeps the repr
the dataclass printed.  The two public types that stay dataclasses check
a sign when built, which a namedtuple's _replace would skip."""

import collections
import copy
import dataclasses
import math
import pickle

import pytest

import spiralcurv
from spiralcurv.closed_form import METHOD_SERIES, CurvatureProfile
from spiralcurv.curves import CurveSample
from spiralcurv.liouville import LiouvilleBreakdown
from spiralcurv.polar import PolarMetric, PolarTracePoint
from spiralcurv.surfaces import (
    JET_MODE_ANALYTIC,
    JET_MODE_FD,
    FormCoefficients,
    Interval,
    Jet2,
    Rect,
    eval_jet,
    sphere_patch,
)
from spiralcurv.vec import Record, Vec3
from spiralcurv.verify import Observation, VerificationReport, suite_forms

# a jet's fields are plain float triples, as the built-in jets give them
A, B, C = (1.0, 2.0, 3.0), (-0.5, 0.25, 0.0), (0.0, 0.0, 1.5)

# (the record, its fields in order)
RECORDS = {
    "Vec3": (Vec3(1.0, 2.0, 3.0), ("x", "y", "z")),
    "Jet2": (Jet2(A, B, C, A, B, C), ("p", "p_u", "p_v", "p_uu", "p_uv", "p_vv")),
    "Observation": (Observation((1.0, "tag"), 2.0, 2.5, 0.25),
                    ("input", "expected", "actual", "error")),
    # tuple samples and tags, so that the profile hashes
    "CurvatureProfile": (
        CurvatureProfile("K", ((0.5, 1.0), (2.0, 0.25)), 0.5, 2.0, METHOD_SERIES,
                         ("series", "series")),
        ("axis", "samples", "theta", "fixed_value", "method", "sample_methods"),
    ),
    "Interval": (Interval(0.0, 1.0, True), ("lo", "hi", "closed_lo", "closed_hi")),
    "Rect": (Rect(Interval(-math.inf, math.inf), Interval(0.0, 1.0, True, True)), ("u", "v")),
    "FormCoefficients": (FormCoefficients(1.0, 0.0, 0.25, -0.5, 0.0, 0.125),
                         ("E", "F", "G", "e", "f", "g")),
    "CurveSample": (CurveSample(0.5, Vec3(1.0, 2.0, 3.0), 0.25, 0.75),
                    ("t", "position", "k", "theta", "r")),
    "LiouvilleBreakdown": (
        LiouvilleBreakdown(0.5, -0.25, 1.0, 0.125, 0.75, 0.75, 0.0),
        ("k1", "k2", "theta", "dtheta_dt", "k_liouville", "k_direct", "residual"),
    ),
    # module-level functions, so that the metric pickles
    "PolarMetric": (PolarMetric(1.0, math.sin, math.cos, math.pi),
                    ("K", "sqrtG", "sqrtG_r", "r_limit")),
    "PolarTracePoint": (PolarTracePoint(0.5, -1.25), ("r", "u")),
    # a tuple of observations, so that the report hashes
    "VerificationReport": (
        VerificationReport(
            "forms.regularity", (Observation(("plane", 0.0, 0.2), 0.0, 1.0, 0.0),), 0.0
        ),
        ("check_name", "observations", "tolerance"),
    ),
}
NAMES = list(RECORDS)

# the repr each of these printed as a frozen dataclass, before it was a Record
DATACLASS_REPRS = {
    "Interval": "Interval(lo=0.0, hi=1.0, closed_lo=True, closed_hi=False)",
    "Rect": "Rect(u=Interval(lo=-inf, hi=inf, closed_lo=False, closed_hi=False), "
            "v=Interval(lo=0.0, hi=1.0, closed_lo=True, closed_hi=True))",
    "FormCoefficients": "FormCoefficients(E=1.0, F=0.0, G=0.25, e=-0.5, f=0.0, g=0.125)",
    "CurveSample": "CurveSample(t=0.5, position=Vec3(x=1.0, y=2.0, z=3.0), k=0.25, "
                   "theta=0.75, r=None)",
    "LiouvilleBreakdown": "LiouvilleBreakdown(k1=0.5, k2=-0.25, theta=1.0, dtheta_dt=0.125, "
                          "k_liouville=0.75, k_direct=0.75, residual=0.0)",
    "PolarMetric": "PolarMetric(K=1.0, sqrtG=<built-in function sin>, "
                   "sqrtG_r=<built-in function cos>, r_limit=3.141592653589793)",
    "PolarTracePoint": "PolarTracePoint(r=0.5, u=-1.25)",
    "VerificationReport": "VerificationReport(check_name='forms.regularity', "
                          "observations=(Observation(input=('plane', 0.0, 0.2), expected=0.0, "
                          "actual=1.0, error=0.0),), tolerance=0.0)",
}

# the public types that stay frozen dataclasses: each checks its sign in
# __post_init__, which dataclasses.replace runs and a namedtuple's _replace
# would not
DATACLASSES = {"ChartCurve", "SurfacePatch"}


def record(name):
    return RECORDS[name][0]


@pytest.mark.parametrize("name", NAMES)
def test_fields_in_order(name):
    rec, fields = RECORDS[name]
    assert rec._fields == fields
    assert tuple(rec) == tuple(getattr(rec, f) for f in fields)
    assert type(rec)(**{f: getattr(rec, f) for f in fields}) == rec


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned(name):
    rec, fields = RECORDS[name]
    for f in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, f, 0.0)
    assert not hasattr(rec, "__dict__")


def test_repr_names_every_field():
    assert repr(record("Observation")) == (
        "Observation(input=(1.0, 'tag'), expected=2.0, actual=2.5, error=0.25)"
    )
    assert repr(record("Jet2")).startswith("Jet2(p=(1.0, 2.0, 3.0), p_u=(-0.5, ")
    assert repr(record("Jet2")).endswith(", p_vv=(0.0, 0.0, 1.5))")


@pytest.mark.parametrize("name", list(DATACLASS_REPRS))
def test_repr_is_the_one_the_dataclass_printed(name):
    assert repr(record(name)) == DATACLASS_REPRS[name]


def test_defaults_are_the_dataclass_defaults():
    assert Interval(0.0, 1.0) == Interval(0.0, 1.0, False, False)
    assert CurveSample(0.5, Vec3(1.0, 2.0, 3.0), 0.25, 0.75).r is None
    assert Interval._field_defaults == {"closed_lo": False, "closed_hi": False}
    assert CurveSample._field_defaults == {"r": None}


def test_every_public_record_is_a_record_but_the_two_dataclasses():
    classes = {
        name: value for name in spiralcurv.__all__
        if isinstance(value := getattr(spiralcurv, name), type)
        and not issubclass(value, Exception)
    }
    assert set(RECORDS) | DATACLASSES == set(classes)
    for name, cls in classes.items():
        if name in DATACLASSES:
            assert dataclasses.is_dataclass(cls) and not issubclass(cls, tuple), name
        else:
            assert issubclass(cls, Record) and not dataclasses.is_dataclass(cls), name


@pytest.mark.parametrize("name", NAMES)
def test_equal_only_to_the_same_type(name):
    rec, fields = RECORDS[name]
    twin = type(rec)(*tuple(rec))
    assert rec == twin and not rec != twin
    first = fields[0]
    assert rec != rec._replace(**{first: C if first != "input" else (2.0,)})
    # a plain tuple or a list with the same items is not one, on either side
    for other in (tuple(rec), list(rec)):
        assert rec != other and other != rec
        assert not rec == other and not other == rec
    # nor is a namedtuple of the same name and fields; on the left, such a
    # foreign tuple subclass compares its items through tuple.__eq__
    lookalike = collections.namedtuple(name, fields)(*rec)
    assert rec != lookalike and not rec == lookalike
    assert rec != None  # noqa: E711


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_that_of_the_fields(name):
    rec, _ = RECORDS[name]
    assert hash(rec) == hash(tuple(rec))
    assert {rec: "a"}[type(rec)(*tuple(rec))] == "a"


@pytest.mark.parametrize("name", NAMES)
def test_not_ordered(name):
    rec, _ = RECORDS[name]
    for compare in (lambda a, b: a < b, lambda a, b: a <= b,
                    lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError, match="not ordered"):
            compare(rec, rec)
        with pytest.raises(TypeError):
            compare(tuple(rec), rec)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("clone", [
    *(lambda r, p=p: pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy,
    copy.deepcopy,
])
def test_pickle_and_copy_round_trip(name, clone):
    rec, _ = RECORDS[name]
    back = clone(rec)
    assert type(back) is type(rec) and back == rec
    assert repr(back) == repr(rec)


@pytest.mark.parametrize("name", NAMES)
def test_replace_and_asdict(name):
    rec, fields = RECORDS[name]
    last = fields[-1]
    changed = rec._replace(**{last: 9.0})
    assert type(changed) is type(rec)
    assert getattr(changed, last) == 9.0
    assert tuple(changed)[:-1] == tuple(rec)[:-1]
    d = rec._asdict()
    assert list(d) == list(fields)
    assert d == {f: getattr(rec, f) for f in fields}
    if name == "Jet2":  # the tuple fields stay plain tuples
        assert all(type(v) is tuple for v in d.values())


@pytest.mark.parametrize("name", NAMES)
def test_sequence_behaviour_of_the_tuple_underneath(name):
    rec, fields = RECORDS[name]
    assert isinstance(rec, tuple) and isinstance(rec, Record)
    assert len(rec) == len(fields)
    assert list(rec) == [getattr(rec, f) for f in fields]
    *_, last = rec
    assert last is getattr(rec, fields[-1])
    assert not dataclasses.is_dataclass(rec)


def test_the_built_records_are_the_keyword_built_ones():
    patch = sphere_patch(1.0)
    for mode in (JET_MODE_ANALYTIC, JET_MODE_FD):
        jet = eval_jet(patch, 0.5, 1.0, mode)
        assert type(jet) is Jet2 and jet == Jet2(**jet._asdict())
        assert all(type(v) is tuple for v in jet)
        # a Vec3 never equals a plain tuple, so a jet of Vec3s with the
        # same floats is not the same jet
        assert jet != Jet2(*(Vec3(*v) for v in jet))
    obs = suite_forms()[0].observations
    assert all(type(o) is Observation for o in obs)
    assert obs[0] == Observation(**obs[0]._asdict())
