"""A 3-vector for the points that leave the package, and the value base
it shares with the package's other tuple-backed records.

Record is the behaviour of a frozen dataclass on a tuple subclass: an
instance equals only another instance of the same class with equal items
(never a plain tuple), it is hashed as the tuple of its items, and it is
not ordered.  Vec3 is defined on it here; every other public record is
class X(Record, namedtuple("_X", ...)), whose base brings its fields,
defaults, repr, _replace and _asdict: surfaces.Jet2, Interval, Rect and
FormCoefficients, closed_form.CurvatureProfile, curves.CurveSample,
liouville.LiouvilleBreakdown, polar.PolarMetric and PolarTracePoint, and
verify.Observation and VerificationReport.  The two public types that
check a sign when built, surfaces.SurfacePatch and curves.ChartCurve,
stay frozen dataclasses: dataclasses.replace runs that check, where a
namedtuple's _replace would skip it.  The module imports only math and
operator, so the closed-form path of the CLI loads it without
dataclasses, inspect or typing.

A Vec3 is an immutable tuple of three floats with named components
p.x, p.y, p.z.  The geometry core works on plain float triples; a Vec3
is a point handed back to a caller: by a patch's position map,
ChartCurve.point, CurveSample.position and surfaces.unit_normal.  Its
public operators are vector arithmetic in plain float math, which the
tests' reference routes use.

As a tuple, len, indexing, iteration and unpacking work; a plain
tuple + a Vec3 concatenates, while a Vec3 + a plain tuple adds
componentwise; json and numpy read it as three floats; and it names its
components in _fields, as a namedtuple does.
"""

from __future__ import annotations

import math
from operator import itemgetter

_new = tuple.__new__


class Record(tuple):
    """A tuple with a frozen dataclass's value behaviour: equal only to the
    same class, hashed as its items, and not ordered."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # a plain tuple would otherwise compare equal through tuple.__eq__
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def _unordered(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered")

    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    del _unordered


class Vec3(Record):
    __slots__ = ()
    _fields = ("x", "y", "z")

    def __new__(cls, x: float, y: float, z: float) -> "Vec3":
        return _new(cls, (x, y, z))

    def __getnewargs__(self):
        return tuple(self)

    x = property(itemgetter(0), doc="first component")
    y = property(itemgetter(1), doc="second component")
    z = property(itemgetter(2), doc="third component")

    def __repr__(self) -> str:
        return f"Vec3(x={self[0]!r}, y={self[1]!r}, z={self[2]!r})"

    def __add__(self, other: "Vec3") -> "Vec3":
        return _new(Vec3, (self[0] + other[0], self[1] + other[1], self[2] + other[2]))

    def __sub__(self, other: "Vec3") -> "Vec3":
        return _new(Vec3, (self[0] - other[0], self[1] - other[1], self[2] - other[2]))

    def __mul__(self, s: float) -> "Vec3":
        return _new(Vec3, (self[0] * s, self[1] * s, self[2] * s))

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec3":
        return _new(Vec3, (self[0] / s, self[1] / s, self[2] / s))

    def __neg__(self) -> "Vec3":
        return _new(Vec3, (-self[0], -self[1], -self[2]))

    def dot(self, other: "Vec3") -> float:
        return self[0] * other[0] + self[1] * other[1] + self[2] * other[2]

    def cross(self, other: "Vec3") -> "Vec3":
        x, y, z = self[0], self[1], self[2]
        a, b, c = other[0], other[1], other[2]
        return _new(Vec3, (y * c - z * b, z * a - x * c, x * b - y * a))

    def norm(self) -> float:
        x, y, z = self[0], self[1], self[2]
        return math.sqrt(x * x + y * y + z * z)
