"""Small fixed-size 3-vector used for surface points and frames.

An immutable tuple of three floats with named components, so jets and
normals read as p.x, p.y, p.z, and building one costs a single tuple
allocation.  Its operators treat it as a value: + - * / are vector
arithmetic, a Vec3 equals only another Vec3 with the same components (never
a plain tuple), its hash is that of (x, y, z), and it is not ordered.  All
arithmetic is plain float math; numpy is imported only by as_array, the
bridge for callers that want an ndarray.

Where it was a frozen dataclass it is now still a tuple underneath: len,
indexing, iteration and unpacking work; a plain tuple + a Vec3
concatenates, while a Vec3 + a plain tuple adds componentwise; json and
numpy read it as a sequence of three floats; and it names its components
in _fields, as a namedtuple does, so dataclasses.asdict and astuple of a
dataclass that holds one (a Jet2, a CurveSample) keep it as a Vec3 rather
than turning it into a dict or tuple of its own.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_new = tuple.__new__


class Vec3(tuple):
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

    def __eq__(self, other):
        if type(other) is Vec3:
            return tuple.__eq__(self, other)
        # a plain tuple would otherwise compare equal through tuple.__eq__
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def _unordered(self, other):
        raise TypeError("Vec3 values are not ordered")

    # a value, not a sequence: hashed as (x, y, z), and not ordered
    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    del _unordered

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

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self[0], self[1], self[2]], dtype=float)
