"""Exception types shared across the package: each is a GeometryError, which
the CLI prints after "domain error: " (exit 1).  A failed verification
check raises none; its VerificationReport does not pass."""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDomain(GeometryError):
    """A chart point or curve parameter lies outside the declared domain."""


class DegenerateJet(GeometryError):
    """The tangent vectors are (numerically) linearly dependent, so no
    normal direction can be defined."""


class BadParameter(GeometryError):
    """A constructor argument is outside its admissible set."""


class DomainError(GeometryError):
    """A curvature query is outside the admissible parameter region
    (non-positive radius, angle outside (0, pi), or radius at/past a pole
    of the positive-curvature branch)."""


class NumericalBreakdown(GeometryError):
    """A finite-difference estimate failed its internal error check."""


class NotOrthogonal(GeometryError):
    """The chart is not orthogonal at the requested point (F != 0), so the
    orthogonal-frame decomposition does not apply."""


class Unsupported(GeometryError):
    """The requested combination is deliberately not implemented."""
