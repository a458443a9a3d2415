"""Exception hierarchy shared by every module of the library, and the
formatting of points in its messages."""


class AmpleconesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(AmpleconesError):
    """An argument violates a documented precondition."""


class PerfectSquareInput(InvalidInput):
    """A radicand that must be irrational is a perfect square."""


class ShapeMismatch(AmpleconesError):
    """Operands have incompatible dimensions, sizes, or scalar kinds."""


class SingularMatrix(AmpleconesError):
    """A matrix that must be invertible is not."""


class NotPositiveDefinite(AmpleconesError):
    """A matrix or form that must be positive definite is not."""


class Unsupported(AmpleconesError):
    """The operation is deliberately not provided for this input."""


class UnsupportedDimension(Unsupported):
    """The operation is only implemented up to a fixed dimension."""


class NotInCone(AmpleconesError):
    """A point that must lie in the relevant cone does not."""


class NotFundamental(AmpleconesError):
    """Group translates of the candidate cone miss a point within the search bound."""


class PreconditionViolated(AmpleconesError):
    """A structural precondition of a verification routine fails."""


def format_point(v) -> str:
    """A point for an error message, with rationals printed as p/q."""
    return "(" + ", ".join(str(c) for c in v) + ")"
