"""Exception types shared across the package."""


class HardEdgeError(Exception):
    """Base class for every error raised by this package."""


class DomainError(HardEdgeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(HardEdgeError, ValueError):
    """Inputs are inside the mathematical domain but outside the range for
    which the implementation guarantees its stated accuracy.  Raised instead
    of silently returning degraded values."""


class NumericError(HardEdgeError, ArithmeticError):
    """A numerical process failed: iteration did not converge, a matrix
    factorization broke down, or a computed value violated a range invariant
    that the algorithm is supposed to maintain."""
