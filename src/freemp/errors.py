"""Exception types shared across the package."""


class FreempError(Exception):
    """Base class for all package-specific failures."""


class DomainError(FreempError, ValueError):
    """An argument lies outside the domain a routine is defined on."""


class ConvergenceError(FreempError):
    """An iterative solve did not reach its target.  The message names the
    first failed point; z carries every failed point, and a solve over
    several convolutions gives each point's row as row."""

    def __init__(self, message: str, z=(), row=()):
        super().__init__(message)
        self.z = z
        self.row = row


class EdgeBracketError(FreempError):
    """h never reaches 1/ratio before its pole; the message names the edge."""


class SingularDerivativeError(FreempError):
    """Stieltjes derivative denominator vanished; z sits at a spectral edge."""


class ContourError(FreempError):
    """Contour construction or quadrature violated one of its contracts."""


class NearSingularityError(ContourError):
    """A contour integrand came out non-finite on the path."""


class PsdViolationError(FreempError):
    """A matrix that must be positive semidefinite produced an eigenvalue
    below the roundoff clamp; indicates a bug, not noise."""


class ReplicateError(FreempError):
    """A Monte Carlo replicate failed; carries the replicate index."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index
