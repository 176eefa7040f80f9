"""Exception types raised across the package."""


class ChainError(Exception):
    """Base class for all stringchain errors."""


class EmptyChain(ChainError):
    """Chain configuration has no edges."""


class NonPositiveDensity(ChainError):
    """A density is zero, negative, or not finite."""


class GridMismatch(ChainError):
    """Sampled functions do not live on compatible grids."""


class ArityMismatch(ChainError):
    """Scalar function supplied where a 2-vector one is required, or vice versa."""


class NonPositiveBeta(ChainError):
    """Frequency parameter must be strictly positive."""


class ZeroBeta(ChainError):
    """Frequency parameter must be nonzero."""


class EmptyScan(ChainError):
    """A scan range contains no sample points."""


class SingularBoundaryMatrix(ChainError):
    """2x2 boundary matrix is numerically singular."""


class SingularDenominator(ChainError):
    """Closed-form coefficient denominator is numerically zero."""


class SignConventionMismatch(ChainError):
    """Closed-form solution failed its residual check."""


class QuadratureTooCoarse(ChainError):
    """Grid does not resolve the oscillation of a quadrature integrand."""


class DeterminantOverflow(ChainError):
    """A characteristic function overflowed to a non-finite value."""


class NoConvergence(ChainError):
    """Root refinement failed to converge."""


class CflViolation(ChainError):
    """Requested time step violates the stability limit."""


class LinearSolveFailure(ChainError):
    """Linear system solve failed inside a time stepper."""


class InsufficientDecay(ChainError):
    """Energy trace is too flat to fit a decay rate."""


class DegenerateData(ChainError):
    """Initial data has zero energy where a ratio is requested."""


class TooCoarse(ChainError):
    """Finite-difference grid is too coarse to be meaningful."""


class SingularShift(ChainError):
    """Shifted operator is numerically singular."""


class SingularSystem(ChainError):
    """Discretized boundary-value system is singular."""


class ConfigError(ChainError):
    """Configuration file is missing, unreadable, or invalid."""


class UsageError(ChainError):
    """Command line was malformed."""
