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


class ZeroBeta(ChainError):
    """Frequency parameter must be nonzero."""


class EmptyScan(ChainError):
    """A scan range contains no sample points."""


class SingularDenominator(ChainError):
    """A solve's closed-form denominator is below FLOOR, or its coefficient system singular."""
    FLOOR = 1e-14  # the smallest |denominator| a closed form divides by

    def __init__(self, den: complex, at: str):
        super().__init__(f"closed-form denominator = {abs(den):.3g} at {at}")


class QuadratureTooCoarse(ChainError):
    """Grid does not resolve the oscillation of a quadrature integrand."""


class DeterminantOverflow(ChainError):
    """A characteristic function overflowed to a non-finite value."""


class CflViolation(ChainError):
    """Requested time step violates the stability limit."""


class LinearSolveFailure(ChainError):
    """Linear system solve failed inside a time stepper."""


class InsufficientDecay(ChainError):
    """Energy trace is too flat to fit a decay rate."""


class DegenerateData(ChainError):
    """A ratio is requested over a zero or underflowing denominator: initial data
    of zero energy, a reference of zero norm, or a time step whose square is not
    a normal float."""


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
