"""Exception types shared across the package, and its whole-number check."""


class EgwgError(Exception):
    """Base class for every error raised by this package."""


class InvalidParametersError(EgwgError, ValueError):
    """A distribution parameter violates its positivity/finiteness rules."""


class DomainError(EgwgError, ValueError):
    """An evaluation point lies outside the function's domain."""


class InvalidIntegrandError(EgwgError):
    """The integrand returned NaN inside the integration interval."""


class QuadratureAccuracyError(EgwgError):
    """Adaptive quadrature exhausted its subdivision budget.

    Carries the best available estimate so callers can decide whether the
    achieved error bound is still useful.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (best estimate {estimate!r}, error bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class BracketError(EgwgError):
    """Root bracketing failed: target outside range or overflow guard hit."""


class StencilError(EgwgError):
    """A finite-difference stencil point produced a non-finite value."""

    def __init__(self, message, coordinate):
        super().__init__(f"{message} (coordinate {coordinate})")
        self.coordinate = coordinate


class TailOverflowError(EgwgError):
    """The survival function underflowed to zero in the deep right tail."""


class LeftTailUnderflowError(EgwgError):
    """The CDF underflowed to zero in the extreme left tail."""


class DegenerateInformationError(EgwgError):
    """A diagonal entry of the covariance estimate is negative."""

    def __init__(self, message, coordinate):
        super().__init__(f"{message} (coordinate {coordinate})")
        self.coordinate = coordinate


class NotEmbeddableError(EgwgError, ValueError):
    """The requested sub-model is a degenerate limit of the full family."""


def _whole(value, name: str) -> int:
    """value as an int if it is a finite whole number (2, 2.0, a numpy int), else DomainError."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):   # nan, inf, non-numbers
        pass
    raise DomainError(f"{name} must be a finite whole number, got {value!r}")
