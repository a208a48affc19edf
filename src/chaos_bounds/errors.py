"""Exception types shared across the package.

Everything raised on purpose derives from ChaosBoundsError so callers (and the
CLI) can map domain problems to a single exit path.  ``check_positive``,
``check_nonnegative`` and ``check_integer`` state the parameter rules every
module shares.
"""
import math
import numbers


class ChaosBoundsError(Exception):
    """Base class for all errors raised by chaos_bounds."""


class DomainError(ChaosBoundsError):
    """An argument is outside the mathematical domain of the operation."""


class SupercriticalError(DomainError):
    """Offspring mean is >= 1 (or too close to 1 for float64 arithmetic)."""


class InsufficientMoments(ChaosBoundsError):
    """A moment of higher order than the stored list was requested."""


class NoConvergence(ChaosBoundsError):
    """A series truncation could not be certified."""


class DivergentIntegral(DomainError):
    """The requested attenuation integral diverges (alpha * m <= 2)."""


class CapExceeded(ChaosBoundsError):
    """A simulated cascade outgrew the configured progeny cap."""


class UnknownFamily(ChaosBoundsError):
    """The operation needs a named distribution family, not a moment list."""


class RegimeError(DomainError):
    """Parameters are outside the regime a specialized formula was derived in."""


class EmptyInterval(DomainError):
    """Interval endpoints are inverted (a > b)."""


def check_positive(name: str, value: float) -> float:
    """value, if it is positive and finite (NaN is not); else a DomainError."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """value, if it is finite and >= 0 (NaN is not); else a DomainError."""
    if not value >= 0:
        raise DomainError(f"{name} must be >= 0")
    if value == math.inf:
        raise DomainError(f"{name} must be finite")
    return value


def check_integer(name: str, value: int, least: int) -> int:
    """value, if it is an integer >= least; else a DomainError."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}")
    return value
