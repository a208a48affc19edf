"""Mark (and interference power) laws: absolute moments and sampling.

A mark law enters every bound only through its absolute moments E|M|^m, so
each family stores its parameters and answers ``abs_moment(m)`` in closed
form.  The tail bounds also need its moment-growth exponent ``gamma``, with
E|M|^m <= (m!)^gamma (E M^2)^(m/2) for every m, which each named family
holds as a class constant.  The named families also know their signed
mean E M and how to draw samples, and ``total(rng, counts)`` draws the sums
of counts[i] iid marks, exactly in law; a moments-only law knows none of
these.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .errors import DomainError, InsufficientMoments, UnknownFamily, check_integer, check_positive

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ConstantMark:
    """Degenerate mark M = value.

    A zero value is accepted so that trivially-null models can be simulated;
    operations that divide by E M^2 reject it.  An infinite or NaN value is
    rejected, since every moment of it is infinite or NaN too.
    """

    value: float
    gamma = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError("constant mark value must be finite")

    def abs_moment(self, m: int) -> float:
        check_integer("moment order", m, 1)
        return abs(self.value) ** m

    @property
    def mean(self) -> float:
        return self.value

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        import numpy as np

        return np.full(size, float(self.value))

    def total(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        return float(self.value) * counts

    def describe(self) -> dict:
        return {"family": "constant", "value": self.value}


@dataclass(frozen=True)
class UniformMark:
    """Mark uniform on [0, upper]."""

    upper: float
    gamma = 1.0

    def __post_init__(self):
        check_positive("uniform mark upper", self.upper)

    def abs_moment(self, m: int) -> float:
        check_integer("moment order", m, 1)
        return self.upper ** m / (m + 1)

    @property
    def mean(self) -> float:
        return self.upper / 2

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(0.0, self.upper, size)

    def total(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        return segment_sums(self.sample(rng, int(counts.sum())), counts)

    def describe(self) -> dict:
        return {"family": "uniform", "upper": self.upper}


@dataclass(frozen=True)
class ExponentialMark:
    """Exponential mark with the given mean; E M^m = m! * mean^m."""

    mean: float
    gamma = 1.0

    def __post_init__(self):
        check_positive("exponential mark mean", self.mean)

    def abs_moment(self, m: int) -> float:
        check_integer("moment order", m, 1)
        return math.factorial(m) * self.mean ** m

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(self.mean, size)

    def total(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        # a sum of n iid exponentials is Gamma(n, mean)
        return rng.gamma(counts, self.mean)

    def describe(self) -> dict:
        return {"family": "exponential", "mean": self.mean}


@dataclass(frozen=True)
class CenteredGaussianMark:
    """N(0, sigma^2) mark; E|M|^m = sigma^m 2^{m/2} Gamma((m+1)/2) / sqrt(pi)."""

    sigma: float
    gamma = 0.5

    def __post_init__(self):
        check_positive("centered Gaussian mark sigma", self.sigma)

    def abs_moment(self, m: int) -> float:
        check_integer("moment order", m, 1)
        return (
            self.sigma ** m
            * 2.0 ** (m / 2.0)
            * math.gamma((m + 1) / 2.0)
            / math.sqrt(math.pi)
        )

    @property
    def mean(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size)

    def total(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        import numpy as np

        return rng.normal(0.0, self.sigma * np.sqrt(counts))

    def describe(self) -> dict:
        return {"family": "gaussian", "sigma": self.sigma}


@dataclass(frozen=True)
class CustomAbsMoments:
    """Moments-only mark: entry i (0-based) is E|M|^(i+1).

    Entries violating the Lyapunov ordering (E|M|^a)^{1/a} <= (E|M|^b)^{1/b}
    draw a warning rather than a rejection, because callers may legitimately
    pass upper bounds instead of exact moments.
    """

    moments: tuple[float, ...]

    def __post_init__(self):
        if len(self.moments) < 2:
            raise DomainError("need at least E|M| and E M^2")
        if any(not (v >= 0 and math.isfinite(v)) for v in self.moments):
            raise DomainError("absolute moments must be finite and >= 0")
        for a in range(1, len(self.moments)):
            b = a + 1
            lo, hi = self.moments[a - 1], self.moments[b - 1]
            if lo > 0 and lo ** (1.0 / a) > hi ** (1.0 / b) * (1 + 1e-12):
                warnings.warn(
                    f"moment list is not Lyapunov-consistent at orders {a},{b}",
                    stacklevel=2,
                )

    def abs_moment(self, m: int) -> float:
        check_integer("moment order", m, 1)
        if m > len(self.moments):
            raise InsufficientMoments(
                f"order {m} requested, only {len(self.moments)} stored"
            )
        return self.moments[m - 1]

    @property
    def gamma(self) -> float:
        raise UnknownFamily(
            "no closed-form gamma for a custom moment list; pass gamma "
            "explicitly (checked with verify_mark_gamma)"
        )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise DomainError("a moments-only mark law cannot be sampled")

    def total(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        raise DomainError("a moments-only mark law cannot be sampled")

    def describe(self) -> dict:
        return {"family": "custom", "abs_moments": list(self.moments)}


MarkLaw = Union[
    ConstantMark, UniformMark, ExponentialMark, CenteredGaussianMark, CustomAbsMoments
]


def segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of the consecutive runs of ``values``, run i ``counts[i]`` long;
    a zero-length run sums to 0.0."""
    import numpy as np

    counts = np.asarray(counts)
    sums = np.zeros(counts.size)
    nonempty = counts > 0
    starts = np.cumsum(counts) - counts
    if nonempty.any():
        sums[nonempty] = np.add.reduceat(values, starts[nonempty])
    return sums


def mark_abs_moments(mark: MarkLaw, m_max: int) -> list[float]:
    """[E|M|^1, ..., E|M|^m_max]."""
    return [mark.abs_moment(m) for m in range(1, m_max + 1)]
