"""Moments of the total progeny of a subcritical Galton-Watson cascade.

Z counts every individual of a cascade started by one ancestor, the ancestor
included.  With P the offspring variable, Z = 1 + Z_1 + ... + Z_P for
independent copies Z_j, so M(t) = E e^{tZ} solves the fixed point

    M(t) = e^t G_P(M(t)),   G_P(s) = sum_i E(P)_i (s - 1)^i / i!,

in the factorial moments E(P)_i = E[P(P-1)...(P-i+1)] (the total-progeny /
Lagrange-inversion view of Dwass 1969).  ``progeny_moment_table`` reads
E Z^1..E Z^n off its power series, one order at a time, in O(n^3) total
work; every E Z^n the package uses comes from this one recursion.

Each offspring law owns what depends on its family: its mean, its factorial
moments, its generation step (the sampler's draw of a generation's
children) and the pmf of its cascade's total progeny, Borel for the
Poisson(h) cascade and Consul for the Binomial(h, p) cascade.  The pmf comes
as ``log_pmf(k)`` (the formula, k unchecked), ``pmf(k)`` (checked) and
``pmf_ratio_bound``, a (q, c) with pmf(j+1)/pmf(j) <= q e^{c/k} for all
j >= k.  ``progeny_moment_series`` sums k^m against any such law, its tail
certified by that bound, as an independent oracle.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import takewhile
from operator import mul
from typing import TYPE_CHECKING, Union

from .errors import (
    DomainError,
    InsufficientMoments,
    NoConvergence,
    SupercriticalError,
    check_integer,
    check_nonnegative,
    check_positive,
)

if TYPE_CHECKING:
    import numpy as np

# (1 - E P) appears in denominators raised to high powers, so anything closer
# to criticality than this is rejected rather than silently overflowing.
SUBCRITICAL_SLACK = 1e-9

_SERIES_MAX_TERMS = 2_000_000


def _check_mean(mean: float) -> None:
    if mean > 1.0 - SUBCRITICAL_SLACK:
        raise SupercriticalError(
            f"offspring mean {mean} is >= 1 - {SUBCRITICAL_SLACK:g}"
        )


@dataclass(frozen=True)
class PoissonMean:
    """Poisson offspring with mean h, 0 < h < 1."""

    h: float

    def __post_init__(self):
        # a subnormal h would round pmf_ratio_bound below the true ratio
        if not (self.h >= sys.float_info.min and math.isfinite(self.h)):
            raise DomainError("Poisson offspring needs h > 0, a normal float")
        _check_mean(self.h)

    @property
    def mean(self) -> float:
        return self.h

    def factorial_moments(self, n: int) -> list[float]:
        """[E(P)_1, ..., E(P)_n], E(P)_i = h^i."""
        return [self.h ** i for i in range(1, n + 1)]

    def next_generation(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The parent index of every child of n individuals, by Poisson
        splitting: Poisson(n h) children in all, each given a uniform parent,
        which is exactly n independent Poisson(h) counts.  The count goes in
        as a Python int, since numpy sizes a numpy integer through np.prod."""
        return rng.integers(0, n, int(rng.poisson(self.h * n)))

    def log_pmf(self, k: int) -> float:
        """log P(Z = k) = -hk + (k-1) log(hk) - log k! (Borel); k unchecked."""
        h = self.h
        return -h * k + (k - 1) * math.log(h * k) - math.lgamma(k + 1)

    def pmf(self, k: int) -> float:
        """P(Z = k) of the cascade's total progeny (Borel)."""
        return math.exp(self.log_pmf(check_integer("k", k, 1)))

    @property
    def pmf_ratio_bound(self) -> tuple[float, float]:
        """(q, c) with pmf(j+1)/pmf(j) <= q e^{c/k} for all j >= k: the Borel
        ratio h e^{-h} (1+1/j)^{j-1} increases to h e^{1-h} < 1."""
        return self.h * math.exp(1.0 - self.h), 0.0

    def describe(self) -> dict:
        return {"family": "poisson", "h": self.h}


@dataclass(frozen=True)
class Binomial:
    """Binomial(h, p) offspring: h trials, success probability p, hp < 1."""

    h: int
    p: float

    def __post_init__(self):
        check_integer("Binomial offspring h", self.h, 1)
        # a subnormal p would round pmf_ratio_bound below the true ratio
        if not (sys.float_info.min <= self.p < 1.0):
            raise DomainError("Binomial offspring needs 0 < p < 1, a normal float")
        _check_mean(self.h * self.p)
        # log_pmf's per-term constants, computed once per law
        object.__setattr__(self, "_log_p", math.log(self.p))
        object.__setattr__(self, "_log_q", math.log1p(-self.p))

    @property
    def mean(self) -> float:
        return self.h * self.p

    def factorial_moments(self, n: int) -> list[float]:
        """[E(P)_1, ..., E(P)_n], E(P)_i = (h)_i p^i with the falling
        factorial (h)_i = 0 once i > h.  Once p^i falls below the normal floats
        (before (h)_i can overflow, since h p < 1), that product would lose
        its digits or read inf * 0, so the terms are multiplied with p folded
        in, prod_j (h - j + 1) p <= (h p)^i < 1."""
        out, falling, folded = [], 1.0, 1.0
        for i in range(1, n + 1):
            falling *= max(self.h - i + 1, 0)
            folded *= max(self.h - i + 1, 0) * self.p
            p_i = self.p ** i
            out.append(falling * p_i if p_i >= sys.float_info.min else folded)
        return out

    def next_generation(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The parent index of every child of n individuals: one Binomial(h, p)
        count per parent."""
        import numpy as np

        return np.repeat(np.arange(n), rng.binomial(self.h, self.p, n))

    def log_pmf(self, k: int) -> float:
        """log P(Z = k) = log((1/k) C(kh, k-1) p^{k-1} (1-p)^{k(h-1)+1})
        (Consul); k unchecked.  The binomial coefficient is taken through
        log-gamma, since it overflows for k in the hundreds already."""
        h = self.h
        log_binom = math.lgamma(k * h + 1) - math.lgamma(k) - math.lgamma(k * (h - 1) + 2)
        return -math.log(k) + log_binom + (k - 1) * self._log_p + (k * (h - 1) + 1) * self._log_q

    def pmf(self, k: int) -> float:
        """P(Z = k) of the cascade's total progeny (Consul)."""
        return math.exp(self.log_pmf(check_integer("k", k, 1)))

    @property
    def pmf_ratio_bound(self) -> tuple[float, float]:
        """(q, c) with pmf(j+1)/pmf(j) <= q e^{c/k} for all j >= k.  The exact
        ratio is a product of h linear factors over h-1 linear factors;
        bounding each factor gives q = p h (h(1-p)/(h-1))^{h-1} and
        c = (h+1)/2, and at h = 1 the pmf is geometric with ratio p."""
        h, p = self.h, self.p
        if h == 1:
            return p, 0.0
        return p * h * (h * (1.0 - p) / (h - 1)) ** (h - 1), (h + 1) / 2

    def describe(self) -> dict:
        return {"family": "binomial", "h": self.h, "p": self.p}


@dataclass(frozen=True)
class FactorialMoments:
    """Offspring given by its factorial moments; entry i (0-based) is E(P)_{i+1}.

    The degenerate all-zero list (P = 0, so Z = 1) is allowed and handy as a
    trivial oracle; it is also the only such law that can be sampled.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise DomainError("need at least E(P)_1")
        if any(not (v >= 0 and math.isfinite(v)) for v in self.values):
            raise DomainError("factorial moments must be finite and >= 0")
        _check_mean(self.values[0])

    @property
    def mean(self) -> float:
        return self.values[0]

    def factorial_moments(self, n: int) -> list[float]:
        """The first n stored values, padded with 0s past a stored 0: E(P)_i = 0
        means P < i almost surely, so every later factorial moment is 0."""
        if n > len(self.values) and 0.0 not in self.values:
            raise InsufficientMoments(
                f"law stores {len(self.values)} factorial moments, {n} requested"
            )
        return list(self.values[:n]) + [0.0] * (n - len(self.values))

    def check_samplable(self) -> None:
        """Raise unless this is the all-zero law, the only one with a sampler."""
        if any(v != 0 for v in self.values):
            raise DomainError(
                "a bare factorial-moment sequence has no sampler; "
                "only the all-zero (compound Poisson) case can be simulated"
            )

    def next_generation(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """No children and no draws (the all-zero law)."""
        import numpy as np

        self.check_samplable()
        return np.arange(0)

    def pmf(self, k: int) -> float:
        """No closed pmf; ``log_pmf`` and ``pmf_ratio_bound`` raise alike."""
        raise DomainError("no closed pmf for a bare factorial-moment sequence")

    log_pmf = pmf

    @property
    def pmf_ratio_bound(self) -> tuple[float, float]:
        return self.pmf(1)

    def describe(self) -> dict:
        return {"family": "factorial-moments", "values": list(self.values)}


OffspringLaw = Union[PoissonMean, Binomial, FactorialMoments]


def factorial_moments(law: OffspringLaw, n_max: int) -> list[float]:
    """[E(P)_1, ..., E(P)_{n_max}] for the offspring variable P."""
    return law.factorial_moments(check_integer("n_max", n_max, 1))


def _moment_sequence(law: OffspringLaw, n: int) -> list[float]:
    """[E Z^1, ..., E Z^n] from the fixed point M(t) = e^t G_P(M(t)).

    With u = M - 1 = sum_k c_k t^k, c_k = E Z^k / k! and f_i = E(P)_i / i!,
    matching t^order coefficients gives

        c_order (1 - E P) = sum_{i>=2} f_i [u^i]_order
                            + sum_{k<order} [G_P(M)]_k / (order-k)!,

    where [u^i]_order (i >= 2) needs only c_1..c_{order-1}.  Each order costs
    O(order^2) and every term is >= 0, so nothing cancels.
    """
    check_integer("moment order", n, 1)
    ep = law.mean
    _check_mean(ep)
    # 1/j! is 0.0 in float64 from j = 178 on, so only its nonzero head is computed
    inv_fact = list(takewhile(bool, (1 / math.factorial(j) for j in range(n + 1))))
    inv_fact += [0.0] * (n + 1 - len(inv_fact))
    f = [1.0] + [v * inv_fact[i] for i, v in enumerate(factorial_moments(law, n), 1)]
    while len(f) > 2 and f[-1] == 0.0:
        f.pop()
    # powers[i][k] = [t^k] u^i; powers[1] is the c_k sequence itself
    powers = [[0.0] * (n + 1) for _ in range(len(f))]
    c = powers[1]
    g = [1.0]  # g[k] = [t^k] G_P(M(t))
    out = []
    for order in range(1, n + 1):
        higher = 0.0
        for i in range(2, min(order, len(f) - 1) + 1):
            term = sum(map(mul, c[1:order], powers[i - 1][order - 1 : 0 : -1]))
            powers[i][order] = term
            higher += f[i] * term
        c[order] = (higher + sum(map(mul, g, inv_fact[order:0:-1]))) / (1.0 - ep)
        g.append(f[1] * c[order] + higher)
        # E Z^order = c_order * order!, rounded once; order! alone overflows a
        # float past 170.  A coefficient that underflowed would be silently
        # wrong, so it is rejected like an overflow.
        try:
            num, den = c[order].as_integer_ratio()
            moment = num * math.factorial(order) / den
        except (OverflowError, ValueError):
            moment = math.inf
        if not (moment < math.inf and c[order] >= sys.float_info.min):
            raise DomainError(
                f"E Z^{order} is out of float64 range for this recursion"
            )
        out.append(moment)
    return out


@dataclass(frozen=True)
class ProgenyMomentTable:
    """E Z^1..E Z^{n_max} computed in one recursion pass."""

    n_max: int
    moments: tuple[float, ...]


def progeny_moment_table(law: OffspringLaw, n_max: int) -> ProgenyMomentTable:
    return ProgenyMomentTable(n_max=n_max, moments=tuple(_moment_sequence(law, n_max)))


def progeny_moment_series(law: OffspringLaw, m: int, rel_tol: float) -> float:
    """E Z^m = sum_k k^m pmf(k), truncated with a certified geometric tail.

    Only a law with a closed cascade pmf (PoissonMean, Binomial) has a
    series.  With (q, c) = law.pmf_ratio_bound, r = (1+1/k)^m q e^{c/k}
    bounds t_{j+1}/t_j for all j >= k, with t_j = j^m pmf(j), since the
    polynomial factor contributes (1+1/j)^m <= (1+1/k)^m.  The sum stops
    once the dominating tail bound t_k r/(1-r) drops below rel_tol times the
    partial sum.  r falls as k grows, so a law whose r is still >= 1 at the
    last allowed term can never be certified, and fails before any term.
    """
    check_integer("m", m, 0)
    check_positive("rel_tol", rel_tol)
    q, c = law.pmf_ratio_bound
    if m == 0:
        return 1.0
    last = _SERIES_MAX_TERMS
    if (1.0 + 1.0 / last) ** m * q * math.exp(c / last) >= 1.0:
        raise NoConvergence(f"the ratio bound is >= 1 at term {last}: no term can certify the tail")
    # k runs over 1, 2, ..., so the terms skip pmf's check of k
    log_pmf = law.log_pmf
    total = 0.0
    for k in range(1, last + 1):
        # e^{0/k} = 1 exactly, and skipping the exp saves ~5% of a series
        ratio = (1.0 + 1.0 / k) ** m * q * (math.exp(c / k) if c else 1.0)
        term = float(k) ** m * math.exp(log_pmf(k))
        total += term
        if ratio < 1.0:
            tail = term * ratio / (1.0 - ratio)
            if tail <= rel_tol * total:
                return total
    raise NoConvergence(f"ratio test did not certify within {last} terms")


@dataclass(frozen=True)
class CertifiedSum:
    """A value known to lie in [center - radius, center + radius]."""

    center: float
    radius: float

    def __post_init__(self):
        check_nonnegative("radius", self.radius)

    @property
    def lower(self) -> float:
        return self.center - self.radius

    @property
    def upper(self) -> float:
        return self.center + self.radius

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def abel_plana_bound(nu: float, m: int) -> CertifiedSum:
    """Certified evaluation of sum_{k>=1} e^{-nu k} k^{m-1}.

    The sum equals nu^{-m} (m-1)! up to a remainder of absolute size at most
    1/(pi (m-1)) + 2 (m-1)! / pi^m.
    """
    check_positive("nu", nu)
    check_integer("m", m, 2)
    center = nu ** (-m) * math.factorial(m - 1)
    radius = 1.0 / (math.pi * (m - 1)) + 2.0 * math.factorial(m - 1) / math.pi ** m
    return CertifiedSum(center=center, radius=radius)
