"""Explicit Wasserstein / Kolmogorov distance bounds to the standard normal.

Every model here is a first chaos, and every bound is the one first-chaos
bound: with m3 the third absolute moment and m4 the fourth moment of the
standardized kernel,

    dw = m3,
    dk = (1 + max{4, (4 m4 + 2)^{1/4}} / 2) * m3 + sqrt(m4).

The calculators only differ in the kernel integrals they form: given ones for
shot noise, mark moments times cascade moments over a window for cluster /
Hawkes processes, power moments times attenuation integrals for planar
interference.  Each hands them to ``_report``, the one place the
normalization, the formula, its sign rules and its float-range check live.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DivergentIntegral, DomainError, check_integer, check_positive
from .marks import MarkLaw
from .progeny import OffspringLaw, progeny_moment_table


@dataclass(frozen=True)
class Region:
    """Constant intensity lam on a window of volume leb."""

    lam: float
    leb: float

    def __post_init__(self):
        check_positive("region intensity", self.lam)
        check_positive("region volume", self.leb)
        check_positive("region mass lam * leb", self.lam * self.leb)


@dataclass(frozen=True)
class GaussianBoundReport:
    """A (dw, dk) bound pair plus an echo of what produced it.

    ``vacuous`` flags dk_bound >= 1: the Kolmogorov distance never exceeds 1,
    so such a bound carries no information.  (Wasserstein has no universal
    cap, so no flag is derived from dw_bound.)  Vacuous bounds are reported,
    not clamped.
    """

    dw_bound: float
    dk_bound: float
    inputs: dict

    @property
    def vacuous(self) -> bool:
        return self.dk_bound >= 1.0

    def to_dict(self) -> dict:
        return dict(asdict(self), vacuous=self.vacuous)


def _divisor(base: float, exponent: float, factor: float) -> float:
    """base ** exponent * factor, which a bound divides by: a DomainError when
    it leaves float range (a 0 crashes the division, an inf fakes a 0 bound)."""
    try:
        value = base ** exponent * factor
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError("a normalizer of the bound is 0 or not finite in floating point")
    return value


def _report(scale: float, i2: float, i3: float, i4: float, inputs: dict) -> GaussianBoundReport:
    """The bound pair of a first chaos with kernel f, int f^2 = scale * i2,
    int |f|^3 = scale * i3 and int f^4 = scale * i4; ``inputs`` is the
    caller's echo.  It normalizes m3 = i3 / (i2^{3/2} sqrt(scale)) and m4 =
    i4 / (i2^2 scale), never forming scale * i_m.  i2 must be positive and
    i3, i4 >= 0 (NaN is neither); a normalizer or a bound that leaves float
    range, through an infinite input or an overflowing quotient, is a
    DomainError."""
    check_positive("i2", i2)
    if not (i3 >= 0 and i4 >= 0):
        raise DomainError("kernel moments must be >= 0")
    m3 = i3 / _divisor(i2, 1.5, math.sqrt(scale))
    m4 = i4 / _divisor(i2, 2, scale)
    dk = (1.0 + 0.5 * max(4.0, (4.0 * m4 + 2.0) ** 0.25)) * m3 + math.sqrt(m4)
    # an infinite m3 or m4 makes dk infinite or NaN, so this check covers them
    if not dk < math.inf:
        raise DomainError("the bound leaves float range: dk_bound must be finite")
    return GaussianBoundReport(dw_bound=m3, dk_bound=dk, inputs=inputs)


def first_chaos_bounds(m3: float, m4: float) -> GaussianBoundReport:
    """Bounds for a normalized first chaos with kernel moments m3 = int |f|^3,
    m4 = int f^4 (and int f^2 = 1)."""
    return _report(1, 1, m3, m4, {"kind": "first-chaos", "m3": m3, "m4": m4})


def shotnoise_bounds(i2: float, i3_abs: float, i4: float) -> GaussianBoundReport:
    """Bounds for a standardized shot-noise functional from its raw kernel
    integrals int f^2, int |f|^3 and int f^4 (``_report``'s rules); invariant
    under kernel rescaling (i2,i3,i4) -> (c^2 i2, c^3 i3, c^4 i4)."""
    echo = {"kind": "shot-noise", "i2": i2, "i3_abs": i3_abs, "i4": i4}
    return _report(1, i2, i3_abs, i4, echo)


def compound_cluster_bounds(
    region: Region, mark: MarkLaw, ez3: float, ez4: float
) -> GaussianBoundReport:
    """Bounds for a standardized compound cluster sum over a window: a first
    chaos of scale lam * leb whose kernel integrals are E M^2, E|M|^3 E Z^3
    and E M^4 E Z^4, so dw = E|M|^3 E Z^3 / ((E M^2)^{3/2} sqrt(lam * leb)).
    Both bounds are invariant under mark scaling M -> cM.
    """
    return _report(
        region.lam * region.leb,
        mark.abs_moment(2),
        mark.abs_moment(3) * ez3,
        mark.abs_moment(4) * ez4,
        {
            "kind": "compound-cluster",
            "lam": region.lam,
            "leb": region.leb,
            "mark": mark.describe(),
            "ez3": ez3,
            "ez4": ez4,
        },
    )


def cluster_bounds_for_law(
    region: Region, law: OffspringLaw, mark: MarkLaw
) -> GaussianBoundReport:
    """Compound cluster bounds for any offspring law with 4 moments: the
    exact E Z^3 and E Z^4 of its cascade sizes fed to
    ``compound_cluster_bounds``, so the echo reads "compound-cluster"."""
    _, _, ez3, ez4 = progeny_moment_table(law, 4).moments
    return compound_cluster_bounds(region, mark, ez3, ez4)


def hertzian_integral(R: float, alpha: float, m: int) -> float:
    """int_{R^2} max{R, |x|}^{-alpha m} dx = pi alpha m / (alpha m - 2) * R^{2 - alpha m}.

    Diverges unless alpha * m > 2.
    """
    check_positive("R", R)
    if not (alpha > 1 and math.isfinite(alpha)):
        raise DomainError("alpha must be > 1")
    check_integer("m", m, 1)
    am = alpha * m
    if am <= 2.0:
        raise DivergentIntegral(f"alpha * m = {am} <= 2: the attenuation integral diverges")
    return math.pi * am / (am - 2.0) * R ** (2.0 - am)


def interference_bounds(lam: float, R: float, alpha: float, power: MarkLaw) -> GaussianBoundReport:
    """Bounds for standardized planar interference at the origin: a first
    chaos of scale lam with kernel P max{R, |x|}^{-alpha}.  The bound does
    not change under P -> cP, so the powers are standardized to E P^2 = 1:
    the kernel integrals are lam times (E P^m / (E P^2)^{m/2}) i_m, with i_m
    = hertzian_integral(R, alpha, m) and a ratio of 1 at m = 2.  These stay
    in float range where lam E P^m i_m would not; a normalizer (E P^2)^{m/2}
    that leaves it is a DomainError."""
    check_positive("lam", lam)
    p2, p3, p4 = (power.abs_moment(m) for m in (2, 3, 4))
    i2, i3, i4 = (hertzian_integral(R, alpha, m) for m in (2, 3, 4))
    echo = dict(kind="interference", lam=lam, power2=p2, power3=p3, power4=p4, i2=i2, i3=i3, i4=i4)
    j3 = p3 / _divisor(p2, 1.5, 1.0) * i3
    j4 = p4 / _divisor(p2, 2, 1.0) * i4
    return _report(lam, i2, j3, j4, echo)
