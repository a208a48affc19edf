"""Concentration parameters and explicit tail bounds.

Two numbers drive every tail estimate here.  ``gamma`` measures how fast the
absolute moments of the mark law may grow (E|M|^m <= (m!)^gamma (E M^2)^(m/2));
each named mark law carries its own as ``mark.gamma``, and
``verify_mark_gamma`` checks a candidate for a moment list.  ``delta``
calibrates the cumulant growth of the standardized cluster sum:

    |cumulant_m| <= (m!)^(1+gamma) / delta^(m-2)   for m >= 3.

Given a valid (gamma, delta) pair, the two-regime tail bound

    P(|W| >= x) <= 2 exp(-min{x^2 / 2^(1+gamma), (x delta)^(1/(1+gamma))} / 4)

holds for the standardized functional W, and everything else (normal
approximation windows, moderate deviations, the insurance corollaries) is a
specialization of it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import (
    DomainError,
    EmptyInterval,
    InsufficientMoments,
    RegimeError,
    check_integer,
    check_nonnegative,
    check_positive,
)
from .marks import MarkLaw, mark_abs_moments
from .progeny import Binomial, OffspringLaw, PoissonMean, progeny_moment_table

_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class DeviationParams:
    """A (gamma, delta) pair plus the branch of the formula that produced it."""

    gamma: float
    delta: float
    case_label: str

    def to_dict(self) -> dict:
        return asdict(self)


def verify_mark_gamma(
    abs_moments: list[float], gamma: float, m_max: int
) -> tuple[bool, int | None]:
    """Check E|M|^m <= (m!)^gamma (E M^2)^(m/2) for m = 3..m_max.

    abs_moments[i] is E|M|^(i+1).  Returns (all_ok, first_failing_m); ties
    pass.  Comparisons run in log space with a 1e-12 slack so exact-equality
    families (constant marks) are not tripped by rounding.
    """
    check_nonnegative("gamma", gamma)
    check_integer("m_max", m_max, 3)
    if len(abs_moments) < m_max:
        raise InsufficientMoments(
            f"need {m_max} absolute moments, got {len(abs_moments)}"
        )
    if not abs_moments[1] > 0:
        raise DomainError("E M^2 must be present and > 0")
    m2 = abs_moments[1]
    for m in range(3, m_max + 1):
        em = abs_moments[m - 1]
        check_nonnegative(f"absolute moment of order {m}", em)
        if em == 0.0:
            continue
        log_lhs = math.log(em)
        log_rhs = gamma * math.lgamma(m + 1) + 0.5 * m * math.log(m2)
        if log_lhs > log_rhs + 1e-12:
            return False, m
    return True, None


def delta_poisson(h: float, lambda_leb: float, gamma: float = 0.0) -> DeviationParams:
    """Cumulant calibration delta for Poisson(h) cascades on a window of mass
    lambda_leb.

    With nu = h - 1 - log h: delta = h sqrt(lambda_leb) when nu >= 1
    (case "(i)"), else delta = h nu^3 sqrt(lambda_leb) (case "(ii)").
    """
    PoissonMean(h)  # domain + subcriticality checks
    check_nonnegative("gamma", gamma)
    root = math.sqrt(check_positive("lambda_leb", lambda_leb))
    nu = h - 1.0 - math.log(h)
    if nu >= 1.0:
        return DeviationParams(gamma, h * root, "(i)")
    return DeviationParams(gamma, h * nu ** 3 * root, "(ii)")


def delta_binomial(
    h: int, p: float, lambda_leb: float, gamma: float = 0.0
) -> DeviationParams:
    """Cumulant calibration delta for Binomial(h, p) cascades on a window of
    mass lambda_leb.

    The split is on the cascade pmf's ratio bound q versus 1/e
    (``Binomial.pmf_ratio_bound``): q = p for h = 1 (cases "(i)1" / "(i)2"),
    and q = p h (h (1-p) / (h-1))^(h-1) for h >= 2 (cases "(ii)1" /
    "(ii)2").  Boundary values take the first branch.
    """
    q = Binomial(h, p).pmf_ratio_bound[0]  # after its domain + subcriticality checks
    check_nonnegative("gamma", gamma)
    root = math.sqrt(check_positive("lambda_leb", lambda_leb))
    if h == 1:
        scale = p / (1.05 * (1.0 - p))
        if q <= _INV_E:
            return DeviationParams(gamma, scale * root, "(i)1")
        return DeviationParams(gamma, scale * math.log(q) ** 4 * root, "(i)2")
    u = 1.0 + math.sqrt(1.0 + 1.0 / (h - 1.0)) * math.exp(1.0 / 600.0) * (
        1.0 - p
    ) / (p * (h - 1.0) * math.sqrt(2.0 * math.pi))
    if q <= _INV_E:
        return DeviationParams(gamma, root / u, "(ii)1")
    nu2 = -math.log(q)
    return DeviationParams(gamma, nu2 ** 3 / (1.16 * u) * root, "(ii)2")


def bci_bound(gamma: float, delta: float, x: float) -> float:
    """Two-sided tail bound 2 exp(-min{x^2/2^(1+gamma), (x delta)^(1/(1+gamma))}/4).

    Valid for any standardized functional whose cumulants satisfy the
    (gamma, delta) growth condition; values above 1 are reported as-is.
    """
    check_nonnegative("gamma", gamma)
    check_positive("delta", delta)
    check_nonnegative("x", x)
    quad = x * x / 2.0 ** (1.0 + gamma)
    frac = (x * delta) ** (1.0 / (1.0 + gamma))
    return 2.0 * math.exp(-0.25 * min(quad, frac))


@dataclass(frozen=True)
class CumulantConditionReport:
    """Order-by-order check of the (gamma, delta) cumulant growth condition.

    m_checked holds the inclusive order range (3, m_max)."""

    m_checked: tuple
    per_m: tuple
    all_pass: bool
    first_fail: int | None

    def to_dict(self) -> dict:
        return {
            "m_checked": list(self.m_checked),
            "per_m": list(self.per_m),
            "all_pass": self.all_pass,
            "first_fail": self.first_fail,
        }


def check_cumulant_condition(
    marks: list[float],
    prog: list[float],
    lambda_leb: float,
    gamma: float,
    delta: float,
    m_max: int,
) -> CumulantConditionReport:
    """Check, for m = 3..m_max, that

        E|M|^m E Z^m / ((E M^2)^(m/2) sqrt(lambda_leb)^(m-2))
            <= (m!)^(1+gamma) / delta^(m-2).

    marks[i] is E|M|^(i+1) and prog[i] is E Z^(i+1).  Comparison runs in log
    space.
    """
    check_integer("m_max", m_max, 3)
    if len(marks) < m_max or len(prog) < m_max:
        raise InsufficientMoments(
            f"need {m_max} mark and progeny moments, got {len(marks)} and {len(prog)}"
        )
    if not marks[1] > 0:
        raise DomainError("E M^2 must be present and > 0")
    check_positive("lambda_leb", lambda_leb)
    check_nonnegative("gamma", gamma)
    check_positive("delta", delta)

    log_m2 = math.log(marks[1])
    log_ll = math.log(lambda_leb)
    log_delta = math.log(delta)
    per_m = []
    first_fail = None
    for m in range(3, m_max + 1):
        em = marks[m - 1]
        ez = prog[m - 1]
        if not (em >= 0 and ez >= 0):
            raise DomainError(f"order-{m} moments must be >= 0")
        log_rhs = (1.0 + gamma) * math.lgamma(m + 1) - (m - 2) * log_delta
        if em == 0.0 or ez == 0.0:
            ok = True
            log_lhs = -math.inf
        else:
            log_lhs = (
                math.log(em)
                + math.log(ez)
                - 0.5 * m * log_m2
                - 0.5 * (m - 2) * log_ll
            )
            ok = log_lhs <= log_rhs
        per_m.append(
            {
                "m": m,
                "lhs": math.exp(log_lhs) if log_lhs < 700.0 else math.inf,
                "rhs": math.exp(log_rhs) if log_rhs < 700.0 else math.inf,
                "pass": ok,
            }
        )
        if not ok and first_fail is None:
            first_fail = m
    return CumulantConditionReport(
        m_checked=(3, m_max),
        per_m=tuple(per_m),
        all_pass=first_fail is None,
        first_fail=first_fail,
    )


def cumulant_condition_for_law(
    mark: MarkLaw, law: OffspringLaw, lambda_leb: float, gamma: float, delta: float, m_max: int
) -> CumulantConditionReport:
    """``check_cumulant_condition`` from the exact moments of a mark law and
    an offspring law, up to order m_max."""
    marks, prog = mark_abs_moments(mark, m_max), progeny_moment_table(law, m_max).moments
    return check_cumulant_condition(marks, prog, lambda_leb, gamma, delta, m_max)


def nacc_window(gamma: float, delta: float, c0: float) -> tuple[float, float]:
    """Interval [0, c0 delta^(1/(1+2 gamma))] on which the normal approximation
    of the tail is accurate to a constant factor."""
    check_nonnegative("gamma", gamma)
    check_positive("delta", delta)
    check_positive("c0", c0)
    return 0.0, check_positive("the window end", c0 * delta ** (1.0 / (1.0 + 2.0 * gamma)))


def mdp_rate_inf(interval: tuple[float, float]) -> float:
    """Infimum of the Gaussian rate x^2/2 over a closed interval.

    Infinite endpoints are allowed, and give an infinite rate when the
    interval lies past one; a finite edge whose rate overflows raises, as
    does an empty interval (a > b)."""
    a, b = interval
    if math.isnan(a) or math.isnan(b):
        raise DomainError("interval endpoints must not be NaN")
    if a > b:
        raise EmptyInterval(f"empty interval: ({a}, {b})")
    if a <= 0.0 <= b:
        return 0.0
    edge = a if a > 0 else b
    rate = edge * edge / 2.0
    if rate == math.inf and math.isfinite(edge):
        raise DomainError("the rate leaves float range: rate_inf must be finite")
    return rate


def _insurance_checks(lam: float, h: float, mu_mean: float, T: float, strict: bool) -> bool:
    """Check the inputs both corollaries share and return regime_ok; with
    strict=True a regime violation raises instead."""
    check_positive("lam", lam)
    PoissonMean(h)  # domain + subcriticality checks
    check_positive("mu_mean", mu_mean)
    check_positive("T", T)
    nu = h - 1.0 - math.log(h)
    if strict and nu < 1.0:
        raise RegimeError(
            f"h - 1 - log h = {nu} < 1, outside the regime this corollary "
            "hard-codes; use bci_bound with your own (gamma, delta) instead, "
            "or pass strict=False to compute the formulas anyway"
        )
    return nu >= 1.0


@dataclass(frozen=True)
class InsuranceTailReport:
    """Bound on P(total claims over [0, T] >= k times their mean).

    ``linear_exponent`` grows linearly in T, ``sqrt_exponent`` like sqrt(T);
    past ``t_threshold`` the sqrt term is the smaller one and the bound uses
    it alone.  ``regime_ok`` records whether h - 1 - log h >= 1 (the zone
    where the delta calibration behind the bound is sharpest); with
    strict=True a violation raises instead.
    """

    t_threshold: float
    simplified: bool
    linear_exponent: float
    sqrt_exponent: float
    bound: float
    regime_ok: bool
    vacuous: bool
    inputs: dict

    def to_dict(self) -> dict:
        return asdict(self)


def insurance_tail_report(
    lam: float, h: float, mu_mean: float, T: float, k: float, strict: bool = False
) -> InsuranceTailReport:
    """Exponential-mark cluster model of aggregate claims: bound the chance
    that the horizon-T total reaches k times its expectation.

    The mark scale mu_mean cancels from the standardized deviation, so it
    only rides along in the echo.  A threshold or exponent past float range
    raises.
    """
    if not (k > 1.0 and math.isfinite(k)):
        raise DomainError("k must be > 1")
    regime_ok = _insurance_checks(lam, h, mu_mean, T, strict)
    denominator = (k - 1) ** 3 * lam * (1 - h) ** 1.5
    t_threshold = 2 ** 5.5 * h / denominator if denominator > 0.0 else math.inf
    lin = (k - 1) ** 2 * lam * (1 - h) * T / 8.0
    sqr = math.sqrt((k - 1) * lam * h * math.sqrt((1 - h) / 2.0) * T)
    for name, value in (("t_threshold", t_threshold), ("linear_exponent", lin),
                        ("sqrt_exponent", sqr)):
        if not value < math.inf:
            raise DomainError(f"the bound leaves float range: {name} must be finite")
    simplified = T >= t_threshold
    exponent = sqr if simplified else min(lin, sqr)
    bound = 2.0 * math.exp(-exponent / 4.0)
    return InsuranceTailReport(
        t_threshold=t_threshold,
        simplified=simplified,
        linear_exponent=lin,
        sqrt_exponent=sqr,
        bound=bound,
        regime_ok=regime_ok,
        vacuous=bound > 1.0,
        inputs={"lam": lam, "h": h, "mu_mean": mu_mean, "T": T, "k": k},
    )


@dataclass(frozen=True)
class TotalLossInterval:
    """Two-sided confidence interval for the horizon-T total of an
    exponential-mark cluster model."""

    center: float
    half_width: float
    lower: float
    upper: float
    prob_lower_bound: float
    regime_ok: bool
    vacuous: bool
    inputs: dict

    def to_dict(self) -> dict:
        return asdict(self)


def total_loss_interval(
    lam: float, h: float, mu_mean: float, T: float, x: float, strict: bool = False
) -> TotalLossInterval:
    """Interval lam mu T / (1-h) +- x sqrt(2 mu^2 lam T / (1-h)^3) holding
    with probability at least 1 - 2 exp(-min{x^2/4, sqrt(x h sqrt(lam T))}/4).

    A negative confidence (x too small for the horizon) is flagged vacuous,
    not clamped.  bci_bound checks x; an interval past float range raises.
    """
    regime_ok = _insurance_checks(lam, h, mu_mean, T, strict)
    prob_lower_bound = 1.0 - bci_bound(1.0, h * math.sqrt(lam * T), x)
    center = lam * mu_mean * T / (1.0 - h)
    half_width = x * math.sqrt(2.0 * mu_mean ** 2 * lam * T / (1.0 - h) ** 3)
    upper = center + half_width
    if not upper < math.inf:  # NaN fails too
        raise DomainError("the interval leaves float range: upper must be finite")
    return TotalLossInterval(
        center=center,
        half_width=half_width,
        lower=center - half_width,
        upper=upper,
        prob_lower_bound=prob_lower_bound,
        regime_ok=regime_ok,
        vacuous=prob_lower_bound < 0.0,
        inputs={"lam": lam, "h": h, "mu_mean": mu_mean, "T": T, "x": x},
    )
