"""Unit tests for total-progeny moments, pmfs, and certified sums.

Frozen expected values come from independent computations: direct pmf series
with math.lgamma, geometric closed forms for the h = 1 binomial cascade, and
closed geometric-series identities for the exponential sums.  The recursion
over integer compositions that the package used before its generating-function
recursion is kept here as a third, independent moment oracle.
"""
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_bounds import (
    Binomial,
    CertifiedSum,
    DomainError,
    FactorialMoments,
    InsufficientMoments,
    NoConvergence,
    PoissonMean,
    SupercriticalError,
    abel_plana_bound,
    factorial_moments,
    progeny_moment_series,
    progeny_moment_table,
)

from progeny_oracles import progeny_moment_closed


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# offspring laws and factorial moments


def test_factorial_moments_poisson():
    assert factorial_moments(PoissonMean(0.5), 3) == [0.5, 0.25, 0.125]


def test_factorial_moments_binomial():
    # E(P)_i = (h)_i p^i, zero past i = h
    assert factorial_moments(Binomial(2, 0.25), 3) == [0.5, 0.125, 0.0]
    assert factorial_moments(Binomial(1, 0.5), 2) == [0.5, 0.0]


@pytest.mark.parametrize("h, p", [(1000, 1e-4), (3, 0.2), (400, 2e-3)])
def test_binomial_factorial_moments_match_exact_products(h, p):
    # (h)_i p^i in exact rationals; p^i leaves the normal floats from i = 77
    # and (h)_i overflows from i = 104 at h = 1000, p = 1e-4
    got = factorial_moments(Binomial(h, p), 200)
    falling, plain = 1, 1.0
    for i, g in enumerate(got, start=1):
        falling *= max(h - i + 1, 0)
        plain *= max(h - i + 1, 0)
        exact = float(falling * Fraction(p) ** i)
        assert abs(g - exact) <= 1e-12 * exact, i
        # the plain float product, bit for bit, wherever p^i is a normal float
        if p ** i >= sys.float_info.min:
            assert g == plain * p ** i, i


def test_factorial_moments_stored_list():
    law = FactorialMoments((0.4, 0.1))
    assert factorial_moments(law, 2) == [0.4, 0.1]
    with pytest.raises(InsufficientMoments):
        factorial_moments(law, 3)
    # a stored 0 means P < i, so every later factorial moment is 0
    assert factorial_moments(FactorialMoments((0.4, 0.0)), 4) == [0.4, 0.0, 0.0, 0.0]
    assert progeny_moment_table(FactorialMoments((0.0,)), 6).moments == (1.0,) * 6


def test_offspring_validation():
    with pytest.raises(SupercriticalError):
        PoissonMean(1.0)
    with pytest.raises(DomainError):
        PoissonMean(0.0)
    with pytest.raises(DomainError):
        PoissonMean(-0.5)
    with pytest.raises(DomainError):
        Binomial(0, 0.5)
    with pytest.raises(DomainError):
        Binomial(2, 1.2)
    with pytest.raises(SupercriticalError):
        Binomial(2, 0.6)
    with pytest.raises(SupercriticalError):
        FactorialMoments((1.5, 0.1))
    with pytest.raises(DomainError):
        FactorialMoments(())
    with pytest.raises(DomainError):
        FactorialMoments((0.5, -0.1))


# ---------------------------------------------------------------------------
# composition-recursion oracle


def compositions(k, i):
    """All ordered i-tuples of positive integers summing to k, lexicographic.

    There are C(k-1, i-1) of them; the list is empty when i > k.
    """
    if not (isinstance(k, int) and k >= 1):
        raise DomainError("k must be an integer >= 1")
    if not (isinstance(i, int) and i >= 1):
        raise DomainError("i must be an integer >= 1")
    if i > k:
        return []
    if i == 1:
        return [(k,)]
    out = []
    for first in range(1, k - i + 2):
        for rest in compositions(k - first, i - 1):
            out.append((first,) + rest)
    return out


def composition_moments(law, n):
    """[E Z^1, ..., E Z^n] by the recursion over compositions:

    E Z^n = ( 1 + sum_{k=1..n-1} k! C(n,k) sum_{i=1..k} E(P)_i/i! *
                  sum_{m_1+..+m_i=k} prod_j E Z^{m_j}/m_j!
                + n! sum_{i=2..n} E(P)_i/i! *
                  sum_{m_1+..+m_i=n} prod_j E Z^{m_j}/m_j! ) / (1 - E P).

    Its cost doubles with every order, so it is only run to n = 12.
    """
    ep = law.mean
    epi = factorial_moments(law, n)
    fact = [math.factorial(j) for j in range(n + 1)]
    ez = {1: 1.0 / (1.0 - ep)}

    def comp_sum(k, i):
        return sum(
            math.prod(ez[m] / fact[m] for m in parts) for parts in compositions(k, i)
        )

    for order in range(2, n + 1):
        total = 1.0
        for k in range(1, order):
            inner = sum(epi[i - 1] / fact[i] * comp_sum(k, i) for i in range(1, k + 1))
            total += math.comb(order, k) * fact[k] * inner
        tail = sum(epi[i - 1] / fact[i] * comp_sum(order, i) for i in range(2, order + 1))
        ez[order] = (total + fact[order] * tail) / (1.0 - ep)
    return [ez[j] for j in range(1, n + 1)]


def test_compositions_examples():
    assert compositions(3, 2) == [(1, 2), (2, 1)]
    assert compositions(4, 4) == [(1, 1, 1, 1)]
    assert compositions(2, 3) == []
    assert compositions(5, 1) == [(5,)]
    assert compositions(5, 3) == [
        (1, 1, 3),
        (1, 2, 2),
        (1, 3, 1),
        (2, 1, 2),
        (2, 2, 1),
        (3, 1, 1),
    ]


def test_compositions_counts():
    for k in range(1, 9):
        for i in range(1, 9):
            got = compositions(k, i)
            assert len(got) == (math.comb(k - 1, i - 1) if i <= k else 0)
            assert all(len(t) == i and sum(t) == k and min(t) >= 1 for t in got)


def test_compositions_validation():
    with pytest.raises(DomainError):
        compositions(0, 1)
    with pytest.raises(DomainError):
        compositions(3, 0)


# ---------------------------------------------------------------------------
# moment recursion vs closed forms and frozen goldens


def test_poisson_golden_moments():
    law = PoissonMean(0.5)
    assert progeny_moment_closed(law, 1) == 2.0
    assert progeny_moment_closed(law, 2) == 8.0
    assert progeny_moment_closed(law, 3) == 64.0
    assert progeny_moment_closed(law, 4) == 832.0
    for n, got in enumerate(progeny_moment_table(law, 4).moments, 1):
        assert rel_err(got, progeny_moment_closed(law, n)) <= 1e-12


def test_binomial_golden_moments():
    # h = 1 makes Z geometric on {1, 2, ...}; moments from the closed
    # geometric sums: (2, 6, 26, 150) at p = 0.5
    law = Binomial(1, 0.5)
    table = progeny_moment_table(law, 4).moments
    for n, want in [(1, 2.0), (2, 6.0), (3, 26.0), (4, 150.0)]:
        assert rel_err(progeny_moment_closed(law, n), want) <= 1e-12
        assert rel_err(table[n - 1], want) <= 1e-12


def test_consul_golden_moments():
    # independent direct-summation values for Binomial(2, 0.25)
    law = Binomial(2, 0.25)
    table = progeny_moment_table(law, 4).moments
    for n, want in [(1, 2.0), (2, 7.0), (3, 42.5), (4, 391.75)]:
        assert rel_err(table[n - 1], want) <= 1e-12
        assert rel_err(progeny_moment_closed(law, n), want) <= 1e-12


@pytest.mark.parametrize("h", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_recursion_matches_closed_poisson(h):
    law = PoissonMean(h)
    for n, got in enumerate(progeny_moment_table(law, 4).moments, 1):
        assert rel_err(got, progeny_moment_closed(law, n)) <= 1e-12


@pytest.mark.parametrize("h,p", [(1, 0.3), (1, 0.7), (2, 0.25), (3, 0.2), (5, 0.15)])
def test_recursion_matches_closed_binomial(h, p):
    law = Binomial(h, p)
    for n, got in enumerate(progeny_moment_table(law, 4).moments, 1):
        assert rel_err(got, progeny_moment_closed(law, n)) <= 1e-12


def test_zero_offspring_degenerate():
    # no offspring at all: Z = 1, every moment is 1
    law = FactorialMoments((0.0,) * 6)
    assert progeny_moment_table(law, 6).moments == (1.0,) * 6
    assert progeny_moment_closed(law, 4) == 1.0


def test_moment_table():
    table = progeny_moment_table(PoissonMean(0.5), 4)
    assert table.n_max == 4
    assert table.moments[0] == 2.0
    assert rel_err(table.moments[3], 832.0) <= 1e-12
    # a shorter table is a prefix of a longer one
    assert progeny_moment_table(PoissonMean(0.5), 2).moments == table.moments[:2]


def test_closed_form_order_limit():
    with pytest.raises(DomainError):
        progeny_moment_closed(PoissonMean(0.5), 5)


def test_high_order_recursion_finite():
    # m_max = 12 is used by the cumulant checks; make sure it stays finite and
    # increasing out to there
    table = progeny_moment_table(PoissonMean(0.9), 12)
    assert all(math.isfinite(v) for v in table.moments)
    assert all(b > a for a, b in zip(table.moments, table.moments[1:]))


def test_order_100_finite_and_increasing():
    table = progeny_moment_table(PoissonMean(0.5), 100)
    assert all(math.isfinite(v) for v in table.moments)
    assert all(b > a for a, b in zip(table.moments, table.moments[1:]))


@pytest.mark.parametrize("law", [PoissonMean(0.9), Binomial(3, 0.3)])
def test_overflow_names_first_order(law):
    # E Z^100 exceeds float64 for both laws, so the table to order 100 raises
    # at the first order past the range; every order below it is finite and
    # increasing
    with pytest.raises(DomainError, match=r"E Z\^\d+ ") as info:
        progeny_moment_table(law, 100)
    first = int(re.search(r"E Z\^(\d+)", str(info.value)).group(1))
    table = progeny_moment_table(law, first - 1)
    assert all(math.isfinite(v) for v in table.moments)
    assert all(b > a for a, b in zip(table.moments, table.moments[1:]))
    # moments are log-convex, so E Z^first >= E Z^(first-1)^2 / E Z^(first-2);
    # that lower bound already overflows, so the error is not premature
    a, b = (math.log(v) for v in table.moments[-2:])
    assert 2.0 * b - a > math.log(sys.float_info.max)


def test_inverse_factorials_stop_where_they_reach_zero(monkeypatch):
    # 1/j! is 0.0 in float64 from j = 178 on, so the recursion takes the
    # factorials of 0..178 for its coefficients and one more per order it
    # reaches: a table asked to order 10000 stops at the float-range error
    # of order 130 after 179 + 130 factorials, not 10001 + 130
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda j: calls.append(j) or factorial(j))
    with pytest.raises(DomainError, match=r"E Z\^130 "):
        progeny_moment_table(PoissonMean(0.5), 10_000)
    assert len(calls) <= 179 + 130
    assert max(calls) <= 178


def test_overflow_is_domain_error():
    with pytest.raises(DomainError, match=r"E Z\^130 "):
        progeny_moment_table(PoissonMean(0.5), 200)
    # no offspring: every E Z^n is 1, but E Z^n / n! underflows past n = 170
    law = FactorialMoments((0.0,) * 200)
    assert progeny_moment_table(law, 170).moments[-1] == 1.0
    with pytest.raises(DomainError, match=r"E Z\^171 "):
        progeny_moment_table(law, 171)


# ---------------------------------------------------------------------------
# property tests: the recursion against its three oracles


poisson_laws = st.builds(PoissonMean, st.floats(0.01, 0.9))
binomial_laws = st.integers(1, 6).flatmap(
    lambda h: st.builds(Binomial, st.just(h), st.floats(0.01, 0.9 / h))
)
factorial_laws = st.builds(
    lambda first, rest: FactorialMoments((first,) + tuple(rest)),
    st.floats(0.0, 0.9),
    st.lists(st.floats(0.0, 2.0), min_size=11, max_size=11),
)
any_law = st.one_of(poisson_laws, binomial_laws, factorial_laws)


@settings(max_examples=40, deadline=None)
@given(law=any_law, n=st.integers(1, 12))
def test_recursion_matches_composition_oracle(law, n):
    got = progeny_moment_table(law, n).moments
    want = composition_moments(law, n)
    assert all(rel_err(a, b) <= 1e-12 for a, b in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(law=any_law)
def test_recursion_matches_closed_forms(law):
    got = progeny_moment_table(law, 4).moments
    for n in (1, 2, 3, 4):
        assert rel_err(got[n - 1], progeny_moment_closed(law, n)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(law=st.one_of(poisson_laws, binomial_laws), m=st.integers(1, 8))
def test_recursion_matches_pmf_series(law, m):
    series = progeny_moment_series(law, m, 1e-10)
    assert rel_err(series, progeny_moment_table(law, m).moments[-1]) <= 1e-7


# ---------------------------------------------------------------------------
# pmfs


def test_borel_pmf_goldens():
    assert rel_err(PoissonMean(0.5).pmf(1), math.exp(-0.5)) <= 1e-13
    assert rel_err(PoissonMean(0.3).pmf(1), math.exp(-0.3)) <= 1e-13
    # k = 2: e^{-2h} (2h)^1 / 2 = h e^{-2h}
    assert rel_err(PoissonMean(0.5).pmf(2), 0.5 * math.exp(-1.0)) <= 1e-13


def test_consul_pmf_goldens():
    # k = 1: (1-p)^h
    assert rel_err(Binomial(2, 0.25).pmf(1), 0.75 ** 2) <= 1e-13
    assert rel_err(Binomial(3, 0.2).pmf(1), 0.8 ** 3) <= 1e-13
    # h = 1 reduces to the geometric pmf p^{k-1}(1-p)
    for k in (1, 2, 5, 9):
        assert rel_err(Binomial(1, 0.3).pmf(k), 0.3 ** (k - 1) * 0.7) <= 1e-12
    # hand value: (1/2) C(4,1) p (1-p)^3 at p = 0.25
    assert rel_err(Binomial(2, 0.25).pmf(2), 0.2109375) <= 1e-13


@pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_borel_pmf_normalizes(h):
    total = sum(PoissonMean(h).pmf(k) for k in range(1, 3000))
    assert abs(total - 1.0) <= 1e-10


@pytest.mark.parametrize("h,p", [(1, 0.5), (2, 0.3), (3, 0.25), (4, 0.2)])
def test_consul_pmf_normalizes(h, p):
    total = sum(Binomial(h, p).pmf(k) for k in range(1, 3000))
    assert abs(total - 1.0) <= 1e-10


def test_pmf_validation():
    with pytest.raises(DomainError):
        PoissonMean(1.2).pmf(3)
    with pytest.raises(DomainError):
        PoissonMean(0.5).pmf(0)
    with pytest.raises(DomainError):
        Binomial(0, 0.5).pmf(1)
    with pytest.raises(SupercriticalError):
        Binomial(2, 0.5).pmf(1)
    with pytest.raises(DomainError):
        Binomial(2, 0.25).pmf(0)


def test_pmf_near_criticality_raises_like_the_laws():
    with pytest.raises(SupercriticalError):
        PoissonMean(1.0 - 1e-10).pmf(3)
    with pytest.raises(SupercriticalError):
        Binomial(2, 0.5 - 1e-10).pmf(3)


def test_laws_reject_subnormal_parameters():
    # a subnormal q = h e^{1-h} keeps a few bits and can fall below the ratio
    with pytest.raises(DomainError, match="normal float"):
        PoissonMean(1e-323)
    with pytest.raises(DomainError, match="normal float"):
        Binomial(3, 1e-323)
    assert PoissonMean(sys.float_info.min).h == sys.float_info.min


def test_factorial_law_has_no_pmf_members():
    law = FactorialMoments((0.5,))
    with pytest.raises(DomainError, match="no closed pmf"):
        law.pmf(1)
    with pytest.raises(DomainError, match="no closed pmf"):
        law.log_pmf(1)
    with pytest.raises(DomainError, match="no closed pmf"):
        law.pmf_ratio_bound


# The series' certified tail rests on pmf(j+1)/pmf(j) <= q e^{c/k} for all
# j >= k; k = j is the tightest case.  At h = 1 the bound is an equality
# (the pmf is geometric with ratio p), and log-gamma rounding puts the
# computed ratio up to ~1e-11 above it, hence the slack.  Both laws reject
# subnormal parameters, so the draws cover their whole domains.
ratio_laws = st.one_of(
    st.builds(PoissonMean, st.floats(sys.float_info.min, 0.99)),
    st.integers(1, 50).flatmap(
        lambda h: st.builds(Binomial, st.just(h), st.floats(sys.float_info.min, (1.0 - 2e-9) / h))
    ),
)


@settings(max_examples=60, deadline=None)
@given(law=ratio_laws)
def test_pmf_ratio_bound_holds(law):
    q, c = law.pmf_ratio_bound
    log_q = math.log(q)
    for j in range(1, 2001):
        assert law.log_pmf(j + 1) - law.log_pmf(j) <= log_q + c / j + 1e-9, j


# ---------------------------------------------------------------------------
# certified series vs recursion


@pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_series_matches_recursion_poisson(h, m):
    series = progeny_moment_series(PoissonMean(h), m, 1e-10)
    assert rel_err(series, progeny_moment_table(PoissonMean(h), m).moments[-1]) <= 1e-7


@pytest.mark.parametrize("h,p", [(1, 0.3), (1, 0.6), (2, 0.25), (3, 0.2), (4, 0.15)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_series_matches_recursion_binomial(h, p, m):
    law = Binomial(h, p)
    series = progeny_moment_series(law, m, 1e-10)
    assert rel_err(series, progeny_moment_table(law, m).moments[-1]) <= 1e-7


def test_series_geometric_mean():
    # Bernoulli(0.3) offspring: E Z = 1/0.7
    got = progeny_moment_series(Binomial(1, 0.3), 1, 1e-10)
    assert rel_err(got, 1.0 / 0.7) <= 1e-9


def test_series_edge_cases():
    assert progeny_moment_series(PoissonMean(0.5), 0, 1e-10) == 1.0
    with pytest.raises(DomainError):
        progeny_moment_series(FactorialMoments((0.5,)), 2, 1e-10)
    with pytest.raises(DomainError):
        progeny_moment_series(PoissonMean(0.5), 2, 0.0)
    with pytest.raises(DomainError):
        progeny_moment_series(PoissonMean(0.5), -1, 1e-10)


def test_series_that_cannot_certify_fails_before_summing(monkeypatch):
    # q e^{c/K} (1 + 1/K)^3 at K = 2e6 is 1.0000025 for Binomial(3, 0.33333),
    # and the ratio bound only falls with k, so no term could certify the tail
    def no_term(self, k):
        raise AssertionError("summed a term of a series that cannot certify")

    monkeypatch.setattr(Binomial, "log_pmf", no_term)
    with pytest.raises(NoConvergence):
        progeny_moment_series(Binomial(3, 0.33333), 3, 1e-12)


# ---------------------------------------------------------------------------
# certified exponential sums


def exp_sum_direct(nu, m):
    total = 0.0
    for k in range(1, 100000):
        term = math.exp(-nu * k) * k ** (m - 1)
        total += term
        if term < 1e-18 * total and k > 10:
            break
    return total


def test_abel_plana_center_golden():
    cs = abel_plana_bound(1.0, 2)
    assert cs.center == 1.0
    assert rel_err(cs.radius, 0.5209522534684663) <= 1e-13
    # true sum: e^{-1}/(1 - e^{-1})^2
    assert cs.contains(0.9206735942077924)


def test_abel_plana_second_golden():
    cs = abel_plana_bound(2.0, 3)
    assert rel_err(cs.radius, 0.2881610808246933) <= 1e-13
    # true sum: x(1+x)/(1-x)^3 at x = e^{-2}
    assert cs.contains(0.23767962743150492)


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_abel_plana_contains_true_sum(nu, m):
    cs = abel_plana_bound(nu, m)
    true = exp_sum_direct(nu, m)
    assert cs.lower <= true <= cs.upper
    assert cs.center == nu ** (-m) * math.factorial(m - 1)


def test_abel_plana_validation():
    with pytest.raises(DomainError):
        abel_plana_bound(0.0, 2)
    with pytest.raises(DomainError):
        abel_plana_bound(1.0, 1)
    with pytest.raises(DomainError):
        CertifiedSum(1.0, -0.1)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_certified_sum_rejects_a_nan_or_infinite_radius(radius):
    # a NaN radius would make contains() False for every x
    with pytest.raises(DomainError):
        CertifiedSum(1.0, radius)


def test_certified_sum_interval():
    cs = CertifiedSum(2.0, 0.5)
    assert cs.lower == 1.5 and cs.upper == 2.5
    assert cs.contains(2.49) and not cs.contains(2.51)
