"""Unit tests for concentration parameters, tail bounds, and the insurance
corollaries.  Branch goldens were recomputed independently before freezing."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_bounds import (
    CenteredGaussianMark,
    ConstantMark,
    CustomAbsMoments,
    DomainError,
    EmptyInterval,
    ExponentialMark,
    InsufficientMoments,
    PoissonMean,
    RegimeError,
    UniformMark,
    UnknownFamily,
    bci_bound,
    check_cumulant_condition,
    delta_binomial,
    delta_poisson,
    insurance_tail_report,
    mark_abs_moments,
    mdp_rate_inf,
    nacc_window,
    progeny_moment_table,
    total_loss_interval,
    verify_mark_gamma,
)


# ---------------------------------------------------------------------------
# gamma per mark family


def test_mark_gamma_families():
    assert ConstantMark(2.0).gamma == 0.0
    assert CenteredGaussianMark(1.0).gamma == 0.5
    assert UniformMark(1.0).gamma == 1.0
    assert ExponentialMark(1.0).gamma == 1.0
    with pytest.raises(UnknownFamily):
        CustomAbsMoments((1.0, 2.0)).gamma


NAMED_MARKS = [ConstantMark(-3.0), CenteredGaussianMark(2.0), UniformMark(5.0), ExponentialMark(0.5)]


@pytest.mark.parametrize("mark", NAMED_MARKS, ids=lambda mark: type(mark).__name__)
def test_each_mark_meets_its_own_gamma(mark):
    moments = mark_abs_moments(mark, 40)
    assert verify_mark_gamma(moments, mark.gamma, 40) == (True, None)
    if mark.gamma > 0:  # every non-constant family grows faster than gamma = 0
        ok, first = verify_mark_gamma(moments, 0.0, 40)
        assert not ok and first is not None


def test_verify_mark_gamma_exponential():
    # E M^m = m! mean^m meets (m!)^1 (E M^2)^{m/2} since 2^{m/2} >= 1... with
    # mean = 1: m! <= m! * 2^{m/2}
    moments = mark_abs_moments(ExponentialMark(1.0), 20)
    ok, first = verify_mark_gamma(moments, 1.0, 20)
    assert ok and first is None
    # gamma = 0 fails immediately: 6 > 2^{3/2}
    ok, first = verify_mark_gamma(moments, 0.0, 20)
    assert not ok and first == 3


def test_verify_mark_gamma_constant():
    # |c|^m = (c^2)^{m/2} exactly; the 1e-12 slack keeps ties passing
    moments = mark_abs_moments(ConstantMark(3.0), 12)
    ok, first = verify_mark_gamma(moments, 0.0, 12)
    assert ok and first is None


def test_verify_mark_gamma_gaussian():
    moments = mark_abs_moments(CenteredGaussianMark(2.0), 16)
    ok, _ = verify_mark_gamma(moments, 0.5, 16)
    assert ok
    ok, first = verify_mark_gamma(moments, 0.0, 16)
    assert not ok and first is not None


def test_verify_mark_gamma_skips_a_zero_moment():
    # log(0) is never taken: a zero moment meets any bound
    assert verify_mark_gamma([1.0, 1.0, 0.0], 0.0, 3) == (True, None)


def test_verify_mark_gamma_validation():
    with pytest.raises(DomainError):
        verify_mark_gamma([1.0, 1.0, 1.0], -0.5, 3)
    with pytest.raises(DomainError):
        verify_mark_gamma([1.0, 1.0, 1.0], math.nan, 3)
    with pytest.raises(DomainError):
        verify_mark_gamma([1.0, 1.0], 0.0, 2)
    with pytest.raises(InsufficientMoments):
        verify_mark_gamma([1.0, 1.0], 0.0, 3)
    with pytest.raises(DomainError):
        verify_mark_gamma([1.0, 0.0, 1.0], 0.0, 3)


# ---------------------------------------------------------------------------
# delta calibrations


def test_delta_poisson_branches():
    # h = 0.5: nu = log 2 - 1/2 < 1, cubic branch
    params = delta_poisson(0.5, 1e4)
    assert params.case_label == "(ii)"
    assert abs(params.delta - 0.3602758265793161) <= 1e-12
    # h = 0.1: nu = 0.1 - 1 + log 10 > 1, plain branch: delta = h sqrt(ll)
    params = delta_poisson(0.1, 100.0)
    assert params.case_label == "(i)"
    assert params.delta == 1.0
    params = delta_poisson(0.15, 1e4)
    assert params.case_label == "(i)"
    assert abs(params.delta - 15.0) <= 1e-12


def test_delta_poisson_scaling():
    # both branches are exactly sqrt(lambda_leb)-homogeneous
    for h in (0.1, 0.5, 0.9):
        d1 = delta_poisson(h, 100.0).delta
        d2 = delta_poisson(h, 400.0).delta
        assert np.isclose(d2, 2.0 * d1, rtol=1e-12)


def test_delta_poisson_gamma_passthrough():
    assert delta_poisson(0.5, 100.0, gamma=1.0).gamma == 1.0
    assert delta_poisson(0.5, 100.0).gamma == 0.0


def test_delta_binomial_branch_goldens():
    cases = [
        ((1, 0.3, 100.0), 4.081632653061225, "(i)1"),
        ((1, 0.5, 100.0), 2.1984295103150804, "(i)2"),
        ((2, 0.1, 100.0), 1.643067790070315, "(ii)1"),
        ((2, 0.25, 1e4), 0.761479934184997, "(ii)2"),
    ]
    for args, want, label in cases:
        params = delta_binomial(*args)
        assert params.case_label == label
        assert abs(params.delta - want) <= 1e-12 * max(1.0, want)


def test_delta_binomial_scaling():
    for h, p in [(1, 0.3), (1, 0.5), (2, 0.1), (3, 0.25)]:
        d1 = delta_binomial(h, p, 100.0).delta
        d2 = delta_binomial(h, p, 900.0).delta
        assert np.isclose(d2, 3.0 * d1, rtol=1e-12)


def test_delta_validation():
    with pytest.raises(DomainError):
        delta_poisson(0.5, 0.0)
    with pytest.raises(DomainError):
        delta_poisson(1.5, 100.0)
    with pytest.raises(DomainError):
        delta_binomial(2, 0.6, 100.0)


# ---------------------------------------------------------------------------
# the two-regime tail bound


def test_bci_goldens():
    assert abs(bci_bound(0.0, 100.0, 10.0) - 7.453306344157342e-06) <= 1e-18
    assert abs(bci_bound(1.0, 4.0, 8.0) - 0.4862334688684284) <= 1e-14
    # x = 0 gives the vacuous constant 2 regardless of the parameters
    assert bci_bound(0.0, 123.0, 0.0) == 2.0
    assert bci_bound(2.0, 0.01, 0.0) == 2.0


def test_bci_monotone_in_x():
    # strictly decreasing once x is past the quadratic-regime kink
    for gamma, delta in [(0.0, 100.0), (1.0, 4.0), (0.5, 16.0)]:
        lo = math.sqrt(2.0 ** (1.0 + gamma))
        xs = np.linspace(lo, lo + 20.0, 50)
        vals = [bci_bound(gamma, delta, float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_bci_monotone_in_delta():
    # a larger delta never loosens the bound
    for x in (0.5, 2.0, 8.0):
        v1 = bci_bound(0.0, 1.0, x)
        v2 = bci_bound(0.0, 100.0, x)
        assert v2 <= v1


def test_bci_validation():
    with pytest.raises(DomainError):
        bci_bound(-0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        bci_bound(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        bci_bound(0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# cumulant growth condition


def test_cumulant_condition_trivial_passes():
    # unit marks, no cascade: lhs = (lam leb)^{-(m-2)/2}, tiny against
    # (m!)/delta^{m-2} with delta = 1
    report = check_cumulant_condition(
        [1.0] * 12, [1.0] * 12, 1e4, 0.0, 1.0, 12
    )
    assert report.all_pass and report.first_fail is None
    assert report.m_checked == (3, 12)
    assert [row["m"] for row in report.per_m] == list(range(3, 13))
    # a zero moment makes its order's lhs 0, which passes
    report = check_cumulant_condition([1.0, 1.0, 0.0], [1.0] * 3, 1e4, 0.0, 1.0, 3)
    assert report.all_pass and report.per_m[0]["pass"] and report.per_m[0]["lhs"] == 0.0


def test_cumulant_condition_hawkes_golden():
    # the criterion-8 style scenario at its calibrated delta passes every order
    table = progeny_moment_table(PoissonMean(0.5), 12).moments
    delta = delta_poisson(0.5, 1e4).delta
    report = check_cumulant_condition(
        mark_abs_moments(ConstantMark(1.0), 12), table, 1e4, 0.0, delta, 12
    )
    assert report.all_pass
    # order 3 lhs is E Z^3 / sqrt(lam leb) = 64/100
    assert np.isclose(report.per_m[0]["lhs"], 0.64, rtol=1e-10)
    # inflating delta far enough breaks order 3 first
    report = check_cumulant_condition(
        mark_abs_moments(ConstantMark(1.0), 12), table, 1e4, 0.0, 1000.0, 12
    )
    assert not report.all_pass and report.first_fail == 3
    assert report.per_m[0]["pass"] is False


def test_cumulant_condition_validation():
    with pytest.raises(DomainError):
        check_cumulant_condition([1.0] * 4, [1.0] * 4, 100.0, 0.0, 1.0, 2)
    with pytest.raises(InsufficientMoments):
        check_cumulant_condition([1.0] * 4, [1.0] * 4, 100.0, 0.0, 1.0, 6)
    with pytest.raises(DomainError):
        check_cumulant_condition([1.0, 0.0, 1.0], [1.0] * 3, 100.0, 0.0, 1.0, 3)
    with pytest.raises(DomainError, match="order-3 moments must be >= 0"):
        check_cumulant_condition([1.0, 1.0, -1.0], [1.0, 1.0, 1.0], 100.0, 0.0, 1.0, 3)


# ---------------------------------------------------------------------------
# windows and rates


def test_nacc_window_goldens():
    assert nacc_window(0.0, 100.0, 1.0) == (0.0, 100.0)
    lo, hi = nacc_window(1.0, 64.0, 1.0)
    assert lo == 0.0 and abs(hi - 4.0) <= 1e-12  # 64^{1/3}
    lo, hi = nacc_window(0.5, 16.0, 0.5)
    assert abs(hi - 2.0) <= 1e-12  # 0.5 * 16^{1/2}
    with pytest.raises(DomainError):
        nacc_window(0.0, 100.0, 0.0)


def test_mdp_rate_inf():
    assert mdp_rate_inf((1.0, 2.0)) == 0.5
    assert mdp_rate_inf((-1.0, 2.0)) == 0.0
    assert mdp_rate_inf((-3.0, -2.0)) == 2.0
    assert mdp_rate_inf((0.0, 5.0)) == 0.0
    assert mdp_rate_inf((2.0, math.inf)) == 2.0
    assert mdp_rate_inf((-math.inf, -4.0)) == 8.0
    assert mdp_rate_inf((-math.inf, math.inf)) == 0.0
    with pytest.raises(EmptyInterval):
        mdp_rate_inf((2.0, 1.0))
    with pytest.raises(DomainError):
        mdp_rate_inf((math.nan, 1.0))


# ---------------------------------------------------------------------------
# insurance corollaries


def test_insurance_threshold_exact():
    report = insurance_tail_report(1.0, 0.5, 1.0, 64.0, 2.0)
    assert report.t_threshold == 64.0
    assert report.simplified is True
    # at T = threshold both exponents coincide at 4, bound = 2 e^{-1}
    assert abs(report.linear_exponent - 4.0) <= 1e-12
    assert abs(report.sqrt_exponent - 4.0) <= 1e-12
    assert abs(report.bound - 2.0 * math.exp(-1.0)) <= 1e-12
    assert report.vacuous is False


def test_insurance_continuity_at_threshold():
    # the two regimes agree at the switch point
    for lam, h, k in [(1.0, 0.5, 2.0), (2.0, 0.3, 1.5), (0.5, 0.7, 3.0)]:
        t = insurance_tail_report(lam, h, 1.0, 1.0, k).t_threshold
        r = insurance_tail_report(lam, h, 1.0, t, k)
        assert abs(r.linear_exponent - r.sqrt_exponent) <= 1e-9 * r.sqrt_exponent


def test_insurance_bound_decreases_with_horizon():
    bounds = [
        insurance_tail_report(1.0, 0.5, 1.0, T, 2.0).bound
        for T in (1.0, 16.0, 64.0, 256.0, 4096.0)
    ]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))


def test_insurance_regime_flag_and_strict():
    # h = 0.5 sits outside nu >= 1; reported, and strict mode raises
    r = insurance_tail_report(1.0, 0.5, 1.0, 64.0, 2.0)
    assert r.regime_ok is False
    with pytest.raises(RegimeError):
        insurance_tail_report(1.0, 0.5, 1.0, 64.0, 2.0, strict=True)
    # h = 0.1 is inside: nu = 0.1 - 1 + log 10 > 1
    r = insurance_tail_report(1.0, 0.1, 1.0, 64.0, 2.0, strict=True)
    assert r.regime_ok is True


def test_insurance_vacuous_small_horizon():
    r = insurance_tail_report(1.0, 0.5, 1.0, 0.01, 1.1)
    assert r.bound > 1.0 and r.vacuous


def test_insurance_validation():
    with pytest.raises(DomainError):
        insurance_tail_report(1.0, 0.5, 1.0, 64.0, 1.0)
    with pytest.raises(DomainError):
        insurance_tail_report(1.0, 1.5, 1.0, 64.0, 2.0)
    with pytest.raises(DomainError):
        insurance_tail_report(0.0, 0.5, 1.0, 64.0, 2.0)


def test_total_loss_goldens():
    r = total_loss_interval(1.0, 0.5, 1.0, 1e4, 4.0)
    assert r.center == 20000.0
    assert abs(r.half_width - 1600.0) <= 1e-9
    assert r.lower == r.center - r.half_width
    assert abs(r.prob_lower_bound - 0.26424111765711533) <= 1e-12
    assert r.vacuous is False
    r = total_loss_interval(1.0, 0.5, 1.0, 1e4, 10.0)
    assert abs(r.prob_lower_bound - 0.9925312136520386) <= 1e-12


def test_total_loss_zero_x_vacuous():
    r = total_loss_interval(1.0, 0.5, 1.0, 1e4, 0.0)
    assert r.half_width == 0.0
    assert r.prob_lower_bound == -1.0
    assert r.vacuous is True


def test_total_loss_strict_regime():
    with pytest.raises(RegimeError):
        total_loss_interval(1.0, 0.5, 1.0, 1e4, 4.0, strict=True)
    r = total_loss_interval(1.0, 0.1, 1.0, 1e4, 4.0, strict=True)
    assert r.regime_ok is True


def test_regime_slack_invariant():
    # the calibration constant stays bounded across the whole subcritical
    # range: h (h - 1 - log h)^2 <= 8/9 on (0, 1)
    xs = np.linspace(1e-6, 1.0 - 1e-6, 10001)
    vals = xs * (xs - 1.0 - np.log(xs)) ** 2
    assert float(vals.max()) <= 8.0 / 9.0


def test_reports_serialize():
    d = delta_poisson(0.5, 1e4).to_dict()
    assert set(d) == {"gamma", "delta", "case_label"}
    d = insurance_tail_report(1.0, 0.5, 1.0, 64.0, 2.0).to_dict()
    assert d["t_threshold"] == 64.0
    d = total_loss_interval(1.0, 0.5, 1.0, 1e4, 4.0).to_dict()
    assert "prob_lower_bound" in d and "half_width" in d
    d = check_cumulant_condition([1.0] * 4, [1.0] * 4, 100.0, 0.0, 1.0, 4).to_dict()
    assert d["m_checked"] == [3, 4]


# ---------------------------------------------------------------------------
# invariances the docstrings promise

rates = st.floats(1e-3, 1e3)
branching = st.floats(0.01, 0.99)
horizons = st.floats(1e-2, 1e4)
mark_means = st.floats(1e-3, 1e3)
gammas = st.floats(0.0, 3.0)
deltas = st.floats(1e-6, 1e6)


@settings(max_examples=100, deadline=None)
@given(lam=rates, h=branching, T=horizons, k=st.floats(1.01, 100.0), mu=mark_means, mu2=mark_means)
def test_insurance_report_ignores_mark_scale(lam, h, T, k, mu, mu2):
    # mu_mean cancels from the standardized deviation: only the echo differs
    a = insurance_tail_report(lam, h, mu, T, k)
    b = insurance_tail_report(lam, h, mu2, T, k)
    assert b.inputs == dict(a.inputs, mu_mean=mu2)
    assert dataclasses.replace(b, inputs=a.inputs) == a


@settings(max_examples=100, deadline=None)
@given(lam=rates, h=branching, T=horizons, x=st.floats(0.0, 20.0), mu=mark_means, c=mark_means)
def test_total_loss_interval_scales_with_mark_mean(lam, h, T, x, mu, c):
    a = total_loss_interval(lam, h, mu, T, x)
    b = total_loss_interval(lam, h, c * mu, T, x)
    assert b.center == pytest.approx(c * a.center, rel=1e-12)
    assert b.half_width == pytest.approx(c * a.half_width, rel=1e-12)
    # lower = center - half_width can cancel, so its rounding is relative to
    # the two terms, not to the difference
    scale = 1e-12 * c * (a.center + a.half_width)
    assert abs(b.lower - c * a.lower) <= scale
    assert abs(b.upper - c * a.upper) <= scale
    assert b.prob_lower_bound == a.prob_lower_bound
    assert b.vacuous == a.vacuous


@settings(max_examples=200, deadline=None)
@given(gamma=gammas, delta=deltas, x=st.floats(0.0, 1e3), x2=st.floats(0.0, 1e3))
def test_bci_bound_non_increasing_in_x(gamma, delta, x, x2):
    lo, hi = sorted((x, x2))
    assert bci_bound(gamma, delta, hi) <= bci_bound(gamma, delta, lo)


@settings(max_examples=200, deadline=None)
@given(gamma=gammas, delta=deltas, delta2=deltas, x=st.floats(0.0, 1e3))
def test_bci_bound_non_increasing_in_delta(gamma, delta, delta2, x):
    lo, hi = sorted((delta, delta2))
    assert bci_bound(gamma, hi, x) <= bci_bound(gamma, lo, x)


@settings(max_examples=100, deadline=None)
@given(gamma=gammas, delta=deltas, c0=st.floats(1e-3, 1e3))
def test_nacc_window_proportional_to_c0(gamma, delta, c0):
    lo, hi = nacc_window(gamma, delta, c0)
    assert lo == 0.0
    assert hi == pytest.approx(c0 * nacc_window(gamma, delta, 1.0)[1], rel=1e-12)
