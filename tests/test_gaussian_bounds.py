"""Unit tests for the Wasserstein/Kolmogorov bound calculators.

One frozen-value golden per calculator plus the invariances that pin the
formulas down (kernel rescaling, mark rescaling, degenerate cascades).
The 2-D quadrature cross-check of the attenuation integrals lives in the
acceptance suite.
"""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from chaos_bounds import (
    Binomial,
    CenteredGaussianMark,
    ConstantMark,
    DivergentIntegral,
    DomainError,
    ExponentialMark,
    PoissonMean,
    Region,
    UniformMark,
    cluster_bounds_for_law,
    compound_cluster_bounds,
    first_chaos_bounds,
    hertzian_integral,
    interference_bounds,
    progeny_moment_table,
    shotnoise_bounds,
)

UNIT = ConstantMark(1.0)


def test_first_chaos_goldens():
    r = first_chaos_bounds(0.1, 0.01)
    assert r.dw_bound == 0.1
    # (4 m4 + 2)^{1/4} < 4, so the max sits at 4: dk = 3 * 0.1 + 0.1
    assert abs(r.dk_bound - 0.4) <= 1e-15
    assert not r.vacuous
    r = first_chaos_bounds(0.1, 100.0)
    assert abs(r.dk_bound - 10.323885783692061) <= 1e-12
    assert r.vacuous


def test_shotnoise_golden_and_scale_invariance():
    r = shotnoise_bounds(1.0, 0.1, 0.01)
    assert r.dw_bound == 0.1
    assert abs(r.dk_bound - 0.4) <= 1e-15
    # rescaling the kernel by c maps (i2, i3, i4) -> (c^2 i2, c^3 i3, c^4 i4)
    # and must leave both bounds unchanged
    for c in (0.5, 3.0):
        rc = shotnoise_bounds(c ** 2 * 1.0, c ** 3 * 0.1, c ** 4 * 0.01)
        assert np.isclose(rc.dw_bound, r.dw_bound, rtol=1e-12)
        assert np.isclose(rc.dk_bound, r.dk_bound, rtol=1e-12)


def test_compound_cluster_golden():
    # no cascade (E Z^m = 1), unit marks: dw = 1/sqrt(lam leb), dk with
    # m4 = 1/(lam leb)
    r = compound_cluster_bounds(Region(1.0, 1e4), UNIT, 1.0, 1.0)
    assert r.dw_bound == 0.01
    assert abs(r.dk_bound - 0.04) <= 1e-15


def test_compound_cluster_mark_scale_invariance():
    # M -> cM leaves the standardized dw/dk unchanged
    base = compound_cluster_bounds(Region(2.0, 500.0), UniformMark(1.0), 3.0, 10.0)
    scaled = compound_cluster_bounds(Region(2.0, 500.0), UniformMark(7.0), 3.0, 10.0)
    assert np.isclose(base.dw_bound, scaled.dw_bound, rtol=1e-12)
    assert np.isclose(base.dk_bound, scaled.dk_bound, rtol=1e-12)


def test_hawkes_poisson_golden():
    r = cluster_bounds_for_law(Region(1.0, 1e6), PoissonMean(0.5), UNIT)
    assert abs(r.dw_bound - 0.064) <= 1e-15
    assert abs(r.dk_bound - 0.22084441020371193) <= 1e-12
    assert not r.vacuous
    assert r.inputs["ez3"] == 64.0 and r.inputs["ez4"] == 832.0


def test_hawkes_binomial_golden():
    # h = 1, p = 0.5: E Z^3 = 26, E Z^4 = 150
    r = cluster_bounds_for_law(Region(1.0, 1e4), Binomial(1, 0.5), UNIT)
    assert np.isclose(r.dw_bound, 26.0 / 100.0, rtol=1e-12)
    assert r.inputs["ez4"] == 150.0


def test_hawkes_small_h_approaches_compound():
    # as h -> 0 the cascade dies instantly and the Hawkes bound approaches the
    # pure compound bound with E Z^m = 1
    flat = compound_cluster_bounds(Region(1.0, 1e4), UNIT, 1.0, 1.0)
    r = cluster_bounds_for_law(Region(1.0, 1e4), PoissonMean(1e-9), UNIT)
    assert np.isclose(r.dw_bound, flat.dw_bound, rtol=1e-6)
    assert np.isclose(r.dk_bound, flat.dk_bound, rtol=1e-6)


def test_bounds_decrease_with_window():
    small = cluster_bounds_for_law(Region(1.0, 1e2), PoissonMean(0.5), UNIT)
    large = cluster_bounds_for_law(Region(1.0, 1e6), PoissonMean(0.5), UNIT)
    assert large.dw_bound < small.dw_bound
    assert large.dk_bound < small.dk_bound
    # dw scales exactly like (lam leb)^{-1/2}
    assert np.isclose(small.dw_bound / large.dw_bound, 100.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# property tests: the one cluster bound over random laws, marks and regions

laws = st.one_of(
    st.builds(PoissonMean, st.floats(0.01, 0.9)),
    st.integers(1, 6).flatmap(
        lambda h: st.builds(Binomial, st.just(h), st.floats(0.01, 0.9 / h))
    ),
)
MARK_FAMILIES = (ConstantMark, UniformMark, ExponentialMark, CenteredGaussianMark)
# (family, parameter): the parameter of each family scales with the mark
marks = st.tuples(st.sampled_from(MARK_FAMILIES), st.floats(0.1, 10.0))
regions = st.builds(Region, st.floats(0.01, 100.0), st.floats(1.0, 1e8))
scales = st.floats(1e-3, 1e3)


@settings(max_examples=100, deadline=None)
@given(region=regions, law=laws, mark=marks)
def test_cluster_bounds_for_law_is_compound_cluster_bounds(region, law, mark):
    family, param = mark
    m = family(param)
    _, _, ez3, ez4 = progeny_moment_table(law, 4).moments
    want = compound_cluster_bounds(region, m, ez3, ez4)
    assert cluster_bounds_for_law(region, law, m) == want


@settings(max_examples=100, deadline=None)
@given(region=regions, law=laws, mark=marks, c=scales)
def test_cluster_bounds_mark_scale_invariance(region, law, mark, c):
    family, param = mark
    base = cluster_bounds_for_law(region, law, family(param))
    scaled = cluster_bounds_for_law(region, law, family(c * param))
    assert math.isclose(scaled.dw_bound, base.dw_bound, rel_tol=1e-12)
    assert math.isclose(scaled.dk_bound, base.dk_bound, rel_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(a=regions, b=regions, law=laws, mark=marks)
def test_cluster_bounds_dw_scales_with_window_mass(a, b, law, mark):
    # dw * sqrt(lam |W|) depends on the law and the mark alone
    family, param = mark
    dw_a = cluster_bounds_for_law(a, law, family(param)).dw_bound
    dw_b = cluster_bounds_for_law(b, law, family(param)).dw_bound
    ratio = math.sqrt((b.lam * b.leb) / (a.lam * a.leb))
    assert math.isclose(dw_a / dw_b, ratio, rel_tol=1e-12)


# kernel moments are 0 (a symmetric or degenerate kernel) or normal floats:
# c^m times a subnormal moment is rounded to far fewer than 12 digits, so the
# scaled input would no longer be the exact rescaling the property is about
kernel_moments = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@settings(max_examples=100, deadline=None)
@given(i2=st.floats(1e-3, 1e3), i3=kernel_moments, i4=kernel_moments, c=scales)
def test_shotnoise_kernel_rescaling_invariance(i2, i3, i4, c):
    base = shotnoise_bounds(i2, i3, i4)
    scaled = shotnoise_bounds(c ** 2 * i2, c ** 3 * i3, c ** 4 * i4)
    assert math.isclose(scaled.dw_bound, base.dw_bound, rel_tol=1e-12)
    assert math.isclose(scaled.dk_bound, base.dk_bound, rel_tol=1e-12)


def test_hertzian_integral_closed_form():
    # R = 1, alpha = 4: i_m = pi 4m/(4m-2)
    assert np.isclose(hertzian_integral(1.0, 4.0, 1), 2.0 * math.pi, rtol=1e-15)
    assert np.isclose(hertzian_integral(1.0, 4.0, 2), 4.0 * math.pi / 3.0, rtol=1e-15)
    assert np.isclose(hertzian_integral(1.0, 4.0, 3), 1.2 * math.pi, rtol=1e-15)
    assert np.isclose(hertzian_integral(1.0, 4.0, 4), 8.0 * math.pi / 7.0, rtol=1e-15)
    # numpy integer orders are accepted like Python ints
    assert hertzian_integral(1.0, 4.0, np.int64(2)) == hertzian_integral(1.0, 4.0, 2)


def test_hertzian_integral_radial_quadrature_spot():
    # one radial quadrature spot check; the full 2-D grid runs in acceptance
    R, alpha, m = 0.7, 3.0, 2
    am = alpha * m
    val, _ = integrate.quad(lambda r: 2 * math.pi * r * max(R, r) ** (-am), 0, np.inf)
    assert np.isclose(hertzian_integral(R, alpha, m), val, rtol=1e-9)


def test_hertzian_integral_divergence():
    with pytest.raises(DivergentIntegral):
        hertzian_integral(1.0, 2.0, 1)
    with pytest.raises(DivergentIntegral):
        hertzian_integral(1.0, 1.5, 1)
    with pytest.raises(DomainError):
        hertzian_integral(0.0, 4.0, 1)
    with pytest.raises(DomainError):
        hertzian_integral(1.0, 4.0, 0)
    with pytest.raises(DomainError):
        hertzian_integral(1.0, 4.0, 2.0)
    with pytest.raises(DomainError, match="alpha must be > 1"):
        hertzian_integral(1.0, 1.0, 1)


def test_interference_golden():
    # lambda = 50, R = 1, alpha = 4, exponential(1) powers
    r = interference_bounds(50.0, 1.0, 4.0, ExponentialMark(1.0))
    assert abs(r.dw_bound - 0.13192267821378836) <= 1e-14
    assert abs(r.dk_bound - 0.5524694516006106) <= 1e-13
    assert not r.vacuous


def test_interference_power_scale_invariance():
    base = interference_bounds(50.0, 1.0, 4.0, ExponentialMark(1.0))
    scaled = interference_bounds(50.0, 1.0, 4.0, ExponentialMark(5.0))
    assert np.isclose(base.dw_bound, scaled.dw_bound, rtol=1e-12)
    assert np.isclose(base.dk_bound, scaled.dk_bound, rtol=1e-12)


def test_interference_denser_is_closer():
    sparse = interference_bounds(5.0, 1.0, 4.0, ExponentialMark(1.0))
    dense = interference_bounds(500.0, 1.0, 4.0, ExponentialMark(1.0))
    assert dense.dw_bound < sparse.dw_bound
    assert np.isclose(sparse.dw_bound / dense.dw_bound, 10.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# every calculator is the shot-noise bound of its kernel integrals

powers = st.tuples(st.sampled_from((ConstantMark, UniformMark, ExponentialMark)), st.floats(0.1, 10.0))


def assert_within_4_ulp(got, want):
    # shotnoise_bounds forms lam |W| a_m and lam E P^m i_m where the
    # calculators normalize first, so the two round differently
    tol = 4 * sys.float_info.epsilon
    assert math.isclose(got.dw_bound, want.dw_bound, rel_tol=tol, abs_tol=0.0)
    assert math.isclose(got.dk_bound, want.dk_bound, rel_tol=tol, abs_tol=0.0)


@settings(max_examples=100, deadline=None)
@given(m3=kernel_moments, m4=kernel_moments)
def test_first_chaos_is_shotnoise_of_its_kernel_integrals(m3, m4):
    got = first_chaos_bounds(m3, m4)
    want = shotnoise_bounds(1.0, m3, m4)
    assert (got.dw_bound, got.dk_bound) == (want.dw_bound, want.dk_bound)


@settings(max_examples=100, deadline=None)
@given(region=regions, law=laws, mark=marks)
def test_cluster_bounds_are_shotnoise_of_their_kernel_integrals(region, law, mark):
    family, param = mark
    m = family(param)
    _, _, ez3, ez4 = progeny_moment_table(law, 4).moments
    ll = region.lam * region.leb
    want = shotnoise_bounds(ll * m.abs_moment(2), ll * m.abs_moment(3) * ez3, ll * m.abs_moment(4) * ez4)
    assert_within_4_ulp(cluster_bounds_for_law(region, law, m), want)


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(0.01, 1e3), R=st.floats(0.1, 10.0), alpha=st.floats(2.5, 6.0), power=powers
)
def test_interference_is_shotnoise_of_its_kernel_integrals(lam, R, alpha, power):
    family, param = power
    p = family(param)
    want = shotnoise_bounds(*(lam * p.abs_moment(m) * hertzian_integral(R, alpha, m) for m in (2, 3, 4)))
    assert_within_4_ulp(interference_bounds(lam, R, alpha, p), want)


def test_validation():
    with pytest.raises(DomainError):
        Region(0.0, 1.0)
    with pytest.raises(DomainError):
        Region(1.0, -1.0)
    with pytest.raises(DomainError):
        shotnoise_bounds(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        first_chaos_bounds(-0.1, 0.01)
    with pytest.raises(DomainError):
        compound_cluster_bounds(Region(1.0, 1.0), ConstantMark(0.0), 1.0, 1.0)
    with pytest.raises(DomainError):
        interference_bounds(50.0, 1.0, 4.0, ConstantMark(0.0))
    with pytest.raises(DomainError, match=">= 0"):
        first_chaos_bounds(0.1, math.nan)


def test_report_serialization():
    d = cluster_bounds_for_law(Region(1.0, 1e6), PoissonMean(0.5), UNIT).to_dict()
    assert set(d) == {"dw_bound", "dk_bound", "vacuous", "inputs"}
    assert d["inputs"]["mark"] == {"family": "constant", "value": 1.0}
