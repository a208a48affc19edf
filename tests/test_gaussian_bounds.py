"""Unit tests for the Wasserstein/Kolmogorov bound calculators.

One frozen-value golden per calculator plus the invariances that pin the
formulas down (kernel rescaling, mark rescaling, degenerate cascades).
The 2-D quadrature cross-check of the attenuation integrals lives in the
acceptance suite.
"""
import math

import numpy as np
import pytest
from scipy import integrate

from chaos_bounds import (
    Binomial,
    ConstantMark,
    DivergentIntegral,
    DomainError,
    ExponentialMark,
    KernelMoments,
    PoissonMean,
    Region,
    UniformMark,
    cluster_bounds_for_law,
    cluster_moment_bound,
    compound_cluster_bounds,
    first_chaos_bounds,
    hawkes_binomial_bounds,
    hawkes_poisson_bounds,
    hertzian_integral,
    interference_bounds,
    shotnoise_bounds,
    standardized_kernel_moments,
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
    km = KernelMoments(1.0, 0.1, 0.01)
    r = shotnoise_bounds(km)
    assert r.dw_bound == 0.1
    assert abs(r.dk_bound - 0.4) <= 1e-15
    # rescaling the kernel by c maps (i2, i3, i4) -> (c^2 i2, c^3 i3, c^4 i4)
    # and must leave both bounds unchanged
    for c in (0.5, 3.0):
        rc = shotnoise_bounds(KernelMoments(c ** 2 * 1.0, c ** 3 * 0.1, c ** 4 * 0.01))
        assert np.isclose(rc.dw_bound, r.dw_bound, rtol=1e-12)
        assert np.isclose(rc.dk_bound, r.dk_bound, rtol=1e-12)


def test_standardized_kernel_moments():
    out = dict(standardized_kernel_moments([(2, 4.0), (3, 8.0), (4, 32.0)]))
    assert out[2] == 1.0
    assert out[3] == 1.0  # 8 / 4^{3/2}
    assert out[4] == 2.0  # 32 / 16
    with pytest.raises(DomainError):
        standardized_kernel_moments([(3, 8.0)])


def test_cluster_moment_bound():
    assert cluster_moment_bound(100.0, 8.0, 2.0) == 1600.0
    with pytest.raises(DomainError):
        cluster_moment_bound(-1.0, 8.0, 2.0)


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
    r = hawkes_poisson_bounds(Region(1.0, 1e6), 0.5, UNIT)
    assert abs(r.dw_bound - 0.064) <= 1e-15
    assert abs(r.dk_bound - 0.22084441020371193) <= 1e-12
    assert not r.vacuous
    assert r.inputs["kind"] == "hawkes-poisson"
    assert r.inputs["ez3"] == 64.0 and r.inputs["ez4"] == 832.0


def test_hawkes_binomial_golden():
    # h = 1, p = 0.5: E Z^3 = 26, E Z^4 = 150
    r = hawkes_binomial_bounds(Region(1.0, 1e4), 1, 0.5, UNIT)
    assert np.isclose(r.dw_bound, 26.0 / 100.0, rtol=1e-12)
    assert r.inputs["ez4"] == 150.0


def test_hawkes_small_h_approaches_compound():
    # as h -> 0 the cascade dies instantly and the Hawkes bound approaches the
    # pure compound bound with E Z^m = 1
    flat = compound_cluster_bounds(Region(1.0, 1e4), UNIT, 1.0, 1.0)
    r = hawkes_poisson_bounds(Region(1.0, 1e4), 1e-9, UNIT)
    assert np.isclose(r.dw_bound, flat.dw_bound, rtol=1e-6)
    assert np.isclose(r.dk_bound, flat.dk_bound, rtol=1e-6)


def test_cluster_bounds_for_law_matches_named():
    region = Region(1.0, 1e4)
    a = cluster_bounds_for_law(region, PoissonMean(0.3), ExponentialMark(1.0))
    b = hawkes_poisson_bounds(region, 0.3, ExponentialMark(1.0))
    assert a.dw_bound == b.dw_bound and a.dk_bound == b.dk_bound
    c = cluster_bounds_for_law(region, Binomial(2, 0.25), UNIT)
    d = hawkes_binomial_bounds(region, 2, 0.25, UNIT)
    assert c.dw_bound == d.dw_bound and c.dk_bound == d.dk_bound


def test_bounds_decrease_with_window():
    small = hawkes_poisson_bounds(Region(1.0, 1e2), 0.5, UNIT)
    large = hawkes_poisson_bounds(Region(1.0, 1e6), 0.5, UNIT)
    assert large.dw_bound < small.dw_bound
    assert large.dk_bound < small.dk_bound
    # dw scales exactly like (lam leb)^{-1/2}
    assert np.isclose(small.dw_bound / large.dw_bound, 100.0, rtol=1e-12)


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


def test_interference_golden():
    # lambda = 50, R = 1, alpha = 4, exponential(1) powers
    r = interference_bounds(
        50.0,
        2.0,
        6.0,
        24.0,
        hertzian_integral(1.0, 4.0, 2),
        hertzian_integral(1.0, 4.0, 3),
        hertzian_integral(1.0, 4.0, 4),
    )
    assert abs(r.dw_bound - 0.13192267821378836) <= 1e-14
    assert abs(r.dk_bound - 0.5524694516006106) <= 1e-13
    assert not r.vacuous


def test_interference_power_scale_invariance():
    i2, i3, i4 = (hertzian_integral(1.0, 4.0, m) for m in (2, 3, 4))
    base = interference_bounds(50.0, 2.0, 6.0, 24.0, i2, i3, i4)
    c = 5.0
    scaled = interference_bounds(
        50.0, c ** 2 * 2.0, c ** 3 * 6.0, c ** 4 * 24.0, i2, i3, i4
    )
    assert np.isclose(base.dw_bound, scaled.dw_bound, rtol=1e-12)
    assert np.isclose(base.dk_bound, scaled.dk_bound, rtol=1e-12)


def test_interference_denser_is_closer():
    i2, i3, i4 = (hertzian_integral(1.0, 4.0, m) for m in (2, 3, 4))
    sparse = interference_bounds(5.0, 2.0, 6.0, 24.0, i2, i3, i4)
    dense = interference_bounds(500.0, 2.0, 6.0, 24.0, i2, i3, i4)
    assert dense.dw_bound < sparse.dw_bound
    assert np.isclose(sparse.dw_bound / dense.dw_bound, 10.0, rtol=1e-12)


def test_validation():
    with pytest.raises(DomainError):
        Region(0.0, 1.0)
    with pytest.raises(DomainError):
        Region(1.0, -1.0)
    with pytest.raises(DomainError):
        KernelMoments(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        first_chaos_bounds(-0.1, 0.01)
    with pytest.raises(DomainError):
        compound_cluster_bounds(Region(1.0, 1.0), ConstantMark(0.0), 1.0, 1.0)
    with pytest.raises(DomainError):
        interference_bounds(50.0, 0.0, 6.0, 24.0, 1.0, 1.0, 1.0)


def test_report_serialization():
    d = hawkes_poisson_bounds(Region(1.0, 1e6), 0.5, UNIT).to_dict()
    assert set(d) == {"dw_bound", "dk_bound", "vacuous", "inputs"}
    assert d["inputs"]["mark"] == {"family": "constant", "value": 1.0}
