"""Unit tests for the exact samplers, empirical distances, and verification
drivers.  All randomized tests run under fixed seeds, so they are exact
regressions; statistical gates (4 SE, chi-square at 1e-3) were chosen to hold
with large margin for the frozen seeds."""
import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import solve_ivp

from chaos_bounds import (
    Binomial,
    CapExceeded,
    CenteredGaussianMark,
    ClusterModel,
    ConstantMark,
    CustomAbsMoments,
    DivergentIntegral,
    DomainError,
    ExponentialMark,
    FactorialMoments,
    InterferenceModel,
    PoissonMean,
    delta_poisson,
    dkw_margin,
    empirical_kolmogorov,
    empirical_wasserstein,
    hertzian_integral,
    progeny_moment_table,
    sample_progeny,
    UniformMark,
    verify_bci,
    verify_gaussian_bound,
    verify_moments,
)
from chaos_bounds import simulate
from chaos_bounds.gaussian_bounds import GaussianBoundReport
from chaos_bounds.progeny import factorial_moments
from chaos_bounds.cli import samples_csv_text
from sampler_oracles import (
    interference_by_labels,
    kolmogorov_by_scipy,
    progeny_by_kept_labels,
    wasserstein_by_scipy,
    windows_by_kept_labels,
)

ZERO_OFFSPRING = FactorialMoments((0.0, 0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# model validation


def test_cluster_model_validation():
    with pytest.raises(DomainError):
        ClusterModel(0.0, 1.0, PoissonMean(0.5))
    with pytest.raises(DomainError):
        ClusterModel(1.0, 0.0, PoissonMean(0.5))
    # lam and horizon follow Region's rules, its finite mass lam T included
    with pytest.raises(DomainError):
        ClusterModel(1e300, 1e300, PoissonMean(0.5))
    with pytest.raises(DomainError):
        ClusterModel(1.0, 1.0, FactorialMoments((0.5, 0.1)))
    with pytest.raises(DomainError):
        ClusterModel(1.0, 1.0, PoissonMean(0.5), mark=CustomAbsMoments((1.0, 2.0)))
    with pytest.raises(DomainError):
        ClusterModel(1.0, 1.0, PoissonMean(0.5), delay_rate=0.0)
    with pytest.raises(DomainError, match="unsupported offspring law"):
        ClusterModel(1.0, 1.0, "poisson:0.5")


@pytest.mark.parametrize("law", [PoissonMean(0.5), Binomial(2, 0.25)])
@pytest.mark.parametrize("beta", [1e-300, 1e-170])
def test_window_moments_reject_a_delay_rate_whose_square_underflows(law, beta):
    # r = beta (1 - E P) is positive, but r^2 rounds to 0; this used to raise
    # ZeroDivisionError
    with pytest.raises(DomainError, match=f"delay rate {beta!r} is too small"):
        ClusterModel(1.0, 10.0, law, delay_rate=beta).mean_var()


def test_window_moments_at_a_tiny_delay_rate_whose_square_is_subnormal():
    # beta = 1e-160 leaves r^2 nonzero: no offspring lands inside the window,
    # so the total is Poisson(lam T)
    assert ClusterModel(1.0, 10.0, PoissonMean(0.5), delay_rate=1e-160).mean_var() == (10.0, 10.0)


def test_interference_model_validation():
    with pytest.raises(DivergentIntegral):
        InterferenceModel(1.0, 1.0, 2.0)
    # signed powers are first chaoses too, and the mean is lam E P i1 with the signed E P
    assert InterferenceModel(1.0, 1.0, 4.0, power=CenteredGaussianMark(1.0)).mean_var()[0] == 0.0
    i1 = hertzian_integral(1.0, 4.0, 1)
    assert InterferenceModel(3.0, 1.0, 4.0, power=ConstantMark(-1.0)).mean_var()[0] == -3.0 * i1
    with pytest.raises(DomainError):
        InterferenceModel(1.0, 0.0, 4.0)
    with pytest.raises(DomainError):
        InterferenceModel(1.0, 1.0, 4.0, tail_eps=0.0)


@pytest.mark.parametrize(
    "power", [ConstantMark(0.0), ConstantMark(-0.0), UniformMark(2.0), ExponentialMark(1.0)]
)
def test_interference_model_accepts_nonnegative_powers(power):
    # a nonnegative power's signed mean equals its absolute mean
    assert InterferenceModel(1.0, 1.0, 4.0, power=power).power is power
    assert power.mean == power.abs_moment(1)


def test_interference_model_rejects_a_nan_power():
    with pytest.raises(DomainError, match="constant mark value must be finite"):
        InterferenceModel(1.0, 1.0, 4.0, power=ConstantMark(math.nan))


def _accuracy_target(model):
    """(c, w): the far field beyond rho has certified W1 error c rho^(-alpha),
    and w is the sd of the field beyond rho_eps, where its mean is tail_eps."""
    p1, p2, p3 = (model.power.abs_moment(m) for m in (1, 2, 3))
    lam, R, a = model.lam, model.radius, model.alpha
    rho_eps = max(R, (2.0 * math.pi * lam * p1 / ((a - 2.0) * model.tail_eps)) ** (1.0 / (a - 2.0)))
    w = math.sqrt(2.0 * math.pi * lam * p2 * rho_eps ** (2.0 - 2.0 * a) / (2.0 * a - 2.0))
    return p3 / p2 * (2.0 * a - 2.0) / (3.0 * a - 2.0), w


def test_interference_truncation_radius():
    m = InterferenceModel(50.0, 1.0, 4.0, power=ExponentialMark(1.0), tail_eps=10.0)
    # rho_eps = (2 pi lam E P / ((alpha - 2) tail_eps))^(1/2) = sqrt(5 pi), where the
    # far field's mean is tail_eps; w = sqrt(2 pi lam E P^2 / 6) rho_eps^-3 is the
    # sd beyond it, and rho = (c / w)^(1/4) for c = (E P^3 / E P^2) (6 / 10) = 1.8
    rho_eps = math.sqrt(5.0 * math.pi)
    w = math.sqrt(2.0 * math.pi * 50.0 * 2.0 / 6.0) / rho_eps ** 3
    assert m.truncation_radius == pytest.approx((1.8 / w) ** 0.25, rel=1e-12)
    assert m.truncation_radius == pytest.approx(1.8191, abs=1e-4)
    # the far field's exact mean and variance beyond rho
    rho = m.truncation_radius
    mean, var = m.far_field
    assert mean == pytest.approx(2.0 * math.pi * 50.0 / 2.0 / rho ** 2, rel=1e-12)
    assert var == pytest.approx(2.0 * math.pi * 50.0 * 2.0 / 6.0 / rho ** 6, rel=1e-12)
    # a huge tail_eps never truncates inside the near field
    m = InterferenceModel(1.0, 3.0, 4.0, tail_eps=1e6)
    assert m.truncation_radius == 3.0
    # a zero power has no field to certify
    m = InterferenceModel(1.0, 2.0, 4.0, power=ConstantMark(0.0))
    assert m.truncation_radius == 2.0 and m.far_field == (0.0, 0.0)


@pytest.mark.parametrize("lam", [0.01, 1.0, 5.0, 50.0])
@pytest.mark.parametrize("radius", [1.0, 3.0])
@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
@pytest.mark.parametrize(
    "power", [ConstantMark(1.0), ExponentialMark(1.0), UniformMark(2.0)],
    ids=["const", "exp", "uniform"],
)
def test_truncation_radius_certifies_the_target(lam, radius, alpha, power):
    # the far field's certified W1 error never exceeds the target, rho never
    # drops below R, and a smaller tail_eps never gives a smaller rho; the
    # 1e-12 slack is the rounding of rho = (c / w)^(1/alpha), where the rule
    # is an equality
    last = 0.0
    for eps in (1e6, 10.0, 1.0, 1e-3):
        model = InterferenceModel(lam, radius, alpha, power=power, tail_eps=eps)
        rho = model.truncation_radius
        c, w = _accuracy_target(model)
        assert c * rho ** -alpha <= w * (1.0 + 1e-12)
        assert rho >= radius and rho >= last
        last = rho


# ---------------------------------------------------------------------------
# progeny sampler vs exact pmf


def test_sample_progeny_chi2_borel():
    rng = np.random.default_rng(20240817)
    law = PoissonMean(0.5)
    draws = np.array([sample_progeny(law, rng, 1)[0] for _ in range(5000)])
    kmax = 12
    counts = np.bincount(np.minimum(draws, kmax + 1), minlength=kmax + 2)[1:]
    probs = np.array([PoissonMean(0.5).pmf(k) for k in range(1, kmax + 1)])
    expected = np.append(probs, 1.0 - probs.sum()) * draws.size
    chi2, p = stats.chisquare(counts, expected)
    assert p > 1e-3


def test_sample_progeny_chi2_consul():
    rng = np.random.default_rng(20240818)
    law = Binomial(2, 0.25)
    draws = np.array([sample_progeny(law, rng, 1)[0] for _ in range(5000)])
    kmax = 10
    counts = np.bincount(np.minimum(draws, kmax + 1), minlength=kmax + 2)[1:]
    probs = np.array([Binomial(2, 0.25).pmf(k) for k in range(1, kmax + 1)])
    expected = np.append(probs, 1.0 - probs.sum()) * draws.size
    chi2, p = stats.chisquare(counts, expected)
    assert p > 1e-3


def test_sample_progeny_zero_law():
    rng = np.random.default_rng(0)
    assert sample_progeny(ZERO_OFFSPRING, rng, 1)[0] == 1
    with pytest.raises(DomainError):
        sample_progeny(FactorialMoments((0.5,)), rng, 1)


def test_sample_progeny_cap(monkeypatch):
    # a near-critical cascade with a tiny cap must trip it quickly for some
    # replication; scan a fixed block of seeds so the test is deterministic
    monkeypatch.setattr(simulate, "POPULATION_CAP", 10)
    law = PoissonMean(0.9)
    tripped = False
    for i in range(50):
        try:
            sample_progeny(law, np.random.default_rng([7, i]), 1)
        except CapExceeded:
            tripped = True
            break
    assert tripped


# ---------------------------------------------------------------------------
# window and interference samplers


def test_zero_offspring_window_is_poisson():
    # with no offspring and unit marks the window total is Poisson(lam T)
    model = ClusterModel(2.0, 50.0, ZERO_OFFSPRING)
    rng = np.random.default_rng(99)
    x = np.concatenate([model.sample(rng, 1) for _ in range(2000)])
    mean_se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - 100.0) <= 4.0 * mean_se
    # Poisson variance equals the mean
    var = x.var(ddof=1)
    var_se = var * math.sqrt(2.0 / (x.size - 1))
    assert abs(var - 100.0) <= 4.0 * var_se


def test_hawkes_window_mean():
    # generation g sits at root + Gamma(g, beta), so horizon censoring removes
    # exactly lam sum_g h^g g / beta = lam h / ((1-h)^2 beta) points in
    # expectation (up to e^{-beta T}): E total = lam T/(1-h) - lam h/(1-h)^2
    model = ClusterModel(1.0, 200.0, PoissonMean(0.5))
    rng = np.random.default_rng(4242)
    x = np.concatenate([model.sample(rng, 1) for _ in range(1500)])
    want = 200.0 / 0.5 - 0.5 / 0.25
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - want) <= 4.0 * se


class NoDraws:
    """A generator stand-in that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew {name} before the cap check")


def test_window_cap_trips(monkeypatch):
    # lam T = 1000 expected immigrants and lam pi rho^2 = 9 pi expected points
    # (rho = R at this tail_eps) pass a cap of 10 before the first draw
    monkeypatch.setattr(simulate, "POPULATION_CAP", 10)
    for model in (ClusterModel(1.0, 1000.0, PoissonMean(0.5)), InterferenceModel(1.0, 3.0, 4.0, tail_eps=1e6)):
        with pytest.raises(CapExceeded, match="expected"):
            model.sample(NoDraws(), 1)


_WINDOW = ClusterModel(1.0, 50.0, PoissonMean(0.5))
_FIELD = InterferenceModel(5.0, 1.0, 4.0, power=ExponentialMark(1.0), tail_eps=1.0)


def _cascades(rng, size):
    return sample_progeny(PoissonMean(0.5), rng, size)


@pytest.mark.parametrize("sample, population, first_draw", [
    # unit marks make each total its window's population; the immigrant
    # counts are drawn first
    (_WINDOW.sample, _WINDOW.sample, lambda rng, size: rng.poisson(50.0, size)),
    # a field's point counts are its first draw
    (_FIELD.sample, lambda rng, size: rng.poisson(_FIELD.expected_points, size), None),
    (_cascades, _cascades, None),
], ids=["windows", "fields", "cascades"])
def test_population_cap_is_per_total_within_a_chunk(monkeypatch, sample, population, first_draw):
    # the cap draws nothing, so the same stream gives the same chunk at any cap
    sizes = population(np.random.default_rng(5), 300)
    largest = int(sizes.max())
    # every total at or under the cap, the chunk's population far above it
    assert sizes.sum() > largest
    want = sample(np.random.default_rng(5), 300)
    monkeypatch.setattr(simulate, "POPULATION_CAP", largest)
    np.testing.assert_array_equal(sample(np.random.default_rng(5), 300), want)
    # one total past the cap; for windows through its offspring, since the
    # immigrant counts are all under it
    if first_draw is not None:
        assert first_draw(np.random.default_rng(5), 300).max() < largest - 1
    monkeypatch.setattr(simulate, "POPULATION_CAP", largest - 1)
    with pytest.raises(CapExceeded):
        sample(np.random.default_rng(5), 300)


_LAWS = [PoissonMean(0.5), Binomial(3, 0.2), ZERO_OFFSPRING]


@pytest.mark.parametrize("law", _LAWS, ids=["poisson", "binomial", "zero"])
@pytest.mark.parametrize("horizon, size", [(1e4, 1), (10.0, 500)], ids=["one-long", "many-short"])
def test_window_counts_match_the_kept_labels_kernel(law, horizon, size):
    # unit marks make a window's total its point count, drawn on the
    # model's own stream
    model = ClusterModel(1.0, horizon, law)
    got = model.sample(np.random.default_rng(31), size)
    want = windows_by_kept_labels(model, np.random.default_rng(31), size)
    np.testing.assert_array_equal(got, want)
    assert want.sum() > size * horizon / 2


@pytest.mark.parametrize("law", _LAWS, ids=["poisson", "binomial", "zero"])
def test_progeny_matches_the_kept_labels_kernel(law):
    got = sample_progeny(law, np.random.default_rng(32), 5000)
    want = progeny_by_kept_labels(law, np.random.default_rng(32), 5000)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == np.int64


def _assert_campbell(model, rng):
    """200 fields to a chunk, 50 chunks: the sample mean and variance lie
    within 4 SE of the exact ``mean_var``."""
    x = np.concatenate([model.sample(rng, 200) for _ in range(50)])
    mean, var = model.mean_var()
    got = x.var(ddof=1)
    assert abs(x.mean() - mean) <= 4.0 * math.sqrt(got / x.size)
    fourth = np.mean((x - x.mean()) ** 4)
    assert abs(got - var) <= 4.0 * math.sqrt((fourth - got * got) / x.size)


def test_chunked_fields_match_campbell():
    # the golden field, where rho = 1.056 is barely past R and the field beyond
    # rho carries 18% of the variance: totals that drew only its mean would
    # read ~6.9 against the exact 8.38
    model = InterferenceModel(1.0, 1.0, 4.0, power=ExponentialMark(1.0), tail_eps=10.0)
    var = model.mean_var()[1]
    assert var == pytest.approx(8.3776, abs=1e-4)
    assert model.far_field[1] > 0.18 * var
    rng = np.random.default_rng(203)
    _assert_campbell(model, rng)
    # a signed power: mean lam E P i1 = 0 and variance lam E P^2 i2
    model = InterferenceModel(1.0, 1.0, 4.0, power=CenteredGaussianMark(1.0), tail_eps=10.0)
    assert model.mean_var() == (0.0, pytest.approx(4.0 * math.pi / 3.0, rel=1e-15))
    assert model.far_field[0] == 0.0
    _assert_campbell(model, rng)


@pytest.mark.parametrize("model, size", [
    # 0.40 expected points: most fields of the chunk hold only the far field
    (InterferenceModel(0.01, 3.0, 4.0, tail_eps=1e6), 400),
    (InterferenceModel(5.0, 1.0, 4.0, power=ExponentialMark(1.0), tail_eps=1.0), 200),
    (InterferenceModel(50.0, 1.0, 4.0, power=UniformMark(2.0), tail_eps=10.0), 1),
    # a signed power, whose field beyond rho has mean 0
    (InterferenceModel(50.0, 1.0, 4.0, power=CenteredGaussianMark(1.0), tail_eps=1.0), 20),
])
def test_fields_match_the_label_kernel(model, size):
    got = model.sample(np.random.default_rng(77), size)
    want = interference_by_labels(model, np.random.default_rng(77), size)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    if size == 400:
        counts = np.random.default_rng(77).poisson(model.expected_points, size)
        assert np.count_nonzero(counts == 0) > size // 2


@pytest.mark.parametrize("mark", [ExponentialMark(1.0), UniformMark(2.0), CenteredGaussianMark(1.0)])
def test_window_mark_totals_follow_the_point_counts(monkeypatch, mark):
    # mark totals are drawn last from the windows' point counts, so the same
    # stream gives each window the same count whatever its mark law, and a
    # cap that only counts early changes nothing
    unit = ClusterModel(1.0, 50.0, PoissonMean(0.5))
    counts = unit.sample(np.random.default_rng(5), 300).astype(np.int64)
    model = dataclasses.replace(unit, mark=mark)
    got = model.sample(np.random.default_rng(5), 300)
    rng = np.random.default_rng(5)
    unit.sample(rng, 300)
    np.testing.assert_array_equal(got, mark.total(rng, counts))
    monkeypatch.setattr(simulate, "POPULATION_CAP", int(counts.max()))
    np.testing.assert_array_equal(model.sample(np.random.default_rng(5), 300), got)


def test_marked_window_mean():
    model = ClusterModel(2.0, 50.0, ZERO_OFFSPRING, mark=ExponentialMark(3.0))
    rng = np.random.default_rng(7)
    x = np.concatenate([model.sample(rng, 1) for _ in range(2000)])
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - 300.0) <= 4.0 * se


def test_interference_sampler_campbell():
    model = InterferenceModel(
        50.0, 1.0, 4.0, power=ExponentialMark(1.0), tail_eps=10.0
    )
    rng = np.random.default_rng(31337)
    x = np.concatenate([model.sample(rng, 1) for _ in range(3000)])
    i1 = hertzian_integral(1.0, 4.0, 1)
    want = 50.0 * 1.0 * i1
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - want) <= 4.0 * se


def test_interference_tail_eps_consistency():
    # different truncation radii must give the same distribution up to the
    # far field's certified normal approximation; means agree to MC accuracy
    a = InterferenceModel(50.0, 1.0, 4.0, tail_eps=50.0)
    b = InterferenceModel(50.0, 1.0, 4.0, tail_eps=0.5)
    xa = np.concatenate([a.sample(np.random.default_rng([5, i]), 1) for i in range(2000)])
    xb = np.concatenate([b.sample(np.random.default_rng([6, i]), 1) for i in range(2000)])
    se = math.hypot(xa.std(ddof=1), xb.std(ddof=1)) / math.sqrt(2000)
    assert abs(xa.mean() - xb.mean()) <= 4.0 * se


# ---------------------------------------------------------------------------
# empirical distances (closed forms vs frozen quadrature values)


def test_wasserstein_single_point_goldens():
    assert abs(empirical_wasserstein([0.0]) - 0.7978845608028654) <= 1e-12
    assert abs(empirical_wasserstein([1.0]) - 1.1666309411753726) <= 1e-12
    assert abs(empirical_wasserstein([-1.0]) - 1.1666309411753726) <= 1e-12


def test_wasserstein_two_point_golden():
    # quadrature value, absolute error below 2e-9
    assert abs(empirical_wasserstein([-0.3, 1.7]) - 0.7722135052618656) <= 5e-9


def test_kolmogorov_goldens():
    assert empirical_kolmogorov([0.0]) == 0.5
    assert abs(empirical_kolmogorov([1.0]) - 0.8413447460685429) <= 1e-12


def test_distances_permutation_invariant():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(500)
    y = rng.permutation(x)
    assert empirical_wasserstein(x) == empirical_wasserstein(y)
    assert empirical_kolmogorov(x) == empirical_kolmogorov(y)


def test_large_normal_sample_is_close():
    rng = np.random.default_rng(314159)
    x = rng.standard_normal(10000)
    assert empirical_kolmogorov(x) <= dkw_margin(10000, 0.001)
    assert empirical_wasserstein(x) <= 0.03


def test_distance_validation():
    with pytest.raises(DomainError):
        empirical_kolmogorov([])
    with pytest.raises(DomainError):
        empirical_kolmogorov([math.nan])


def test_single_sample_distances():
    # one point at 0: sup |1{t >= 0} - Phi| = 1/2, and int |.| dt = E|N(0,1)|
    assert empirical_kolmogorov([0.0]) == 0.5
    assert np.isclose(empirical_wasserstein([0.0]), math.sqrt(2.0 / math.pi), rtol=1e-12)


def test_ndtr_matches_scipy():
    # scipy's erfc and the C library's differ by a few ulps on the same
    # argument (2.6e-15 at worst on [-8, 9], near t = -6.6), and by more in
    # the far left tail, where scipy rounds x^2 inside exp(-x^2)
    for lo, hi, rtol in ((-8.0, 9.0, 4e-15), (-37.5, -8.0, 1e-13)):
        t = np.linspace(lo, hi, 200_001)
        np.testing.assert_allclose(simulate._ndtr(t), special.ndtr(t), rtol=rtol, atol=0)


def test_ndtri_matches_scipy_and_the_standard_library():
    p = np.concatenate([
        np.logspace(-300, -1, 30_001),
        np.linspace(0.1, 0.9, 30_001),
        1.0 - np.logspace(-1, -16, 30_001),
    ])
    got = simulate._ndtri(p)
    np.testing.assert_allclose(got, special.ndtri(p), rtol=1e-15, atol=0)
    np.testing.assert_allclose(got, [NormalDist().inv_cdf(q) for q in p], rtol=1e-15, atol=0)


def test_phi_helpers_keep_the_input_shape():
    for f, x, y in ((simulate._ndtr, 0.0, 0.5), (simulate._ndtri, 0.5, 0.0)):
        for arg in (x, np.array(x), np.array([x, x]), np.full((2, 3), x)):
            out = f(arg)
            assert out.dtype == np.float64 and out.shape == np.shape(arg)
            assert np.all(out == y)


@pytest.mark.parametrize("n", [1, 2, 50, 5000, 100_000])
def test_distances_match_the_scipy_kernels(n):
    z = np.random.default_rng(n).standard_normal(n) * 1.3 + 0.2
    assert math.isclose(empirical_kolmogorov(z), kolmogorov_by_scipy(z), rel_tol=1e-12)
    assert math.isclose(empirical_wasserstein(z), wasserstein_by_scipy(z), rel_tol=1e-12)


def test_dkw_margin_values():
    assert abs(dkw_margin(2000, 0.001) - 0.04359157733881077) <= 1e-15
    assert abs(dkw_margin(5000, 0.001) - 0.027569734238004694) <= 1e-15
    assert abs(dkw_margin(10000, 0.001) - 0.019494746035204052) <= 1e-15
    with pytest.raises(DomainError):
        dkw_margin(0, 0.5)
    with pytest.raises(DomainError):
        dkw_margin(100, 1.5)


def test_dkw_margin_frequency():
    # the DKW guarantee P(sup|F_n - Phi| > margin) <= delta, checked as a
    # binomial frequency with a 4-sigma gate at the worst allowed rate
    reps, n = 200, 500
    rng = np.random.default_rng(271828)
    for delta in (0.5, 0.05):
        margin = dkw_margin(n, delta)
        exceed = sum(
            empirical_kolmogorov(rng.standard_normal(n)) > margin
            for _ in range(reps)
        )
        gate = delta + 4.0 * math.sqrt(delta * (1.0 - delta) / reps)
        assert exceed / reps <= gate


# ---------------------------------------------------------------------------
# exact window standardization


def window_moments_ode(model):
    """(mean, variance) of a window total from the t-expansion of
    psi_u = m_M(t) G_P(phi_u), phi_u' = beta (psi_u - phi_u), solved
    numerically: b1, b2 are phi_u's first two t-coefficients, and the mean
    and variance are lam times the integrals of E C_u and E C_u^2."""
    m, g2 = factorial_moments(model.offspring, 2)
    mu1, mu2 = model.mark.mean, model.mark.abs_moment(2)
    beta = model.delay_rate

    def rhs(u, y):
        b1, b2 = y[0], y[1]
        ec = mu1 + m * b1
        ec2 = mu2 + 2.0 * mu1 * m * b1 + m * b2 + g2 * b1 * b1
        return [beta * (ec - b1), beta * (ec2 - b2), ec, ec2]

    sol = solve_ivp(
        rhs, (0.0, model.horizon), [0.0] * 4, method="DOP853", rtol=1e-12, atol=1e-12
    )
    return model.lam * sol.y[2, -1], model.lam * sol.y[3, -1]


ODE_LAWS = {
    "poisson": PoissonMean(0.5),
    "binomial": Binomial(3, 0.2),
    "compound-poisson": ZERO_OFFSPRING,
}
ODE_MARKS = {
    "const": ConstantMark(1.0),
    "const-negative": ConstantMark(-2.0),
    "uniform": UniformMark(2.0),
    "exp": ExponentialMark(1.5),
    "gauss": CenteredGaussianMark(0.7),
}


@pytest.mark.parametrize("law", ODE_LAWS)
@pytest.mark.parametrize("mark", ODE_MARKS)
@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("horizon", [0.1, 10.0, 1e4])
def test_window_standardization_matches_ode(law, mark, beta, horizon):
    model = ClusterModel(1.3, horizon, ODE_LAWS[law], mark=ODE_MARKS[mark], delay_rate=beta)
    mean, var = model.mean_var()
    want_mean, want_var = window_moments_ode(model)
    assert mean == pytest.approx(want_mean, rel=1e-9)  # both 0 for a gauss mark
    assert var == pytest.approx(want_var, rel=1e-9)


def test_window_standardization_closed_values():
    # Poisson(0.5) offspring, T = 50: mean 98, variance 378 (up to e^{-25})
    mean, var = ClusterModel(1.0, 50.0, PoissonMean(0.5)).mean_var()
    assert mean == pytest.approx(98.0, rel=1e-12)
    assert var == pytest.approx(378.0, rel=1e-10)


@pytest.mark.parametrize("model, seed", [
    (ClusterModel(2.0, 20.0, PoissonMean(0.5)), 101),
    (ClusterModel(2.0, 20.0, Binomial(3, 0.2), mark=ExponentialMark(1.0), delay_rate=2.0), 102),
    (ClusterModel(1.0, 10.0, PoissonMean(0.8), mark=CenteredGaussianMark(1.0), delay_rate=0.3), 103),
])
def test_window_standardization_matches_simulation(model, seed):
    # 500 windows to a chunk: a point given another window's label keeps the
    # mean but moves the variance
    rng = np.random.default_rng(seed)
    x = np.concatenate([model.sample(rng, 500) for _ in range(40)])
    mean, exact_var = model.mean_var()
    var = x.var(ddof=1)
    assert abs(x.mean() - mean) <= 4.0 * math.sqrt(var / x.size)
    fourth = np.mean((x - x.mean()) ** 4)
    assert abs(var - exact_var) <= 4.0 * math.sqrt((fourth - var * var) / x.size)


@pytest.mark.parametrize("verify", ["gauss", "bci", "gauss-interference"])
def test_verify_draws_main_pass_streams(verify, monkeypatch):
    # chunk c holds 10 totals drawn by model.sample from default_rng([seed, c]),
    # and the reported samples are those draws standardized with the exact
    # mean and sd; 400 points a chunk makes 10 totals (40 expected points
    # each), so 30 replications take three chunks
    monkeypatch.setattr(simulate, "_CHUNK_POINTS", 400)
    if verify == "gauss-interference":
        model = InterferenceModel(1.0, 1.0, 4.0, tail_eps=0.075)
        report = verify_gaussian_bound(model, 30, seed=17, workers=2)
    else:
        model = ClusterModel(2.0, 10.0, PoissonMean(0.5))
        if verify == "gauss":
            report = verify_gaussian_bound(model, 30, seed=17, workers=2)
        else:
            report = verify_bci(model, 0.0, 5.0, [1.0], 30, seed=17, workers=2)
    std = report.details["standardization"]
    mean, var = model.mean_var()
    assert (std["mean"], std["sd"]) == (mean, math.sqrt(var))
    assert int(400 / model.expected_points) == 10
    want = np.concatenate([model.sample(np.random.default_rng([17, c]), 10) for c in range(3)])
    np.testing.assert_allclose(report.samples * std["sd"] + std["mean"], want, rtol=1e-12, atol=1e-12)


@dataclasses.dataclass(frozen=True)
class NormalScenario:
    """Not a model: a scenario with just the four members the verify driver
    asks for, whose totals are exactly N(0, 1), so its bounds are 0."""

    expected_points: float = 100.0

    def sample(self, rng, size):
        return rng.standard_normal(size)

    def mean_var(self):
        return 0.0, 1.0

    def bounds(self):
        return GaussianBoundReport(dw_bound=0.0, dk_bound=0.0, inputs={"kind": "normal"})


def test_driver_asks_a_scenario_only_for_its_members():
    one = verify_gaussian_bound(NormalScenario(), 2000, seed=11, workers=1)
    two = verify_gaussian_bound(NormalScenario(), 2000, seed=11, workers=2)
    assert np.array_equal(one.samples, two.samples)
    assert one.details == two.details
    assert one.passed and two.passed
    # 2^15 / 100 expected points: 327 totals a chunk, so seven chunks
    want = np.concatenate([
        np.random.default_rng([11, c]).standard_normal(min(327, 2000 - 327 * c)) for c in range(7)
    ])
    np.testing.assert_array_equal(one.samples, want)


def test_chunk_sizes(monkeypatch):
    chunks = []

    def record(sample, chunk, n, seed, workers):
        chunks.append(chunk)
        return np.zeros(n)

    monkeypatch.setattr(simulate, "_replicate", record)

    def chunk_of(scenario):
        simulate._simulate_batch(scenario, 2, 0, 1)
        return chunks.pop()

    # a cascade counts one point, whatever its mean size
    verify_moments(PoissonMean(0.9), 2, seed=0)
    assert chunks.pop() == 2 ** 15
    # lam T / (1 - E P) = 2e4 expected points: one window a chunk
    model = ClusterModel(1.0, 1e4, PoissonMean(0.5))
    assert model.expected_points == 2e4 and chunk_of(model) == 1
    model = ClusterModel(1.0, 1e3, Binomial(3, 0.2))
    assert model.expected_points == pytest.approx(2500.0) and chunk_of(model) == 13  # 2^15 / 2500
    # fewer than one expected point still counts as one
    assert chunk_of(ClusterModel(1e-3, 1.0, PoissonMean(0.5))) == 2 ** 15
    # lam T = 1e308 is finite, but lam T / (1 - E P) is not; this window's
    # variance is not finite either, so a scenario with finite moments
    # carries its point count to the chunk rule
    assert ClusterModel(1e300, 1e8, PoissonMean(0.5)).expected_points == math.inf
    assert chunk_of(NormalScenario(expected_points=math.inf)) == 1
    # lam pi rho^2 = 50 pi 1.819^2 = 519.8 expected points
    model = InterferenceModel(50.0, 1.0, 4.0, power=ExponentialMark(1.0), tail_eps=10.0)
    assert model.expected_points == pytest.approx(519.8, abs=0.01) and chunk_of(model) == 63


def test_worker_pool_is_bounded(monkeypatch):
    # a huge --workers must not ask for a thread per span: the pool is capped
    # at the spans of work and the CPUs (the fake pool starts no thread)
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
    # one chunk a total: chunk c is the c-th draw of stream [0, c]
    def draw(rng, size):
        return rng.random(size)

    serial = simulate._replicate(draw, 1, 50, 0, 1)
    assert np.array_equal(simulate._replicate(draw, 1, 50, 0, 10 ** 6), serial)
    assert np.array_equal(simulate._replicate(draw, 1, 3, 0, 10 ** 6), serial[:3])
    assert pools == [4, 3]
    model = ClusterModel(1.0, 1e4, PoissonMean(0.5))  # one window a chunk
    many = verify_gaussian_bound(model, 20, seed=3, workers=10 ** 6)
    one = verify_gaussian_bound(model, 20, seed=3, workers=1)
    assert pools == [4, 3, 4]
    assert np.array_equal(many.samples, one.samples)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
    assert np.array_equal(simulate._replicate(draw, 1, 50, 0, 10 ** 6), serial)
    assert pools == [4, 3, 4]


# ---------------------------------------------------------------------------
# verification drivers


def test_verify_moments_passes():
    report = verify_moments(PoissonMean(0.5), 20000, seed=5)
    assert report.passed
    assert report.kind == "gw-moments"
    assert len(report.samples) == 20000
    per = report.details["per_moment"]
    assert [row["m"] for row in per] == [1, 2, 3]
    assert all(row["ok"] for row in per)
    assert np.isclose(per[0]["theory"], 2.0)


def test_verify_moments_binomial():
    report = verify_moments(Binomial(2, 0.25), 20000, seed=6)
    assert report.passed
    assert np.isclose(per_theory(report, 2), progeny_moment_table(Binomial(2, 0.25), 2).moments[-1])


def per_theory(report, m):
    for row in report.details["per_moment"]:
        if row["m"] == m:
            return row["theory"]
    raise KeyError(m)


def test_verify_moments_worker_determinism():
    a = verify_moments(PoissonMean(0.5), 10000, seed=5, workers=1)
    b = verify_moments(PoissonMean(0.5), 10000, seed=5, workers=3)
    assert np.array_equal(a.samples, b.samples)
    assert a.details == b.details


def test_verify_moments_false_fail_rate():
    # 200 draws of Poisson(0.5) over 400 seeds: the 4-se gate fails 2 of them
    # at the exact standard errors (Z^3 is skewed, so more than a Gaussian
    # 1/16000), where plug-in standard errors failed 36
    failures = sum(not verify_moments(PoissonMean(0.5), 200, seed=s).passed for s in range(400))
    assert failures <= 8


@dataclasses.dataclass(frozen=True)
class OneChildWithProbability:
    """A law with only a mean, factorial moments and a generation step: one
    child with probability q, else none."""

    q: float

    @property
    def mean(self) -> float:
        return self.q

    def factorial_moments(self, n: int) -> list:
        return [self.q] + [0.0] * (n - 1)

    def next_generation(self, rng, n: int) -> np.ndarray:
        return np.flatnonzero(rng.random(n) < self.q)


def test_a_law_needs_only_its_mean_factorial_moments_and_generation_step():
    law = OneChildWithProbability(0.3)
    table = progeny_moment_table(law, 2)
    assert table.moments == progeny_moment_table(Binomial(1, 0.3), 2).moments
    draws = sample_progeny(law, np.random.default_rng(1), 20000)
    ez, ez2 = table.moments
    assert abs(draws.mean() - ez) <= 4.0 * math.sqrt((ez2 - ez * ez) / draws.size)


def test_only_the_all_zero_factorial_law_samples():
    law = FactorialMoments((0.5, 0.1))
    message = "a bare factorial-moment sequence has no sampler"
    with pytest.raises(DomainError, match=message):
        ClusterModel(1.0, 1.0, law)
    with pytest.raises(DomainError, match=message):
        sample_progeny(law, np.random.default_rng(0), 1)
    assert sample_progeny(FactorialMoments((0.0,)), np.random.default_rng(0), 1)[0] == 1


def test_verify_gaussian_bound_compound_poisson():
    model = ClusterModel(1.0, 1000.0, ZERO_OFFSPRING)
    report = verify_gaussian_bound(model, 500, seed=5)
    assert report.passed
    d = report.details
    assert d["standardization"]["kind"] == "analytic"
    assert d["standardization"]["mean"] == pytest.approx(1000.0, rel=1e-12)
    assert d["standardization"]["sd"] == pytest.approx(math.sqrt(1000.0), rel=1e-12)
    assert len(report.samples) == 500
    assert d["dk_margin"] == dkw_margin(500, 0.001)


def test_verify_gaussian_bound_worker_determinism():
    model = ClusterModel(1.0, 500.0, PoissonMean(0.3))
    a = verify_gaussian_bound(model, 300, seed=9, workers=1)
    b = verify_gaussian_bound(model, 300, seed=9, workers=4)
    assert np.array_equal(a.samples, b.samples)
    assert a.details == b.details


def test_verify_gaussian_bound_interference():
    model = InterferenceModel(
        50.0, 1.0, 4.0, power=ExponentialMark(1.0), tail_eps=10.0
    )
    report = verify_gaussian_bound(model, 1000, seed=5)
    assert report.passed
    std = report.details["standardization"]
    assert std["kind"] == "analytic"
    assert np.isclose(std["mean"], 100.0 * math.pi, rtol=1e-12)
    assert np.isclose(std["sd"], math.sqrt(400.0 * math.pi / 3.0), rtol=1e-12)


def test_verify_gaussian_bound_degenerate_sd():
    # an (almost surely) empty window still has exact variance lam T E M^2
    model = ClusterModel(1e-7, 1.0, ZERO_OFFSPRING)
    report = verify_gaussian_bound(model, 10, seed=5)
    assert report.details["standardization"]["sd"] == pytest.approx(math.sqrt(1e-7), rel=1e-12)
    # a zero mark has exact variance 0, and nothing can be standardized
    model = ClusterModel(1.0, 10.0, PoissonMean(0.5), mark=ConstantMark(0.0))
    assert model.mean_var() == (0.0, 0.0)
    with pytest.raises(DomainError):
        verify_gaussian_bound(model, 10, seed=5)


def test_verify_bci_passes_and_fails():
    model = ClusterModel(1.0, 1000.0, PoissonMean(0.5))
    # delta calibrated to the window: both tails and cumulant growth pass
    good = delta_poisson(0.5, 1000.0).delta
    report = verify_bci(model, 0.0, good, [0.0, 1.0, 2.0, 3.0], 400, seed=21)
    assert report.passed
    assert report.details["cumulant"]["all_pass"]
    # a wildly inflated delta flunks the cumulant condition at order 3
    report = verify_bci(model, 0.0, good * 1e6, [0.0, 1.0, 2.0], 400, seed=21)
    assert not report.passed
    assert report.details["cumulant"]["first_fail"] == 3


def test_verify_bci_tail_rows():
    model = ClusterModel(1.0, 500.0, PoissonMean(0.3))
    report = verify_bci(model, 0.0, 5.0, [0.0, 4.0], 300, seed=3)
    rows = report.details["tails"]
    assert rows[0]["x"] == 0.0
    # bound at x = 0 is 2, never informative
    assert rows[0]["checked"] is False and rows[0]["ok"] is True
    # bci(0, 5, 4): quadratic regime wins, 2 e^{-2}
    assert rows[1]["bound"] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)


def test_verify_bci_worker_determinism():
    model = ClusterModel(1.0, 500.0, PoissonMean(0.3))
    a = verify_bci(model, 0.0, 5.0, [1.0, 2.0], 300, seed=3, workers=1)
    b = verify_bci(model, 0.0, 5.0, [1.0, 2.0], 300, seed=3, workers=5)
    assert np.array_equal(a.samples, b.samples)
    assert a.details == b.details


def test_verify_bci_validation():
    model = ClusterModel(1.0, 100.0, PoissonMean(0.3))
    with pytest.raises(DomainError):
        verify_bci(model, 0.0, 1.0, [], 100, seed=0)
    with pytest.raises(DomainError):
        verify_bci(model, 0.0, 1.0, [-1.0], 100, seed=0)
    with pytest.raises(DomainError):
        verify_bci(model, 0.0, 1.0, [math.nan], 100, seed=0)
    with pytest.raises(DomainError):
        verify_bci(InterferenceModel(1.0, 1.0, 4.0), 0.0, 1.0, [1.0], 100, seed=0)


def test_verification_report_excludes_samples():
    report = verify_moments(PoissonMean(0.3), 100, seed=1)
    d = report.to_dict()
    assert set(d) == {"kind", "passed", "details"}


# ---------------------------------------------------------------------------
# CSV export


def test_samples_csv_roundtrip():
    samples = np.array([1.0, 2.5, -0.125, 1e-17])
    text = samples_csv_text(samples)
    lines = text.strip().split("\n")
    assert lines[0] == "seed_index,value"
    assert lines[1] == "0,1.0"
    parsed = [float(line.split(",")[1]) for line in lines[1:]]
    assert parsed == samples.tolist()
