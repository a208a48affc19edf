"""Unit tests for mark laws: closed-form absolute moments and sampling."""
import math

import numpy as np
import pytest

from chaos_bounds import (
    CenteredGaussianMark,
    ConstantMark,
    CustomAbsMoments,
    DomainError,
    ExponentialMark,
    InsufficientMoments,
    UniformMark,
    mark_abs_moments,
)
from chaos_bounds.marks import segment_sums

NAMED_MARKS = (ConstantMark(2.5), UniformMark(2.0), ExponentialMark(0.7), CenteredGaussianMark(1.3))


def test_constant_moments():
    m = ConstantMark(2.0)
    assert [m.abs_moment(k) for k in (1, 2, 3, 4)] == [2.0, 4.0, 8.0, 16.0]
    assert ConstantMark(-3.0).abs_moment(3) == 27.0
    assert ConstantMark(0.0).abs_moment(2) == 0.0


def test_signed_means():
    # E M keeps its sign, where abs_moment(1) is E|M|
    assert ConstantMark(-3.0).mean == -3.0
    assert UniformMark(2.0).mean == 1.0
    assert ExponentialMark(1.5).mean == 1.5
    assert CenteredGaussianMark(0.7).mean == 0.0
    assert CenteredGaussianMark(0.7).abs_moment(1) > 0.0
    for mark in (ConstantMark(-3.0), UniformMark(2.0), CenteredGaussianMark(0.7)):
        draws = mark.sample(np.random.default_rng(8), 40000)
        assert abs(draws.mean() - mark.mean) <= 4.0 * draws.std() / math.sqrt(draws.size) + 1e-12


def test_uniform_moments():
    m = UniformMark(2.0)
    # E M^k = upper^k / (k+1)
    assert [m.abs_moment(k) for k in (1, 2, 3, 4)] == [1.0, 4.0 / 3.0, 2.0, 16.0 / 5.0]


def test_exponential_moments():
    m = ExponentialMark(0.5)
    for k in (1, 2, 3, 4, 6):
        assert m.abs_moment(k) == math.factorial(k) * 0.5 ** k


def test_gaussian_moments():
    m = CenteredGaussianMark(1.0)
    want = [math.sqrt(2.0 / math.pi), 1.0, 2.0 * math.sqrt(2.0 / math.pi), 3.0]
    got = [m.abs_moment(k) for k in (1, 2, 3, 4)]
    assert np.allclose(got, want, rtol=1e-12)
    # scale covariance: E|sigma N|^m = sigma^m E|N|^m
    m2 = CenteredGaussianMark(2.0)
    for k in (1, 2, 3, 4):
        assert np.isclose(m2.abs_moment(k), 2.0 ** k * m.abs_moment(k), rtol=1e-12)


def test_custom_moments():
    m = CustomAbsMoments((1.0, 2.0, 6.0))
    assert m.abs_moment(3) == 6.0
    with pytest.raises(InsufficientMoments):
        m.abs_moment(4)
    with pytest.raises(DomainError):
        m.sample(np.random.default_rng(0), 5)


def test_custom_lyapunov_warning():
    # E|M| = 2 with E M^2 = 1 violates (E|M|)^1 <= (E M^2)^{1/2}
    with pytest.warns(UserWarning):
        CustomAbsMoments((2.0, 1.0))


def test_validation():
    with pytest.raises(DomainError):
        UniformMark(0.0)
    with pytest.raises(DomainError):
        ExponentialMark(-1.0)
    with pytest.raises(DomainError):
        CenteredGaussianMark(0.0)
    with pytest.raises(DomainError):
        CustomAbsMoments((1.0,))
    for moments in ((1.0, -2.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(DomainError, match="absolute moments must be finite and >= 0"):
            CustomAbsMoments(moments)
    with pytest.raises(DomainError):
        ConstantMark(1.0).abs_moment(0)


def test_mark_abs_moments_list():
    got = mark_abs_moments(ExponentialMark(1.0), 5)
    assert got == [math.factorial(k) for k in range(1, 6)]
    assert mark_abs_moments(UniformMark(3.0), 2)[1] == 3.0


def test_sampling_matches_moments():
    rng = np.random.default_rng(1234)
    n = 200000
    for mark in (UniformMark(2.0), ExponentialMark(0.7), CenteredGaussianMark(1.3)):
        x = np.abs(mark.sample(rng, n))
        for k in (1, 2):
            emp = float(np.mean(x ** k))
            se = float(np.std(x ** k, ddof=1)) / math.sqrt(n)
            assert abs(emp - mark.abs_moment(k)) <= 4.0 * se


def test_constant_sampling():
    x = ConstantMark(2.5).sample(np.random.default_rng(0), 7)
    assert x.shape == (7,) and np.all(x == 2.5)


def test_uniform_sampling_range():
    x = UniformMark(1.5).sample(np.random.default_rng(3), 1000)
    assert np.all((x >= 0.0) & (x <= 1.5))


@pytest.mark.parametrize("counts", [
    [0, 3, 1],
    [2, 0, 0, 4],
    [1, 2, 0],
    [0, 0, 0],
    [],
    [5],
])
def test_segment_sums_match_a_loop(counts):
    values = np.random.default_rng(len(counts)).random(sum(counts))
    want, start = [], 0
    for c in counts:
        want.append(float(sum(values[start:start + c])))
        start += c
    got = segment_sums(values, np.array(counts, dtype=np.int64))
    assert got.shape == (len(counts),)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("mark", NAMED_MARKS)
def test_total_of_no_marks_is_zero(mark):
    counts = np.array([0, 0, 3, 0], dtype=np.int64)
    got = mark.total(np.random.default_rng(2), counts)
    assert got.shape == (4,)
    assert [got[0], got[1], got[3]] == [0.0, 0.0, 0.0]


def test_unit_constant_total_is_the_count():
    counts = np.array([0, 1, 7, 300, 12345], dtype=np.int64)
    got = ConstantMark(1.0).total(np.random.default_rng(0), counts)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, counts)


@pytest.mark.parametrize("mark", NAMED_MARKS)
@pytest.mark.parametrize("n", [1, 7, 300])
def test_total_has_the_mean_and_variance_of_a_sum(mark, n):
    # the sum of n iid marks has mean n E M and variance n Var M
    draws = 20000
    x = mark.total(np.random.default_rng([n, 9]), np.full(draws, n, dtype=np.int64))
    mean = n * mark.mean
    var = n * (mark.abs_moment(2) - mark.mean ** 2)
    emp_var = x.var(ddof=1)
    assert abs(x.mean() - mean) <= 4.0 * math.sqrt(emp_var / draws) + 1e-12 * abs(mean)
    fourth = np.mean((x - x.mean()) ** 4)
    assert abs(emp_var - var) <= 4.0 * math.sqrt((fourth - emp_var ** 2) / draws) + 1e-12 * var


def test_custom_total_cannot_be_drawn():
    with pytest.raises(DomainError, match="cannot be sampled"):
        CustomAbsMoments((1.0, 2.0)).total(np.random.default_rng(0), np.array([1]))
