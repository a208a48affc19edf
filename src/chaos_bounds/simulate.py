"""Exact Monte Carlo samplers and empirical verification of the bounds.

A scenario, a ``ClusterModel`` window or an ``InterferenceModel`` field, owns
its chunk sampler (``sample``), its expected point count (``expected_points``),
its exact mean and variance (``mean_var``) and its Gaussian bounds
(``bounds``), so ``verify_gaussian_bound`` never asks its type; ``verify_bci``
takes windows only, since its cumulant check reads their offspring and marks.

Cluster windows and progeny cascades are exact: both grow one generation at
a time through the offspring law's own generation step
(``law.next_generation``).  An interference field is drawn exactly inside a
truncation radius rho, and the field beyond rho is one normal draw with its
exact mean and variance, so the total's mean and variance are both exact;
rho is chosen so that the first-chaos bound certifies that normal's W1 error
within the sd of the field beyond the radius where its mean is ``tail_eps``
(``InterferenceModel``).  Every sampler raises ``CapExceeded`` once one
total's population, expected or drawn, passes ``POPULATION_CAP``; windows
and cascades count each generation, and hold the cap, in one step
(``_count``).

Each verify command simulates one pass through one driver, ``_replicate``,
which calls a ``sample(rng, size)`` of the same shape for windows, fields
and cascades (``sample_progeny``), and the Gaussian and tail checks
standardize it exactly (``mean_var``).
A chunk holds ``_CHUNK_POINTS`` cascades, or as many windows or fields as
keep its expected points under ``_CHUNK_POINTS`` (``_simulate_batch``).
A chunk of fields sums its points' signals by segment (``segment_sums``);
a chunk of windows counts each window's points and draws their mark totals
at once (``mark.total``), so neither builds per-point marks with labels.
Determinism: chunk c draws from its own ``default_rng([seed, c])`` stream
and chunks are placed by index, so output is byte-identical for any worker
count.

The empirical distances take Phi and its inverse from the standard library
(``math.erfc`` and ``statistics.NormalDist``), so numpy is the one runtime
dependency.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .deviations import bci_bound, cumulant_condition_for_law
from .errors import CapExceeded, DomainError, check_positive
from .gaussian_bounds import (
    GaussianBoundReport,
    Region,
    cluster_bounds_for_law,
    hertzian_integral,
    interference_bounds,
)
from .marks import ConstantMark, CustomAbsMoments, MarkLaw, segment_sums
from .progeny import (
    Binomial,
    FactorialMoments,
    OffspringLaw,
    PoissonMean,
    progeny_moment_table,
)

_CHUNK_POINTS = 2 ** 15
# the most points one window, field or cascade may hold
POPULATION_CAP = 10 ** 7
_SQRT_HALF = math.sqrt(0.5)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class ClusterModel:
    """Marked cluster process on [0, horizon]: immigrants arrive at rate lam,
    every point spawns offspring per the given law after iid exponential
    delays (rate delay_rate), points past the horizon are censored, and each
    surviving point carries an iid mark.  The observable is the mark total.

    A FactorialMoments offspring law is only simulable in the degenerate
    all-zero case (no offspring at all, i.e. a compound Poisson total).  lam
    and horizon follow the rules of the bounds' ``Region(lam, horizon)``.
    """

    lam: float
    horizon: float
    offspring: OffspringLaw
    mark: MarkLaw = ConstantMark(1.0)
    delay_rate: float = 1.0

    def __post_init__(self):
        Region(self.lam, self.horizon)
        if not isinstance(self.offspring, (PoissonMean, Binomial, FactorialMoments)):
            raise DomainError(f"unsupported offspring law: {self.offspring!r}")
        if isinstance(self.offspring, FactorialMoments):
            self.offspring.check_samplable()
        if isinstance(self.mark, CustomAbsMoments):
            raise DomainError("a moment-only mark law cannot be sampled")
        check_positive("delay_rate", self.delay_rate)

    @property
    def expected_points(self) -> float:
        """lam T / (1 - E P): a window's expected points before censoring."""
        return self.lam * self.horizon / (1.0 - self.offspring.mean)

    def sample(self, rng, size: int) -> np.ndarray:
        """Mark totals of ``size`` independent windows.  Every point carries its
        window's label while the cascades grow.  Draw order is fixed: immigrant
        counts, immigrant times, then per generation (parents, delays), and
        last the windows' mark totals, drawn from their point counts by
        ``mark.total``.

        ``POPULATION_CAP`` bounds each window's population, not the chunk's:
        lam T before any draw, then the immigrant counts, then each generation
        as ``_count`` adds it to the windows' point counts.
        """
        T = self.horizon
        _check_cap(self.lam * T, "a window's expected immigrant count")
        counts = rng.poisson(self.lam * T, size)
        _check_cap(int(counts.max()), "a window's population")
        labels = np.repeat(np.arange(size), counts)
        times = rng.uniform(0.0, T, labels.size)
        points = labels.size
        while times.size:
            parent = self.offspring.next_generation(rng, times.size)
            times = times[parent] + rng.exponential(1.0 / self.delay_rate, parent.size)
            inside = times <= T
            times, labels = times[inside], labels[parent[inside]]
            points = _count(counts, labels, points, "a window's population")
        return self.mark.total(rng, counts)

    def mean_var(self) -> tuple[float, float]:
        """Exact (mean, variance) of a window total.

        The window is a first chaos of the immigrant cascades, with kernel
        C_{T-s} for C_u a cascade's mark total within lag u: its mean and
        variance are lam int_0^T E C_u du and lam int_0^T E C_u^2 du.  With
        delays D ~ exponential(beta), psi_u(t) = E e^{t C_u} = m_M(t) G_P(phi_u)
        for phi_u = E[psi_{u-D}; D <= u] + P(D > u), phi' = beta (psi - phi),
        phi_0 = 1.  Put m = E P, g2 = E P(P-1), mu1 = E M (signed), mu2 = E M^2,
        r = beta (1 - m), A = mu1 / (1 - m), x = e^{-r u}; expand
        phi_u = 1 + b1 t + b2 t^2 / 2.  Order t: b1 = A (1 - x), E C_u = A (1 - m x).
        Order t^2: E C_u^2 = q + m b2, q = mu2 + 2 mu1 m b1 + g2 b1^2
        = c0 + c1 x + c2 x^2, b2' = beta q - r b2, b2(0) = 0.  With e1 = 1 - e^{-rT}
        and e2 = 1 - e^{-2rT}: int E C_u = A (T - m e1 / r), int q = c0 T
        + c1 e1 / r + c2 e2 / (2 r) and int b2 / beta = c0 (T - e1/r) / r
        + (c1 (e1 - rT e^{-rT}) + c2 (e1 - e2/2)) / r^2.
        """
        T, beta = self.horizon, self.delay_rate
        m, g2 = self.offspring.factorial_moments(2)
        mu1, mu2 = self.mark.mean, self.mark.abs_moment(2)
        r, A = beta * (1.0 - m), mu1 / (1.0 - m)
        if r * r == 0.0:
            raise DomainError(f"delay rate {beta!r} is too small: beta^2 (1 - E P)^2 underflows to 0")
        e1, e2 = -math.expm1(-r * T), -math.expm1(-2.0 * r * T)
        c0 = mu2 + 2.0 * mu1 * m * A + g2 * A * A
        c1, c2 = -2.0 * mu1 * m * A - 2.0 * g2 * A * A, g2 * A * A
        int_q = c0 * T + c1 * e1 / r + c2 * e2 / (2.0 * r)
        x_T = math.exp(-r * T)
        int_b2 = c0 * (T - e1 / r) / r + (c1 * (e1 - r * T * x_T) + c2 * (e1 - e2 / 2.0)) / (r * r)
        return self.lam * A * (T - m * e1 / r), self.lam * (int_q + m * beta * int_b2)

    def bounds(self) -> GaussianBoundReport:
        """The paper's (dW, dK) bounds for this window."""
        return cluster_bounds_for_law(Region(self.lam, self.horizon), self.offspring, self.mark)


@dataclass(frozen=True)
class InterferenceModel:
    """Planar interference at the origin: transmitters form a Poisson process
    of intensity lam on R^2, each emits an iid power P of any sign, and the
    received signal decays like max{radius, distance}^(-alpha).

    Simulation draws every transmitter inside ``truncation_radius`` rho
    exactly and the field beyond rho as one normal draw with that field's
    exact mean and variance (``far_field``), so sampled totals have exactly
    ``mean_var``'s mean and variance.  The field beyond rho is a first chaos
    with kernel f = P r^(-alpha), so by the first-chaos bound its W1 distance
    to that normal is at most lam int |f|^3 / (lam int f^2) = c rho^(-alpha),
    c = (E|P|^3 / E P^2) (2 alpha - 2) / (3 alpha - 2).

    tail_eps sets the accuracy target w: the sd of the field beyond rho_eps,
    the radius where that field's absolute mean (the mean with |P| for P) is
    tail_eps, which bounds the W1 error of replacing that field by its mean.
    rho is the least radius >= radius with c rho^(-alpha) <= w, so a smaller
    tail_eps gives a larger rho.
    radius and alpha follow the rules of ``hertzian_integral(radius, alpha,
    1)``, the integral the mean needs, so alpha must exceed 2.
    """

    lam: float
    radius: float
    alpha: float
    power: MarkLaw = ConstantMark(1.0)
    tail_eps: float = 1.0

    def __post_init__(self):
        check_positive("lam", self.lam)
        hertzian_integral(self.radius, self.alpha, 1)
        check_positive("tail_eps", self.tail_eps)
        if isinstance(self.power, CustomAbsMoments):
            raise DomainError("a moment-only power law cannot be sampled")

    @cached_property
    def truncation_radius(self) -> float:
        """rho = max{radius, (c / w)^(1/alpha)}.  With k2 = 2 pi lam E P^2 / (2 alpha
        - 2), w = sqrt(k2) rho_eps^(1 - alpha) is the far field's sd beyond
        rho_eps = max{radius, (2 pi lam E|P| / ((alpha - 2) tail_eps))^(1/(alpha - 2))};
        (c / w)^(1/alpha) is taken as (c / sqrt k2)^(1/alpha) rho_eps^((alpha - 1)
        / alpha), so an underflowing w divides nothing by 0.  A zero power has
        no field: rho = radius."""
        p1, p2, p3 = (self.power.abs_moment(m) for m in (1, 2, 3))
        a, R = self.alpha, self.radius
        if p2 == 0.0:
            return R
        scale = 2.0 * math.pi * self.lam
        rho_eps = max(R, (scale * p1 / ((a - 2.0) * self.tail_eps)) ** (1.0 / (a - 2.0)))
        c = p3 / p2 * (2.0 * a - 2.0) / (3.0 * a - 2.0)
        k2 = scale * p2 / (2.0 * a - 2.0)
        return max(R, (c / math.sqrt(k2)) ** (1.0 / a) * rho_eps ** ((a - 1.0) / a))

    @cached_property
    def far_field(self) -> tuple[float, float]:
        """(mean, variance) of the field beyond rho, by Campbell:
        2 pi lam E P rho^(2 - alpha) / (alpha - 2) and
        2 pi lam E P^2 rho^(2 - 2 alpha) / (2 alpha - 2)."""
        a, rho = self.alpha, self.truncation_radius
        scale = 2.0 * math.pi * self.lam
        return (
            scale * self.power.mean * rho ** (2.0 - a) / (a - 2.0),
            scale * self.power.abs_moment(2) * rho ** (2.0 - 2.0 * a) / (2.0 * a - 2.0),
        )

    @property
    def expected_points(self) -> float:
        """lam pi rho^2: a field's expected transmitters inside rho."""
        return self.lam * math.pi * self.truncation_radius ** 2

    def sample(self, rng, size: int) -> np.ndarray:
        """Interference totals of ``size`` independent fields.  Draw order:
        point counts, radii, powers, then one far-field normal per field;
        field i's points are the i-th run of ``n[i]`` draws.
        ``POPULATION_CAP`` bounds lam pi rho^2 before any draw, then each
        field's count.

        Radial symmetry of the attenuation makes angles irrelevant, so only radii
        are drawn: r^2 = rho^2 U for the disk of truncation radius rho, and the
        attenuation is max{r^2, radius^2}^(-alpha/2).  The arithmetic is done in
        place, so a chunk allocates few point-sized arrays.
        """
        rho = self.truncation_radius
        mean = self.lam * math.pi * rho * rho
        _check_cap(mean, "a field's expected point count")
        n = rng.poisson(mean, size)
        _check_cap(int(n.max()), "a field's point count")
        points = int(n.sum())
        signal = rng.random(points)
        signal *= rho * rho
        np.maximum(signal, self.radius * self.radius, out=signal)
        signal **= -0.5 * self.alpha
        signal *= self.power.sample(rng, points)
        far_mean, far_var = self.far_field
        return segment_sums(signal, n) + rng.normal(far_mean, math.sqrt(far_var), size)

    def mean_var(self) -> tuple[float, float]:
        """Exact (mean, variance) of the untruncated total, by Campbell:
        lam E[P] i1 and lam E[P^2] i2 for the attenuation integrals i1, i2."""
        p, R, a = self.power, self.radius, self.alpha
        return (
            self.lam * p.mean * hertzian_integral(R, a, 1),
            self.lam * p.abs_moment(2) * hertzian_integral(R, a, 2),
        )

    def bounds(self) -> GaussianBoundReport:
        """The paper's (dW, dK) bounds for the untruncated total."""
        return interference_bounds(self.lam, self.radius, self.alpha, self.power)


# ---------------------------------------------------------------------------
# samplers


def _check_cap(population: float, what: str) -> None:
    """Raise CapExceeded if a population, expected or drawn, passes the cap."""
    if population > POPULATION_CAP:
        raise CapExceeded(f"{what} {population} is above the population cap {POPULATION_CAP}")


def _count(counts: np.ndarray, labels: np.ndarray, points: int, what: str) -> int:
    """Add one generation, whose points carry their totals' labels, to the
    per-total ``counts``, and return the chunk's points so far.  No total can
    pass ``POPULATION_CAP`` before the chunk does, so every total is checked
    against it only once the chunk's points have passed it."""
    counts += np.bincount(labels, minlength=counts.size)
    points += labels.size
    if points > POPULATION_CAP:
        _check_cap(int(counts.max()), what)
    return points


def sample_progeny(law: OffspringLaw, rng, size: int) -> np.ndarray:
    """Total-progeny counts (the root included) of ``size`` independent
    cascades.  Every individual carries its cascade's label, and ``_count``
    adds each generation to the cascades' totals and holds the cap."""
    total = np.ones(size, dtype=np.int64)
    labels = np.arange(size)
    points = size
    while labels.size:
        labels = labels[law.next_generation(rng, labels.size)]
        points = _count(total, labels, points, "a cascade's total progeny")
    return total


# ---------------------------------------------------------------------------
# empirical distances


def _sorted_finite(samples) -> np.ndarray:
    z = np.asarray(samples, dtype=float)
    if z.size == 0:
        raise DomainError("need at least one sample")
    if not np.all(np.isfinite(z)):
        raise DomainError("samples must be finite")
    return np.sort(z)


def _elementwise(f, x) -> np.ndarray:
    """f of each element of x, as a float array of x's shape; a map over a
    list of floats calls f at a third of np.frompyfunc's cost per element."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _ndtr(t) -> np.ndarray:
    """Phi(t) = erfc(-t / sqrt 2) / 2, elementwise."""
    return 0.5 * _elementwise(math.erfc, -_SQRT_HALF * np.asarray(t, dtype=float))


def _ndtri(p) -> np.ndarray:
    """Phi^{-1}(p), elementwise, by NormalDist (Wichura's AS241)."""
    return _elementwise(NormalDist().inv_cdf, p)


def empirical_kolmogorov(samples) -> float:
    """sup_t |F_n(t) - Phi(t)| for already standardized samples, evaluated
    exactly at the jump points."""
    z = _sorted_finite(samples)
    n = z.size
    cdf = _ndtr(z)
    above = np.arange(1, n + 1) / n - cdf
    below = cdf - np.arange(0, n) / n
    return float(max(above.max(), below.max()))


def _phi_antiderivative(t: np.ndarray) -> np.ndarray:
    # d/dt [t Phi(t) + phi(t)] = Phi(t), with limit 0 at -inf
    return t * _ndtr(t) + np.exp(-0.5 * t * t) / _SQRT_TWO_PI


def empirical_wasserstein(samples) -> float:
    """int |F_n(t) - Phi(t)| dt for already standardized samples, in closed
    form.

    Between consecutive order statistics F_n is the constant c = i/n, and
    |c - Phi| integrates exactly once Phi's antiderivative and the crossing
    point Phi^{-1}(c) (clipped into the segment) are known; the two tail
    pieces are int Phi below the minimum and int (1 - Phi) above the maximum.
    The antiderivative is evaluated once at the order statistics and once
    at the crossings.
    """
    z = _sorted_finite(samples)
    n = z.size
    iz = _phi_antiderivative(z)
    total = float(iz[0] + (iz[-1] - z[-1]))
    if n > 1:
        a = z[:-1]
        b = z[1:]
        c = np.arange(1, n) / n
        qc = np.clip(_ndtri(c), a, b)
        ia = iz[:-1]
        iq = _phi_antiderivative(qc)
        ib = iz[1:]
        total += float(np.sum(c * (qc - a) - (iq - ia) + (ib - iq) - c * (b - qc)))
    return total


def dkw_margin(n: int, delta: float) -> float:
    """Two-sided DKW radius: sup |F_n - F| <= sqrt(log(2/delta) / (2n)) with
    probability at least 1 - delta."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


# ---------------------------------------------------------------------------
# verification drivers


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one empirical check; ``samples`` carries the standardized
    (or raw, for moment checks) draws for optional CSV export and is excluded
    from to_dict()."""

    kind: str
    passed: bool
    details: dict
    samples: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "passed": self.passed, "details": self.details}


def _replicate(sample, chunk: int, n: int, seed: int, workers: int) -> np.ndarray:
    """n independent totals drawn by ``sample(rng, size)`` in chunks of
    ``chunk``; chunk c draws from its own ``default_rng([seed, c])`` stream,
    and chunks are placed by index, so the draws are the same for any worker
    count.  The pool never has more threads than CPUs or spans of chunks
    (there are at least as many spans as threads), whatever ``workers`` asks
    for."""
    chunks = math.ceil(n / chunk)

    def span(cs: range) -> list:
        return [sample(np.random.default_rng([seed, c]), min(chunk, n - c * chunk)) for c in cs]

    workers = min(workers, chunks, os.cpu_count() or 1)
    if workers <= 1:
        return np.concatenate(span(range(chunks)))
    block = math.ceil(chunks / (4 * workers))
    with ThreadPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(span, [range(s, min(s + block, chunks)) for s in range(0, chunks, block)]))
    return np.concatenate([a for part in parts for a in part])


def _simulate_batch(scenario, n: int, seed: int, workers: int) -> tuple[np.ndarray, dict]:
    """n exactly standardized totals, and the standardization a report echoes.
    A chunk holds as many totals as keep its expected points under
    _CHUNK_POINTS, each total counting at least one point."""
    if n < 2:
        raise DomainError("n_reps must be >= 2")
    mu, var = scenario.mean_var()
    if not (math.isfinite(mu) and 0.0 < var < math.inf):
        raise DomainError(f"exact variance {var!r} of the total is not positive and finite")
    sd = math.sqrt(var)
    chunk = max(1, int(_CHUNK_POINTS / max(1.0, scenario.expected_points)))
    raw = _replicate(scenario.sample, chunk, n, seed, workers)
    return (raw - mu) / sd, {"kind": "analytic", "mean": mu, "sd": sd}


def verify_gaussian_bound(
    scenario, n_reps: int, seed: int, workers: int = 1
) -> VerificationReport:
    """Simulate the scenario, standardize, and test the empirical Kolmogorov
    and Wasserstein distances to N(0,1) against the computed bounds.

    The total is standardized exactly (``scenario.mean_var``).  Passing means
    dk_emp <= dk_bound + dkw_margin(n_reps, 0.001) and dw_emp <= dw_bound + 0.05.
    """
    report = scenario.bounds()
    z, standardization = _simulate_batch(scenario, n_reps, seed, workers)
    dk_emp = empirical_kolmogorov(z)
    dw_emp = empirical_wasserstein(z)
    dk_margin = dkw_margin(n_reps, 0.001)
    dw_margin = 0.05
    dk_ok = dk_emp <= report.dk_bound + dk_margin
    dw_ok = dw_emp <= report.dw_bound + dw_margin
    details = {
        "bounds": report.to_dict(),
        "n_reps": n_reps,
        "seed": seed,
        "standardization": standardization,
        "dk_emp": dk_emp,
        "dk_margin": dk_margin,
        "dk_ok": dk_ok,
        "dw_emp": dw_emp,
        "dw_margin": dw_margin,
        "dw_ok": dw_ok,
    }
    return VerificationReport("gaussian-bound", dk_ok and dw_ok, details, samples=z)


def verify_bci(
    scenario,
    gamma: float,
    delta: float,
    x_grid,
    n_reps: int,
    seed: int,
    workers: int = 1,
    m_max: int = 12,
) -> VerificationReport:
    """Two-part check of a concentration parameter pair (gamma, delta).

    Empirically: at every grid point x where the tail bound is informative
    (bound + DKW margin < 1), the observed two-sided tail frequency of the
    standardized total must not exceed bound + margin.  Structurally: the
    cumulant growth condition behind the bound must hold order by order up to
    m_max, from the exact mark and progeny moments of the scenario.  Both
    must pass.  The total is standardized with its exact mean and sd.
    """
    if not isinstance(scenario, ClusterModel):
        raise DomainError("tail verification expects a ClusterModel scenario")
    xs = [float(x) for x in x_grid]
    if not xs:
        raise DomainError("x_grid must be nonempty")
    # the deterministic half first (bci_bound checks each x), so a bad input fails before any draw
    bounds = [bci_bound(gamma, delta, x) for x in xs]
    cumulant = cumulant_condition_for_law(
        scenario.mark, scenario.offspring, scenario.lam * scenario.horizon, gamma, delta, m_max
    )

    z, standardization = _simulate_batch(scenario, n_reps, seed, workers)

    margin = dkw_margin(n_reps, 0.001)
    abs_z = np.abs(z)
    tails = []
    tails_ok = True
    for x, bound in zip(xs, bounds):
        checked = bound + margin < 1.0
        emp = float(np.mean(abs_z >= x))
        ok = (emp <= bound + margin) if checked else True
        tails_ok = tails_ok and ok
        tails.append(
            {"x": x, "bound": bound, "empirical": emp, "checked": checked, "ok": ok}
        )

    passed = tails_ok and cumulant.all_pass
    details = {
        "gamma": gamma,
        "delta": delta,
        "n_reps": n_reps,
        "seed": seed,
        "dkw_margin": margin,
        "standardization": standardization,
        "tails": tails,
        "tails_ok": tails_ok,
        "cumulant": cumulant.to_dict(),
    }
    return VerificationReport("bci", passed, details, samples=z)


def verify_moments(
    offspring: OffspringLaw, n_draws: int, seed: int, workers: int = 1
) -> VerificationReport:
    """Draw n_draws cascade totals and compare the first three empirical
    moments of Z with the recursion values, at 4 exact standard errors each:
    se_m = sqrt((E Z^{2m} - (E Z^m)^2) / n_draws), all from one table."""
    if n_draws < 2:
        raise DomainError("n_draws must be >= 2")
    exact = progeny_moment_table(offspring, 6).moments
    # the lambda reads the module's sample_progeny at each call, so a wrapper
    # installed on that name sees every chunk.  A chunk holds _CHUNK_POINTS
    # cascades: it holds one generation at a time, whose expected size is at
    # most one point per cascade
    draws = _replicate(
        lambda rng, size: sample_progeny(offspring, rng, size),
        _CHUNK_POINTS, n_draws, seed, workers,
    ).astype(float)

    checks = []
    passed = True
    for m in (1, 2, 3):
        want = exact[m - 1]
        emp = float(np.mean(draws ** m))
        se = math.sqrt(max(exact[2 * m - 1] - want ** 2, 0.0) / n_draws)
        ok = abs(emp - want) <= 4.0 * se
        passed = passed and ok
        checks.append({"m": m, "empirical": emp, "theory": want, "se": se, "ok": ok})
    details = {
        "n_draws": n_draws,
        "seed": seed,
        "per_moment": checks,
    }
    return VerificationReport("gw-moments", passed, details, samples=draws)
