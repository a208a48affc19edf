"""Independent kernels kept as oracles for the samplers and distances.

``windows_by_kept_labels`` and ``progeny_by_kept_labels`` are the
kept-labels counting kernels, kept for ``ClusterModel.sample`` and
``sample_progeny``, which count each generation as it is drawn: these store
every generation's labels and count them with one ``np.bincount`` after the
last.  They draw the models' own draws in their order (immigrant counts,
immigrant times, then per generation parents and delays), so the counts
must agree bit for bit on one stream.

``interference_by_labels`` is a label-and-bincount interference kernel, kept
for ``InterferenceModel.sample``, which sums each field's points by segment.
Every point carries its field's label and one weighted ``np.bincount`` gives
the totals; the draws are the model's own, in its order (point counts,
radii, powers, far-field normals), so tests compare the two on one stream
at 1e-12 relative.

``kolmogorov_by_scipy`` and ``wasserstein_by_scipy`` are the empirical
distances computed with scipy's Phi and Phi^{-1} (``ndtr``, ``ndtri``),
each piece evaluated on its own, for the library's standard-library Phi.
"""
import math

import numpy as np
from scipy.special import ndtr, ndtri


def interference_by_labels(model, rng, size: int) -> np.ndarray:
    """Interference totals of ``size`` fields, one far-field normal each."""
    rho = model.truncation_radius
    n = rng.poisson(model.lam * math.pi * rho * rho, size)
    labels = np.repeat(np.arange(size), n)
    signal = np.maximum(rng.random(labels.size) * (rho * rho), model.radius * model.radius)
    signal = signal ** (-0.5 * model.alpha) * model.power.sample(rng, labels.size)
    far_mean, far_var = model.far_field
    far = rng.normal(far_mean, math.sqrt(far_var), size)
    return np.bincount(labels, weights=signal, minlength=size) + far


def windows_by_kept_labels(model, rng, size: int) -> np.ndarray:
    """Point counts of ``size`` windows, which are their totals under unit
    marks (whose totals draw nothing)."""
    T = model.horizon
    labels = np.repeat(np.arange(size), rng.poisson(model.lam * T, size))
    times = rng.uniform(0.0, T, labels.size)
    kept = [labels]
    while times.size:
        parent = model.offspring.next_generation(rng, times.size)
        times = times[parent] + rng.exponential(1.0 / model.delay_rate, parent.size)
        inside = times <= T
        times, labels = times[inside], labels[parent[inside]]
        kept.append(labels)
    return np.bincount(np.concatenate(kept), minlength=size)


def progeny_by_kept_labels(law, rng, size: int) -> np.ndarray:
    """Total progeny of ``size`` cascades: every descendant's label, counted
    once at the end, plus the root."""
    labels = np.arange(size)
    kept = []
    while labels.size:
        labels = labels[law.next_generation(rng, labels.size)]
        kept.append(labels)
    return np.bincount(np.concatenate(kept), minlength=size) + 1


def kolmogorov_by_scipy(samples) -> float:
    """sup_t |F_n(t) - Phi(t)| at the jump points."""
    z = np.sort(np.asarray(samples, dtype=float))
    n = z.size
    cdf = ndtr(z)
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(0, n) / n).max()))


def _phi_antiderivative(t):
    return t * ndtr(t) + np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def wasserstein_by_scipy(samples) -> float:
    """int |F_n(t) - Phi(t)| dt in closed form, segment by segment."""
    z = np.sort(np.asarray(samples, dtype=float))
    n = z.size
    total = float(_phi_antiderivative(z[0]) + (_phi_antiderivative(z[-1]) - z[-1]))
    if n > 1:
        a = z[:-1]
        b = z[1:]
        c = np.arange(1, n) / n
        qc = np.clip(ndtri(c), a, b)
        ia = _phi_antiderivative(a)
        iq = _phi_antiderivative(qc)
        ib = _phi_antiderivative(b)
        total += float(np.sum(c * (qc - a) - (iq - ia) + (ib - iq) - c * (b - qc)))
    return total
