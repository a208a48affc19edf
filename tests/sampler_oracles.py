"""A label-and-bincount interference kernel, kept as an independent oracle
for ``InterferenceModel.sample``, which sums each field's points by segment.
Every point carries its field's label and one weighted ``np.bincount`` gives
the totals; the draws are the model's own, in its order (point counts,
radii, powers), so tests compare the two on one stream at 1e-12 relative."""
import math

import numpy as np


def interference_by_labels(model, rng, size: int) -> np.ndarray:
    """Interference totals of ``size`` fields, far-field mean added back."""
    rho = model.truncation_radius
    n = rng.poisson(model.lam * math.pi * rho * rho, size)
    labels = np.repeat(np.arange(size), n)
    signal = np.maximum(rng.random(labels.size) * (rho * rho), model.radius * model.radius)
    signal = signal ** (-0.5 * model.alpha) * model.power.sample(rng, labels.size)
    return np.bincount(labels, weights=signal, minlength=size) + model.farfield_mean
