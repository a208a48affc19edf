"""Explicit Gaussian-approximation bounds for Poisson functionals driven by
cluster (Hawkes-type) and shot-noise models, with the concentration and
moderate-deviation machinery that goes with them, and exact Monte Carlo
harnesses to check everything at desk scale.

numpy is the one runtime dependency, and the calculators do not need even
that: importing the package loads only the standard library.  The Monte
Carlo half (``simulate``: the models, samplers, empirical distances and
``verify_*`` harnesses) loads numpy and is imported on first use of one of
its names.
"""
from importlib import import_module as _import_module

from .errors import (
    CapExceeded,
    ChaosBoundsError,
    DivergentIntegral,
    DomainError,
    EmptyInterval,
    InsufficientMoments,
    NoConvergence,
    RegimeError,
    SupercriticalError,
    UnknownFamily,
)
from .marks import (
    CenteredGaussianMark,
    ConstantMark,
    CustomAbsMoments,
    ExponentialMark,
    MarkLaw,
    UniformMark,
    mark_abs_moments,
)
from .progeny import (
    Binomial,
    CertifiedSum,
    FactorialMoments,
    OffspringLaw,
    PoissonMean,
    ProgenyMomentTable,
    abel_plana_bound,
    factorial_moments,
    progeny_moment_series,
    progeny_moment_table,
)
from .gaussian_bounds import (
    GaussianBoundReport,
    Region,
    cluster_bounds_for_law,
    compound_cluster_bounds,
    first_chaos_bounds,
    hertzian_integral,
    interference_bounds,
    shotnoise_bounds,
)
from .deviations import (
    CumulantConditionReport,
    DeviationParams,
    InsuranceTailReport,
    TotalLossInterval,
    bci_bound,
    check_cumulant_condition,
    delta_binomial,
    delta_poisson,
    insurance_tail_report,
    mdp_rate_inf,
    nacc_window,
    total_loss_interval,
    verify_mark_gamma,
)

__version__ = "0.1.0"

# simulate loads numpy, so its names (and the module itself) are
# resolved on first access through the module __getattr__ (PEP 562).
_SIMULATE_NAMES = frozenset({
    "ClusterModel",
    "InterferenceModel",
    "VerificationReport",
    "dkw_margin",
    "empirical_kolmogorov",
    "empirical_wasserstein",
    "sample_progeny",
    "verify_bci",
    "verify_gaussian_bound",
    "verify_moments",
})
_LAZY = _SIMULATE_NAMES | {"simulate"}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        simulate = _import_module(".simulate", __name__)
        return simulate if name == "simulate" else getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | _LAZY)
