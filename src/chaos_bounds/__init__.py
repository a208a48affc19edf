"""Explicit Gaussian-approximation bounds for Poisson functionals driven by
cluster (Hawkes-type) and shot-noise models, with the concentration and
moderate-deviation machinery that goes with them, and exact Monte Carlo
harnesses to check everything at desk scale.
"""
from .errors import (
    CapExceeded,
    ChaosBoundsError,
    DivergentIntegral,
    DivergentModel,
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
    second_moment,
)
from .progeny import (
    Binomial,
    CertifiedSum,
    FactorialMoments,
    OffspringLaw,
    PoissonMean,
    ProgenyMomentTable,
    abel_plana_bound,
    borel_pmf,
    consul_pmf,
    factorial_moments,
    progeny_moment,
    progeny_moment_closed,
    progeny_moment_series,
    progeny_moment_table,
)
from .gaussian_bounds import (
    GaussianBoundReport,
    KernelMoments,
    Region,
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
    mark_gamma,
    mdp_rate_inf,
    nacc_window,
    total_loss_interval,
    verify_mark_gamma,
)
from .simulate import (
    ClusterModel,
    EmpiricalDistanceReport,
    InterferenceModel,
    VerificationReport,
    dkw_margin,
    empirical_distances,
    empirical_kolmogorov,
    empirical_wasserstein,
    sample_cluster_window,
    sample_interference,
    sample_progeny,
    verify_bci,
    verify_gaussian_bound,
    verify_moments,
    write_samples_csv,
)

__version__ = "0.1.0"
