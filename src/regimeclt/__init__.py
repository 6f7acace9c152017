"""Verification lab for central limit behavior of regime-switching sequences.

A hidden ergodic Markov chain selects, at each step, which emission
distribution produces the observed value. The package certifies the chain's
geometric mixing, measures exact and Monte Carlo near-independence gaps of
the output at spaced time points, checks factorization of characteristic
functions under those gaps, and quantifies convergence of normalized sums
to the standard normal law via Bernstein blocking diagnostics.
"""

__version__ = "0.1.0"

from .chain import (
    ErgodicityReport,
    MixingProfile,
    TransitionMatrix,
    is_ergodic,
    mixing_rate,
    n_step,
    stationary_distribution,
)
from .charfn import (
    CfGapReport,
    StepApproximation,
    build_step_approximation,
    cf_factorization_gap,
    cf_factorization_gap_from_samples,
    truncation_radius,
)
from .clt import (
    BlockDecomposition,
    ConvergenceReport,
    LindebergReport,
    RemainderReport,
    clt_convergence,
    decompose,
    lindeberg_check,
    long_run_variance_exact,
    remainder_diagnostic,
    sum_variance_exact,
)
from .errors import (
    BoundViolated,
    ConfigInvalid,
    EmptyConditioningEvent,
    InvalidModel,
    NotErgodic,
    RegimecltError,
    ZeroLikelihood,
)
from .independence import (
    GapReport,
    RectEvent,
    chained_gap_bound,
    default_event_family,
    epsilon_certificate,
    joint_product_gap,
    observable_event_family,
)
from .process import (
    EmissionSpec,
    Gaussian,
    ModelSpec,
    PathSample,
    ShiftedExponential,
    Uniform,
    conditional_density,
    iter_path_chunks,
    mixture_abs_third_moment,
    mixture_cdf,
    mixture_mean,
    mixture_quantile,
    mixture_variance,
    predictive_state_probs,
    sample_path,
)
from .runner import RunResult, Scenario, VerifySummary, load_scenario, run, run_scenario, verify_all
from .seeds import SeedSpec

__all__ = [
    "__version__",
    "BlockDecomposition",
    "BoundViolated",
    "CfGapReport",
    "ConfigInvalid",
    "ConvergenceReport",
    "EmissionSpec",
    "EmptyConditioningEvent",
    "ErgodicityReport",
    "GapReport",
    "Gaussian",
    "InvalidModel",
    "LindebergReport",
    "MixingProfile",
    "ModelSpec",
    "NotErgodic",
    "PathSample",
    "RectEvent",
    "RegimecltError",
    "RemainderReport",
    "RunResult",
    "Scenario",
    "SeedSpec",
    "ShiftedExponential",
    "StepApproximation",
    "TransitionMatrix",
    "Uniform",
    "VerifySummary",
    "ZeroLikelihood",
    "build_step_approximation",
    "cf_factorization_gap",
    "cf_factorization_gap_from_samples",
    "chained_gap_bound",
    "clt_convergence",
    "conditional_density",
    "decompose",
    "default_event_family",
    "epsilon_certificate",
    "is_ergodic",
    "iter_path_chunks",
    "joint_product_gap",
    "lindeberg_check",
    "load_scenario",
    "long_run_variance_exact",
    "mixing_rate",
    "mixture_abs_third_moment",
    "mixture_cdf",
    "mixture_mean",
    "mixture_quantile",
    "mixture_variance",
    "n_step",
    "predictive_state_probs",
    "remainder_diagnostic",
    "sum_variance_exact",
    "run",
    "run_scenario",
    "sample_path",
    "stationary_distribution",
    "truncation_radius",
    "verify_all",
]
