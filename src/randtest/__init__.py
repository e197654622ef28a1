"""Randomization tests for treatment effects, with covariate adjustment.

Exact and Monte Carlo randomization tests of the sharp null under complete,
cluster, stratified, and rerandomized assignment designs; four regression
adjustments of the difference in means, each with classic and robust
studentizations; confidence intervals by test inversion; the classical
linear-model permutation schemes; and a simulation harness for rejection
rates.
"""

from .designs import (
    BalanceReport,
    ClusterDesign,
    CompleteDesign,
    DesignSpec,
    RerandomizedDesign,
    StratifiedDesign,
    chi2_cdf,
    draw,
    mahalanobis,
    mahalanobis_many,
)
from .engine import (
    CiResult,
    FrtResult,
    exhaustive_assignments,
    frt_p_value,
    frt_p_values,
    invert_ci,
    wald_ci,
)
from .errors import (
    AcceptanceTimeout,
    DegenerateArm,
    DimensionMismatch,
    EmptyAcceptanceRegion,
    EmptyStratum,
    InvalidConfig,
    InvalidSizes,
    InvariantViolation,
    MixedClusterTreatment,
    ParseError,
    RandtestError,
    RankDeficient,
    SingularCovariance,
    TooLarge,
    UnknownScenario,
    ZeroDenominator,
    ZeroSe,
)
from .estimators import (
    ADJUSTMENTS,
    ALL_SPECS,
    STUDENTIZATIONS,
    Dataset,
    EstimateTriple,
    StatisticSpec,
    center_covariates,
    cluster_collapse,
    estimate,
    estimate_stratified,
    statistic,
    stratified_combine,
    studentize,
    tau_fisher,
    tau_lin,
    tau_neyman,
    tau_rosenbaum,
)
from .linalg import OlsFit, fit_ols
from .permlm import (
    SCHEMES,
    PermLmSpec,
    closed_form_replicates,
    perm_lm_p_value,
    refit_replicates,
)
from .simulate import (
    BUILTIN_SCENARIOS,
    OutcomeModel,
    Population,
    RejectionTable,
    ScenarioConfig,
    ScenarioResult,
    builtin_scenario,
    chi2_quantile,
    config_from_dict,
    config_to_dict,
    make_population,
    p_histogram,
    r_constant,
    run_scenario,
    sample_U,
    sample_truncated_L,
    u_variance,
    worker_count,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
