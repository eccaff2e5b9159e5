"""Exact simulation and limit theory for an n-species cyclic collision model.

Species are arranged on a cycle; a collision between a species-i individual
and a species-(i+1) individual converts the latter to species i, at pairwise
rate lam/M.  The package provides the exact event-driven process, its
deterministic large-population limit, the Gaussian fluctuation layer around
that limit, and a statistical harness tying the three together.
"""
from .core import (
    BudgetExceeded,
    DomainError,
    GridMismatch,
    InsufficientReplicas,
    JumpEvent,
    MissingEventLog,
    ModelSpec,
    NormalizationError,
    NotPSD,
    NumericError,
    RpsimError,
    SimState,
    StepError,
    Trajectory,
    counts_from_fractions,
    rng_stream,
    symmetric_counts,
    trajectories_identical,
    validate_spec,
)
from .fluctuation import (
    CovarianceState,
    FluctuationModel,
    GaussianPath,
    diffusion_matrix,
    drift_matrix,
    propagate_covariance,
    psd_sqrt,
    run_sde_ensemble,
    simulate_limit_sde,
)
from .meanfield import (
    ConservationAudit,
    MeanFieldPath,
    MeanFieldState,
    conserved_quantities,
    integrate,
    rk4_step,
    vector_field,
)
from .simulate import (
    Absorbed,
    Ensemble,
    ReplicaError,
    next_event,
    run_ensemble,
    run_until,
)
from .validate import (
    CltReport,
    GillespieReport,
    LlnRecord,
    LlnReport,
    MartingaleCheck,
    MartingaleReport,
    ValidationConfig,
    clt_test,
    gillespie_equivalence_test,
    lln_test,
    martingale_test,
    run_validation,
    zero_sum_projector,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RpsimError", "DomainError", "NormalizationError", "NumericError",
    "BudgetExceeded", "StepError", "NotPSD", "GridMismatch",
    "InsufficientReplicas", "MissingEventLog", "ReplicaError",
    # core types and helpers
    "ModelSpec", "SimState", "JumpEvent", "Trajectory",
    "counts_from_fractions", "symmetric_counts", "rng_stream",
    "trajectories_identical", "validate_spec",
    # event-driven simulation
    "Absorbed", "Ensemble", "next_event", "run_until", "run_ensemble",
    # deterministic limit
    "ConservationAudit", "MeanFieldPath", "MeanFieldState",
    "conserved_quantities", "integrate", "rk4_step", "vector_field",
    # fluctuation layer
    "CovarianceState", "FluctuationModel", "GaussianPath",
    "diffusion_matrix", "drift_matrix", "propagate_covariance", "psd_sqrt",
    "run_sde_ensemble", "simulate_limit_sde",
    # statistical harness
    "CltReport", "GillespieReport", "LlnRecord", "LlnReport",
    "MartingaleCheck", "MartingaleReport", "ValidationConfig",
    "clt_test", "gillespie_equivalence_test", "lln_test", "martingale_test",
    "run_validation", "zero_sum_projector",
]
