"""Anisotropic diffusion models of noisy training, with privacy bounds.

The package follows one pipeline: simulate or solve the training diffusion
(`sde`, `ou`), bound the KL divergence between two training laws (`bounds`),
translate that bound into privacy statements (`privacy`), and check the story
against real noisy trainings (`models`, `audit`). `tradeoff` covers the
noise-design side: which covariance buys the most privacy per unit accuracy.
"""

__version__ = "0.1.0"

from .errors import (
    AnisoError,
    BatchLargerThanDataset,
    CovarianceEvaluationFailed,
    DegenerateGap,
    IndexOutOfRange,
    NonPositiveVariance,
    NotPositiveDefinite,
    ScoreRequired,
    TrainingDivergedWarning,
)
from .linalg import SpdMatrix, SymMatrix
from .ou import GaussianState, QuadraticProblem, error_to_opt, exact_state, gaussian_kl, invariant_state
from .sde import (
    CallableDrift,
    ConstantSpd,
    DatasetGradientDrift,
    DiagonalOfState,
    MinibatchSgd,
    QuadraticDrift,
    SimConfig,
    TrajectoryEnsemble,
    minibatch_covariance,
    paired_simulate,
    psd_project,
    simulate,
    write_ensemble_csv,
)
from .bounds import (
    ABSENT_SCORE,
    BoundCurve,
    CallableScore,
    GaussianScore,
    RegularityParams,
    TimeVaryingScore,
    convergence_bound,
    klbound_closed,
    klbound_stationary,
    lsi_constant,
    lsi_rate,
    mc_kl_bound,
    phi,
    write_bound_csv,
    xi_bound,
)
from .privacy import (
    ConcentrationParams,
    concentration_tail,
    delta_from_eps,
    eps_from_delta,
    membership_advantage,
)
from .tradeoff import (
    GradientGap,
    TradeoffPoint,
    grid_surface,
    kl_term,
    optimal_diag_cov,
    quadratic_tradeoff,
    write_grid_csv,
)
from .models import (
    AnisotropicPerParam,
    Dataset,
    IsotropicPerLayer,
    MlpModel,
    NO_NOISE,
    NoNoise,
    TrainLog,
    gradient_drift,
    init_model,
    load_model,
    make_adjacent,
    read_dataset_csv,
    save_model,
    synth_blobs,
    train,
    write_dataset_csv,
)
from .audit import (
    AuditConfig,
    AuditReport,
    MembershipReport,
    clamped_log_ratios,
    estimate_delta,
    membership_experiment,
    write_audit_json,
    write_membership_csv,
)

__all__ = [
    "__version__",
    "AnisoError", "BatchLargerThanDataset", "CovarianceEvaluationFailed",
    "DegenerateGap", "IndexOutOfRange", "NonPositiveVariance",
    "NotPositiveDefinite", "ScoreRequired", "TrainingDivergedWarning",
    "SpdMatrix", "SymMatrix",
    "GaussianState", "QuadraticProblem", "error_to_opt", "exact_state",
    "gaussian_kl", "invariant_state",
    "CallableDrift", "ConstantSpd", "DatasetGradientDrift", "DiagonalOfState",
    "MinibatchSgd", "QuadraticDrift", "SimConfig", "TrajectoryEnsemble",
    "minibatch_covariance", "paired_simulate", "psd_project", "simulate",
    "write_ensemble_csv",
    "ABSENT_SCORE", "BoundCurve", "CallableScore", "GaussianScore",
    "RegularityParams", "TimeVaryingScore", "convergence_bound",
    "klbound_closed", "klbound_stationary", "lsi_constant", "lsi_rate",
    "mc_kl_bound", "phi", "write_bound_csv", "xi_bound",
    "ConcentrationParams", "concentration_tail",
    "delta_from_eps", "eps_from_delta", "membership_advantage",
    "GradientGap", "TradeoffPoint", "grid_surface", "kl_term",
    "optimal_diag_cov", "quadratic_tradeoff",
    "write_grid_csv",
    "AnisotropicPerParam", "Dataset", "IsotropicPerLayer", "MlpModel",
    "NO_NOISE", "NoNoise", "TrainLog", "gradient_drift", "init_model",
    "load_model", "make_adjacent", "read_dataset_csv", "save_model",
    "synth_blobs", "train", "write_dataset_csv",
    "AuditConfig", "AuditReport", "MembershipReport", "clamped_log_ratios",
    "estimate_delta", "membership_experiment", "write_audit_json",
    "write_membership_csv",
]
