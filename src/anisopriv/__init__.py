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
    IndexOutOfRange,
    NonPositiveVariance,
    NotPositiveDefinite,
    ScoreRequired,
    TrainingDivergedWarning,
)
from .linalg import SpdMatrix, SymMatrix
from .ou import GaussianState, QuadraticProblem, error_to_opt, exact_state, gaussian_kl
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
)
from .bounds import (
    BoundCurve,
    CallableScore,
    GaussianScore,
    RegularityParams,
    convergence_bound,
    klbound_closed,
    klbound_stationary,
    lsi_constant,
    lsi_rate,
    mc_kl_bound,
    phi,
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
    NoiseGrid,
    TradeoffPoint,
    grid_surface,
    kl_term,
    optimal_diag_cov,
    quadratic_tradeoff,
)
from .models import (
    AnisotropicPerParam,
    Dataset,
    IsotropicPerLayer,
    MlpModel,
    NO_NOISE,
    NoNoise,
    TrainLog,
    Training,
    make_adjacent,
    read_dataset_csv,
    synth_blobs,
    train,
)
from .audit import (
    AuditConfig,
    AuditReport,
    MembershipConfig,
    MembershipReport,
    clamped_log_ratios,
    estimate_delta,
    membership_experiment,
)

__all__ = [
    "__version__",
    "AnisoError", "BatchLargerThanDataset", "CovarianceEvaluationFailed",
    "IndexOutOfRange", "NonPositiveVariance",
    "NotPositiveDefinite", "ScoreRequired", "TrainingDivergedWarning",
    "SpdMatrix", "SymMatrix",
    "GaussianState", "QuadraticProblem", "error_to_opt", "exact_state",
    "gaussian_kl",
    "CallableDrift", "ConstantSpd", "DatasetGradientDrift", "DiagonalOfState",
    "MinibatchSgd", "QuadraticDrift", "SimConfig", "TrajectoryEnsemble",
    "minibatch_covariance", "paired_simulate", "psd_project", "simulate",
    "BoundCurve", "CallableScore", "GaussianScore",
    "RegularityParams", "convergence_bound",
    "klbound_closed", "klbound_stationary", "lsi_constant", "lsi_rate",
    "mc_kl_bound", "phi", "xi_bound",
    "ConcentrationParams", "concentration_tail",
    "delta_from_eps", "eps_from_delta", "membership_advantage",
    "GradientGap", "NoiseGrid", "TradeoffPoint", "grid_surface", "kl_term",
    "optimal_diag_cov", "quadratic_tradeoff",
    "AnisotropicPerParam", "Dataset", "IsotropicPerLayer", "MlpModel",
    "NO_NOISE", "NoNoise", "TrainLog", "Training", "make_adjacent",
    "read_dataset_csv", "synth_blobs", "train",
    "AuditConfig", "AuditReport", "MembershipConfig", "MembershipReport",
    "clamped_log_ratios",
    "estimate_delta", "membership_experiment",
]
