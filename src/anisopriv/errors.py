"""Shared exception types.

Every error carries an ``operation`` tag naming the computation that failed,
so command-line callers can report machine-readable failures.
"""


class AnisoError(Exception):
    """Base class; ``operation`` names the failing computation."""

    def __init__(self, message: str, *, operation: str | None = None):
        super().__init__(message)
        self.operation = operation or type(self).__name__


class NotPositiveDefinite(AnisoError, ValueError):
    """A matrix required to be symmetric positive definite is not."""


class ScoreRequired(AnisoError, ValueError):
    """Diffusion matrices differ, so the score term cannot be dropped."""


class CovarianceEvaluationFailed(AnisoError, RuntimeError):
    """A state-dependent covariance evaluation produced an unusable matrix."""


class BatchLargerThanDataset(AnisoError, ValueError):
    """Minibatch size exceeds the dataset size."""


class NonPositiveVariance(AnisoError, ValueError):
    """A variance that must be strictly positive is zero or negative."""


class DegenerateGap(AnisoError, ValueError):
    """All gradient-gap entries are zero; nothing to allocate noise against."""


class IndexOutOfRange(AnisoError, IndexError):
    """A record index does not address the dataset."""


class TrainingDivergedWarning(RuntimeWarning):
    """A training run produced non-finite loss and was excluded."""
