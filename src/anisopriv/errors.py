"""Shared exception types.

Every error carries an ``operation`` tag naming the computation that failed,
so command-line callers can report machine-readable failures.
"""


class AnisoError(Exception):
    """Base class; ``operation`` names the failing computation."""

    def __init__(self, message: str, *, operation: str | None = None):
        super().__init__(message)
        self.operation = operation or type(self).__name__


class FieldErrors(AnisoError, ValueError):
    """Field values that break their object's rules; ``fields`` holds one
    (field, message) pair per failing field, in the object's field order."""

    def __init__(self, fields):
        self.fields = tuple(fields)
        super().__init__("; ".join(f"{name}: {message}" for name, message in self.fields))

    def __reduce__(self):
        # rebuilt from fields, not from the joined message in args, so that a
        # forked child's error unpickles in its parent
        return type(self), (self.fields,), self.__dict__


def check_fields(order, failed: dict) -> None:
    """Raise FieldErrors over failed, a {field: message} dict, in the order of order."""
    if failed:
        raise FieldErrors([(name, failed[name]) for name in order if name in failed])


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


class IndexOutOfRange(AnisoError, IndexError):
    """A record index does not address the dataset."""


class TrainingDivergedWarning(UserWarning):
    """A training run produced non-finite loss and was excluded."""
