"""Dense symmetric / SPD matrix helpers used by every analytic module.

Conventions
-----------
* Matrices are plain float64 ``numpy`` arrays wrapped in thin dataclasses
  that validate shape, symmetry, and (for ``SpdMatrix``) positive
  definiteness at construction time.
* Symmetry is enforced up to a relative tolerance of 1e-12; the stored
  entries are the symmetrized input (m + m.T)/2 and are read-only.
* The checks work on (..., d, d) stacks, so a batch of matrices is checked
  in one call by the same rules as a single one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotPositiveDefinite

SYMMETRY_RTOL = 1e-12
# Cholesky pivots at or below this are treated as loss of positive definiteness.
PIVOT_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# checks on (..., d, d) stacks; the matrix types below apply them with no
# leading axes, and sde applies them to one covariance per path


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(m + m.T) / 2 for every matrix of the stack, after checking that each is
    finite and symmetric to SYMMETRY_RTOL; raises ValueError otherwise."""
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    mt = m.swapaxes(-1, -2)
    gap = np.abs(m - mt)
    if (gap > SYMMETRY_RTOL * np.maximum(1.0, np.abs(m))).any():
        raise ValueError(f"matrix is not symmetric (worst asymmetry {gap.max():.3e})")
    return (m + mt) / 2.0


def _check_semidefinite(m: np.ndarray) -> None:
    """Raise NotPositiveDefinite unless every symmetric matrix of the stack has
    no eigenvalue below -1e-10 * max(1, max |entry|)."""
    w = np.linalg.eigvalsh(m)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    bad = w.min(axis=-1, initial=0.0) < -1e-10 * scale
    if bad.any():
        raise NotPositiveDefinite(
            f"matrix is not positive semidefinite (min eigenvalue {w[bad].min():.3e})",
            operation="SpdMatrix",
        )


def _cholesky_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (P, d, d) stack of symmetric matrices, and the
    (P,) mask of matrices that are positive definite: the factorization succeeds
    and every pivot exceeds PIVOT_FLOOR. Factors outside the mask are not usable."""
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        # numpy fails the whole stack on one failed matrix: factor one at a time
        low = np.full_like(m, np.nan)
        for p, mp in enumerate(m):
            try:
                low[p] = np.linalg.cholesky(mp)
            except np.linalg.LinAlgError:
                pass
    piv = np.diagonal(low, axis1=-2, axis2=-1) ** 2
    return low, np.all(piv > PIVOT_FLOOR, axis=-1)


def _checked_cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (P, d, d) stack; raises NotPositiveDefinite
    if any matrix has a failed factorization or a pivot <= PIVOT_FLOOR."""
    low, ok = _cholesky_rows(m)
    if not np.all(ok):
        piv = np.diagonal(low[~ok], axis1=-2, axis2=-1) ** 2
        if np.isnan(piv).any():
            msg = "Cholesky factorization failed: matrix is not positive definite"
        else:
            msg = f"Cholesky pivot {piv.min():.3e} <= {PIVOT_FLOOR:g}"
        raise NotPositiveDefinite(msg, operation="cholesky")
    return low


# ---------------------------------------------------------------------------
# matrix types


def _as_square(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Symmetric matrix; input is checked against the symmetry tolerance,
    then stored symmetrized."""

    entries: np.ndarray

    def __post_init__(self):
        sym = _symmetrized(_as_square(self.entries))
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def diagonal(cls, diag) -> "SymMatrix":
        return cls(np.diag(np.asarray(diag, dtype=float)))


@dataclass(frozen=True, eq=False)
class SpdMatrix(SymMatrix):
    """Symmetric positive-definite matrix with a cached Cholesky factor.

    ``allow_semidefinite=True`` relaxes the construction check to PSD
    (needed for zero initial covariances and projection outputs); strict
    operations on such a matrix still raise ``NotPositiveDefinite``.
    """

    allow_semidefinite: bool = field(default=False)

    def __post_init__(self):
        if not np.isfinite(_as_square(self.entries)).all():
            raise NotPositiveDefinite("matrix entries must be finite", operation="SpdMatrix")
        super().__post_init__()
        if self.allow_semidefinite:
            _check_semidefinite(self.entries)
        else:
            self.chol_lower  # noqa: B018  - eager validation

    @cached_property
    def chol_lower(self) -> np.ndarray:
        """Lower-triangular Cholesky factor; raises if any pivot <= 1e-14."""
        out = _checked_cholesky(self.entries[None])[0]
        out.flags.writeable = False
        return out

    @classmethod
    def identity(cls, dim: int) -> "SpdMatrix":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, diag, *, allow_semidefinite: bool = False) -> "SpdMatrix":
        return cls(np.diag(np.asarray(diag, dtype=float)), allow_semidefinite)


def log_det(m: SpdMatrix) -> float:
    """log det m, computed as 2 * sum(log diag(L))."""
    return 2.0 * float(np.sum(np.log(np.diag(m.chol_lower))))
