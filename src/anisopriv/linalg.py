"""Dense symmetric / SPD matrix helpers used by every analytic module.

Conventions
-----------
* Matrices are plain float64 ``numpy`` arrays wrapped in thin dataclasses
  that validate shape, symmetry, and (for ``SpdMatrix``) positive
  definiteness at construction time. ``SpdMatrix`` checks definiteness by
  computing its cached Cholesky factor, which its callers then reuse;
  eigenvalues are computed only for a semidefinite-allowed matrix whose
  factor fails.
* Symmetry is enforced up to a relative tolerance of 1e-12; the stored
  entries are the symmetrized input (m + m.T)/2 and are read-only.
* The checks work on (..., d, d) stacks, so a batch of matrices is checked
  in one call by the same rules as a single one. ``SpdMatrix`` holds one
  (d, d) matrix or a (..., d, d) stack; a stack's Cholesky factors and
  log-determinants come out with its leading axes.
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
# checks on (..., d, d) stacks; the matrix types below apply them to what they
# hold


def _sym_part(m: np.ndarray) -> np.ndarray:
    """(m + m.T) / 2 for every matrix of the stack, formed as m / 2 + m.T / 2,
    which cannot overflow a finite matrix and is the same bits for normal
    entries."""
    return m / 2.0 + m.swapaxes(-1, -2) / 2.0


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """The symmetric part of every matrix of the stack, after checking that each
    is finite and symmetric to SYMMETRY_RTOL; raises ValueError otherwise."""
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    mt = m.swapaxes(-1, -2)
    gap = np.abs(m - mt)
    if (gap > SYMMETRY_RTOL * np.maximum(1.0, np.abs(m))).any():
        raise ValueError(f"matrix is not symmetric (worst asymmetry {gap.max():.3e})")
    return _sym_part(m)


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


def _checked_cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (P, d, d) stack; raises NotPositiveDefinite
    if any matrix has a failed factorization or a pivot <= PIVOT_FLOOR."""
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "Cholesky factorization failed: matrix is not positive definite", operation="cholesky"
        ) from None
    piv = np.diagonal(low, axis1=-2, axis2=-1) ** 2
    if not np.all(piv > PIVOT_FLOOR):
        raise NotPositiveDefinite(f"Cholesky pivot {piv.min():.3e} <= {PIVOT_FLOOR:g}",
                                  operation="cholesky")
    return low


# ---------------------------------------------------------------------------
# matrix types


def _as_square(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Symmetric (d, d) matrix or (..., d, d) stack; input is checked against
    the symmetry tolerance, then stored symmetrized."""

    entries: np.ndarray

    def __post_init__(self):
        sym = _symmetrized(_as_square(self.entries))
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


@dataclass(frozen=True, eq=False)
class SpdMatrix(SymMatrix):
    """Symmetric positive-definite matrix, or (..., d, d) stack of them, with a
    cached Cholesky factor.

    Construction computes that factor, and its success is the definiteness
    check; the factor is kept, so a matrix whose caller never factors it
    holds twice its entries' memory. ``allow_semidefinite=True`` relaxes the
    check to PSD (needed for zero initial covariances and projection
    outputs): where the factor fails, the eigenvalues decide, by
    ``_check_semidefinite``. Strict operations on such a matrix still raise
    ``NotPositiveDefinite``.
    """

    allow_semidefinite: bool = field(default=False)

    def __post_init__(self):
        if not np.isfinite(_as_square(self.entries)).all():
            raise NotPositiveDefinite("matrix entries must be finite", operation="SpdMatrix")
        super().__post_init__()
        try:
            self.chol_lower  # noqa: B018  - eager validation; the factor is cached
        except NotPositiveDefinite:
            if not self.allow_semidefinite:
                raise
            _check_semidefinite(self.entries)

    @cached_property
    def chol_lower(self) -> np.ndarray:
        """Lower-triangular Cholesky factor (one per matrix of a stack); raises if
        any pivot <= 1e-14."""
        d = self.dim
        out = _checked_cholesky(self.entries.reshape(-1, d, d)).reshape(self.entries.shape)
        out.flags.writeable = False
        return out


def log_det(m: SpdMatrix) -> float | np.ndarray:
    """log det m, computed as 2 * sum(log diag(L)); one per matrix of a stack."""
    return 2.0 * np.sum(np.log(np.diagonal(m.chol_lower, axis1=-2, axis2=-1)), axis=-1)
