"""Noise-allocation trade-off: privacy term vs accuracy cost.

For a per-coordinate gradient gap s and a diagonal noise covariance with
variances v, the privacy-relevant term is sum_i s_i^2 / v_i and the accuracy
cost is the trace sum_i v_i. Minimizing the former at fixed trace zeta has
the closed-form solution v_i = zeta * s_i / sum_j s_j, with optimum value
(sum_i s_i)^2 / zeta. GradientGap and NoiseGrid raise errors.FieldErrors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import AnisoError, FieldErrors, NonPositiveVariance, check_fields
from .linalg import SpdMatrix
from .ou import GaussianState, QuadraticProblem, error_to_opt, exact_state, gaussian_kl

# Variance floor for zero-gap coordinates, as a fraction of the trace budget.
ZERO_GAP_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class GradientGap:
    """Per-coordinate magnitude of the gradient difference between two
    adjacent losses; entries are nonnegative and at least one is positive."""

    gaps: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gaps, dtype=float).ravel()
        if not np.all(np.isfinite(g)):
            raise ValueError("gap entries must be finite")
        if np.any(g < 0.0):
            raise FieldErrors([("gaps", "entries must be nonnegative")])
        if not np.any(g > 0.0):
            raise FieldErrors([("gaps", "at least one entry must be positive")])
        g.flags.writeable = False
        object.__setattr__(self, "gaps", g)

    @property
    def dim(self) -> int:
        return self.gaps.shape[0]


@dataclass(frozen=True, eq=False)
class TradeoffPoint:
    diag_sigma: np.ndarray
    kl_term: float
    accuracy_loss: float


def kl_term(gap: GradientGap, diag_sigma) -> float | np.ndarray:
    """sum_i s_i^2 / v_i for strictly positive variances v; for a (..., d) stack
    of variance vectors, one term per vector."""
    v = np.atleast_1d(np.asarray(diag_sigma, dtype=float))
    if v.shape[-1] != gap.dim:
        raise ValueError("diag_sigma length does not match the gap vector")
    if np.any(v <= 0.0):
        raise NonPositiveVariance(
            f"variances must be strictly positive, got min {v.min():g}", operation="kl_term"
        )
    return np.sum(gap.gaps**2 / v, axis=-1)


def optimal_diag_cov(gap: GradientGap, zeta: float) -> TradeoffPoint:
    """Trace-constrained minimizer of kl_term.

    Zero-gap coordinates receive the floor 1e-8 * zeta and the remaining
    budget is split proportionally to the gaps. Raises AnisoError (operation
    "optimal_diag_cov") if the optimum value is not finite.
    """
    if not (zeta > 0.0 and math.isfinite(zeta)):
        raise ValueError(f"zeta must be positive and finite, got {zeta}")
    s = gap.gaps
    total = float(s.sum())
    zero = s == 0.0
    floor = ZERO_GAP_FLOOR * zeta
    v = np.empty_like(s)
    v[zero] = floor
    budget = zeta - floor * int(zero.sum())
    v[~zero] = budget * s[~zero] / total
    if not np.all(np.isfinite(v)):  # budget * s overflowed; the shares s / total cannot
        v[~zero] = budget * (s[~zero] / total)
    point = TradeoffPoint(v, kl_term(gap, v), float(v.sum()))
    if not math.isfinite(point.kl_term):
        raise AnisoError(f"kl_term at the optimum is not finite ({point.kl_term:g})",
                         operation="optimal_diag_cov")
    assert abs(point.accuracy_loss - zeta) <= 1e-12 * max(1.0, zeta)
    return point


@dataclass(frozen=True, eq=False)
class NoiseGrid:
    """The resolution x resolution grid of noise scales (x, y), x over x_range
    and y over y_range, each [lo, hi] with 0 < lo < hi; x and y list the points
    row-major in (x, y), and the noise covariance at (x, y) is diag(x^2, y^2)."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    resolution: int

    def __post_init__(self):
        failed = {}
        for name in ("x_range", "y_range"):
            r = np.asarray(getattr(self, name), dtype=float)
            if not (r.shape == (2,) and 0.0 < r[0] < r[1]):
                failed[name] = "must be [lo, hi] with 0 < lo < hi"
        if self.resolution < 2:
            failed["resolution"] = "must be >= 2"
        check_fields([f.name for f in fields(self)], failed)

    @cached_property
    def x(self) -> np.ndarray:
        return np.repeat(np.linspace(*self.x_range, self.resolution), self.resolution)

    @cached_property
    def y(self) -> np.ndarray:
        return np.tile(np.linspace(*self.y_range, self.resolution), self.resolution)

    @cached_property
    def variances(self) -> np.ndarray:
        """(G, 2) rows (x^2, y^2), the diagonal of each point's noise covariance."""
        return np.stack([self.x * self.x, self.y * self.y], axis=-1)

    @cached_property
    def covariances(self) -> SpdMatrix:
        """(G, 2, 2) stack of diag(x^2, y^2). A diagonal matrix's Cholesky pivots
        are its variances, so each axis's is checked as a (G, 1, 1) SpdMatrix
        first; raises FieldErrors with SpdMatrix's message at each range refused."""
        v = self.variances
        failed = {}
        for name, axis in zip(("x_range", "y_range"), v.T):
            try:
                SpdMatrix(axis[:, None, None])
            except ValueError as exc:
                failed[name] = str(exc)
        check_fields(("x_range", "y_range"), failed)
        return SpdMatrix(v[:, :, None] * np.eye(2))


def grid_surface(gap: GradientGap, grid: NoiseGrid) -> np.ndarray:
    """kl_term surface over the grid: rows (x, y, kl_term, trace) with
    diag_sigma = (x^2, y^2), row-major in (x, y). Raises AnisoError
    (operation "grid_surface") if a kl_term or trace is not finite."""
    v = grid.variances
    rows = np.column_stack([grid.x, grid.y, kl_term(gap, v), v[:, 0] + v[:, 1]])
    if not np.isfinite(rows).all():
        raise AnisoError(f"kl_term or trace is not finite (max {rows[:, 2:].max():g})",
                         operation="grid_surface")
    return rows


def _checked_laws(p: QuadraticProblem, p_other: QuadraticProblem, t: float,
                  grid: NoiseGrid) -> tuple[GaussianState, GaussianState]:
    """Both problems' time-t laws over the noise grid, their covariances
    factored. Raises ValueError unless both problems carry grid.covariances as
    their noise covariance, and NotPositiveDefinite where a law has a Cholesky
    pivot at or below linalg.PIVOT_FLOOR, as it has at t = 0."""
    cov = grid.covariances
    if p.noise_cov is not cov or p_other.noise_cov is not cov:
        raise ValueError("both problems must carry grid.covariances as their noise_cov")
    laws = exact_state(p, t), exact_state(p_other, t)
    for law in laws:
        # construction kept the factor of a definite law; a semidefinite one has
        # none, and this read refuses it
        law.cov.chol_lower  # noqa: B018
    return laws


def quadratic_tradeoff(p: QuadraticProblem, laws: tuple[GaussianState, GaussianState],
                       grid: NoiseGrid) -> np.ndarray:
    """Exact KL and accumulated-noise error over a noise grid for an adjacent
    quadratic pair: rows (x, y, exact_kl, error), row-major in (x, y). laws
    are the pair's time-t laws, each evaluated once over the whole grid, as
    _checked_laws(p, p_other, t, grid) returns them."""
    kl = gaussian_kl(*laws)
    return np.column_stack([grid.x, grid.y, kl, error_to_opt(p, laws[0].time)])
