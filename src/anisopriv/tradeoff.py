"""Noise-allocation trade-off: privacy term vs accuracy cost.

For a per-coordinate gradient gap s and a diagonal noise covariance with
variances v, the privacy-relevant term is sum_i s_i^2 / v_i and the accuracy
cost is the trace sum_i v_i. Minimizing the former at fixed trace zeta has
the closed-form solution v_i = zeta * s_i / sum_j s_j, with optimum value
(sum_i s_i)^2 / zeta.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AnisoError, DegenerateGap, NonPositiveVariance
from .linalg import SpdMatrix
from .ou import QuadraticProblem, error_to_opt, exact_state, gaussian_kl

# Variance floor for zero-gap coordinates, as a fraction of the trace budget.
ZERO_GAP_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class GradientGap:
    """Per-coordinate magnitude of the gradient difference between two
    adjacent losses; entries are nonnegative."""

    gaps: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gaps, dtype=float).ravel()
        if g.size == 0:
            raise ValueError("gap vector must be nonempty")
        if not np.all(np.isfinite(g)) or np.any(g < 0.0):
            raise ValueError("gap entries must be finite and nonnegative")
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
    if total == 0.0:
        raise DegenerateGap("all gap entries are zero", operation="optimal_diag_cov")
    zero = s == 0.0
    floor = ZERO_GAP_FLOOR * zeta
    v = np.empty_like(s)
    v[zero] = floor
    budget = zeta - floor * int(zero.sum())
    v[~zero] = budget * s[~zero] / total
    point = TradeoffPoint(v, kl_term(gap, v), float(v.sum()))
    if not math.isfinite(point.kl_term):
        raise AnisoError(f"kl_term at the optimum is not finite ({point.kl_term:g})",
                         operation="optimal_diag_cov")
    assert abs(point.accuracy_loss - zeta) <= 1e-12 * max(1.0, zeta)
    return point


def _grid(x_range: tuple[float, float], y_range: tuple[float, float], resolution: int,
          operation: str) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) coordinates of the resolution x resolution grid, row-major in (x, y)."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    if xs[0] <= 0.0 or ys[0] <= 0.0:
        raise NonPositiveVariance("grid ranges must be strictly positive", operation=operation)
    return np.repeat(xs, resolution), np.tile(ys, resolution)


def grid_surface(gap: GradientGap, x_range: tuple[float, float],
                 y_range: tuple[float, float], resolution: int) -> np.ndarray:
    """kl_term surface over a square-root grid: rows (x, y, kl_term, trace)
    with diag_sigma = (x^2, y^2), row-major in (x, y). Raises AnisoError
    (operation "grid_surface") if a kl_term or trace is not finite."""
    if gap.dim != 2:
        raise ValueError("grid_surface requires a 2-dimensional gap")
    x, y = _grid(x_range, y_range, resolution, "grid_surface")
    v = np.stack([x * x, y * y], axis=-1)
    rows = np.column_stack([x, y, kl_term(gap, v), v[:, 0] + v[:, 1]])
    if not np.isfinite(rows).all():
        raise AnisoError(f"kl_term or trace is not finite (max {rows[:, 2:].max():g})",
                         operation="grid_surface")
    return rows


def quadratic_tradeoff(p: QuadraticProblem, p_other: QuadraticProblem, t: float,
                       x_range: tuple[float, float], y_range: tuple[float, float],
                       resolution: int) -> np.ndarray:
    """Exact KL and accumulated-noise error over a noise grid for an adjacent
    quadratic pair: rows (x, y, exact_kl, error) with the shared noise
    covariance set to diag(x^2, y^2) at every grid point. The whole grid is one
    noise stack, so each arm's law is evaluated once."""
    if p.dim != 2 or p_other.dim != 2:
        raise ValueError("quadratic_tradeoff requires 2-dimensional problems")
    if not np.array_equal(p.noise_cov.entries, p_other.noise_cov.entries):
        raise ValueError("the problem pair must share its noise covariance")
    x, y = _grid(x_range, y_range, resolution, "quadratic_tradeoff")
    noise = np.zeros((x.size, 2, 2))
    noise[:, 0, 0] = x * x
    noise[:, 1, 1] = y * y
    cov = SpdMatrix(noise)
    pa = replace(p, noise_cov=cov)
    pb = replace(p_other, noise_cov=cov)
    kl = gaussian_kl(exact_state(pa, t), exact_state(pb, t))
    return np.column_stack([x, y, kl, error_to_opt(pa, t)])


def write_grid_csv(rows: np.ndarray, path, *, header: tuple[str, str, str, str]) -> None:
    """Four-column grid CSV at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(header))
        for r in rows:
            w.writerow([f"{v:.17g}" for v in r])
