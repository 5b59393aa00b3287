"""Exact Gaussian laws for linear drift with constant diffusion.

For the process dx = -G (x - x_opt) dt + S^{1/2} dW with G = B.T @ B built
from a least-squares design, the time-t law is Gaussian with

    mean(t) = (I - exp(-G t)) G^{-1} B.T b + exp(-G t) x0
    cov(t)  = int_0^t exp(-G (t-u)) S exp(-G (t-u)) du  +  exp(-G t) V0 exp(-G t)

G is symmetric, so in its eigenbasis (G = Q diag(w) Q.T) the integral has a
closed form for every S, commuting with G or not. With S~ = Q.T S Q,

    cov(t) = Q [S~_ij (1 - exp(-(w_i + w_j) t)) / (w_i + w_j)] Q.T
             + exp(-G t) V0 exp(-G t)

using expm1 for small (w_i + w_j) t. At t = inf this is the stationary
covariance S~_ij / (w_i + w_j), the solution of G V + V G = S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .linalg import SpdMatrix

_MIN_GRAM_EIG = 1e-12


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """Least-squares drift -design.T @ (design @ x - target) plus constant noise."""

    design: np.ndarray
    target: np.ndarray
    noise_cov: SpdMatrix
    x0: np.ndarray
    v0: SpdMatrix | None = None

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.design, dtype=float))
        t = np.asarray(self.target, dtype=float).ravel()
        x0 = np.asarray(self.x0, dtype=float).ravel()
        if b.shape[0] != t.shape[0]:
            raise ValueError(f"target length {t.shape[0]} does not match design rows {b.shape[0]}")
        if b.shape[1] != x0.shape[0]:
            raise ValueError(f"x0 length {x0.shape[0]} does not match design columns {b.shape[1]}")
        if self.noise_cov.dim != b.shape[1]:
            raise ValueError("noise covariance dimension does not match the design")
        if self.v0 is not None and self.v0.dim != b.shape[1]:
            raise ValueError("initial covariance dimension does not match the design")
        object.__setattr__(self, "design", b)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "x0", x0)
        gram = b.T @ b
        if np.linalg.eigvalsh(gram).min() <= _MIN_GRAM_EIG:
            raise ValueError("design.T @ design must be strictly positive definite")

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        g = self.design.T @ self.design
        g = (g + g.T) / 2.0
        g.flags.writeable = False
        return g

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        w, q = np.linalg.eigh(self.gram)
        return w, q

    @cached_property
    def optimum(self) -> np.ndarray:
        """argmin of the objective: gram^{-1} design.T target."""
        w, q = self._eig
        rhs = self.design.T @ self.target
        return q @ ((q.T @ rhs) / w)

    def drift(self, x: np.ndarray) -> np.ndarray:
        """-design.T @ (design @ x - target); accepts a vector or (paths, dim) rows."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return -self.design.T @ (self.design @ x - self.target)
        return -(x @ self.design.T - self.target) @ self.design

    def _expm_gram(self, scale: float) -> np.ndarray:
        w, q = self._eig
        return (q * np.exp(scale * w)) @ q.T


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian law snapshot; covariance may be PSD at time zero only."""

    mean: np.ndarray
    cov: SpdMatrix
    time: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        if mean.shape[0] != self.cov.dim:
            raise ValueError("mean length does not match covariance dimension")
        if not (self.time >= 0.0):
            raise ValueError(f"time must be nonnegative, got {self.time}")
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.cov.dim


def _rotated_noise(p: QuadraticProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram eigenpairs (w, q) and the noise covariance in that basis, q.T S q."""
    w, q = p._eig
    return w, q, q.T @ p.noise_cov.entries @ q


def exact_state(p: QuadraticProblem, t: float) -> GaussianState:
    """Gaussian law of the process at time t (math.inf delegates to the
    stationary law)."""
    if math.isinf(t):
        return invariant_state(p)
    if not (t >= 0.0):
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        v0 = p.v0.entries if p.v0 is not None else np.zeros((p.dim, p.dim))
        return GaussianState(p.x0.copy(), SpdMatrix(v0, allow_semidefinite=True), 0.0)

    e = p._expm_gram(-t)
    mean = (np.eye(p.dim) - e) @ p.optimum + e @ p.x0

    w, q, s_rot = _rotated_noise(p)
    rate = np.add.outer(w, w)
    cov = q @ (s_rot * (-np.expm1(-rate * t) / rate)) @ q.T
    if p.v0 is not None:
        cov = cov + e @ p.v0.entries @ e
    cov = (cov + cov.T) / 2.0
    return GaussianState(mean, SpdMatrix(cov, allow_semidefinite=True), float(t))


def invariant_state(p: QuadraticProblem) -> GaussianState:
    """Stationary Gaussian law: mean at the optimum, covariance from the
    Lyapunov identity gram @ V + V @ gram = noise_cov."""
    w, q, s_rot = _rotated_noise(p)
    cov = q @ (s_rot / np.add.outer(w, w)) @ q.T
    cov = (cov + cov.T) / 2.0
    return GaussianState(p.optimum.copy(), SpdMatrix(cov), math.inf)


def gaussian_kl(state: GaussianState, other: GaussianState) -> float:
    """KL(state || other) between Gaussians; both covariances strictly SPD."""
    if state.dim != other.dim:
        raise ValueError("states must share dimension")
    d = state.dim
    lp = state.cov.chol_lower
    lq = other.cov.chol_lower
    # log det ratio from the triangular factors
    logdet = 2.0 * float(np.sum(np.log(np.diag(lq))) - np.sum(np.log(np.diag(lp))))
    # trace(Vq^{-1} Vp) = ||Lq^{-1} Lp||_F^2
    a = solve_triangular(lq, lp, lower=True)
    tr = float(np.sum(a * a))
    dm = other.mean - state.mean
    quad = float(dm @ cho_solve((lq, True), dm))
    kl = 0.5 * (logdet - d + tr + quad)
    return max(0.0, kl)


def error_to_opt(p: QuadraticProblem, t: float) -> float:
    """Accumulated noise energy around the optimum:
    int_0^t ||exp(gram (u-t)) L||_F^2 du with L L.T = noise_cov, which is
    (1/2) sum_i (q.T S q)_ii (1 - exp(-2 w_i t)) / w_i; at t = math.inf this
    is (1/2) tr(L.T gram^{-1} L)."""
    if not (t > 0.0):
        raise ValueError(f"time must be positive or math.inf, got {t}")
    w, _, s_rot = _rotated_noise(p)
    return 0.5 * float(np.sum(np.diag(s_rot) * -np.expm1(-2.0 * w * t) / w))
