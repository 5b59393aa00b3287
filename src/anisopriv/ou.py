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

S may be one (d, d) matrix or a (G, d, d) stack, for G processes that share
the drift. The eigenbasis, mean and optimum are computed once per problem, and
the covariances, KL divergences and errors of a stack come out with the
leading G axis; one matrix is the same computation without that axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AnisoError
from .linalg import SpdMatrix, log_det

_MIN_GRAM_EIG = 1e-12


def _check_full_rank(design: np.ndarray) -> None:
    """Raise ValueError unless design.T @ design is finite and strictly positive
    definite."""
    gram = design.T @ design
    if not np.isfinite(gram).all():
        raise ValueError("design.T @ design overflows")
    if np.linalg.eigvalsh(gram).min() <= _MIN_GRAM_EIG:
        raise ValueError("design.T @ design must be strictly positive definite")


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """Least-squares drift -design.T @ (design @ x - target) plus constant noise;
    noise_cov may hold a (G, d, d) stack of noise covariances."""

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
        _check_full_rank(b)

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

    def _expm_gram(self, scale: float) -> np.ndarray:
        w, q = self._eig
        return (q * np.exp(scale * w)) @ q.T


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian law snapshot; covariance may be PSD at time zero only. A (G, d, d)
    covariance stack holds G laws that share the mean."""

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
    """Gram eigenpairs (w, q) and the noise covariance(s) in that basis, q.T S q."""
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
        v0 = np.broadcast_to(v0, p.noise_cov.entries.shape)
        return GaussianState(p.x0.copy(), SpdMatrix(v0, allow_semidefinite=True), 0.0)

    e = p._expm_gram(-t)
    mean = (np.eye(p.dim) - e) @ p.optimum + e @ p.x0

    w, q, s_rot = _rotated_noise(p)
    rate = np.add.outer(w, w)
    cov = q @ (s_rot * (-np.expm1(-rate * t) / rate)) @ q.T
    if p.v0 is not None:
        cov = cov + e @ p.v0.entries @ e
    cov = (cov + cov.swapaxes(-1, -2)) / 2.0
    return GaussianState(mean, SpdMatrix(cov, allow_semidefinite=True), float(t))


def invariant_state(p: QuadraticProblem) -> GaussianState:
    """Stationary Gaussian law: mean at the optimum, covariance from the
    Lyapunov identity gram @ V + V @ gram = noise_cov."""
    w, q, s_rot = _rotated_noise(p)
    cov = q @ (s_rot / np.add.outer(w, w)) @ q.T
    cov = (cov + cov.swapaxes(-1, -2)) / 2.0
    return GaussianState(p.optimum.copy(), SpdMatrix(cov), math.inf)


def gaussian_kl(state: GaussianState, other: GaussianState) -> float | np.ndarray:
    """KL(state || other) between Gaussians; both covariances strictly SPD. For
    covariance stacks, the (G,) KLs between matching laws. Raises AnisoError
    (operation "gaussian_kl") if a KL is not finite."""
    if state.dim != other.dim:
        raise ValueError("states must share dimension")
    d = state.dim
    lp = state.cov.chol_lower
    lq = other.cov.chol_lower
    # trace(Vq^{-1} Vp) = ||Lq^{-1} Lp||_F^2 and quad = ||Lq^{-1} dm||^2
    a = np.linalg.solve(lq, lp)
    tr = np.sum(a * a, axis=(-2, -1))
    w = np.linalg.solve(lq, (other.mean - state.mean)[:, None])
    # w.T @ w for each law, as a matmul so that it stays a BLAS dot product
    quad = (w.swapaxes(-1, -2) @ w)[..., 0, 0]
    logdet = log_det(other.cov) - log_det(state.cov)
    kl = 0.5 * (logdet - d + tr + quad)
    if not np.isfinite(kl).all():
        raise AnisoError(f"KL divergence is not finite (max {np.max(kl):g})",
                         operation="gaussian_kl")
    return np.maximum(0.0, kl)


def error_to_opt(p: QuadraticProblem, t: float) -> float | np.ndarray:
    """Accumulated noise energy around the optimum:
    int_0^t ||exp(gram (u-t)) L||_F^2 du with L L.T = noise_cov, which is
    (1/2) sum_i (q.T S q)_ii (1 - exp(-2 w_i t)) / w_i; at t = math.inf this
    is (1/2) tr(L.T gram^{-1} L). A (G,) array for a noise stack. Raises
    AnisoError (operation "error_to_opt") if an error is not finite."""
    if not (t > 0.0):
        raise ValueError(f"time must be positive or math.inf, got {t}")
    w, _, s_rot = _rotated_noise(p)
    s_diag = np.diagonal(s_rot, axis1=-2, axis2=-1)
    err = 0.5 * np.sum(s_diag * -np.expm1(-2.0 * w * t) / w, axis=-1)
    if not np.isfinite(err).all():
        raise AnisoError(f"accumulated noise error is not finite (max {np.max(err):g})",
                         operation="error_to_opt")
    return err
