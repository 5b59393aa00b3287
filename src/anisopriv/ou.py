"""Exact Gaussian laws for linear drift with constant diffusion.

For the process dx = -G (x - x_opt) dt + S^{1/2} dW with G = B.T @ B built
from a least-squares design, the time-t law is Gaussian with

    mean(t) = (I - exp(-G t)) G^{-1} B.T b + exp(-G t) x0
    cov(t)  = int_0^t exp(-G (t-u)) S exp(-G (t-u)) du  +  exp(-G t) V0 exp(-G t)

G is symmetric, so in its eigenbasis (G = Q diag(w) Q.T) the integral has a
closed form for every S, commuting with G or not. With S~ = Q.T S Q,

    cov(t) = Q [S~_ij (1 - exp(-(w_i + w_j) t)) / (w_i + w_j)] Q.T
             + exp(-G t) V0 exp(-G t)

using expm1 for small (w_i + w_j) t. At t = inf the same form is the stationary
law: exp(-G t) = 0 puts the mean at the optimum, and the covariance is
S~_ij / (w_i + w_j), the solution of G V + V G = S.

A QuadraticProblem is an sde.QuadraticDrift that adds the noise covariance
and the initial law, so the same object is the drift a simulation or
bounds.mc_kl_bound evaluates and the law whose exact state this module
computes.

S may be one (d, d) matrix or a (G, d, d) stack, for G processes that share
the drift, and t one time or a (T,) array. One pass gives (T, d) means,
(G, T, d, d) covariances and (G, T) KLs and errors: time sits next to the
matrix axes, so each time's mean, shared by its G laws, broadcasts against
them. One matrix or one time is the same computation without its axis.

The Euler-Maruyama chain of the same process is Gaussian too: euler_law gives
its law after each of an array of step counts, from the same eigenbasis, and
mismatch_moment the mean whitened squared drift gap of two problems under any
such law, which bounds.euler_kl_bound sums into the KL bound on the chain's
grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AnisoError
from .linalg import SpdMatrix, _sym_part, log_det
from .sde import QuadraticDrift

_MIN_GRAM_EIG = 1e-12


@dataclass(frozen=True, eq=False)
class QuadraticProblem(QuadraticDrift):
    """Least-squares drift -design.T @ (design @ x - target) plus constant noise
    from x0 (and initial covariance v0); noise_cov may hold a (G, d, d) stack of
    noise covariances. The Gram matrix must be finite and strictly positive
    definite."""

    noise_cov: SpdMatrix
    x0: np.ndarray
    v0: SpdMatrix | None = None

    def __post_init__(self):
        super().__post_init__()
        x0 = np.asarray(self.x0, dtype=float).ravel()
        if self.dim != x0.shape[0]:
            raise ValueError(f"x0 length {x0.shape[0]} does not match design columns {self.dim}")
        if self.noise_cov.dim != self.dim:
            raise ValueError("noise covariance dimension does not match the design")
        if self.v0 is not None and self.v0.dim != self.dim:
            raise ValueError("initial covariance dimension does not match the design")
        object.__setattr__(self, "x0", x0)
        self._eig  # noqa: B018  - eager rank check

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Gram eigenpairs (w, q); raises ValueError unless the Gram matrix is
        finite and strictly positive definite."""
        if not np.isfinite(self.gram).all():
            raise ValueError("design.T @ design overflows")
        w, q = np.linalg.eigh(self.gram)
        if w.min() <= _MIN_GRAM_EIG:
            raise ValueError("design.T @ design must be strictly positive definite")
        return w, q

    @cached_property
    def optimum(self) -> np.ndarray:
        """argmin of the objective: gram^{-1} design.T target."""
        w, q = self._eig
        return q @ ((q.T @ self._pull) / w)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian law snapshot; the covariance may be only semidefinite, as at time
    zero. Over a (T,) time array the mean is (T, d), and a (G, T, d, d)
    covariance stack holds G laws per time that share its mean."""

    mean: np.ndarray
    cov: SpdMatrix
    time: float | np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape[-1:] != (self.cov.dim,):
            raise ValueError("mean length does not match covariance dimension")
        if not np.all(np.asarray(self.time) >= 0.0):
            raise ValueError(f"time must be nonnegative, got {self.time}")
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.cov.dim


def _rotated_noise(p: QuadraticProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram eigenpairs (w, q) and the noise covariance(s) in that basis, q.T S q."""
    w, q = p._eig
    return w, q, q.T @ p.noise_cov.entries @ q


def exact_state(p: QuadraticProblem, t) -> GaussianState:
    """Gaussian law of the process at each time of t, one time or a (T,) array
    of them, in [0, math.inf]; at math.inf it is the stationary law. A time 0
    gives the initial law, x0 and v0 (or zeros), exactly."""
    ts = np.array(t, dtype=float)
    if not np.all(ts >= 0.0):
        raise ValueError(f"time must be nonnegative, got {t}")
    tv = ts.reshape(-1, 1, 1)
    w, q, s_rot = _rotated_noise(p)
    e = (q * np.exp(-tv * w)) @ q.T
    mean = (np.eye(p.dim) - e) @ p.optimum + e @ p.x0
    rate = np.add.outer(w, w)
    cov = q @ (s_rot[..., None, :, :] * (-np.expm1(-rate * tv) / rate)) @ q.T
    start = 0.0
    if p.v0 is not None:
        cov = cov + e @ p.v0.entries @ e
        start = p.v0.entries
    # e is the identity only up to rounding at t = 0, so the start law is put there
    zero = tv == 0.0
    mean = np.where(zero[:, 0], p.x0, mean).reshape(*ts.shape, p.dim)
    cov = np.where(zero, start, _sym_part(cov)).reshape(*s_rot.shape[:-2], *ts.shape, p.dim, p.dim)
    return GaussianState(mean, SpdMatrix(cov, allow_semidefinite=True), ts[()])


def _geometric_sums(r: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sum_{l<n} r^l for each n of counts, a (T, *r.shape) stack, by binary
    doubling over the bits of the largest n: S(2k) = S(k)(1 + r^k) and
    S(k + 1) = 1 + r S(k). No step divides, so r = 1 needs no case of its own."""
    total = np.zeros((counts.shape[0], *r.shape))
    power = np.ones_like(total)
    for bit in reversed(range(int(counts.max(initial=0)).bit_length())):
        total = total * (1.0 + power)
        power = power * power
        odd = ((counts >> bit) & 1).astype(bool).reshape(-1, *(1,) * r.ndim)
        total = np.where(odd, 1.0 + r * total, total)
        power = np.where(odd, power * r, power)
    return total


def euler_law(p: QuadraticProblem, step: float, counts) -> tuple[np.ndarray, np.ndarray]:
    """Means (T, d) and covariances (T, d, d) of the Euler-Maruyama chain
    x' = x + step (pull - G x) + sqrt(step) S^{1/2} z started from p's initial
    law, after each of the T step counts in counts; one noise matrix S.

    The chain is Gaussian. In the Gram eigenbasis, with lam = 1 - step w, the
    mean after n steps is x*~ + lam^n (x0~ - x*~) and the covariance
    lam_i^n lam_j^n V0~_ij + step S~_ij sum_{l<n} (lam_i lam_j)^l, with every
    geometric sum from one doubling pass (_geometric_sums), so
    lam_i lam_j = 1 (step w = 2) is no special case. A chain with step w > 2
    diverges; its moments grow until they overflow to inf or nan, which the
    caller must check."""
    counts = np.asarray(counts, dtype=np.int64)
    w, q, s_rot = _rotated_noise(p)
    lam = 1.0 - step * w
    with np.errstate(over="ignore", invalid="ignore"):
        lam_n = lam ** counts[:, None]
        opt = q.T @ p.optimum
        means = (opt + lam_n * (q.T @ p.x0 - opt)) @ q.T
        # step * S~ first, so that a finite S near the float maximum stays finite
        covs = (step * s_rot) * _geometric_sums(np.multiply.outer(lam, lam), counts)
        if p.v0 is not None:
            covs = covs + lam_n[:, :, None] * (q.T @ p.v0.entries @ q) * lam_n[:, None, :]
        covs = q @ covs @ q.T
    return means, covs


def mismatch_moment(p_a: QuadraticProblem, p_b: QuadraticProblem, means, covs):
    """E|L^{-1} (b_a - b_b)(X)|^2 for X ~ N(mean, cov), one value per law of
    the (T, d) means and (T, d, d) covariances (or one law without the T
    axis), where b = pull - G x is each problem's drift and L L.T = S is p_a's
    noise matrix. The drift gap A x + c, with A = G_b - G_a and
    c = pull_a - pull_b, is affine, so the moment is
    |L^{-1}(A m + c)|^2 + tr(L^{-1} A P A.T L^{-T})."""
    l = p_a.noise_cov.chol_lower
    wa = np.linalg.solve(l, p_b.gram - p_a.gram)
    gap = means @ wa.T + np.linalg.solve(l, p_a._pull - p_b._pull)
    # tr(W P W.T) = sum_ij (W P)_ij W_ij
    return np.sum(gap * gap, axis=-1) + np.sum((wa @ covs) * wa, axis=(-2, -1))


def gaussian_kl(state: GaussianState, other: GaussianState) -> float | np.ndarray:
    """KL(state || other) between Gaussians; both covariances strictly SPD. For
    laws over times and covariance stacks, the (T,), (G,) or (G, T) KLs between
    matching laws. Raises AnisoError (operation "gaussian_kl") if a KL is not
    finite."""
    if state.dim != other.dim:
        raise ValueError("states must share dimension")
    d = state.dim
    lp = state.cov.chol_lower
    lq = other.cov.chol_lower
    # trace(Vq^{-1} Vp) = ||Lq^{-1} Lp||_F^2 and quad = ||Lq^{-1} dm||^2
    a = np.linalg.solve(lq, lp)
    tr = np.sum(a * a, axis=(-2, -1))
    w = np.linalg.solve(lq, (other.mean - state.mean)[..., None])
    # w.T @ w for each law, as a matmul so that it stays a BLAS dot product
    quad = (w.swapaxes(-1, -2) @ w)[..., 0, 0]
    logdet = log_det(other.cov) - log_det(state.cov)
    kl = 0.5 * (logdet - d + tr + quad)
    if not np.isfinite(kl).all():
        raise AnisoError(f"KL divergence is not finite (max {np.max(kl):g})",
                         operation="gaussian_kl")
    return np.maximum(0.0, kl)


def error_to_opt(p: QuadraticProblem, t) -> float | np.ndarray:
    """Accumulated noise energy around the optimum:
    int_0^t ||exp(gram (u-t)) L||_F^2 du with L L.T = noise_cov, which is
    (1/2) sum_i (q.T S q)_ii (1 - exp(-2 w_i t)) / w_i; at t = math.inf this
    is (1/2) tr(L.T gram^{-1} L), and at t = 0 it is 0.0. Shaped as the KLs of
    exact_state's laws at t. Raises AnisoError (operation "error_to_opt") if
    an error is not finite."""
    ts = np.asarray(t, dtype=float)
    if not np.all(ts >= 0.0):
        raise ValueError(f"time must be nonnegative, got {t}")
    w, _, s_rot = _rotated_noise(p)
    s_diag = np.diagonal(s_rot, axis1=-2, axis2=-1)[..., None, :]
    err = 0.5 * np.sum(s_diag * -np.expm1(-2.0 * w * ts.reshape(-1, 1)) / w, axis=-1)
    if not np.isfinite(err).all():
        raise AnisoError(f"accumulated noise error is not finite (max {np.max(err):g})",
                         operation="error_to_opt")
    return err.reshape(s_rot.shape[:-2] + ts.shape)[()]
