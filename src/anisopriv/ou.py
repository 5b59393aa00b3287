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

The Euler-Maruyama chain of the same process is Gaussian too:
euler_law(p, step, counts) gives its law after one step count or an array of
them as a GaussianState at the times counts * step. Both laws come from one
eigenbasis assembly, _law, which the chain feeds lam^n for exp(-w t) and its
geometric noise sums for the integral, so gaussian_kl compares two chains as
it compares two processes. mismatch_moment(p_a, p_b, law) is the mean
whitened squared drift gap of two problems under any such law, which
bounds.euler_kl_bound sums over the chain's record grid.
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


def _law(p: QuadraticProblem, decay: np.ndarray, spread: np.ndarray, time) -> GaussianState:
    """Gaussian law at each time of time, one time or a (T,) array, from its
    factors in the Gram eigenbasis: decay (T, d), by which the start's distance
    to the optimum has shrunk along each eigenvector, and spread (T, d, d), the
    weights of the rotated noise S~ = q.T S q in the covariance. With
    E = q diag(decay) q.T the mean is (I - E) x* + E x0 and the covariance
    q (S~ * spread) q.T + E V0 E. A time 0 gives the initial law, x0 and v0 (or
    zeros), exactly."""
    ts = np.asarray(time, dtype=float)
    _, q, s_rot = _rotated_noise(p)
    e = (q * decay[:, None, :]) @ q.T
    mean = (np.eye(p.dim) - e) @ p.optimum + e @ p.x0
    cov = q @ (s_rot[..., None, :, :] * spread) @ q.T
    start = 0.0
    if p.v0 is not None:
        cov = cov + e @ p.v0.entries @ e
        start = p.v0.entries
    # e is the identity only up to rounding at time 0, so the start law is put there
    zero = ts.reshape(-1, 1, 1) == 0.0
    mean = np.where(zero[:, 0], p.x0, mean).reshape(*ts.shape, p.dim)
    cov = np.where(zero, start, _sym_part(cov)).reshape(*s_rot.shape[:-2], *ts.shape, p.dim, p.dim)
    return GaussianState(mean, SpdMatrix(cov, allow_semidefinite=True), ts[()])


def exact_state(p: QuadraticProblem, t) -> GaussianState:
    """Gaussian law of the process at each time of t, one time or a (T,) array
    of them, in [0, math.inf]; at math.inf it is the stationary law. A time 0
    gives the initial law, x0 and v0 (or zeros), exactly."""
    ts = np.array(t, dtype=float)
    if not np.all(ts >= 0.0):
        raise ValueError(f"time must be nonnegative, got {t}")
    tv = ts.reshape(-1, 1, 1)
    w, _ = p._eig
    rate = np.add.outer(w, w)
    return _law(p, np.exp(-tv[:, 0] * w), -np.expm1(-rate * tv) / rate, ts)


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


def euler_law(p: QuadraticProblem, step: float, counts) -> GaussianState:
    """Gaussian law of the Euler-Maruyama chain x' = x + step (pull - G x) +
    sqrt(step) S^{1/2} z started from p's initial law, after each of counts,
    one step count or a (T,) array of them, at the times counts * step; a
    count 0 gives the initial law, x0 and v0 (or zeros), exactly.

    In the Gram eigenbasis, with lam = 1 - step w, the chain's start decays by
    lam^n after n steps and its noise builds up as step S~_ij
    sum_{l<n} (lam_i lam_j)^l, with every geometric sum from one doubling pass
    (_geometric_sums), so lam_i lam_j = 1 (step w = 2) is no special case. A
    chain with step w > 2 diverges; once its moments overflow to inf or nan
    there is no law to hold, and the SpdMatrix check raises
    NotPositiveDefinite."""
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.reshape(-1)
    lam = 1.0 - step * p._eig[0]
    with np.errstate(over="ignore", invalid="ignore"):
        return _law(p, lam ** n[:, None], step * _geometric_sums(np.multiply.outer(lam, lam), n),
                    counts * step)


def mismatch_moment(p_a: QuadraticProblem, p_b: QuadraticProblem, law: GaussianState):
    """E|L^{-1} (b_a - b_b)(X)|^2 for X ~ law, a GaussianState: one value per
    time of a law over times, or one value for one law, where b = pull - G x is
    each problem's drift and L L.T = S is p_a's noise matrix. The drift gap A x + c, with
    A = G_b - G_a and c = pull_a - pull_b, is affine, so the moment is
    |L^{-1}(A m + c)|^2 + tr(L^{-1} A P A.T L^{-T})."""
    l = p_a.noise_cov.chol_lower
    wa = np.linalg.solve(l, p_b.gram - p_a.gram)
    gap = law.mean @ wa.T + np.linalg.solve(l, p_a._pull - p_b._pull)
    # tr(W P W.T) = sum_ij (W P)_ij W_ij
    return np.sum(gap * gap, axis=-1) + np.sum((wa @ law.cov.entries) * wa, axis=(-2, -1))


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
