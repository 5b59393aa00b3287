"""Relative-entropy bounds between diffusion laws.

Two ingredients:

* A Monte-Carlo evaluator of the drift/diffusion mismatch field

      mismatch(x) = (S_b(x) - S_a(x)) @ score_b(x) - (h_b(x) - h_a(x)),
      h(x) = drift(x) - div S(x),

  whose whitened squared norm, averaged over the first process's law and
  integrated in time, upper-bounds KL(law_a(t) || law_b(t)). mc_kl_bound
  simulates the first process itself and adds up the integrand at each
  recorded state inside the Euler loop, so the ensemble it averages over is
  the first process's by construction and is never stored. For two
  QuadraticProblems with a shared noise covariance the chain is Gaussian and
  the mismatch affine, and euler_kl_bound gives the exact expectation of that
  estimate, with no paths, from the chain's law ou.euler_law. At
  record_stride 1 it is the two Euler chains' exact path KL, so it bounds the
  KL of their laws; at a larger stride it is a left-endpoint sum over the
  record grid, which can fall below both that KL and the continuous laws'.

* Closed-form bounds for strongly convex losses with isotropic noise,
  driven by log-Sobolev constants, plus the gradient-moment and
  mean-square convergence estimates they rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ._fork import _row_blocks
from .errors import AnisoError, NotPositiveDefinite, ScoreRequired, check_fields
from .ou import GaussianState, QuadraticProblem, euler_law, mismatch_moment
from .sde import ConstantSpd, SimConfig, _euler, _record_times, _start_rows

# ---------------------------------------------------------------------------
# score specifications


@dataclass(frozen=True, eq=False)
class GaussianScore:
    """Score of a Gaussian law: x -> -cov^{-1} (x - mean)."""

    state: GaussianState

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        l = self.state.cov.chol_lower
        # cov^{-1} = L^{-T} L^{-1}: one solve with L, then one with L.T
        y = np.linalg.solve(l, (x - self.state.mean).T)
        return -np.linalg.solve(l.T, y).T


@dataclass(frozen=True, eq=False)
class CallableScore:
    """Arbitrary score; fn maps a (paths, dim) row stack of states to the
    (paths, dim) stack of their scores."""

    fn: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(x), dtype=float)


# ---------------------------------------------------------------------------
# mismatch field


def _covs_equal(cov_a, cov_b) -> bool:
    if cov_a is cov_b:
        return True
    if isinstance(cov_a, ConstantSpd) and isinstance(cov_b, ConstantSpd):
        return np.array_equal(cov_a.matrix.entries, cov_b.matrix.entries)
    return False


def phi(x, drift_a, drift_b, cov_a, cov_b, score=None) -> np.ndarray:
    """Mismatch field between (drift_a, cov_a) and (drift_b, cov_b) at the
    (paths, dim) row stack x, one row per state; raises ValueError for any
    other shape, a single point included.

    With identical covariance specifications this is drift_a(x) - drift_b(x);
    otherwise score, the second process's law's score spec, is required.
    """
    rows = np.asarray(x, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"x must be a (paths, dim) row stack, got shape {rows.shape}")

    if _covs_equal(cov_a, cov_b):
        return drift_a.evaluate(rows) - drift_b.evaluate(rows)

    if score is None:
        raise ScoreRequired(
            "covariances differ; a score for the second process is required",
            operation="phi",
        )
    s = score.evaluate(rows)
    h_gap = (
        drift_b.evaluate(rows)
        - cov_b.divergence(rows)
        - drift_a.evaluate(rows)
        + cov_a.divergence(rows)
    )
    delta = cov_b.matrices(rows) - cov_a.matrices(rows)
    return (delta @ s[..., None])[..., 0] - h_gap


# ---------------------------------------------------------------------------
# Monte-Carlo KL bound


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """Running KL upper bound on the ensemble's recorded grid.

    stderr is the Monte-Carlo standard error of each bound value (zero when
    the integrand is path-independent).
    """

    times: np.ndarray
    bounds: np.ndarray
    stderr: np.ndarray


def mc_kl_bound(drift_a, drift_b, cov_a, cov_b, x0, cfg: SimConfig,
                score_at=None) -> BoundCurve:
    """Estimate t -> (1/2) int_0^t E ||S_a^{-1/2} mismatch||^2 ds on cfg's
    recorded times, along the first process's law.

    Simulates the Euler-Maruyama ensemble of (drift_a, cov_a) from x0 under
    cfg, the ensemble simulate would return, and averages over its paths in
    space with a left-endpoint Riemann sum in time. The integrand is taken at
    each recorded state while the simulation runs, one row block at a time, so
    no trajectory is stored. The drifts are drift specs; an ou.QuadraticProblem
    is one. score_at is None when the diffusions are shared; otherwise
    score_at(t) returns the score spec of the second process's time-t law, and
    is called once per left endpoint t of the grid. Raises AnisoError
    (operation mc_kl_bound) when a bound or its standard error is not finite.
    """
    times = _record_times(cfg)
    n_rec = times.shape[0]
    blocks = _row_blocks(cfg.paths)
    w = np.zeros((cfg.paths, n_rec))

    def integrand(j, states):
        if j == n_rec - 1:  # left endpoints only
            return
        score = None if score_at is None else score_at(float(times[j]))
        x = states[0]
        for s in blocks:
            white = cov_a.whiten(x[s], phi(x[s], drift_a, drift_b, cov_a, cov_b, score))
            w[s, j] = np.sum(white * white, axis=1)

    _euler((drift_a,), cov_a, [_start_rows(x0, cfg)], cfg, integrand, range(cfg.n_steps))
    dt = np.diff(times)
    per_path = np.zeros((cfg.paths, n_rec))
    per_path[:, 1:] = 0.5 * np.cumsum(w[:, :-1] * dt, axis=1)
    bounds = per_path.mean(axis=0)
    if cfg.paths > 1:
        stderr = per_path.std(axis=0, ddof=1) / math.sqrt(cfg.paths)
    else:
        stderr = np.zeros(n_rec)
    if not (np.all(np.isfinite(bounds)) and np.all(np.isfinite(stderr))):
        raise AnisoError("the KL bound or its standard error is not finite",
                         operation="mc_kl_bound")
    return BoundCurve(times, bounds, stderr)


def euler_kl_bound(p_a: QuadraticProblem, p_b: QuadraticProblem, cfg: SimConfig) -> BoundCurve:
    """The expectation of mc_kl_bound's curve for two QuadraticProblems that
    share their noise matrix S, with no Monte Carlo error: on cfg's recorded
    times t_k, (1/2) sum_{i<k} (t_{i+1} - t_i) E|S^{-1/2}(b_a - b_b)(X_i)|^2,
    where X_i ~ ou.euler_law of p_a after the steps up to t_i and the moment
    is ou.mismatch_moment. cfg.paths and cfg.seed play no part, and stderr is
    zero. Raises ValueError when the noise matrices differ, and AnisoError
    (operation euler_kl_bound) when the chain diverges (step * w > 2 for a Gram
    eigenvalue w of p_a) long enough for its moments to overflow, or a bound
    is otherwise not finite."""
    if not np.array_equal(p_a.noise_cov.entries, p_b.noise_cov.entries):
        raise ValueError("the problems must share their noise covariance")
    times = _record_times(cfg)
    left = np.arange(times.shape[0] - 1) * cfg.record_stride
    bounds = np.zeros(times.shape[0])
    try:
        law = euler_law(p_a, cfg.step, left)
    except NotPositiveDefinite as exc:
        raise AnisoError("the Euler chain's moments overflow", operation="euler_kl_bound") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        bounds[1:] = 0.5 * np.cumsum(mismatch_moment(p_a, p_b, law) * np.diff(times))
    if not np.all(np.isfinite(bounds)):
        raise AnisoError("the KL bound on the Euler grid is not finite",
                         operation="euler_kl_bound")
    return BoundCurve(times, bounds, np.zeros(times.shape[0]))


# ---------------------------------------------------------------------------
# closed-form bounds


@dataclass(frozen=True, eq=False)
class RegularityParams:
    """Strong convexity / smoothness / noise-scale data for a pair of losses.

    kappa, grad_lip describe the first loss (strong convexity and gradient
    Lipschitz constants), the primed fields the second; sigma, sigma_prime
    are the isotropic noise scales; lsi0 is the log-Sobolev constant of the
    shared initial law; xstar, xstar_prime locate the two minimizers.
    """

    kappa: float
    grad_lip: float
    kappa_prime: float
    grad_lip_prime: float
    sigma: float
    sigma_prime: float
    lsi0: float
    xstar: np.ndarray
    xstar_prime: np.ndarray

    def __post_init__(self):
        failed = {}
        for name in ("kappa", "grad_lip", "kappa_prime", "grad_lip_prime",
                     "sigma", "sigma_prime", "lsi0"):
            v = float(getattr(self, name))
            if not 0.0 < v < math.inf:
                failed[name] = "must be positive" if not v > 0.0 else "must be finite"
            object.__setattr__(self, name, v)
        for kappa, lip in (("kappa", "grad_lip"), ("kappa_prime", "grad_lip_prime")):
            if not failed.keys() & {kappa, lip} and getattr(self, kappa) > getattr(self, lip):
                failed[kappa] = f"cannot exceed {lip}"
        a = np.asarray(self.xstar, dtype=float).ravel()
        b = np.asarray(self.xstar_prime, dtype=float).ravel()
        if a.shape != b.shape:
            failed["xstar_prime"] = "length must match xstar"
        object.__setattr__(self, "xstar", a)
        object.__setattr__(self, "xstar_prime", b)
        check_fields([f.name for f in fields(self)], failed)

    @property
    def opt_gap_sq(self) -> float:
        return float(np.sum((self.xstar - self.xstar_prime) ** 2))


def lsi_rate(sigma: float, kappa: float) -> float:
    """Exponential rate sigma^2 kappa / 2 of the log-Sobolev constant flow."""
    return sigma**2 * kappa / 2.0


def lsi_constant(t: float, rho: float, c0: float) -> float:
    """(2/rho)(1 - e^{-rho t}) + c0 e^{-rho t}; monotone from c0 to 2/rho."""
    if not (rho > 0.0):
        raise ValueError(f"rho must be positive, got {rho}")
    if not (0.0 < c0 < math.inf):
        raise ValueError(f"c0 must be positive and finite, got {c0}")
    if not (t >= 0.0):
        raise ValueError(f"t must be nonnegative, got {t}")
    decay = math.exp(-rho * t)
    return (2.0 / rho) * (1.0 - decay) + c0 * decay


def _moment_brace(p: RegularityParams, m2l2: float, decay: float) -> float:
    """2 (L^2 / m2l2 + 2)(sigma^2 / (2 kappa) + decay) + |xstar - xstar'|^2: the
    gradient-moment brace, with decay the weight of the initial moment."""
    return (2.0 * (p.grad_lip**2 / m2l2 + 2.0) * (p.sigma**2 / (2.0 * p.kappa) + decay)
            + p.opt_gap_sq)


def klbound_closed(p: RegularityParams, *, stationary_limit: bool = False) -> float:
    """Time-uniform KL bound for the strongly convex isotropic pair.

    Its brace is xi_bound's at coupling 1 and t = 0. stationary_limit drops
    the +1 moment slack (the brace at t = math.inf), the variant valid when the
    first process starts at its stationary law.
    """
    brace = _moment_brace(p, p.grad_lip_prime**2, 0.0 if stationary_limit else 1.0)
    lead = 8.0 * p.grad_lip_prime**2 / p.sigma**2
    tail = (4.0 + p.lsi0 * p.sigma_prime**2 * p.kappa_prime) / (
        p.sigma**2 * p.sigma_prime**2 * p.kappa_prime
    )
    return lead * brace * tail


def klbound_stationary(p: RegularityParams) -> float:
    """KL bound between the two stationary laws."""
    brace = (
        2.0
        * (p.sigma_prime**2 * p.grad_lip**2 / (p.sigma**2 * p.grad_lip_prime**2) + 2.0)
        * p.sigma**2
        / (2.0 * p.kappa)
        + p.opt_gap_sq
    )
    lead = p.grad_lip_prime**2 / (2.0 * p.kappa_prime * p.sigma_prime**6)
    return lead * brace


def xi_bound(t: float, p: RegularityParams, coupling: float) -> float:
    """Second moment bound for ||grad_a - coupling * grad_b||^2 along the
    first process dx = -grad f_a(x) dt + sigma dW, for a start with
    E|x_0 - xstar|^2 <= 1, the moment that the e^{-2 kappa t} term carries;
    nonincreasing in t, finite limit at t = math.inf."""
    if not (coupling > 0.0):
        raise ValueError(f"coupling must be positive, got {coupling}")
    if not (t >= 0.0):
        raise ValueError(f"t must be nonnegative, got {t}")
    m2l2 = coupling**2 * p.grad_lip_prime**2
    return 2.0 * m2l2 * _moment_brace(p, m2l2, math.exp(-2.0 * p.kappa * t))


def convergence_bound(t: float, kappa: float, trace_sigma: float, v0: float) -> float:
    """Upper bound on (1/2) E ||x_t - xstar||^2 for dx = -grad f(x) dt + S^{1/2} dW
    with f kappa-strongly convex, tr S = trace_sigma and
    v0 = (1/2) E ||x_0 - xstar||^2. It is exact for f = (kappa/2) ||x - xstar||^2
    and isotropic S; at t = math.inf it is the stationary trace_sigma / (4 kappa)."""
    if not (kappa > 0.0):
        raise ValueError(f"kappa must be positive, got {kappa}")
    if trace_sigma < 0.0:
        raise ValueError(f"trace_sigma must be nonnegative, got {trace_sigma}")
    if v0 < 0.0:
        raise ValueError(f"v0 must be nonnegative, got {v0}")
    if not (t >= 0.0):
        raise ValueError(f"t must be nonnegative, got {t}")
    decay = math.exp(-2.0 * kappa * t)
    return v0 * decay + trace_sigma / (4.0 * kappa) * (1.0 - decay)
