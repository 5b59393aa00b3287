"""Euler-Maruyama ensembles with pluggable drift and diffusion.

The update is x_{k+1} = x_k + h * drift(x_k) + sqrt(h) * sqrt_cov(x_k) @ z_k
with z_k standard normal. Increments come from a counter-based stream keyed
by (seed, step), drawn row-major over (path, coordinate), so results do not
depend on execution order and paired ensembles can share noise exactly.

One Euler loop serves every consumer of an ensemble. It draws the normals of
the next few steps on one helper thread while the main thread integrates; when
the step it needs next is still being drawn, the main thread draws the
farthest step whose draw has not started, rather than wait. It applies the
update to blocks of at most 2048 rows. Neither changes an output bit: a step's
normals depend on (seed, step) alone, and each row's update on its own row.
At each recorded time the loop hands the states to a callback: simulate and
paired_simulate store them, and bounds.mc_kl_bound adds up its integrand on
the same row blocks without storing any trajectory.

paired_simulate integrates step 0 of both arms in this process and times it.
When one arm's row updates cost more than the step's draw, by enough over the
remaining steps to pay for a fork (see _split_pays), and two CPUs are usable,
arm b's remaining steps run in a forked child (_fork._in_processes) while this
process integrates arm a's: the work is the drift, covariance and grad_fn
calls made row by row in Python, which threads would run one at a time. The
ensembles are the same bit for bit, since each arm's update reads only its own
rows and the (seed, step) normals, which each process draws for itself.

Every drift, covariance and score specification takes the states as a
(paths, dim) row stack, which is what the simulators and the bounds pass, and
returns a row stack. MinibatchSgd clamps the eigenvalues of its covariance at
a fixed 1e-10, above the 1e-14 pivot floor that its whiten needs; there is no
setting for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Any, Callable

import numpy as np

from ._fork import _in_processes, _usable_cpus
from .errors import (AnisoError, BatchLargerThanDataset, CovarianceEvaluationFailed,
                     NotPositiveDefinite, check_fields)
from .linalg import SpdMatrix, SymMatrix, _sym_part
from .rng import step_normals

_FD_STEP = 1e-6
_PSD_FLOOR = 1e-10  # MinibatchSgd's eigenvalue clamp; above PIVOT_FLOOR, so whiten inverts


# ---------------------------------------------------------------------------
# drift specifications


@dataclass(frozen=True, eq=False)
class QuadraticDrift:
    """drift(x) = -design.T @ (design @ x - target)."""

    design: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.design, dtype=float))
        t = np.asarray(self.target, dtype=float).ravel()
        if d.shape[0] != t.shape[0]:
            raise ValueError(f"target length {t.shape[0]} does not match design rows {d.shape[0]}")
        object.__setattr__(self, "design", d)
        object.__setattr__(self, "target", t)

    @property
    def dim(self) -> int:
        return self.design.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """design.T @ design, symmetrized and read-only."""
        g = _sym_part(self.design.T @ self.design)
        g.flags.writeable = False
        return g

    @cached_property
    def _pull(self) -> np.ndarray:
        return self.design.T @ self.target

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """design.T target - x design.T design, for a row stack: one (rows, dim)
        by (dim, dim) product, whatever the number of records."""
        return self._pull - np.asarray(x, dtype=float) @ self.gram


@dataclass(frozen=True, eq=False)
class CallableDrift:
    """Arbitrary drift; fn maps a (paths, dim) row stack of states to the
    (paths, dim) stack of their drifts."""

    fn: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True, eq=False)
class DatasetGradientDrift:
    """Gradient-flow drift -grad_fn(x, dataset) for a loss over a dataset,
    evaluated row by row on a (paths, dim) row stack of states."""

    grad_fn: Callable[[np.ndarray, Any], np.ndarray]
    dataset: Any

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for p, row in enumerate(x):
            out[p] = self.grad_fn(row, self.dataset)
        return -out


# ---------------------------------------------------------------------------
# covariance specifications


def _finite_or_fail(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise CovarianceEvaluationFailed(
            f"{what} produced non-finite entries", operation="covariance"
        )
    return arr


@dataclass(frozen=True, eq=False)
class ConstantSpd:
    """State-independent covariance. PSD-relaxed matrices (e.g. exactly zero)
    are accepted; their square root comes from the eigendecomposition."""

    matrix: SpdMatrix

    @cached_property
    def _sqrt(self) -> np.ndarray:
        try:
            return self.matrix.chol_lower
        except NotPositiveDefinite:
            w, q = _eig_clamped(self.matrix.entries, 0.0)
            return _rebuilt(np.sqrt(w), q)

    def apply_sqrt(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return z @ self._sqrt.T

    @cached_property
    def _inv_sqrt_t(self) -> np.ndarray:
        """Transposed inverse of the Cholesky factor; raises NotPositiveDefinite
        for a semidefinite matrix, and is then not cached."""
        return np.linalg.inv(self.matrix.chol_lower).T

    def whiten(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Rows of sqrt_cov^{-1} v; requires strict positive definiteness."""
        return v @ self._inv_sqrt_t

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """The matrix once per row of x, (paths, dim, dim), as a read-only view."""
        return np.broadcast_to(self.matrix.entries, (len(x), *self.matrix.entries.shape))

    def divergence(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x, dtype=float)


def _fd_divergence(matrices, x: np.ndarray) -> np.ndarray:
    """(div S)_i = sum_j dS_ij/dx_j per row of x, by forward differences of the
    covariances matrices(rows) gives at x and at its dim coordinate shifts."""
    paths, d = x.shape
    steps = _FD_STEP * np.maximum(1.0, np.abs(x))
    shifted = np.repeat(x[:, None, :], d, axis=1)
    shifted[:, np.arange(d), np.arange(d)] += steps
    m = matrices(np.concatenate([x, shifted.reshape(paths * d, d)]))
    base, moved = m[:paths], m[paths:].reshape(paths, d, d, d)
    out = np.zeros((paths, d))
    for j in range(d):
        out += (moved[:, j, :, j] - base[:, :, j]) / steps[:, j, None]
    return out


@dataclass(frozen=True, eq=False)
class DiagonalOfState:
    """Diagonal covariance diag(fn(x)); fn maps a (paths, dim) row stack of
    states to the (paths, dim) stack of their positive variances."""

    fn: Callable[[np.ndarray], np.ndarray]

    def diag_at(self, x: np.ndarray) -> np.ndarray:
        d = np.asarray(self.fn(x), dtype=float)
        _finite_or_fail(d, "diagonal covariance")
        if np.any(d <= 0.0):
            raise CovarianceEvaluationFailed(
                "diagonal covariance must be strictly positive", operation="covariance"
            )
        return d

    def apply_sqrt(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.sqrt(self.diag_at(x)) * z

    def whiten(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v / np.sqrt(self.diag_at(x))

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """diag(fn(x)) per row of x, (paths, dim, dim)."""
        d = self.diag_at(x)
        return d[:, :, None] * np.eye(d.shape[1])

    def divergence(self, x: np.ndarray) -> np.ndarray:
        return _fd_divergence(self.matrices, x)


@dataclass(frozen=True, eq=False)
class MinibatchSgd:
    """Minibatch-sampling covariance built from per-example gradients.

    grad_fn maps one state vector to the (N, dim) stack of per-example
    gradients of a sum-structured loss. It is called once per state row, so
    once per path and step in a simulation. The raw sampling covariance is
    not PSD in general; it is projected by clamping its eigenvalues at the
    fixed 1e-10, which has no setting. One batched eigh per call,
    q diag(w) q.T with w clamped, serves every use: matrices rebuilds the
    projection, apply_sqrt applies its symmetric square root
    q diag(sqrt w) q.T, and whiten the inverse of that root, which the floor
    keeps above the 1e-14 pivot floor (linalg.PIVOT_FLOOR) that it needs.
    """

    grad_fn: Callable[[np.ndarray], np.ndarray]
    batch: int
    replacement: bool = True

    def _eig(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Clamped eigenvalues (paths, dim) and eigenvectors (paths, dim, dim) of
        the sampling covariance at each row of x."""
        grads = [self.grad_fn(row) for row in x]
        n_examples, dim = np.shape(grads[0])
        g = np.empty((len(grads), n_examples, dim + 1))
        g[..., -1] = 1.0
        for p, gp in enumerate(grads):
            g[p, :, :-1] = gp
        raw = _sampling_covariance(g, self.batch, self.replacement)
        # a non-finite gradient makes its row's covariance non-finite too
        return _eig_clamped(_finite_or_fail(raw, "per-example gradients"), _PSD_FLOOR)

    def matrices(self, x: np.ndarray) -> np.ndarray:
        """Projected covariances (paths, dim, dim) at the rows of x."""
        return _rebuilt(*self._eig(x))

    def apply_sqrt(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        w, q = self._eig(x)
        return _eigenbasis_scaled(q, np.sqrt(w), z)

    def whiten(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        w, q = self._eig(x)
        return _eigenbasis_scaled(q, 1.0 / np.sqrt(w), v)

    def divergence(self, x: np.ndarray) -> np.ndarray:
        return _fd_divergence(self.matrices, x)


# ---------------------------------------------------------------------------
# minibatch covariance and PSD repair; the private helpers act on stacks


def _sampling_covariance(g: np.ndarray, batch: int, replacement: bool) -> np.ndarray:
    """alpha (sum_l g_l g_l.T - full full.T), symmetrized, for g (..., N, d + 1):
    per-example gradients and a ones column, whose Gram matrix holds both."""
    n_examples = g.shape[-2]
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if batch > n_examples:
        raise BatchLargerThanDataset(
            f"batch {batch} exceeds dataset size {n_examples}", operation="minibatch_covariance"
        )
    alpha = n_examples**2 / batch * (1.0 - (1.0 if replacement else batch) / n_examples)
    gram = np.swapaxes(g, -1, -2) @ g
    full = gram[..., :-1, -1]
    raw = alpha * (gram[..., :-1, :-1] - full[..., :, None] * full[..., None, :])
    return _sym_part(raw)


def _eig_clamped(m: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues clamped at floor, and eigenvectors, of a symmetric stack."""
    if floor < 0.0:
        raise ValueError(f"floor must be nonnegative, got {floor}")
    w, q = np.linalg.eigh(m)
    return np.maximum(w, floor), q


def _rebuilt(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q diag(w) q.T for every matrix of the stack, symmetrized."""
    return _sym_part((q * w[..., None, :]) @ np.swapaxes(q, -1, -2))


def _eigenbasis_scaled(q: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows q_p diag(s_p) q_p.T v_p, with the matrix never formed."""
    qt_v = (np.swapaxes(q, -1, -2) @ v[..., None])[..., 0]
    return (q @ (s * qt_v)[..., None])[..., 0]


def minibatch_covariance(per_example_grads: np.ndarray, batch: int,
                         replacement: bool) -> SymMatrix:
    """Sampling covariance of the minibatch gradient of a sum-structured loss.

    For N examples and batch size n the scale factor is
    (N^2/n)(1 - 1/N) with replacement and (N^2/n)(1 - n/N) without, applied
    to sum_l g_l g_l.T - g g.T, where g is the column sum of
    per_example_grads. The result need not be PSD; see psd_project.
    """
    g = np.atleast_2d(np.asarray(per_example_grads, dtype=float))
    raw = _sampling_covariance(np.column_stack([g, np.ones(len(g))]), batch, replacement)
    return SymMatrix(raw)


def psd_project(m: SymMatrix, floor: float = 0.0) -> SpdMatrix:
    """Nearest (Frobenius) PSD matrix with eigenvalues clamped at floor."""
    return SpdMatrix(_rebuilt(*_eig_clamped(m.entries, floor)), allow_semidefinite=True)


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SimConfig:
    """Discretization settings. horizon/step must be an integer number of
    steps, and that count must be divisible by record_stride so the recorded
    grid is uniform and ends exactly at the horizon."""

    step: float
    horizon: float
    paths: int
    seed: int
    record_stride: int = 1

    def __post_init__(self):
        failed = {name: "must be positive" for name in ("step", "horizon")
                  if not getattr(self, name) > 0.0}
        failed |= {name: "must be >= 1" for name in ("paths", "record_stride")
                   if getattr(self, name) < 1}
        if not 0 <= int(self.seed) < 2**64:
            failed["seed"] = "must be an unsigned 64-bit integer"
        # an infinite step fails below, as at least one step or as no step count
        if not failed.keys() & {"step", "horizon"}:
            ratio = self.horizon / self.step
            if not self.horizon >= self.step:
                failed["horizon"] = "horizon must be at least one step"
            elif not ratio < 2.0**63:
                failed["horizon"] = "the step count horizon/step must be below 2**63"
            elif abs(ratio - round(ratio)) > 1e-9 * ratio:
                failed["horizon"] = "horizon must be an integer multiple of step"
            elif "record_stride" not in failed and round(ratio) % self.record_stride != 0:
                failed["record_stride"] = "step count must be divisible by record_stride"
        check_fields([f.name for f in fields(self)], failed)

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.step)

    @property
    def n_records(self) -> int:
        """The number of recorded times: t = 0 and every record_stride-th step."""
        return self.n_steps // self.record_stride + 1


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Recorded states: times (R,), states (paths, R, dim)."""

    times: np.ndarray
    states: np.ndarray
    seed: int

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or s.ndim != 3 or s.shape[1] != t.shape[0]:
            raise ValueError("states must be (paths, len(times), dim)")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must start at 0 and strictly increase")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def paths(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]


# Rows per Euler update block. On 2 cores with OpenBLAS, a drift's (rows, 8) by
# (8, 12) products cost a third as much per row at 2048 rows as at 4096 or 10^4,
# and at 10^4 rows OpenBLAS runs them on both cores, where its idle worker spins
# on the core that draws the next step's normals. Larger ensembles are split
# into near-equal blocks, so no block has a single row: numpy sends 1-row
# products to gemv, whose last bits differ from gemm's.
_BLOCK_ROWS = 2048

# Steps whose normals are drawn ahead of the update, by the helper thread or by
# the main thread when it would otherwise wait. A step's draw takes longer than
# its update, so both threads draw. On 2 cores, mc_kl_bound at d = 8, 10^4
# paths, 200 steps and record stride 10 took 0.31 s with 4 steps ahead, 0.33 s
# with 3, 0.38-0.43 s with 2 and 0.50 s with 1, and no less with 6; with 4, the
# main thread drew 54 to 69 of the 200 steps in six runs. Each step ahead holds
# one (paths, dim) block.
_LOOKAHEAD = 4

# The cost of a split pair (see _split_pays): seconds to fork a child, wait
# for it and read back a small result, and seconds per byte of result. On 2
# cores, in a process of 39 MB peak RSS that had run the sgd-diffusion
# benchmark workload, _in_processes with one child took a median 5.0 ms
# (quartiles 4.7-5.9, 41 calls) when the child returned None, 6.2 ms for a
# 0.2 MB array, 15.3 ms for 2 MB and 63.9 ms for 16 MB: 3.5 ns a byte
# between 2 and 16 MB.
_FORK_S = 5e-3
_COLLECT_S_PER_BYTE = 3.5e-9


def _row_blocks(paths: int) -> list[slice]:
    """The near-equal row blocks, of at most _BLOCK_ROWS rows, that the Euler
    update and the per-record callbacks work on."""
    n_blocks = -(-paths // _BLOCK_ROWS)
    return [slice(i * paths // n_blocks, (i + 1) * paths // n_blocks)
            for i in range(n_blocks)]


def _start_rows(x0, cfg: SimConfig) -> np.ndarray:
    """The (paths, dim) start states of an ensemble, each row x0."""
    return np.tile(np.asarray(x0, dtype=float).ravel(), (cfg.paths, 1))


def _record_times(cfg: SimConfig) -> np.ndarray:
    """The recorded grid: t = 0 and every record_stride-th step."""
    return np.arange(cfg.n_records) * (cfg.step * cfg.record_stride)


def _euler(drifts, cov, xs, cfg: SimConfig, on_record, steps: range):
    """Integrate the given steps of one ensemble per drift, all driven by the
    same increments, from the (paths, dim) states xs, one per drift.

    on_record(j, states) is called at the j-th recorded time with the list of
    (paths, dim) states, one per drift: at t = 0 when steps starts at 0, and
    after every record_stride-th step. The arrays are overwritten by later
    steps, so a callback that keeps them must copy. An error it raises ends
    the integration and propagates unchanged. Returns the states after the
    last step, the seconds each drift's row updates took, and the seconds the
    draws of normals took, on either thread.
    """
    from collections import deque
    from concurrent.futures import Future, ThreadPoolExecutor

    nxt = [np.empty_like(x) for x in xs]
    sqrt_h = np.sqrt(cfg.step)
    blocks = _row_blocks(cfg.paths)
    shape = xs[0].shape
    update_s, draw_s = [0.0] * len(drifts), []

    def draw(k: int) -> np.ndarray:
        started = time.perf_counter()
        z = step_normals(cfg.seed, k, shape)
        draw_s.append(time.perf_counter() - started)
        return z

    with ThreadPoolExecutor(max_workers=1) as pool:
        # A step's normals depend on (seed, step) alone, so drawing them on
        # either thread, in any order, changes no output. A single step has
        # nothing to overlap its draw with: the main thread draws it, and no
        # helper thread starts.
        ahead = pool.submit if len(steps) > 1 else lambda fn, k: Future()
        pending = deque(ahead(draw, k) for k in steps[:_LOOKAHEAD])

        def steal(k: int) -> bool:
            """Draw here the farthest step of the window, steps k.., whose
            draw has not started; cancel() fails once it has, so each step is
            drawn exactly once."""
            for i in range(len(pending) - 1, -1, -1):
                if pending[i].cancel():
                    pending[i] = Future()
                    pending[i].set_result(draw(k + i))
                    return True
            return False

        if steps.start == 0:
            on_record(0, xs)
        for k in steps:
            while not pending[0].done() and steal(k):
                pass
            z = pending.popleft().result()
            if k + _LOOKAHEAD < steps.stop:
                pending.append(ahead(draw, k + _LOOKAHEAD))
            for i, (drift, x, out) in enumerate(zip(drifts, xs, nxt)):
                started = time.perf_counter()
                for s in blocks:
                    out[s] = (x[s] + cfg.step * drift.evaluate(x[s])
                              + sqrt_h * cov.apply_sqrt(x[s], z[s]))
                update_s[i] += time.perf_counter() - started
            xs, nxt = nxt, xs
            if (k + 1) % cfg.record_stride == 0:
                on_record((k + 1) // cfg.record_stride, xs)
    return xs, update_s, sum(draw_s)


def _split_pays(update_s: float, draw_s: float, steps_left: int, cpus: int,
                result_bytes: int) -> bool:
    """Whether the two arms of a pair integrate their remaining steps_left
    steps faster in two processes, one arm each, given one arm's row-update
    seconds and the draw seconds of one step, the usable CPUs, and the bytes
    of an arm's recorded states that the child sends back.

    In one process the helper thread draws while the main thread updates
    both arms, so a step whose updates bound it takes about 2 update_s. Split,
    each process draws every step itself and updates one arm, about
    update_s + draw_s a step. The split saves steps_left (update_s - draw_s),
    which must exceed the cost of forking the child and collecting its result.
    """
    saving = steps_left * (update_s - draw_s)
    return cpus >= 2 and saving > _FORK_S + result_bytes * _COLLECT_S_PER_BYTE


def _all_finite(rec: np.ndarray) -> np.ndarray:
    if not np.isfinite(rec).all():
        raise AnisoError("the ensemble has states that are not finite", operation="euler")
    return rec


def _arm(drift, cov, x, cfg: SimConfig, rec: np.ndarray, steps: range) -> np.ndarray:
    """Integrate one ensemble over steps from its states x, recording into
    rec; returns rec once every recorded state is finite."""

    def store(j, states):
        rec[:, j, :] = states[0]

    _euler((drift,), cov, [x], cfg, store, steps)
    return _all_finite(rec)


def simulate(drift, cov, x0, cfg: SimConfig) -> TrajectoryEnsemble:
    """Euler-Maruyama ensemble of cfg.paths trajectories from the shared x0.
    Raises AnisoError (operation euler) when a recorded state is not finite."""
    times, x = _record_times(cfg), _start_rows(x0, cfg)
    rec = np.empty((cfg.paths, times.shape[0], x.shape[1]))
    return TrajectoryEnsemble(times, _arm(drift, cov, x, cfg, rec, range(cfg.n_steps)),
                              cfg.seed)


def paired_simulate(drift_a, drift_b, cov, x0,
                    cfg: SimConfig) -> tuple[TrajectoryEnsemble, TrajectoryEnsemble]:
    """Two ensembles driven by the same Gaussian increments per (path, step).

    Equal drifts therefore give bit-identical ensembles, and the pathwise
    difference between the arms is the data-difference signal alone. Raises
    AnisoError (operation euler) when a recorded state of either is not finite.

    Step 0 of both arms runs here. On Linux with two or more usable CPUs,
    when one arm's row updates in that step took longer than its draw of
    normals, and the difference over the remaining steps exceeds the measured
    cost of a fork and of sending arm b's recorded states back, arm b's
    remaining steps run in a forked child while this process integrates arm
    a's; the ensembles are the same either way, bit for bit. Arm b's drift,
    covariance and grad_fn calls then run in the child, so their side
    effects on Python state (a call counter, say) do not reach the caller.
    An error raised there reaches the caller with its type and message, after
    the child has been reaped; when both arms fail, arm a's error is raised,
    where one process raises whichever fails at the earlier step. On Python
    3.12 and later, os.fork warns (DeprecationWarning) in a process with
    other threads, such as BLAS threads; the split goes ahead (this case has
    not been run), as in models.train.
    """
    drifts, times = (drift_a, drift_b), _record_times(cfg)
    xs = [_start_rows(x0, cfg) for _ in drifts]
    recs = [np.empty((cfg.paths, times.shape[0], x.shape[1])) for x in xs]

    def store(j, states):
        for rec, x in zip(recs, states):
            rec[:, j, :] = x

    # step 0 runs here; its timings say whether splitting the arms pays
    xs, update_s, draw_s = _euler(drifts, cov, xs, cfg, store, range(1))
    rest = range(1, cfg.n_steps)
    cpus = _usable_cpus() if rest else set()
    if _split_pays(min(update_s), draw_s, len(rest), len(cpus), recs[-1].nbytes):
        recs = _in_processes(cpus, [partial(_arm, drift, cov, x, cfg, rec, rest)
                                    for drift, x, rec in zip(drifts, xs, recs)])
    else:
        _euler(drifts, cov, xs, cfg, store, rest)
        recs = [_all_finite(rec) for rec in recs]
    ens_a, ens_b = (TrajectoryEnsemble(times, rec, cfg.seed) for rec in recs)
    return ens_a, ens_b
