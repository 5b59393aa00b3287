"""Ensemble simulator: stream discipline, stepping, and the minibatch
covariance formula."""

import csv
import json
import math
import os
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anisopriv.bounds
import anisopriv.sde
from anisopriv.bounds import mc_kl_bound
from anisopriv.cli import main
from anisopriv.errors import (
    AnisoError,
    BatchLargerThanDataset,
    CovarianceEvaluationFailed,
    NotPositiveDefinite,
)
from anisopriv.linalg import SpdMatrix, SymMatrix
from anisopriv.rng import step_normals
from anisopriv.sde import (
    CallableDrift,
    ConstantSpd,
    DatasetGradientDrift,
    DiagonalOfState,
    MinibatchSgd,
    QuadraticDrift,
    SimConfig,
    minibatch_covariance,
    paired_simulate,
    psd_project,
    simulate,
)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(step=0.0, horizon=1.0, paths=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(step=0.3, horizon=1.0, paths=1, seed=0)  # not an integer count
    with pytest.raises(ValueError):
        SimConfig(step=0.1, horizon=1.0, paths=1, seed=0, record_stride=3)
    cfg = SimConfig(step=0.1, horizon=1.0, paths=2, seed=0, record_stride=5)
    assert cfg.n_steps == 10


def test_zero_drift_trajectory_is_cumulative_noise():
    # with zero drift and unit covariance the state is x0 plus scaled sums
    # of exactly the per-step blocks, bit for bit
    cfg = SimConfig(step=0.25, horizon=1.0, paths=3, seed=99)
    drift = CallableDrift(lambda x: np.zeros_like(x))
    cov = ConstantSpd(SpdMatrix(np.eye(2)))
    ens = simulate(drift, cov, np.zeros(2), cfg)
    x = np.zeros((3, 2))
    h = math.sqrt(0.25)
    for k in range(4):
        x = x + h * step_normals(99, k, (3, 2))
        assert np.array_equal(ens.states[:, k + 1, :], x)


def test_simulation_deterministic():
    cfg = SimConfig(step=0.1, horizon=2.0, paths=4, seed=5)
    drift = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    a = simulate(drift, cov, np.array([1.0]), cfg)
    b = simulate(drift, cov, np.array([1.0]), cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_record_stride_subsamples_same_trajectory():
    drift = QuadraticDrift(np.array([[1.0]]), np.array([0.5]))
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    full = simulate(drift, cov, np.array([0.0]),
                    SimConfig(step=0.1, horizon=1.0, paths=2, seed=3))
    strided = simulate(drift, cov, np.array([0.0]),
                       SimConfig(step=0.1, horizon=1.0, paths=2, seed=3,
                                 record_stride=5))
    assert np.array_equal(strided.states, full.states[:, ::5, :])
    assert np.allclose(strided.times, [0.0, 0.5, 1.0])


def test_deterministic_ode_limit():
    # noise-free quadratic drift contracts toward the target solve
    drift = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    cov = ConstantSpd(SpdMatrix(np.diag([1e-30]), allow_semidefinite=True))
    cfg = SimConfig(step=1e-3, horizon=1.0, paths=1, seed=0)
    ens = simulate(drift, cov, np.array([1.0]), cfg)
    assert ens.states[0, -1, 0] == pytest.approx(math.exp(-1.0), rel=1e-3)


def test_paired_simulation_shares_increments():
    drift_a = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    drift_b = QuadraticDrift(np.array([[1.0]]), np.array([0.1]))
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    cfg = SimConfig(step=0.1, horizon=1.0, paths=3, seed=8)
    ens_a, ens_b = paired_simulate(drift_a, drift_b, cov, np.array([1.0]), cfg)
    solo_a = simulate(drift_a, cov, np.array([1.0]), cfg)
    assert np.array_equal(ens_a.states, solo_a.states)
    # same increments: the difference evolves by the deterministic gap ODE
    diff = ens_b.states - ens_a.states
    assert np.allclose(diff[:, -1, 0], diff[0, -1, 0], rtol=0, atol=1e-12)


def test_quadratic_drift_vectorized_rows():
    drift = QuadraticDrift(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    vals = drift.evaluate(pts)
    for i, p in enumerate(pts):
        want = -drift.design.T @ (drift.design @ p - drift.target)
        assert np.allclose(vals[i], want, rtol=1e-14)


def test_diagonal_of_state_covariance():
    cov = DiagonalOfState(lambda x: np.abs(x) + 1.0)
    x = np.array([[1.0, -3.0]])
    z = np.array([[1.0, 1.0]])
    out = cov.apply_sqrt(x, z)
    assert np.allclose(out, [[math.sqrt(2.0), 2.0]], rtol=1e-14)
    back = cov.whiten(x, out)
    assert np.allclose(back, z, rtol=1e-14)


def test_diagonal_of_state_rejects_nonpositive():
    cov = DiagonalOfState(lambda x: x)
    with pytest.raises(CovarianceEvaluationFailed):
        cov.diag_at(np.array([[-1.0, 1.0]]))


def test_minibatch_covariance_hand_values():
    # two scalar gradients (1, -1): alpha = 4 * (1 - 1/2) = 2, value 4
    peg = np.array([[1.0], [-1.0]])
    got = minibatch_covariance(peg, 1, True)
    assert got.entries[0, 0] == 4.0
    # aligned gradients (1, 1): raw value -4, psd floor to 0
    peg2 = np.array([[1.0], [1.0]])
    raw = minibatch_covariance(peg2, 1, True)
    assert raw.entries[0, 0] == -4.0
    floored = psd_project(raw)
    assert floored.entries[0, 0] == 0.0


def test_minibatch_covariance_full_batch_without_replacement_is_zero():
    rng = np.random.default_rng(0)
    peg = rng.standard_normal((5, 3))
    got = minibatch_covariance(peg, 5, False)
    assert np.allclose(got.entries, 0.0, atol=1e-12)


def test_minibatch_covariance_validates():
    peg = np.array([[1.0], [2.0]])
    with pytest.raises(BatchLargerThanDataset):
        minibatch_covariance(peg, 3, True)


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=30, deadline=None)
def test_minibatch_covariance_scaling_in_batch(seed, replacement):
    # alpha halves when the batch doubles, for either sampling mode
    rng = np.random.default_rng(seed)
    peg = rng.standard_normal((6, 2))
    full = peg.sum(axis=0)
    one = minibatch_covariance(peg, 1, replacement).entries
    two = minibatch_covariance(peg, 2, replacement).entries
    base = peg.T @ peg - np.outer(full, full)
    if replacement:
        assert np.allclose(one, 2.0 * two, rtol=1e-12, atol=1e-12)
    else:
        # alpha(n) = (N^2/n)(1 - n/N) = N(N-n)/n
        assert np.allclose(one / 30.0, base, rtol=1e-12, atol=1e-12)
        assert np.allclose(two / 12.0, base, rtol=1e-12, atol=1e-12)


def test_psd_project_keeps_psd_input():
    m = SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    out = psd_project(m)
    assert np.allclose(out.entries, m.entries, rtol=1e-12)


def test_psd_project_floor():
    m = SymMatrix(np.diag([4.0, -1.0]))
    out = psd_project(m, floor=1e-10)
    w = np.linalg.eigvalsh(out.entries)
    assert w.min() >= 1e-10 * (1 - 1e-12)
    assert w.max() == pytest.approx(4.0, rel=1e-12)


def test_minibatch_sgd_covariance_spec():
    # quadratic per-example losses give state-dependent sampling covariance
    data = np.array([1.0, -1.0, 2.0])

    def grad_fn(x):
        return np.array([[x[0] - d] for d in data])

    cov = MinibatchSgd(grad_fn, batch=1, replacement=True)
    mat = cov.matrices(np.array([[0.0]]))[0]
    peg = grad_fn(np.array([0.0]))
    want = psd_project(
        minibatch_covariance(peg, 1, True), floor=1e-10
    )
    assert np.allclose(mat, want.entries, rtol=1e-12)


# ---------------------------------------------------------------------------
# MinibatchSgd takes every path's covariance from one batched eigh; the
# reference below does one path at a time with the public 2-D functions.

FEATURES = np.random.default_rng(21).standard_normal((6, 3))
TARGETS = np.random.default_rng(22).standard_normal(6)


def least_squares_grads(x):
    """Mean-scaled per-example gradients of a least-squares loss, (6, 3)."""
    r = FEATURES @ x - TARGETS
    return FEATURES * (r / 6.0)[:, None]


def projected_least_squares_cov(x):
    """Covariance of MinibatchSgd(least_squares_grads, batch=2) at the state x,
    from the public 2-D functions."""
    g = least_squares_grads(x)
    return psd_project(minibatch_covariance(g, 2, True), 1e-10).entries


def reference_noise(cov, x, z):
    """The symmetric square root of the projected covariance at x, applied to
    z in its eigenbasis: q (sqrt(max(w, floor)) * (q.T z))."""
    g = np.asarray(cov.grad_fn(x), dtype=float)
    raw = minibatch_covariance(g, cov.batch, cov.replacement)
    w, q = np.linalg.eigh(raw.entries)
    return q @ (np.sqrt(np.maximum(w, anisopriv.sde._PSD_FLOOR)) * (q.T @ z))


def rank_deficient_grads(x):
    # centred gradients give a PSD raw covariance, full rank in general; the
    # state's first coordinate scales gradient columns 1 and 2, so rows with
    # x0 = 0 have a rank-one covariance
    g = least_squares_grads(x) * np.array([1.0, x[0], x[0]])
    return g - g.mean(axis=0)


RANK_DEFICIENT_ROWS = np.array([[1.0, 0.5, -0.2], [0.0, 0.3, 0.1], [-2.0, 1.0, 0.4],
                                [0.0, -1.0, 2.0], [0.7, 0.0, 0.0]])


def test_minibatch_sgd_batched_matches_per_path_reference():
    cov = MinibatchSgd(rank_deficient_grads, batch=2, replacement=False)
    x = RANK_DEFICIENT_ROWS
    z = step_normals(4, 0, x.shape)
    want = np.stack([reference_noise(cov, row, zp) for row, zp in zip(x, z)])
    assert np.array_equal(cov.apply_sqrt(x, z), want)
    for row in x:
        g = rank_deficient_grads(row)
        m = psd_project(minibatch_covariance(g, 2, False), anisopriv.sde._PSD_FLOOR).entries
        assert np.array_equal(cov.matrices(row[None])[0], m)


@pytest.mark.parametrize("n_examples, dim", [(6, 1), (40, 16), (513, 4)])
def test_minibatch_sgd_matrices_equal_projected_covariance(n_examples, dim):
    # shapes at which the ones column of the Gram matrix and g.sum(axis=0) can
    # round differently: both functions take the full gradient from the former
    feats = np.random.default_rng(dim).standard_normal((n_examples, dim))

    def grad_fn(x):
        return feats * (feats @ x - 1.0)[:, None]

    cov = MinibatchSgd(grad_fn, batch=3)
    x = np.random.default_rng(n_examples).standard_normal((4, dim))
    for row, m in zip(x, cov.matrices(x)):
        g = grad_fn(row)
        want = psd_project(minibatch_covariance(g, 3, True), 1e-10)
        assert np.array_equal(m, want.entries)


def test_minibatch_sgd_root_squares_to_matrices():
    # R R.T equals the projected covariance, rank-deficient rows included;
    # column i of R is the root applied to the unit vector e_i
    cov = MinibatchSgd(rank_deficient_grads, batch=2, replacement=False)
    x = RANK_DEFICIENT_ROWS
    paths, d = x.shape
    cols = cov.apply_sqrt(np.repeat(x, d, axis=0), np.tile(np.eye(d), (paths, 1)))
    root = cols.reshape(paths, d, d).swapaxes(1, 2)
    m = cov.matrices(x)
    gap = np.abs(root @ root.swapaxes(1, 2) - m).max(axis=(1, 2))
    assert np.all(gap <= 1e-12 * np.abs(m).max(axis=(1, 2)))


def test_minibatch_sgd_covariance_near_the_largest_float_stays_finite():
    # gradients +-6e153 give the finite covariance 2 * 2 * 3.6e307 = 1.44e308;
    # symmetrizing it, or rebuilding it from its eigenpairs, must not overflow
    cov = MinibatchSgd(lambda x: np.array([[6e153], [-6e153]]), batch=1)
    m = cov.matrices(np.zeros((1, 1)))
    assert m.shape == (1, 1, 1) and m[0, 0, 0] == pytest.approx(1.44e308, rel=1e-12)
    # the eigenvalue 1.5e308 alone, rebuilt
    assert np.array_equal(anisopriv.sde._rebuilt(np.array([[1.5e308]]), np.array([[[1.0]]])),
                          [[[1.5e308]]])


def test_matrices_rows_match_one_row_calls():
    # every covariance spec gives one (dim, dim) matrix per row of a row stack
    a = np.random.default_rng(9).standard_normal((3, 3))
    x = np.random.default_rng(10).standard_normal((5, 3))
    constant = SpdMatrix(a @ a.T + 0.1 * np.eye(3))
    specs = [(ConstantSpd(constant), lambda row: constant.entries),
             (DiagonalOfState(lambda x: x * x + 0.5), lambda row: np.diag(row * row + 0.5)),
             (MinibatchSgd(least_squares_grads, batch=2), projected_least_squares_cov)]
    for cov, definition in specs:
        m = cov.matrices(x)
        assert m.shape == (5, 3, 3)
        for row, mp in zip(x, m):
            assert np.array_equal(mp, cov.matrices(row[None])[0])
            assert np.array_equal(mp, definition(row))


def test_minibatch_sgd_rejects_nonfinite_gradients_on_one_path():
    def grad_fn(x):
        return least_squares_grads(x) * (np.nan if x[0] < 0 else 1.0)

    cov = MinibatchSgd(grad_fn, batch=2)
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(CovarianceEvaluationFailed):
        cov.apply_sqrt(x, np.ones_like(x))
    with pytest.raises(CovarianceEvaluationFailed):
        cov.whiten(x, np.ones_like(x))


def test_quadratic_drift_gram_form_matches_residual_form():
    rng = np.random.default_rng(12)
    for n_records, dim, rows in [(12, 8, 2048), (3, 5, 7), (1, 4, 2), (6, 1, 3)]:
        design = rng.standard_normal((n_records, dim))
        target = rng.standard_normal(n_records)
        drift = QuadraticDrift(design, target)
        x = rng.standard_normal((rows, dim))
        want = -(x @ design.T - target) @ design
        scale = np.abs(x).max() * np.abs(design).max() ** 2 * n_records * dim
        np.testing.assert_allclose(drift.evaluate(x), want, rtol=1e-13, atol=1e-15 * scale)
        np.testing.assert_allclose(drift.evaluate(x[0]), want[0], rtol=1e-13,
                                   atol=1e-15 * scale)
        assert drift.evaluate(x[0]).shape == (dim,)


def test_constant_spd_whiten_matches_triangular_solve():
    a = np.random.default_rng(7).standard_normal((5, 5))
    cov = ConstantSpd(SpdMatrix(a @ a.T + 0.1 * np.eye(5)))
    l = cov.matrix.chol_lower
    v = step_normals(7, 0, (300, 5))
    np.testing.assert_allclose(cov.whiten(v, v), np.linalg.solve(l, v.T).T,
                               rtol=1e-11, atol=1e-12)


def test_semidefinite_constant_spd_whiten_raises_every_time():
    cov = ConstantSpd(SpdMatrix(np.diag([1.0, 0.0]), allow_semidefinite=True))
    x = np.zeros((3, 2))
    assert np.array_equal(cov.apply_sqrt(x, np.ones((3, 2))), [[1.0, 0.0]] * 3)
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite):
            cov.whiten(x, np.ones((3, 2)))


def test_constant_spd_whiten_inverts_apply_sqrt():
    a = np.random.default_rng(4).standard_normal((4, 4))
    cov = ConstantSpd(SpdMatrix(a @ a.T + 0.1 * np.eye(4)))
    x = np.zeros((50, 4))
    z = step_normals(4, 1, x.shape)
    assert np.allclose(cov.whiten(x, cov.apply_sqrt(x, z)), z, rtol=1e-10, atol=1e-10)


def test_minibatch_sgd_whiten_inverts_apply_sqrt():
    cov = MinibatchSgd(least_squares_grads, batch=3)
    x = np.random.default_rng(5).standard_normal((7, 3))
    z = step_normals(5, 1, x.shape)
    assert np.allclose(cov.whiten(x, cov.apply_sqrt(x, z)), z, rtol=1e-10, atol=1e-10)
    assert np.allclose(cov.apply_sqrt(x, cov.whiten(x, z)), z, rtol=1e-10, atol=1e-10)


def test_minibatch_sgd_divergence_rows_match_single_rows():
    cov = MinibatchSgd(least_squares_grads, batch=3)
    x = np.random.default_rng(6).standard_normal((4, 3))
    single = np.stack([cov.divergence(row[None])[0] for row in x])
    assert np.array_equal(cov.divergence(x), single)


def per_coordinate_diagonal_divergence(cov, x):
    """The loop DiagonalOfState.divergence once ran: component i is the
    forward difference of Sigma_ii along x_i alone."""
    base = cov.diag_at(x)
    out = np.empty_like(base)
    for i in range(x.shape[1]):
        step = 1e-6 * np.maximum(1.0, np.abs(x[:, i]))
        xp = x.copy()
        xp[:, i] += step
        out[:, i] = (cov.diag_at(xp)[:, i] - base[:, i]) / step
    return out


def test_diagonal_divergence_matches_the_per_coordinate_loop():
    # the shared matrix forward difference adds only exact zeros off the diagonal
    cov = DiagonalOfState(lambda x: np.exp(0.3 * x) + x * x)
    x = np.random.default_rng(8).standard_normal((5, 3)) * [1.0, 30.0, 1e-3]
    assert np.array_equal(cov.divergence(x), per_coordinate_diagonal_divergence(cov, x))


def outer_plus_identity(x):
    """S(x) = x x^T + I per row, whose divergence is (dim + 1) x."""
    return x[:, :, None] * x[:, None, :] + np.eye(x.shape[1])


@pytest.mark.parametrize("divergence, exact", [
    (DiagonalOfState(lambda x: x * x + 0.5).divergence, lambda x: 2.0 * x),
    (lambda x: anisopriv.sde._fd_divergence(outer_plus_identity, x), lambda x: 4.0 * x),
], ids=["diagonal", "outer-product"])
def test_divergence_matches_the_analytic_derivative(divergence, exact):
    # a forward difference with step 1e-6 max(1, |x_j|) is off by about that step
    x = np.random.default_rng(9).standard_normal((6, 3)) * [1.0, 5.0, 0.1]
    np.testing.assert_allclose(divergence(x), exact(x), rtol=1e-5, atol=1e-5)


def full_grad(x, features):
    """The full-batch gradient of the least-squares loss on the given features."""
    return (features * ((features @ x - TARGETS) / 6.0)[:, None]).sum(axis=0)


def sgd_pair():
    """Gradient-flow drifts on FEATURES and on a copy with record 2 replaced,
    minibatch-SGD noise, x0 and a 10-step config of 20 paths."""
    features_b = FEATURES.copy()
    features_b[2] = [0.5, -1.0, 2.0]
    return (DatasetGradientDrift(full_grad, FEATURES), DatasetGradientDrift(full_grad, features_b),
            MinibatchSgd(least_squares_grads, batch=3), np.array([0.2, -0.1, 0.4]),
            SimConfig(step=0.01, horizon=0.1, paths=20, seed=17))


def test_paired_minibatch_sgd_matches_per_path_euler_loop():
    drift_a, drift_b, cov, x0, cfg = sgd_pair()
    features_b = drift_b.dataset
    ens_a, ens_b = paired_simulate(drift_a, drift_b, cov, x0, cfg)
    h = 0.01
    for features, ens in ((FEATURES, ens_a), (features_b, ens_b)):
        x = np.tile(x0, (20, 1))
        for k in range(10):
            z = step_normals(17, k, (20, 3))
            for p in range(20):
                noise = reference_noise(cov, x[p], z[p])
                x[p] = x[p] + h * -full_grad(x[p], features) + np.sqrt(h) * noise
            assert np.array_equal(ens.states[:, k + 1, :], x)


def test_paired_minibatch_sgd_calls_grad_fn_once_per_row():
    calls = {"a": 0, "b": 0, "noise": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    cov = MinibatchSgd(counted("noise", least_squares_grads), batch=3)
    cfg = SimConfig(step=0.01, horizon=0.05, paths=7, seed=3)
    paired_simulate(DatasetGradientDrift(counted("a", full_grad), FEATURES),
                    DatasetGradientDrift(counted("b", full_grad), -FEATURES),
                    cov, np.array([0.2, -0.1, 0.4]), cfg)
    # P rows per arm per step, for each drift and for the noise of both arms
    assert calls == {"a": 7 * 5, "b": 7 * 5, "noise": 2 * 7 * 5}


# ---------------------------------------------------------------------------
# The simulators update at most 2048 rows at a time. The reference updates
# the whole ensemble at once. Above 2048 paths the ensemble takes several
# blocks, which no shipped config reaches, so only these tests cover them.


def unblocked_euler(drifts, cov, x0, cfg):
    """Recorded states (paths, R, dim) of one arm per drift, all driven by the
    same per-step normals."""
    xs = [np.tile(x0, (cfg.paths, 1)) for _ in drifts]
    recs = [[x] for x in xs]
    for k in range(cfg.n_steps):
        z = step_normals(cfg.seed, k, (cfg.paths, x0.shape[0]))
        xs = [x + cfg.step * drift.evaluate(x) + np.sqrt(cfg.step) * cov.apply_sqrt(x, z)
              for drift, x in zip(drifts, xs)]
        if (k + 1) % cfg.record_stride == 0:
            for rec, x in zip(recs, xs):
                rec.append(x)
    return [np.stack(rec, axis=1) for rec in recs]


def assert_simulators_match_reference(drift_a, drift_b, cov, x0, cfg):
    want_a, want_b = unblocked_euler((drift_a, drift_b), cov, x0, cfg)
    assert np.array_equal(simulate(drift_a, cov, x0, cfg).states, want_a)
    ens_a, ens_b = paired_simulate(drift_a, drift_b, cov, x0, cfg)
    assert np.array_equal(ens_a.states, want_a)
    assert np.array_equal(ens_b.states, want_b)


def linear_case(paths):
    """Two quadratic drifts, a full covariance, x0 and a 6-step config."""
    rng = np.random.default_rng(paths)
    design, target = rng.standard_normal((4, 3)), rng.standard_normal(4)
    a = rng.standard_normal((3, 3))
    cov = ConstantSpd(SpdMatrix(a @ a.T + 0.1 * np.eye(3)))
    cfg = SimConfig(step=0.05, horizon=0.3, paths=paths, seed=23, record_stride=2)
    return (QuadraticDrift(design, target), QuadraticDrift(design, target + 0.1), cov,
            np.array([0.5, -1.0, 2.0]), cfg)


@pytest.mark.parametrize("paths", [1, 2, 3, 2049, 4097, 5000])
def test_simulators_match_unblocked_reference(paths):
    assert_simulators_match_reference(*linear_case(paths))


@pytest.mark.parametrize("paths", [3, 2049])
def test_minibatch_sgd_simulators_match_unblocked_reference(paths):
    features_b = FEATURES.copy()
    features_b[2] = [0.5, -1.0, 2.0]
    cov = MinibatchSgd(least_squares_grads, batch=3)
    cfg = SimConfig(step=0.01, horizon=0.04, paths=paths, seed=31, record_stride=2)
    assert_simulators_match_reference(QuadraticDrift(FEATURES, TARGETS),
                                      QuadraticDrift(features_b, TARGETS), cov,
                                      np.array([0.2, -0.1, 0.4]), cfg)


def test_simulators_reject_non_finite_states():
    # the drift's Gram matrix overflows, so the first step is already inf or nan
    drift = QuadraticDrift(np.array([[1e200]]), np.array([0.0]))
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    cfg = SimConfig(step=0.1, horizon=0.5, paths=3, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (lambda: simulate(drift, cov, np.array([1.0]), cfg),
                    lambda: paired_simulate(QuadraticDrift(np.eye(1), np.zeros(1)), drift,
                                            cov, np.array([1.0]), cfg)):
            with pytest.raises(AnisoError) as info:
                run()
            assert info.value.operation == "euler"


def test_simulator_errors_propagate(monkeypatch):
    cfg = SimConfig(step=0.1, horizon=1.0, paths=5, seed=2)
    identity = ConstantSpd(SpdMatrix(np.eye(2)))
    error = ZeroDivisionError("drift failed at step 3")
    steps = iter(range(10))

    def drift_fn(x):
        if next(steps) == 3:
            raise error
        return -x

    with pytest.raises(ZeroDivisionError) as info:
        simulate(CallableDrift(drift_fn), identity, np.zeros(2), cfg)
    assert info.value is error

    negative = DiagonalOfState(lambda x: -np.ones_like(x))
    drift = QuadraticDrift(np.eye(2), np.zeros(2))
    with pytest.raises(CovarianceEvaluationFailed, match="strictly positive"):
        paired_simulate(drift, drift, negative, np.zeros(2), cfg)

    # a failed draw reaches the caller unchanged
    failed = MemoryError("draw failed at step 4")

    def draw(seed, step, shape):
        if step == 4:
            raise failed
        return step_normals(seed, step, shape)

    monkeypatch.setattr(anisopriv.sde, "step_normals", draw)
    with pytest.raises(MemoryError) as info:
        simulate(drift, identity, np.zeros(2), cfg)
    assert info.value is failed


# ---------------------------------------------------------------------------
# A pair integrates step 0 here, then, when that step's timings say it pays,
# arm b's remaining steps in a forked child. The tests force the decision
# both ways.


def split_pairs(monkeypatch, split):
    """Make paired_simulate split its arms (or not) whatever step 0 took;
    returns the list that gets one entry per fork split."""
    forks, real = [], anisopriv.sde._in_processes

    def counted(jobs):
        forks.append(len(jobs))
        return real(jobs)

    monkeypatch.setattr(anisopriv.sde, "_split_pays", lambda *args: split)
    monkeypatch.setattr(anisopriv.sde, "_in_processes", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("split", [False, True], ids=["here", "split"])
@pytest.mark.parametrize("case", [lambda: linear_case(3), lambda: linear_case(2049), sgd_pair],
                         ids=["linear-3", "linear-2049", "minibatch-sgd"])
def test_split_pair_matches_unblocked_reference(monkeypatch, case, split):
    forks = split_pairs(monkeypatch, split)
    drift_a, drift_b, cov, x0, cfg = case()
    want_a, want_b = unblocked_euler((drift_a, drift_b), cov, x0, cfg)
    ens_a, ens_b = paired_simulate(drift_a, drift_b, cov, x0, cfg)
    assert forks == ([2] if split else [])
    assert np.array_equal(ens_a.states, want_a)
    assert np.array_equal(ens_b.states, want_b)
    assert_no_child_left()


@pytest.mark.parametrize("split", [False, True], ids=["here", "split"])
def test_split_pair_errors_reach_the_caller(monkeypatch, split):
    split_pairs(monkeypatch, split)
    cfg = SimConfig(step=0.1, horizon=0.5, paths=3, seed=0)
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    calm = QuadraticDrift(np.eye(1), np.zeros(1))
    # arm b's Gram matrix overflows, so its states are inf or nan from step 0
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(AnisoError) as info:
        paired_simulate(calm, QuadraticDrift(np.array([[1e200]]), np.array([0.0])), cov,
                        np.array([1.0]), cfg)
    assert (type(info.value), str(info.value), info.value.operation) == (
        AnisoError, "the ensemble has states that are not finite", "euler")
    # arm b's drift fails at step 1, which the child integrates in a split
    calls = iter(range(10))

    def fails_after_step_0(x):
        if next(calls) >= 1:
            raise ZeroDivisionError("drift failed after step 0")
        return -x

    with pytest.raises(ZeroDivisionError, match="^drift failed after step 0$") as info:
        paired_simulate(calm, CallableDrift(fails_after_step_0), cov, np.array([1.0]), cfg)
    assert type(info.value) is ZeroDivisionError
    assert_no_child_left()


def test_euler_loop_starts_no_thread(monkeypatch):
    # every recorded state reaches its callback on the calling thread, with
    # no other thread started: in simulate, in a pair integrated here, and in
    # mc_kl_bound
    split_pairs(monkeypatch, False)
    before, seen, real = threading.active_count(), [], anisopriv.sde._euler

    def counted_euler(drifts, cov, xs, cfg, on_record, steps):
        def counted(j, states):
            seen.append(threading.active_count())
            on_record(j, states)
        return real(drifts, cov, xs, cfg, counted, steps)

    for module in (anisopriv.sde, anisopriv.bounds):
        monkeypatch.setattr(module, "_euler", counted_euler)
    drift_a, drift_b, cov, x0, cfg = linear_case(2049)
    simulate(drift_a, cov, x0, cfg)
    paired_simulate(drift_a, drift_b, cov, x0, cfg)
    mc_kl_bound(drift_a, drift_b, cov, cov, x0, cfg)
    assert seen == [before] * (3 * cfg.n_records)


@pytest.mark.parametrize("split", [False, True], ids=["here", "split"])
def test_split_pair_calls_grad_fn_once_per_row(monkeypatch, tmp_path, split):
    # the child's memory is not the caller's, so each call appends a letter
    # to a file that both processes write
    split_pairs(monkeypatch, split)
    log = os.open(tmp_path / "calls", os.O_WRONLY | os.O_APPEND | os.O_CREAT)

    def counted(key, fn):
        def wrapped(*args):
            os.write(log, key)
            return fn(*args)
        return wrapped

    drift_a, drift_b, cov, x0, cfg = sgd_pair()
    try:
        paired_simulate(DatasetGradientDrift(counted(b"a", full_grad), drift_a.dataset),
                        DatasetGradientDrift(counted(b"b", full_grad), drift_b.dataset),
                        MinibatchSgd(counted(b"n", least_squares_grads), batch=3), x0, cfg)
    finally:
        os.close(log)
    rows = cfg.paths * cfg.n_steps
    assert Counter((tmp_path / "calls").read_text()) == {"a": rows, "b": rows, "n": 2 * rows}


@pytest.mark.parametrize("update_s, draw_s, steps_left, cpus, result_bytes, split", [
    # step-0 timings measured on 2 cores: QuadraticDrift and ConstantSpd at
    # d = 8 with 10^4 paths, 200 steps and record stride 10, where the draw
    # bounds the step
    (0.0011, 0.0019, 199, 2, 13_440_000, False),
    # the same pair at 10 paths and 10 steps
    (1.6e-5, 6.0e-5, 9, 2, 7040, False),
    # the sgd-diffusion benchmark workload: 100 paths, 50 steps, d = 5
    (0.0033, 0.00014, 49, 2, 204_000, True),
    (0.0033, 0.00014, 49, 1, 204_000, False),
    # update-bound, but too few steps left to pay for the fork
    (0.0033, 0.00014, 1, 2, 204_000, False),
    # update-bound, but sending back the recorded states costs more
    (0.002, 0.0001, 100, 2, 10**9, False),
], ids=["draw-bound", "tiny", "sgd-diffusion", "one-cpu", "few-steps", "large-result"])
def test_split_pays_table(update_s, draw_s, steps_left, cpus, result_bytes, split):
    assert anisopriv.sde._split_pays(update_s, draw_s, steps_left, cpus, result_bytes) is split


def test_write_ensemble_csv_roundtrip(tmp_path, capsys):
    cfg = SimConfig(step=0.5, horizon=1.0, paths=2, seed=1)
    drift = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    ens = simulate(drift, ConstantSpd(SpdMatrix(np.eye(1))), np.array([1.0]), cfg)
    # the same ensemble through the CLI, which writes ensemble.csv
    doc = {"seed": 1, "output_dir": "out", "experiment": {
        "kind": "simulate", "design": [[1.0]], "target": [0.0], "sigma_diag": [1.0],
        "x0": [1.0], "step": 0.5, "horizon": 1.0, "paths": 2}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert main(["run", str(tmp_path / "cfg.json")]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "ensemble.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path", "time", "x0"]
    assert len(rows) == 1 + 2 * 3
    # 17 significant digits survive the round trip exactly
    for row in rows[1:]:
        path, t, x = int(row[0]), float(row[1]), float(row[2])
        k = round(t / 0.5)
        assert x == ens.states[path, k, 0]
