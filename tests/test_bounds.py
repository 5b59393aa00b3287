"""Mismatch field, Monte-Carlo KL bound accumulation, and the closed-form
bound family.

The accumulation test recomputes the time integral with explicit Python
loops so the vectorized path has an independent witness, and a stored-ensemble
reference checks that the bound taken inside the Euler loop, block by block,
is bit-identical to one taken after simulate. Closed-form values
are frozen from separate hand derivations of each factor.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisopriv.bounds import (
    CallableScore,
    GaussianScore,
    RegularityParams,
    convergence_bound,
    euler_kl_bound,
    klbound_closed,
    klbound_stationary,
    lsi_constant,
    lsi_rate,
    mc_kl_bound,
    phi,
    xi_bound,
)
from anisopriv.errors import AnisoError, ScoreRequired
from anisopriv.linalg import SpdMatrix
from anisopriv.ou import GaussianState, QuadraticProblem, exact_state
from anisopriv.sde import (ConstantSpd, DiagonalOfState, MinibatchSgd, QuadraticDrift, SimConfig,
                           simulate)
from test_sde import (assert_each_step_drawn_once_on_both_threads, least_squares_grads,
                      projected_least_squares_cov, stealing_draws)


def all_ones_params(gap=0.0):
    xp = np.array([math.sqrt(gap)]) if gap else np.array([0.0])
    return RegularityParams(
        kappa=1.0, grad_lip=1.0, kappa_prime=1.0, grad_lip_prime=1.0,
        sigma=1.0, sigma_prime=1.0, lsi0=2.0,
        xstar=np.array([0.0]), xstar_prime=xp,
    )


def test_phi_equal_covariances_is_drift_gap():
    drift_a = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    drift_b = QuadraticDrift(np.array([[1.0]]), np.array([0.1]))
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    x = np.array([[0.7], [-0.2]])
    out = phi(x, drift_a, drift_b, cov, cov)
    want = drift_a.evaluate(x) - drift_b.evaluate(x)
    assert np.array_equal(out, want)
    assert np.allclose(out, -0.1)


def test_phi_requires_score_for_unequal_covariances():
    drift = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    cov_a = ConstantSpd(SpdMatrix(np.diag([1.0])))
    cov_b = ConstantSpd(SpdMatrix(np.diag([2.0])))
    with pytest.raises(ScoreRequired):
        phi(np.array([[1.0]]), drift, drift, cov_a, cov_b)


def test_phi_score_term_hand_value():
    # same drift, covariances diag(1) vs diag(2), score s(x) = -x:
    # phi = (cov_b - cov_a) s(x) - (drift_b - drift_a) = -x
    drift = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    cov_a = ConstantSpd(SpdMatrix(np.diag([1.0])))
    cov_b = ConstantSpd(SpdMatrix(np.diag([2.0])))
    score = CallableScore(lambda x: -x)
    x = np.array([[2.0], [-1.0]])
    out = phi(x, drift, drift, cov_a, cov_b, score)
    assert np.allclose(out, -x, rtol=1e-14)


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return SpdMatrix(a @ a.T + 0.1 * np.eye(d))


@pytest.mark.parametrize("pair", ["constant", "diagonal", "minibatch-constant"])
def test_phi_unequal_covariances_match_per_row_reference(pair):
    # phi's score term, (S_b - S_a)(x) @ score(x), against one matrix-vector
    # product per row with each S built from its definition
    rng = np.random.default_rng(13)
    x = rng.standard_normal((40, 3))
    drift = QuadraticDrift(rng.standard_normal((4, 3)), rng.standard_normal(4))
    score = CallableScore(lambda x: np.sin(3.0 * x) - x)
    if pair == "constant":
        m_a, m_b = random_spd(rng, 3), random_spd(rng, 3)
        cov_a, cov_b = ConstantSpd(m_a), ConstantSpd(m_b)
        at_a, at_b = (lambda row: m_a.entries), (lambda row: m_b.entries)
    elif pair == "diagonal":
        cov_a = DiagonalOfState(lambda x: x * x + 0.5)
        cov_b = DiagonalOfState(lambda x: np.exp(0.3 * x))
        at_a = lambda row: np.diag(row * row + 0.5)
        at_b = lambda row: np.diag(np.exp(0.3 * row))
    else:
        m_b = random_spd(rng, 3)
        cov_a, cov_b = MinibatchSgd(least_squares_grads, batch=2), ConstantSpd(m_b)
        at_a, at_b = projected_least_squares_cov, (lambda row: m_b.entries)
    s = score.evaluate(x)
    deltas = np.stack([at_b(row) - at_a(row) for row in x])
    h_gap = (drift.evaluate(x) - cov_b.divergence(x) - drift.evaluate(x) + cov_a.divergence(x))
    want = np.stack([dp @ sp for dp, sp in zip(deltas, s)]) - h_gap
    got = phi(x, drift, drift, cov_a, cov_b, score)
    if pair == "constant":
        # the batched product may round differently from one gemv per row
        scale = np.stack([np.abs(dp) @ np.abs(sp) for dp, sp in zip(deltas, s)])
        assert np.all(np.abs(got - want) <= 1e-15 * scale)
    else:
        assert np.array_equal(got, want)


def test_phi_gaussian_score_matches_formula():
    state = GaussianState(np.array([1.0, 0.0]), SpdMatrix(np.diag([2.0, 0.5])), 1.0)
    score = GaussianScore(state)
    x = np.array([[2.0, 1.0]])
    want = -np.linalg.solve(state.cov.entries, (x[0] - state.mean))
    assert np.allclose(score.evaluate(x)[0], want, rtol=1e-12)
    # a dense covariance, where the factor is not its own transpose, on many rows
    rng = np.random.default_rng(12)
    a = rng.standard_normal((5, 5))
    state = GaussianState(rng.standard_normal(5), SpdMatrix(a @ a.T + 0.1 * np.eye(5)), 1.0)
    x = rng.standard_normal((30, 5))
    want = -np.linalg.solve(state.cov.entries, (x - state.mean).T).T
    assert np.allclose(GaussianScore(state).evaluate(x), want, rtol=1e-10, atol=1e-12)


def test_phi_refuses_a_single_point():
    # a single point on the unequal-diffusion path would broadcast into wrong
    # (dim, dim) stacks without any error
    drift_a = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    drift_b = QuadraticDrift(np.array([[1.0]]), np.array([0.5]))
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    with pytest.raises(ValueError, match="row stack"):
        phi(np.array([0.3]), drift_a, drift_b, cov, cov)
    assert phi(np.array([[0.3]]), drift_a, drift_b, cov, cov).shape == (1, 1)


def test_mc_bound_matches_loop_oracle():
    drift_a = QuadraticDrift(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([0.0, 0.0]))
    drift_b = QuadraticDrift(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([0.2, -0.1]))
    cov = ConstantSpd(SpdMatrix(np.diag([1.0, 4.0])))
    cfg = SimConfig(step=0.25, horizon=1.0, paths=3, seed=17)
    curve = mc_kl_bound(drift_a, drift_b, cov, cov, np.array([1.0, -1.0]), cfg)
    # mc_kl_bound stores no states; simulate gives the same ensemble for the seed
    ens = simulate(drift_a, cov, np.array([1.0, -1.0]), cfg)

    # loop oracle: left-endpoint rectangle rule per path, then average
    sig_inv_half = np.diag([1.0, 0.5])
    per_path = np.zeros((3, 5))
    for p in range(3):
        acc = 0.0
        for k in range(4):
            x = ens.states[p, k]
            mism = drift_a.evaluate(x[None, :])[0] - drift_b.evaluate(x[None, :])[0]
            acc += 0.5 * float(np.sum((sig_inv_half @ mism) ** 2)) * 0.25
            per_path[p, k + 1] = acc
    want = per_path.mean(axis=0)
    assert np.allclose(curve.bounds, want, rtol=1e-12, atol=1e-15)
    want_se = per_path.std(axis=0, ddof=1) / math.sqrt(3)
    assert np.allclose(curve.stderr, want_se, rtol=1e-12, atol=1e-15)


def test_mc_bound_constant_mismatch_linear_in_time():
    # adjacent scalar quadratics: mismatch is the constant -0.1, so the
    # bound is exactly 0.005 t with zero spread
    drift_a = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    drift_b = QuadraticDrift(np.array([[1.0]]), np.array([0.1]))
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    cfg = SimConfig(step=0.01, horizon=1.0, paths=8, seed=2, record_stride=25)
    curve = mc_kl_bound(drift_a, drift_b, cov, cov, np.array([1.0]), cfg)
    assert np.allclose(curve.bounds, 0.005 * curve.times, rtol=1e-12)
    assert np.allclose(curve.stderr, 0.0, atol=1e-15)


def test_mc_bound_starts_at_zero_and_is_nondecreasing():
    drift_a = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    drift_b = QuadraticDrift(np.array([[0.5]]), np.array([0.3]))
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    cfg = SimConfig(step=0.05, horizon=2.0, paths=16, seed=4)
    curve = mc_kl_bound(drift_a, drift_b, cov, cov, np.array([0.0]), cfg)
    assert curve.bounds[0] == 0.0
    assert np.all(np.diff(curve.bounds) >= 0.0)


def test_mc_bound_single_path_has_zero_stderr():
    drift = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    cfg = SimConfig(step=0.1, horizon=0.5, paths=1, seed=0)
    curve = mc_kl_bound(drift, QuadraticDrift(np.array([[1.0]]), np.array([1.0])),
                        cov, cov, np.array([1.0]), cfg)
    assert np.all(curve.stderr == 0.0)


def test_time_varying_score_resolved_per_time():
    # score switches sign at t = 0.5; the weight must follow it
    drift = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    cov_a = ConstantSpd(SpdMatrix(np.diag([1.0])))
    cov_b = ConstantSpd(SpdMatrix(np.diag([2.0])))

    resolved = []

    def at_time(t):
        resolved.append(t)
        sign = 1.0 if t < 0.5 else -1.0
        return CallableScore(lambda x: sign * np.ones_like(x))

    cfg = SimConfig(step=0.25, horizon=1.0, paths=2, seed=6)
    curve = mc_kl_bound(drift, drift, cov_a, cov_b, np.array([0.0]), cfg, at_time)
    # once per left endpoint, never at the horizon
    assert resolved == list(curve.times[:-1])
    # phi = (2-1)*score = +-1, whitened norm^2 = 1 under cov_a at every point,
    # so each step adds 0.5 * 1 * 0.25 regardless of the sign flip
    assert np.allclose(curve.bounds, 0.125 * np.arange(5), rtol=1e-12)


def stored_ensemble_bound(drift_a, drift_b, cov_a, cov_b, x0, cfg, score_at=None):
    """Reference: simulate and store the ensemble, then take the integrand one
    record at a time over all paths and sum it in time."""
    ens = simulate(drift_a, cov_a, x0, cfg)
    times = ens.times
    w = np.zeros((ens.paths, times.shape[0]))
    for j in range(times.shape[0] - 1):
        score = None if score_at is None else score_at(float(times[j]))
        x = ens.states[:, j, :]
        white = cov_a.whiten(x, phi(x, drift_a, drift_b, cov_a, cov_b, score))
        w[:, j] = np.sum(white * white, axis=1)
    per_path = np.zeros_like(w)
    per_path[:, 1:] = 0.5 * np.cumsum(w[:, :-1] * np.diff(times), axis=1)
    stderr = (per_path.std(axis=0, ddof=1) / math.sqrt(ens.paths) if ens.paths > 1
              else np.zeros(times.shape[0]))
    return times, per_path.mean(axis=0), stderr


DESIGN3 = np.array([[1.0, 0.2, 0.0], [0.0, 1.5, -0.3], [0.4, 0.0, 0.8], [0.1, 0.1, 0.1]])
SIGMA3 = np.array([[1.0, 0.3, 0.1], [0.3, 0.8, 0.0], [0.1, 0.0, 0.6]])


def shared_case():
    cov = ConstantSpd(SpdMatrix(SIGMA3))
    return (QuadraticDrift(DESIGN3, [0.0, 0.1, -0.2, 0.3]),
            QuadraticDrift(DESIGN3, [0.2, 0.1, -0.2, 0.0]), cov, cov, None)


def unequal_case():
    # a Gaussian score whose law moves and widens with t
    def at_time(t):
        law = GaussianState(np.array([t, -t, 0.5 * t]), SpdMatrix((0.1 + t) * SIGMA3), t)
        return GaussianScore(law)

    drift = QuadraticDrift(DESIGN3, [0.0, 0.1, -0.2, 0.3])
    return (drift, drift, ConstantSpd(SpdMatrix(SIGMA3)),
            ConstantSpd(SpdMatrix(np.diag([0.9, 1.1, 0.7]))), at_time)


@pytest.mark.parametrize("case", [shared_case, unequal_case])
@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("paths", [1, 2, 3, 2049, 4097, 5000])
def test_mc_bound_equals_stored_ensemble_bound(paths, stride, case):
    # 2049 and more paths span several row blocks, which must stitch exactly
    drift_a, drift_b, cov_a, cov_b, score_at = case()
    x0 = np.array([0.5, -0.5, 1.0])
    cfg = SimConfig(step=0.01, horizon=0.2, paths=paths, seed=23, record_stride=stride)
    curve = mc_kl_bound(drift_a, drift_b, cov_a, cov_b, x0, cfg, score_at)
    times, bounds, stderr = stored_ensemble_bound(drift_a, drift_b, cov_a, cov_b, x0, cfg,
                                                  score_at)
    assert np.array_equal(curve.times, times)
    assert np.array_equal(curve.bounds, bounds)
    assert np.array_equal(curve.stderr, stderr)


@pytest.mark.parametrize("case", [shared_case, unequal_case])
@pytest.mark.parametrize("stride", [1, 10])
def test_mc_bound_of_the_problems_equals_that_of_their_drifts(stride, case):
    # a QuadraticProblem is its own drift: the bound it gives is bit for bit
    # the one its design and target give as a QuadraticDrift
    drift_a, drift_b, cov_a, cov_b, score_at = case()
    x0 = np.array([0.5, -0.5, 1.0])
    prob_a, prob_b = (QuadraticProblem(d.design, d.target, c.matrix, x0)
                      for d, c in ((drift_a, cov_a), (drift_b, cov_b)))
    cfg = SimConfig(step=0.01, horizon=0.2, paths=2049, seed=23, record_stride=stride)
    want = mc_kl_bound(drift_a, drift_b, cov_a, cov_b, x0, cfg, score_at)
    got = mc_kl_bound(prob_a, prob_b, cov_a, cov_b, x0, cfg, score_at)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.bounds, want.bounds)
    assert np.array_equal(got.stderr, want.stderr)


@pytest.mark.parametrize("paths", [1, 2049, 5000])
def test_mc_bound_equals_stored_ensemble_bound_when_the_main_thread_draws(monkeypatch, paths):
    drift_a, drift_b, cov_a, cov_b, score_at = unequal_case()
    x0 = np.array([0.5, -0.5, 1.0])
    cfg = SimConfig(step=0.01, horizon=0.2, paths=paths, seed=31, record_stride=4)
    times, bounds, stderr = stored_ensemble_bound(drift_a, drift_b, cov_a, cov_b, x0, cfg,
                                                  score_at)
    threads = threading.active_count()
    log = stealing_draws(monkeypatch)
    curve = mc_kl_bound(drift_a, drift_b, cov_a, cov_b, x0, cfg, score_at)
    assert np.array_equal(curve.times, times)
    assert np.array_equal(curve.bounds, bounds)
    assert np.array_equal(curve.stderr, stderr)
    assert_each_step_drawn_once_on_both_threads(log, cfg.n_steps)
    assert threading.active_count() == threads


def test_mc_bound_without_score_for_unequal_covariances_raises_and_stops_threads():
    drift = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    cov_a = ConstantSpd(SpdMatrix(np.diag([1.0])))
    cov_b = ConstantSpd(SpdMatrix(np.diag([2.0])))
    cfg = SimConfig(step=0.1, horizon=1.0, paths=4, seed=1)
    before = threading.active_count()
    with pytest.raises(ScoreRequired) as exc:
        mc_kl_bound(drift, drift, cov_a, cov_b, np.array([0.0]), cfg)
    assert exc.value.operation == "phi"
    assert threading.active_count() == before


def test_mc_bound_propagates_the_score_error_and_stops_threads():
    drift = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    cov_a = ConstantSpd(SpdMatrix(np.diag([1.0])))
    cov_b = ConstantSpd(SpdMatrix(np.diag([2.0])))
    boom = RuntimeError("score failed")
    seen = []

    def fn(x, t):
        seen.append(t)
        if t > 0.35:
            raise boom
        return -x

    cfg = SimConfig(step=0.1, horizon=1.0, paths=4, seed=1)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        mc_kl_bound(drift, drift, cov_a, cov_b, np.array([0.0]), cfg,
                    lambda t: CallableScore(lambda x: fn(x, t)))
    assert exc.value is boom
    assert seen == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
    assert threading.active_count() == before


def test_mc_bound_rejects_a_non_finite_bound():
    # a mismatch of 1e160 squares past the float range
    drift_a = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
    drift_b = QuadraticDrift(np.array([[1.0]]), np.array([1e160]))
    cov = ConstantSpd(SpdMatrix(np.eye(1)))
    cfg = SimConfig(step=0.1, horizon=0.5, paths=3, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(AnisoError) as exc:
        mc_kl_bound(drift_a, drift_b, cov, cov, np.array([0.0]), cfg)
    assert exc.value.operation == "mc_kl_bound"


def euler_pair(seed, d, equal_designs, critical=False):
    """Two QuadraticProblems that share S and x0, with targets differing in
    the last record and, unless equal_designs, that record's design row too,
    and a step below the stability limit 2 / w_max. critical makes arm a's
    Gram matrix diag(1, ..., 1, 4) with step 0.5, so step * w = 2 and
    lam_i lam_j = 1 for the last coordinate."""
    rng = np.random.default_rng(seed)
    design = np.diag([1.0] * (d - 1) + [2.0]) if critical else rng.standard_normal((d + 2, d))
    design_b = design.copy()
    if not equal_designs:
        design_b[-1] = rng.standard_normal(d)
    target = rng.standard_normal(design.shape[0])
    target_b = target.copy()
    target_b[-1] += rng.uniform(0.2, 1.0)
    s = random_spd(rng, d)
    x0 = rng.standard_normal(d)
    pa, pb = (QuadraticProblem(b, y, s, x0)
              for b, y in ((design, target), (design_b, target_b)))
    step = 0.5 if critical else rng.uniform(0.1, 1.5) / np.linalg.eigvalsh(pa.gram).max()
    return pa, pb, step


def recursion_bound(pa, pb, cfg):
    """The Euler-grid bound from the per-step moments m' = F m + h pull,
    P' = F P F.T + h S, and E (Am + c)' S^-1 (Am + c) + tr(S^-1 A P A.T)."""
    h, s = cfg.step, pa.noise_cov.entries
    f = np.eye(pa.dim) - h * pa.gram
    a, c = pb.gram - pa.gram, pa._pull - pb._pull
    s_inv = np.linalg.inv(s)
    m, p = pa.x0.copy(), np.zeros((pa.dim, pa.dim))
    total, bounds = 0.0, [0.0]
    for n in range(cfg.n_steps):
        if n % cfg.record_stride == 0:
            u = a @ m + c
            total += 0.5 * h * cfg.record_stride * (u @ s_inv @ u + np.trace(s_inv @ a @ p @ a.T))
            bounds.append(total)
        m, p = f @ m + h * pa._pull, f @ p @ f.T + h * s
    return np.array(bounds)


@pytest.mark.parametrize("stride", [1, 3, 10])
@pytest.mark.parametrize("equal_designs", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_euler_bound_matches_per_step_moment_recursion(d, equal_designs, stride):
    for seed in range(3):
        pa, pb, step = euler_pair(100 * d + seed, d, equal_designs)
        cfg = SimConfig(step, 30 * step, paths=1, seed=0, record_stride=stride)
        curve = euler_kl_bound(pa, pb, cfg)
        want = recursion_bound(pa, pb, cfg)
        assert curve.bounds[0] == 0.0 and np.all(curve.stderr == 0.0)
        assert np.allclose(curve.times, np.arange(30 // stride + 1) * step * stride)
        assert np.allclose(curve.bounds, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("stride", [1, 3, 10])
def test_euler_bound_at_step_times_gram_eigenvalue_two(stride):
    # lam = -1 on the last coordinate: lam_i lam_j = 1, where the closed
    # geometric sum (1 - r**n) / (1 - r) divides by zero
    for d in (1, 3):
        pa, pb, step = euler_pair(7 + d, d, equal_designs=False, critical=True)
        assert step * np.linalg.eigvalsh(pa.gram).max() == 2.0
        cfg = SimConfig(step, 30 * step, paths=1, seed=0, record_stride=stride)
        assert np.allclose(euler_kl_bound(pa, pb, cfg).bounds, recursion_bound(pa, pb, cfg),
                           rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("equal_designs", [True, False])
def test_mc_bound_within_four_standard_errors_of_the_euler_bound(equal_designs, stride):
    # the exact curve is the expectation of the Monte Carlo one: the same
    # left-endpoint sum over the same chain. At the first record every path
    # sits at x0, so the two agree to rounding there.
    pa, pb, step = euler_pair(5, 3, equal_designs)
    cfg = SimConfig(step, 40 * step, paths=4000, seed=11, record_stride=stride)
    cov = ConstantSpd(pa.noise_cov)
    mc = mc_kl_bound(pa, pb, cov, cov, pa.x0, cfg)
    exact = euler_kl_bound(pa, pb, cfg)
    assert np.array_equal(mc.times, exact.times)
    assert np.all(np.abs(mc.bounds - exact.bounds)
                  <= 4.0 * mc.stderr + 1e-12 * exact.bounds)


def test_euler_bound_of_a_diverging_chain_raises():
    # step * w = 4: the chain's variance grows as 9**n and overflows
    pa = QuadraticProblem([[2.0]], [0.0], SpdMatrix([[1.0]]), [0.0])
    pb = QuadraticProblem([[1.0]], [0.1], SpdMatrix([[1.0]]), [0.0])
    cfg = SimConfig(1.0, 400.0, paths=1, seed=0)
    with pytest.raises(AnisoError) as exc:
        euler_kl_bound(pa, pb, cfg)
    assert exc.value.operation == "euler_kl_bound"


def test_euler_bound_refuses_unequal_noise():
    pa = QuadraticProblem([[1.0]], [0.0], SpdMatrix([[1.0]]), [0.0])
    pb = QuadraticProblem([[1.0]], [0.1], SpdMatrix([[2.0]]), [0.0])
    with pytest.raises(ValueError, match="share their noise"):
        euler_kl_bound(pa, pb, SimConfig(0.1, 1.0, paths=1, seed=0))


def test_lsi_constant_endpoints_and_monotonicity():
    assert lsi_constant(0.0, 0.5, 2.0) == 2.0
    assert lsi_constant(math.inf, 0.5, 2.0) == 4.0
    assert lsi_rate(1.0, 1.0) == 0.5
    # c0 e^{-rho t} would be inf * 0 = nan at t = inf
    with pytest.raises(ValueError, match="c0 must be positive and finite"):
        lsi_constant(math.inf, 0.5, math.inf)


@given(
    st.floats(0.01, 100.0), st.floats(0.01, 100.0),
    st.floats(0.0, 50.0), st.floats(0.0, 50.0),
)
@settings(max_examples=60, deadline=None)
def test_lsi_constant_monotone_between_endpoints(rho, c0, t1, t2):
    lo, hi = sorted([t1, t2])
    a, b = lsi_constant(lo, rho, c0), lsi_constant(hi, rho, c0)
    if c0 <= 2.0 / rho:
        assert a <= b + 1e-12 * max(1.0, abs(a))
    else:
        assert a >= b - 1e-12 * max(1.0, abs(a))
    limit = 2.0 / rho
    assert min(c0, limit) - 1e-9 <= a <= max(c0, limit) + 1e-9


def test_klbound_closed_frozen_values():
    p = all_ones_params()
    assert klbound_closed(p) == 432.0
    assert klbound_closed(p, stationary_limit=True) == 144.0


def test_klbound_closed_decomposition():
    # independent recomputation, factor by factor, for a non-trivial setting
    p = RegularityParams(
        kappa=0.5, grad_lip=2.0, kappa_prime=1.0, grad_lip_prime=3.0,
        sigma=1.5, sigma_prime=0.5, lsi0=4.0,
        xstar=np.array([1.0, 0.0]), xstar_prime=np.array([0.0, 2.0]),
    )
    gap_sq = 1.0 + 4.0
    moment = 1.5**2 / (2 * 0.5) + 1.0
    brace = 2.0 * (2.0**2 / 3.0**2 + 2.0) * moment + gap_sq
    lead = 8.0 * 3.0**2 / 1.5**2
    tail = (4.0 + 4.0 * 0.5**2 * 1.0) / (1.5**2 * 0.5**2 * 1.0)
    assert klbound_closed(p) == pytest.approx(lead * brace * tail, rel=1e-14)


def test_klbound_stationary_frozen_value():
    assert klbound_stationary(all_ones_params()) == 1.5


def test_xi_bound_frozen_endpoints():
    p = all_ones_params()
    assert xi_bound(0.0, p, 1.0) == 18.0
    assert xi_bound(math.inf, p, 1.0) == 6.0


def test_xi_bound_nonincreasing_in_time():
    p = all_ones_params(gap=0.3)
    ts = [0.0, 0.1, 0.5, 1.0, 5.0, math.inf]
    vals = [xi_bound(t, p, 2.0) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_xi_bound_brace_consistent_with_stationary_bound():
    # at sigma = sigma_prime and coupling 1, the brace inside xi at t = inf
    # equals the brace of the stationary KL bound
    p = RegularityParams(
        kappa=0.7, grad_lip=1.1, kappa_prime=0.9, grad_lip_prime=2.0,
        sigma=1.3, sigma_prime=1.3, lsi0=1.0,
        xstar=np.array([0.5]), xstar_prime=np.array([-0.5]),
    )
    xi_brace = xi_bound(math.inf, p, 1.0) / (2.0 * p.grad_lip_prime**2)
    stat_brace = klbound_stationary(p) * (2.0 * p.kappa_prime * p.sigma_prime**6) / p.grad_lip_prime**2
    assert xi_brace == pytest.approx(stat_brace, rel=1e-12)


def test_xi_bound_against_exact_ou_law():
    # dx = -grad f_a dt + sigma dW from a point x0 within distance 1 of arm
    # a's optimum, the hypothesis E|x0 - xstar|^2 <= 1 that xi_bound's e^{-2
    # kappa t} term carries. grad f_a - c grad f_b = A x + c0 is affine, so its
    # exact second moment under the time-t law N(m, V) is |A m + c0|^2 +
    # tr(A V A.T). Starts 1 to 4 away do fall below the truth.
    rng = np.random.default_rng(2911)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        sigma = float(np.exp(rng.uniform(math.log(0.3), math.log(30.0))))
        coupling = float(rng.uniform(0.5, 2.0))
        design_a, target_a = rng.standard_normal((d + 2, d)), rng.standard_normal(d + 2)
        design_b, target_b = design_a.copy(), target_a.copy()
        j = int(rng.integers(d + 2))
        design_b[j], target_b[j] = rng.standard_normal(d), rng.standard_normal()
        noise = SpdMatrix(sigma**2 * np.eye(d))
        b = QuadraticProblem(design_b, target_b, noise, np.zeros(d))
        optimum_a = QuadraticProblem(design_a, target_a, noise, np.zeros(d)).optimum
        u = rng.standard_normal(d)
        x0 = optimum_a + rng.uniform(0.0, 1.0) * u / np.linalg.norm(u)
        a = QuadraticProblem(design_a, target_a, noise, x0)
        w_a, w_b = np.linalg.eigvalsh(a.gram), np.linalg.eigvalsh(b.gram)
        p = RegularityParams(
            kappa=w_a[0], grad_lip=w_a[-1], kappa_prime=w_b[0], grad_lip_prime=w_b[-1],
            sigma=sigma, sigma_prime=sigma, lsi0=1.0, xstar=a.optimum, xstar_prime=b.optimum,
        )
        mismatch = a.gram - coupling * b.gram
        offset = coupling * design_b.T @ target_b - design_a.T @ target_a
        for t in (0.0, 0.1, 1.0, 10.0, math.inf):
            st = exact_state(a, t)
            mean = mismatch @ st.mean + offset
            truth = mean @ mean + np.trace(mismatch @ st.cov.entries @ mismatch.T)
            assert xi_bound(t, p, coupling) >= truth, (d, sigma, coupling, t)


def test_convergence_bound_endpoints():
    assert convergence_bound(0.0, 1.0, 2.0, 3.0) == 3.0
    assert convergence_bound(math.inf, 1.0, 2.0, 3.0) == 0.5
    # midpoint hand value: v0 e^{-2t} + (tr/4k)(1 - e^{-2t})
    t = 0.7
    want = 3.0 * math.exp(-1.4) + 0.5 * (1 - math.exp(-1.4))
    assert convergence_bound(t, 1.0, 2.0, 3.0) == pytest.approx(want, rel=1e-14)


def half_mean_square_error(p, t):
    """(1/2) E ||x_t - xstar||^2 = (1/2)(|m_t - xstar|^2 + tr V_t) under p's exact
    time-t law."""
    st = exact_state(p, t)
    return 0.5 * (float(np.sum((st.mean - p.optimum) ** 2)) + float(np.trace(st.cov.entries)))


@pytest.mark.parametrize("isotropic", [True, False])
def test_convergence_bound_against_exact_ou_law(isotropic):
    # dx = -G (x - xstar) dt + S^{1/2} dW from a point x0. With G = kappa I and
    # S = sigma^2 I the bound is the exact half mean-square error. With
    # lambda_min(G) = kappa and any S it bounds it: no eigendirection of G
    # contracts slower than kappa, or holds more stationary variance.
    rng = np.random.default_rng(1301 + isotropic)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        kappa = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        if isotropic:
            design = math.sqrt(kappa) * np.eye(d)
            noise = SpdMatrix(rng.uniform(0.1, 3.0) * np.eye(d))
        else:
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            w = kappa * np.concatenate([[1.0], rng.uniform(1.0, 5.0, d - 1)])
            design = (q * np.sqrt(w)) @ q.T
            a = rng.standard_normal((d, d))
            noise = SpdMatrix(a @ a.T + 0.1 * np.eye(d))
        p = QuadraticProblem(design, rng.standard_normal(d), noise, rng.standard_normal(d))
        kappa = float(np.linalg.eigvalsh(p.gram)[0])
        v0 = 0.5 * float(np.sum((p.x0 - p.optimum) ** 2))
        for t in (0.0, 0.1, 1.0, 10.0, math.inf):
            bound = convergence_bound(t, kappa, float(np.trace(noise.entries)), v0)
            truth = half_mean_square_error(p, t)
            if isotropic:
                assert bound == pytest.approx(truth, rel=1e-12), (d, kappa, t)
            else:
                assert bound >= truth * (1.0 - 1e-12), (d, kappa, t)


def test_regularity_params_validation():
    with pytest.raises(ValueError):
        RegularityParams(
            kappa=2.0, grad_lip=1.0, kappa_prime=1.0, grad_lip_prime=1.0,
            sigma=1.0, sigma_prime=1.0, lsi0=1.0,
            xstar=np.zeros(1), xstar_prime=np.zeros(1),
        )
    with pytest.raises(ValueError):
        RegularityParams(
            kappa=1.0, grad_lip=1.0, kappa_prime=1.0, grad_lip_prime=1.0,
            sigma=1.0, sigma_prime=1.0, lsi0=1.0,
            xstar=np.zeros(2), xstar_prime=np.zeros(3),
        )
