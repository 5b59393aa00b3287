"""Linear-drift diffusion marginals against ODE-integration oracles.

The closed forms are cross-checked three independent ways: hand values for
the scalar case, fourth-order Runge-Kutta on the moment ODEs for dense
cases, and the defining algebraic equation for the stationary covariance.
"""

import math

from dataclasses import replace

import numpy as np
import pytest

from anisopriv.errors import AnisoError, NotPositiveDefinite
from anisopriv.linalg import SpdMatrix
from anisopriv.sde import QuadraticDrift
from anisopriv.ou import (
    GaussianState,
    QuadraticProblem,
    error_to_opt,
    euler_law,
    exact_state,
    gaussian_kl,
    mismatch_moment,
)


def rk4_moments(gram, sigma, x_opt, x0, v0, t, steps=4000):
    """Integrate dm = -G(m - x*) dt, dV = (-GV - VG + Sigma) dt."""
    m = x0.astype(float).copy()
    v = v0.astype(float).copy()
    h = t / steps

    def fm(m):
        return -gram @ (m - x_opt)

    def fv(v):
        return -gram @ v - v @ gram + sigma

    for _ in range(steps):
        k1m, k1v = fm(m), fv(v)
        k2m, k2v = fm(m + h / 2 * k1m), fv(v + h / 2 * k1v)
        k3m, k3v = fm(m + h / 2 * k2m), fv(v + h / 2 * k2v)
        k4m, k4v = fm(m + h * k3m), fv(v + h * k3v)
        m = m + h / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
        v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return m, v


def scalar_problem(x0=1.0):
    return QuadraticProblem(
        np.array([[1.0]]), np.array([0.0]), SpdMatrix(np.array([[1.0]])),
        np.array([x0]),
    )


def noncommuting_problem():
    design = np.array([[1.0, 0.3], [0.0, 1.5]])
    sigma = SpdMatrix(np.array([[1.0, 0.2], [0.2, 0.5]]))
    return QuadraticProblem(design, np.array([0.4, -0.2]), sigma, np.array([1.0, -1.0]))


def test_scalar_mean_and_variance_hand_values():
    st = exact_state(scalar_problem(), 1.0)
    assert st.mean[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert st.cov.entries[0, 0] == pytest.approx((1 - math.exp(-2.0)) / 2, rel=1e-12)
    assert st.time == 1.0


def test_time_zero_returns_start():
    p = scalar_problem(x0=3.0)
    st = exact_state(p, 0.0)
    assert st.mean[0] == 3.0
    assert st.cov.entries[0, 0] == 0.0
    assert st.time == 0.0


def test_optimum_solves_normal_equations():
    p = noncommuting_problem()
    resid = p.gram @ p.optimum - p.design.T @ p.target
    assert np.linalg.norm(resid) <= 1e-12


def test_moments_match_rk4_oracle_noncommuting():
    p = noncommuting_problem()
    st = exact_state(p, 0.7)
    m, v = rk4_moments(p.gram.entries if hasattr(p.gram, "entries") else p.gram,
                       p.noise_cov.entries, np.asarray(p.optimum),
                       p.x0, np.zeros((2, 2)), 0.7)
    assert np.allclose(st.mean, m, rtol=0, atol=1e-9)
    assert np.allclose(st.cov.entries, v, rtol=0, atol=1e-8)


def random_noncommuting_problem(with_v0=True):
    rng = np.random.default_rng(2302)
    design = rng.standard_normal((4, 3))
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    v0 = SpdMatrix(0.1 * b @ b.T) if with_v0 else None
    return QuadraticProblem(design, rng.standard_normal(4), SpdMatrix(a @ a.T + 0.2 * np.eye(3)),
                            rng.standard_normal(3), v0)


@pytest.mark.parametrize("with_v0", [True, False])
@pytest.mark.parametrize("t", [0.7, 1e-4, 1e-9])
def test_random_noncommuting_moments_match_rk4(t, with_v0):
    # small t puts every (w_i + w_j) t in the expm1 regime, where 1 - exp
    # loses about 1e-7 relative at t = 1e-9; without v0 the covariance there
    # is only the O(t) noise term, so a relative check sees it
    p = random_noncommuting_problem(with_v0)
    comm = p.gram @ p.noise_cov.entries - p.noise_cov.entries @ p.gram
    assert np.linalg.norm(comm) > 0.1 * np.linalg.norm(p.gram) * np.linalg.norm(p.noise_cov.entries)
    v0 = p.v0.entries if with_v0 else np.zeros((3, 3))
    m, v = rk4_moments(p.gram, p.noise_cov.entries, p.optimum, p.x0, v0, t)
    st = exact_state(p, t)
    assert np.allclose(st.mean, m, rtol=1e-12, atol=1e-14)
    assert np.allclose(st.cov.entries, v, rtol=0, atol=1e-12 * np.abs(v).max())


@pytest.mark.parametrize("with_v0", [True, False])
def test_euler_law_matches_per_step_recursion(with_v0):
    # counts in any order, repeated and from 0, each the law after that many
    # steps of m' = F m + h pull, P' = F P F.T + h S from (x0, v0)
    p = random_noncommuting_problem(with_v0)
    h = 0.9 / np.linalg.eigvalsh(p.gram).max()
    counts = [17, 0, 3, 3, 1, 64]
    means, covs = euler_law(p, h, counts)
    assert means.shape == (6, 3) and covs.shape == (6, 3, 3)
    f = np.eye(3) - h * p.gram
    m, v = p.x0.copy(), p.v0.entries.copy() if with_v0 else np.zeros((3, 3))
    laws = []
    for _ in range(max(counts) + 1):
        laws.append((m, v))
        m, v = f @ m + h * p._pull, f @ v @ f.T + h * p.noise_cov.entries
    for k, n in enumerate(counts):
        assert np.allclose(means[k], laws[n][0], rtol=1e-12, atol=1e-13)
        assert np.allclose(covs[k], laws[n][1], rtol=0, atol=1e-12 * np.abs(laws[n][1]).max()
                           + (n == 0 and not with_v0))


def test_mismatch_moment_matches_sampled_mean():
    # an affine gap under one Gaussian law, against 2e5 draws of it
    p = random_noncommuting_problem()
    design = p.design.copy()
    design[0] *= 1.7
    q = QuadraticProblem(design, p.target + 0.3, p.noise_cov, p.x0)
    state = exact_state(p, 0.4)
    rng = np.random.default_rng(8)
    x = rng.multivariate_normal(state.mean, state.cov.entries, size=200_000)
    white = np.linalg.solve(p.noise_cov.chol_lower, (p.evaluate(x) - q.evaluate(x)).T)
    sampled = np.sum(white * white, axis=0)
    got = mismatch_moment(p, q, state.mean, state.cov.entries)
    assert np.ndim(got) == 0
    assert abs(got - sampled.mean()) <= 4.0 * sampled.std() / math.sqrt(sampled.size)


def test_error_to_opt_long_time_reaches_stationary_value():
    p = random_noncommuting_problem()
    assert error_to_opt(p, 200.0) == pytest.approx(error_to_opt(p, math.inf), rel=1e-14)


def test_initial_covariance_propagates():
    v0 = SpdMatrix(np.diag([0.25]))
    p = QuadraticProblem(
        np.array([[1.0]]), np.array([0.0]), SpdMatrix(np.array([[1.0]])),
        np.array([1.0]), v0,
    )
    st = exact_state(p, 0.5)
    want = (1 - math.exp(-1.0)) / 2 + 0.25 * math.exp(-1.0)
    assert st.cov.entries[0, 0] == pytest.approx(want, rel=1e-10)
    st0 = exact_state(p, 0.0)
    assert st0.cov.entries[0, 0] == 0.25


def test_invariant_state_satisfies_lyapunov_equation():
    p = noncommuting_problem()
    inv = exact_state(p, math.inf)
    g = p.gram
    resid = g @ inv.cov.entries + inv.cov.entries @ g - p.noise_cov.entries
    assert np.linalg.norm(resid) <= 1e-12
    assert np.allclose(inv.mean, p.optimum, rtol=0, atol=1e-14)
    assert math.isinf(inv.time)


def test_invariant_closed_form_half_inverse():
    # gram = design^T design = diag(1, 4)
    p = QuadraticProblem(
        np.diag([1.0, 2.0]), np.zeros(2), SpdMatrix(np.diag([1.0, 1.0])),
        np.zeros(2),
    )
    inv = exact_state(p, math.inf)
    assert np.allclose(inv.cov.entries, np.diag([0.5, 0.125]), rtol=1e-14)


def test_exact_state_converges_to_invariant():
    p = noncommuting_problem()
    inv = exact_state(p, math.inf)
    late = exact_state(p, 40.0)
    assert np.allclose(late.cov.entries, inv.cov.entries, rtol=0, atol=1e-7)
    assert np.allclose(late.mean, inv.mean, rtol=0, atol=1e-12)


def test_gaussian_kl_hand_value():
    a = GaussianState(np.array([0.0]), SpdMatrix(np.array([[1.0]])), 1.0)
    b = GaussianState(np.array([1.0]), SpdMatrix(np.array([[2.0]])), 1.0)
    want = 0.5 * (math.log(2.0) - 1.0 + 0.5 + 0.5)
    assert gaussian_kl(a, b) == pytest.approx(want, rel=1e-14)


def test_gaussian_kl_identical_is_zero():
    st = exact_state(noncommuting_problem(), 1.0)
    assert gaussian_kl(st, st) == 0.0


def test_gaussian_kl_nonnegative_fuzz():
    rng = np.random.default_rng(77)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim))
        sa = SpdMatrix(a @ a.T + 0.1 * np.eye(dim))
        sb = SpdMatrix(b @ b.T + 0.1 * np.eye(dim))
        pa = GaussianState(rng.standard_normal(dim), sa, 1.0)
        pb = GaussianState(rng.standard_normal(dim), sb, 1.0)
        assert gaussian_kl(pa, pb) >= 0.0


def test_gaussian_kl_affine_invariance():
    # KL is preserved when both laws pass through the same invertible map
    rng = np.random.default_rng(5)
    a_mat = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    mean_p, mean_q = rng.standard_normal(3), rng.standard_normal(3)
    base = rng.standard_normal((3, 3))
    cov_p = base @ base.T + np.eye(3)
    base2 = rng.standard_normal((3, 3))
    cov_q = base2 @ base2.T + np.eye(3)
    kl0 = gaussian_kl(
        GaussianState(mean_p, SpdMatrix(cov_p), 0.0),
        GaussianState(mean_q, SpdMatrix(cov_q), 0.0),
    )
    kl1 = gaussian_kl(
        GaussianState(a_mat @ mean_p, SpdMatrix(a_mat @ cov_p @ a_mat.T), 0.0),
        GaussianState(a_mat @ mean_q, SpdMatrix(a_mat @ cov_q @ a_mat.T), 0.0),
    )
    assert kl1 == pytest.approx(kl0, rel=1e-9)


def spd_with_condition(rng, dim, cond):
    """Random SPD matrix with eigenvalues spaced log-evenly over a ratio of cond."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = np.logspace(0.0, -np.log10(cond), dim) * rng.uniform(0.5, 2.0)
    return SpdMatrix((q * w) @ q.T)


def test_gaussian_kl_matches_slogdet_inverse_oracle():
    # independent oracle: log-determinants from slogdet, Vq^{-1} from an explicit
    # inverse. Both routes lose about cond(Vq) * eps to the rounding of their
    # inputs, so the tolerance is 1e-9 plus that.
    rng = np.random.default_rng(31)
    conds = (1.0, 1e2, 1e4, 1e6, 1e8)
    for dim in range(1, 9):
        for cond_p in conds:
            for cond_q in conds:
                vp = spd_with_condition(rng, dim, cond_p).entries
                vq = spd_with_condition(rng, dim, cond_q).entries
                mp, mq = rng.standard_normal(dim), rng.standard_normal(dim)
                iq = np.linalg.inv(vq)
                dm = mq - mp
                want = 0.5 * (np.linalg.slogdet(vq)[1] - np.linalg.slogdet(vp)[1] - dim
                              + np.trace(iq @ vp) + dm @ iq @ dm)
                got = gaussian_kl(GaussianState(mp, SpdMatrix(vp), 1.0),
                                  GaussianState(mq, SpdMatrix(vq), 1.0))
                rel = 1e-9 + np.linalg.cond(vq) * np.finfo(float).eps
                assert got == pytest.approx(want, rel=rel), (dim, cond_p, cond_q)


def test_error_to_opt_hand_values():
    p = scalar_problem()
    assert error_to_opt(p, 1.0) == pytest.approx((1 - math.exp(-2.0)) / 2, rel=1e-12)
    assert error_to_opt(p, math.inf) == pytest.approx(0.5, rel=1e-14)


def test_error_to_opt_riemann_oracle():
    p = noncommuting_problem()
    # independent oracle: trapezoid on ||exp(G(u-t)) L||_F^2
    from scipy.linalg import expm

    t = 0.8
    low = np.linalg.cholesky(p.noise_cov.entries)
    us = np.linspace(0.0, t, 20001)
    vals = [np.linalg.norm(expm(p.gram * (u - t)) @ low, "fro") ** 2 for u in us]
    want = np.trapezoid(vals, us)
    assert error_to_opt(p, t) == pytest.approx(want, rel=1e-6)


def test_gaussian_state_validates_time():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(1), SpdMatrix(np.eye(1)), -1.0)


def test_problem_is_its_own_quadratic_drift():
    rng = np.random.default_rng(17)
    design, target = rng.standard_normal((5, 3)), rng.standard_normal(5)
    p = QuadraticProblem(design, target, SpdMatrix(np.eye(3)), np.zeros(3))
    assert isinstance(p, QuadraticDrift)
    drift = QuadraticDrift(design, target)
    for rows in (1, 7, 2049):
        x = rng.standard_normal((rows, 3))
        assert np.array_equal(p.evaluate(x), drift.evaluate(x))
    assert np.array_equal(p.gram, drift.gram)
    assert not p.gram.flags.writeable


def test_problem_rejects_singular_design():
    with pytest.raises(ValueError):
        QuadraticProblem(
            np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2),
            SpdMatrix(np.eye(2)), np.zeros(2),
        )


# Per-matrix reference: the one-noise-matrix formulas as they stood before the
# closed form took noise stacks, on plain arrays. The library must reproduce
# them bit for bit, one stack entry at a time.


def reference_law(p, noise, t):
    """(mean, cov) of p's time-t law with the (d, d) noise covariance noise."""
    w, q = np.linalg.eigh(p.gram)
    optimum = q @ ((q.T @ (p.design.T @ p.target)) / w)
    s_rot = q.T @ noise @ q
    e = (q * np.exp(-t * w)) @ q.T
    mean = (np.eye(p.dim) - e) @ optimum + e @ p.x0
    rate = np.add.outer(w, w)
    cov = q @ (s_rot * (-np.expm1(-rate * t) / rate)) @ q.T
    if p.v0 is not None:
        cov = cov + e @ p.v0.entries @ e
    return mean, (cov + cov.T) / 2.0


def reference_kl(mean_p, cov_p, mean_q, cov_q):
    lp = np.linalg.cholesky(cov_p)
    lq = np.linalg.cholesky(cov_q)
    a = np.linalg.solve(lq, lp)
    tr = float(np.sum(a * a))
    w = np.linalg.solve(lq, mean_q - mean_p)
    quad = float(w @ w)
    logdet = (2.0 * float(np.sum(np.log(np.diag(lq))))
              - 2.0 * float(np.sum(np.log(np.diag(lp)))))
    return max(0.0, 0.5 * (logdet - mean_p.shape[0] + tr + quad))


def reference_error(p, noise, t):
    w, q = np.linalg.eigh(p.gram)
    s_rot = q.T @ noise @ q
    return 0.5 * float(np.sum(np.diag(s_rot) * -np.expm1(-2.0 * w * t) / w))


def stacked_pair(d, with_v0, count=9):
    """Two problems of dimension d with different designs and targets that share
    a stack of count dense noise covariances."""
    rng = np.random.default_rng(6100 + 10 * d + with_v0)
    a = rng.standard_normal((count, d, d))
    noise = SpdMatrix(a @ a.swapaxes(-1, -2) + 0.1 * np.eye(d))
    b = rng.standard_normal((d, d))
    v0 = SpdMatrix(0.2 * b @ b.T + 0.01 * np.eye(d)) if with_v0 else None
    x0 = rng.standard_normal(d)
    design = rng.standard_normal((d + 2, d))
    design_b = design + 0.1 * rng.standard_normal((d + 2, d))
    pa = QuadraticProblem(design, rng.standard_normal(d + 2), noise, x0, v0)
    pb = QuadraticProblem(design_b, rng.standard_normal(d + 2), noise, x0, v0)
    return pa, pb


@pytest.mark.parametrize("t", [0.3, 10.0, math.inf])
@pytest.mark.parametrize("with_v0", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_noise_stack_matches_per_matrix_reference(d, with_v0, t):
    pa, pb = stacked_pair(d, with_v0)
    noise = pa.noise_cov.entries
    assert np.abs(noise[..., ~np.eye(d, dtype=bool)]).min(initial=1.0) > 0.0
    sa, sb = exact_state(pa, t), exact_state(pb, t)
    kl = gaussian_kl(sa, sb)
    err = error_to_opt(pa, t)
    assert sa.cov.entries.shape == noise.shape and kl.shape == err.shape == (len(noise),)
    for g, s in enumerate(noise):
        ma, va = reference_law(pa, s, t)
        mb, vb = reference_law(pb, s, t)
        assert np.array_equal(sa.mean, ma) and np.array_equal(sb.mean, mb)
        assert np.array_equal(sa.cov.entries[g], va) and np.array_equal(sb.cov.entries[g], vb)
        want_kl = reference_kl(ma, va, mb, vb)
        assert kl[g] == want_kl and err[g] == reference_error(pa, s, t)
        # one noise matrix is the same computation without the leading axis
        one = SpdMatrix(s)
        qa, qb = replace(pa, noise_cov=one), replace(pb, noise_cov=one)
        oa, ob = exact_state(qa, t), exact_state(qb, t)
        assert np.array_equal(oa.cov.entries, va) and np.array_equal(ob.mean, mb)
        assert gaussian_kl(oa, ob) == want_kl and error_to_opt(qa, t) == err[g]


def test_noise_stack_at_time_zero_is_the_initial_law():
    pa, _ = stacked_pair(3, with_v0=True)
    st = exact_state(pa, 0.0)
    assert st.cov.entries.shape == pa.noise_cov.entries.shape
    assert np.array_equal(st.cov.entries, np.broadcast_to(pa.v0.entries, st.cov.entries.shape))
    assert np.array_equal(st.mean, pa.x0)


TIME_GRID = np.array([0.0, 1e-3, 0.3, 10.0, math.inf])


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("with_v0", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_time_grid_matches_per_time_calls(d, with_v0, stacked):
    # one call over a time grid is the per-time calls stacked, bit for bit, with
    # the time axis next to the matrix axes: (T, d) means, ([G,] T, d, d) laws
    pa, pb = stacked_pair(d, with_v0)
    if not stacked:
        one = SpdMatrix(pa.noise_cov.entries[0])
        pa, pb = replace(pa, noise_cov=one), replace(pb, noise_cov=one)
    stack = pa.noise_cov.entries.shape[:-2]
    sa, sb = exact_state(pa, TIME_GRID), exact_state(pb, TIME_GRID)
    err = error_to_opt(pa, TIME_GRID)
    # laws started at the point x0 have no covariance to factor at t = 0
    kl_times = TIME_GRID if with_v0 else TIME_GRID[1:]
    kl = gaussian_kl(exact_state(pa, kl_times), exact_state(pb, kl_times))
    assert sa.mean.shape == (5, d) and sa.cov.entries.shape == (*stack, 5, d, d)
    assert np.array_equal(sa.time, TIME_GRID)
    assert err.shape == (*stack, 5) and kl.shape == (*stack, len(kl_times))
    for i, t in enumerate(TIME_GRID):
        for st, p in ((sa, pa), (sb, pb)):
            one = exact_state(p, float(t))
            assert np.array_equal(st.mean[i], one.mean)
            assert np.array_equal(st.cov.entries[..., i, :, :], one.cov.entries)
        assert np.array_equal(err[..., i], error_to_opt(pa, float(t)))
    for i, t in enumerate(kl_times):
        want = gaussian_kl(exact_state(pa, float(t)), exact_state(pb, float(t)))
        assert np.array_equal(kl[..., i], want)
    # t = 0 is the start law exactly, and no noise has accumulated
    start = np.broadcast_to(pa.v0.entries if with_v0 else 0.0, (*stack, d, d))
    assert np.array_equal(sa.mean[0], pa.x0)
    assert np.array_equal(sa.cov.entries[..., 0, :, :], start)
    assert np.all(err[..., 0] == 0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_gaussian_kl_that_overflows_raises():
    a = GaussianState(np.zeros(2), SpdMatrix(np.eye(2)), 1.0)
    b = GaussianState(np.array([0.0, 1e300]), SpdMatrix(np.eye(2)), 1.0)
    with pytest.raises(AnisoError) as exc:
        gaussian_kl(a, b)
    assert exc.value.operation == "gaussian_kl"


@pytest.mark.parametrize("with_v0", [False, True])
def test_exact_laws_are_factored_once_and_never_eigendecomposed(monkeypatch, with_v0):
    # construction factors each law stack once, and the KL reuses that factor
    import anisopriv.linalg as linalg

    pa, pb = stacked_pair(3, with_v0)
    calls = []
    real = linalg._checked_cholesky
    monkeypatch.setattr(linalg, "_checked_cholesky", lambda m: calls.append(m.shape) or real(m))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: pytest.fail("eigvalsh called"))
    times = np.array([1e-3, 0.3, 10.0, math.inf])
    kl = gaussian_kl(exact_state(pa, times), exact_state(pb, times))
    assert kl.shape == (9, 4)
    assert calls == [(36, 3, 3), (36, 3, 3)]


def test_law_at_time_zero_is_accepted_and_refused_by_the_kl():
    # a zero covariance fails the factor, so its stack is checked by its
    # eigenvalues and accepted; the KL, a strict operation, still refuses it
    pa, pb = stacked_pair(2, with_v0=False)
    times = np.array([0.5, 0.0, 1.0])
    sa, sb = exact_state(pa, times), exact_state(pb, times)
    assert np.all(sa.cov.entries[:, 1] == 0.0)
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite) as exc:
            gaussian_kl(sa, sb)
        assert exc.value.operation == "cholesky"
