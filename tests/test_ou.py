"""Linear-drift diffusion marginals against ODE-integration oracles.

The closed forms are cross-checked three independent ways: hand values for
the scalar case, fourth-order Runge-Kutta on the moment ODEs for dense
cases, and the defining algebraic equation for the stationary covariance.
"""

import math

import numpy as np
import pytest

from anisopriv.linalg import SpdMatrix
from anisopriv.ou import (
    GaussianState,
    QuadraticProblem,
    error_to_opt,
    exact_state,
    gaussian_kl,
    invariant_state,
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


def test_error_to_opt_long_time_reaches_stationary_value():
    p = random_noncommuting_problem()
    assert error_to_opt(p, 200.0) == pytest.approx(error_to_opt(p, math.inf), rel=1e-14)


def test_initial_covariance_propagates():
    v0 = SpdMatrix.diagonal([0.25])
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
    inv = invariant_state(p)
    g = p.gram
    resid = g @ inv.cov.entries + inv.cov.entries @ g - p.noise_cov.entries
    assert np.linalg.norm(resid) <= 1e-12
    assert np.allclose(inv.mean, p.optimum, rtol=0, atol=1e-14)
    assert math.isinf(inv.time)


def test_invariant_closed_form_half_inverse():
    # gram = design^T design = diag(1, 4)
    p = QuadraticProblem(
        np.diag([1.0, 2.0]), np.zeros(2), SpdMatrix.diagonal([1.0, 1.0]),
        np.zeros(2),
    )
    inv = invariant_state(p)
    assert np.allclose(inv.cov.entries, np.diag([0.5, 0.125]), rtol=1e-14)


def test_exact_state_converges_to_invariant():
    p = noncommuting_problem()
    inv = invariant_state(p)
    late = exact_state(p, 40.0)
    assert np.allclose(late.cov.entries, inv.cov.entries, rtol=0, atol=1e-7)
    assert np.allclose(late.mean, inv.mean, rtol=0, atol=1e-12)
    at_inf = exact_state(p, math.inf)
    assert np.allclose(at_inf.cov.entries, inv.cov.entries, rtol=0, atol=0)


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


def test_problem_rejects_singular_design():
    with pytest.raises(ValueError):
        QuadraticProblem(
            np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2),
            SpdMatrix(np.eye(2)), np.zeros(2),
        )
