"""End-to-end checks tying the numerical pieces together.

One test per claim, each printing a PASS/FAIL line with the measured
quantities. Seeds are pinned; every stochastic tolerance below was chosen
before the seed and verified against it, not the other way round.
"""

import math
import time

import numpy as np
import scipy.linalg

from anisopriv.audit import AuditConfig, estimate_delta
from anisopriv.bounds import (
    RegularityParams,
    convergence_bound,
    klbound_closed,
    klbound_stationary,
    lsi_constant,
    lsi_rate,
    mc_kl_bound,
)
from anisopriv.linalg import SpdMatrix
from anisopriv.models import (
    AnisotropicPerParam,
    MlpModel,
    Training,
    loss_and_grad,
    synth_blobs,
)
from anisopriv.ou import GaussianState, QuadraticProblem, exact_state, gaussian_kl
from anisopriv.privacy import (
    ConcentrationParams,
    delta_from_eps,
    eps_from_delta,
    membership_advantage,
)
from anisopriv.sde import ConstantSpd, QuadraticDrift, SimConfig, simulate
from anisopriv.tradeoff import (
    GradientGap,
    NoiseGrid,
    optimal_diag_cov,
)
from test_tradeoff import projected_gradient_diag_cov, tradeoff_rows

UNIT_OU = QuadraticProblem([[1.0]], [0.0], SpdMatrix([[1.0]]), [1.0])
UNIT_DRIFT = QuadraticDrift(np.array([[1.0]]), np.array([0.0]))
UNIT_COV = ConstantSpd(SpdMatrix([[1.0]]))


def verdict(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_em_ou_matches_analytic_moments():
    started = time.perf_counter()
    cfg = SimConfig(1e-3, 1.0, 20000, seed=16, record_stride=1000)
    ens = simulate(UNIT_DRIFT, UNIT_COV, [1.0], cfg)
    x1 = ens.states[:, -1, 0]
    state = exact_state(UNIT_OU, 1.0)
    mean_exact = state.mean[0]
    var_exact = state.cov.entries[0, 0]
    se = x1.std(ddof=1) / math.sqrt(cfg.paths)
    mean_err = abs(x1.mean() - mean_exact)
    var_rel = abs(x1.var(ddof=1) - var_exact) / var_exact
    elapsed = time.perf_counter() - started
    verdict(
        mean_err <= 3.0 * se and var_rel <= 0.02 and elapsed < 10.0,
        "ou moments vs simulation",
        f"mean err {mean_err:.2e} (3se {3 * se:.2e}), "
        f"var rel {var_rel:.4f} (cap 0.02), {elapsed:.1f}s (cap 10s)",
    )


def test_mc_bound_dominates_exact_kl():
    started = time.perf_counter()
    # the bound and the exact KL come from the same two problems
    prob_a = QuadraticProblem([[1.0]], [0.0], SpdMatrix([[1.0]]), [0.0])
    prob_b = QuadraticProblem([[1.0]], [0.1], SpdMatrix([[1.0]]), [0.0])
    cfg = SimConfig(0.01, 2.0, 10**4, seed=3, record_stride=10)
    curve = mc_kl_bound(prob_a, prob_b, UNIT_COV, UNIT_COV, [0.0], cfg)
    # both laws start at the point 0, so the KL at t = 0 is zero and the laws
    # have no covariance to factor there
    later = curve.times > 0.0
    kl = np.zeros_like(curve.times)
    kl[later] = gaussian_kl(exact_state(prob_a, curve.times[later]),
                            exact_state(prob_b, curve.times[later]))
    margins = curve.bounds + 3.0 * curve.stderr - kl
    elapsed = time.perf_counter() - started
    verdict(
        min(margins) >= 0.0 and elapsed < 30.0,
        "running bound dominates exact kl",
        f"min margin {min(margins):.2e} over {len(margins)} times, "
        f"{elapsed:.1f}s (cap 30s)",
    )


def test_closed_form_bounds_exact_values():
    ones = RegularityParams(
        kappa=1.0, grad_lip=1.0, kappa_prime=1.0, grad_lip_prime=1.0,
        sigma=1.0, sigma_prime=1.0, lsi0=2.0,
        xstar=np.array([0.0]), xstar_prime=np.array([0.0]),
    )
    rho = lsi_rate(1.0, 1.0)
    vals = (
        klbound_closed(ones),
        klbound_closed(ones, stationary_limit=True),
        klbound_stationary(ones),
    )
    end_err = max(
        abs(lsi_constant(0.0, rho, 2.0) - 2.0),
        abs(lsi_constant(1e6, rho, 2.0) - 2.0 / rho),
    )
    verdict(
        vals == (432.0, 144.0, 1.5) and end_err <= 1e-12,
        "closed-form bound values",
        f"bounds {vals} want (432, 144, 1.5); lsi endpoint err {end_err:.1e}",
    )


def test_optimal_allocation_matches_oracle():
    gap = GradientGap([10.0, 1.0])
    point = optimal_diag_cov(gap, 11.0)
    oracle = projected_gradient_diag_cov(gap, 11.0)
    oracle_gap = np.abs(point.diag_sigma - oracle).max()
    even = optimal_diag_cov(GradientGap([10.0, 10.0]), 11.0).diag_sigma
    kl_err = abs(point.kl_term - 11.0**2 / 11.0)
    verdict(
        np.array_equal(point.diag_sigma, [10.0, 1.0])
        and oracle_gap <= 1e-6
        and even[0] == even[1]
        and kl_err <= 1e-10,
        "optimal diagonal allocation",
        f"allocation {point.diag_sigma.tolist()}, oracle gap {oracle_gap:.1e}, "
        f"kl err {kl_err:.1e}",
    )


def test_kl_anisotropy_grows_with_conditioning():
    def corner_ratio(cond):
        design = np.diag([1.0, math.sqrt(cond)])
        g = 0.1
        lo, hi = math.sqrt(0.1), math.sqrt(0.9)
        grid = NoiseGrid((lo, hi), (lo, hi), 2)
        pa = QuadraticProblem(design, [0.0, 0.0], grid.covariances, [0.0, 0.0])
        pb = QuadraticProblem(design, [g, math.sqrt(cond) * g], grid.covariances, [0.0, 0.0])
        rows = tradeoff_rows(pa, pb, 100.0, grid)
        # equal-trace corners: most noise on the soft axis vs on the stiff one
        return rows[2, 2] / rows[1, 2]

    r10, r100 = corner_ratio(10.0), corner_ratio(100.0)
    verdict(
        r100 > r10 > 1.0,
        "kl anisotropy vs conditioning",
        f"corner kl ratio {r10:.3f} at cond 10 vs {r100:.3f} at cond 100",
    )


def test_gaussian_kl_agrees_with_sampling():
    rng = np.random.default_rng(32)
    n = 10**6

    def log_density(x, mean, cov):
        low = np.linalg.cholesky(cov)
        sol = scipy.linalg.solve_triangular(low, (x - mean).T, lower=True)
        return -0.5 * np.sum(sol**2, axis=0) - np.log(np.diag(low)).sum() - math.log(2 * math.pi)

    worst = 0.0
    for _ in range(10):
        mean_a, mean_b = rng.normal(0, 1, 2), rng.normal(0, 1, 2)
        a = rng.normal(0, 1, (2, 2))
        b = rng.normal(0, 1, (2, 2))
        cov_a = a @ a.T + 0.3 * np.eye(2)
        cov_b = b @ b.T + 0.3 * np.eye(2)
        kl = gaussian_kl(
            GaussianState(mean_a, SpdMatrix(cov_a), 0.0),
            GaussianState(mean_b, SpdMatrix(cov_b), 0.0),
        )
        x = mean_a + rng.standard_normal((n, 2)) @ np.linalg.cholesky(cov_a).T
        ratios = log_density(x, mean_a, cov_a) - log_density(x, mean_b, cov_b)
        z = abs(ratios.mean() - kl) / (ratios.std(ddof=1) / math.sqrt(n))
        worst = max(worst, z)

    state = GaussianState([1.0, -2.0], SpdMatrix([[2.0, 0.5], [0.5, 1.0]]), 0.0)
    verdict(
        worst <= 3.0 and gaussian_kl(state, state) == 0.0,
        "gaussian kl vs sampling",
        f"worst |z| {worst:.2f} over 10 pairs (cap 3), identity kl exact 0",
    )


def test_ensemble_error_within_convergence_bound():
    cfg = SimConfig(1e-3, 1.0, 10**4, seed=21, record_stride=50)
    ens = simulate(UNIT_DRIFT, UNIT_COV, [1.0], cfg)
    sq = ens.states[:, :, 0] ** 2
    half_ms = 0.5 * sq.mean(axis=0)
    se = 0.5 * sq.std(axis=0, ddof=1) / math.sqrt(cfg.paths)
    bound = np.array([convergence_bound(float(t), 1.0, 1.0, 0.5) for t in ens.times])
    slack = bound + 3.0 * se - half_ms
    verdict(
        bool(np.all(slack >= 0.0)),
        "mean-square error under convergence bound",
        f"min slack {slack.min():.2e} over {len(slack)} times "
        f"(exact equality at t=0)",
    )


def test_audit_delta_control_and_noise_sweep():
    started = time.perf_counter()
    blobs = synth_blobs(2, 100, 2, 3.5, seed=20)
    shared = dict(
        epsilon=0.1, outer_rounds=5, inner_rounds=5,
        training=Training(lr=1.5, iters=1000, batch=200, hidden=10, activation="tanh"),
        dataset=blobs, seed=7,
    )
    control = estimate_delta(
        AuditConfig(scheme=AnisotropicPerParam(0.01), adjacency="null", **shared)
    )
    deltas = [
        estimate_delta(AuditConfig(scheme=AnisotropicPerParam(s2), **shared)).delta
        for s2 in (1e-3, 1e-2, 1e-1)
    ]
    repeat = estimate_delta(
        AuditConfig(scheme=AnisotropicPerParam(1e-3), **shared)
    ).delta
    elapsed = time.perf_counter() - started
    nonincreasing = all(a >= b for a, b in zip(deltas, deltas[1:]))
    verdict(
        control.delta == 0.0
        and nonincreasing
        and repeat == deltas[0]
        and elapsed < 300.0,
        "audited delta: control and noise sweep",
        f"control {control.delta}, sweep {deltas} nonincreasing={nonincreasing}, "
        f"repeat bit-equal={repeat == deltas[0]}, {elapsed:.0f}s (cap 300s)",
    )


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        h = int(rng.integers(2, 6))
        k = int(rng.integers(2, 4))
        act = ("relu", "tanh")[rng.integers(2)]
        n = int(rng.integers(1, 6))
        n_params = (m + 1) * h + (h + 1) * k
        model = MlpModel((m, h, k), 0.7 * rng.normal(0, 1, (1, n_params)), act)
        x = rng.normal(0, 1, (n, m))
        y = rng.integers(0, k, n)
        _, (grad,) = loss_and_grad(model, x, y)
        fd = np.empty(n_params)
        eps = 1e-6
        for i in range(n_params):
            bump = np.zeros(n_params)
            bump[i] = eps
            up, _ = loss_and_grad(MlpModel(model.layer_sizes, model.params + bump, act), x, y)
            dn, _ = loss_and_grad(MlpModel(model.layer_sizes, model.params - bump, act), x, y)
            fd[i] = (up[0] - dn[0]) / (2.0 * eps)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    verdict(
        worst <= 1e-5,
        "backprop vs finite differences",
        f"worst relative gap {worst:.1e} over 100 fuzzed models (cap 1e-5)",
    )


def test_privacy_roundtrip_and_advantage():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(10**5):
        cp = ConcentrationParams(
            lsi_const=10 ** rng.uniform(-1, 1),
            lip=10 ** rng.uniform(-1, 1),
            kl=rng.uniform(0, 10),
        )
        delta = 10 ** rng.uniform(-6, 0) * 0.999
        back = delta_from_eps(eps_from_delta(delta, cp), cp)
        worst = max(worst, abs(back - delta) / delta)
    verdict(
        worst <= 1e-12 and membership_advantage(0.02) == 0.1,
        "privacy translation round trip",
        f"worst relative drift {worst:.1e} over 1e5 tuples (cap 1e-12), "
        f"advantage(0.02) exact 0.1",
    )
