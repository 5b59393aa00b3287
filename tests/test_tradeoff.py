"""Noise-allocation trade-off: closed-form optimum vs numerical oracle."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from anisopriv.errors import AnisoError, DegenerateGap, NonPositiveVariance, NotPositiveDefinite
from anisopriv.linalg import SpdMatrix
from anisopriv.ou import QuadraticProblem, error_to_opt
from anisopriv.tradeoff import (
    ZERO_GAP_FLOOR,
    GradientGap,
    grid_surface,
    kl_term,
    optimal_diag_cov,
    quadratic_tradeoff,
    write_grid_csv,
)
from test_ou import reference_error, reference_kl, reference_law


def projected_gradient_diag_cov(gap, zeta, *, iters=20000, tol=1e-12):
    """Numerical minimizer of kl_term on the simplex {v > 0, sum v = zeta}:
    the oracle for optimal_diag_cov here and in test_acceptance."""
    s2 = gap.gaps**2
    d = gap.dim
    v = np.full(d, zeta / d)
    lo = ZERO_GAP_FLOOR * zeta
    for _ in range(iters):
        g = -s2 / v**2
        g = g - g.mean()  # tangent to the trace constraint
        step = 0.25 * float(v.min() ** 3 / max(s2.max(), 1e-300)) if s2.max() > 0 else 0.1
        step = min(step, 0.25 * zeta / max(float(np.abs(g).max()), 1e-300))
        nxt = np.maximum(v - step * g, lo)
        nxt *= zeta / nxt.sum()
        if np.abs(nxt - v).max() <= tol * zeta:
            v = nxt
            break
        v = nxt
    return v


def test_kl_term_hand_values():
    assert kl_term(GradientGap([1.0, 2.0, 3.0]), [1.0, 1.0, 1.0]) == pytest.approx(14.0, rel=1e-15)
    # 9/2 + 16/8
    assert kl_term(GradientGap([3.0, 4.0]), [2.0, 8.0]) == pytest.approx(6.5, rel=1e-15)
    # zero gap contributes nothing regardless of its variance
    assert kl_term(GradientGap([5.0, 0.0]), [2.0, 7.0]) == pytest.approx(12.5, rel=1e-15)


def test_kl_term_rejects_bad_variances():
    gap = GradientGap([1.0, 1.0])
    with pytest.raises(NonPositiveVariance) as exc:
        kl_term(gap, [1.0, 0.0])
    assert exc.value.operation == "kl_term"
    with pytest.raises(ValueError):
        kl_term(gap, [1.0, 1.0, 1.0])


def test_gap_validation():
    with pytest.raises(ValueError):
        GradientGap([])
    with pytest.raises(ValueError):
        GradientGap([1.0, -0.5])
    with pytest.raises(ValueError):
        GradientGap([np.nan, 1.0])


def test_optimal_hand_value():
    point = optimal_diag_cov(GradientGap([10.0, 1.0]), zeta=11.0)
    np.testing.assert_allclose(point.diag_sigma, [10.0, 1.0], rtol=1e-14)
    assert point.kl_term == pytest.approx(11.0, rel=1e-14)
    assert point.accuracy_loss == pytest.approx(11.0, rel=1e-14)


def test_optimal_equal_gaps_split_evenly():
    point = optimal_diag_cov(GradientGap([2.0, 2.0, 2.0]), zeta=6.0)
    np.testing.assert_allclose(point.diag_sigma, [2.0, 2.0, 2.0], rtol=1e-14)
    assert point.kl_term == pytest.approx(6.0, rel=1e-14)


def test_optimal_zero_gap_floor():
    point = optimal_diag_cov(GradientGap([1.0, 0.0]), zeta=1.0)
    assert point.diag_sigma[1] == pytest.approx(1e-8, rel=1e-12)
    assert point.diag_sigma[0] == pytest.approx(1.0 - 1e-8, rel=1e-12)
    assert point.accuracy_loss == pytest.approx(1.0, rel=1e-12)


def test_all_zero_gap_rejected():
    with pytest.raises(DegenerateGap):
        optimal_diag_cov(GradientGap([0.0, 0.0]), zeta=1.0)
    with pytest.raises(ValueError):
        optimal_diag_cov(GradientGap([1.0]), zeta=0.0)
    # s^2 overflows, so the optimum value would be inf
    with np.errstate(over="ignore"), pytest.raises(AnisoError) as exc:
        optimal_diag_cov(GradientGap([1e300, 1.0]), zeta=1.0)
    assert exc.value.operation == "optimal_diag_cov"


def test_projected_gradient_matches_closed_form():
    gap = GradientGap([1.0, 2.0, 3.0, 4.0])
    zeta = 5.0
    numeric = projected_gradient_diag_cov(gap, zeta)
    closed = optimal_diag_cov(gap, zeta).diag_sigma
    np.testing.assert_allclose(numeric, closed, atol=1e-6)
    assert numeric.sum() == pytest.approx(zeta, rel=1e-12)


positive_gaps = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 6),
    elements=st.floats(0.01, 10.0),
)


@given(positive_gaps, st.floats(0.1, 100.0))
@settings(max_examples=200, deadline=None)
def test_optimal_properties(gaps, zeta):
    gap = GradientGap(gaps)
    point = optimal_diag_cov(gap, zeta)
    assert point.accuracy_loss == pytest.approx(zeta, rel=1e-12)
    # closed-form optimum value (sum_i s_i)^2 / zeta
    assert point.kl_term == pytest.approx(float(gaps.sum()) ** 2 / zeta, rel=1e-12)
    # Lagrange condition: s_i^2 / v_i^2 constant across coordinates
    ratios = gaps**2 / point.diag_sigma**2
    assert ratios.max() == pytest.approx(ratios.min(), rel=1e-12)
    # never worse than the even split
    iso = kl_term(gap, np.full(gap.dim, zeta / gap.dim))
    assert point.kl_term <= iso * (1.0 + 1e-12)


def test_grid_surface_frozen_corners():
    rows = grid_surface(GradientGap([10.0, 10.0]), (3.0, 4.0), (3.0, 4.0), 2)
    assert rows.shape == (4, 4)
    # row-major in (x, y): (3,3), (3,4), (4,3), (4,4)
    np.testing.assert_allclose(rows[:, 0], [3.0, 3.0, 4.0, 4.0])
    np.testing.assert_allclose(rows[:, 1], [3.0, 4.0, 3.0, 4.0])
    assert rows[0, 2] == pytest.approx(200.0 / 9.0, rel=1e-14)
    assert rows[3, 2] == pytest.approx(12.5, rel=1e-14)
    assert rows[1, 2] == pytest.approx(100.0 / 9.0 + 6.25, rel=1e-14)
    np.testing.assert_allclose(rows[:, 3], [18.0, 25.0, 25.0, 32.0], rtol=1e-14)


def test_grid_surface_symmetry_and_monotonicity():
    res = 5
    rows = grid_surface(GradientGap([1.0, 1.0]), (1.0, 3.0), (1.0, 3.0), res)
    kl = rows[:, 2].reshape(res, res)
    np.testing.assert_allclose(kl, kl.T, rtol=1e-14)
    # more noise in either coordinate can only shrink the term
    assert np.all(np.diff(kl, axis=1) < 0.0)
    assert np.all(np.diff(kl, axis=0) < 0.0)


def test_grid_surface_matches_per_point_loop():
    gap = GradientGap([0.7, 2.3])
    res = 9
    rows = grid_surface(gap, (0.3, 1.9), (1.1, 4.0), res)
    want = [(x, y, kl_term(gap, [x * x, y * y]), x * x + y * y)
            for x in np.linspace(0.3, 1.9, res) for y in np.linspace(1.1, 4.0, res)]
    assert np.array_equal(rows, np.array(want))


def test_grid_surface_validation():
    gap = GradientGap([1.0, 1.0])
    with pytest.raises(ValueError):
        grid_surface(GradientGap([1.0]), (1.0, 2.0), (1.0, 2.0), 2)
    with pytest.raises(ValueError):
        grid_surface(gap, (1.0, 2.0), (1.0, 2.0), 1)
    with pytest.raises(NonPositiveVariance):
        grid_surface(gap, (0.0, 2.0), (1.0, 2.0), 2)
    # an overflowing kl_term (gap^2) or trace (x^2) would be written as inf
    for gaps, x_range in (([1e300, 1.0], (1.0, 2.0)), ([1.0, 1.0], (1.0, 1e300))):
        with np.errstate(over="ignore"), pytest.raises(AnisoError) as exc:
            grid_surface(GradientGap(gaps), x_range, (1.0, 2.0), 2)
        assert exc.value.operation == "grid_surface"


@pytest.fixture
def adjacent_pair():
    cov = SpdMatrix([[1.0, 0.0], [0.0, 1.0]])
    p = QuadraticProblem(np.eye(2), [0.0, 0.0], cov, [0.0, 0.0])
    q = QuadraticProblem(np.eye(2), [0.3, -0.2], cov, [0.0, 0.0])
    return p, q


def test_quadratic_tradeoff_identical_problems(adjacent_pair):
    p, _ = adjacent_pair
    rows = quadratic_tradeoff(p, p, 2.0, (0.5, 1.5), (0.5, 1.5), 2)
    np.testing.assert_allclose(rows[:, 2], 0.0, atol=1e-12)


def test_quadratic_tradeoff_stationary_by_large_t(adjacent_pair):
    p, q = adjacent_pair
    # gram = I, so both laws are within e^{-40} of stationary at t=40
    a = quadratic_tradeoff(p, q, 40.0, (0.5, 1.5), (0.5, 1.5), 3)
    b = quadratic_tradeoff(p, q, 80.0, (0.5, 1.5), (0.5, 1.5), 3)
    np.testing.assert_allclose(a[:, 2], b[:, 2], rtol=1e-12, atol=1e-15)


def test_quadratic_tradeoff_error_column(adjacent_pair):
    p, q = adjacent_pair
    t = 1.5
    rows = quadratic_tradeoff(p, q, t, (0.5, 1.5), (0.5, 1.5), 2)
    swapped = replace(p, noise_cov=SpdMatrix(np.diag([0.25, 2.25])))
    assert rows[1, 3] == pytest.approx(error_to_opt(swapped, t), rel=1e-14)


def test_quadratic_tradeoff_validation(adjacent_pair):
    p, q = adjacent_pair
    mismatched = replace(q, noise_cov=SpdMatrix(np.diag([2.0, 2.0])))
    with pytest.raises(ValueError):
        quadratic_tradeoff(p, mismatched, 1.0, (0.5, 1.5), (0.5, 1.5), 2)
    with pytest.raises(ValueError):
        quadratic_tradeoff(p, q, 1.0, (0.5, 1.5), (0.5, 1.5), 1)
    with pytest.raises(NonPositiveVariance):
        quadratic_tradeoff(p, q, 1.0, (-0.5, 1.5), (0.5, 1.5), 2)


@pytest.mark.parametrize("t", [0.3, 10.0, math.inf])
def test_quadratic_tradeoff_matches_per_point_loop(t):
    # non-commuting designs that differ between the arms, a 12 x 12 grid
    rng = np.random.default_rng(912)
    design = np.array([[1.0, 0.4], [0.0, 2.0], [0.3, -0.5]])
    design_b = design + 0.05 * rng.standard_normal(design.shape)
    x0 = rng.standard_normal(2)
    placeholder = SpdMatrix.identity(2)
    p = QuadraticProblem(design, rng.standard_normal(3), placeholder, x0)
    q = QuadraticProblem(design_b, rng.standard_normal(3), placeholder, x0)
    x_range, y_range, res = (0.2, 1.7), (0.5, 2.4), 12
    rows = quadratic_tradeoff(p, q, t, x_range, y_range, res)
    want = []
    for x in np.linspace(*x_range, res):
        for y in np.linspace(*y_range, res):
            noise = np.diag([x * x, y * y])
            ma, va = reference_law(p, noise, t)
            mb, vb = reference_law(q, noise, t)
            want.append((x, y, reference_kl(ma, va, mb, vb), reference_error(p, noise, t)))
    assert np.array_equal(rows, np.array(want))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_quadratic_tradeoff_overflowing_variance_is_not_positive_definite(adjacent_pair):
    p, q = adjacent_pair
    # only the last x squares past the largest float
    with pytest.raises(NotPositiveDefinite) as exc:
        quadratic_tradeoff(p, q, 1.0, (0.5, 1.5e154), (0.5, 1.5), 3)
    assert exc.value.operation == "SpdMatrix"


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_quadratic_tradeoff_overflowing_error_raises():
    # every entry of the law stays finite, but the error sums two terms near
    # 1.6e308 at the largest grid point
    cov = SpdMatrix.identity(2)
    p = QuadraticProblem(0.7071 * np.eye(2), [0.0, 0.0], cov, [0.0, 0.0])
    q = QuadraticProblem(0.7071 * np.eye(2), [0.1, 0.3], cov, [0.0, 0.0])
    with pytest.raises(AnisoError) as exc:
        quadratic_tradeoff(p, q, 100.0, (0.3, 8.9e153), (0.3, 8.9e153), 2)
    assert exc.value.operation == "error_to_opt"


def test_write_grid_csv_roundtrip(tmp_path):
    rows = grid_surface(GradientGap([1.0, 2.0]), (1.0, 2.0), (1.0, 2.0), 2)
    path = tmp_path / "grid.csv"
    write_grid_csv(rows, path, header=("x", "y", "kl_term", "trace"))
    with open(path, newline="") as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        back = np.array([[float(v) for v in row] for row in rdr])
    assert header == ["x", "y", "kl_term", "trace"]
    np.testing.assert_array_equal(back, rows)
