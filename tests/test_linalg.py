"""Symmetric and SPD matrix wrappers against independent oracles.

Log-dets are checked against slogdet. Hand values are computed from 2x2
factorizations worked out on paper.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisopriv.errors import NotPositiveDefinite
from anisopriv.linalg import SpdMatrix, SymMatrix, log_det


def random_spd(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return a @ a.T * scale + np.eye(dim) * 0.1 * scale


def test_sym_matrix_symmetrizes_roundoff():
    m = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
    s = SymMatrix(m)
    assert np.array_equal(s.entries, s.entries.T)


def test_sym_matrix_rejects_gross_asymmetry():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, 0.5], [0.6, 2.0]]))


def test_sym_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        SymMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_huge_finite_entries_stay_finite():
    # (m + m.T) / 2 would overflow past 8.99e307; the stored entries must not
    big = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])
    assert np.array_equal(SymMatrix(big).entries, big)
    spd = SpdMatrix([[1.7e308]])
    assert np.isfinite(spd.entries).all()
    assert spd.entries[0, 0] == 1.7e308


def test_entries_read_only():
    s = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        s.entries[0, 0] = 5.0


def test_cholesky_hand_value():
    # [[4,2],[2,5]] = L L^T with L = [[2,0],[1,2]]
    m = SpdMatrix(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert np.allclose(m.chol_lower, [[2.0, 0.0], [1.0, 2.0]], rtol=0, atol=1e-15)


def test_cholesky_diagonal_fast_path_exact():
    m = SpdMatrix(np.diag([4.0, 9.0, 0.25]))
    assert np.array_equal(m.chol_lower, np.diag([2.0, 3.0, 0.5]))


def test_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_spd_rejects_semidefinite_by_default():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        SpdMatrix(singular)
    relaxed = SpdMatrix(singular, allow_semidefinite=True)
    assert relaxed.entries[0, 1] == 1.0


def test_not_positive_definite_names_operation():
    try:
        SpdMatrix(np.array([[-1.0]]))
    except NotPositiveDefinite as exc:
        assert exc.operation == "cholesky"
    else:
        pytest.fail("expected NotPositiveDefinite")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cholesky_recomposes(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    m = SpdMatrix(random_spd(rng, dim))
    low = m.chol_lower
    assert np.allclose(low @ low.T, m.entries, rtol=1e-12, atol=1e-12)
    assert np.all(np.triu(low, 1) == 0.0)


def test_log_det_vs_slogdet():
    rng = np.random.default_rng(14)
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        m = SpdMatrix(random_spd(rng, dim))
        sign, want = np.linalg.slogdet(m.entries)
        assert sign == 1.0
        assert log_det(m) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_log_det_diagonal_exact():
    assert log_det(SpdMatrix(np.diag([2.0, 8.0]))) == pytest.approx(np.log(16.0), rel=1e-15)


def test_identity_constructor():
    m = SpdMatrix.identity(3)
    assert np.array_equal(m.entries, np.eye(3))
