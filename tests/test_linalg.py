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
    m = SpdMatrix(np.eye(3))
    assert np.array_equal(m.entries, np.eye(3))


# ---------------------------------------------------------------------------
# the construction rule: the cached factor first, eigenvalues only where it fails


def reference_spd_refusal(entries, allow_semidefinite):
    """The construction rule the factor-first check replaced, kept as a
    reference: a semidefinite-allowed stack is checked by its eigenvalues
    alone, any other by its Cholesky factor. None if the stack is accepted,
    else the (type, message, operation) of the refusal."""
    m = np.asarray(entries, dtype=float)
    if not np.isfinite(m).all():
        return NotPositiveDefinite, "matrix entries must be finite", "SpdMatrix"
    m = m / 2.0 + m.swapaxes(-1, -2) / 2.0
    if allow_semidefinite:
        w = np.linalg.eigvalsh(m)
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
        bad = w.min(axis=-1, initial=0.0) < -1e-10 * scale
        if bad.any():
            return (NotPositiveDefinite,
                    f"matrix is not positive semidefinite (min eigenvalue {w[bad].min():.3e})",
                    "SpdMatrix")
        return None
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return (NotPositiveDefinite,
                "Cholesky factorization failed: matrix is not positive definite", "cholesky")
    piv = np.diagonal(low, axis1=-2, axis2=-1) ** 2
    if not np.all(piv > 1e-14):
        return NotPositiveDefinite, f"Cholesky pivot {piv.min():.3e} <= 1e-14", "cholesky"
    return None


def refusal(entries, allow_semidefinite):
    try:
        SpdMatrix(entries, allow_semidefinite=allow_semidefinite)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "operation", None)
    return None


def with_eigenvalues(rng, w):
    """q diag(w) q.T for a random rotation q, symmetrized as SpdMatrix stores it."""
    q, _ = np.linalg.qr(rng.standard_normal((len(w), len(w))))
    m = (q * w) @ q.T
    return m / 2.0 + m.T / 2.0


def sweep_stack(rng, case):
    """A (G, d, d) stack of one of the construction sweep's cases, at a random
    scale from 1e-6 to 1e6 where the case has one."""
    d, g = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    scale = 10.0 ** rng.uniform(-6, 6)
    mats = []
    for _ in range(g):
        if case == "definite":
            mats.append(random_spd(rng, d, scale))
        elif case == "rank-deficient":
            a = rng.standard_normal((d, int(rng.integers(0, d)))) * np.sqrt(scale)
            mats.append(a @ a.T)
        elif case == "small-pivot":
            # a diagonal pivot in (0, 1e-14], or an eigenvalue near it
            w = rng.uniform(0.5, 2.0, d)
            w[rng.integers(d)] = 10.0 ** rng.uniform(-17, -14)
            mats.append(np.diag(w) if rng.random() < 0.5 else with_eigenvalues(rng, w))
        elif case == "slightly-negative":
            # the least eigenvalue at -u 1e-10 max(1, max |entry|), u around 1
            w = rng.uniform(0.5, 2.0, d) * scale
            w[rng.integers(d)] = 0.0
            m = with_eigenvalues(rng, w)
            w[w == 0.0] = -rng.uniform(0.0, 2.0) * 1e-10 * max(1.0, np.abs(m).max())
            mats.append(with_eigenvalues(rng, w))
        elif case == "indefinite":
            w = rng.uniform(0.1, 2.0, d) * scale
            w[rng.integers(d)] *= -1.0
            mats.append(with_eigenvalues(rng, w))
        else:  # "mixed": definite laws and one law at t = 0
            mats.append(random_spd(rng, d, scale))
    if case == "mixed":
        mats.append(np.zeros((d, d)))
        rng.shuffle(mats)
    return np.stack(mats)


SWEEP_CASES = ["definite", "rank-deficient", "small-pivot", "slightly-negative", "indefinite",
               "mixed"]


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_construction_accepts_and_refuses_as_the_eigenvalue_rule(case):
    # 300 seeded stacks per case; both the verdict and the message must match
    rng = np.random.default_rng(SWEEP_CASES.index(case))
    verdicts = set()
    for _ in range(300):
        stack = sweep_stack(rng, case)
        for entries in (stack, stack[0]):
            for allow in (False, True):
                want = reference_spd_refusal(entries, allow)
                assert refusal(entries, allow) == want, (case, entries, allow)
                verdicts.add((allow, want is None))
    # each case reaches the branch it was drawn for
    if case in ("definite",):
        assert verdicts == {(False, True), (True, True)}
    elif case == "indefinite":
        assert verdicts == {(False, False), (True, False)}
    elif case == "slightly-negative":
        assert (True, True) in verdicts and (True, False) in verdicts
    else:
        assert (False, False) in verdicts and (True, True) in verdicts


def test_semidefinite_matrix_is_refused_by_strict_operations():
    # accepted by its eigenvalues, it has no factor: every read raises again
    m = SpdMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]), allow_semidefinite=True)
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite) as exc:
            m.chol_lower  # noqa: B018
        assert exc.value.operation == "cholesky"
    with pytest.raises(NotPositiveDefinite):
        log_det(m)


def test_definite_matrix_keeps_the_factor_its_construction_computed(monkeypatch):
    import anisopriv.linalg as linalg

    calls = []
    real = linalg._checked_cholesky
    monkeypatch.setattr(linalg, "_checked_cholesky", lambda m: calls.append(m) or real(m))
    m = SpdMatrix(random_spd(np.random.default_rng(3), 3), allow_semidefinite=True)
    assert len(calls) == 1
    low = m.chol_lower
    assert m.chol_lower is low and not low.flags.writeable
    log_det(m)
    assert len(calls) == 1
