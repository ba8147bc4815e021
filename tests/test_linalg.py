from __future__ import annotations

import numpy as np
import pytest

from mplnbicluster.errors import NotPositiveDefinite, ZeroVariance
from mplnbicluster.linalg import (
    cholesky,
    cholesky_with_jitter,
    corr_from_cov,
    inv_logdet_from_cholesky,
)


def random_pd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T) + 0.5 * np.eye(d)


def inverse(a):
    return inv_logdet_from_cholesky(cholesky(a))[0]


def logdet(a):
    return inv_logdet_from_cholesky(cholesky(a))[1]


def test_cholesky_known_factor():
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    lower = cholesky(a)
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    np.testing.assert_allclose(lower, expected, rtol=0, atol=1e-15)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_reconstructs():
    rng = np.random.default_rng(7)
    for d in (1, 2, 5, 11):
        a = random_pd(rng, d)
        lower = cholesky(a)
        np.testing.assert_allclose(lower @ lower.T, a, atol=1e-12)
        assert np.allclose(np.triu(lower, 1), 0.0)


def test_logdet_matches_eigenvalue_oracle():
    rng = np.random.default_rng(11)
    for d in (1, 3, 6, 12):
        a = random_pd(rng, d)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(a))))
        assert logdet(a) == pytest.approx(oracle, rel=1e-10)


def test_logdet_block_diagonal_additivity():
    rng = np.random.default_rng(13)
    a = random_pd(rng, 3)
    b = random_pd(rng, 4)
    full = np.zeros((7, 7))
    full[:3, :3] = a
    full[3:, 3:] = b
    assert logdet(full) == pytest.approx(logdet(a) + logdet(b), rel=1e-12)


def test_cholesky_inverse_solve_residual_small():
    rng = np.random.default_rng(17)
    for d in (2, 5, 20):
        a = random_pd(rng, d)
        x_true = rng.standard_normal(d)
        b = a @ x_true
        x = inverse(a) @ b
        assert np.max(np.abs(a @ x - b)) < 1e-7
        np.testing.assert_allclose(x, x_true, atol=1e-7)


def test_cholesky_inverse_solve_matrix_rhs():
    rng = np.random.default_rng(19)
    a = random_pd(rng, 4)
    b = rng.standard_normal((4, 3))
    x = inverse(a) @ b
    np.testing.assert_allclose(a @ x, b, atol=1e-10)


def test_cholesky_inverse_is_inverse_and_symmetric():
    rng = np.random.default_rng(23)
    a = random_pd(rng, 6)
    inv = inverse(a)
    np.testing.assert_allclose(inv @ a, np.eye(6), atol=1e-9)
    np.testing.assert_allclose(inv, inv.T, atol=0)


def test_corr_from_cov_diagonal_scaling():
    cov = np.array([[4.0, 0.0], [0.0, 9.0]])
    np.testing.assert_array_equal(corr_from_cov(cov), np.eye(2))


def test_corr_from_cov_known_value():
    cov = np.array([[4.0, 3.0], [3.0, 9.0]])
    corr = corr_from_cov(cov)
    assert corr[0, 1] == pytest.approx(3.0 / 6.0, rel=1e-15)
    assert corr[0, 0] == 1.0 and corr[1, 1] == 1.0


def test_corr_from_cov_bounds_and_exact_diagonal():
    rng = np.random.default_rng(29)
    for _ in range(25):
        cov = random_pd(rng, 7, scale=rng.uniform(0.01, 100.0))
        corr = corr_from_cov(cov)
        assert np.all(np.abs(corr) <= 1.0 + 1e-12)
        assert np.all(np.diag(corr) == 1.0)


def test_corr_from_cov_scale_invariant():
    rng = np.random.default_rng(31)
    cov = random_pd(rng, 5)
    scale = np.diag(rng.uniform(0.1, 10.0, size=5))
    np.testing.assert_allclose(
        corr_from_cov(scale @ cov @ scale), corr_from_cov(cov), atol=1e-12
    )


def test_corr_from_cov_zero_variance():
    cov = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroVariance):
        corr_from_cov(cov)


def test_jitter_rescues_semidefinite():
    # Rank-deficient PSD matrix: plain cholesky fails, one jitter fixes it.
    v = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(NotPositiveDefinite):
        cholesky(v)
    used, lower = cholesky_with_jitter(v)
    np.testing.assert_allclose(lower @ lower.T, used, atol=1e-12)
    assert used[0, 0] > 1.0  # diagonal actually bumped


def test_jitter_gives_up_on_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))
