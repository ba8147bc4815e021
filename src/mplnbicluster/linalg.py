"""Symmetric positive-definite matrix kernels.

Thin wrappers around LAPACK (via numpy/scipy) that turn factorization
failures into package-level errors and centralize the jitter policy used
by the EM loop.  Everything here works on dense float64 arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite, ZeroVariance

# Relative diagonal jitter applied when a matrix that ought to be PD fails
# to factor mid-EM; one retry, then give up.
JITTER_REL = 1e-8


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor L with a = L L'.

    Raises NotPositiveDefinite if the factorization fails.
    """
    a = np.asarray(a, dtype=float)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix of shape {a.shape} is not positive definite") from exc


def inv_logdet_from_cholesky(lower: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetrized inverse and log-determinant of a = L L' from its factor L."""
    inv = scipy.linalg.cho_solve((lower, True), np.eye(lower.shape[0]))
    return 0.5 * (inv + inv.T), 2.0 * float(np.sum(np.log(np.diag(lower))))


def corr_from_cov(cov: np.ndarray) -> np.ndarray:
    """Correlation matrix from a covariance matrix.

    The diagonal of the result is exactly 1.  A zero diagonal entry in
    `cov` raises ZeroVariance (correlation undefined).
    """
    cov = np.asarray(cov, dtype=float)
    var = np.diag(cov).copy()
    if np.any(var == 0.0):
        j = int(np.flatnonzero(var == 0.0)[0])
        raise ZeroVariance(f"variable {j} has zero variance; correlation undefined")
    scale = 1.0 / np.sqrt(var)
    corr = cov * scale[:, None] * scale[None, :]
    np.fill_diagonal(corr, 1.0)
    return corr


def cholesky_with_jitter(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor with the EM jitter policy.

    Tries a plain factorization; on failure adds JITTER_REL * mean(diag)
    to the diagonal and retries once.  Returns (matrix_used, lower_factor)
    so callers keep working with the (possibly jittered) matrix that was
    actually factored.
    """
    a = np.asarray(a, dtype=float)
    try:
        return a, np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    bumped = a + JITTER_REL * float(np.mean(np.diag(a))) * np.eye(a.shape[0])
    try:
        return bumped, np.linalg.cholesky(bumped)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"matrix of shape {a.shape} not positive definite even after diagonal jitter"
        ) from exc
