"""One observation under one component: the bound and a variational driver.

``elbo_observation`` is ``model.elbo_batch`` on one row, and
``update_variational`` repeats the fit's guarded step
(``vem._sweep_batch``) on one row until it stops moving.  S and Sigma are
one dense block each.  The acceptance checks on the single-observation
bound (against quadrature, and at its stationary point) and the unit tests
of the step run them; the fit itself takes one step per pass.
"""

import numpy as np

from mplnbicluster import vem
from mplnbicluster.colgroup import ColumnPartition
from mplnbicluster.linalg import cholesky, cholesky_with_jitter
from mplnbicluster.model import BlockSigma, elbo_batch, log_factorial, logdet_blocks


def elbo_observation(
    y: np.ndarray,
    log_c: float,
    m: np.ndarray,
    s: np.ndarray,
    mu: np.ndarray,
    sigma: np.ndarray,
) -> float:
    """Single-observation ELBO F(q, y) under one component; S and Sigma
    are one block each."""
    sigma = np.asarray(sigma, dtype=float)[None]
    one_block = ColumnPartition(np.ones(sigma.shape[-1], dtype=np.int64), 1)
    y = np.asarray(y, dtype=float)[None, :]
    s = np.asarray(s, dtype=float)[None, None]
    return float(
        elbo_batch(
            y,
            np.array([log_c], dtype=float),
            np.asarray(m, dtype=float)[None, :],
            [s],
            np.asarray(mu, dtype=float),
            BlockSigma.from_factors(one_block, [(sigma, cholesky(sigma))]),
            log_factorial(y),
            logdet_blocks([s]),
        )[0]
    )


def update_variational(y, log_c, m, s, mu, sigma, inner_iter=10, inner_tol=1e-6):
    """Refresh one observation's Gaussian approximation under one component.

    ``y``, ``m`` are length-d vectors, ``s`` is (d, d); with S and Sigma
    treated as one dense block, repeats the fit's guarded step until a step
    moves no entry of m or S by ``inner_tol`` (a rejected step moves
    nothing), at most ``inner_iter`` times, and returns the (m, s) pair.
    Raises NotPositiveDefinite if ``s`` is not positive definite.
    """
    sigma = np.asarray(sigma, dtype=float)[None]
    one_block = ColumnPartition(np.ones(sigma.shape[-1], dtype=np.int64), 1)
    sigma = BlockSigma.from_factors(one_block, [cholesky_with_jitter(sigma)])
    y = np.asarray(y, dtype=float)[None, :]
    log_c = np.atleast_1d(np.asarray(log_c, dtype=float))
    m = np.array(m, dtype=float)[None, :]
    s = np.array(s, dtype=float)[None, None]
    mu = np.asarray(mu, dtype=float)
    log_fact = log_factorial(y)
    logdet_s = logdet_blocks([s])
    for _ in range(inner_iter):
        f = elbo_batch(y, log_c, m, [s], mu, sigma, log_fact=log_fact, logdet_s=logdet_s)
        # the step writes in place; the copies are the moved-check's reference
        m_old, s_old = m.copy(), s.copy()
        vem._sweep_batch(y, log_c, m, [s], logdet_s, mu, sigma, log_fact, f, np.arange(1), {})
        if max(np.abs(m - m_old).max(), np.abs(s - s_old).max()) < inner_tol:
            break
    return m[0], s[0, 0]
