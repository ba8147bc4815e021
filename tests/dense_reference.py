"""The dense variational sweep, kept as the reference for the block-stored one.

These are the sweep, the two coordinate updates and the ELBO as they were
when every variational covariance S was stored, factored and inverted as a
dense d x d matrix, and the two conversions between dense stacks and
column blocks that moved S between partitions by way of a dense (n, d, d)
stack.  The package now stores S and Sigma^-1 per column block and moves
blocks with ``vem.reblock``; ``tests/test_blocks.py`` checks it against
this copy.
"""

import numpy as np
from scipy.special import gammaln

from mplnbicluster.errors import NotPositiveDefinite
from mplnbicluster.model import EXP_CAP


def blocks_from_dense(s, groups):
    """The diagonal blocks s[..., idx, idx] of a (..., d, d) stack, one per
    index array in ``groups``, C-contiguous; entries outside them are dropped."""
    return [np.ascontiguousarray(s[..., idx[:, None], idx]) for idx in groups]


def dense_from_blocks(blocks, groups, d):
    """The (..., d, d) stack holding ``blocks`` on their columns, zero elsewhere."""
    out = np.zeros(blocks[0].shape[:-2] + (d, d))
    for idx, block in zip(groups, blocks):
        out[..., idx[:, None], idx] = block
    return out


def elbo_dense(y, log_c, m, s, mu, sigma_inv, logdet_sigma, log_fact=None, logdet_s=None):
    """F(q_ig, y_i) for all rows; y, m: (n, d); s: (n, d, d); sigma_inv: (d, d)."""
    y = np.asarray(y, dtype=float)
    if log_fact is None:
        log_fact = gammaln(y + 1.0).sum(axis=1)
    if logdet_s is None:
        sign, logdet_s = np.linalg.slogdet(s)
        if np.any(sign <= 0):
            raise NotPositiveDefinite("variational covariance is not positive definite")
    d = m.shape[1]
    dm = m - mu
    quad = np.einsum("ni,ij,nj->n", dm, sigma_inv, dm)
    trace = np.einsum("ij,nji->n", sigma_inv, s)
    s_diag = np.einsum("njj->nj", s)
    rate = np.exp(np.minimum(log_c[:, None] + m + 0.5 * s_diag, EXP_CAP))
    return (
        -0.5 * quad
        - 0.5 * trace
        + 0.5 * logdet_s
        - 0.5 * logdet_sigma
        + 0.5 * d
        + np.einsum("ni,ni->n", m, y)
        + log_c * y.sum(axis=1)
        - rate.sum(axis=1)
        - log_fact
    )


def s_fixed_point_dense(log_c, m, s, sigma_inv):
    diag_s = np.einsum("...jj->...j", s)
    lam = np.exp(np.minimum(log_c[..., None] + m + 0.5 * diag_s, EXP_CAP))
    d = m.shape[-1]
    a = np.broadcast_to(sigma_inv, m.shape + (d,)).copy()
    idx = np.arange(d)
    a[..., idx, idx] += lam
    lower = np.linalg.cholesky(a)
    s_new = np.linalg.inv(a)
    s_new = 0.5 * (s_new + np.swapaxes(s_new, -1, -2))
    logdet_a = 2.0 * np.log(np.einsum("...jj->...j", lower)).sum(axis=-1)
    return s_new, -logdet_a


def newton_m_dense(y, log_c, m, s_new, mu, sigma_inv):
    diag_s = np.einsum("...jj->...j", s_new)
    lam = np.exp(np.minimum(log_c[..., None] + m + 0.5 * diag_s, EXP_CAP))
    resid = lam + (m - mu) @ sigma_inv - y
    step = np.einsum("...ij,...j->...i", s_new, resid)
    return m - step, step


def sweep_dense(y, log_c, m, s, mu, sigma_inv, logdet_sigma, log_fact, f_start,
                inner_iter, inner_tol):
    """Guarded sweeps for one component with dense (n, d, d) covariances."""
    m = m.copy()
    s = s.copy()
    f_cur = np.array(f_start, dtype=float)
    active = np.arange(m.shape[0])
    for _ in range(inner_iter):
        if active.size == 0:
            break
        ya, la, ma, sa = y[active], log_c[active], m[active], s[active]
        fa = log_fact[active]
        s_new, logdet_s_new = s_fixed_point_dense(la, ma, sa, sigma_inv)
        m_full, step = newton_m_dense(ya, la, ma, s_new, mu, sigma_inv)
        f_new = elbo_dense(ya, la, m_full, s_new, mu, sigma_inv, logdet_sigma,
                           log_fact=fa, logdet_s=logdet_s_new)
        m_new = m_full
        rejected = np.zeros(active.size, dtype=bool)
        bad = np.flatnonzero(f_new < f_cur[active])
        if bad.size:
            m_half = ma[bad] - 0.5 * step[bad]
            f_half = elbo_dense(
                ya[bad], la[bad], m_half, s_new[bad], mu, sigma_inv, logdet_sigma,
                log_fact=fa[bad], logdet_s=logdet_s_new[bad],
            )
            ok = f_half >= f_cur[active[bad]]
            m_new[bad[ok]] = m_half[ok]
            f_new[bad[ok]] = f_half[ok]
            rejected[bad[~ok]] = True
        delta = np.maximum(
            np.abs(m_new - ma).max(axis=1),
            np.abs(s_new - sa).max(axis=(1, 2)),
        )
        accepted = ~rejected
        rows = active[accepted]
        m[rows] = m_new[accepted]
        s[rows] = s_new[accepted]
        f_cur[rows] = f_new[accepted]
        active = active[accepted & (delta >= inner_tol)]
    return m, s
