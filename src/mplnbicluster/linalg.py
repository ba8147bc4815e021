"""Symmetric positive-definite matrix kernels.

Thin wrappers around LAPACK (via numpy) that turn factorization failures
into package-level errors and centralize the jitter policy used by the EM
loop, plus two ways to invert a stack of positive-definite matrices, one
per caller.  ``inverse`` is one LAPACK call over a (..., b, b) stack, for
Sigma's few blocks of each size.  ``inv_logdet_batch_last`` is the
S-step's kernel: it holds the stack with the batch axis last, as a
(b, b, N) array, so that each step of the factorization and of the one
backward pass that writes the inverse is a single contiguous vector op
over all N matrices, with no L^-1 and no Gram product.  Everything here
works on dense float64 arrays; ``cholesky``, ``cholesky_with_jitter`` and
``inverse`` also take stacks of matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, ZeroVariance

# Relative diagonal jitter applied when a matrix that ought to be PD fails
# to factor mid-EM; one retry, then give up.
JITTER_REL = 1e-8


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor L with a = L L'.

    Raises NotPositiveDefinite if the factorization fails or a diagonal
    entry of L is not > 0: LAPACK returns a NaN factor for a NaN on or
    below the diagonal instead of failing.
    """
    a = np.asarray(a, dtype=float)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix of shape {a.shape} is not positive definite") from exc
    # written so that NaN fails: every comparison with it is False
    if not np.all(np.einsum("...jj->...j", lower) > 0.0):
        raise NotPositiveDefinite(f"matrix of shape {a.shape} is not positive definite")
    return lower


def logdet_from_cholesky(lower: np.ndarray):
    """log det a of a = L L' from its factor L, batched over leading axes."""
    return 2.0 * np.log(np.einsum("...jj->...j", lower)).sum(axis=-1)


def _inverse_from_factor(z):
    """a^-1 in place of a = L L', for a (b, b, N) stack with the batch axis
    last whose lower triangle holds L (its upper triangle is overwritten).

    From L' Z = L^-1, whose diagonal is 1/L_jj and whose upper triangle is
    zero, the columns of Z follow from the last one back, for j = b-1 down
    to 0:

        Z[j+1:, j] = -Z[j+1:, j+1:] L[j+1:, j] / L_jj
        Z[j, j]    = (1/L_jj - L[j+1:, j] . Z[j+1:, j]) / L_jj

    Step j reads only column j of L, which it overwrites last, and the
    block Z[j+1:, j+1:] of earlier steps; each new column is mirrored into
    row j, so Z comes out exactly symmetric.  Every step is one vector op
    over the whole contiguous batch axis.
    """
    diag = np.einsum("jjN->jN", z).copy()
    for j in range(z.shape[0] - 1, -1, -1):
        col, l_jj = z[j + 1:, j], diag[j]
        # Z[j+1:, j+1:] is symmetric, so its product with col sums its rows
        z_col = np.einsum("kiN,kN->iN", z[j + 1:, j + 1:], col)
        z_col /= -l_jj
        z[j, j + 1:] = z_col
        z[j, j] = (1.0 / l_jj - np.einsum("kN,kN->N", col, z_col)) / l_jj
        z[j + 1:, j] = z_col


def inv_logdet_batch_last(a: np.ndarray):
    """Inverse and log-determinant of every matrix of a (b, b, N) stack of
    symmetric positive-definite matrices held with the batch axis last.

    ``a`` is consumed: a left-looking Cholesky factorization writes L into
    its lower triangle, column by column,

        a[j:, j] -= L[j:, :j] L[j, :j],  L_jj = sqrt(a_jj),  L[j+1:, j] /= L_jj,

    and the backward pass of ``_inverse_from_factor`` then builds a^-1 in
    the same buffer.  Only the lower triangle of ``a`` is read.  With the
    batch axis last, each of the b steps of either recurrence is one
    contiguous vector op over all N matrices at once, where LAPACK's
    batched ``cholesky`` copies each small matrix in and out and factors it
    on its own; for the S-step's thousands of 5 x 5 blocks that layout is
    most of the cost.  Raises NotPositiveDefinite if any pivot is not
    > 0, wherever ``cholesky`` raises: a NaN entry of the lower triangle
    reaches a pivot and fails too.  Returns (inverse, logdet): the
    (b, b, N) inverse, exactly symmetric, in ``a``'s buffer and logdet of
    shape (N,).  A stack of one matrix is inverted padded with a copy of
    it: with N = 1 the batch axis would drop out of the ``einsum``
    contractions, which would then sum in another order, so a matrix's
    bits would depend on whether it is alone.
    """
    if a.shape[-1] == 1:
        inv, logdet = inv_logdet_batch_last(np.repeat(a, 2, axis=-1))
        a[...] = inv[..., :1]
        return a, logdet[:1]
    for j in range(a.shape[0]):
        if j:
            a[j:, j] -= np.einsum("ikN,kN->iN", a[j:, :j], a[j, :j])
        pivot = a[j, j]
        # written so that NaN fails: every comparison with it is False
        if not np.all(pivot > 0.0):
            raise NotPositiveDefinite(f"a matrix of a stack of shape {a.shape} "
                                      "is not positive definite")
        np.sqrt(pivot, out=pivot)
        a[j + 1:, j] /= pivot
    logdet = logdet_from_cholesky(np.moveaxis(a, -1, 0))
    _inverse_from_factor(a)
    return a, logdet


def inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of every matrix of a (..., b, b) stack of symmetric
    positive-definite matrices, by one LAPACK call over the whole stack.

    LAPACK inverts each matrix of the stack on its own, so a matrix gets
    the same bits alone as in a stack.  The result is symmetrized, so it is
    exactly symmetric.  Raises NotPositiveDefinite if a matrix is singular.
    """
    a = np.asarray(a, dtype=float)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"a matrix of a stack of shape {a.shape} is singular") from exc
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


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
    """Cholesky factors with the EM jitter policy, for one matrix or a stack.

    Factors the whole (..., b, b) input at once.  Only if that fails is
    each matrix factored on its own: one that fails gets JITTER_REL *
    mean(its diagonal) added to its diagonal and is retried once, and the
    others keep their entries exactly.  Returns (matrices_used, factors) so
    callers keep working with the (possibly jittered) matrices that were
    actually factored; when nothing was bumped, the first is the input
    array itself.  Raises NotPositiveDefinite if a retry fails too.  The
    covariance refresh passes the diagonal blocks of Sigma, one stack per
    block size, so a bump touches only a block that failed.
    """
    a = np.asarray(a, dtype=float)
    try:
        return a, cholesky(a)
    except NotPositiveDefinite:
        pass
    used, lower = a.copy(), np.empty_like(a)
    for i in np.ndindex(a.shape[:-2]):
        try:
            lower[i] = cholesky(a[i])
        except NotPositiveDefinite:
            used[i] = a[i] + JITTER_REL * float(np.mean(np.diag(a[i]))) * np.eye(a.shape[-1])
            lower[i] = cholesky(used[i])
    return used, lower
