"""The dense variational sweep and covariance refresh, kept as the
reference for the block-stored ones.

These are the sweep, the two coordinate updates and the ELBO as they were
when every variational covariance S was stored, factored and inverted as a
dense d x d matrix; the two conversions between dense stacks and column
blocks that moved S between partitions by way of a dense (n, d, d) stack
(they now convert to and from the class stacks);
and the covariance refresh as it was when the candidate Sigma was the
scatter projected onto its partition as a d x d matrix, factored whole,
sliced back into blocks and guarded by dense solves.  The package now
stores S, Sigma and Sigma^-1 per size class of the component's partition
(``ColumnPartition.classes``: one (k, b, b) stack per block size, sizes
in order of first appearance, blocks in label order), moves S with
``vem.reblock`` and factors each block of Sigma once;
``tests/test_blocks.py`` checks it against this copy.  The per-block
references below read that layout: they iterate the blocks in class
order, class by class and block by block, which is the order in which the
package sums log det S, log det Sigma and the bound's block terms.

``sweep_per_block`` is the block-stored sweep as it was when each column
block took its own S-step and Newton step, with the whole S block as the
S-step's input; ``tests/test_blocks.py`` checks the sweep that steps the
blocks of one size together against it bit for bit.  Both invert with the
package's kernel, ``linalg.inv_logdet_batch_last`` on each block's own
stack, since that test checks the stacking, not the inverse.

``inv_logdet_lapack`` is the S-step's inverse as it was before that kernel:
LAPACK's batched Cholesky, one factorization per matrix, then the backward
pass in the (..., b, b) layout.  ``tests/test_linalg.py`` checks the
batch-last kernel against it within written tolerances.

``inv_logdet_forward_gram`` is Sigma's inverse as it was when it came from
the Cholesky factor, L^-1 by forward substitution and a^-1 as the Gram
product L^-T L^-1; ``linalg.inverse`` now inverts each stack of Sigma's
blocks by one LAPACK call.  ``elbo_einsum`` is the block-stored
bound as it was when each block's quadratic form and trace were
unoptimised ``einsum`` contractions; ``model.elbo_batch`` takes them as
BLAS products, and so does ``elbo_dense``.  ``tests/test_blocks.py``
checks the new forms against these within written tolerances.

``covariance_candidate_by_cut`` is the covariance refresh's candidate as it
was when a single requested block was also found by agglomerating the
distances and cutting the tree.

``agglomerate_reference`` is the column agglomeration as it was when each
merge scanned the upper triangle of the active clusters' distances;
``tests/test_colgroup.py`` checks ``colgroup.agglomerate``, which finds
each merge with one argmin over the whole working matrix, against it, and
``cut_reference``, the cut as it was when it relabelled the leaves merge
by merge in a Python loop, against ``colgroup.cut``.

``scatter_three_operand`` is the scatter as it was when W's mean part was
one three-operand ``einsum``; ``vem.compute_scatter`` takes it as one BLAS
product.  ``inverses_per_block`` is Sigma's inverse as it was when each
block was factored and inverted on its own; ``model.BlockSigma`` now
inverts the blocks of each size as one stack, and ``block_sigma`` builds
one from a dense Sigma's blocks.

``s_step_buffers`` allocates the two arrays the S-step writes, which the
fit hands it from its workspace, for tests that call the S-step directly.
"""

import math

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import gammaln

from mplnbicluster.colgroup import (
    LINKAGES,
    ColumnPartition,
    Dendrogram,
    _check_distance,
    agglomerate,
    cut,
    distance_matrix,
    select_k_silhouette,
)
from mplnbicluster.errors import NotPositiveDefinite
from mplnbicluster.linalg import (
    cholesky,
    cholesky_with_jitter,
    inv_logdet_batch_last,
    inverse,
    logdet_from_cholesky,
)
from mplnbicluster.model import EXP_CAP, BlockSigma, block_index, elbo_batch
from mplnbicluster.vem import EqualK, PerGroupK


def s_step_buffers(m):
    """The two arrays ``vem.s_fixed_point_step`` writes, for an m of shape
    (..., b), shaped as the sweep carves them from the fit's workspace:
    the (b, b, rows) stack of S'^-1 and the (..., b, b) stack of S'."""
    lead, b = m.shape[:-1], m.shape[-1]
    return np.empty((b, b, math.prod(lead))), np.empty(lead + (b, b))


def blocks_from_dense(s, classes):
    """The diagonal blocks of a (..., d, d) stack on the size classes
    ``classes`` ((k, b) stacks of column indices): one C-contiguous
    (k, ..., b, b) stack per class; entries outside the blocks are dropped."""
    return [np.ascontiguousarray(np.moveaxis(s[(...,) + block_index(cols)], -3, 0))
            for cols in classes]


def dense_from_blocks(stacks, classes, d):
    """The (..., d, d) stack holding the class stacks ``stacks`` on their
    columns, zero elsewhere."""
    out = np.zeros(stacks[0].shape[1:-2] + (d, d))
    for cols, stack in zip(classes, stacks):
        out[(...,) + block_index(cols)] = np.moveaxis(stack, 0, -3)
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
    n, d = m.shape
    dm = m - mu
    quad = np.einsum("ni,ni->n", dm @ sigma_inv, dm)
    trace = s.reshape(n, d * d) @ sigma_inv.ravel()
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


def inv_logdet_forward_gram(lower):
    """Inverse and log-determinant of a = L L' from its factor L: L^-1 by
    forward substitution, one row at a time over the whole stack, in a new
    array, then a^-1 = L^-T L^-1 as one batched product; ``lower`` is left
    as it is."""
    lower = np.asarray(lower, dtype=float)
    diag = np.einsum("...jj->...j", lower)
    w = np.zeros_like(lower)
    for i in range(lower.shape[-1]):
        w[..., i, :i] = -np.einsum(
            "...k,...kj->...j", lower[..., i, :i], w[..., :i, :i]
        ) / diag[..., i, None]
        w[..., i, i] = 1.0 / diag[..., i]
    return np.swapaxes(w, -1, -2) @ w, logdet_from_cholesky(lower)


def inv_logdet_lapack(a):
    """Inverse and log-determinant of a (..., b, b) stack of positive-definite
    matrices as the S-step took them before the batch-last kernel: LAPACK's
    batched Cholesky, then a^-1 by the backward pass over the factor's
    columns in the (..., b, b) layout; ``a`` is left as it is."""
    z = np.linalg.cholesky(a)
    logdet = logdet_from_cholesky(z)
    diag = np.einsum("...jj->...j", z).copy()
    for j in range(z.shape[-1] - 1, -1, -1):
        col, l_jj = z[..., j + 1:, j], diag[..., j]
        z_col = np.einsum("...ki,...k->...i", z[..., j + 1:, j + 1:], col)
        z_col /= -l_jj[..., None]
        z[..., j, j + 1:] = z_col
        z[..., j, j] = (1.0 / l_jj - np.einsum("...k,...k->...", col, z_col)) / l_jj
        z[..., j + 1:, j] = z_col
    return z, logdet


def s_fixed_point_per_block(log_c, m, s, sigma_inv):
    """The S-step of one block from its whole (rows, b, b) S, its S'^-1
    factored and inverted by the package's kernel on that block alone."""
    diag_s = np.einsum("...jj->...j", s)
    lam = np.exp(np.minimum(log_c[..., None] + m + 0.5 * diag_s, EXP_CAP))
    d = m.shape[-1]
    a = np.broadcast_to(sigma_inv, m.shape + (d,)).copy()
    idx = np.arange(d)
    a[..., idx, idx] += lam
    s_new, logdet_a = inv_logdet_batch_last(np.moveaxis(a, 0, -1).copy())
    return np.ascontiguousarray(np.moveaxis(s_new, -1, 0)), -logdet_a


def sweep_per_block(y, log_c, m, s, logdet_s, mu, sigma, log_fact, f_start,
                    inner_iter, inner_tol, rows=None):
    """Guarded sweeps for one component with S stored per size class of
    ``sigma``, one S-step and one Newton step per block, the blocks taken
    in class order; returns (m, s, logdet_s)."""
    m = m.copy()
    s = [s_c.copy() for s_c in s]
    logdet_s = np.array(logdet_s, dtype=float)
    f_cur = np.array(f_start, dtype=float)
    active = np.arange(m.shape[0]) if rows is None else rows
    for _ in range(inner_iter):
        if active.size == 0:
            break
        ya, la, ma = y[active], log_c[active], m[active]
        sa = [s_c[:, active] for s_c in s]
        fa = log_fact[active]
        m_full = np.empty_like(ma)
        step = np.empty_like(ma)
        s_new = []
        logdet_s_new = 0.0
        for c, s_c in zip(sigma.classes, sa):
            blocks = []
            for idx, s_b, inv_b in zip(c.columns, s_c, c.inverses):
                s_b_new, logdet_b = s_fixed_point_per_block(la, ma[:, idx], s_b, inv_b)
                m_full[:, idx], step[:, idx] = newton_m_dense(
                    ya[:, idx], la, ma[:, idx], s_b_new, mu[idx], inv_b
                )
                blocks.append(s_b_new)
                logdet_s_new = logdet_s_new + logdet_b
            s_new.append(np.stack(blocks))
        f_new = elbo_batch(ya, la, m_full, s_new, mu, sigma, log_fact=fa,
                           logdet_s=logdet_s_new)
        m_new = m_full
        rejected = np.zeros(active.size, dtype=bool)
        bad = np.flatnonzero(f_new < f_cur[active])
        if bad.size:
            m_half = ma[bad] - 0.5 * step[bad]
            f_half = elbo_batch(
                ya[bad], la[bad], m_half, [s_c[:, bad] for s_c in s_new], mu,
                sigma, log_fact=fa[bad], logdet_s=logdet_s_new[bad],
            )
            ok = f_half >= f_cur[active[bad]]
            m_new[bad[ok]] = m_half[ok]
            f_new[bad[ok]] = f_half[ok]
            rejected[bad[~ok]] = True
        delta = np.abs(m_new - ma).max(axis=1)
        for s_c_new, s_c in zip(s_new, sa):
            delta = np.maximum(delta, np.abs(s_c_new - s_c).max(axis=(0, 2, 3)))
        accepted = ~rejected
        kept = active[accepted]
        m[kept] = m_new[accepted]
        for s_c, s_c_new in zip(s, s_new):
            s_c[:, kept] = s_c_new[:, accepted]
        logdet_s[kept] = logdet_s_new[accepted]
        f_cur[kept] = f_new[accepted]
        active = active[accepted & (delta >= inner_tol)]
    return m, s, logdet_s


def elbo_einsum(y, log_c, m, s, mu, sigma, log_fact, logdet_s):
    """``model.elbo_batch`` with each block's quadratic form and trace as
    unoptimised ``einsum`` contractions, summed over the blocks in class
    order; S stored per size class of ``sigma``."""
    y = np.asarray(y, dtype=float)
    d = m.shape[1]
    dm = m - mu
    quad = 0.0
    trace = 0.0
    s_diag = np.empty_like(dm)
    for c, s_c in zip(sigma.classes, s):
        for idx, s_b, inv_b in zip(c.columns, s_c, c.inverses):
            dm_b = dm[:, idx]
            quad = quad + np.einsum("ni,ij,nj->n", dm_b, inv_b, dm_b)
            trace = trace + np.einsum("ij,nji->n", inv_b, s_b)
            s_diag[:, idx] = np.einsum("njj->nj", s_b)
    rate = np.exp(np.minimum(log_c[:, None] + m + 0.5 * s_diag, EXP_CAP))
    return (
        -0.5 * quad
        - 0.5 * trace
        + 0.5 * logdet_s
        - 0.5 * sigma.logdet
        + 0.5 * d
        + np.einsum("ni,ni->n", m, y)
        + log_c * y.sum(axis=1)
        - rate.sum(axis=1)
        - log_fact
    )


def scatter_three_operand(z_g, m_g, s_g, mu_g, classes):
    """W_g with its mean part as ``np.einsum("n,ni,nj->ij", z_g, dm, dm)``
    and S's part added block by block."""
    mass = z_g.sum()
    dm = m_g - mu_g
    w = np.einsum("n,ni,nj->ij", z_g, dm, dm)
    for cols, s_c in zip(classes, s_g):
        for idx, s_b in zip(cols, s_c):
            w[np.ix_(idx, idx)] += np.einsum("n,nij->ij", z_g, s_b)
    w = w / mass
    return 0.5 * (w + w.T)


def inverses_per_block(blocks):
    """Sigma^-1's blocks and log det Sigma, each block factored and inverted
    on its own, the log-determinants summed in the order of ``blocks``."""
    return ([inverse(block) for block in blocks],
            sum(logdet_from_cholesky(cholesky(block)) for block in blocks))


def block_sigma(part, sigma):
    """``BlockSigma`` on ``part`` from the diagonal blocks of a d x d Sigma:
    the blocks of each size stacked and factored."""
    stacks = [sigma[block_index(cols)] for cols in part.classes]
    return BlockSigma.from_factors(part, [(stack, cholesky(stack)) for stack in stacks])


def block_project(cov, part):
    """Zero out every covariance entry whose variables are in different groups."""
    out = np.zeros_like(cov)
    for members in part.groups():
        block = np.ix_(members, members)
        out[block] = cov[block]
    return out


def covariance_candidate_dense(w, k_spec, g, linkage):
    """The candidate (Sigma, chol(Sigma), partition): W projected onto the
    partition cut from its distances and factored as one d x d matrix."""
    dist = distance_matrix(w)
    dendro = agglomerate(dist, linkage=linkage)
    if isinstance(k_spec, EqualK):
        k = k_spec.k
    elif isinstance(k_spec, PerGroupK):
        k = k_spec.ks[g]
    else:
        k, _ = select_k_silhouette(dendro, dist, min(k_spec.k_max, w.shape[0]))
    partition = cut(dendro, k)
    sigma, lower = cholesky_with_jitter(block_project(w, partition))
    return sigma, lower, partition


def covariance_candidate_by_cut(w, k_spec, g, linkage):
    """``vem._covariance_candidate`` with every partition, a single block
    included, cut from the agglomeration of W's distances (as the dense
    refresh cuts it)."""
    _, _, partition = covariance_candidate_dense(w, k_spec, g, linkage)
    return BlockSigma.from_factors(partition, [cholesky_with_jitter(w[block_index(cols)])
                                               for cols in partition.classes])


def block_inverses_dense(lower, groups):
    """Inverses of the blocks of Sigma = L L' on its own groups, each from
    its factor sliced from the dense one, and log det Sigma."""
    pairs = [inv_logdet_forward_gram(lower[np.ix_(idx, idx)]) for idx in groups]
    return [inv for inv, _ in pairs], sum(logdet for _, logdet in pairs)


def objective_dense(w, mass, lower):
    """-mass/2 * (tr(Sigma^-1 W) + log det Sigma) at Sigma = L L', by a dense solve."""
    return -0.5 * mass * (np.trace(cho_solve((lower, True), w)) + logdet_from_cholesky(lower))


def agglomerate_reference(dist, linkage="average"):
    """Agglomerative clustering by Lance-Williams updates over the active
    clusters; ties go to the smallest (i, j) pair of cluster ids."""
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}; expected one of {LINKAGES}")
    dist = _check_distance(dist)
    d = dist.shape[0]
    total = 2 * d - 1
    work = np.full((total, total), np.inf)
    work[:d, :d] = dist
    np.fill_diagonal(work, np.inf)
    size = np.zeros(total, dtype=np.int64)
    size[:d] = 1
    active = np.zeros(total, dtype=bool)
    active[:d] = True

    merges = np.empty((d - 1, 2), dtype=np.int64)
    heights = np.empty(d - 1)
    for step in range(d - 1):
        ids = np.flatnonzero(active)
        sub = work[np.ix_(ids, ids)]
        iu, ju = np.triu_indices(len(ids), k=1)
        flat = sub[iu, ju]
        # argmin scans the upper triangle row-major, so the first minimum is
        # the smallest (i, j) pair among ties (ids are in ascending order).
        best = int(np.argmin(flat))
        a, b = int(ids[iu[best]]), int(ids[ju[best]])
        height = work[a, b]
        new = d + step
        others = ids[(ids != a) & (ids != b)]
        if others.size:
            if linkage == "single":
                merged = np.minimum(work[a, others], work[b, others])
            elif linkage == "complete":
                merged = np.maximum(work[a, others], work[b, others])
            else:
                merged = (size[a] * work[a, others] + size[b] * work[b, others]) / (
                    size[a] + size[b]
                )
            work[new, others] = merged
            work[others, new] = merged
        size[new] = size[a] + size[b]
        active[a] = active[b] = False
        active[new] = True
        merges[step] = (a, b)
        heights[step] = height
    return Dendrogram(d, merges, heights)


def cut_reference(dendro, k):
    """Partition into k groups by replaying the first d - k merges over the
    leaves' cluster ids, then labelling the clusters 1..k by first
    occurrence along the variable axis."""
    d = dendro.n_leaves
    current = np.arange(d, dtype=np.int64)
    for step in range(d - k):
        a, b = dendro.merges[step]
        current[(current == a) | (current == b)] = d + step
    labels = np.zeros(d, dtype=np.int64)
    seen = {}
    for j in range(d):
        labels[j] = seen.setdefault(int(current[j]), len(seen) + 1)
    return ColumnPartition(labels, k)
