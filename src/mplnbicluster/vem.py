"""Variational EM for the mixture model with block-structured covariances.

Each pass of the driver runs three blocks of work, until the observed-data
bound stabilises:

1. closed-form mixture weights and means, then a covariance refresh in
   which each component's scatter is grouped into variable blocks and its
   diagonal blocks become Sigma's: one ``model.BlockSigma``, whose blocks
   of each size are factored as one stack for log det Sigma and inverted
   as one stack, and which is what the refresh's guard, the bounds and the
   sweeps take (a dense Sigma is built only for the fitted model),
2. the per-component evidence bounds and the responsibilities,
3. one guarded step per pass on the per-observation Gaussian
   approximations, whose covariances S are stored, like Sigma, as one
   (k, n, b, b) stack per block size of the component's partition (Sigma
   is block-diagonal, so the fixed point for S is too).  The blocks are
   independent problems, so a sweep takes one S-step and one Newton step
   per stack, in buffers the fit owns, so that a pass reuses the last
   pass's pages.  Sigma moves on every pass, so the step is not
   iterated: any step that lowers no bound keeps each pass an ascent with
   the same stationary points (a partial E-step, Neal & Hinton 1998).  When
   a component's partition changes, its S moves onto the new blocks and
   drops the entries across them, which never lowers a bound
   (``reblock``).  A sweep skips the rows whose responsibility under the
   component is below the rounding unit of 1: the M-step and the bound
   weigh such a pair by nothing they can resolve, and a coordinate left as
   it is never lowers the bound, so each pass still ascends.

Every substep is guarded so the quantity traced in ``elbo_trace`` — the
log-sum-exp bound ``sum_i log sum_g pi_g exp(F_ig)`` — never decreases:
a sweep falls back to a halved step and then to the previous iterate per
observation, and a covariance/grouping candidate is only accepted when it
does not lower that component's weighted Gaussian objective.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .colgroup import (
    LINKAGES,
    ColumnPartition,
    agglomerate,
    cut,
    distance_matrix,
    select_k_silhouette,
)
from .data import (
    CountMatrix,
    OffsetVector,
    check_offsets,
    integer,
    labels_in_range,
    read_json,
    write_csv,
    write_json,
)
from .errors import AllRestartsFailed, EmptyComponent, MplnError
from .evaluate import relabelling
from .linalg import cholesky_with_jitter, inv_logdet_batch_last
from .model import (
    BlockSigma,
    MixtureModel,
    VariationalState,
    bic,
    block_index,
    elbo_batch,
    log_factorial,
    logdet_blocks,
    lower_bound,
    model_from_dict,
    model_to_dict,
    poisson_rate,
    posterior,
    sum_blocks,
)
from .seeding import TAG_INIT, derive_rng

__all__ = [
    "FitConfig",
    "EqualK",
    "PerGroupK",
    "SilhouetteK",
    "FitResult",
    "initialize",
    "newton_m_step",
    "s_fixed_point_step",
    "m_step_pi",
    "m_step_mu",
    "compute_scatter",
    "reblock",
    "fit",
    "fit_from_state",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "save_labels",
]


@dataclass(frozen=True)
class FitConfig:
    """Knobs for a single fit.  Defaults are the package-wide defaults."""

    max_em_iter: int = 500
    elbo_rel_tol: float = 1e-6
    n_starts: int = 5
    linkage: str = "average"
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("max_em_iter", 1), ("n_starts", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), low))
        tol = self.elbo_rel_tol
        real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
        # the comparison is False for NaN as well
        if not (real and 0.0 < tol < math.inf):
            raise ValueError(f"elbo_rel_tol must be a finite positive number, got {tol!r}")
        if self.linkage not in LINKAGES:
            raise ValueError(
                f"linkage must be one of {LINKAGES}, got {self.linkage!r}"
            )


@dataclass(frozen=True)
class EqualK:
    """Group every component's variables into the same number of blocks."""

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", integer("k", self.k, 1))


@dataclass(frozen=True)
class PerGroupK:
    """One block count per component, in component order."""

    ks: tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "ks", tuple(integer(f"ks[{i}]", k, 1) for i, k in enumerate(self.ks))
        )


@dataclass(frozen=True)
class SilhouetteK:
    """Pick each component's block count by silhouette, up to k_max."""

    k_max: int

    def __post_init__(self) -> None:
        # the silhouette needs two blocks to compare
        object.__setattr__(self, "k_max", integer("k_max", self.k_max, 2))


KSpec = Union[EqualK, PerGroupK, SilhouetteK]


@dataclass
class FitResult:
    model: MixtureModel
    state: Optional[VariationalState]  # S per size class; searches drop it
    labels: np.ndarray  # (n,) int, 1-based component assignments
    elbo_trace: np.ndarray  # observed-data bound per iteration
    lower_bound: float  # responsibility-weighted bound at the final state
    bic: float
    converged: bool
    iterations: int
    restart: int  # index of the winning start
    # the earlier start whose optimum this start reached; it stopped there
    # and cannot win, so a result of ``fit`` never has one
    joined: Optional[int] = None
    # (restart, outcome, iterations) of every start ``fit`` ran; the outcome
    # is "converged", "capped", "joined restart r" or the error's text
    starts: tuple = ()


def _normalize_k_spec(k_spec, G: int, d: int) -> KSpec:
    if isinstance(k_spec, numbers.Integral):
        k_spec = EqualK(k_spec)  # which rejects a bool
    elif isinstance(k_spec, (tuple, list)):
        k_spec = PerGroupK(tuple(k_spec))
    if isinstance(k_spec, EqualK):
        if k_spec.k > d:
            raise ValueError(f"k={k_spec.k} exceeds the number of variables {d}")
    elif isinstance(k_spec, PerGroupK):
        if len(k_spec.ks) != G:
            raise ValueError(
                f"PerGroupK needs {G} block counts, got {len(k_spec.ks)}"
            )
        if any(k > d for k in k_spec.ks):
            raise ValueError("a per-component block count exceeds the dimension")
    elif not isinstance(k_spec, SilhouetteK):
        raise TypeError(f"unsupported block-count request: {k_spec!r}")
    elif d < 2:
        raise ValueError(f"SilhouetteK needs at least 2 variables, got {d}")
    return k_spec


# ---------------------------------------------------------------------------
# initialization


# Lloyd iterations of the restart-0 k-means labels
_KMEANS_ITER = 100


def _kmeans_labels(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain k-means++ / Lloyd labels, deterministic given the generator;
    every cluster keeps at least one row, even when rows tie."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))

    def nearest():
        labels = np.argmin(((x[:, None, :] - centers[None]) ** 2).sum(axis=-1), axis=1)
        for j in range(k):
            if not np.any(labels == j):
                # resurrect an empty cluster at the worst-fit row of a
                # cluster that keeps another row
                misfit = ((x - centers[labels]) ** 2).sum(axis=1)
                shared = np.bincount(labels, minlength=k)[labels] > 1
                worst = int(np.argmax(np.where(shared, misfit, -1.0)))
                centers[j] = x[worst]
                labels[worst] = j
        return labels

    labels = nearest()
    for _ in range(_KMEANS_ITER):
        for j in range(k):
            centers[j] = x[labels == j].mean(axis=0)
        new = nearest()
        if np.array_equal(new, labels):
            break
        labels = new
    return labels


def initialize(
    counts: CountMatrix,
    offsets: OffsetVector,
    G: int,
    seed: int,
    restart: int,
) -> VariationalState:
    """Starting point for one restart.

    Variational means start at the shifted log counts, covariances at
    0.1 * I in 1 x 1 blocks.  Responsibilities are hard k-means labels on
    the log counts for restart 0 and Dirichlet(1) draws for later restarts,
    so the first start is a strong guess and the rest explore.
    """
    check_offsets(counts, offsets)
    y = counts.counts
    n, d = y.shape
    if not 1 <= G <= n:
        raise ValueError(f"G must be between 1 and n={n}, got {G}")
    m0 = np.log((y + 0.5) / offsets.c[:, None])
    m = np.repeat(m0[:, None, :], G, axis=1)
    # a view of an (n, d, 1, 1) array: the first scatter sums it over the
    # rows in the same order as a dense S, so G = 1 fits match it bit for bit
    s = tuple((np.full((n, d, 1, 1), 0.1).transpose(1, 0, 2, 3),) for _ in range(G))
    if G == 1:
        z = np.ones((n, 1))
    else:
        rng = derive_rng(seed, TAG_INIT, restart)
        if restart == 0:
            hard = _kmeans_labels(m0, G, rng)
            z = np.zeros((n, G))
            z[np.arange(n), hard] = 1.0
        else:
            z = rng.dirichlet(np.ones(G), size=n)
    singletons = ColumnPartition(np.arange(1, d + 1), d)
    return VariationalState(m=m, s=s, z=z, partitions=(singletons,) * G)


# ---------------------------------------------------------------------------
# variational sweeps


def s_fixed_point_step(log_c, m, diag_s, sigma_inv, a, s_new):
    """One fixed-point refresh of the approximation covariances.

    S' = (Sigma^-1 + diag(exp(log C + m + diag(S)/2)))^-1, batched over
    leading axes.  The map reads S only through its diagonal, so it takes
    ``diag_s``, shaped like m.  Returns (s_new, logdet_s_new).  The sweep
    calls it once per block size, on the blocks of that size stacked along
    a leading axis: m and diag(S) are (k, rows, b) and Sigma^-1 is
    (k, 1, b, b).  S'^-1 is built with the batch axis last, in ``a``, a
    C-contiguous (b, b, k * rows) array: Sigma^-1 broadcast over the rows,
    plus the rates on its diagonal.  ``inv_logdet_batch_last`` factors and
    inverts that stack in ``a``, each step one vector op over all k * rows
    blocks, and one transpose writes S' into ``s_new``, a C-contiguous
    (k, rows, b, b) array.  So the step holds two such arrays at a time;
    the sweep hands it both from the fit's workspace.  S' is exactly
    symmetric.  Raises NotPositiveDefinite if S'^-1 does not factor.
    """
    m = np.asarray(m, dtype=float)
    lead, d = m.shape[:-1], m.shape[-1]
    count = math.prod(lead)
    lam = poisson_rate(log_c, m, diag_s)
    a.reshape((d, d) + lead)[...] = np.moveaxis(
        np.broadcast_to(sigma_inv, lead + (d, d)), (-2, -1), (0, 1))
    a.reshape(d * d, count)[::d + 1] += np.moveaxis(lam, -1, 0).reshape(d, count)
    inv, logdet_a = inv_logdet_batch_last(a)
    s_new[...] = np.moveaxis(inv.reshape((d, d) + lead), (0, 1), (-2, -1))
    return s_new, -logdet_a.reshape(lead)


def newton_m_step(y, log_c, m, s_new, mu, sigma_inv):
    """Full Newton update of the approximation means at fixed S'.

    m' = m - S' (exp(log C + m + diag(S')/2) + Sigma^-1 (m - mu) - y);
    the returned step can be damped by the caller.  Called once per block
    size, like ``s_fixed_point_step``: y and m are (k, rows, b), S' is
    (k, rows, b, b), mu (k, 1, b) and Sigma^-1 (k, b, b).
    """
    m = np.asarray(m, dtype=float)
    diag_s = np.einsum("...jj->...j", np.asarray(s_new, dtype=float))
    lam = poisson_rate(log_c, m, diag_s)
    resid = lam + (m - mu) @ sigma_inv - np.asarray(y, dtype=float)
    step = np.einsum("...ij,...j->...i", s_new, resid)
    return m - step, step


def _carve(work, key, shape):
    """A C-contiguous ``shape`` view on the start of the flat float64
    buffer ``work[key]``, replaced by a larger one when it holds too few;
    its entries are as the last user left them."""
    size = math.prod(shape)
    if key not in work or work[key].size < size:
        work[key] = np.empty(size)
    return work[key][:size].reshape(shape)


def _sweep_batch(y, log_c, m, s, logdet_s, mu, sigma, log_fact, f_start, rows, work):
    """One guarded coordinate step for the observations ``rows`` of one
    component; the others keep their pair.

    S is stored per size class of the component's ``sigma`` (a
    ``BlockSigma``): ``s`` holds one (k, n, b, b) stack per class of
    ``sigma.classes``.  ``logdet_s`` and ``f_start`` are each observation's
    log det S and bound at the starting (m, S); the trial step is scored
    with the same ``elbo_batch``, taking log det S' from the S-step.  The
    step refreshes every block of S by its fixed-point map and takes the
    Newton step on that block's columns of m; the blocks are independent
    b x b problems, so each size class is stepped as one stack, one S-step
    and one Newton step per class.
    If an observation's bound would drop, the m-step is halved once; if it
    still drops, that observation keeps its pair.  The kept observations'
    m, S and log det S are written in place into ``m``, the stacks of ``s``
    and ``logdet_s``, which the caller owns; returns (m, s, logdet_s).
    The S-step's arrays are carved from the workspace ``work``, a dict of
    flat buffers (``_carve``): ``work[0]`` holds the S'^-1 stack, which
    each class consumes in its own step, and ``work[1 + c]`` class c's S',
    which the trial bounds read after every class has stepped.  The fit
    passes one workspace to all its sweeps.
    """
    y = np.asarray(y, dtype=float)
    ya, la, ma, fa, f_old = y[rows], log_c[rows], m[rows], log_fact[rows], f_start[rows]
    m_new = np.empty_like(ma)
    step = np.empty_like(ma)
    s_new, logdet_new = [], []
    for i, (c, s_c) in enumerate(zip(sigma.classes, s, strict=True)):
        idx = c.columns
        k, b = idx.shape
        # ma[:, idx] is (rows, k, b); the S-step stacks the k blocks first
        m_c = np.moveaxis(ma[:, idx], 1, 0)
        diag_c = np.einsum("knjj->knj", s_c)[:, rows]
        s_c_new, logdet_c = s_fixed_point_step(la, m_c, diag_c, c.inverses[:, None],
                                               _carve(work, 0, (b, b, k * rows.size)),
                                               _carve(work, 1 + i, (k, rows.size, b, b)))
        m_c_new, step_c = newton_m_step(np.moveaxis(ya[:, idx], 1, 0), la, m_c, s_c_new,
                                        mu[idx][:, None], c.inverses)
        m_new[:, idx] = np.moveaxis(m_c_new, 0, 1)
        step[:, idx] = np.moveaxis(step_c, 0, 1)
        s_new.append(s_c_new)
        logdet_new.append(logdet_c)
    logdet_s_new = sum_blocks(logdet_new)
    f_new = elbo_batch(ya, la, m_new, s_new, mu, sigma, log_fact=fa, logdet_s=logdet_s_new)
    keep = np.ones(rows.size, dtype=bool)
    bad = np.flatnonzero(f_new < f_old)
    if bad.size:
        m_half = ma[bad] - 0.5 * step[bad]
        f_half = elbo_batch(
            ya[bad], la[bad], m_half, [s_c[:, bad] for s_c in s_new], mu,
            sigma, log_fact=fa[bad], logdet_s=logdet_s_new[bad],
        )
        ok = f_half >= f_old[bad]
        m_new[bad[ok]] = m_half[ok]
        keep[bad[~ok]] = False
    kept = rows[keep]
    m[kept] = m_new[keep]
    for s_c, s_c_new in zip(s, s_new):
        s_c[:, kept] = s_c_new[:, keep]
    logdet_s[kept] = logdet_s_new[keep]
    return m, s, logdet_s


def reblock(s, old, new):
    """Move the (k, ..., b, b) stacks ``s`` from the size classes ``old``
    onto the size classes ``new``, each a sequence of (k, b) column stacks
    (a partition's ``classes``; a dense S is ``(np.arange(d)[None],)``),
    filling each new block from the old blocks it overlaps; the new stacks
    are C-contiguous, like the sweep's.

    Entries that cross the new blocks are dropped.  The ELBO's trace and
    rate terms see only in-block entries under a Sigma that is
    block-diagonal on the new partition, and log det S <= sum_b log det
    S_bb (Fischer's inequality), so no observation's bound goes down, and
    every new block is a principal submatrix of a positive-definite S.
    """
    # each column's class, its block in the class and its place in the block
    d = sum(cols.size for cols in old)
    owner, block, position = np.empty((3, d), dtype=np.intp)
    for c, cols in enumerate(old):
        owner[cols] = c
        block[cols] = np.arange(cols.shape[0])[:, None]
        position[cols] = np.arange(cols.shape[1])
    out = []
    for cols in new:
        c, j, p = owner[cols], block[cols], position[cols]
        # same[t, u, v]: columns u and v of new block t share an old block
        same = (c[:, :, None] == c[:, None, :]) & (j[:, :, None] == j[:, None, :])
        stack = np.zeros(cols.shape[:1] + s[0].shape[1:-2] + cols.shape[1:] * 2)
        for source in np.unique(c):
            t, u, v = np.nonzero(same & (c == source)[:, :, None])
            stack[t, ..., u, v] = s[source][j[t, u], ..., p[t, u], p[t, v]]
        out.append(stack)
    return out


# ---------------------------------------------------------------------------
# M-step pieces


def m_step_pi(z: np.ndarray) -> np.ndarray:
    pi = z.sum(axis=0)
    return pi / pi.sum()


def m_step_mu(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Responsibility-weighted means of the variational means.

    Raises EmptyComponent when a component's responsibility mass has
    collapsed (below 1e-10), which would make its mean undefined.
    """
    mass = z.sum(axis=0)
    for g, value in enumerate(mass):
        if value < 1e-10:
            raise EmptyComponent(
                f"component {g + 1} has responsibility mass {value:.3e}"
            )
    return np.einsum("ng,ngd->gd", z, m) / mass[:, None]


def compute_scatter(z_g, m_g, s_g, mu_g, classes):
    """Weighted second-moment matrix W_g around the component mean.

    The mean part is one BLAS product.  ``s_g`` holds one (k, n, b, b)
    stack per class of ``classes`` (the (k, b) column stacks), and each
    block's weighted mean lands on that block of W; these sums stay in
    ``einsum``'s row order, which is the same for 1 x 1 blocks as for one
    dense block.
    """
    mass = z_g.sum()
    dm = m_g - mu_g
    w = (dm * z_g[:, None]).T @ dm
    for cols, s_c in zip(classes, s_g, strict=True):
        w[block_index(cols)] += np.einsum("n,knij->kij", z_g, s_c)
    w = w / mass
    return 0.5 * (w + w.T)


# below this a responsibility is under the rounding unit of its row's sum of 1
_Z_RESOLVABLE = np.finfo(float).eps


def _rows_to_sweep(z_g):
    """The rows a component's sweep refreshes: those with a responsibility
    the fit can resolve.  A skipped pair keeps its (m, S), and its bound is
    retaken on every pass (sparse EM, Neal & Hinton 1998)."""
    return np.flatnonzero(z_g >= _Z_RESOLVABLE)


def _covariance_candidate(w, k_spec, g, linkage):
    """Group variables from W and factor the candidate covariance per block.

    The partition comes from cutting the agglomeration of the 1 - corr^2
    distances at the requested (or silhouette-selected) number of blocks;
    a requested single block is the one partition any cut gives, so it is
    built without the distances and the tree.  Sigma's blocks are W's
    diagonal blocks on it; the blocks of each size are stacked and factored
    by one ``cholesky_with_jitter`` call; ``BlockSigma.from_factors``
    inverts the blocks it returns and takes log det Sigma from its
    factors.  The jitter is per block: a block that does not factor is
    bumped by JITTER_REL times the mean of its own diagonal, and every
    other block keeps W's entries exactly.
    """
    if isinstance(k_spec, EqualK):
        k = k_spec.k
    elif isinstance(k_spec, PerGroupK):
        k = k_spec.ks[g]
    else:
        k = None
    if k == 1:
        partition = ColumnPartition(np.ones(w.shape[0], dtype=np.int64), 1)
    else:
        dist = distance_matrix(w)
        dendro = agglomerate(dist, linkage=linkage)
        if k is None:
            k, _ = select_k_silhouette(dendro, dist, min(k_spec.k_max, w.shape[0]))
        partition = cut(dendro, k)
    # W's diagonal blocks of each size as one (k, b, b) stack
    return BlockSigma.from_factors(partition, [cholesky_with_jitter(w[block_index(cols)])
                                               for cols in partition.classes])


def _joins(incumbent, labels, partitions):
    """Whether the hard row labels and the column partitions equal the
    incumbent's final ones up to a renaming of components and of each
    matched component's blocks."""
    perm = relabelling(incumbent.labels, labels, len(partitions))
    return perm is not None and all(
        relabelling(old.assign, partitions[g].assign, max(old.k, partitions[g].k)) is not None
        for old, g in zip(incumbent.model.groupings, perm)
    )


# ---------------------------------------------------------------------------
# the driver


def fit_from_state(
    counts: CountMatrix,
    offsets: OffsetVector,
    state: VariationalState,
    k_spec,
    config: FitConfig,
    restart: int = 0,
    incumbent: Optional[FitResult] = None,
) -> FitResult:
    """Run the EM loop from an explicit starting state.

    Each pass refreshes pi and mu, then each component's covariance, then
    evaluates the bounds and responsibilities and, unless the loop stops
    there, takes one guarded sweep (``_sweep_batch``, a single variational
    step) per component.  The first pass adopts every covariance unguarded,
    since there is none yet.  The trace records the observed-data
    bound once per pass; the loop stops when its change falls below
    ``elbo_rel_tol`` relative to max(1, |bound|), or after ``max_em_iter``
    iterations.  Given an ``incumbent`` (an earlier start's result), it also
    stops, with ``joined`` set to that start, before the sweeps of any pass
    whose hard row labels and column partitions equal the incumbent's up to
    renaming.
    """
    y = counts.counts.astype(float)
    log_c = offsets.log
    n, G, d = state.m.shape
    if counts.n != n or counts.d != d:
        raise ValueError("state does not match the count matrix")
    check_offsets(counts, offsets)
    k_spec = _normalize_k_spec(k_spec, G, d)

    # the sweeps write m and S in place, into the fit's own copies; order
    # "K" keeps the caller's strides, so the first scatter sums the rows in
    # the same order as it would sum the caller's S
    m = state.m.copy()
    z = state.z.copy()
    log_fact = log_factorial(y)
    partitions = list(state.partitions)
    s = [[np.copy(s_c, order="K") for s_c in stacks] for stacks in state.s]
    covs = [None] * G  # each component's Sigma, a BlockSigma
    # log det S per row: factored whenever S moves onto a new partition,
    # and carried from the S-steps in between
    logdet_s = [None] * G
    # the sweeps' S-step buffers (``_sweep_batch``), shared by the
    # components, whose sweeps run one after another, and reused by every
    # pass instead of faulting in fresh pages; they die with the fit
    work = {}
    trace = []
    prev_bound = -np.inf
    converged = False
    joined = None

    for iteration in range(config.max_em_iter + 1):
        pi = m_step_pi(z)
        mu = m_step_mu(z, m)
        f = np.empty((n, G))
        for g in range(G):
            w = compute_scatter(z[:, g], m[:, g], s[g], mu[g], partitions[g].classes)
            cand = _covariance_candidate(w, k_spec, g, config.linkage)
            # the first pass has no covariance yet to guard
            if covs[g] is None or cand.no_worse_than(covs[g], w, z[:, g].sum()):
                covs[g] = cand
            new = covs[g].partition
            if new != partitions[g]:
                # dropping S's entries across the new blocks never lowers a bound
                s[g] = reblock(s[g], partitions[g].classes, new.classes)
                partitions[g], logdet_s[g] = new, None
            if logdet_s[g] is None:
                logdet_s[g] = logdet_blocks(s[g])
            f[:, g] = elbo_batch(y, log_c, m[:, g], s[g], mu[g], covs[g],
                                 log_fact=log_fact, logdet_s=logdet_s[g])
        bound, z = posterior(f, pi)
        trace.append(bound)
        if iteration == config.max_em_iter:
            break
        if abs(bound - prev_bound) <= config.elbo_rel_tol * max(1.0, abs(bound)):
            converged = True
            break
        prev_bound = bound
        if incumbent is not None and _joins(incumbent, np.argmax(z, axis=1) + 1, partitions):
            joined = incumbent.restart
            break
        for g in range(G):
            # f[:, g] is the bound at this same (m, S, mu, Sigma); the step
            # writes into the fit's own m, S and log det S
            _sweep_batch(y, log_c, m[:, g], s[g], logdet_s[g], mu[g], covs[g], log_fact,
                         f[:, g], _rows_to_sweep(z[:, g]), work)

    final_state = VariationalState(m=m, s=s, z=z, partitions=partitions)
    # the one dense Sigma of the fit, for the model
    model = MixtureModel(
        pi=pi, mu=mu, sigma=np.stack([cov.dense() for cov in covs]),
        groupings=tuple(partitions),
    )
    labels = np.argmax(z, axis=1) + 1
    lb = lower_bound(f, z, pi)
    return FitResult(
        model=model,
        state=final_state,
        labels=labels,
        elbo_trace=np.asarray(trace),
        lower_bound=float(lb),
        bic=bic(lb, model.n_free_parameters, n),
        converged=converged,
        iterations=len(trace) - 1,
        restart=restart,
        joined=joined,
    )


def fit(
    counts: CountMatrix,
    offsets: OffsetVector,
    G: int,
    k_spec,
    config: Optional[FitConfig] = None,
) -> FitResult:
    """Fit the mixture with ``G`` components from multiple starts.

    Each start initializes independently and runs the EM loop.  The first
    start that finishes is the incumbent: every later start stops once it
    reaches the incumbent's optimum (same hard row labels and column
    partitions up to renaming) and cannot win.  Of the starts that finish
    without joining it, the one with the highest final lower bound wins.
    A start that fails (e.g. a component empties out) is recorded and
    skipped; if every start fails, AllRestartsFailed carries the per-start
    reasons.  The winner's ``starts`` records every start's outcome.  With
    G = 1 every start is the same, so only restart 0 runs.
    """
    if config is None:
        config = FitConfig()
    k_spec = _normalize_k_spec(k_spec, G, counts.d)
    # before the starts, each of which would record the error as its outcome
    check_offsets(counts, offsets)
    best = incumbent = None
    starts = []
    # ``initialize`` ignores the restart index when G = 1
    for restart in range(config.n_starts if G > 1 else 1):
        try:
            state = initialize(counts, offsets, G, config.seed, restart)
            result = fit_from_state(
                counts, offsets, state, k_spec, config, restart=restart,
                incumbent=incumbent,
            )
        except MplnError as exc:
            starts.append((restart, f"{type(exc).__name__}: {exc}", None))
            continue
        if result.joined is not None:
            starts.append((restart, f"joined restart {result.joined}", result.iterations))
            continue
        starts.append((restart, "converged" if result.converged else "capped", result.iterations))
        if incumbent is None:
            incumbent = result
        if best is None or result.lower_bound > best.lower_bound:
            best = result
    if best is None:
        raise AllRestartsFailed([(restart, outcome) for restart, outcome, _ in starts])
    best.starts = tuple(starts)
    return best


# ---------------------------------------------------------------------------
# serialization

def result_to_dict(result: FitResult) -> dict:
    """JSON-ready view of a fit: model plus trace, labels and diagnostics.

    The variational state is deliberately left out: its S blocks take
    O(n sum_b b^2) numbers per component, and the state can be recomputed
    from the model if needed.
    """
    return {
        "model": model_to_dict(result.model),
        "labels": [int(v) for v in result.labels],
        "elbo_trace": [float(v) for v in result.elbo_trace],
        "lower_bound": float(result.lower_bound),
        "bic": float(result.bic),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "restart": int(result.restart),
        "starts": [list(start) for start in result.starts],
    }


def result_from_dict(payload: dict) -> FitResult:
    model = model_from_dict(payload["model"])
    return FitResult(
        model=model,
        state=None,
        labels=labels_in_range("labels", payload["labels"], model.G),
        elbo_trace=np.asarray(payload["elbo_trace"], dtype=float),
        lower_bound=float(payload["lower_bound"]),
        bic=float(payload["bic"]),
        converged=bool(payload["converged"]),
        iterations=int(payload["iterations"]),
        restart=int(payload["restart"]),
        # files written before the start record existed have no "starts"
        starts=tuple(tuple(start) for start in payload.get("starts", ())),
    )


def save_result(result: FitResult, path) -> None:
    write_json(result_to_dict(result), path)


def load_result(path) -> FitResult:
    return result_from_dict(read_json(path))


def save_labels(sample_ids, labels, path) -> None:
    """Row assignments as two-column CSV: sample_id, cluster (1-based)."""
    write_csv([["sample_id", "cluster"], *zip(sample_ids, map(int, labels))], path)
