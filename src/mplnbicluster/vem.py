"""Variational EM for the mixture model with block-structured covariances.

Each pass of the driver runs three blocks of work, until the observed-data
bound stabilises:

1. closed-form mixture weights and means, then a covariance refresh in
   which each component's scatter is grouped into variable blocks and
   projected onto the implied block-diagonal pattern,
2. the per-component evidence bounds and the responsibilities,
3. coordinate sweeps on the per-observation Gaussian approximations,
   whose covariances S are stored, like Sigma^-1, per column block of the
   component's partition (Sigma is block-diagonal, so the fixed point for
   S is too).  When a component's partition changes, its S is stored on
   the merged old and new blocks until a sweep has refreshed it under the
   new Sigma.

Every substep is guarded so the quantity traced in ``elbo_trace`` — the
log-sum-exp bound ``sum_i log sum_g pi_g exp(F_ig)`` — never decreases:
sweeps fall back to a halved step and then to the previous iterate per
observation, and a covariance/grouping candidate is only accepted when it
does not lower that component's weighted Gaussian objective.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import gammaln

from .colgroup import (
    LINKAGES,
    agglomerate,
    block_project,
    cut,
    distance_matrix,
    select_k_silhouette,
)
from .data import CountMatrix, OffsetVector
from .errors import AllRestartsFailed, EmptyComponent, MplnError
from .linalg import cholesky, cholesky_with_jitter, inv_logdet_from_cholesky
from .model import (
    EXP_CAP,
    MixtureModel,
    VariationalState,
    bic,
    elbo_batch,
    lower_bound,
    model_from_dict,
    model_to_dict,
    observed_bound,
    responsibilities,
)
from .seeding import TAG_INIT, derive_rng

__all__ = [
    "FitConfig",
    "EqualK",
    "PerGroupK",
    "SilhouetteK",
    "FitResult",
    "initialize",
    "update_variational",
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

def _integer(name, value, low):
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer of at least ``low``."""
    # bool is an Integral too, but True is no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return int(value)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for a single fit.  Defaults are the package-wide defaults."""

    max_em_iter: int = 500
    elbo_rel_tol: float = 1e-6
    inner_iter: int = 10
    inner_tol: float = 1e-6
    n_starts: int = 5
    linkage: str = "average"
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("max_em_iter", 1), ("inner_iter", 1), ("n_starts", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        for name in ("elbo_rel_tol", "inner_tol"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            # the comparison is False for NaN as well
            if not (real and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if self.linkage not in LINKAGES:
            raise ValueError(
                f"linkage must be one of {LINKAGES}, got {self.linkage!r}"
            )


@dataclass(frozen=True)
class EqualK:
    """Group every component's variables into the same number of blocks."""

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _integer("k", self.k, 1))


@dataclass(frozen=True)
class PerGroupK:
    """One block count per component, in component order."""

    ks: tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "ks", tuple(_integer(f"ks[{i}]", k, 1) for i, k in enumerate(self.ks))
        )


@dataclass(frozen=True)
class SilhouetteK:
    """Pick each component's block count by silhouette, up to k_max."""

    k_max: int

    def __post_init__(self) -> None:
        # the silhouette needs two blocks to compare
        object.__setattr__(self, "k_max", _integer("k_max", self.k_max, 2))


KSpec = Union[EqualK, PerGroupK, SilhouetteK]


@dataclass
class FitResult:
    model: MixtureModel
    state: Optional[VariationalState]  # S in column blocks; searches drop it
    labels: np.ndarray  # (n,) int, 1-based component assignments
    elbo_trace: np.ndarray  # observed-data bound per iteration
    lower_bound: float  # responsibility-weighted bound at the final state
    bic: float
    converged: bool
    iterations: int
    restart: int  # index of the winning start

    @property
    def n(self) -> int:
        return self.labels.shape[0]


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


def _kmeans_labels(x: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 100) -> np.ndarray:
    """Plain k-means++ / Lloyd labels, deterministic given the generator."""
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
    labels = np.argmin(((x[:, None, :] - centers[None]) ** 2).sum(axis=-1), axis=1)
    for _ in range(max_iter):
        for j in range(k):
            members = labels == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
            else:
                # resurrect an empty cluster at the worst-fit point
                worst = int(np.argmax(((x - centers[labels]) ** 2).sum(axis=1)))
                centers[j] = x[worst]
                labels[worst] = j
        new = np.argmin(((x[:, None, :] - centers[None]) ** 2).sum(axis=-1), axis=1)
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
    y = counts.counts
    n, d = y.shape
    if not 1 <= G <= n:
        raise ValueError(f"G must be between 1 and n={n}, got {G}")
    m0 = np.log((y + 0.5) / offsets.c[:, None])
    m = np.repeat(m0[:, None, :], G, axis=1)
    # views into one (n, d, 1, 1) array: the first scatter sums them over the
    # rows in the same order as a dense S, so G = 1 fits match it bit for bit
    s = tuple(tuple(np.full((n, d, 1, 1), 0.1).transpose(1, 0, 2, 3)) for _ in range(G))
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
    return VariationalState(m=m, s=s, z=z, groups=(tuple(np.arange(d)[:, None]),) * G)


# ---------------------------------------------------------------------------
# variational sweeps


def s_fixed_point_step(log_c, m, s, sigma_inv):
    """One fixed-point refresh of the approximation covariances.

    S' = (Sigma^-1 + diag(exp(log C + m + diag(S)/2)))^-1, batched over
    leading axes.  Returns (s_new, logdet_s_new).  The fit calls it once per
    column block, with that block's columns of m and its blocks of S and
    Sigma^-1.  S'^-1 is factored once; S' and log det S' both come from
    that Cholesky factor (``inv_logdet_from_cholesky``), and S' is exactly
    symmetric.  Raises NotPositiveDefinite if S'^-1 does not factor.
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[-1]
    diag_s = np.einsum("...jj->...j", np.asarray(s, dtype=float))
    lam = np.exp(np.minimum(log_c[..., None] + m + 0.5 * diag_s, EXP_CAP))
    a = np.broadcast_to(sigma_inv, m.shape + (d,)).copy()
    idx = np.arange(d)
    a[..., idx, idx] += lam
    s_new, logdet_a = inv_logdet_from_cholesky(cholesky(a))
    return s_new, -logdet_a


def newton_m_step(y, log_c, m, s_new, mu, sigma_inv):
    """Full Newton update of the approximation means at fixed S'.

    m' = m - S' (exp(log C + m + diag(S')/2) + Sigma^-1 (m - mu) - y);
    the returned step can be damped by the caller.  Called once per column
    block, like ``s_fixed_point_step``.
    """
    m = np.asarray(m, dtype=float)
    diag_s = np.einsum("...jj->...j", np.asarray(s_new, dtype=float))
    lam = np.exp(np.minimum(log_c[..., None] + m + 0.5 * diag_s, EXP_CAP))
    resid = lam + (m - mu) @ sigma_inv - np.asarray(y, dtype=float)
    step = np.einsum("...ij,...j->...i", s_new, resid)
    return m - step, step


def _sweep_batch(y, log_c, m, s, mu, sigma_inv, logdet_sigma, groups, log_fact,
                 f_start, inner_iter, inner_tol):
    """Guarded coordinate sweeps for every observation of one component.

    S and Sigma^-1 are stored per column block: ``s`` holds one (n, b, b)
    array and ``sigma_inv`` one (b, b) array per index array in ``groups``.
    ``f_start`` is each observation's bound at the starting (m, S); every
    trial step is scored with the same ``elbo_batch``.  Each sweep refreshes
    every block of S by its fixed-point map and takes the Newton step on
    that block's columns of m; the blocks are independent b x b problems.
    If an observation's bound would drop, the m-step is halved once; if it
    still drops, that observation keeps its pre-sweep pair and stops.
    Observations whose update falls below ``inner_tol`` in the sup norm also
    stop.  Returns (m, s) as copies; inputs are untouched.
    """
    y = np.asarray(y, dtype=float)
    m = m.copy()
    s = [block.copy() for block in s]
    f_cur = np.array(f_start, dtype=float)
    active = np.arange(m.shape[0])
    for _ in range(inner_iter):
        if active.size == 0:
            break
        ya, la, ma = y[active], log_c[active], m[active]
        sa = [block[active] for block in s]
        fa = log_fact[active]
        m_full = np.empty_like(ma)
        step = np.empty_like(ma)
        s_new = []
        logdet_s_new = 0.0
        for idx, s_b, inv_b in zip(groups, sa, sigma_inv):
            s_b_new, logdet_b = s_fixed_point_step(la, ma[:, idx], s_b, inv_b)
            m_full[:, idx], step[:, idx] = newton_m_step(
                ya[:, idx], la, ma[:, idx], s_b_new, mu[idx], inv_b
            )
            s_new.append(s_b_new)
            logdet_s_new = logdet_s_new + logdet_b
        f_new = elbo_batch(ya, la, m_full, s_new, mu, sigma_inv, logdet_sigma,
                           log_fact=fa, logdet_s=logdet_s_new, groups=groups)
        m_new = m_full
        rejected = np.zeros(active.size, dtype=bool)
        bad = np.flatnonzero(f_new < f_cur[active])
        if bad.size:
            m_half = ma[bad] - 0.5 * step[bad]
            f_half = elbo_batch(
                ya[bad], la[bad], m_half, [s_b[bad] for s_b in s_new], mu,
                sigma_inv, logdet_sigma, log_fact=fa[bad],
                logdet_s=logdet_s_new[bad], groups=groups,
            )
            ok = f_half >= f_cur[active[bad]]
            m_new[bad[ok]] = m_half[ok]
            f_new[bad[ok]] = f_half[ok]
            rejected[bad[~ok]] = True
        delta = np.abs(m_new - ma).max(axis=1)
        for s_b_new, s_b in zip(s_new, sa):
            delta = np.maximum(delta, np.abs(s_b_new - s_b).max(axis=(1, 2)))
        accepted = ~rejected
        rows = active[accepted]
        m[rows] = m_new[accepted]
        for block, s_b_new in zip(s, s_new):
            block[rows] = s_b_new[accepted]
        f_cur[rows] = f_new[accepted]
        active = active[accepted & (delta >= inner_tol)]
    return m, s


def update_variational(y, log_c, m, s, mu, sigma, inner_iter=FitConfig.inner_iter,
                       inner_tol=FitConfig.inner_tol):
    """Refresh one observation's Gaussian approximation under one component.

    ``y``, ``m`` are length-d vectors, ``s`` is (d, d); returns the updated
    (m, s) pair after at most ``inner_iter`` guarded sweeps, with S and
    Sigma treated as one dense block.  Raises NotPositiveDefinite if ``s``
    is not positive definite.
    """
    _, lower = cholesky_with_jitter(sigma)
    sigma_inv, logdet_sigma = inv_logdet_from_cholesky(lower)
    y = np.asarray(y, dtype=float)[None, :]
    log_c = np.atleast_1d(np.asarray(log_c, dtype=float))
    m = np.asarray(m, dtype=float)[None, :]
    s = np.asarray(s, dtype=float)[None, :, :]
    mu = np.asarray(mu, dtype=float)
    groups = (np.arange(m.shape[1]),)
    log_fact = gammaln(y + 1.0).sum(axis=1)
    f_start = elbo_batch(y, log_c, m, [s], mu, [sigma_inv], logdet_sigma,
                         log_fact=log_fact, groups=groups)
    m_out, s_out = _sweep_batch(
        y, log_c, m, [s], mu, [sigma_inv], logdet_sigma, groups,
        log_fact, f_start, inner_iter, inner_tol,
    )
    return m_out[0], s_out[0][0]


def reblock(s, old_groups, new_groups):
    """Move (..., b, b) blocks on the column index arrays ``old_groups``
    onto ``new_groups`` (a dense (..., d, d) array is the layout
    ``(np.arange(d),)``), filling each new block from the old ones it
    overlaps; the new blocks are C-contiguous, like the sweep's.

    Entries that cross the new blocks are dropped.  The ELBO's trace and
    rate terms see only in-block entries under a Sigma that is
    block-diagonal on the new partition, and log det S <= sum_b log det
    S_bb (Fischer's inequality), so no observation's bound goes down, and
    every new block is a principal submatrix of a positive-definite S.
    """
    owner, position = np.empty((2, sum(idx.size for idx in old_groups)), dtype=np.intp)
    for b, idx in enumerate(old_groups):
        owner[idx] = b
        position[idx] = np.arange(idx.size)
    out = []
    for idx in new_groups:
        block = np.zeros(s[0].shape[:-2] + (idx.size, idx.size))
        for b in np.unique(owner[idx]):
            here = np.flatnonzero(owner[idx] == b)
            there = position[idx[here]]
            block[..., here[:, None], here] = s[b][..., there[:, None], there]
        out.append(block)
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


def compute_scatter(z_g, m_g, s_g, mu_g, groups):
    """Weighted second-moment matrix W_g around the component mean.

    ``s_g`` holds one (n, b, b) array per column block in ``groups``, and
    each block's weighted mean lands on that block of W.
    """
    mass = z_g.sum()
    dm = m_g - mu_g
    w = np.einsum("n,ni,nj->ij", z_g, dm, dm)
    for idx, s_b in zip(groups, s_g):
        w[np.ix_(idx, idx)] += np.einsum("n,nij->ij", z_g, s_b)
    w = w / mass
    return 0.5 * (w + w.T)


def _merge_blocks(d, index_sets):
    """Blocks of the finest partition of range(d) that keeps each of the
    (non-empty) ``index_sets`` inside one block, ordered by first column."""
    root = np.arange(d)
    changed = True
    while changed:
        changed = False
        for idx in index_sets:
            low = root[idx].min()
            if np.any(root[idx] != low):
                root[idx] = low
                changed = True
    return tuple(np.flatnonzero(root == r) for r in np.unique(root))


def _store_blocks(partition, groups, s):
    """Move S (blocks on ``groups``) onto the finest column blocks that are
    unions of ``partition``'s blocks and hold every nonzero entry of S.

    Only exact zeros are dropped, so no bound moves.  Right after a
    partition change S keeps the entries it had across the new blocks; the
    next sweep refreshes it under the new, block-diagonal Sigma (the entries
    across Sigma's blocks come out exactly zero) and S shrinks back onto
    the partition.  Returns (groups, s), at once when S already sits on
    the partition's blocks.
    """
    if len(groups) == partition.k and all(
        np.all(partition.assign[idx] == partition.assign[idx[0]]) for idx in groups
    ):
        return groups, s
    sets = list(partition.groups())
    for idx, block in zip(groups, s):
        sets.extend(idx[row] for row in np.any(block != 0.0, axis=0) if row.any())
    new = _merge_blocks(partition.d, sets)
    if len(new) == len(groups) and all(np.array_equal(a, b) for a, b in zip(new, groups)):
        return groups, s
    return new, reblock(s, groups, new)


def _block_inverses(lower, groups):
    """Inverses of the blocks of Sigma = L L' on ``groups``, and log det Sigma.

    Each group is a union of Sigma's diagonal blocks, where L is zero
    across blocks, so L's block on sorted indices is the Cholesky factor of
    Sigma's block.
    """
    pairs = [inv_logdet_from_cholesky(lower[np.ix_(idx, idx)]) for idx in groups]
    return [inv for inv, _ in pairs], sum(logdet for _, logdet in pairs)


def _no_worse_fit(w, mass, lower, cand_lower):
    """Ascent guard of the covariance refresh: whether the candidate
    chol(Sigma) does not lower -mass/2 * (tr(Sigma^-1 W) + log det Sigma),
    the component's weighted Gaussian objective against the new scatter W,
    below its value at the current chol(Sigma)."""

    def objective(low):
        solved = cho_solve((low, True), w)
        return -0.5 * mass * (np.trace(solved) + 2.0 * np.log(np.diag(low)).sum())

    current = objective(lower)
    return objective(cand_lower) >= current - 1e-10 * (1.0 + abs(current))


def _covariance_candidate(w, k_spec, g, linkage):
    """Group variables from W, project, and factor the candidate covariance.

    Returns (sigma_used, lower, partition); the partition comes from
    cutting the agglomeration of the 1 - corr^2 distances at the requested
    (or silhouette-selected) number of blocks.
    """
    d = w.shape[0]
    dist = distance_matrix(w)
    dendro = agglomerate(dist, linkage=linkage)
    if isinstance(k_spec, EqualK):
        k = k_spec.k
    elif isinstance(k_spec, PerGroupK):
        k = k_spec.ks[g]
    else:
        k, _ = select_k_silhouette(dendro, dist, min(k_spec.k_max, d))
    partition = cut(dendro, k)
    projected = block_project(w, partition)
    sigma_used, lower = cholesky_with_jitter(projected)
    return sigma_used, lower, partition


# ---------------------------------------------------------------------------
# the driver


def fit_from_state(
    counts: CountMatrix,
    offsets: OffsetVector,
    state: VariationalState,
    k_spec,
    config: FitConfig,
    restart: int = 0,
) -> FitResult:
    """Run the EM loop from an explicit starting state.

    Each pass refreshes pi and mu, then each component's covariance, then
    evaluates the bounds and responsibilities and, unless the loop stops
    there, runs the guarded sweeps.  The first pass adopts every covariance
    unguarded, since there is none yet.  The trace records the observed-data
    bound once per pass; the loop stops when its change falls below
    ``elbo_rel_tol`` relative to max(1, |bound|), or after ``max_em_iter``
    iterations.
    """
    y = counts.counts.astype(float)
    log_c = offsets.log
    n, G, d = state.m.shape
    if counts.n != n or counts.d != d:
        raise ValueError("state does not match the count matrix")
    k_spec = _normalize_k_spec(k_spec, G, d)

    m = state.m.copy()
    z = state.z.copy()
    log_fact = gammaln(y + 1.0).sum(axis=1)
    groups, s = list(state.groups), list(state.s)
    sigma = np.empty((G, d, d))
    lowers = [None] * G
    partitions = [None] * G
    sigma_inv = [None] * G
    logdet_sigma = [None] * G
    trace = []
    prev_bound = -np.inf
    converged = False

    for iteration in range(config.max_em_iter + 1):
        pi = m_step_pi(z)
        mu = m_step_mu(z, m)
        f = np.empty((n, G))
        for g in range(G):
            w = compute_scatter(z[:, g], m[:, g], s[g], mu[g], groups[g])
            cand_sigma, cand_lower, cand_part = _covariance_candidate(
                w, k_spec, g, config.linkage
            )
            # the first pass has no covariance yet to guard
            if lowers[g] is None or _no_worse_fit(w, z[:, g].sum(), lowers[g], cand_lower):
                sigma[g], lowers[g], partitions[g] = cand_sigma, cand_lower, cand_part
            groups[g], s[g] = _store_blocks(partitions[g], groups[g], s[g])
            sigma_inv[g], logdet_sigma[g] = _block_inverses(lowers[g], groups[g])
            f[:, g] = elbo_batch(
                y, log_c, m[:, g], s[g], mu[g], sigma_inv[g], logdet_sigma[g],
                log_fact=log_fact, groups=groups[g],
            )
        bound = observed_bound(f, pi)
        trace.append(bound)
        z = responsibilities(f, pi)
        if iteration == config.max_em_iter:
            break
        if abs(bound - prev_bound) <= config.elbo_rel_tol * max(1.0, abs(bound)):
            converged = True
            break
        prev_bound = bound
        for g in range(G):
            # f[:, g] is the bound at this same (m, S, mu, Sigma)
            m[:, g], s[g] = _sweep_batch(
                y, log_c, m[:, g], s[g], mu[g], sigma_inv[g], logdet_sigma[g],
                groups[g], log_fact, f[:, g], config.inner_iter, config.inner_tol,
            )

    final_state = VariationalState(m=m, s=s, z=z, groups=groups)
    model = MixtureModel(
        pi=pi, mu=mu, sigma=sigma, groupings=tuple(partitions)
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
    )


def fit(
    counts: CountMatrix,
    offsets: OffsetVector,
    G: int,
    k_spec,
    config: Optional[FitConfig] = None,
) -> FitResult:
    """Fit the mixture with ``G`` components from multiple starts.

    Each start initializes independently and runs the full EM loop; the
    result with the highest final lower bound wins.  A start that fails
    (e.g. a component empties out) is recorded and skipped; if every start
    fails, AllRestartsFailed carries the per-start reasons.  With G = 1
    every start is the same, so only restart 0 runs.
    """
    if config is None:
        config = FitConfig()
    k_spec = _normalize_k_spec(k_spec, G, counts.d)
    best = None
    failures = []
    # ``initialize`` ignores the restart index when G = 1
    for restart in range(config.n_starts if G > 1 else 1):
        try:
            state = initialize(counts, offsets, G, config.seed, restart)
            result = fit_from_state(
                counts, offsets, state, k_spec, config, restart=restart
            )
        except MplnError as exc:
            failures.append((restart, f"{type(exc).__name__}: {exc}"))
            continue
        if best is None or result.lower_bound > best.lower_bound:
            best = result
    if best is None:
        raise AllRestartsFailed(failures)
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
    }


def result_from_dict(payload: dict) -> FitResult:
    return FitResult(
        model=model_from_dict(payload["model"]),
        state=None,
        labels=np.asarray(payload["labels"], dtype=np.int64),
        elbo_trace=np.asarray(payload["elbo_trace"], dtype=float),
        lower_bound=float(payload["lower_bound"]),
        bic=float(payload["bic"]),
        converged=bool(payload["converged"]),
        iterations=int(payload["iterations"]),
        restart=int(payload["restart"]),
    )


def save_result(result: FitResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_dict(result), fh, indent=2)
        fh.write("\n")


def load_result(path) -> FitResult:
    with open(path) as fh:
        return result_from_dict(json.load(fh))


def save_labels(sample_ids, labels, path) -> None:
    """Row assignments as two-column CSV: sample_id, cluster (1-based)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "cluster"])
        for sid, lab in zip(sample_ids, labels):
            writer.writerow([sid, int(lab)])
