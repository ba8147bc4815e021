"""Column grouping via correlation-based agglomerative clustering.

Within one mixture component, variables are grouped by hierarchical
clustering of the dissimilarity 1 - corr^2 computed from that component's
latent covariance.  Cutting the tree yields a partition of the columns;
projecting the covariance onto the partition zeroes everything outside
the diagonal blocks.

The agglomeration is written out longhand (Lance-Williams updates) rather
than delegated to a library so that tie-breaking is fully deterministic:
among all pairs at the minimal distance the smallest (i, j) pair of
cluster ids is merged, which pins the merge list byte-for-byte across
runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch
from .linalg import corr_from_cov

LINKAGES = ("single", "complete", "average")


@dataclass(frozen=True)
class ColumnPartition:
    """A partition of d variables into k groups labeled 1..k."""

    assign: np.ndarray  # (d,) int labels in 1..k
    k: int

    def __post_init__(self):
        assign = np.asarray(self.assign, dtype=np.int64)
        object.__setattr__(self, "assign", assign)
        if assign.ndim != 1:
            raise LengthMismatch(f"assign must be 1-D, got shape {assign.shape}")
        if self.k < 1 or self.k > assign.shape[0]:
            raise ValueError(f"k={self.k} out of range for d={assign.shape[0]}")
        present = np.unique(assign)
        if present[0] < 1 or present[-1] > self.k or len(present) != self.k:
            raise ValueError(f"labels must cover 1..{self.k}, got {present.tolist()}")

    @property
    def d(self) -> int:
        return self.assign.shape[0]

    def groups(self) -> tuple[np.ndarray, ...]:
        """Member indices of each group, in label order 1..k."""
        return tuple(np.flatnonzero(self.assign == lbl) for lbl in range(1, self.k + 1))

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(int(np.sum(self.assign == lbl)) for lbl in range(1, self.k + 1))


@dataclass(frozen=True)
class Dendrogram:
    """Merge history of an agglomeration over d leaves.

    Leaves are clusters 0..d-1; the merge at step t (0-based) creates
    cluster d+t from `merges[t] = (a, b)` with a < b, at height
    `heights[t]`.
    """

    n_leaves: int
    merges: np.ndarray  # (d-1, 2) int cluster ids
    heights: np.ndarray  # (d-1,) float

    def __post_init__(self):
        object.__setattr__(self, "merges", np.asarray(self.merges, dtype=np.int64).reshape(-1, 2))
        object.__setattr__(self, "heights", np.asarray(self.heights, dtype=float).reshape(-1))
        if self.merges.shape[0] != self.n_leaves - 1 or self.heights.shape[0] != self.n_leaves - 1:
            raise LengthMismatch(
                f"{self.n_leaves} leaves need {self.n_leaves - 1} merges, "
                f"got {self.merges.shape[0]}"
            )


def _check_distance(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise LengthMismatch(f"distance matrix must be square, got shape {dist.shape}")
    if not np.allclose(dist, dist.T, atol=1e-12):
        raise ValueError("distance matrix is not symmetric")
    if np.any(np.diag(dist) != 0.0):
        raise ValueError("distance matrix diagonal must be exactly zero")
    if np.any(dist < 0.0):
        raise ValueError("distance matrix has negative entries")
    return dist


def distance_matrix(cov: np.ndarray) -> np.ndarray:
    """Dissimilarity 1 - corr^2 from a covariance matrix.

    Entries lie in [0, 1]: 0 for perfectly (anti)correlated pairs, 1 for
    uncorrelated ones.  The diagonal is exactly zero.
    """
    corr = corr_from_cov(np.asarray(cov, dtype=float))
    dist = 1.0 - corr * corr
    np.clip(dist, 0.0, None, out=dist)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def agglomerate(dist: np.ndarray, linkage: str = "average") -> Dendrogram:
    """Agglomerative clustering of a distance matrix.

    Parameters
    ----------
    dist : (d, d) symmetric distance matrix with zero diagonal.
    linkage : {'average', 'single', 'complete'}

    Returns
    -------
    Dendrogram
        d-1 merges; ties are broken toward the lexicographically smallest
        (i, j) pair of cluster ids, making the result deterministic.
    """
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


def cut(dendro: Dendrogram, k: int) -> ColumnPartition:
    """Partition into exactly k groups by undoing the last k-1 merges.

    Labels are canonicalized to 1..k in order of first occurrence along
    the variable axis.
    """
    d = dendro.n_leaves
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range 1..{d}")
    current = np.arange(d, dtype=np.int64)
    for step in range(d - k):
        a, b = dendro.merges[step]
        new = d + step
        current[(current == a) | (current == b)] = new
    labels = np.zeros(d, dtype=np.int64)
    seen: dict[int, int] = {}
    for j in range(d):
        cid = int(current[j])
        if cid not in seen:
            seen[cid] = len(seen) + 1
        labels[j] = seen[cid]
    return ColumnPartition(labels, k)


def block_project(cov: np.ndarray, part: ColumnPartition) -> np.ndarray:
    """Zero out every covariance entry whose variables are in different groups.

    Entries inside a group are copied unchanged, so the off-block zeros are
    exact and the operation is idempotent.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (part.d, part.d):
        raise LengthMismatch(f"covariance shape {cov.shape} does not match d={part.d}")
    out = np.zeros_like(cov)
    for members in part.groups():
        block = np.ix_(members, members)
        out[block] = cov[block]
    return out


def silhouette(dist: np.ndarray, part: ColumnPartition) -> float:
    """Mean silhouette width of a partition under a distance matrix.

    For point x in group A: a(x) is the mean distance to the rest of A,
    b(x) the smallest mean distance to another group, and
    s(x) = (b - a) / max(a, b), with s(x) = 0 when max(a, b) = 0.
    Points in singleton groups score 0 — cohesion is undefined for them,
    and crediting them (e.g. via a(x) = 0) makes the score reward shattering
    tight groups into single points, which wrecks K selection.
    Requires at least two groups.
    """
    dist = _check_distance(dist)
    if part.k < 2:
        raise ValueError("silhouette requires at least two groups")
    if dist.shape[0] != part.d:
        raise LengthMismatch(f"distance shape {dist.shape} does not match d={part.d}")
    labels = part.assign
    counts = np.array([np.sum(labels == lbl) for lbl in range(1, part.k + 1)])
    # sums[x, g] = total distance from x to members of group g+1
    sums = np.stack([dist[:, labels == lbl].sum(axis=1) for lbl in range(1, part.k + 1)], axis=1)
    own = labels - 1
    own_count = counts[own]
    a = sums[np.arange(part.d), own] / np.maximum(own_count - 1, 1)
    other = sums / counts[None, :]
    other[np.arange(part.d), own] = np.inf
    b = other.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where(denom > 0.0, (b - a) / np.where(denom > 0.0, denom, 1.0), 0.0)
    s[own_count == 1] = 0.0
    return float(np.mean(s))


def select_k_silhouette(
    dendro: Dendrogram, dist: np.ndarray, k_max: int
) -> tuple[int, dict[int, float]]:
    """Choose the cut with the best silhouette among k = 1..k_max.

    k = 1 is scored 0 by convention (silhouette is undefined there),
    every k in 2..min(k_max, d) is scored by cutting the dendrogram, and
    the smallest k wins ties.  Returns (best_k, {k: score}).
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    scores: dict[int, float] = {1: 0.0}
    for k in range(2, min(k_max, dendro.n_leaves) + 1):
        scores[k] = silhouette(dist, cut(dendro, k))
    best_k = 1
    best = scores[1]
    for k in sorted(scores):
        if scores[k] > best:
            best, best_k = scores[k], k
    return best_k, scores
