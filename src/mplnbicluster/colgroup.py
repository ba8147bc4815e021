"""Column grouping via correlation-based agglomerative clustering.

Within one mixture component, variables are grouped by hierarchical
clustering of the dissimilarity 1 - corr^2 computed from that component's
latent covariance.  Cutting the tree yields a partition of the columns,
and the covariance's diagonal blocks on it are the component's
block-diagonal covariance.

The agglomeration is written out longhand (Lance-Williams updates) rather
than delegated to a library so that tie-breaking is fully deterministic:
among all pairs at the minimal distance the smallest (i, j) pair of
cluster ids is merged, which pins the merge list byte-for-byte across
runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    # by value: the generated methods would compare the arrays elementwise
    def __eq__(self, other):
        if not isinstance(other, ColumnPartition):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.assign, other.assign)

    def __hash__(self):
        return hash((self.k, self.assign.tobytes()))

    @property
    def d(self) -> int:
        return self.assign.shape[0]

    def groups(self) -> tuple[np.ndarray, ...]:
        """Member indices of each group, in label order 1..k."""
        return tuple(np.flatnonzero(self.assign == lbl) for lbl in range(1, self.k + 1))

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(int(np.sum(self.assign == lbl)) for lbl in range(1, self.k + 1))

    @cached_property
    def classes(self) -> tuple[np.ndarray, ...]:
        """The column indices of the blocks of each size b as one (k, b)
        stack: sizes in order of first appearance, blocks in label order.
        The fit stores S and Sigma per class and sums over blocks in this
        order."""
        groups = self.groups()
        return tuple(np.stack([idx for idx in groups if idx.size == b])
                     for b in dict.fromkeys(idx.size for idx in groups))


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
    # an infinite entry would read as a cluster merged away in agglomerate
    if not np.all(np.isfinite(dist)):
        raise ValueError("distance matrix has non-finite entries")
    if not np.all(np.abs(dist - dist.T) <= 1e-12):
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
    # symmetric, with inf on the diagonal and at every cluster merged away
    # or not yet made: the row-major argmin is then the smallest (i, j)
    # pair among ties, with i < j
    work = np.full((total, total), np.inf)
    work[:d, :d] = np.triu(dist, 1) + np.triu(dist, 1).T
    np.fill_diagonal(work, np.inf)
    flat = work.ravel()
    size = [1] * d + [0] * (d - 1)
    merges, heights = [], []
    for step in range(d - 1):
        a, b = divmod(int(flat.argmin()), total)
        new = d + step
        if linkage == "single":
            merged = np.minimum(work[a], work[b])
        elif linkage == "complete":
            merged = np.maximum(work[a], work[b])
        else:
            merged = (size[a] * work[a] + size[b] * work[b]) / (size[a] + size[b])
        merges.append((a, b))
        heights.append(work[a, b])
        work[new] = work[:, new] = merged
        work[a] = work[b] = np.inf
        work[:, a] = work[:, b] = np.inf
        size[new] = size[a] + size[b]
    return Dendrogram(d, merges, heights)


def cut(dendro: Dendrogram, k: int) -> ColumnPartition:
    """Partition into exactly k groups by undoing the last k-1 merges.

    Labels are canonicalized to 1..k in order of first occurrence along
    the variable axis.
    """
    d = dendro.n_leaves
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range 1..{d}")
    # each leaf's cluster: follow the parent links of the first d - k merges
    parent = np.arange(2 * d - 1)
    parent[dendro.merges[: d - k].ravel()] = np.repeat(np.arange(d, 2 * d - k), 2)
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]
    _, first, inverse = np.unique(parent[:d], return_index=True, return_inverse=True)
    rank = np.empty(k, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(1, k + 1)
    labels = rank[inverse.reshape(-1)]
    return ColumnPartition(labels, k)


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
