from __future__ import annotations

import itertools

import numpy as np
import pytest

from mplnbicluster.colgroup import (
    ColumnPartition,
    agglomerate,
    block_project,
    cut,
    distance_matrix,
    select_k_silhouette,
    silhouette,
)
from mplnbicluster.errors import LengthMismatch, ZeroVariance


def random_dist(rng, d):
    a = rng.uniform(0.0, 1.0, size=(d, d))
    dist = 0.5 * (a + a.T)
    np.fill_diagonal(dist, 0.0)
    return dist


# ---------------------------------------------------------------------------
# distance_matrix


def test_distance_known_value():
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    dist = distance_matrix(cov)
    assert dist[0, 1] == pytest.approx(1.0 - 0.36, rel=1e-15)
    assert dist[0, 0] == 0.0 and dist[1, 1] == 0.0


def test_distance_sign_of_correlation_irrelevant():
    pos = np.array([[1.0, 0.7], [0.7, 1.0]])
    neg = np.array([[1.0, -0.7], [-0.7, 1.0]])
    np.testing.assert_allclose(distance_matrix(pos), distance_matrix(neg), atol=1e-15)


def test_distance_scale_invariant_and_bounded():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((6, 6))
    cov = a @ a.T + 0.5 * np.eye(6)
    scale = np.diag(rng.uniform(0.2, 5.0, size=6))
    d1 = distance_matrix(cov)
    d2 = distance_matrix(scale @ cov @ scale)
    np.testing.assert_allclose(d1, d2, atol=1e-12)
    assert np.all(d1 >= 0.0) and np.all(d1 <= 1.0)
    np.testing.assert_array_equal(np.diag(d1), 0.0)


def test_distance_zero_variance():
    with pytest.raises(ZeroVariance):
        distance_matrix(np.array([[0.0, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# agglomerate / cut


def test_agglomerate_three_points_average():
    dist = np.array(
        [
            [0.0, 0.1, 0.9],
            [0.1, 0.0, 0.5],
            [0.9, 0.5, 0.0],
        ]
    )
    dendro = agglomerate(dist, "average")
    np.testing.assert_array_equal(dendro.merges, [[0, 1], [2, 3]])
    np.testing.assert_allclose(dendro.heights, [0.1, 0.7])


def test_agglomerate_tie_break_smallest_pair():
    d = 4
    dist = np.full((d, d), 0.5)
    np.fill_diagonal(dist, 0.0)
    dendro = agglomerate(dist, "average")
    np.testing.assert_array_equal(dendro.merges, [[0, 1], [2, 3], [4, 5]])
    np.testing.assert_allclose(dendro.heights, [0.5, 0.5, 0.5])


def test_agglomerate_linkage_variants_on_chain():
    # Chain 0 - 1 - 2 with d01=0.2, d12=0.3, d02=0.8.
    dist = np.array(
        [
            [0.0, 0.2, 0.8],
            [0.2, 0.0, 0.3],
            [0.8, 0.3, 0.0],
        ]
    )
    single = agglomerate(dist, "single")
    complete = agglomerate(dist, "complete")
    average = agglomerate(dist, "average")
    np.testing.assert_allclose(single.heights, [0.2, 0.3])
    np.testing.assert_allclose(complete.heights, [0.2, 0.8])
    np.testing.assert_allclose(average.heights, [0.2, 0.55])


def test_agglomerate_heights_nondecreasing():
    rng = np.random.default_rng(43)
    for linkage in ("single", "average", "complete"):
        for _ in range(20):
            dist = random_dist(rng, int(rng.integers(2, 12)))
            dendro = agglomerate(dist, linkage)
            assert np.all(np.diff(dendro.heights) >= -1e-12)


def test_agglomerate_rejects_bad_input():
    with pytest.raises(ValueError):
        agglomerate(np.zeros((3, 3)), "ward")
    asym = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        agglomerate(asym)
    neg = np.array([[0.0, -0.1], [-0.1, 0.0]])
    with pytest.raises(ValueError):
        agglomerate(neg)


def min_cross_distance(dist, in_a):
    a = np.flatnonzero(in_a)
    b = np.flatnonzero(~in_a)
    return dist[np.ix_(a, b)].min()


def test_single_linkage_two_cut_is_optimal():
    # The K=2 cut of a single-linkage tree maximizes the minimum
    # between-group distance; verify against exhaustive search.
    rng = np.random.default_rng(47)
    for _ in range(20):
        d = int(rng.integers(4, 8))
        dist = random_dist(rng, d)
        part = cut(agglomerate(dist, "single"), 2)
        achieved = min_cross_distance(dist, part.assign == 1)
        best = max(
            min_cross_distance(dist, np.array(mask))
            for mask in itertools.product([True, False], repeat=d)
            if any(mask) and not all(mask)
        )
        assert achieved == pytest.approx(best, abs=1e-12)


def test_cut_extremes_and_canonical_labels():
    rng = np.random.default_rng(53)
    dist = random_dist(rng, 9)
    dendro = agglomerate(dist)
    np.testing.assert_array_equal(cut(dendro, 1).assign, np.ones(9, dtype=int))
    np.testing.assert_array_equal(cut(dendro, 9).assign, np.arange(1, 10))
    for k in range(1, 10):
        labels = cut(dendro, k).assign
        # first-occurrence canonical form: scanning left to right, each new
        # label is exactly one more than the largest seen so far
        seen_max = 0
        for lbl in labels:
            assert lbl <= seen_max + 1
            seen_max = max(seen_max, lbl)
    with pytest.raises(ValueError):
        cut(dendro, 0)
    with pytest.raises(ValueError):
        cut(dendro, 10)


def test_cut_refines_coarser_cut():
    rng = np.random.default_rng(59)
    dist = random_dist(rng, 10)
    dendro = agglomerate(dist)
    for k in range(2, 11):
        fine = cut(dendro, k).assign
        coarse = cut(dendro, k - 1).assign
        # same fine group -> same coarse group
        for lbl in range(1, k + 1):
            members = np.flatnonzero(fine == lbl)
            assert len(set(coarse[members])) == 1


def test_block_structure_recovered_from_covariance():
    # Two strongly correlated blocks, independent across: the K=2 cut must
    # recover the blocks exactly.
    cov = np.eye(6)
    for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
        cov[i, j] = cov[j, i] = 0.6
    part = cut(agglomerate(distance_matrix(cov)), 2)
    np.testing.assert_array_equal(part.assign, [1, 1, 1, 2, 2, 2])


# ---------------------------------------------------------------------------
# block_project


def test_block_project_zeros_and_idempotent():
    rng = np.random.default_rng(61)
    a = rng.standard_normal((5, 5))
    cov = a @ a.T + np.eye(5)
    part = ColumnPartition(np.array([1, 1, 2, 2, 2]), 2)
    proj = block_project(cov, part)
    assert proj[0, 2] == 0.0 and proj[4, 1] == 0.0  # exact zeros
    np.testing.assert_array_equal(proj[:2, :2], cov[:2, :2])
    np.testing.assert_array_equal(proj[2:, 2:], cov[2:, 2:])
    np.testing.assert_array_equal(block_project(proj, part), proj)


def test_block_project_shape_mismatch():
    part = ColumnPartition(np.array([1, 2]), 2)
    with pytest.raises(LengthMismatch):
        block_project(np.eye(3), part)


# ---------------------------------------------------------------------------
# silhouette


def silhouette_oracle(dist, labels):
    d = len(labels)
    vals = []
    for x in range(d):
        same = [j for j in range(d) if labels[j] == labels[x] and j != x]
        if not same:  # singleton groups score 0
            vals.append(0.0)
            continue
        a = sum(dist[x, j] for j in same) / len(same)
        others = sorted(set(labels) - {labels[x]})
        b = min(
            sum(dist[x, j] for j in range(d) if labels[j] == lbl)
            / sum(1 for j in range(d) if labels[j] == lbl)
            for lbl in others
        )
        m = max(a, b)
        vals.append(0.0 if m == 0.0 else (b - a) / m)
    return float(np.mean(vals))


def test_silhouette_two_tight_pairs():
    dist = np.array(
        [
            [0.0, 0.1, 1.0, 1.0],
            [0.1, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.1],
            [1.0, 1.0, 0.1, 0.0],
        ]
    )
    part = ColumnPartition(np.array([1, 1, 2, 2]), 2)
    assert silhouette(dist, part) == pytest.approx(0.9, rel=1e-15)


def test_silhouette_singleton_by_hand():
    dist = np.array(
        [
            [0.0, 0.2, 0.8],
            [0.2, 0.0, 0.6],
            [0.8, 0.6, 0.0],
        ]
    )
    part = ColumnPartition(np.array([1, 1, 2]), 2)
    expected = (0.75 + (0.4 / 0.6) + 0.0) / 3.0
    assert silhouette(dist, part) == pytest.approx(expected, rel=1e-12)


def test_silhouette_does_not_reward_shattering():
    # Three tight blocks; atomizing one of them into singletons must not
    # beat the true partition (singletons score 0, not 1).
    cov = np.eye(8)
    for block in (range(0, 3), range(3, 6), range(6, 8)):
        for i in block:
            for j in block:
                if i < j:
                    cov[i, j] = cov[j, i] = 0.7
    dist = distance_matrix(cov)
    true_part = ColumnPartition(np.array([1, 1, 1, 2, 2, 2, 3, 3]), 3)
    shattered = ColumnPartition(np.array([1, 1, 1, 2, 3, 4, 5, 5]), 5)
    assert silhouette(dist, true_part) > silhouette(dist, shattered)


def test_silhouette_all_equal_distances_is_zero():
    dist = np.full((5, 5), 0.3)
    np.fill_diagonal(dist, 0.0)
    part = ColumnPartition(np.array([1, 1, 2, 2, 2]), 2)
    assert silhouette(dist, part) == 0.0


def test_silhouette_requires_two_groups():
    dist = np.zeros((3, 3))
    with pytest.raises(ValueError):
        silhouette(dist, ColumnPartition(np.array([1, 1, 1]), 1))


def test_silhouette_matches_oracle_randomized():
    rng = np.random.default_rng(67)
    for _ in range(100):
        d = int(rng.integers(3, 9))
        dist = random_dist(rng, d)
        k = int(rng.integers(2, d + 1))
        # random surjective labeling onto 1..k
        labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=d - k)])
        rng.shuffle(labels)
        part = ColumnPartition(labels, k)
        assert silhouette(dist, part) == pytest.approx(
            silhouette_oracle(dist, labels), abs=1e-12
        )


# ---------------------------------------------------------------------------
# select_k_silhouette


def test_select_k_all_equal_distances_falls_back_to_one():
    # 0.5 is exactly representable, so group means are exact and every
    # cut scores exactly zero; the k=1 convention then wins the tie.
    dist = np.full((6, 6), 0.5)
    np.fill_diagonal(dist, 0.0)
    dendro = agglomerate(dist)
    k, scores = select_k_silhouette(dendro, dist, 4)
    assert k == 1
    assert scores[1] == 0.0
    assert all(scores[j] == 0.0 for j in range(2, 5))


def test_select_k_finds_planted_blocks():
    cov = np.eye(8)
    for block in (range(0, 3), range(3, 6), range(6, 8)):
        for i, j in itertools.combinations(block, 2):
            cov[i, j] = cov[j, i] = 0.7
    dist = distance_matrix(cov)
    dendro = agglomerate(dist)
    k, scores = select_k_silhouette(dendro, dist, 6)
    assert k == 3
    assert scores[3] == max(scores.values())


def test_select_k_respects_k_max_and_d():
    rng = np.random.default_rng(71)
    dist = random_dist(rng, 4)
    dendro = agglomerate(dist)
    _, scores = select_k_silhouette(dendro, dist, 10)
    assert set(scores) == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        select_k_silhouette(dendro, dist, 1)


# ---------------------------------------------------------------------------
# misc


def test_partition_validation():
    with pytest.raises(ValueError):
        ColumnPartition(np.array([1, 3]), 2)  # label 2 missing
    with pytest.raises(ValueError):
        ColumnPartition(np.array([0, 1]), 2)  # labels must start at 1
    part = ColumnPartition(np.array([2, 1, 1]), 2)
    assert part.block_sizes() == (2, 1)
    np.testing.assert_array_equal(part.groups()[0], [1, 2])
