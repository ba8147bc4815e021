"""Block-stored variational covariances against the dense reference sweep.

The fit stores each component's S and Sigma^-1 per column block: the blocks
of its partition, merged with S's old blocks right after a partition
change.  These tests draw random partitions (one block, all singletons, and
mixed, d = 1 included) and check the block sweep, ELBO and scatter against
the dense copies in ``dense_reference``; that ``vem.reblock``, which moves
blocks from one column layout to another without a dense stack, matches
the dense round trip exactly; that moving S between storages drops only
exact zeros and never builds a dense (n, d, d) stack; and that moving S
onto any new partition never lowers a bound.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from dense_reference import (
    blocks_from_dense,
    dense_from_blocks,
    elbo_dense,
    s_fixed_point_dense,
    sweep_dense,
)
from mplnbicluster import vem
from mplnbicluster.colgroup import ColumnPartition, block_project
from mplnbicluster.data import CountMatrix, OffsetVector
from mplnbicluster.model import VariationalState, elbo_batch
from mplnbicluster.simulate import preset, sample_dataset, spec_offsets
from mplnbicluster.vem import EqualK, FitConfig, SilhouetteK, compute_scatter, fit, reblock

# Block and dense paths do the same arithmetic on the same in-block numbers
# but factor b x b instead of d x d matrices, so they agree to rounding:
# 1e-9 absolute plus 1e-9 relative on m, S and the bounds.
TOL = dict(rtol=1e-9, atol=1e-9)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def partitions(draw, d=None):
    """A partition of d columns: one block, all singletons, or mixed."""
    if d is None:
        d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["one", "singletons", "mixed"]))
    if kind == "one":
        labels = [0] * d
    elif kind == "singletons":
        labels = list(range(d))
    else:
        labels = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    seen = {}
    assign = [seen.setdefault(lbl, len(seen) + 1) for lbl in labels]
    return ColumnPartition(np.array(assign), len(seen))


@st.composite
def layouts(draw, d):
    """A partition of d columns as index arrays, blocks and columns shuffled."""
    blocks = [draw(st.permutations(idx.tolist())) for idx in draw(partitions(d=d)).groups()]
    return [np.array(idx, dtype=np.intp) for idx in draw(st.permutations(blocks))]


def random_pd(rng, d, lead=()):
    a = rng.normal(size=lead + (d, d))
    return a @ np.swapaxes(a, -1, -2) / d + 0.5 * np.eye(d)


def problem(seed, part, n, s_part=None):
    """Counts, offsets, means, Sigma block-diagonal on ``part`` and S
    block-diagonal on ``s_part`` (default ``part``)."""
    rng = np.random.default_rng(seed)
    d = part.d
    sigma = block_project(random_pd(rng, d), part)
    mu = rng.normal(0.5, 0.5, size=d)
    y = rng.poisson(np.exp(mu), size=(n, d)).astype(float)
    log_c = rng.normal(0.0, 0.3, size=n)
    m = np.log(y + 0.5) - log_c[:, None]
    s_part = part if s_part is None else s_part
    s = np.stack([block_project(0.2 * random_pd(rng, d), s_part) for _ in range(n)])
    return y, log_c, m, s, mu, sigma


def dense_inverse(sigma):
    inv = np.linalg.inv(sigma)
    return 0.5 * (inv + inv.T), np.linalg.slogdet(sigma)[1]


@SETTINGS
@given(data=st.data(), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       inner_iter=st.integers(1, 10))
def test_block_sweep_matches_dense_reference(data, n, seed, inner_iter):
    # Sigma is block-diagonal on `part`; S, as right after a partition
    # change, on another partition of the same columns
    part = data.draw(partitions())
    s_part = data.draw(partitions(d=part.d))
    y, log_c, m, s, mu, sigma = problem(seed, part, n, s_part)
    sigma_inv, logdet_sigma = dense_inverse(sigma)
    log_fact = gammaln(y + 1.0).sum(axis=1)

    # the fit stores S on the merged blocks, Sigma^-1 on the same blocks
    groups, s_blocks = vem._store_blocks(part, (np.arange(part.d),), [s])
    assert np.array_equal(dense_from_blocks(s_blocks, groups, part.d), s)
    inv_blocks, logdet_blocks = vem._block_inverses(np.linalg.cholesky(sigma), groups)
    np.testing.assert_allclose(dense_from_blocks(inv_blocks, groups, part.d), sigma_inv, **TOL)
    assert logdet_blocks == pytest.approx(logdet_sigma, rel=1e-9, abs=1e-9)

    f_dense = elbo_dense(y, log_c, m, s, mu, sigma_inv, logdet_sigma, log_fact)
    f_block = elbo_batch(y, log_c, m, s_blocks, mu, inv_blocks, logdet_blocks,
                         log_fact=log_fact, groups=groups)
    np.testing.assert_allclose(f_block, f_dense, **TOL)

    m_ref, s_ref = sweep_dense(y, log_c, m, s, mu, sigma_inv, logdet_sigma,
                               log_fact, f_dense, inner_iter, 1e-6)
    m_out, s_out = vem._sweep_batch(y, log_c, m, s_blocks, mu, inv_blocks,
                                    logdet_blocks, groups, log_fact, f_block,
                                    inner_iter, 1e-6)
    np.testing.assert_allclose(m_out, m_ref, **TOL)
    s_dense = dense_from_blocks(s_out, groups, part.d)
    np.testing.assert_allclose(s_dense, s_ref, **TOL)

    # moving S back towards Sigma's blocks drops nothing but exact zeros
    new_groups, s_moved = vem._store_blocks(part, groups, s_out)
    assert np.array_equal(dense_from_blocks(s_moved, new_groups, part.d), s_dense)

    z = np.random.default_rng(seed).uniform(0.1, 1.0, size=n)
    np.testing.assert_allclose(
        compute_scatter(z, m_out, s_out, mu, groups),
        compute_scatter(z, m_ref, [s_ref], mu, (np.arange(part.d),)), **TOL,
    )


@pytest.mark.parametrize("b", [1, 2, 5, 10, 50])
def test_s_fixed_point_step_matches_dense_reference(b):
    # one Cholesky factor gives S' and log det S'; the reference inverts by
    # LU, so S' agrees to a few ulps of these well-conditioned blocks
    rng = np.random.default_rng(b)
    n = 40
    sigma_inv = np.linalg.inv(random_pd(rng, b))
    m = rng.normal(0.5, 0.5, size=(n, b))
    log_c = rng.normal(0.0, 0.3, size=n)
    s = np.stack([0.2 * random_pd(rng, b) for _ in range(n)])
    s_new, logdet = vem.s_fixed_point_step(log_c, m, s, sigma_inv)
    s_ref, logdet_ref = s_fixed_point_dense(log_c, m, s, sigma_inv)
    np.testing.assert_allclose(s_new, s_ref, rtol=1e-11, atol=1e-14)
    np.testing.assert_allclose(logdet, logdet_ref, rtol=1e-13, atol=1e-12)
    assert np.array_equal(s_new, np.swapaxes(s_new, -1, -2))


def test_storage_returns_to_the_partition_after_a_full_sweep():
    # every row takes a step, so S' is block-diagonal on Sigma's partition
    part = ColumnPartition(np.array([1, 2, 1, 2]), 2)
    old = ColumnPartition(np.array([1, 1, 2, 2]), 2)
    y, log_c, m, s, mu, sigma = problem(5, part, 6, old)
    groups, s_blocks = vem._store_blocks(part, (np.arange(4),), [s])
    assert len(groups) == 1
    inv_blocks, logdet = vem._block_inverses(np.linalg.cholesky(sigma), groups)
    f = elbo_batch(y, log_c, m, s_blocks, mu, inv_blocks, logdet, groups=groups)
    _, s_out = vem._sweep_batch(y, log_c, m - 0.3, s_blocks, mu, inv_blocks, logdet,
                                groups, gammaln(y + 1.0).sum(axis=1), f - 1e3, 1, 1e-6)
    new_groups, _ = vem._store_blocks(part, groups, s_out)
    assert [g.tolist() for g in new_groups] == [[0, 2], [1, 3]]


@SETTINGS
@given(data=st.data(), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_reblock_never_lowers_a_bound_and_keeps_blocks_pd(data, n, seed):
    old = data.draw(partitions())
    new = data.draw(partitions(d=old.d))
    y, log_c, m, s, mu, _ = problem(seed, old, n)
    # Sigma lives on the partition S is moved to
    sigma = block_project(random_pd(np.random.default_rng(seed + 1), old.d), new)
    sigma_inv, logdet_sigma = dense_inverse(sigma)
    before = elbo_dense(y, log_c, m, s, mu, sigma_inv, logdet_sigma)

    moved = reblock(blocks_from_dense(s, old.groups()), old.groups(), new.groups())
    for block in moved:
        np.linalg.cholesky(block)  # raises unless positive definite
    after = elbo_batch(y, log_c, m, moved, mu, blocks_from_dense(sigma_inv, new.groups()),
                       logdet_sigma, groups=new.groups())
    assert np.all(after >= before - 1e-9 * (1.0 + np.abs(before)))


def test_reblock_keeps_in_block_entries_and_drops_the_rest():
    rng = np.random.default_rng(3)
    old = ColumnPartition(np.array([1, 1, 2, 2]), 2)
    new = ColumnPartition(np.array([1, 2, 1, 2]), 2)
    s = np.stack([block_project(random_pd(rng, 4), old) for _ in range(3)])
    moved = reblock(blocks_from_dense(s, old.groups()), old.groups(), new.groups())
    expected = block_project(np.ones((4, 4)), old) * block_project(np.ones((4, 4)), new)
    assert np.array_equal(dense_from_blocks(moved, new.groups(), 4), s * expected)


@SETTINGS
@given(data=st.data(), n=st.one_of(st.none(), st.integers(1, 4)),
       seed=st.integers(0, 2**32 - 1))
def test_reblock_matches_the_dense_round_trip(data, n, seed):
    # differential test, exact: reblock copies the same entries into zeros
    # that the dense round trip does, for S blocks (n, b, b) and for a
    # Sigma^-1 without leading axes (n None), with index arrays in any order
    d = data.draw(st.integers(1, 6))
    old = data.draw(layouts(d))
    new = data.draw(layouts(d))
    lead = () if n is None else (n,)
    rng = np.random.default_rng(seed)
    s = [rng.normal(size=lead + (idx.size, idx.size)) for idx in old]
    moved = reblock(s, old, new)
    expected = blocks_from_dense(dense_from_blocks(s, old, d), new)
    assert len(moved) == len(expected)
    for block, ref in zip(moved, expected):
        assert block.shape == ref.shape
        assert np.array_equal(block, ref)
        assert block.flags.c_contiguous
    # a dense array is the one-block layout
    dense = dense_from_blocks(s, old, d)
    assert np.array_equal(reblock(s, old, (np.arange(d),))[0], dense)
    for block, ref in zip(reblock([dense], (np.arange(d),), new), expected):
        assert np.array_equal(block, ref)


def test_reblock_returns_c_contiguous_blocks():
    rng = np.random.default_rng(4)
    old = ColumnPartition(np.array([1, 1, 2, 2, 2]), 2)
    new = ColumnPartition(np.array([1, 2, 1, 2, 2]), 2)
    s = np.stack([block_project(random_pd(rng, 5), old) for _ in range(6)])
    for block in reblock(blocks_from_dense(s, old.groups()), old.groups(), new.groups()):
        assert block.flags.c_contiguous


def test_fit_trace_does_not_depend_on_the_block_layout(monkeypatch):
    # restart 2 of this silhouette fit changes partitions several times, so
    # S is re-blocked and its bound taken before the next sweep refreshes it
    spec = replace(preset(11), n=200)
    counts, _ = sample_dataset(spec)
    offsets = spec_offsets(spec)

    def run():
        state = vem.initialize(counts, offsets, 2, 0, 2)
        return vem.fit_from_state(counts, offsets, state, SilhouetteK(5),
                                  FitConfig(n_starts=1, seed=0), restart=2)

    plain = run()
    calls = []
    original = vem.reblock

    def contiguous(s, old_groups, new_groups):
        calls.append(len(new_groups))
        return [np.ascontiguousarray(b) for b in original(s, old_groups, new_groups)]

    monkeypatch.setattr(vem, "reblock", contiguous)
    copied = run()
    assert len(calls) > 2  # more than the first pass's one move per component
    assert np.array_equal(plain.elbo_trace, copied.elbo_trace)


@pytest.mark.parametrize("G", [1, 2])
def test_fit_from_singleton_blocks_matches_the_dense_start(G):
    # differential test against the dense start: S = 0.1 * I stored as one
    # d x d block per component instead of d blocks of 1 x 1.  The first
    # pass moves both onto the partition's blocks with the same entries, so
    # the two fits must agree exactly (no tolerance), through the partition
    # changes of this silhouette fit (restart 2, as above).  With G = 1 the
    # responsibilities are one contiguous column, which the first scatter
    # sums in another order over a contiguous 1 x 1 block.
    spec = replace(preset(11), n=200)
    counts, _ = sample_dataset(spec)
    offsets = spec_offsets(spec)
    n, d = counts.n, counts.d
    start = vem.initialize(counts, offsets, G, 0, 2)
    dense_start = VariationalState(
        m=start.m,
        s=tuple((np.broadcast_to(0.1 * np.eye(d), (n, d, d)).copy(),) for _ in range(G)),
        z=start.z,
        groups=((np.arange(d),),) * G,
    )
    config = FitConfig(n_starts=1, seed=0)
    blocks = vem.fit_from_state(counts, offsets, start, SilhouetteK(5), config, restart=2)
    dense = vem.fit_from_state(counts, offsets, dense_start, SilhouetteK(5), config, restart=2)
    assert len(blocks.elbo_trace) > 3
    assert np.array_equal(blocks.elbo_trace, dense.elbo_trace)
    assert np.array_equal(blocks.labels, dense.labels)
    assert blocks.bic == dense.bic
    assert np.array_equal(blocks.state.m, dense.state.m)
    for g in range(G):
        assert np.array_equal(
            dense_from_blocks(blocks.state.s[g], blocks.state.groups[g], d),
            dense_from_blocks(dense.state.s[g], dense.state.groups[g], d),
        )


def test_fit_peak_memory_stays_below_one_dense_s():
    # S is stored per column block from the start state to the result, so
    # a fit on ten blocks of five columns never holds a dense (n, G, d, d)
    # S; tracemalloc sees numpy's allocations
    spec = replace(preset(4), n=200)
    counts, _ = sample_dataset(spec)
    offsets = spec_offsets(spec)
    G = 2
    dense_s_bytes = counts.n * G * counts.d ** 2 * 8
    tracemalloc.start()
    try:
        fit(counts, offsets, G, EqualK(10), FitConfig(n_starts=1, max_em_iter=3, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_s_bytes


def test_store_blocks_moves_s_without_a_dense_stack():
    # initialize's 1 x 1 blocks onto ten blocks of five columns, as the first
    # pass of a preset-4 fit does: the move holds the new blocks (0.1 of a
    # dense stack) and block-sized temporaries, never an (n, d, d) array
    n, d = 200, 50
    counts = CountMatrix(np.ones((n, d), dtype=np.int64), tuple(f"s{i}" for i in range(n)),
                         tuple(f"v{j}" for j in range(d)))
    state = vem.initialize(counts, OffsetVector(np.ones(n)), 1, 0, 0)
    part = ColumnPartition(np.repeat(np.arange(1, 11), 5), 10)
    tracemalloc.start()
    try:
        groups, s = vem._store_blocks(part, state.groups[0], state.s[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [idx.tolist() for idx in groups] == [idx.tolist() for idx in part.groups()]
    assert np.array_equal(dense_from_blocks(s, groups, d),
                          np.broadcast_to(0.1 * np.eye(d), (n, d, d)))
    assert peak < 0.25 * n * d * d * 8


def two_blob_counts(seed=12, n=40):
    rng = np.random.default_rng(seed)
    lam = np.where(np.arange(n)[:, None] < n // 2, 4.0, 15.0) * np.ones((1, 4))
    y = rng.poisson(lam)
    counts = CountMatrix(y, tuple(f"s{i}" for i in range(n)),
                         tuple(f"v{j}" for j in range(4)))
    return counts, OffsetVector(np.ones(n))


def test_fit_state_blocks_sit_on_the_final_partitions():
    counts, offsets = two_blob_counts()
    result = fit(counts, offsets, G=2, k_spec=EqualK(2),
                 config=FitConfig(n_starts=1, max_em_iter=20, seed=1))
    # no partition changes after the last sweep of this fit, so S is
    # stored exactly on the final blocks
    for g, part in enumerate(result.model.groupings):
        groups = result.state.groups[g]
        assert [idx.tolist() for idx in groups] == [idx.tolist() for idx in part.groups()]
        assert [b.shape for b in result.state.s[g]] == [(40, i.size, i.size) for i in groups]


def test_fit_single_component_runs_one_start(monkeypatch):
    counts, offsets = two_blob_counts()
    calls = []
    original = vem.fit_from_state

    def spy(*args, **kwargs):
        calls.append(kwargs.get("restart"))
        return original(*args, **kwargs)

    monkeypatch.setattr(vem, "fit_from_state", spy)
    five = fit(counts, offsets, G=1, k_spec=EqualK(2),
               config=FitConfig(n_starts=5, max_em_iter=30, seed=3))
    assert calls == [0]
    one = fit(counts, offsets, G=1, k_spec=EqualK(2),
              config=FitConfig(n_starts=1, max_em_iter=30, seed=3))
    assert np.array_equal(five.elbo_trace, one.elbo_trace)
    assert np.array_equal(five.labels, one.labels)
    assert np.array_equal(five.model.sigma, one.model.sigma)
    assert (five.lower_bound, five.bic, five.restart) == (one.lower_bound, one.bic, 0)


@pytest.mark.parametrize("d", [1, 3])
def test_dense_and_one_block_forms_agree(d):
    # a dense S is the one-block case of the block-stored bound and scatter
    rng = np.random.default_rng(d)
    part = ColumnPartition(np.ones(d, dtype=np.int64), 1)
    y, log_c, m, s, mu, sigma = problem(7, part, 5)
    sigma_inv, logdet_sigma = dense_inverse(sigma)
    groups = (np.arange(d),)
    # with log det S given, both do the same arithmetic on the same numbers
    logdet_s = np.linalg.slogdet(s)[1]
    assert np.array_equal(
        elbo_batch(y, log_c, m, [s], mu, [sigma_inv], logdet_sigma, logdet_s=logdet_s,
                   groups=groups),
        elbo_dense(y, log_c, m, s, mu, sigma_inv, logdet_sigma, logdet_s=logdet_s),
    )
    z = rng.uniform(size=5)
    dm = m - mu
    w = (np.einsum("n,ni,nj->ij", z, dm, dm) + np.einsum("n,nij->ij", z, s)) / z.sum()
    assert np.array_equal(compute_scatter(z, m, [s], mu, groups), 0.5 * (w + w.T))
