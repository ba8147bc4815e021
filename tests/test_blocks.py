"""Block-stored covariances against the dense reference sweep and refresh.

The fit stores each component's S, Sigma and Sigma^-1 per size class of
the component's partition (one (k, b, b) stack per block size); when the
partition changes, S moves onto the new classes.  These tests draw random
partitions (one block, all singletons, and mixed, d = 1 included) and
check the block sweep, ELBO and scatter against the dense copies in
``dense_reference``; that the per-block covariance refresh gives the
dense refresh's partition, Sigma, inverse, log-determinant and guard
objective, and jitters only a block that does not factor; that
``vem.reblock``, which moves S from one set of size classes to another
without a dense stack, matches the dense round trip exactly; that moving S never builds a dense (n, d, d) stack; and that
moving S onto any new partition never lowers a bound.  The sweep is one
step that steps the blocks of one size together; the first iteration of
``dense_reference.sweep_per_block``, one step per block, is its exact
reference.  Sigma's blocks of one size are factored and inverted as one
stack, which must equal factoring and inverting each block alone bit for
bit.  The scatter's mean part and the bound's quadratic forms and traces
are BLAS products, and Sigma's inverse is one LAPACK call per size class;
each must stay within a written tolerance of its earlier form (the
three-operand ``einsum``, the ``einsum`` contractions, the inverse from
the factor by forward substitution with a Gram product).  A requested
single block is built without the column tree, and the fit must equal
the one that cuts the tree, bit for bit.  The fit owns
the S-step's buffers: every pass after the first reuses them, they lower a
sweep's transient peak and die with the fit, and a dirty, larger workspace
changes no bit of a fit.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import dense_reference
from dense_reference import (
    block_inverses_dense,
    blocks_from_dense,
    covariance_candidate_by_cut,
    covariance_candidate_dense,
    dense_from_blocks,
    elbo_dense,
    elbo_einsum,
    inv_logdet_forward_gram,
    inverses_per_block,
    objective_dense,
    s_fixed_point_dense,
    s_step_buffers,
    scatter_three_operand,
    sweep_dense,
    sweep_per_block,
)
from mplnbicluster import vem
from mplnbicluster.colgroup import ColumnPartition
from mplnbicluster.data import CountMatrix, OffsetVector
from mplnbicluster.linalg import JITTER_REL, cholesky
from mplnbicluster.model import (
    BlockSigma,
    SizeClass,
    VariationalState,
    block_index,
    elbo_batch,
    log_factorial,
    logdet_blocks,
)
from mplnbicluster.simulate import preset, sample_dataset, spec_offsets
from mplnbicluster.vem import (
    EqualK,
    FitConfig,
    PerGroupK,
    SilhouetteK,
    compute_scatter,
    fit,
    reblock,
)

# Block and dense paths do the same arithmetic on the same in-block numbers
# but factor b x b instead of d x d matrices, so they agree to rounding:
# 1e-9 absolute plus 1e-9 relative on m, S and the bounds.
TOL = dict(rtol=1e-9, atol=1e-9)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def partitions(draw, d=None, d_max=6):
    """A partition of d columns (1..d_max when not given): one block, all
    singletons, or mixed."""
    if d is None:
        d = draw(st.integers(1, d_max))
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
    """A partition of d columns as size classes, (k, b) stacks of column
    indices, with the columns, the blocks and so the classes shuffled."""
    blocks = [draw(st.permutations(idx.tolist())) for idx in draw(partitions(d=d)).groups()]
    blocks = draw(st.permutations(blocks))
    return [np.array([idx for idx in blocks if len(idx) == b], dtype=np.intp)
            for b in dict.fromkeys(map(len, blocks))]


def random_pd(rng, d, lead=()):
    a = rng.normal(size=lead + (d, d))
    return a @ np.swapaxes(a, -1, -2) / d + 0.5 * np.eye(d)


def projected(x, part):
    """``x`` (..., d, d) with the entries across ``part``'s blocks zeroed."""
    return dense_from_blocks(blocks_from_dense(x, part.classes), part.classes, part.d)


def problem(seed, part, n, s_part=None):
    """Counts, offsets, means, Sigma block-diagonal on ``part`` and S
    block-diagonal on ``s_part`` (default ``part``)."""
    rng = np.random.default_rng(seed)
    d = part.d
    sigma = projected(random_pd(rng, d), part)
    mu = rng.normal(0.5, 0.5, size=d)
    y = rng.poisson(np.exp(mu), size=(n, d)).astype(float)
    log_c = rng.normal(0.0, 0.3, size=n)
    m = np.log(y + 0.5) - log_c[:, None]
    s_part = part if s_part is None else s_part
    s = np.stack([projected(0.2 * random_pd(rng, d), s_part) for _ in range(n)])
    return y, log_c, m, s, mu, sigma


def dense_inverse(sigma):
    inv = np.linalg.inv(sigma)
    return 0.5 * (inv + inv.T), np.linalg.slogdet(sigma)[1]


def sliced_sigma(part, sigma, sigma_inv, logdet_sigma):
    """A BlockSigma on ``part`` whose inverses are the dense inverse's blocks."""
    classes = tuple(SizeClass(cols, sigma[block_index(cols)], sigma_inv[block_index(cols)])
                    for cols in part.classes)
    return BlockSigma(part, classes, logdet_sigma)


@SETTINGS
@given(data=st.data(), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_block_sweep_matches_dense_reference(data, n, seed):
    # Sigma is block-diagonal on `part`; S, as right before a partition
    # change, on another partition of the same columns
    part = data.draw(partitions())
    s_part = data.draw(partitions(d=part.d))
    y, log_c, m, s, mu, sigma = problem(seed, part, n, s_part)
    sigma_inv, logdet_sigma = dense_inverse(sigma)
    log_fact = gammaln(y + 1.0).sum(axis=1)

    # the fit moves S onto Sigma's blocks, and the dense sweep gets the same S
    classes = part.classes
    s_blocks = reblock(blocks_from_dense(s, s_part.classes), s_part.classes, classes)
    s = dense_from_blocks(s_blocks, classes, part.d)
    # one factor per block of Sigma, as the covariance refresh makes them
    block_sigma = dense_reference.block_sigma(part, sigma)
    np.testing.assert_allclose(
        dense_from_blocks([c.inverses for c in block_sigma.classes], classes, part.d),
        sigma_inv, **TOL)
    assert block_sigma.logdet == pytest.approx(logdet_sigma, rel=1e-9, abs=1e-9)

    f_dense = elbo_dense(y, log_c, m, s, mu, sigma_inv, logdet_sigma, log_fact)
    f_block = elbo_batch(y, log_c, m, s_blocks, mu, block_sigma, log_fact=log_fact,
                         logdet_s=logdet_blocks(s_blocks))
    np.testing.assert_allclose(f_block, f_dense, **TOL)

    # the sweep is one step: the reference's first iteration
    m_ref, s_ref = sweep_dense(y, log_c, m, s, mu, sigma_inv, logdet_sigma,
                               log_fact, f_dense, 1, 1e-6)
    m_out, s_out, logdet_out = vem._sweep_batch(
        y, log_c, m, s_blocks, logdet_blocks(s_blocks), mu, block_sigma, log_fact,
        f_block, np.arange(n), {},
    )
    np.testing.assert_allclose(m_out, m_ref, **TOL)
    s_dense = dense_from_blocks(s_out, classes, part.d)
    np.testing.assert_allclose(s_dense, s_ref, **TOL)
    # the carried log det S is that of the returned S
    np.testing.assert_allclose(logdet_out, np.linalg.slogdet(s_dense)[1], **TOL)

    z = np.random.default_rng(seed).uniform(0.1, 1.0, size=n)
    np.testing.assert_allclose(
        compute_scatter(z, m_out, s_out, mu, classes),
        compute_scatter(z, m_ref, [s_ref[None]], mu, (np.arange(part.d)[None],)), **TOL,
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
    s_new, logdet = vem.s_fixed_point_step(log_c, m, np.einsum("...jj->...j", s), sigma_inv,
                                           *s_step_buffers(m))
    s_ref, logdet_ref = s_fixed_point_dense(log_c, m, s, sigma_inv)
    np.testing.assert_allclose(s_new, s_ref, rtol=1e-11, atol=1e-14)
    np.testing.assert_allclose(logdet, logdet_ref, rtol=1e-13, atol=1e-12)
    assert np.array_equal(s_new, np.swapaxes(s_new, -1, -2))


def own_copies(args):
    """``_sweep_batch``'s arguments with copies of the m, S stacks and log
    det S it writes in place, so that a reference can take the originals."""
    y, log_c, m, s, logdet_s, *rest = args
    return (y, log_c, m.copy(), [s_c.copy() for s_c in s], logdet_s.copy(), *rest)


def check_sweep_against_per_block(part, n, seed, gated):
    """Run ``vem._sweep_batch`` and one iteration of the per-block reference
    on one problem and require the same m, S stacks and log det S, bit for
    bit."""
    y, log_c, m, s, mu, sigma = problem(seed, part, n)
    s_blocks = blocks_from_dense(s, part.classes)
    block_sigma = dense_reference.block_sigma(part, sigma)
    log_fact = gammaln(y + 1.0).sum(axis=1)
    logdet_s = logdet_blocks(s_blocks)
    f_start = elbo_batch(y, log_c, m, s_blocks, mu, block_sigma, log_fact=log_fact,
                         logdet_s=logdet_s)
    rows = np.arange(n)
    if gated:
        rows = np.flatnonzero(np.random.default_rng(seed).uniform(size=n) < 0.6)
    args = (y, log_c, m, s_blocks, logdet_s, mu, block_sigma, log_fact, f_start)
    m_out, s_out, logdet_out = vem._sweep_batch(*own_copies(args), rows, {})
    m_ref, s_ref, logdet_ref = sweep_per_block(*args, 1, 1e-6, rows)
    assert np.array_equal(m_out, m_ref)
    assert len(s_out) == len(s_ref)
    for block, ref in zip(s_out, s_ref):
        assert np.array_equal(block, ref)
    assert np.array_equal(logdet_out, logdet_ref)


@SETTINGS
@given(data=st.data(), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       gated=st.booleans())
def test_size_class_sweep_matches_per_block_reference(data, n, seed, gated):
    # exact differential test: stepping the blocks of one size together does
    # each block's arithmetic on the same numbers, and log det S' is summed
    # over the blocks in class order, so nothing may differ in any bit.  Up
    # to d = 12, so that classes of blocks of 8 and more columns are stepped
    # with a single row, as a gate that keeps one row steps them
    check_sweep_against_per_block(data.draw(partitions(d_max=12)), n, seed, gated)


@pytest.mark.parametrize("b", [4, 5, 8, 10])
def test_size_class_sweep_matches_per_block_reference_on_one_row(b):
    # one row and a class of three b x b blocks: the S-step inverts one
    # stack of three where the reference inverts three stacks of one, as
    # when the row gate leaves one row, and no bit may differ
    part = ColumnPartition(np.repeat(np.arange(1, 4), b), 3)
    check_sweep_against_per_block(part, 1, b, False)


@pytest.mark.parametrize("gated", [False, True])
def test_size_class_sweep_matches_per_block_reference_on_mixed_sizes(gated):
    # three block sizes, each twice, on interleaved columns; grouped by
    # size, the blocks are in another order than the partition's
    part = ColumnPartition(np.array([1, 2, 3, 2, 4, 5, 1, 2, 5, 4, 6, 5]), 6)
    assert [idx.size for idx in part.groups()] == [2, 3, 1, 2, 3, 1]
    check_sweep_against_per_block(part, 12, 5, gated)


# LAPACK's LU inverse and the forward substitution with its Gram product
# sum the same inverse in another order.  Each matrix's entries move by at
# most 2e-15 of its largest |entry|; the largest move measured over 3000
# random stacks of these matrices (b = 1..12, one to four blocks) is
# 1.1e-15 of it.
INVERSE_TOL = 2e-15


@SETTINGS
@given(b=st.integers(1, 12), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_block_sigma_inverse_matches_forward_substitution(b, k, seed):
    # one size class of k blocks of b columns
    part = ColumnPartition(np.repeat(np.arange(1, k + 1), b), k)
    blocks = random_pd(np.random.default_rng(seed), b, (k,))
    lower = cholesky(blocks)
    inv_ref, logdet_ref = inv_logdet_forward_gram(lower)
    sigma = BlockSigma.from_factors(part, [(blocks, lower)])
    (c,) = sigma.classes
    assert np.array_equal(c.inverses, np.swapaxes(c.inverses, -1, -2))  # exactly symmetric
    scale = np.abs(inv_ref).max(axis=(-1, -2), keepdims=True)
    assert np.all(np.abs(c.inverses - inv_ref) <= INVERSE_TOL * scale)
    # log det Sigma is summed, block by block, from the factors it is handed
    assert sigma.logdet == sum(logdet_ref)


def test_preset4_sweep_steps_its_ten_blocks_in_one_call(monkeypatch):
    # preset 4 has ten blocks of five columns: the sweep makes one S-step
    # and one Newton step on a (10, rows, 5) stack where the per-block
    # reference makes ten of each, and the two agree bit for bit
    spec = replace(preset(4), n=200)
    counts, _ = sample_dataset(spec)
    offsets = spec_offsets(spec)
    state = vem.initialize(counts, offsets, 1, 0, 0)
    y, log_c, m = counts.counts.astype(float), offsets.log, state.m[:, 0]
    z = state.z[:, 0]
    mu = vem.m_step_mu(state.z, state.m)[0]
    w = compute_scatter(z, m, state.s[0], mu, state.partitions[0].classes)
    # Sigma on preset 4's partition, from the first scatter's blocks
    part = ColumnPartition(np.repeat(np.arange(1, 11), 5), 10)
    sigma = dense_reference.block_sigma(part, w)
    s = reblock(state.s[0], state.partitions[0].classes, part.classes)
    log_fact = gammaln(y + 1.0).sum(axis=1)
    logdet_s = logdet_blocks(s)
    f_start = elbo_batch(y, log_c, m, s, mu, sigma, log_fact=log_fact, logdet_s=logdet_s)

    shapes, newton_calls, ref_calls = [], [], []
    s_step, newton, ref_step = (vem.s_fixed_point_step, vem.newton_m_step,
                                dense_reference.s_fixed_point_per_block)

    def counting(log_c, m, diag_s, sigma_inv, *buffers):
        shapes.append(m.shape)
        return s_step(log_c, m, diag_s, sigma_inv, *buffers)

    def counting_newton(*args):
        newton_calls.append(args[2].shape)
        return newton(*args)

    def counting_ref(*args):
        ref_calls.append(args[1].shape)
        return ref_step(*args)

    monkeypatch.setattr(vem, "s_fixed_point_step", counting)
    monkeypatch.setattr(vem, "newton_m_step", counting_newton)
    monkeypatch.setattr(dense_reference, "s_fixed_point_per_block", counting_ref)
    args = (y, log_c, m, s, logdet_s, mu, sigma, log_fact, f_start)
    m_out, s_out, _ = vem._sweep_batch(*own_copies(args), np.arange(200), {})
    m_ref, s_ref, _ = sweep_per_block(*args, 1, 1e-6)
    assert len(shapes) == 1
    assert newton_calls == shapes
    assert all(shape[0] == 10 and shape[2] == 5 for shape in shapes)
    assert len(ref_calls) == 10 * len(shapes)
    assert [shape[1] for shape in shapes] == [shape[0] for shape in ref_calls[::10]]
    assert np.array_equal(m_out, m_ref)
    assert all(np.array_equal(a, b) for a, b in zip(s_out, s_ref, strict=True))


def test_preset4_fit_takes_one_s_step_per_component_per_pass(monkeypatch):
    # each EM pass takes one variational step per component, not a loop of
    # them: with preset 4's one block size, that is one S-step on a
    # (10, rows, 5) stack per component for every pass that sweeps
    spec = replace(preset(4), n=200)
    counts, _ = sample_dataset(spec)
    shapes = []
    s_step = vem.s_fixed_point_step

    def counting(log_c, m, diag_s, sigma_inv, *buffers):
        shapes.append(m.shape)
        return s_step(log_c, m, diag_s, sigma_inv, *buffers)

    monkeypatch.setattr(vem, "s_fixed_point_step", counting)
    result = fit(counts, spec_offsets(spec), 2, EqualK(10),
                 FitConfig(max_em_iter=4, n_starts=1, seed=0))
    # every pass but the last sweeps, and the last ends the loop
    assert result.iterations == 4
    assert len(shapes) == result.iterations * 2
    assert all(shape[0] == 10 and 0 < shape[1] <= 200 and shape[2] == 5 for shape in shapes)


@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_block_refresh_matches_dense_reference(data, seed):
    # differential test of the covariance refresh: per block (W's blocks on
    # the partition, one factor each) against the dense reference (W
    # projected to d x d, one dense factor sliced into blocks, the guard by
    # dense solves).  The partition and Sigma must be identical; inverses,
    # log det Sigma and the guard objective come from factors of the same
    # numbers in another order, so they agree to 1e-9 relative plus 1e-9
    # absolute.
    d = data.draw(st.integers(1, 6))
    if d >= 2 and data.draw(st.booleans()):
        k_spec = SilhouetteK(data.draw(st.integers(2, d)))
    else:
        k_spec = EqualK(data.draw(st.integers(1, d)))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.01, 100.0) * random_pd(rng, d)
    mass = rng.uniform(0.5, 500.0)

    cand = vem._covariance_candidate(w, k_spec, 0, "average")
    sigma, lower, part = covariance_candidate_dense(w, k_spec, 0, "average")
    assert cand.partition.k == part.k
    assert np.array_equal(cand.partition.assign, part.assign)
    assert [cols.tolist() for cols in cand.partition.classes] == [
        cols.tolist() for cols in part.classes]
    assert np.array_equal(cand.dense(), sigma)
    inverses, logdet = block_inverses_dense(lower, [idx for cols in part.classes for idx in cols])
    for inv, ref in zip((inv for c in cand.classes for inv in c.inverses), inverses, strict=True):
        np.testing.assert_allclose(inv, ref, **TOL)
    np.testing.assert_allclose(cand.logdet, logdet, **TOL)
    np.testing.assert_allclose(cand.objective(w, mass), objective_dense(w, mass, lower), **TOL)

    # the guard's other side: the current Sigma, made from another scatter
    # on its own partition, scored against the new W
    w_old = random_pd(rng, d)
    current = vem._covariance_candidate(w_old, k_spec, 0, "average")
    _, current_lower, _ = covariance_candidate_dense(w_old, k_spec, 0, "average")
    np.testing.assert_allclose(current.objective(w, mass),
                               objective_dense(w, mass, current_lower), **TOL)


def test_refresh_jitters_only_the_block_that_does_not_factor(monkeypatch):
    # columns 0 and 1 are equal, so W's block on them is singular (and does
    # not factor: 4 - 2 * 2 is exactly 0); the block on columns 2 and 3 is
    # positive definite, and W is nonzero across the two blocks
    w = np.array([[4.0, 4.0, 0.3, 0.2],
                  [4.0, 4.0, 0.3, 0.2],
                  [0.3, 0.3, 2.0, 0.5],
                  [0.2, 0.2, 0.5, 1.0]])
    cand = vem._covariance_candidate(w, EqualK(2), 0, "average")
    assert cand.partition.assign.tolist() == [1, 1, 2, 2]
    # the singular block is bumped by JITTER_REL times the mean of its own
    # diagonal, and the other block keeps W's entries exactly
    (c,) = cand.classes
    assert np.array_equal(c.blocks[0], w[:2, :2] + JITTER_REL * 4.0 * np.eye(2))
    assert np.array_equal(c.blocks[1], w[2:, 2:])

    # a fit whose every scatter is this W ends on the same Sigma, with exact
    # zeros across the blocks
    monkeypatch.setattr(vem, "compute_scatter", lambda *args: w.copy())
    counts, offsets = two_blob_counts()
    result = vem.fit_from_state(counts, offsets, vem.initialize(counts, offsets, 1, 0, 0),
                                EqualK(2), FitConfig(max_em_iter=2))
    sigma = result.model.sigma[0]
    assert np.array_equal(sigma, cand.dense())
    assert np.all(sigma[:2, 2:] == 0.0) and np.all(sigma[2:, :2] == 0.0)


@SETTINGS
@given(data=st.data(), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_reblock_never_lowers_a_bound_and_keeps_blocks_pd(data, n, seed):
    old = data.draw(partitions())
    new = data.draw(partitions(d=old.d))
    y, log_c, m, s, mu, _ = problem(seed, old, n)
    # Sigma lives on the partition S is moved to
    sigma = projected(random_pd(np.random.default_rng(seed + 1), old.d), new)
    sigma_inv, logdet_sigma = dense_inverse(sigma)
    before = elbo_dense(y, log_c, m, s, mu, sigma_inv, logdet_sigma)

    moved = reblock(blocks_from_dense(s, old.classes), old.classes, new.classes)
    for stack in moved:
        np.linalg.cholesky(stack)  # raises unless every block is positive definite
    after = elbo_batch(y, log_c, m, moved, mu,
                       sliced_sigma(new, sigma, sigma_inv, logdet_sigma),
                       log_factorial(y), logdet_blocks(moved))
    assert np.all(after >= before - 1e-9 * (1.0 + np.abs(before)))


def test_reblock_keeps_in_block_entries_and_drops_the_rest():
    rng = np.random.default_rng(3)
    old = ColumnPartition(np.array([1, 1, 2, 2]), 2)
    new = ColumnPartition(np.array([1, 2, 1, 2]), 2)
    s = np.stack([projected(random_pd(rng, 4), old) for _ in range(3)])
    moved = reblock(blocks_from_dense(s, old.classes), old.classes, new.classes)
    expected = projected(np.ones((4, 4)), old) * projected(np.ones((4, 4)), new)
    assert np.array_equal(dense_from_blocks(moved, new.classes, 4), s * expected)


@SETTINGS
@given(data=st.data(), n=st.one_of(st.none(), st.integers(1, 4)),
       seed=st.integers(0, 2**32 - 1))
def test_reblock_matches_the_dense_round_trip(data, n, seed):
    # differential test, exact: reblock copies the same entries into zeros
    # that the dense round trip does, for S stacks (k, n, b, b) and for a
    # Sigma^-1 without the row axis (n None), with classes, blocks and
    # index arrays in any order
    d = data.draw(st.integers(1, 6))
    old = data.draw(layouts(d))
    new = data.draw(layouts(d))
    lead = () if n is None else (n,)
    rng = np.random.default_rng(seed)
    s = [rng.normal(size=cols.shape[:1] + lead + cols.shape[1:] * 2) for cols in old]
    moved = reblock(s, old, new)
    expected = blocks_from_dense(dense_from_blocks(s, old, d), new)
    assert len(moved) == len(expected)
    for block, ref in zip(moved, expected):
        assert block.shape == ref.shape
        assert np.array_equal(block, ref)
        assert block.flags.c_contiguous
    # a dense array is the one-block layout
    dense = dense_from_blocks(s, old, d)
    one_block = (np.arange(d)[None],)
    assert np.array_equal(reblock(s, old, one_block)[0][0], dense)
    for block, ref in zip(reblock([dense[None]], one_block, new), expected):
        assert np.array_equal(block, ref)


def test_reblock_returns_c_contiguous_blocks():
    rng = np.random.default_rng(4)
    old = ColumnPartition(np.array([1, 1, 2, 2, 2]), 2)
    new = ColumnPartition(np.array([1, 2, 1, 2, 2]), 2)
    s = np.stack([projected(random_pd(rng, 5), old) for _ in range(6)])
    for stack in reblock(blocks_from_dense(s, old.classes), old.classes, new.classes):
        assert stack.flags.c_contiguous


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

    def contiguous(s, old, new):
        calls.append(len(new))
        return [np.ascontiguousarray(c) for c in original(s, old, new)]

    monkeypatch.setattr(vem, "reblock", contiguous)
    copied = run()
    assert len(calls) > 2  # more than the first pass's one move per component
    assert np.array_equal(plain.elbo_trace, copied.elbo_trace)


@pytest.mark.parametrize("G", [1, 2])
def test_fit_from_singleton_blocks_matches_the_dense_start(G):
    # differential test against the dense start: S = 0.1 * I stored as one
    # d x d block per component instead of one class of d blocks of 1 x 1.
    # The first pass moves both onto the partition's blocks with the same
    # entries, so the two fits must agree exactly (no tolerance), through
    # the partition changes of this silhouette fit (restart 2, as above).
    # With G = 1 the responsibilities are one contiguous column, which the
    # first scatter would sum in another order over a contiguous class of
    # 1 x 1 blocks.
    spec = replace(preset(11), n=200)
    counts, _ = sample_dataset(spec)
    offsets = spec_offsets(spec)
    n, d = counts.n, counts.d
    start = vem.initialize(counts, offsets, G, 0, 2)
    dense_start = VariationalState(
        m=start.m,
        s=tuple((np.broadcast_to(0.1 * np.eye(d), (1, n, d, d)).copy(),) for _ in range(G)),
        z=start.z,
        partitions=(ColumnPartition(np.ones(d, dtype=np.int64), 1),) * G,
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
            dense_from_blocks(blocks.state.s[g], blocks.state.partitions[g].classes, d),
            dense_from_blocks(dense.state.s[g], dense.state.partitions[g].classes, d),
        )


def test_fit_peak_memory_stays_below_one_dense_s():
    # S is stored per column block from the start state to the result, so
    # a fit on ten blocks of five columns never holds a dense (n, G, d, d)
    # S; tracemalloc sees numpy's allocations.  The sweep reads S's
    # diagonals, not copies of its blocks, and writes the kept rows into the
    # fit's own S blocks; the S-step factors and inverts S'^-1 in a
    # batch-last buffer with no Gram product and writes S' out with one
    # transpose.  That keeps the peak at about 0.36 of one dense S, with the
    # fit holding those two buffers from pass to pass (0.32 when each
    # S-step allocated its own, and 0.37 when each sweep also copied the
    # component's S); copying whole blocks into the S-step's stacks reads
    # about 0.59
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
    assert peak < 0.5 * dense_s_bytes


def preset4_fit_data(n=200):
    spec = replace(preset(4), n=n)
    counts, _ = sample_dataset(spec)
    return counts, spec_offsets(spec)


def test_every_pass_after_the_first_reuses_the_s_step_buffers(monkeypatch):
    # the fit owns the S-step's arrays: from the second pass on, every
    # S-step builds S'^-1 in, and writes S' into, the same two buffers
    counts, offsets = preset4_fit_data()
    buffers = []
    s_step = vem.s_fixed_point_step

    def spying(log_c, m, diag_s, sigma_inv, a, s_new):
        buffers.append((a.base, s_new.base))
        return s_step(log_c, m, diag_s, sigma_inv, a, s_new)

    monkeypatch.setattr(vem, "s_fixed_point_step", spying)
    result = fit(counts, offsets, 2, EqualK(10), FitConfig(n_starts=1, max_em_iter=5, seed=0))
    # one class per component, so two S-steps per pass that sweeps
    assert len(buffers) == 2 * result.iterations
    later = buffers[2:]
    assert later and all(a is later[0][0] and s is later[0][1] for a, s in later)
    assert later[0][0] is not later[0][1]


def test_reused_buffers_lower_a_sweeps_transient_peak(monkeypatch):
    # tracemalloc's peak during a sweep above what was held before it, in
    # units of the bytes of its class's (b, b, k * rows) stack.  A sweep
    # that allocates its S-step's two arrays reads 3.73 and 3.70 on the two
    # components; with the fit's buffers, from the second pass on, 2.73 and
    # 2.70
    counts, offsets = preset4_fit_data()
    ratios = []
    sweep = vem._sweep_batch

    def measuring(*args):
        (c,) = args[6].classes
        unit = c.columns.size * c.columns.shape[1] * args[9].size * 8
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = sweep(*args)
        ratios.append((tracemalloc.get_traced_memory()[1] - held) / unit)
        return out

    monkeypatch.setattr(vem, "_sweep_batch", measuring)
    tracemalloc.start()
    try:
        fit(counts, offsets, 2, EqualK(10), FitConfig(n_starts=1, max_em_iter=4, seed=0))
    finally:
        tracemalloc.stop()
    assert len(ratios) == 8
    assert max(ratios[2:]) < 3.2


def test_the_s_step_buffers_die_with_the_fit():
    # a fit leaves under 64 KB more traced memory than it found: 27 KB
    # measured on the first fit of a process (31 KB before the fit owned
    # its buffers), then about 13 KB per fit, numpy's own caches.  Each of
    # the two buffers it held is about 300 KB, and a workspace kept from
    # one fit to the next would keep both
    counts, offsets = preset4_fit_data()
    config = FitConfig(n_starts=1, max_em_iter=3, seed=0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fit(counts, offsets, 2, EqualK(10), config)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_a_dirty_larger_workspace_gives_the_same_fit(monkeypatch):
    # restart 2 of this silhouette fit sweeps mixed block sizes through
    # several partitions, each size class with its own S'; a workspace
    # filled with NaN and larger than any sweep needs, shared by every
    # sweep, and a fresh workspace per sweep give the fit's own result,
    # bit for bit
    spec = replace(preset(11), n=200)
    counts, _ = sample_dataset(spec)
    offsets = spec_offsets(spec)
    n, d = counts.n, counts.d
    sweep = vem._sweep_batch
    classes = []

    def run(work):
        def sweeping(*args):
            classes.append(len(args[6].classes))
            return sweep(*args[:-1], work())
        monkeypatch.setattr(vem, "_sweep_batch", sweeping)
        state = vem.initialize(counts, offsets, 2, 0, 2)
        return vem.fit_from_state(counts, offsets, state, SilhouetteK(5),
                                  FitConfig(n_starts=1, seed=0), restart=2)

    plain = vem.fit_from_state(counts, offsets, vem.initialize(counts, offsets, 2, 0, 2),
                               SilhouetteK(5), FitConfig(n_starts=1, seed=0), restart=2)
    fresh = run(dict)
    assert max(classes) > 1
    dirty = {key: np.full(n * d * d, np.nan) for key in range(d + 1)}
    held = dict(dirty)
    reused = run(lambda: dirty)
    # large enough for every sweep, so no buffer was replaced
    assert all(dirty[key] is held[key] for key in held)
    for other in (fresh, reused):
        assert np.array_equal(other.elbo_trace, plain.elbo_trace)
        assert other.bic == plain.bic
        assert np.array_equal(other.labels, plain.labels)
        assert np.array_equal(other.state.m, plain.state.m)
        for g in range(2):
            assert all(np.array_equal(a, b) for a, b in
                       zip(other.state.s[g], plain.state.s[g], strict=True))


def test_store_blocks_moves_s_without_a_dense_stack():
    # initialize's 1 x 1 blocks onto ten blocks of five columns, as the first
    # pass of a preset-4 fit moves them: the move holds the new blocks (0.1
    # of a dense stack) and block-sized temporaries, never an (n, d, d) array
    n, d = 200, 50
    counts = CountMatrix(np.ones((n, d), dtype=np.int64), tuple(f"s{i}" for i in range(n)),
                         tuple(f"v{j}" for j in range(d)))
    state = vem.initialize(counts, OffsetVector(np.ones(n)), 1, 0, 0)
    classes = ColumnPartition(np.repeat(np.arange(1, 11), 5), 10).classes
    tracemalloc.start()
    try:
        s = reblock(state.s[0], state.partitions[0].classes, classes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(dense_from_blocks(s, classes, d),
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
    # S moves onto every partition the fit adopts, so it ends on the final
    # blocks
    for g, part in enumerate(result.model.groupings):
        assert np.array_equal(result.state.partitions[g].assign, part.assign)
        assert [c.shape for c in result.state.s[g]] == [(k, 40, b, b) for k, b in
                                                        (cols.shape for cols in part.classes)]


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
    # with log det S and log y! given, both do the same arithmetic on the
    # same numbers
    logdet_s = np.linalg.slogdet(s)[1]
    log_fact = gammaln(y + 1.0).sum(axis=1)
    assert np.array_equal(
        elbo_batch(y, log_c, m, [s[None]], mu, sliced_sigma(part, sigma, sigma_inv, logdet_sigma),
                   log_fact=log_fact, logdet_s=logdet_s),
        elbo_dense(y, log_c, m, s, mu, sigma_inv, logdet_sigma, log_fact=log_fact,
                   logdet_s=logdet_s),
    )
    z = rng.uniform(size=5)
    dm = m - mu
    w = ((dm * z[:, None]).T @ dm + np.einsum("n,nij->ij", z, s)) / z.sum()
    assert np.array_equal(compute_scatter(z, m, [s[None]], mu, part.classes), 0.5 * (w + w.T))


# The bound's quadratic forms and traces as BLAS products sum each block's
# products in another order than the einsum contractions.  Each bound moves
# by at most 4e-15 of 1 + its magnitude; the largest move measured over 2000
# random problems of these sizes is 4.5e-16 of its magnitude.
ELBO_TOL = 4e-15


@SETTINGS
@given(data=st.data(), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_bound_matches_the_einsum_reference(data, n, seed):
    part = data.draw(partitions())
    y, log_c, m, s, mu, sigma = problem(seed, part, n)
    s_blocks = blocks_from_dense(s, part.classes)
    block_sigma = dense_reference.block_sigma(part, sigma)
    log_fact = gammaln(y + 1.0).sum(axis=1)
    logdet_s = logdet_blocks(s_blocks)
    # every row, then none, as a gated sweep that keeps no row scores them
    for rows in (slice(None), slice(0)):
        args = (y[rows], log_c[rows], m[rows], [c[:, rows] for c in s_blocks], mu, block_sigma)
        f = elbo_batch(*args, log_fact=log_fact[rows], logdet_s=logdet_s[rows])
        ref = elbo_einsum(*args, log_fact[rows], logdet_s[rows])
        assert f.shape == ref.shape
        assert np.all(np.abs(f - ref) <= ELBO_TOL * (1.0 + np.abs(ref)))


# The scatter's mean part as one BLAS product sums the same products in
# another order than the three-operand einsum.  Each entry moves by at most
# 1e-14 of sqrt(W_ii W_jj), the Cauchy-Schwarz bound on |W_ij|; at preset 4
# the largest move measured is 4.4e-15 of it, at the k-means start.
SCATTER_TOL = 1e-14


def check_scatter_against_three_operand(z, m, s, mu, classes):
    w = compute_scatter(z, m, s, mu, classes)
    ref = scatter_three_operand(z, m, s, mu, classes)
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(w - ref) <= SCATTER_TOL * scale)
    assert np.array_equal(w, w.T)


@SETTINGS
@given(data=st.data(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_scatter_matches_the_three_operand_reference(data, n, seed):
    part = data.draw(partitions())
    _, _, m, s, mu, _ = problem(seed, part, n)
    z = np.random.default_rng(seed).uniform(0.01, 1.0, size=n)
    check_scatter_against_three_operand(z, m, blocks_from_dense(s, part.classes), mu,
                                        part.classes)


@pytest.mark.parametrize("restart", [0, 1])
def test_preset4_scatter_matches_the_three_operand_reference(restart):
    spec = preset(4)
    counts, _ = sample_dataset(spec)
    state = vem.initialize(counts, spec_offsets(spec), 2, 7, restart)
    mu = vem.m_step_mu(state.z, state.m)
    for g in range(2):
        check_scatter_against_three_operand(state.z[:, g], state.m[:, g], state.s[g], mu[g],
                                            state.partitions[g].classes)


@st.composite
def mixed_partitions(draw):
    """A partition of 2..12 columns into blocks of several sizes."""
    d = draw(st.integers(2, 12))
    labels = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    seen = {}
    assign = [seen.setdefault(lbl, len(seen) + 1) for lbl in labels]
    return ColumnPartition(np.array(assign), len(seen))


@SETTINGS
@given(part=mixed_partitions(), seed=st.integers(0, 2**32 - 1))
def test_block_sigma_is_exactly_per_block_factoring(part, seed):
    # exact differential test: factoring and inverting the blocks of one
    # size as one stack does each block's arithmetic on the same numbers,
    # and log det Sigma and the guard's trace are summed in class order
    rng = np.random.default_rng(seed)
    w = random_pd(rng, part.d)
    sigma = dense_reference.block_sigma(part, w)
    # the blocks in class order
    groups = [idx for cols in part.classes for idx in cols]
    blocks = [w[np.ix_(idx, idx)] for idx in groups]
    inverses, logdet = inverses_per_block(blocks)
    assert sum(len(c.inverses) for c in sigma.classes) == len(inverses)
    assert all(np.array_equal(a, b) for a, b in
               zip((inv for c in sigma.classes for inv in c.inverses), inverses))
    assert sigma.logdet == logdet
    assert all(np.array_equal(a, b) for a, b in
               zip((block for c in sigma.classes for block in c.blocks), blocks))
    # each size class holds its blocks' columns, sizes in order of first
    # appearance
    sizes = [c.columns.shape[1] for c in sigma.classes]
    assert sizes == list(dict.fromkeys(idx.size for idx in part.groups()))
    assert all(c.columns is cols for c, cols in zip(sigma.classes, part.classes, strict=True))
    mass = rng.uniform(0.5, 500.0)
    w_new = random_pd(rng, part.d)
    trace = sum(np.einsum("ij,ji->", inv, w_new[np.ix_(idx, idx)])
                for idx, inv in zip(groups, inverses))
    assert sigma.objective(w_new, mass) == -0.5 * mass * (trace + logdet)


@pytest.mark.parametrize("k_spec", [EqualK(1), PerGroupK((1, 2))], ids=["equal", "per-group"])
def test_a_single_block_is_built_without_the_tree(monkeypatch, k_spec):
    # a requested k of 1 skips the distances, the agglomeration and the cut,
    # and the fit is bit for bit the one that cuts its tree at one block
    spec = replace(preset(1), n=200)
    counts, _ = sample_dataset(spec)
    offsets = spec_offsets(spec)
    config = FitConfig(n_starts=2, max_em_iter=30, seed=0)
    calls = []
    agglomerate, candidate = vem.agglomerate, vem._covariance_candidate

    def agglomerate_spy(dist, linkage="average"):
        calls.append("tree")
        return agglomerate(dist, linkage=linkage)

    def candidate_spy(w, k_spec, g, linkage):
        calls.append(g)
        return candidate(w, k_spec, g, linkage)

    monkeypatch.setattr(vem, "agglomerate", agglomerate_spy)
    monkeypatch.setattr(vem, "_covariance_candidate", candidate_spy)
    result = fit(counts, offsets, 2, k_spec, config)
    ks = k_spec.ks if isinstance(k_spec, PerGroupK) else (1, 1)
    # each refresh of a component asked for one block cuts no tree
    assert calls == [x for g in calls if g != "tree"
                     for x in ((g, "tree") if ks[g] > 1 else (g,))]
    assert calls.count(0) > 2
    monkeypatch.setattr(vem, "_covariance_candidate", covariance_candidate_by_cut)
    ref = fit(counts, offsets, 2, k_spec, config)
    assert np.array_equal(result.elbo_trace, ref.elbo_trace)
    assert np.array_equal(result.labels, ref.labels)
    assert np.array_equal(result.model.sigma, ref.model.sigma)
    assert result.bic == ref.bic and result.starts == ref.starts


def test_refresh_factors_each_block_size_once(monkeypatch):
    # this W cuts into blocks of sizes 3, 2, 2, 1, 3 and 1: one
    # cholesky_with_jitter call per size, on the (k, b, b) stack of W's
    # blocks of that size
    w = random_pd(np.random.default_rng(11), 12)
    calls = []
    original = vem.cholesky_with_jitter

    def spy(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(vem, "cholesky_with_jitter", spy)
    cand = vem._covariance_candidate(w, EqualK(6), 0, "average")
    assert [idx.size for idx in cand.partition.groups()] == [3, 2, 2, 1, 3, 1]
    assert calls == [(2, 3, 3), (2, 2, 2), (2, 1, 1)]
    groups = cand.partition.groups()
    assert [[idx.tolist() for idx in c.columns] for c in cand.classes] == [
        [groups[j].tolist() for j in pos] for pos in ((0, 4), (1, 2), (3, 5))]
    inverses, logdet = inverses_per_block([block for c in cand.classes for block in c.blocks])
    assert all(np.array_equal(a, b) for a, b in
               zip((inv for c in cand.classes for inv in c.inverses), inverses, strict=True))
    assert cand.logdet == logdet
