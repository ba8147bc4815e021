"""Tests for the variational EM engine."""

import functools
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.sparse.csgraph import connected_components

from dense_reference import block_sigma, dense_from_blocks, s_step_buffers
from restart_reference import fit_every_start
from single_observation import elbo_observation, update_variational
from mplnbicluster.data import CountMatrix, OffsetVector, write_json
from mplnbicluster.errors import (
    AllRestartsFailed,
    EmptyComponent,
    LengthMismatch,
    NotPositiveDefinite,
)
from mplnbicluster.colgroup import ColumnPartition
from mplnbicluster.model import (
    BlockSigma,
    elbo_batch,
    log_factorial,
    logdet_blocks,
    posterior,
)
from mplnbicluster.simulate import preset, sample_dataset, spec_offsets
from mplnbicluster import vem
from mplnbicluster.vem import (
    EqualK,
    FitConfig,
    PerGroupK,
    SilhouetteK,
    compute_scatter,
    fit,
    fit_from_state,
    initialize,
    load_result,
    m_step_mu,
    m_step_pi,
    newton_m_step,
    s_fixed_point_step,
    save_labels,
    save_result,
)


def make_counts(y):
    y = np.asarray(y)
    return CountMatrix(
        y,
        tuple(f"s{i}" for i in range(y.shape[0])),
        tuple(f"v{j}" for j in range(y.shape[1])),
    )


def unit_offsets(n):
    return OffsetVector(np.ones(n))


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    config = FitConfig()
    assert [f.name for f in fields(FitConfig)] == [
        "max_em_iter", "elbo_rel_tol", "n_starts", "linkage", "seed",
    ]
    assert config.max_em_iter == 500
    assert config.elbo_rel_tol == 1e-6
    assert config.n_starts == 5
    assert config.linkage == "average"
    assert config.seed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_em_iter": 0},
        {"elbo_rel_tol": 0.0},
        {"elbo_rel_tol": -1e-6},
        {"n_starts": 0},
        {"seed": -1},
        {"linkage": "ward"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        FitConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [("elbo_rel_tol", float("nan")), ("elbo_rel_tol", float("inf")),
     ("elbo_rel_tol", 0.0), ("elbo_rel_tol", True), ("max_em_iter", 2.5),
     ("max_em_iter", True), ("n_starts", 3.0), ("n_starts", False),
     ("seed", 1.5), ("seed", -1)],
)
def test_config_rejects_bad_field_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        FitConfig(**{field: value})


@pytest.mark.parametrize(
    "spec, value, name",
    [(EqualK, 2.5, "k"), (EqualK, True, "k"), (SilhouetteK, 3.0, "k_max"),
     (SilhouetteK, False, "k_max"), (PerGroupK, (2.7, 1), r"ks\[0\]"),
     (PerGroupK, (2, True), r"ks\[1\]"), (PerGroupK, ("2", 1), r"ks\[0\]")],
)
def test_block_counts_reject_non_integers(spec, value, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        spec(value)


def test_config_and_block_counts_take_numpy_integers():
    config = FitConfig(max_em_iter=np.int64(7), seed=np.uint32(3))
    assert (config.max_em_iter, config.seed) == (7, 3)
    assert type(config.seed) is int
    assert EqualK(np.int64(2)).k == 2
    assert PerGroupK((np.int32(1), 2)).ks == (1, 2)


def test_k_spec_validation():
    counts = make_counts(np.ones((5, 3), dtype=np.int64))
    offsets = unit_offsets(5)
    with pytest.raises(ValueError):
        fit(counts, offsets, G=2, k_spec=EqualK(4), config=FitConfig(n_starts=1))
    with pytest.raises(ValueError):
        fit(counts, offsets, G=2, k_spec=PerGroupK((2,)), config=FitConfig(n_starts=1))
    with pytest.raises(TypeError):
        fit(counts, offsets, G=2, k_spec="three", config=FitConfig(n_starts=1))
    with pytest.raises(ValueError, match="k must be an integer"):
        fit(counts, offsets, G=2, k_spec=True, config=FitConfig(n_starts=1))
    with pytest.raises(ValueError):
        EqualK(0)
    with pytest.raises(ValueError):
        SilhouetteK(0)
    # the silhouette compares at least two blocks, so it needs k_max >= 2
    # and two columns; both are rejected before any restart runs
    with pytest.raises(ValueError, match="k_max"):
        SilhouetteK(1)
    one_column = make_counts(np.ones((5, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="SilhouetteK"):
        fit(one_column, offsets, G=2, k_spec=SilhouetteK(2), config=FitConfig(n_starts=1))


# ---------------------------------------------------------------------------
# the two coordinate updates, against hand-worked values


def test_s_fixed_point_worked_example():
    # standard cell: C=1, m=0, S=1, Sigma=1 -> S' = 1 / (1 + e^0.5)
    m = np.zeros((1, 1))
    s_new, logdet = s_fixed_point_step(
        np.zeros(1), m, np.einsum("...jj->...j", np.ones((1, 1, 1))), np.ones((1, 1)),
        *s_step_buffers(m),
    )
    expected = 1.0 / (1.0 + np.exp(0.5))
    assert s_new[0, 0, 0] == pytest.approx(expected, abs=1e-12)
    assert s_new[0, 0, 0] == pytest.approx(0.37754, abs=5e-6)
    assert logdet[0] == pytest.approx(np.log(expected), abs=1e-12)


def test_s_fixed_point_rejects_indefinite_precision():
    # a failed factorization of Sigma^-1 + diag(lambda) is a typed package
    # error, so callers need no numpy exception of their own
    m = np.zeros((1, 2))
    with pytest.raises(NotPositiveDefinite):
        s_fixed_point_step(
            np.zeros(1), m, np.einsum("...jj->...j", np.eye(2)[None]), -10.0 * np.eye(2),
            *s_step_buffers(m),
        )


@pytest.mark.parametrize("shape", [(10, 0, 5), (3, 4, 1)], ids=["no_rows", "b1"])
def test_s_fixed_point_step_shapes_on_a_stack(shape):
    # a sweep whose component has no resolvable rows steps (k, 0, b) stacks;
    # 1 x 1 blocks are the scalar formula
    k, rows, b = shape
    rng = np.random.default_rng(2)
    m = rng.normal(size=shape)
    diag_s = rng.uniform(0.1, 0.5, size=shape)
    log_c = rng.normal(size=rows)
    sigma_inv = np.broadcast_to(2.0 * np.eye(b), (k, 1, b, b))
    s_new, logdet = s_fixed_point_step(log_c, m, diag_s, sigma_inv, *s_step_buffers(m))
    assert s_new.shape == (k, rows, b, b) and logdet.shape == (k, rows)
    if b == 1:
        expected = 1.0 / (2.0 + np.exp(log_c + m[..., 0] + 0.5 * diag_s[..., 0]))
        np.testing.assert_allclose(s_new[..., 0, 0], expected, rtol=1e-15)
        np.testing.assert_allclose(logdet, np.log(expected), rtol=1e-14)


def test_newton_m_worked_example():
    # y=1, S'=0.5, C=1, mu=0, Sigma=1, m=0 -> m' = -0.5 (e^0.25 - 1)
    m_new, step = newton_m_step(
        np.array([[1.0]]),
        np.zeros(1),
        np.zeros((1, 1)),
        np.full((1, 1, 1), 0.5),
        np.zeros(1),
        np.ones((1, 1)),
    )
    expected = -0.5 * (np.exp(0.25) - 1.0)
    assert m_new[0, 0] == pytest.approx(expected, abs=1e-12)
    assert m_new[0, 0] == pytest.approx(-0.14201, abs=5e-6)
    assert step[0, 0] == pytest.approx(-expected, abs=1e-12)


def test_s_fixed_point_diagonal_structure():
    # with a diagonal Sigma the update is the scalar formula per coordinate
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = 3
        m = rng.normal(size=(1, d))
        diag = rng.uniform(0.5, 2.0, size=d)
        s = np.diag(rng.uniform(0.1, 0.5, size=d))[None]
        log_c = rng.normal(size=1)
        s_new, _ = s_fixed_point_step(log_c, m, np.einsum("...jj->...j", s),
                                      np.diag(1.0 / diag), *s_step_buffers(m))
        lam = np.exp(log_c[0] + m[0] + 0.5 * np.diag(s[0]))
        expected = 1.0 / (1.0 / diag + lam)
        assert np.allclose(np.diag(s_new[0]), expected, atol=1e-12)
        off = s_new[0] - np.diag(np.diag(s_new[0]))
        assert np.allclose(off, 0.0, atol=1e-12)


def test_update_variational_never_decreases_bound():
    rng = np.random.default_rng(29)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        y = rng.poisson(3.0, size=d).astype(float)
        log_c = float(rng.normal(scale=0.3))
        mu = rng.normal(size=d)
        a = rng.normal(size=(d, d))
        sigma = a @ a.T + d * np.eye(d)
        m = rng.normal(scale=2.0, size=d)
        s = np.eye(d) * rng.uniform(0.05, 1.0)
        before = elbo_observation(y, log_c, m, s, mu, sigma)
        m2, s2 = update_variational(y, log_c, m, s, mu, sigma, inner_iter=1)
        for _ in range(30):
            m2, s2 = update_variational(y, log_c, m2, s2, mu, sigma, inner_iter=1)
            after = elbo_observation(y, log_c, m2, s2, mu, sigma)
            assert after >= before - 1e-10
            before = after


def test_update_variational_guard_survives_bad_start():
    # a start far uphill of the data would overshoot without the guard
    y = np.array([10000.0])
    sigma = np.array([[1.0]])
    m, s = np.array([12.0]), np.array([[0.5]])
    before = elbo_observation(y, 0.0, m, s, np.zeros(1), sigma)
    for _ in range(50):
        m, s = update_variational(y, 0.0, m, s, np.zeros(1), sigma, inner_iter=1)
        after = elbo_observation(y, 0.0, m, s, np.zeros(1), sigma)
        assert after >= before - 1e-10
        before = after
    # and it still lands near the right place: posterior mode close to log y
    assert abs(m[0] - np.log(10000.0)) < 0.1


def test_update_variational_rejects_indefinite_s():
    # the single-observation bound is undefined for an indefinite S, so the
    # sweep must refuse the start instead of handing it back unchanged
    with pytest.raises(NotPositiveDefinite):
        update_variational(
            np.array([3.0]), 0.0, np.array([1.0]), np.array([[-1.0]]),
            np.zeros(1), np.eye(1),
        )


def test_indefinite_s_with_positive_determinant_is_rejected():
    # det S = 1 > 0, so a sign test on the determinant would let it through
    s = np.diag([-1.0, -1.0, 1.0])
    y, m, mu = np.array([1.0, 2.0, 0.0]), np.zeros(3), np.zeros(3)
    one_block = ColumnPartition(np.ones(3, dtype=np.int64), 1)
    with pytest.raises(NotPositiveDefinite):
        elbo_batch(y[None], np.zeros(1), m[None], [s[None, None]], mu,
                   BlockSigma.from_factors(one_block, [(np.eye(3)[None], np.eye(3)[None])]),
                   log_factorial(y[None]), logdet_blocks([s[None, None]]))
    with pytest.raises(NotPositiveDefinite):
        update_variational(y, 0.0, m, s, mu, np.eye(3))


def test_update_variational_stationarity_1d():
    # at convergence the gradient in m vanishes and S solves its fixed point
    rng = np.random.default_rng(47)
    for _ in range(10):
        y = np.array([float(rng.poisson(5.0))])
        mu = np.array([rng.normal()])
        var = rng.uniform(0.5, 2.0)
        log_c = float(rng.normal(scale=0.2))
        m, s = update_variational(
            y, log_c, np.zeros(1), np.eye(1) * 0.1, mu, np.array([[var]]),
            inner_iter=500, inner_tol=1e-13,
        )
        lam = np.exp(log_c + m[0] + 0.5 * s[0, 0])
        grad_m = y[0] - lam - (m[0] - mu[0]) / var
        s_resid = 1.0 / s[0, 0] - (1.0 / var + lam)
        assert abs(grad_m) <= 1e-5
        assert abs(s_resid) <= 1e-6


def test_update_variational_matches_direct_optimizer_1d():
    # the sweeps should reach the same maximum as a generic optimizer
    rng = np.random.default_rng(83)
    for _ in range(10):
        y = np.array([float(rng.poisson(4.0))])
        mu = np.array([rng.normal()])
        var = rng.uniform(0.5, 2.0)
        log_c = float(rng.normal(scale=0.2))
        sigma = np.array([[var]])
        m, s = update_variational(
            y, log_c, np.zeros(1), np.eye(1) * 0.1, mu, sigma,
            inner_iter=500, inner_tol=1e-13,
        )
        f_sweep = elbo_observation(y, log_c, m, s, mu, sigma)

        def negf(theta):
            return -elbo_observation(
                y, log_c, np.array([theta[0]]), np.array([[np.exp(theta[1])]]), mu, sigma
            )

        ref = minimize(
            negf, np.array([0.0, -1.0]), method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000},
        )
        assert f_sweep >= -ref.fun - 1e-6


# ---------------------------------------------------------------------------
# M-step pieces


def test_m_step_pi():
    z = np.array([[1.0, 0.0], [0.25, 0.75], [0.75, 0.25], [0.0, 1.0]])
    pi = m_step_pi(z)
    assert np.allclose(pi, [0.5, 0.5], atol=1e-15)
    assert pi.sum() == pytest.approx(1.0, abs=1e-15)


def test_m_step_mu_weighted_average():
    z = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    m = np.zeros((3, 2, 1))
    m[0, 0, 0] = 2.0
    m[1, 1, 0] = 4.0
    m[2, 0, 0] = 5.0
    m[2, 1, 0] = 6.0
    mu = m_step_mu(z, m)
    # component 1: (1*2 + 0.5*5) / 1.5 = 3; component 2: (1*4 + 0.5*6) / 1.5
    assert mu[0, 0] == pytest.approx(3.0, abs=1e-12)
    assert mu[1, 0] == pytest.approx(7.0 / 1.5, abs=1e-12)


def test_m_step_mu_empty_component():
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    m = np.zeros((2, 2, 3))
    with pytest.raises(EmptyComponent):
        m_step_mu(z, m)


def test_compute_scatter_hand_example():
    z = np.array([1.0, 1.0])
    m = np.array([[1.0, 0.0], [-1.0, 0.0]])
    s = np.array([np.eye(2) * 0.2, np.eye(2) * 0.4])
    w = compute_scatter(z, m, [s[None]], np.zeros(2), (np.arange(2)[None],))
    # mean of outer products diag (1, 0) plus mean S diag (0.3, 0.3)
    assert np.allclose(w, np.diag([1.3, 0.3]), atol=1e-12)


def test_compute_scatter_symmetric_psd():
    rng = np.random.default_rng(5)
    z = rng.uniform(0.1, 1.0, size=8)
    m = rng.normal(size=(8, 3))
    s = np.broadcast_to(np.eye(3) * 0.1, (8, 3, 3)).copy()
    w = compute_scatter(z, m, [s[None]], rng.normal(size=3), (np.arange(3)[None],))
    assert np.allclose(w, w.T, atol=1e-15)
    assert np.linalg.eigvalsh(w).min() > 0


# ---------------------------------------------------------------------------
# initialization


def test_initialize_values_and_shapes():
    y = np.array([[0, 3], [5, 1], [2, 2], [7, 0]], dtype=np.int64)
    counts = make_counts(y)
    offsets = OffsetVector(np.array([1.0, 2.0, 1.0, 1.0]))
    state = initialize(counts, offsets, G=2, seed=0, restart=0)
    assert state.m.shape == (4, 2, 2)
    assert state.z.shape == (4, 2)
    # S is 0.1 * I, stored as one class of 1 x 1 blocks, one per column, per
    # component
    for g in range(2):
        assert [cols.tolist() for cols in state.partitions[g].classes] == [[[0], [1]]]
        assert [c.shape for c in state.s[g]] == [(2, 4, 1, 1)]
        assert np.array_equal(dense_from_blocks(state.s[g], state.partitions[g].classes, 2),
                              np.broadcast_to(0.1 * np.eye(2), (4, 2, 2)))
    # m starts at log((y + 0.5) / C) for every component
    assert state.m[0, 0, 0] == pytest.approx(np.log(0.5), abs=1e-12)
    assert state.m[1, 1, 0] == pytest.approx(np.log(5.5 / 2.0), abs=1e-12)
    assert np.array_equal(state.m[:, 0], state.m[:, 1])
    # restart 0 is a hard assignment
    assert set(np.unique(state.z)) <= {0.0, 1.0}
    assert np.allclose(state.z.sum(axis=1), 1.0)


def test_initialize_restarts_differ():
    y = np.arange(40, dtype=np.int64).reshape(10, 4)
    counts = make_counts(y)
    offsets = unit_offsets(10)
    soft = initialize(counts, offsets, G=3, seed=1, restart=1)
    assert not set(np.unique(soft.z)) <= {0.0, 1.0}
    assert np.allclose(soft.z.sum(axis=1), 1.0, atol=1e-12)
    again = initialize(counts, offsets, G=3, seed=1, restart=1)
    assert np.array_equal(soft.z, again.z)
    other = initialize(counts, offsets, G=3, seed=1, restart=2)
    assert not np.array_equal(soft.z, other.z)


def test_initialize_single_component():
    counts = make_counts(np.ones((6, 2), dtype=np.int64))
    state = initialize(counts, unit_offsets(6), G=1, seed=9, restart=0)
    assert np.array_equal(state.z, np.ones((6, 1)))


def test_initialize_kmeans_separates_blobs():
    rng = np.random.default_rng(60)
    lo = rng.poisson(2.0, size=(12, 3))
    hi = rng.poisson(60.0, size=(12, 3))
    counts = make_counts(np.vstack([lo, hi]).astype(np.int64))
    state = initialize(counts, unit_offsets(24), G=2, seed=4, restart=0)
    hard = np.argmax(state.z, axis=1)
    assert len(set(hard[:12])) == 1
    assert len(set(hard[12:])) == 1
    assert hard[0] != hard[-1]


def test_initialize_invalid_g():
    counts = make_counts(np.ones((3, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        initialize(counts, unit_offsets(3), G=0, seed=0, restart=0)
    with pytest.raises(ValueError):
        initialize(counts, unit_offsets(3), G=4, seed=0, restart=0)


# ---------------------------------------------------------------------------
# the full driver


def two_group_dataset(seed=7, n=120):
    rng = np.random.default_rng(seed)
    mu = np.array([[0.5, 0.5, 3.0, 3.0], [3.0, 3.0, 0.5, 0.5]])
    labels = rng.integers(0, 2, size=n)
    x = mu[labels] + 0.4 * rng.standard_normal((n, 4))
    y = rng.poisson(np.exp(x)).astype(np.int64)
    return make_counts(y), unit_offsets(n), labels


def test_fit_separates_two_groups():
    counts, offsets, truth = two_group_dataset()
    result = fit(
        counts, offsets, G=2, k_spec=EqualK(2),
        config=FitConfig(n_starts=2, max_em_iter=250, seed=3),
    )
    assert result.converged
    got = result.labels - 1
    purity = max(np.mean(got == truth), np.mean(got == 1 - truth))
    assert purity >= 0.97
    assert result.model.G == 2
    assert sorted(result.labels.tolist())[0] == 1  # labels are 1-based


def test_fit_trace_is_monotone():
    rng = np.random.default_rng(91)
    for trial in range(6):
        n, d = 40, 3
        x = rng.normal(loc=rng.uniform(0.5, 2.0), size=(n, d))
        y = rng.poisson(np.exp(x)).astype(np.int64)
        counts = make_counts(y)
        result = fit(
            counts, unit_offsets(n), G=2, k_spec=EqualK(2),
            config=FitConfig(n_starts=1, max_em_iter=60, seed=trial),
        )
        trace = result.elbo_trace
        drops = np.diff(trace) < -1e-8 * (1.0 + np.abs(trace[:-1]))
        assert not drops.any(), f"trial {trial}: bound decreased at {np.where(drops)}"


def test_fit_recovers_block_partition():
    # one component, two strongly correlated pairs of variables
    rng = np.random.default_rng(17)
    n = 300
    block = np.array([[1.0, 0.85], [0.85, 1.0]]) * 0.5
    cov = np.zeros((4, 4))
    cov[:2, :2] = block
    cov[2:, 2:] = block
    x = rng.multivariate_normal(np.full(4, 2.5), cov, size=n)
    y = rng.poisson(np.exp(x)).astype(np.int64)
    result = fit(
        make_counts(y), unit_offsets(n), G=1, k_spec=EqualK(2),
        config=FitConfig(n_starts=1, max_em_iter=60, seed=0),
    )
    part = result.model.groupings[0]
    assert part.k == 2
    assert part.assign[0] == part.assign[1]
    assert part.assign[2] == part.assign[3]
    assert part.assign[0] != part.assign[2]


def test_fit_deterministic():
    counts, offsets, _ = two_group_dataset(seed=21, n=60)
    config = FitConfig(n_starts=2, max_em_iter=40, seed=5)
    a = fit(counts, offsets, G=2, k_spec=EqualK(2), config=config)
    b = fit(counts, offsets, G=2, k_spec=EqualK(2), config=config)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.elbo_trace, b.elbo_trace)
    assert a.lower_bound == b.lower_bound
    assert a.bic == b.bic
    assert np.array_equal(a.model.mu, b.model.mu)


@pytest.mark.parametrize("blocks", ["singletons", "one_block"])
def test_fit_leaves_the_callers_state_unchanged(blocks):
    # the sweeps write m and S in place, into the fit's own copies: with a
    # partition equal to the start's blocks nothing is re-blocked, so the
    # first sweep would otherwise write into the caller's S
    counts, offsets, _ = two_group_dataset(seed=21, n=40)
    n, d = counts.n, counts.d
    state = initialize(counts, offsets, 2, 0, 1)
    if blocks == "singletons":
        k_spec = EqualK(d)
    else:
        k_spec = EqualK(1)
        state = replace(state, s=tuple((np.broadcast_to(0.1 * np.eye(d), (1, n, d, d)).copy(),)
                                       for _ in range(2)),
                        partitions=(ColumnPartition(np.ones(d, dtype=np.int64), 1),) * 2)
    before = (state.m.copy(), state.z.copy(),
              [[s_c.copy() for s_c in s_g] for s_g in state.s])
    result = fit_from_state(counts, offsets, state, k_spec, FitConfig(max_em_iter=5))
    assert result.iterations == 5
    assert np.array_equal(state.m, before[0]) and np.array_equal(state.z, before[1])
    for s_g, ref_g in zip(state.s, before[2], strict=True):
        assert all(np.array_equal(s_c, ref) for s_c, ref in zip(s_g, ref_g, strict=True))
    # and the fit moved its own copies
    assert not np.array_equal(result.state.m, state.m)
    assert not np.shares_memory(result.state.s[0][0], state.s[0][0])


def test_fit_bic_matches_definition():
    counts, offsets, _ = two_group_dataset(seed=33, n=50)
    result = fit(
        counts, offsets, G=2, k_spec=EqualK(2),
        config=FitConfig(n_starts=1, max_em_iter=30, seed=2),
    )
    p = result.model.n_free_parameters
    assert result.bic == pytest.approx(
        2.0 * result.lower_bound - p * np.log(50), abs=1e-9
    )


@pytest.mark.parametrize("k_spec", [EqualK(2), SilhouetteK(3)], ids=["equal", "silhouette"])
def test_fit_iteration_cap(k_spec):
    # a capped fit is the uncapped one cut short: T iterations, T + 1 bounds
    # (the start and one per iteration), and not converged
    spec = replace(preset(11), n=80)
    counts, _ = sample_dataset(spec)
    offsets = spec_offsets(spec)

    def capped(cap):
        return fit(counts, offsets, 2, k_spec, FitConfig(n_starts=1, max_em_iter=cap, seed=3))

    longer = capped(8)
    assert len(longer.elbo_trace) == 9 and not longer.converged
    for cap in (1, 2, 5):
        result = capped(cap)
        assert len(result.elbo_trace) == cap + 1
        assert result.iterations == cap
        assert not result.converged
        assert np.array_equal(result.elbo_trace, longer.elbo_trace[:cap + 1])


def test_fit_trace_final_consistency():
    # the last trace entry is the bound of the returned state and model
    counts, offsets, _ = two_group_dataset(seed=45, n=50)
    result = fit(
        counts, offsets, G=2, k_spec=EqualK(2),
        config=FitConfig(n_starts=1, max_em_iter=30, seed=8),
    )
    y = counts.counts.astype(float)
    log_fact = log_factorial(y)
    f = np.empty((50, 2))
    for g, part in enumerate(result.model.groupings):
        sigma = block_sigma(part, result.model.sigma[g])
        f[:, g] = elbo_batch(
            y, offsets.log, result.state.m[:, g], result.state.s[g],
            result.model.mu[g], sigma, log_fact=log_fact,
            logdet_s=logdet_blocks(result.state.s[g]),
        )
    assert posterior(f, result.model.pi)[0] == pytest.approx(
        result.elbo_trace[-1], rel=1e-12
    )
    assert result.iterations == len(result.elbo_trace) - 1


def test_fit_permutation_equivariance():
    # swapping the component order of the start swaps the result
    counts, offsets, _ = two_group_dataset(seed=52, n=40)
    state = initialize(counts, offsets, G=2, seed=1, restart=1)
    config = FitConfig(n_starts=1, max_em_iter=25, seed=1)
    fwd = fit_from_state(counts, offsets, state, EqualK(2), config)
    from mplnbicluster.model import VariationalState

    swapped = VariationalState(
        m=state.m[:, ::-1].copy(), s=state.s[::-1], z=state.z[:, ::-1].copy(),
        partitions=state.partitions[::-1],
    )
    rev = fit_from_state(counts, offsets, swapped, EqualK(2), config)
    assert np.array_equal(rev.model.mu, fwd.model.mu[::-1])
    assert np.array_equal(rev.model.pi, fwd.model.pi[::-1])
    assert np.array_equal(rev.labels, 3 - fwd.labels)
    assert rev.elbo_trace == pytest.approx(fwd.elbo_trace, rel=1e-12)


def test_fit_per_group_k():
    counts, offsets, _ = two_group_dataset(seed=64, n=60)
    result = fit(
        counts, offsets, G=2, k_spec=PerGroupK((1, 2)),
        config=FitConfig(n_starts=1, max_em_iter=25, seed=0),
    )
    assert result.model.groupings[0].k == 1
    assert result.model.groupings[1].k == 2


def test_fit_silhouette_k_runs():
    counts, offsets, _ = two_group_dataset(seed=70, n=60)
    result = fit(
        counts, offsets, G=2, k_spec=SilhouetteK(3),
        config=FitConfig(n_starts=1, max_em_iter=25, seed=0),
    )
    for part in result.model.groupings:
        assert 1 <= part.k <= 3


def test_fit_accepts_plain_int_and_tuple():
    counts, offsets, _ = two_group_dataset(seed=77, n=40)
    config = FitConfig(n_starts=1, max_em_iter=15, seed=0)
    a = fit(counts, offsets, G=2, k_spec=2, config=config)
    b = fit(counts, offsets, G=2, k_spec=EqualK(2), config=config)
    assert np.array_equal(a.labels, b.labels)
    c = fit(counts, offsets, G=2, k_spec=(2, 2), config=config)
    assert np.array_equal(c.labels, b.labels)
    e = fit(counts, offsets, G=2, k_spec=np.int64(2), config=config)
    assert np.array_equal(e.labels, b.labels)


def test_fit_all_restarts_failed(monkeypatch):
    counts, offsets, _ = two_group_dataset(seed=88, n=30)

    def boom(z, m):
        raise EmptyComponent("forced failure")

    monkeypatch.setattr(vem, "m_step_mu", boom)
    with pytest.raises(AllRestartsFailed) as err:
        fit(counts, offsets, G=2, k_spec=EqualK(1),
            config=FitConfig(n_starts=3, max_em_iter=10, seed=0))
    assert len(err.value.failures) == 3
    assert "EmptyComponent" in err.value.failures[0][1]


@pytest.mark.parametrize("length", [1, 29])
def test_offsets_of_another_length_are_rejected(length):
    # checked before any arithmetic: one offset used to fail deep in the
    # sweep with an IndexError, 29 with a numpy broadcast error
    counts = make_counts(np.random.default_rng(3).poisson(5.0, size=(30, 4)))
    offsets = unit_offsets(length)
    message = f"{length} offsets for 30 samples"
    config = FitConfig(n_starts=2, max_em_iter=5, seed=0)
    with pytest.raises(LengthMismatch, match=message):
        fit(counts, offsets, 2, EqualK(2), config)
    with pytest.raises(LengthMismatch, match=message):
        initialize(counts, offsets, 2, 0, 0)
    state = initialize(counts, unit_offsets(30), 2, 0, 0)
    with pytest.raises(LengthMismatch, match=message):
        fit_from_state(counts, offsets, state, EqualK(2), config)


# ---------------------------------------------------------------------------
# degenerate inputs

DEGENERATE = {
    "all_zero": np.zeros((30, 4), dtype=np.int64),
    "one_column": np.random.default_rng(5).poisson(4.0, size=(30, 1)),
    "identical_rows": np.tile(np.array([[3, 0, 7, 1]]), (30, 1)),
    "fewer_rows_than_columns": np.random.default_rng(6).poisson(4.0, size=(3, 6)),
    # no latent variance: Sigma's diagonal collapses toward zero
    "poisson_only": np.random.default_rng(7).poisson(5.0, size=(60, 6)),
}


@pytest.mark.parametrize("G", [1, 2])
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_inputs_fit_to_finite_outputs(case, G):
    y = DEGENERATE[case]
    config = FitConfig(max_em_iter=100, seed=0)
    result = fit(make_counts(y), unit_offsets(y.shape[0]), G, EqualK(1), config)
    assert np.isfinite(result.lower_bound)
    assert np.isfinite(result.bic)
    # a start may fail (an emptied component), but every one is recorded
    assert [start[0] for start in result.starts] == list(range(config.n_starts if G > 1 else 1))
    if case in ("all_zero", "identical_rows"):
        # the k-means start puts a row in every component although all tie
        assert result.starts[0][1] in ("converged", "capped")


def test_kmeans_labels_use_every_cluster_when_rows_tie():
    labels = vem._kmeans_labels(np.zeros((30, 4)), 2, np.random.default_rng(0))
    assert sorted(set(labels.tolist())) == [0, 1]
    labels = vem._kmeans_labels(np.zeros((30, 4)), 5, np.random.default_rng(0))
    assert sorted(set(labels.tolist())) == [0, 1, 2, 3, 4]


def test_zero_columns_are_rejected_before_any_start(monkeypatch):
    calls = []
    monkeypatch.setattr(vem, "initialize", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="exceeds the number of variables 0"):
        fit(make_counts(np.zeros((30, 0), dtype=np.int64)), unit_offsets(30), 1, EqualK(1))
    assert calls == []


# ---------------------------------------------------------------------------
# restarts that reach an earlier start's optimum


def preset_1_data(n):
    spec = replace(preset(1), n=n)
    counts, _ = sample_dataset(spec)
    return counts, spec_offsets(spec)


def assert_same_fit(a, b):
    # bit for bit: every array and number of the result and of its state
    assert np.array_equal(a.model.pi, b.model.pi)
    assert np.array_equal(a.model.mu, b.model.mu)
    assert np.array_equal(a.model.sigma, b.model.sigma)
    assert [p.assign.tolist() for p in a.model.groupings] == [
        p.assign.tolist() for p in b.model.groupings
    ]
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.elbo_trace, b.elbo_trace)
    assert (a.lower_bound, a.bic, a.converged, a.iterations, a.restart) == (
        b.lower_bound, b.bic, b.converged, b.iterations, b.restart
    )
    assert np.array_equal(a.state.m, b.state.m)
    assert np.array_equal(a.state.z, b.state.z)
    for part_a, part_b, s_a, s_b in zip(a.state.partitions, b.state.partitions,
                                        a.state.s, b.state.s):
        assert np.array_equal(part_a.assign, part_b.assign)
        assert all(np.array_equal(x, y) for x, y in zip(s_a, s_b))


def test_joins_matches_components_and_blocks_up_to_renaming():
    parts = (ColumnPartition(np.array([1, 1, 2, 2]), 2), ColumnPartition(np.array([1, 2, 3, 3]), 3))
    incumbent = SimpleNamespace(labels=np.array([1, 1, 2, 2, 1]), model=SimpleNamespace(groupings=parts))
    # components swapped, and each component's blocks renamed
    swapped = (ColumnPartition(np.array([3, 1, 2, 2]), 3), ColumnPartition(np.array([2, 2, 1, 1]), 2))
    assert vem._joins(incumbent, np.array([2, 2, 1, 1, 2]), swapped)
    # the same blocks under the wrong components
    assert not vem._joins(incumbent, np.array([1, 1, 2, 2, 1]), swapped)
    # one moved column in a matched component
    moved = (ColumnPartition(np.array([3, 1, 2, 2]), 3), ColumnPartition(np.array([2, 1, 1, 1]), 2))
    assert not vem._joins(incumbent, np.array([2, 2, 1, 1, 2]), moved)
    # one moved row
    assert not vem._joins(incumbent, np.array([2, 2, 1, 1, 1]), swapped)
    # a component with no hard-assigned rows
    assert not vem._joins(incumbent, np.array([2, 2, 2, 2, 2]), swapped)
    empty = SimpleNamespace(labels=np.array([1, 1, 1, 1, 1]), model=SimpleNamespace(groupings=parts))
    assert not vem._joins(empty, np.array([1, 1, 1, 1, 1]), parts)


def test_fit_stops_a_start_on_the_incumbents_optimum():
    # preset 1 has G = 2: every later start joins restart 0
    counts, offsets = preset_1_data(150)
    config = FitConfig(n_starts=4, seed=3)
    result = fit(counts, offsets, 2, EqualK(2), config)
    assert [(r, outcome) for r, outcome, _ in result.starts] == [
        (0, "converged"), (1, "joined restart 0"), (2, "joined restart 0"), (3, "joined restart 0"),
    ]
    assert result.restart == 0 and result.joined is None
    alone = fit_from_state(
        counts, offsets, initialize(counts, offsets, 2, config.seed, result.restart),
        EqualK(2), config, restart=result.restart,
    )
    assert_same_fit(result, alone)
    assert result.starts[0][2] == result.iterations
    # the starts that were stopped reached the same optimum to 1e-5 in BIC
    reference = fit_every_start(counts, offsets, 2, EqualK(2), config)
    assert result.bic == pytest.approx(reference.bic, rel=1e-5)
    # a joined start comes back as a normal result with its iterations
    joined = fit_from_state(
        counts, offsets, initialize(counts, offsets, 2, config.seed, 1),
        EqualK(2), config, restart=1, incumbent=result,
    )
    assert (joined.joined, joined.restart, joined.converged) == (0, 1, False)
    assert joined.iterations == result.starts[1][2]
    assert len(joined.elbo_trace) == joined.iterations + 1


def test_fit_without_a_join_equals_every_start_run_through():
    # an overfit G = 3 on preset 1: no start reaches restart 0's optimum,
    # so every start runs as it would alone
    counts, offsets = preset_1_data(120)
    config = FitConfig(n_starts=3, max_em_iter=60, seed=3)
    result = fit(counts, offsets, 3, EqualK(2), config)
    assert [outcome for _, outcome, _ in result.starts] == ["converged", "capped", "capped"]
    assert_same_fit(result, fit_every_start(counts, offsets, 3, EqualK(2), config))


@pytest.mark.parametrize("G, n_starts", [(1, 3), (2, 1)])
def test_fit_passes_no_incumbent_to_a_lone_start(monkeypatch, G, n_starts):
    counts, offsets, _ = two_group_dataset(seed=31, n=40)
    incumbents = []
    original = vem.fit_from_state

    def spy(*args, incumbent=None, **kwargs):
        incumbents.append(incumbent)
        return original(*args, incumbent=incumbent, **kwargs)

    monkeypatch.setattr(vem, "fit_from_state", spy)
    result = fit(counts, offsets, G, EqualK(2), FitConfig(n_starts=n_starts, max_em_iter=20, seed=0))
    assert incumbents == [None]
    assert [r for r, _, _ in result.starts] == [0]


def test_fit_records_a_failed_start_beside_the_winner(monkeypatch):
    counts, offsets, _ = two_group_dataset(seed=88, n=30)
    original = vem.initialize

    def failing_second(counts, offsets, G, seed, restart):
        if restart == 1:
            raise EmptyComponent("forced failure")
        return original(counts, offsets, G, seed, restart)

    monkeypatch.setattr(vem, "initialize", failing_second)
    result = fit(counts, offsets, 2, EqualK(1), FitConfig(n_starts=2, max_em_iter=10, seed=0))
    assert result.restart == 0
    assert result.starts[1] == (1, "EmptyComponent: forced failure", None)
    assert result.starts[0][0] == 0 and result.starts[0][2] == result.iterations


def test_fit_g1_matches_single_component_math():
    # with one component the bound equals the summed per-observation bounds
    rng = np.random.default_rng(99)
    y = rng.poisson(5.0, size=(40, 3)).astype(np.int64)
    counts = make_counts(y)
    result = fit(
        counts, unit_offsets(40), G=1, k_spec=EqualK(3),
        config=FitConfig(n_starts=1, max_em_iter=40, seed=0),
    )
    s = dense_from_blocks(result.state.s[0], result.state.partitions[0].classes, 3)
    total = sum(
        elbo_observation(
            y[i].astype(float), 0.0,
            result.state.m[i, 0], s[i],
            result.model.mu[0], result.model.sigma[0],
        )
        for i in range(40)
    )
    assert result.lower_bound == pytest.approx(total, rel=1e-10)
    assert np.array_equal(result.labels, np.ones(40, dtype=np.int64))


# ---------------------------------------------------------------------------
# the sweep's row gate

# one start at n = 200: (preset, G, k_spec, restart).  Restart 2 of the
# preset-11 silhouette fit changes partitions mid-fit.
GATE_CASES = {
    "preset4": (4, 2, EqualK(10), 0),
    "preset11": (11, 2, SilhouetteK(5), 2),
    "preset11_g1": (11, 1, SilhouetteK(5), 0),
}


def gate_run(case):
    """Counts, offsets, start state, k_spec and restart of a GATE_CASES entry."""
    preset_id, G, k_spec, restart = GATE_CASES[case]
    spec = replace(preset(preset_id), n=200)
    counts, _ = sample_dataset(spec)
    offsets = spec_offsets(spec)
    return counts, offsets, initialize(counts, offsets, G, 0, restart), k_spec, restart


@functools.lru_cache(maxsize=None)
def gate_fit(case, every_row):
    """The fit of a GATE_CASES entry and the number of (row, block) pairs
    handed to the S-steps.  With ``every_row`` the row choice returns every row: that is
    the reference for the gate."""
    counts, offsets, state, k_spec, restart = gate_run(case)
    rows = []
    original = vem.s_fixed_point_step

    def counting(log_c, m, diag_s, sigma_inv, *buffers):
        # one call steps the blocks of one size: count rows x blocks
        rows.append(m[..., 0].size)
        return original(log_c, m, diag_s, sigma_inv, *buffers)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vem, "s_fixed_point_step", counting)
        if every_row:
            patch.setattr(vem, "_rows_to_sweep", lambda z_g: np.arange(z_g.size))
        result = fit_from_state(counts, offsets, state, k_spec,
                                FitConfig(n_starts=1, seed=0), restart=restart)
    return result, sum(rows)


@pytest.mark.parametrize("case", ["preset4", "preset11"])
def test_row_gate_matches_sweeping_every_row(case):
    # differential test: the pairs the gate skips weigh less than 2.2e-16
    # in the M-step and the bound, so the fits agree to rounding: 1e-10
    # relative on the trace and BIC, exactly on everything discrete
    gated, _ = gate_fit(case, False)
    full, _ = gate_fit(case, True)
    assert gated.iterations == full.iterations
    assert gated.converged == full.converged
    assert np.array_equal(gated.labels, full.labels)
    for ours, ref in zip(gated.model.groupings, full.model.groupings):
        assert np.array_equal(ours.assign, ref.assign)
    np.testing.assert_allclose(gated.elbo_trace, full.elbo_trace, rtol=1e-10, atol=0)
    assert gated.bic == pytest.approx(full.bic, rel=1e-10, abs=0)


def test_row_gate_halves_the_s_steps_of_a_two_component_fit():
    # each preset-4 row belongs to one component with responsibility ~1, so
    # about half of all pairs are skipped; 55% leaves room for the pairs
    # still unresolved in the first passes
    _, gated_rows = gate_fit("preset4", False)
    _, full_rows = gate_fit("preset4", True)
    assert gated_rows <= 0.55 * full_rows


def test_row_gate_leaves_a_single_component_fit_unchanged():
    # with G = 1 every responsibility is 1, so every row is swept: bit for bit
    gated, gated_rows = gate_fit("preset11_g1", False)
    full, full_rows = gate_fit("preset11_g1", True)
    assert gated_rows == full_rows
    assert np.array_equal(gated.elbo_trace, full.elbo_trace)
    assert gated.bic == full.bic
    assert np.array_equal(gated.state.m, full.state.m)


def test_rows_to_sweep_skips_negligible_rows_only_on_the_partition():
    eps = np.finfo(float).eps
    z_g = np.array([1.0, 0.5, 1e-17, 0.0, eps, 0.5 * eps])
    assert vem._rows_to_sweep(z_g).tolist() == [0, 1, 4]


def test_every_sweep_holds_s_on_its_components_partition(monkeypatch):
    # through the partition changes of the preset-11 fit, each sweep gets S
    # on exactly the blocks of its component's Sigma (the connected parts of
    # Sigma's nonzero pattern), never on blocks that span two of them
    counts, offsets, state, k_spec, restart = gate_run("preset11")
    sigma_blocks, swept = {}, []
    candidate, sweep = vem._covariance_candidate, vem._sweep_batch

    def refreshing(*args):
        out = candidate(*args)
        _, labels = connected_components(out.dense() != 0.0, directed=False)
        blocks = [np.flatnonzero(labels == c).tolist() for c in range(labels.max() + 1)]
        sigma_blocks[id(out)] = sorted(blocks)
        return out

    def sweeping(y, log_c, m, s, logdet_s, mu, sigma, *rest):
        swept.append((sorted(idx.tolist() for c in sigma.classes for idx in c.columns),
                      [s_c.shape[:1] + s_c.shape[2:] for s_c in s],
                      [c.columns.shape + c.columns.shape[1:] for c in sigma.classes],
                      sigma_blocks[id(sigma)]))
        return sweep(y, log_c, m, s, logdet_s, mu, sigma, *rest)

    monkeypatch.setattr(vem, "_covariance_candidate", refreshing)
    monkeypatch.setattr(vem, "_sweep_batch", sweeping)
    result = fit_from_state(counts, offsets, state, k_spec, FitConfig(n_starts=1, seed=0),
                            restart=restart)
    # more layouts than components: some component changed its partition
    assert len({str(groups) for groups, _, _, _ in swept}) > state.G
    for groups, shapes, class_shapes, blocks in swept:
        assert groups == blocks
        assert shapes == class_shapes
    for g, part in enumerate(result.model.groupings):
        assert np.array_equal(result.state.partitions[g].assign, part.assign)


# ---------------------------------------------------------------------------
# serialization


def test_result_round_trip(tmp_path):
    counts, offsets, _ = two_group_dataset(n=60)
    result = fit(
        counts, offsets, G=2, k_spec=EqualK(2),
        config=FitConfig(n_starts=1, max_em_iter=40, seed=5),
    )
    path = tmp_path / "result.json"
    save_result(result, path)
    loaded = load_result(path)
    assert loaded.state is None
    assert np.array_equal(loaded.labels, result.labels)
    assert np.array_equal(loaded.elbo_trace, result.elbo_trace)
    assert loaded.lower_bound == result.lower_bound
    assert loaded.bic == result.bic
    assert loaded.converged == result.converged
    assert loaded.iterations == result.iterations
    assert loaded.restart == result.restart
    assert loaded.starts == result.starts == ((0, "capped", 40),)
    assert np.array_equal(loaded.model.sigma, result.model.sigma)
    assert np.array_equal(loaded.model.mu, result.model.mu)


def test_load_result_reads_a_file_without_starts(tmp_path):
    counts, offsets, _ = two_group_dataset(n=60)
    result = fit(counts, offsets, G=2, k_spec=EqualK(2),
                 config=FitConfig(n_starts=1, max_em_iter=5, seed=5))
    payload = vem.result_to_dict(result)
    del payload["starts"]
    path = tmp_path / "result.json"
    write_json(payload, path)
    loaded = load_result(path)
    assert loaded.starts == ()
    assert np.array_equal(loaded.labels, result.labels)


def test_save_labels_format(tmp_path):
    path = tmp_path / "labels.csv"
    save_labels(("a", "b", "c"), np.array([2, 1, 2]), path)
    lines = path.read_text().splitlines()
    assert lines == ["sample_id,cluster", "a,2", "b,1", "c,2"]
