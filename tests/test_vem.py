"""Tests for the variational EM engine."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from dense_reference import blocks_from_dense, dense_from_blocks
from mplnbicluster.data import CountMatrix, OffsetVector
from mplnbicluster.errors import AllRestartsFailed, EmptyComponent, NotPositiveDefinite
from mplnbicluster.model import (
    elbo_batch,
    elbo_observation,
    observed_bound,
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
    update_variational,
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
    assert config.max_em_iter == 500
    assert config.elbo_rel_tol == 1e-6
    assert config.inner_iter == 10
    assert config.inner_tol == 1e-6
    assert config.n_starts == 5
    assert config.linkage == "average"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_em_iter": 0},
        {"elbo_rel_tol": 0.0},
        {"inner_iter": 0},
        {"inner_tol": -1e-6},
        {"n_starts": 0},
        {"linkage": "ward"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        FitConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [("elbo_rel_tol", float("nan")), ("elbo_rel_tol", float("inf")),
     ("inner_tol", float("nan")), ("inner_tol", True), ("max_em_iter", 2.5),
     ("max_em_iter", True), ("inner_iter", 3.0), ("n_starts", False),
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
    s_new, logdet = s_fixed_point_step(
        np.zeros(1), np.zeros((1, 1)), np.ones((1, 1, 1)), np.ones((1, 1))
    )
    expected = 1.0 / (1.0 + np.exp(0.5))
    assert s_new[0, 0, 0] == pytest.approx(expected, abs=1e-12)
    assert s_new[0, 0, 0] == pytest.approx(0.37754, abs=5e-6)
    assert logdet[0] == pytest.approx(np.log(expected), abs=1e-12)


def test_s_fixed_point_rejects_indefinite_precision():
    # a failed factorization of Sigma^-1 + diag(lambda) is a typed package
    # error, so callers need no numpy exception of their own
    with pytest.raises(NotPositiveDefinite):
        s_fixed_point_step(
            np.zeros(1), np.zeros((1, 2)), np.eye(2)[None], -10.0 * np.eye(2)
        )


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
        s_new, _ = s_fixed_point_step(log_c, m, s, np.diag(1.0 / diag))
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
    with pytest.raises(NotPositiveDefinite):
        elbo_batch(y[None], np.zeros(1), m[None], [s[None]], mu, [np.eye(3)], 0.0,
                   groups=(np.arange(3),))
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
    w = compute_scatter(z, m, [s], np.zeros(2), (np.arange(2),))
    # mean of outer products diag (1, 0) plus mean S diag (0.3, 0.3)
    assert np.allclose(w, np.diag([1.3, 0.3]), atol=1e-12)


def test_compute_scatter_symmetric_psd():
    rng = np.random.default_rng(5)
    z = rng.uniform(0.1, 1.0, size=8)
    m = rng.normal(size=(8, 3))
    s = np.broadcast_to(np.eye(3) * 0.1, (8, 3, 3)).copy()
    w = compute_scatter(z, m, [s], rng.normal(size=3), (np.arange(3),))
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
    # S is 0.1 * I, stored as one 1 x 1 block per column and component
    for g in range(2):
        assert [idx.tolist() for idx in state.groups[g]] == [[0], [1]]
        assert [b.shape for b in state.s[g]] == [(4, 1, 1), (4, 1, 1)]
        assert np.array_equal(dense_from_blocks(state.s[g], state.groups[g], 2),
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
    from mplnbicluster.linalg import cholesky, inv_logdet_from_cholesky
    from mplnbicluster.model import elbo_batch
    from scipy.special import gammaln

    y = counts.counts.astype(float)
    log_fact = gammaln(y + 1.0).sum(axis=1)
    f = np.empty((50, 2))
    for g in range(2):
        inv, logdet = inv_logdet_from_cholesky(cholesky(result.model.sigma[g]))
        groups = result.state.groups[g]
        f[:, g] = elbo_batch(
            y, offsets.log,
            result.state.m[:, g], result.state.s[g],
            result.model.mu[g], blocks_from_dense(inv, groups), logdet,
            log_fact=log_fact, groups=groups,
        )
    assert observed_bound(f, result.model.pi) == pytest.approx(
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
        groups=state.groups[::-1],
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


def test_fit_g1_matches_single_component_math():
    # with one component the bound equals the summed per-observation bounds
    rng = np.random.default_rng(99)
    y = rng.poisson(5.0, size=(40, 3)).astype(np.int64)
    counts = make_counts(y)
    result = fit(
        counts, unit_offsets(40), G=1, k_spec=EqualK(3),
        config=FitConfig(n_starts=1, max_em_iter=40, seed=0),
    )
    s = dense_from_blocks(result.state.s[0], result.state.groups[0], 3)
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
    assert np.array_equal(loaded.model.sigma, result.model.sigma)
    assert np.array_equal(loaded.model.mu, result.model.mu)


def test_save_labels_format(tmp_path):
    path = tmp_path / "labels.csv"
    save_labels(("a", "b", "c"), np.array([2, 1, 2]), path)
    lines = path.read_text().splitlines()
    assert lines == ["sample_id,cluster", "a,2", "b,1", "c,2"]
