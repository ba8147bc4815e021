from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from single_observation import elbo_observation
from mplnbicluster.colgroup import ColumnPartition
from mplnbicluster.errors import LengthMismatch, NotPositiveDefinite
from mplnbicluster.model import (
    MixtureModel,
    VariationalState,
    count_free_parameters,
    load_model,
    log_factorial,
    lower_bound,
    model_from_dict,
    model_to_dict,
    posterior,
    save_model,
)

E_HALF = float(np.exp(0.5))


# ---------------------------------------------------------------------------
# log y! and the scipy-free import


def test_log_factorial_matches_gammaln():
    # every count 0..10^6, with repeats, in rows of uneven content
    y = np.arange(10**6 + 1).reshape(-1, 1)
    np.testing.assert_allclose(log_factorial(y), gammaln(y + 1.0)[:, 0], rtol=1e-14, atol=0)
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 10**6, size=(200, 7)) * rng.integers(0, 2, size=(200, 7))
    np.testing.assert_allclose(log_factorial(counts), gammaln(counts + 1.0).sum(axis=1),
                               rtol=1e-14, atol=0)
    assert log_factorial(np.zeros((3, 0))).shape == (3,)


def test_importing_the_cli_loads_no_scipy_special_or_optimize():
    # fitting never needs scipy: log y! comes from math.lgamma, and only
    # evaluate's assignment functions import scipy.optimize, when called
    code = ("import sys, mplnbicluster.cli; "
            "print(sorted(m for m in ('scipy.special', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# single-observation ELBO


def test_elbo_standard_cell_d1():
    # y=0, C=1, m=0, S=1, mu=0, sigma=1:
    # -1/2 (trace) + 1/2 (d/2) - e^{1/2} (rate term) = -e^{1/2}
    val = elbo_observation(
        np.array([0]), 0.0, np.array([0.0]), np.array([[1.0]]), np.array([0.0]), np.array([[1.0]])
    )
    assert val == pytest.approx(-E_HALF, rel=1e-12)


def test_elbo_standard_cell_d2_doubles():
    val = elbo_observation(
        np.array([0, 0]), 0.0, np.zeros(2), np.eye(2), np.zeros(2), np.eye(2)
    )
    assert val == pytest.approx(-2.0 * E_HALF, rel=1e-12)


def test_elbo_direct_formula_oracle():
    # Independent longhand evaluation of the same expression.
    rng = np.random.default_rng(101)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        y = rng.poisson(3.0, size=d).astype(float)
        log_c = float(rng.normal(0.0, 0.5))
        m = rng.normal(0.0, 1.0, size=d)
        a = rng.standard_normal((d, d))
        s = a @ a.T + 0.5 * np.eye(d)
        mu = rng.normal(0.0, 1.0, size=d)
        b = rng.standard_normal((d, d))
        sigma = b @ b.T + 0.5 * np.eye(d)

        sigma_inv = np.linalg.inv(sigma)
        expected = (
            -0.5 * (m - mu) @ sigma_inv @ (m - mu)
            - 0.5 * np.trace(sigma_inv @ s)
            + 0.5 * np.linalg.slogdet(s)[1]
            - 0.5 * np.linalg.slogdet(sigma)[1]
            + 0.5 * d
            + m @ y
            + log_c * y.sum()
            - np.exp(log_c + m + 0.5 * np.diag(s)).sum()
            - gammaln(y + 1.0).sum()
        )
        got = elbo_observation(y, log_c, m, s, mu, sigma)
        assert got == pytest.approx(expected, rel=1e-10)


def log_marginal_gh_1d(y, log_c, mu, var, nodes=200):
    """Gauss-Hermite log marginal likelihood for d=1: oracle."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    x = mu + np.sqrt(2.0 * var) * t
    log_rate = log_c + x
    log_pois = y * log_rate - np.exp(log_rate) - gammaln(y + 1.0)
    return float(logsumexp(np.log(w / np.sqrt(np.pi)) + log_pois))


def test_elbo_below_log_marginal_d1():
    rng = np.random.default_rng(103)
    for _ in range(40):
        y = float(rng.poisson(4.0))
        log_c = float(rng.normal(0.0, 0.3))
        mu = float(rng.normal(0.5, 1.0))
        var = float(rng.uniform(0.2, 2.0))
        m = float(rng.normal(mu, 1.0))
        s = float(rng.uniform(0.05, 1.5))
        bound = elbo_observation(
            np.array([y]), log_c, np.array([m]), np.array([[s]]), np.array([mu]), np.array([[var]])
        )
        assert bound <= log_marginal_gh_1d(y, log_c, mu, var) + 1e-9


def test_elbo_gradient_matches_finite_differences():
    rng = np.random.default_rng(107)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        y = rng.poisson(5.0, size=d).astype(float)
        log_c = float(rng.normal(0.0, 0.4))
        m = rng.normal(0.0, 0.8, size=d)
        s = np.diag(rng.uniform(0.1, 1.0, size=d))
        mu = rng.normal(0.5, 0.8, size=d)
        b = rng.standard_normal((d, d))
        sigma = b @ b.T + 0.5 * np.eye(d)

        analytic = y - np.exp(log_c + m + 0.5 * np.diag(s)) - np.linalg.inv(sigma) @ (m - mu)
        eps = 1e-6
        for j in range(d):
            up, dn = m.copy(), m.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (
                elbo_observation(y, log_c, up, s, mu, sigma)
                - elbo_observation(y, log_c, dn, s, mu, sigma)
            ) / (2.0 * eps)
            assert fd == pytest.approx(analytic[j], rel=2e-5, abs=2e-5)


# ---------------------------------------------------------------------------
# responsibilities / bounds


def test_responsibilities_two_close_components():
    elbo = np.array([[-1000.0, -1001.0]])
    z = posterior(elbo, np.array([0.5, 0.5]))[1]
    expected = 1.0 / (1.0 + np.exp(-1.0))
    assert z[0, 0] == pytest.approx(expected, rel=1e-12)
    assert z[0].sum() == pytest.approx(1.0, abs=1e-15)


def test_responsibilities_shift_invariant():
    rng = np.random.default_rng(109)
    elbo = rng.normal(-500.0, 30.0, size=(6, 3))
    pi = np.array([0.2, 0.5, 0.3])
    base = posterior(elbo, pi)[1]
    shifted = posterior(elbo + 12345.0, pi)[1]
    np.testing.assert_allclose(base, shifted, atol=1e-13)


def test_responsibilities_extreme_gaps_no_nan():
    elbo = np.array([[0.0, -5000.0], [-5000.0, 0.0]])
    z = posterior(elbo, np.array([0.5, 0.5]))[1]
    assert np.all(np.isfinite(z))
    assert np.all(z > 0.0)  # floored, never exactly zero
    np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)


def test_lower_bound_single_component_sums_elbo():
    rng = np.random.default_rng(113)
    elbo = rng.normal(-50.0, 5.0, size=(7, 1))
    z = np.ones((7, 1))
    assert lower_bound(elbo, z, np.array([1.0])) == pytest.approx(elbo.sum(), rel=1e-14)


def test_lower_bound_direct_summation_oracle():
    rng = np.random.default_rng(127)
    n, G = 9, 3
    elbo = rng.normal(-40.0, 8.0, size=(n, G))
    z = rng.dirichlet(np.ones(G), size=n)
    pi = rng.dirichlet(np.ones(G))
    expected = sum(
        z[i, g] * (np.log(pi[g]) + elbo[i, g]) for i in range(n) for g in range(G)
    )
    assert lower_bound(elbo, z, pi) == pytest.approx(expected, rel=1e-12)


def test_observed_bound_is_lse_and_dominates_lower_bound():
    rng = np.random.default_rng(131)
    n, G = 12, 3
    elbo = rng.normal(-60.0, 10.0, size=(n, G))
    pi = rng.dirichlet(np.ones(G))
    direct = sum(logsumexp(np.log(pi) + elbo[i]) for i in range(n))
    got = posterior(elbo, pi)[0]
    assert got == pytest.approx(direct, rel=1e-12)
    z = posterior(elbo, pi)[1]
    lb = lower_bound(elbo, z, pi)
    assert got >= lb - 1e-10
    # equality up to the entropy of the responsibilities
    entropy = -float(np.sum(z * np.log(z)))
    assert got == pytest.approx(lb + entropy, rel=1e-10)


def test_bounds_invariant_under_component_relabeling():
    rng = np.random.default_rng(137)
    elbo = rng.normal(-30.0, 5.0, size=(8, 4))
    pi = rng.dirichlet(np.ones(4))
    z = posterior(elbo, pi)[1]
    perm = np.array([2, 0, 3, 1])
    assert posterior(elbo[:, perm], pi[perm])[0] == pytest.approx(
        posterior(elbo, pi)[0], rel=1e-13
    )
    assert lower_bound(elbo[:, perm], z[:, perm], pi[perm]) == pytest.approx(
        lower_bound(elbo, z, pi), rel=1e-13
    )
    np.testing.assert_allclose(posterior(elbo[:, perm], pi[perm])[1], z[:, perm], atol=1e-14)


# ---------------------------------------------------------------------------
# free parameters


def test_count_free_parameters_single_gaussian():
    assert count_free_parameters(1, 1, ((1,),)) == 2


def test_count_free_parameters_equal_blocks():
    assert count_free_parameters(2, 10, ((5, 5), (5, 5))) == 81


def test_count_free_parameters_varying_blocks():
    assert count_free_parameters(2, 10, ((5, 5), (4, 3, 3))) == 73


def test_count_free_parameters_dense_vs_diagonal():
    dense = count_free_parameters(1, 6, ((6,),))
    diag = count_free_parameters(1, 6, ((1,) * 6,))
    assert dense == 6 + 21
    assert diag == 6 + 6


def test_count_free_parameters_validates():
    with pytest.raises(LengthMismatch):
        count_free_parameters(2, 10, ((5, 5),))
    with pytest.raises(LengthMismatch):
        count_free_parameters(1, 10, ((5, 4),))


# ---------------------------------------------------------------------------
# model container + JSON


def toy_model():
    part1 = ColumnPartition(np.array([1, 1, 2]), 2)
    part2 = ColumnPartition(np.array([1, 2, 2]), 2)
    sigma1 = np.array([[1.0, 0.4, 0.0], [0.4, 1.2, 0.0], [0.0, 0.0, 0.8]])
    sigma2 = np.array([[0.9, 0.0, 0.0], [0.0, 1.1, -0.3], [0.0, -0.3, 1.5]])
    return MixtureModel(
        np.array([0.25, 0.75]),
        np.array([[1.0, 2.0, 3.0], [0.5, 0.1, -0.2]]),
        np.stack([sigma1, sigma2]),
        (part1, part2),
    )


def test_model_validation_rejects_bad_inputs():
    good = toy_model()
    with pytest.raises(ValueError):
        MixtureModel(np.array([0.5, 0.6]), good.mu, good.sigma, good.groupings)
    leaky = good.sigma.copy()
    leaky[0, 0, 2] = leaky[0, 2, 0] = 0.1  # crosses the (1,1,2) partition
    with pytest.raises(ValueError, match="outside"):
        MixtureModel(good.pi, good.mu, leaky, good.groupings)
    indef = good.sigma.copy()
    indef[1, 1, 2] = indef[1, 2, 1] = 5.0
    with pytest.raises(NotPositiveDefinite):
        MixtureModel(good.pi, good.mu, indef, good.groupings)

    asym = good.sigma.copy()
    asym[0, 0, 1] = 0.5  # symmetric no more
    with pytest.raises(ValueError, match="symmetric"):
        MixtureModel(good.pi, good.mu, asym, good.groupings)


def test_model_rejects_nan_in_pi(tmp_path):
    good = toy_model()
    with pytest.raises(ValueError, match="pi must be"):
        MixtureModel(np.array([float("nan"), 1.0]), good.mu, good.sigma, good.groupings)
    payload = model_to_dict(good)
    payload["pi"] = [float("nan"), 0.5]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))  # written as the JSON extension NaN
    with pytest.raises(ValueError, match="pi must be"):
        load_model(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_model_rejects_non_finite_mu(tmp_path, bad):
    good = toy_model()
    mu = good.mu.copy()
    mu[1, 0] = bad
    with pytest.raises(ValueError, match="mu must be finite"):
        MixtureModel(good.pi, mu, good.sigma, good.groupings)
    part = ColumnPartition(np.array([1, 2]), 2)
    with pytest.raises(ValueError, match="mu must be finite"):
        MixtureModel(np.array([1.0]), np.array([[bad, 0.0]]), np.eye(2)[None], (part,))
    payload = model_to_dict(good)
    payload["mu"][1][0] = bad
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))  # written as the JSON extension NaN/Infinity
    with pytest.raises(ValueError, match="mu must be finite"):
        load_model(path)


@pytest.mark.parametrize("blocks", [[[0], [1, 3]], [[0], [1, -1]], [[0, 1], [1, 2]], [[0], [1, 2.7]]],
                         ids=["past-d", "negative", "repeated", "fractional"])
def test_load_model_rejects_blocks_that_miss_a_column(tmp_path, blocks):
    # used as indices unchecked, 3 would raise IndexError, and silently -1
    # would name column 2, the repeated 1 would move to the later block
    # and 2.7 would be cut to 2
    payload = model_to_dict(toy_model())
    payload["blocks"][1] = blocks
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"blocks of component 2 must list each column 0\.\.2 once"):
        load_model(path)


def test_model_free_parameter_property():
    assert toy_model().n_free_parameters == 1 + 6 + (3 + 1) + (1 + 3)


def test_model_json_round_trip_exact(tmp_path):
    model = toy_model()
    payload = json.loads(json.dumps(model_to_dict(model)))
    back = model_from_dict(payload)
    np.testing.assert_array_equal(back.pi, model.pi)
    np.testing.assert_array_equal(back.mu, model.mu)
    np.testing.assert_array_equal(back.sigma, model.sigma)
    for a, b in zip(back.groupings, model.groupings):
        np.testing.assert_array_equal(a.assign, b.assign)

    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    np.testing.assert_array_equal(again.sigma, model.sigma)


def test_model_json_blocks_are_variable_indices():
    payload = model_to_dict(toy_model())
    assert payload["blocks"][0] == [[0, 1], [2]]
    assert payload["blocks"][1] == [[0], [1, 2]]


# ---------------------------------------------------------------------------
# variational state


def test_variational_state_validation():
    n, G, d = 4, 2, 3
    m = np.zeros((n, G, d))
    partitions = (ColumnPartition(np.array([1, 2, 1]), 2),) * G
    s = ((np.broadcast_to(np.eye(2), (1, n, 2, 2)), np.ones((1, n, 1, 1))),) * G
    z = np.full((n, G), 0.5)
    state = VariationalState(m, s, z, partitions)
    assert state.n == n and state.G == G
    with pytest.raises(ValueError):
        VariationalState(m, s, np.full((n, G), 0.4), partitions)
    # one component's S or partition missing
    with pytest.raises(LengthMismatch):
        VariationalState(m, s[:1], z, partitions)
    with pytest.raises(LengthMismatch):
        VariationalState(m, s, z, partitions[:1])
    # a partition of another number of columns
    with pytest.raises(LengthMismatch):
        VariationalState(m, s, z, (ColumnPartition(np.array([1, 2]), 2), partitions[1]))
    # a class stack of the wrong block size, block count or number of rows
    for stack in (np.ones((1, n, 2, 2)), np.ones((2, n, 1, 1)), np.ones((1, n + 1, 1, 1))):
        with pytest.raises(LengthMismatch):
            VariationalState(m, (s[0], (s[1][0], stack)), z, partitions)
    with pytest.raises(LengthMismatch):
        VariationalState(m, (s[0], s[1][:1]), z, partitions)


def test_variational_state_rejects_a_nan_z_row():
    n, G, d = 3, 2, 2
    z = np.full((n, G), 0.5)
    z[1] = np.nan
    partitions = (ColumnPartition(np.ones(d, dtype=np.int64), 1),) * G
    s = ((np.broadcast_to(np.eye(d), (1, n, d, d)),),) * G
    with pytest.raises(ValueError, match="z rows"):
        VariationalState(np.zeros((n, G, d)), s, z, partitions)
