"""Acceptance suite: one test per criterion, thresholds pinned in-line.

Each test prints a single summary line (visible with ``pytest -s``, and in
the captured output on failure) so a run reads as ten pass/fail verdicts.
The two replicate studies share session fixtures; everything else builds
its own small inputs.
"""

import json
import time
from dataclasses import replace
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from single_observation import elbo_observation, update_variational
from mplnbicluster.cli import main as cli_main
from mplnbicluster.colgroup import ColumnPartition, silhouette
from mplnbicluster.data import CountMatrix, OffsetVector, load_counts
from mplnbicluster.evaluate import (
    align_components,
    ari,
    column_misclassification,
    evaluate_fit,
    support_count_heatmap,
)
from mplnbicluster.model import load_model
from mplnbicluster.seeding import TAG_REPLICATE, derive_seed
from mplnbicluster.select import GRID_COLUMNS, fit_varying_k, grid_search_equal_k
from mplnbicluster.simulate import preset, sample_dataset, spec_offsets
from mplnbicluster.vem import EqualK, FitConfig, fit

REPLICATES = 10
JOBS = 4
BUNDLED_SPEC = Path(__file__).resolve().parent.parent / "data" / "pseudo_tcga_spec.json"


def _replicate(spec, r):
    return replace(spec, seed=int(derive_seed(spec.seed, TAG_REPLICATE, r)))


# ---------------------------------------------------------------------------
# shared replicate studies


@pytest.fixture(scope="session")
def study1():
    """Ten preset(1) replicates through the equal-K selection grid."""
    spec = preset(1)
    t0 = time.perf_counter()
    runs = []
    for r in range(REPLICATES):
        rep = _replicate(spec, r)
        counts, truth = sample_dataset(rep)
        config = FitConfig(n_starts=2, max_em_iter=200, seed=rep.seed)
        best, grid = grid_search_equal_k(
            counts, spec_offsets(rep), 3, 3, config, jobs=JOBS
        )
        runs.append(
            {
                "truth": truth,
                "best": best,
                "grid": grid,
                "report": evaluate_fit(truth, best.model, best.labels),
            }
        )
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_01_study1_selection_ari_misclassification(study1):
    runs, elapsed = study1
    selected = sum(
        1 for run in runs
        if run["grid"].best_g == 2 and run["grid"].best_k_label == "2"
    )
    mean_ari = float(np.mean([run["report"].row_ari for run in runs]))
    zero_mis = sum(1 for run in runs if run["report"].col_misclass_mean == 0.0)
    print(
        f"criterion 1: (2,2) selected {selected}/10, mean ARI {mean_ari:.4f}, "
        f"zero column misclassification {zero_mis}/10, {elapsed:.0f}s"
    )
    assert selected >= 9
    assert mean_ari >= 0.95
    assert zero_mis >= 9
    assert elapsed < 900.0  # <= 15 min budget


def test_criterion_02_study11_varying_k():
    spec = preset(11)
    correct = 0
    aris = []
    for r in range(REPLICATES):
        rep = _replicate(spec, r)
        counts, truth = sample_dataset(rep)
        config = FitConfig(n_starts=2, max_em_iter=200, seed=rep.seed)
        best, grid = fit_varying_k(counts, spec_offsets(rep), 3, 5, config, jobs=JOBS)
        report = evaluate_fit(truth, best.model, best.labels)
        aris.append(report.row_ari)
        if best.model.G == 2:
            perm = align_components(truth.row_labels, best.labels, 2)
            ks = tuple(best.model.groupings[perm[t]].k for t in range(2))
            if ks == (2, 3):
                correct += 1
    mean_ari = float(np.mean(aris))
    print(
        f"criterion 2: correct (G; K1,K2)=(2; 2,3) in {correct}/10, "
        f"mean ARI {mean_ari:.4f}"
    )
    assert correct >= 8
    assert mean_ari >= 0.90


def test_criterion_03_support_recovery(study1):
    runs, _ = study1
    selected = [
        run for run in runs
        if run["grid"].best_g == 2 and run["grid"].best_k_label == "2"
    ]
    assert selected, "criterion 1 guarantees selected replicates exist"
    truth_model = selected[0]["truth"].model
    patterns = [
        (np.abs(truth_model.sigma[t]) > 0).astype(np.int64) for t in range(2)
    ]
    exact = True
    for t in range(2):
        heat = support_count_heatmap(
            [run["report"].support_counts[t] for run in selected]
        )
        if not np.array_equal(heat, len(selected) * patterns[t]):
            exact = False
    print(
        f"criterion 3: exact block support in all {len(selected)} selected "
        f"replicates for both components: {exact}"
    )
    assert exact


def test_criterion_04_parameter_recovery(study1):
    runs, _ = study1
    mu_mse = np.nanmean([run["report"].mu_mse for run in runs], axis=0)
    pi_mse = np.nanmean([run["report"].pi_mse for run in runs], axis=0)
    print(
        f"criterion 4: mean mu-MSE per component {np.round(mu_mse, 5).tolist()} "
        f"(<= 0.05), mean pi-MSE {np.round(pi_mse, 6).tolist()} (<= 5e-3)"
    )
    assert np.all(mu_mse <= 0.05)
    assert np.all(pi_mse <= 5e-3)


# ---------------------------------------------------------------------------
# bound and EM guarantees


def _log_poisson(y, log_lam):
    return y * log_lam - np.exp(log_lam) - gammaln(y + 1.0)


def _quad_log_marginal(y, log_c, mu, sigma, center, spread):
    """Gauss-Hermite log marginal likelihood for d <= 2.

    Exact change of variables x = center + sqrt(2)*L*t with L from the
    (inflated) posterior-shaped ``spread``, so the nodes resolve the
    integrand's peak even when the likelihood is much narrower than the
    prior.  ``center``/``spread`` only move the nodes; the integrand is
    still prior times likelihood.
    """
    d = len(y)
    nodes, weights = np.polynomial.hermite.hermgauss(120 if d == 1 else 80)
    lower = np.linalg.cholesky(spread) * 1.4
    if d == 1:
        t = nodes[None, :]
        log_w = np.log(weights)
    else:
        t1, t2 = np.meshgrid(nodes, nodes, indexing="ij")
        t = np.stack([t1.ravel(), t2.ravel()])
        lw = np.log(weights)
        log_w = (lw[:, None] + lw[None, :]).ravel()
    x = center[:, None] + np.sqrt(2.0) * (lower @ t)
    resid = x - mu[:, None]
    quad = np.einsum("ij,ik,kj->j", resid, np.linalg.inv(sigma), resid)
    log_prior = (
        -0.5 * d * np.log(2.0 * np.pi)
        - 0.5 * np.linalg.slogdet(sigma)[1]
        - 0.5 * quad
    )
    log_lik = _log_poisson(y[:, None], log_c + x).sum(axis=0)
    log_jac = 0.5 * d * np.log(2.0) + np.log(np.diag(lower)).sum()
    return float(
        logsumexp(log_w + (t * t).sum(axis=0) + log_prior + log_lik) + log_jac
    )


def test_criterion_05_elbo_below_quadrature_marginal():
    rng = np.random.default_rng(505)
    worst = -np.inf
    for case in range(50):
        d = 1 if case < 25 else 2
        mu = rng.uniform(-1.0, 2.5, size=d)
        var = rng.uniform(0.3, 1.5, size=d)
        if d == 1:
            sigma = np.array([[var[0]]])
        else:
            rho = rng.uniform(-0.7, 0.7)
            off = rho * np.sqrt(var[0] * var[1])
            sigma = np.array([[var[0], off], [off, var[1]]])
        c = rng.uniform(0.5, 2.0)
        log_c = float(np.log(c))
        x = rng.multivariate_normal(mu, sigma)
        y = rng.poisson(c * np.exp(x)).astype(float)
        m0 = np.log((y + 0.5) / c)
        m, s = update_variational(
            y, log_c, m0, 0.1 * np.eye(d), mu, sigma,
            inner_iter=200, inner_tol=1e-12,
        )
        bound = elbo_observation(y, log_c, m, s, mu, sigma)
        margin = bound - _quad_log_marginal(y, log_c, mu, sigma, m, s)
        worst = max(worst, margin)
    print(f"criterion 5: max over 50 cases of (ELBO - log marginal) = {worst:.3e}")
    assert worst <= 1e-9  # margin >= -1e-9 in the stated orientation


def test_criterion_06_em_monotonicity():
    rng = np.random.default_rng(606)
    worst = np.inf
    for i in range(20):
        n = int(rng.integers(25, 50))
        d = int(rng.integers(2, 5))
        g = int(rng.integers(1, 3))
        x = rng.normal(loc=rng.uniform(0.3, 1.8), scale=0.7, size=(n, d))
        y = rng.poisson(np.exp(x)).astype(np.int64)
        counts = CountMatrix(
            y,
            tuple(f"s{j}" for j in range(n)),
            tuple(f"v{j}" for j in range(d)),
        )
        offsets = OffsetVector(np.ones(n))
        result = fit(
            counts, offsets, G=g, k_spec=EqualK(min(2, d)),
            config=FitConfig(n_starts=1, max_em_iter=60, seed=i),
        )
        trace = result.elbo_trace
        rel = (trace[1:] - trace[:-1]) / np.maximum(1.0, np.abs(trace[:-1]))
        worst = min(worst, float(rel.min()) if rel.size else 0.0)
    print(f"criterion 6: smallest relative ELBO increment over 20 fits = {worst:.3e}")
    assert worst >= -1e-8


def test_criterion_07_variational_stationarity_1d():
    rng = np.random.default_rng(707)
    worst_grad = 0.0
    worst_fp = 0.0
    for _ in range(25):
        y = np.array([float(rng.poisson(rng.uniform(1.0, 8.0)))])
        mu = np.array([rng.normal()])
        var = float(rng.uniform(0.4, 2.0))
        log_c = float(rng.normal(scale=0.3))
        m, s = update_variational(
            y, log_c, np.zeros(1), 0.1 * np.eye(1), mu, np.array([[var]]),
            inner_iter=500, inner_tol=1e-13,
        )
        lam = float(np.exp(log_c + m[0] + 0.5 * s[0, 0]))
        grad_m = y[0] - lam - (m[0] - mu[0]) / var
        fp_resid = s[0, 0] - 1.0 / (1.0 / var + lam)
        worst_grad = max(worst_grad, abs(float(grad_m)))
        worst_fp = max(worst_fp, abs(float(fp_resid)))
    print(
        f"criterion 7: max |dF/dm| = {worst_grad:.2e} (<= 1e-5), "
        f"max S fixed-point residual = {worst_fp:.2e} (<= 1e-6)"
    )
    assert worst_grad <= 1e-5
    assert worst_fp <= 1e-6


# ---------------------------------------------------------------------------
# metric oracles


def _pair_ari_oracle(a, b):
    """Hubert-Arabie ARI by direct enumeration of the C(n,2) pairs."""
    n = len(a)
    n11 = together_a = together_b = 0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            together_a += same_a
            together_b += same_b
            n11 += same_a and same_b
    expected = together_a * together_b / pairs
    maximum = 0.5 * (together_a + together_b)
    if maximum == expected:
        return 1.0
    return (n11 - expected) / (maximum - expected)


def _silhouette_oracle(dist, assign):
    k = assign.max()
    scores = []
    for i in range(len(assign)):
        own = np.flatnonzero(assign == assign[i])
        if own.size == 1:
            scores.append(0.0)
            continue
        a = dist[i, own[own != i]].mean()
        b = min(
            dist[i, np.flatnonzero(assign == c)].mean()
            for c in range(1, k + 1)
            if c != assign[i]
        )
        top = max(a, b)
        scores.append(0.0 if top == 0.0 else (b - a) / top)
    return float(np.mean(scores))


def _misclass_oracle(truth, est):
    m = max(truth.max(), est.max())
    best = 1.0
    for perm in permutations(range(1, m + 1)):
        mapped = np.array([perm[v - 1] for v in est])
        best = min(best, float(np.mean(mapped != truth)))
    return best


def _random_partition(rng, d, k):
    while True:
        assign = rng.integers(1, k + 1, size=d)
        if len(np.unique(assign)) == k:
            return assign


def test_criterion_08_metric_oracles():
    # ARI: every pair of labelings with n <= 6 and up to 3 groups
    checked = 0
    for n in range(2, 7):
        labelings = [np.array(lab) for lab in product((1, 2, 3), repeat=n)]
        for a in labelings:
            for b in labelings:
                assert abs(ari(a, b) - _pair_ari_oracle(a, b)) <= 1e-12
                checked += 1

    # silhouette against the direct per-point formula
    rng = np.random.default_rng(808)
    for _ in range(100):
        d = int(rng.integers(3, 9))
        k = int(rng.integers(2, d))
        raw = rng.uniform(0.1, 2.0, size=(d, d))
        dist = 0.5 * (raw + raw.T)
        np.fill_diagonal(dist, 0.0)
        assign = _random_partition(rng, d, k)
        part = ColumnPartition(assign, k)
        assert silhouette(dist, part) == pytest.approx(
            _silhouette_oracle(dist, assign), abs=1e-12
        )

    # column misclassification against full-permutation search, K <= 5
    for _ in range(100):
        d = int(rng.integers(5, 11))
        k_true = int(rng.integers(1, 6))
        k_est = int(rng.integers(1, 6))
        truth = ColumnPartition(_random_partition(rng, d, k_true), k_true)
        est = ColumnPartition(_random_partition(rng, d, k_est), k_est)
        got = column_misclassification(truth, est)
        want = _misclass_oracle(truth.assign, est.assign)
        assert got == pytest.approx(want, abs=1e-15)

    print(
        f"criterion 8: ARI exact on {checked} labeling pairs; silhouette and "
        f"misclassification each match their oracle on 100 random instances"
    )


# ---------------------------------------------------------------------------
# pipeline smoke test and determinism


def test_criterion_09_pseudo_tcga_pipeline(tmp_path):
    t0 = time.perf_counter()
    sim, fit_out = tmp_path / "sim", tmp_path / "fit"
    eval_out, rep_out = tmp_path / "eval", tmp_path / "rep"
    assert cli_main(
        ["simulate", "--spec", str(BUNDLED_SPEC),
         "--no-timestamp", "-o", str(sim)]
    ) == 0
    assert cli_main(
        ["fit", "--counts", str(sim / "counts.csv"),
         "--offsets", str(sim / "offsets.txt"),
         "--mode", "varying-k", "--gmax", "2", "--kmax", "4",
         "--n-starts", "2", "--max-em-iter", "150", "--seed", "7",
         "--jobs", str(JOBS), "--no-timestamp", "-o", str(fit_out)]
    ) == 0
    assert cli_main(
        ["evaluate", "--truth", str(sim / "truth.json"),
         "--result", str(fit_out / "result.json"),
         "--no-timestamp", "-o", str(eval_out)]
    ) == 0
    assert cli_main(
        ["report", "--report", str(eval_out / "report.json"),
         "--no-timestamp", "-o", str(rep_out)]
    ) == 0
    elapsed = time.perf_counter() - t0

    counts = load_counts(sim / "counts.csv")
    assert (counts.n, counts.d) == (120, 30)
    model = load_model(fit_out / "model.json")  # validates the full schema
    assert model.d == 30
    grid_lines = (fit_out / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == ",".join(GRID_COLUMNS)
    assert len(grid_lines) == 1 + 2  # one varying-K cell per G
    labels_lines = (fit_out / "labels.csv").read_text().splitlines()
    assert labels_lines[0] == "sample_id,cluster" and len(labels_lines) == 121
    with open(eval_out / "report.json") as fh:
        payload = json.load(fh)
    assert {"row_ari", "col_misclass", "mu_mse", "pi_mse", "support_counts"} <= set(payload)
    for t in range(1, len(payload["support_counts"]) + 1):
        pgm = (eval_out / f"support_component_{t}.pgm").read_bytes()
        assert pgm.startswith(b"P5\n30 30\n255\n")
    summary_lines = (rep_out / "summary.csv").read_text().splitlines()
    assert len(summary_lines) == 2
    print(f"criterion 9: pipeline completed in {elapsed:.0f}s (< 300s), outputs schema-valid")
    assert elapsed < 300.0


def test_criterion_10_determinism_across_jobs(tmp_path):
    spec = preset(1)
    rep0 = _replicate(spec, 0)
    sim = tmp_path / "sim"
    assert cli_main(
        ["simulate", "--preset", "1", "--seed", str(rep0.seed),
         "--no-timestamp", "-o", str(sim)]
    ) == 0
    outs = []
    for name, jobs in (("j1", 1), ("j4", 4), ("j4_again", 4)):
        out = tmp_path / name
        assert cli_main(
            ["fit", "--counts", str(sim / "counts.csv"),
             "--offsets", str(sim / "offsets.txt"),
             "--mode", "equal-k", "--gmax", "3", "--kmax", "3",
             "--n-starts", "2", "--max-em-iter", "200",
             "--seed", str(rep0.seed), "--jobs", str(jobs),
             "--no-timestamp", "-o", str(out)]
        ) == 0
        outs.append(out)
    for other in outs[1:]:
        assert (outs[0] / "grid.csv").read_bytes() == (other / "grid.csv").read_bytes()
        assert (outs[0] / "model.json").read_bytes() == (other / "model.json").read_bytes()
    print(
        "criterion 10: grid CSV and model JSON byte-identical for "
        "--jobs 1, --jobs 4, and a repeated --jobs 4 run"
    )
