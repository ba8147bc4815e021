"""Tests for the recovery metrics, each checked against a brute-force oracle."""

import itertools

import numpy as np
import pytest

from mplnbicluster.colgroup import ColumnPartition
from mplnbicluster.errors import LengthMismatch
from mplnbicluster.evaluate import (
    EvalReport,
    aggregate_reports,
    align_components,
    ari,
    column_misclassification,
    evaluate_fit,
    load_report,
    param_mse,
    relabelling,
    replicate_sds,
    report_to_dict,
    save_report,
    save_support_csv,
    save_support_pgm,
    support_count_heatmap,
)
from mplnbicluster.model import MixtureModel
from mplnbicluster.simulate import GroundTruth


def pair_counting_ari(a, b):
    """Independent ARI from explicit pair agreement counts."""
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0
    return 2.0 * (n11 * n00 - n10 * n01) / denom


def partition(labels):
    """ColumnPartition from any labels, compacted to 1..k."""
    _, idx = np.unique(np.asarray(labels), return_inverse=True)
    return ColumnPartition(idx.astype(np.int64) + 1, int(idx.max()) + 1)


# ---------------------------------------------------------------------------
# ARI


def test_ari_identical_and_renamed():
    a = np.array([1, 1, 2, 2, 3])
    assert ari(a, a) == 1.0
    renamed = np.array([7, 7, 5, 5, 9])
    assert ari(a, renamed) == 1.0


def test_ari_worked_example():
    a = (1, 1, 2, 2)
    b = (1, 2, 1, 2)
    expected = pair_counting_ari(a, b)
    assert ari(a, b) == pytest.approx(expected, abs=1e-15)
    assert ari(a, b) < 0  # worse than chance for this crossing pattern


def test_ari_matches_pair_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.integers(1, 4, size=n)
        b = rng.integers(1, 4, size=n)
        assert ari(a, b) == pytest.approx(pair_counting_ari(a, b), abs=1e-12)


def test_ari_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.integers(1, 4, size=10)
        b = rng.integers(1, 4, size=10)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-15)


def test_ari_degenerate_cases():
    assert ari([1, 1, 1], [2, 2, 2]) == 1.0  # both single-cluster
    assert ari([1, 1, 1], [1, 2, 3]) == pytest.approx(
        pair_counting_ari([1, 1, 1], [1, 2, 3]), abs=1e-15
    )


def test_ari_validation():
    with pytest.raises(LengthMismatch):
        ari([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        ari([1], [1])


# ---------------------------------------------------------------------------
# component alignment


def test_align_components_hand_case():
    truth = np.array([1, 1, 2, 2, 3])
    est = np.array([2, 2, 3, 3, 1])
    perm = align_components(truth, est, 3)
    assert perm.tolist() == [1, 2, 0]


def test_align_components_identity():
    labels = np.array([1, 2, 3, 1, 2, 3])
    assert align_components(labels, labels, 3).tolist() == [0, 1, 2]


def test_align_components_majority_wins():
    truth = np.array([1, 1, 1, 2, 2, 2])
    est = np.array([2, 2, 1, 1, 1, 1])  # est 2 mostly covers true 1
    perm = align_components(truth, est, 2)
    assert perm.tolist() == [1, 0]


# ---------------------------------------------------------------------------
# the same partition up to renaming


def test_relabelling_matches_renamed_components():
    a = np.array([1, 1, 2, 2, 3, 3, 1])
    b = np.array([3, 3, 1, 1, 2, 2, 3])
    assert relabelling(a, b, 3).tolist() == [2, 0, 1]
    assert relabelling(b, a, 3).tolist() == [1, 2, 0]
    assert relabelling(a, a, 3).tolist() == [0, 1, 2]


def test_relabelling_matches_renamed_blocks():
    # column partitions are 1-based labellings of the columns too
    a = ColumnPartition(np.array([1, 1, 2, 3, 3]), 3)
    b = ColumnPartition(np.array([2, 2, 3, 1, 1]), 3)
    assert relabelling(a.assign, b.assign, 3).tolist() == [1, 2, 0]


def test_relabelling_rejects_one_moved_item():
    a = np.array([1, 1, 2, 2, 3, 3])
    for moved in range(6):
        b = a.copy()
        b[moved] = 1 + b[moved] % 3  # one row or column to another label
        assert relabelling(a, b, 3) is None
        assert relabelling(b, a, 3) is None


def test_relabelling_rejects_an_empty_label():
    # label 3 labels nothing on one side: that component never matches,
    # not even against itself
    a = np.array([1, 1, 2, 2])
    assert relabelling(a, a, 3) is None
    assert relabelling(a, np.array([1, 1, 3, 3]), 3) is None


# ---------------------------------------------------------------------------
# column misclassification


def exhaustive_misclassification(truth, est):
    d = truth.assign.shape[0]
    size = max(truth.k, est.k)
    best = d
    for mapping in itertools.permutations(range(1, size + 1)):
        wrong = sum(
            1 for j in range(d) if mapping[est.assign[j] - 1] != truth.assign[j]
        )
        best = min(best, wrong)
    return best / d


def test_misclassification_exact_and_renamed():
    truth = partition([1, 1, 2, 2, 3])
    assert column_misclassification(truth, truth) == 0.0
    renamed = partition([3, 3, 1, 1, 2])
    assert column_misclassification(truth, renamed) == 0.0


def test_misclassification_worked_example():
    truth = partition([1, 1, 1, 2, 2, 2])
    est = partition([1, 1, 2, 2, 2, 1])
    assert column_misclassification(truth, est) == pytest.approx(2.0 / 6.0, abs=1e-15)
    assert column_misclassification(truth, est) == pytest.approx(
        exhaustive_misclassification(truth, est), abs=1e-15
    )


def test_misclassification_matches_permutation_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        truth = partition(rng.integers(1, 4, size=d))
        est = partition(rng.integers(1, 5, size=d))
        assert column_misclassification(truth, est) == pytest.approx(
            exhaustive_misclassification(truth, est), abs=1e-15
        )


def test_misclassification_symmetric_when_equal_k():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(3, 9))
        pa = partition(rng.integers(1, 4, size=d))
        pb = partition(rng.integers(1, 4, size=d))
        if pa.k != pb.k:
            continue
        assert column_misclassification(pa, pb) == pytest.approx(
            column_misclassification(pb, pa), abs=1e-15
        )


def test_misclassification_unequal_k():
    truth = partition([1, 1, 2, 2])
    est = partition([1, 2, 3, 4])
    assert column_misclassification(truth, est) == pytest.approx(0.5, abs=1e-15)


def test_misclassification_length_mismatch():
    with pytest.raises(LengthMismatch):
        column_misclassification(partition([1, 2]), partition([1, 2, 2]))


# ---------------------------------------------------------------------------
# support counts


def test_support_counts_single_diagonal():
    counts = support_count_heatmap([np.diag([1.0, 2.0, 3.0])])
    assert np.array_equal(counts, np.eye(3, dtype=np.int64))


def test_support_counts_repeated_blocks():
    block = np.zeros((4, 4))
    block[:2, :2] = 0.5
    block[2:, 2:] = -0.3
    counts = support_count_heatmap([block] * 5)
    expected = np.zeros((4, 4), dtype=np.int64)
    expected[:2, :2] = 5
    expected[2:, 2:] = 5
    assert np.array_equal(counts, expected)


def test_support_counts_mixed_list():
    rng = np.random.default_rng(23)
    mats = [rng.normal(size=(3, 3)) * (rng.random((3, 3)) < 0.5) for _ in range(7)]
    counts = support_count_heatmap(mats)
    direct = sum((np.abs(m) > 0).astype(int) for m in mats)
    assert np.array_equal(counts, direct)
    assert counts.max() <= 7


def test_support_counts_validation():
    with pytest.raises(LengthMismatch):
        support_count_heatmap([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        support_count_heatmap([])


# ---------------------------------------------------------------------------
# parameter MSE


def small_model(pi, mu, var=1.0):
    mu = np.asarray(mu, dtype=float)
    g, d = mu.shape
    sigma = np.stack([np.eye(d) * var for _ in range(g)])
    parts = tuple(
        ColumnPartition(np.arange(1, d + 1, dtype=np.int64), d) for _ in range(g)
    )
    return MixtureModel(pi=np.asarray(pi, float), mu=mu, sigma=sigma, groupings=parts)


def test_param_mse_exact_recovery():
    truth = small_model([0.4, 0.6], [[0.0, 1.0], [2.0, 3.0]])
    labels = np.array([1, 1, 2, 2, 2])
    mu_mse, pi_mse = param_mse(truth, truth, labels, labels)
    assert np.array_equal(mu_mse, [0.0, 0.0])
    assert np.array_equal(pi_mse, [0.0, 0.0])


def test_param_mse_alignment_under_swap():
    truth = small_model([0.4, 0.6], [[0.0, 1.0], [2.0, 3.0]])
    swapped = small_model([0.6, 0.4], [[2.0, 3.0], [0.0, 1.0]])
    truth_labels = np.array([1, 1, 2, 2, 2])
    est_labels = np.array([2, 2, 1, 1, 1])
    mu_mse, pi_mse = param_mse(truth, swapped, truth_labels, est_labels)
    assert np.allclose(mu_mse, 0.0)
    assert np.allclose(pi_mse, 0.0)


def test_param_mse_hand_value():
    truth = small_model([1.0], [[1.0, 2.0]])
    est = small_model([1.0], [[1.1, 1.7]])
    labels = np.array([1, 1, 1])
    mu_mse, pi_mse = param_mse(truth, est, labels, labels)
    assert mu_mse[0] == pytest.approx((0.1 ** 2 + 0.3 ** 2) / 2.0, abs=1e-12)
    assert pi_mse[0] == pytest.approx(0.0, abs=1e-15)


def test_param_mse_g_mismatch():
    one = small_model([1.0], [[0.0, 0.0]])
    two = small_model([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        param_mse(one, two, np.ones(4, dtype=int), np.ones(4, dtype=int))


# ---------------------------------------------------------------------------
# report assembly


def block_model(pi, mu, sizes_per_comp):
    mu = np.asarray(mu, dtype=float)
    g, d = mu.shape
    sigma = np.zeros((g, d, d))
    parts = []
    for gi, sizes in enumerate(sizes_per_comp):
        lo = 0
        assign = np.empty(d, dtype=np.int64)
        for label, b in enumerate(sizes, start=1):
            sigma[gi, lo:lo + b, lo:lo + b] = 0.3
            sigma[gi][range(lo, lo + b), range(lo, lo + b)] = 1.0
            assign[lo:lo + b] = label
            lo += b
        parts.append(ColumnPartition(assign, len(sizes)))
    return MixtureModel(pi=np.asarray(pi, float), mu=mu, sigma=sigma,
                        groupings=tuple(parts))


def test_evaluate_fit_perfect():
    model = block_model([0.5, 0.5], [[0.0] * 4, [1.0] * 4], [(2, 2), (2, 2)])
    labels = np.array([1, 1, 1, 2, 2, 2])
    truth = GroundTruth(row_labels=labels, model=model)
    report = evaluate_fit(truth, model, labels)
    assert report.row_ari == 1.0
    assert report.col_misclass == (0.0, 0.0)
    assert report.col_misclass_mean == 0.0
    assert report.mu_mse == (0.0, 0.0)
    assert report.pi_mse == (0.0, 0.0)
    expected = (np.abs(model.sigma[0]) > 0).astype(np.int64)
    assert np.array_equal(report.support_counts[0], expected)
    assert report.n_replicates == 1


@pytest.mark.parametrize("shift", [lambda labels: labels - 1, lambda labels: labels + 5,
                                   lambda labels: labels + 0.5])
def test_evaluate_fit_rejects_labels_outside_one_to_g(shift):
    # 0-based, too-large and fractional labels name no component; scored,
    # they read as a perfect or a swapped fit
    model = block_model([0.5, 0.5], [[0.0] * 4, [1.0] * 4], [(2, 2), (2, 2)])
    labels = np.array([1, 1, 1, 2, 2, 2])
    truth = GroundTruth(row_labels=labels, model=model)
    with pytest.raises(ValueError, match="labels must be whole numbers in 1..2"):
        evaluate_fit(truth, model, shift(labels))


def test_evaluate_fit_component_count_mismatch():
    truth_model = block_model([0.5, 0.5], [[0.0] * 4, [1.0] * 4], [(2, 2), (2, 2)])
    est_model = block_model([1.0], [[0.5] * 4], [(2, 2)])
    truth = GroundTruth(row_labels=np.array([1, 1, 2, 2]), model=truth_model)
    report = evaluate_fit(truth, est_model, np.array([1, 1, 1, 1]))
    assert np.isnan(report.col_misclass_mean)
    assert all(np.isnan(v) for v in report.mu_mse)
    assert all(np.isnan(v) for v in report.pi_mse)
    assert report.row_ari < 1.0
    assert all(m.sum() == 0 for m in report.support_counts)


def test_evaluate_fit_rejects_a_fit_of_other_shape():
    # with G different the scores skip every per-variable comparison, so
    # nothing else stops a d=2 fit from scoring against d=4 truth
    truth_model = block_model([0.5, 0.5], [[0.0] * 4, [1.0] * 4], [(2, 2), (2, 2)])
    truth = GroundTruth(row_labels=np.array([1, 1, 2, 2]), model=truth_model)
    narrow = block_model([1.0], [[0.5] * 2], [(2,)])
    with pytest.raises(LengthMismatch, match="the fit has d=2 and 4 rows, the truth d=4 and 4"):
        evaluate_fit(truth, narrow, np.array([1, 1, 1, 1]))
    short = block_model([1.0], [[0.5] * 4], [(2, 2)])
    with pytest.raises(LengthMismatch, match="the fit has d=4 and 3 rows, the truth d=4 and 4"):
        evaluate_fit(truth, short, np.array([1, 1, 1]))


def test_aggregate_reports():
    d = 3
    ones = np.ones((d, d), dtype=np.int64)
    a = EvalReport(1.0, (0.0,), 0.0, (0.01,), (0.001,), (ones,), 1)
    b = EvalReport(0.8, (0.2,), 0.2, (0.03,), (0.003,), (ones * 0,), 1)
    agg = aggregate_reports([a, b])
    assert agg.row_ari == pytest.approx(0.9)
    assert agg.col_misclass[0] == pytest.approx(0.1)
    assert agg.mu_mse[0] == pytest.approx(0.02)
    assert agg.pi_mse[0] == pytest.approx(0.002)
    assert np.array_equal(agg.support_counts[0], ones)
    assert agg.n_replicates == 2
    assert agg.support_counts[0].max() <= agg.n_replicates


def test_aggregate_skips_nan():
    ones = np.ones((2, 2), dtype=np.int64)
    good = EvalReport(1.0, (0.1,), 0.1, (0.02,), (0.002,), (ones,), 1)
    nan = float("nan")
    bad = EvalReport(0.5, (nan,), nan, (nan,), (nan,), (ones * 0,), 1)
    agg = aggregate_reports([good, bad])
    assert agg.row_ari == pytest.approx(0.75)  # ARI is always defined
    assert agg.col_misclass[0] == pytest.approx(0.1)
    assert agg.mu_mse[0] == pytest.approx(0.02)
    unmatched = aggregate_reports([bad, bad])  # a G mismatch in every replicate
    assert np.isnan(unmatched.mu_mse[0]) and np.isnan(unmatched.col_misclass_mean)
    assert unmatched.sd["mu_mse_mean"] is None


def test_replicate_sds():
    ones = np.ones((2, 2), dtype=np.int64)
    nan = float("nan")
    a = EvalReport(1.0, (0.0, nan), 0.0, (0.01, 0.02), (0.001, 0.0), (ones, ones), 1)
    b = EvalReport(0.8, (0.2, 0.1), 0.2, (0.03, 0.04), (0.003, 0.0), (ones, ones), 1)
    sds = replicate_sds([a, b])
    assert sds["row_ari"] == pytest.approx(np.std([1.0, 0.8], ddof=1))
    assert sds["col_misclass"][0] == pytest.approx(np.std([0.0, 0.2], ddof=1))
    assert sds["col_misclass"][1] is None  # one defined value
    assert sds["mu_mse_mean"] == pytest.approx(np.std([0.015, 0.035], ddof=1))
    assert sds["pi_mse"][1] == 0.0
    assert replicate_sds([a])["row_ari"] is None


def test_aggregate_single_report_is_unchanged():
    # one replicate has no spread, so a single-replicate report.json has no "sd"
    ones = np.ones((2, 2), dtype=np.int64)
    nan = float("nan")
    r = EvalReport(0.7, (0.1, nan), 0.1, (0.02, nan), (0.004, nan), (ones, ones * 0), 1)
    agg = aggregate_reports([r])
    assert agg.sd is None
    assert agg.row_ari == r.row_ari
    assert agg.col_misclass_mean == r.col_misclass_mean
    for got, want in ((agg.col_misclass, r.col_misclass), (agg.mu_mse, r.mu_mse),
                      (agg.pi_mse, r.pi_mse)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(agg.support_counts, r.support_counts):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert agg.n_replicates == 1
    assert "sd" not in report_to_dict(agg)


def test_report_json_round_trip(tmp_path):
    ones = np.ones((2, 2), dtype=np.int64)
    nan = float("nan")
    plain = EvalReport(0.93, (0.0, nan), 0.0, (0.01, nan), (0.001, nan),
                       (ones, ones * 2), 4)
    other = EvalReport(0.81, (0.2, 0.1), 0.15, (0.03, 0.05), (0.003, 0.0),
                       (ones, ones), 1)
    with_sd = aggregate_reports([plain, other])
    assert plain.sd is None and with_sd.sd == replicate_sds([plain, other])
    for i, report in enumerate((plain, with_sd)):
        path = tmp_path / f"report_{i}.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded.row_ari == report.row_ari
        np.testing.assert_array_equal(loaded.col_misclass, report.col_misclass)
        assert loaded.col_misclass_mean == report.col_misclass_mean
        np.testing.assert_array_equal(loaded.mu_mse, report.mu_mse)
        np.testing.assert_array_equal(loaded.pi_mse, report.pi_mse)
        for got, want in zip(loaded.support_counts, report.support_counts):
            assert np.array_equal(got, want)
        assert loaded.n_replicates == report.n_replicates
        assert loaded.sd == report.sd


# ---------------------------------------------------------------------------
# matrix artifacts


def test_support_csv(tmp_path):
    counts = np.array([[2, 0], [0, 1]], dtype=np.int64)
    path = tmp_path / "support.csv"
    save_support_csv(counts, path)
    assert path.read_bytes() == b"2,0\r\n0,1\r\n"


def test_support_pgm(tmp_path):
    counts = np.array([[2, 0], [0, 1]], dtype=np.int64)
    path = tmp_path / "support.pgm"
    save_support_pgm(counts, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    assert data[len(b"P5\n2 2\n255\n"):] == bytes([255, 0, 0, 128])


def test_support_pgm_all_zero(tmp_path):
    path = tmp_path / "zero.pgm"
    save_support_pgm(np.zeros((2, 3), dtype=np.int64), path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert data[len(b"P5\n3 2\n255\n"):] == bytes(6)
