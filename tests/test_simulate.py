"""Tests for dataset generation and the benchmark presets."""

from dataclasses import fields, replace

import numpy as np
import pytest

from mplnbicluster.errors import NotPositiveDefinite
from mplnbicluster.simulate import (
    GroundTruth,
    SimSpec,
    build_truth_model,
    load_spec,
    load_truth,
    preset,
    sample_block_covariance,
    sample_dataset,
    save_spec,
    save_truth,
    spec_from_dict,
    spec_offsets,
    spec_to_dict,
)


def simple_spec(**overrides):
    base = dict(
        n=50,
        d=4,
        pi=(0.5, 0.5),
        mu=np.array([[1.0, 1.0, 3.0, 3.0], [3.0, 3.0, 1.0, 1.0]]),
        block_sizes=((2, 2), (2, 2)),
        seed=7,
    )
    base.update(overrides)
    return SimSpec(**base)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_basics():
    spec = simple_spec()
    assert spec.G == 2
    assert spec.block_sizes == ((2, 2), (2, 2))
    assert spec.offsets == "unit"


@pytest.mark.parametrize(
    "overrides",
    [
        {"pi": (0.6, 0.6)},
        {"pi": (1.0, 0.0)},
        {"mu": np.zeros((3, 4))},
        {"block_sizes": ((2, 2),)},
        {"block_sizes": ((3, 2), (2, 2))},
        {"block_sizes": ((0, 4), (2, 2))},
        {"within_block_corr_range": (0.0, 0.5)},
        {"within_block_corr_range": (0.8, 0.4)},
        {"variance_range": (-1.0, 1.0)},
        {"offsets": "libsize"},
        {"offsets": (1.0, 2.0)},
        {"n": 0},
    ],
)
def test_spec_validation(overrides):
    with pytest.raises(ValueError):
        simple_spec(**overrides)


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("seed", True), ("n", 2.5), ("n", 50.0), ("d", 10.0), ("d", False)],
)
def test_spec_rejects_non_integer_counts_and_seed(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        simple_spec(**{field: value})


def test_spec_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be at least 0"):
        simple_spec(seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("pi", (0.5, float("nan"))),
        ("mu", [[1.0, float("nan"), 3.0, 3.0], [3.0, 3.0, 1.0, 1.0]]),
        ("mu", [[1.0, 1.0, 3.0, 3.0], [3.0, float("inf"), 1.0, 1.0]]),
        ("offsets", (1.0, -2.0, 0.5)),
        ("offsets", (1.0, 0.0, 0.5)),
        ("offsets", (1.0, float("nan"), 0.5)),
        ("offsets", (1.0, float("inf"), 0.5)),
    ],
)
def test_spec_rejects_nan_and_nonpositive_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        simple_spec(n=3, **{field: value})


def test_spec_explicit_offsets_accepted():
    spec = simple_spec(n=3, offsets=(1.0, 2.0, 0.5))
    assert spec.offsets == (1.0, 2.0, 0.5)
    assert np.array_equal(spec_offsets(spec).c, [1.0, 2.0, 0.5])
    unit = simple_spec()
    assert np.array_equal(spec_offsets(unit).c, np.ones(50))


# ---------------------------------------------------------------------------
# covariance sampling


def test_block_covariance_zero_pattern():
    cov = sample_block_covariance((5, 5), (0.4, 0.8), (0.5, 1.5), seed=3)
    assert cov.shape == (10, 10)
    assert np.array_equal(cov[:5, 5:], np.zeros((5, 5)))
    assert np.array_equal(cov[5:, :5], np.zeros((5, 5)))
    assert (cov[:5, :5] != 0).all()
    np.linalg.cholesky(cov)  # PD


def test_block_covariance_single_block_dense():
    cov = sample_block_covariance((4,), (0.4, 0.8), (0.5, 1.5), seed=1)
    assert (cov != 0).all()


def test_block_covariance_singletons_diagonal():
    cov = sample_block_covariance((1, 1, 1), (0.4, 0.8), (0.5, 1.5), seed=2)
    assert np.array_equal(cov, np.diag(np.diag(cov)))
    assert ((np.diag(cov) >= 0.5) & (np.diag(cov) <= 1.5)).all()


def test_block_covariance_correlation_magnitudes():
    for seed in range(8):
        cov = sample_block_covariance((5,), (0.4, 0.8), (0.5, 1.5), seed=seed)
        sd = np.sqrt(np.diag(cov))
        corr = cov / np.outer(sd, sd)
        off = np.abs(corr[np.triu_indices(5, k=1)])
        assert ((off >= 0.4) & (off <= 0.8)).all()


def test_block_covariance_sign_pattern_is_consistent():
    # signs follow s_ij = t_i t_j, so s_ij * s_jk = s_ik within a block
    for seed in range(8):
        cov = sample_block_covariance((5,), (0.4, 0.8), (0.5, 1.5), seed=seed)
        s = np.sign(cov)
        for i in range(5):
            for j in range(i + 1, 5):
                for k in range(j + 1, 5):
                    assert s[i, j] * s[j, k] == s[i, k]


def test_block_covariance_pd_across_layouts():
    layouts = [(10, 8, 7, 6, 5, 5, 4, 3, 2), (5,) * 10,
               (6, 6, 5, 5, 5, 4, 4, 4, 4, 3, 2, 2)]
    for seed, sizes in enumerate(layouts):
        cov = sample_block_covariance(sizes, (0.4, 0.8), (0.5, 1.5), seed=seed)
        assert np.linalg.eigvalsh(cov).min() > 0


def test_block_covariance_deterministic():
    a = sample_block_covariance((3, 2), (0.4, 0.8), (0.5, 1.5), seed=11)
    b = sample_block_covariance((3, 2), (0.4, 0.8), (0.5, 1.5), seed=11)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_block_covariance((3, 2), (0.4, 0.8), (0.5, 1.5), seed=12))


def test_block_covariance_exhausts_redraws():
    # magnitudes this close to 1 push the smallest eigenvalue under the floor
    with pytest.raises(NotPositiveDefinite):
        sample_block_covariance((8,), (0.99, 0.999), (1.0, 1.0), seed=0)


# ---------------------------------------------------------------------------
# dataset sampling


def test_sample_dataset_deterministic():
    spec = simple_spec()
    counts_a, truth_a = sample_dataset(spec)
    counts_b, truth_b = sample_dataset(spec)
    assert np.array_equal(counts_a.counts, counts_b.counts)
    assert np.array_equal(truth_a.row_labels, truth_b.row_labels)
    counts_c, _ = sample_dataset(replace(spec, seed=8))
    assert not np.array_equal(counts_a.counts, counts_c.counts)


def test_sample_dataset_shapes_and_labels():
    spec = simple_spec(n=30)
    counts, truth = sample_dataset(spec)
    assert counts.n == 30 and counts.d == 4
    assert counts.sample_ids[0] == "s01" and counts.sample_ids[-1] == "s30"
    assert counts.var_names == ("v1", "v2", "v3", "v4")
    assert counts.counts.dtype == np.int64
    assert (counts.counts >= 0).all()
    assert set(np.unique(truth.row_labels)) <= {1, 2}
    assert truth.model.G == 2
    for part, sizes in zip(truth.column_partitions, spec.block_sizes):
        assert part.block_sizes() == sizes


def test_sample_dataset_mean_identity():
    # with mu=0, sigma=I, C=1: E[Y] = exp(1/2)
    spec = SimSpec(
        n=10000, d=2, pi=(1.0,), mu=np.zeros((1, 2)),
        block_sizes=((1, 1),), variance_range=(1.0, 1.0), seed=5,
    )
    counts, _ = sample_dataset(spec)
    y = counts.counts
    target = np.exp(0.5)
    for j in range(2):
        se = y[:, j].std(ddof=1) / np.sqrt(spec.n)
        assert abs(y[:, j].mean() - target) <= 3 * se


def test_sample_dataset_mixing_frequencies():
    spec = simple_spec(n=10000, pi=(0.25, 0.75), seed=13)
    _, truth = sample_dataset(spec)
    freq = np.mean(truth.row_labels == 1)
    se = np.sqrt(0.25 * 0.75 / spec.n)
    assert abs(freq - 0.25) <= 3 * se


def test_sample_dataset_latent_covariance():
    spec = SimSpec(
        n=10000, d=3, pi=(1.0,), mu=np.full((1, 3), 1.0),
        block_sizes=((2, 1),), seed=29,
    )
    counts, truth, x = sample_dataset(spec, return_latent=True)
    emp = np.cov(x, rowvar=False)
    sigma = truth.model.sigma[0]
    for i in range(3):
        for j in range(3):
            se = np.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / spec.n)
            assert abs(emp[i, j] - sigma[i, j]) <= 5 * se


def test_zero_inflation_rises_as_mean_drops():
    low = SimSpec(n=2000, d=3, pi=(1.0,), mu=np.full((1, 3), -2.0),
                  block_sizes=((3,),), seed=3)
    high = SimSpec(n=2000, d=3, pi=(1.0,), mu=np.full((1, 3), 2.0),
                   block_sizes=((3,),), seed=3)
    y_low, _ = sample_dataset(low)
    y_high, _ = sample_dataset(high)
    assert np.mean(y_low.counts == 0) > np.mean(y_high.counts == 0)


def test_explicit_offsets_scale_counts():
    base = SimSpec(n=2000, d=2, pi=(1.0,), mu=np.full((1, 2), 1.0),
                   block_sizes=((1, 1),), seed=17)
    scaled = replace(base, offsets=tuple([5.0] * 2000))
    y_base, _ = sample_dataset(base)
    y_scaled, _ = sample_dataset(scaled)
    ratio = y_scaled.counts.mean() / y_base.counts.mean()
    assert 4.5 <= ratio <= 5.5


def test_truth_model_is_valid_and_consistent():
    spec = simple_spec(seed=31)
    model = build_truth_model(spec)
    assert model.pi.tolist() == [0.5, 0.5]
    assert np.array_equal(model.mu, spec.mu)
    # covariance draw is part of the spec's identity: same seed, same model
    again = build_truth_model(spec)
    assert np.array_equal(model.sigma, again.sigma)


# ---------------------------------------------------------------------------
# presets

EXPECTED = {
    1: (500, 10, 2, (2, 2)),
    2: (500, 20, 2, (4, 4)),
    3: (500, 50, 2, (9, 9)),
    4: (500, 50, 2, (10, 10)),
    5: (500, 50, 2, (12, 12)),
    6: (1000, 10, 3, (2, 2, 2)),
    7: (1000, 20, 3, (4, 4, 4)),
    8: (1000, 50, 3, (9, 9, 9)),
    9: (1000, 50, 3, (10, 10, 10)),
    10: (1000, 50, 3, (12, 12, 12)),
    11: (500, 10, 2, (2, 3)),
    12: (500, 20, 2, (4, 5)),
}


@pytest.mark.parametrize("study_id", sorted(EXPECTED))
def test_preset_table(study_id):
    spec = preset(study_id)
    n, d, G, ks = EXPECTED[study_id]
    assert spec.n == n
    assert spec.d == d
    assert spec.G == G
    assert tuple(len(sizes) for sizes in spec.block_sizes) == ks
    assert all(sum(sizes) == d for sizes in spec.block_sizes)
    assert spec.pi == ((0.25, 0.75) if G == 2 else (0.35, 0.10, 0.55))


def test_preset_unknown_id():
    for bad in (0, 13, -1):
        with pytest.raises(ValueError):
            preset(bad)


@pytest.mark.parametrize("study_id", sorted(EXPECTED))
def test_preset_means_are_separated(study_id):
    spec = preset(study_id)
    mu = spec.mu
    assert ((mu > 1.0) & (mu < 4.0)).all()
    for a in range(spec.G):
        for b in range(a + 1, spec.G):
            separated = np.abs(mu[a] - mu[b]) >= 1.5
            assert separated.sum() >= spec.d // 2


def test_preset_means_deterministic():
    assert np.array_equal(preset(3).mu, preset(3).mu)
    assert not np.array_equal(preset(3).mu[:, :10], preset(4).mu[:, :10])


def test_preset_replicates_differ():
    spec = preset(1)
    rep_a, _ = sample_dataset(replace(spec, n=30, seed=1))
    rep_b, _ = sample_dataset(replace(spec, n=30, seed=2))
    assert not np.array_equal(rep_a.counts, rep_b.counts)


# ---------------------------------------------------------------------------
# truth files


def test_truth_round_trip(tmp_path):
    spec = simple_spec(n=20, seed=41)
    _, truth = sample_dataset(spec)
    path = tmp_path / "truth.json"
    save_truth(truth, path)
    loaded = load_truth(path)
    assert np.array_equal(loaded.row_labels, truth.row_labels)
    assert np.array_equal(loaded.model.pi, truth.model.pi)
    assert np.array_equal(loaded.model.mu, truth.model.mu)
    assert np.array_equal(loaded.model.sigma, truth.model.sigma)
    for a, b in zip(loaded.column_partitions, truth.column_partitions):
        assert np.array_equal(a.assign, b.assign)


# ---------------------------------------------------------------------------
# spec files


def test_spec_round_trip(tmp_path):
    spec = simple_spec(offsets=tuple(1.0 + 0.01 * i for i in range(50)), seed=13)
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    loaded = load_spec(path)
    assert loaded.n == spec.n and loaded.d == spec.d
    assert loaded.pi == spec.pi
    assert np.array_equal(loaded.mu, spec.mu)
    assert loaded.block_sizes == spec.block_sizes
    assert loaded.within_block_corr_range == spec.within_block_corr_range
    assert loaded.variance_range == spec.variance_range
    assert loaded.offsets == spec.offsets
    assert loaded.seed == spec.seed
    # and the round trip generates the identical dataset
    a, _ = sample_dataset(spec)
    b, _ = sample_dataset(loaded)
    assert np.array_equal(a.counts, b.counts)


def test_list_built_spec_equals_its_round_trip():
    spec = simple_spec(within_block_corr_range=[0.55, 0.75], variance_range=[1, 2])
    assert spec.within_block_corr_range == (0.55, 0.75)
    assert spec.variance_range == (1.0, 2.0)
    assert all(type(v) is float for v in spec.variance_range)
    loaded = spec_from_dict(spec_to_dict(spec))
    assert loaded.within_block_corr_range == spec.within_block_corr_range
    assert loaded.variance_range == spec.variance_range


def test_spec_dict_defaults_fill_in():
    payload = spec_to_dict(simple_spec())
    for key in ("within_block_corr_range", "variance_range", "offsets", "seed"):
        del payload[key]
    spec = spec_from_dict(payload)
    assert spec.within_block_corr_range == (0.4, 0.8)
    assert spec.offsets == "unit"
    assert spec.seed == 0


def test_spec_from_dict_rejects_unknown_and_missing_keys():
    payload = spec_to_dict(simple_spec())
    payload["sigma"] = 1.0
    with pytest.raises(ValueError, match="unknown spec key"):
        spec_from_dict(payload)
    del payload["sigma"]
    del payload["mu"]
    with pytest.raises(ValueError, match="missing"):
        spec_from_dict(payload)


def test_spec_keys_follow_the_dataclass_fields():
    assert set(spec_to_dict(simple_spec())) == {f.name for f in fields(SimSpec)}
    with pytest.raises(ValueError) as err:
        spec_from_dict({})
    assert str(err.value) == "spec is missing keys: block_sizes, d, mu, n, pi"
    with pytest.raises(ValueError) as err:
        spec_from_dict({"zeta": 1, "alpha": 2})
    assert str(err.value) == "unknown spec keys: alpha, zeta"
