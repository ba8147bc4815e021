"""Synthetic data generation with known biclustering structure.

Datasets are drawn from the same generative story the fitting code
assumes: each row picks a component, its latent profile is Gaussian with
a block-diagonal covariance, and counts are Poisson at the exponentiated
profile times the row's offset.  Twelve presets reproduce the standard
benchmark layouts (ten equal-block studies and two with per-component
block counts).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Union

import numpy as np

from .colgroup import ColumnPartition
from .data import CountMatrix, OffsetVector, integer, labels_in_range, read_json, write_json
from .errors import NotPositiveDefinite
from .model import MixtureModel, model_from_dict, model_to_dict
from .seeding import TAG_SIM, derive_rng

__all__ = [
    "SimSpec",
    "GroundTruth",
    "sample_block_covariance",
    "build_truth_model",
    "sample_dataset",
    "spec_offsets",
    "preset",
    "save_truth",
    "load_truth",
    "spec_to_dict",
    "spec_from_dict",
    "save_spec",
    "load_spec",
]

# minimum eigenvalue a candidate correlation matrix must clear
_EIG_FLOOR = 0.05
_MAX_REDRAWS = 100

# sub-stream tags within a simulation seed
_SUB_COV = 0
_SUB_LABELS = 1
_SUB_LATENT = 2
_SUB_POISSON = 3


@dataclass(frozen=True)
class SimSpec:
    """Everything needed to draw one dataset.

    ``block_sizes`` holds one tuple per component, each summing to ``d``;
    ``offsets`` is either the string "unit" or an explicit length-n vector
    of positive scaling constants.
    """

    n: int
    d: int
    pi: tuple
    mu: np.ndarray  # (G, d)
    block_sizes: tuple  # G tuples, each summing to d
    within_block_corr_range: tuple = (0.4, 0.8)
    variance_range: tuple = (0.5, 1.5)
    offsets: Union[str, tuple] = "unit"
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("n", 1), ("d", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), low))
        object.__setattr__(self, "pi", tuple(float(p) for p in self.pi))
        object.__setattr__(
            self, "mu", np.array(self.mu, dtype=float, copy=True)
        )
        object.__setattr__(
            self,
            "block_sizes",
            tuple(tuple(int(b) for b in sizes) for sizes in self.block_sizes),
        )
        for name in ("within_block_corr_range", "variance_range"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        G = len(self.pi)
        if G < 1:
            raise ValueError("need at least one component")
        # written so that NaN fails: every comparison with it is False
        if not (all(p > 0 for p in self.pi) and abs(sum(self.pi) - 1.0) <= 1e-12):
            raise ValueError(f"pi must be a positive simplex vector, got {self.pi}")
        if self.mu.shape != (G, self.d):
            raise ValueError(
                f"mu must have shape ({G}, {self.d}), got {self.mu.shape}"
            )
        if not np.all(np.isfinite(self.mu)):
            raise ValueError("mu must be finite")
        if len(self.block_sizes) != G:
            raise ValueError("need one block-size tuple per component")
        for g, sizes in enumerate(self.block_sizes):
            if any(b < 1 for b in sizes) or sum(sizes) != self.d:
                raise ValueError(
                    f"component {g + 1} block sizes {sizes} must be positive "
                    f"and sum to d={self.d}"
                )
        lo, hi = self.within_block_corr_range
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError(
                f"correlation magnitudes must satisfy 0 < lo <= hi < 1, "
                f"got {self.within_block_corr_range}"
            )
        vlo, vhi = self.variance_range
        if not (0.0 < vlo <= vhi):
            raise ValueError(f"invalid variance range {self.variance_range}")
        if isinstance(self.offsets, str):
            if self.offsets != "unit":
                raise ValueError(f"unknown offsets mode {self.offsets!r}")
        else:
            vec = tuple(float(c) for c in self.offsets)
            if len(vec) != self.n:
                raise ValueError(
                    f"explicit offsets need length n={self.n}, got {len(vec)}"
                )
            bad = [i for i, c in enumerate(vec) if not 0.0 < c < math.inf]
            if bad:
                raise ValueError(
                    f"offsets must be finite and > 0; offset {bad[0]} is {vec[bad[0]]}"
                )
            object.__setattr__(self, "offsets", vec)

    @property
    def G(self) -> int:
        return len(self.pi)


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows: row labels (1-based) and the model, whose
    groupings are the column partitions."""

    row_labels: np.ndarray  # (n,) ints in 1..G
    model: MixtureModel

    def __post_init__(self):
        labels = labels_in_range("row_labels", self.row_labels, self.model.G)
        object.__setattr__(self, "row_labels", labels)

    @property
    def column_partitions(self) -> tuple:
        return self.model.groupings


def _random_correlation(b: int, corr_range, rng) -> Optional[np.ndarray]:
    """One candidate correlation matrix, or None if it fails the floor.

    Off-diagonal signs follow s_ij = t_i t_j for random t in {-1, +1}^b:
    sign patterns of this form are exactly the ones a correlation matrix
    with uniformly large magnitudes can realise (independent signs are
    almost never positive definite once b exceeds 3).
    """
    t = rng.choice([-1.0, 1.0], size=b)
    r = np.eye(b)
    iu = np.triu_indices(b, k=1)
    mags = rng.uniform(corr_range[0], corr_range[1], size=iu[0].size)
    r[iu] = mags
    r = np.triu(r, k=1) + np.triu(r, k=1).T + np.eye(b)
    r *= np.outer(t, t)
    np.fill_diagonal(r, 1.0)
    if np.linalg.eigvalsh(r).min() < _EIG_FLOOR:
        return None
    return r


def sample_block_covariance(block_sizes, corr_range, var_range, seed) -> np.ndarray:
    """Random block-diagonal PD covariance with the requested structure.

    Each block is D^1/2 R D^1/2 with R a random correlation matrix whose
    off-diagonal magnitudes lie in ``corr_range`` and D diagonal with
    variances uniform in ``var_range``.  Candidates for R are redrawn (up
    to 100 times) until the smallest eigenvalue clears 0.05.  ``seed`` may
    be an int or an existing Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d = int(sum(block_sizes))
    cov = np.zeros((d, d))
    lo = 0
    for b in block_sizes:
        b = int(b)
        if b == 1:
            r = np.ones((1, 1))
        else:
            r = None
            for _ in range(_MAX_REDRAWS):
                r = _random_correlation(b, corr_range, rng)
                if r is not None:
                    break
            if r is None:
                raise NotPositiveDefinite(
                    f"no positive definite correlation block of size {b} found "
                    f"in {_MAX_REDRAWS} draws with magnitudes in {tuple(corr_range)}"
                )
        scale = np.sqrt(rng.uniform(var_range[0], var_range[1], size=b))
        # outer() is exactly symmetric (IEEE multiplication commutes), so the
        # elementwise product with the symmetric r stays exactly symmetric
        cov[lo:lo + b, lo:lo + b] = np.outer(scale, scale) * r
        lo += b
    return cov


def _partition_from_sizes(sizes, d: int) -> ColumnPartition:
    assign = np.concatenate(
        [np.full(b, label, dtype=np.int64) for label, b in enumerate(sizes, start=1)]
    )
    return ColumnPartition(assign, len(sizes))


def build_truth_model(spec: SimSpec) -> MixtureModel:
    """The exact mixture a SimSpec samples from (covariances drawn here)."""
    sigma = np.zeros((spec.G, spec.d, spec.d))
    partitions = []
    for g in range(spec.G):
        rng = derive_rng(spec.seed, TAG_SIM, _SUB_COV, g)
        sigma[g] = sample_block_covariance(
            spec.block_sizes[g],
            spec.within_block_corr_range,
            spec.variance_range,
            rng,
        )
        partitions.append(_partition_from_sizes(spec.block_sizes[g], spec.d))
    return MixtureModel(
        pi=np.array(spec.pi),
        mu=spec.mu.copy(),
        sigma=sigma,
        groupings=tuple(partitions),
    )


def sample_dataset(spec: SimSpec, return_latent: bool = False):
    """Draw one dataset.

    Returns (CountMatrix, GroundTruth), plus the latent (n, d) Gaussian
    matrix when ``return_latent`` is set.  Deterministic given the spec:
    the same seed always produces the same labels, latents, and counts.
    """
    model = build_truth_model(spec)
    n, d, G = spec.n, spec.d, spec.G

    label_rng = derive_rng(spec.seed, TAG_SIM, _SUB_LABELS)
    labels0 = label_rng.choice(G, size=n, p=np.array(spec.pi))
    c = spec_offsets(spec).c

    latent_rng = derive_rng(spec.seed, TAG_SIM, _SUB_LATENT)
    x = np.empty((n, d))
    for g in range(G):
        members = np.flatnonzero(labels0 == g)
        if members.size:
            x[members] = latent_rng.multivariate_normal(
                model.mu[g], model.sigma[g], size=members.size, method="cholesky"
            )

    poisson_rng = derive_rng(spec.seed, TAG_SIM, _SUB_POISSON)
    y = poisson_rng.poisson(c[:, None] * np.exp(x)).astype(np.int64)

    width_n = len(str(n))
    width_d = len(str(d))
    counts = CountMatrix(
        y,
        tuple(f"s{i + 1:0{width_n}d}" for i in range(n)),
        tuple(f"v{j + 1:0{width_d}d}" for j in range(d)),
    )
    truth = GroundTruth(row_labels=labels0 + 1, model=model)
    if return_latent:
        return counts, truth, x
    return counts, truth


def spec_offsets(spec: SimSpec) -> OffsetVector:
    """The offsets a SimSpec's datasets are generated under."""
    if isinstance(spec.offsets, str):
        return OffsetVector(np.ones(spec.n))
    return OffsetVector(np.array(spec.offsets, dtype=float))


# ---------------------------------------------------------------------------
# benchmark presets

# study id -> (n, d, G, per-component block sizes)
_PRESET_TABLE = {
    1: (500, 10, 2, ((5, 5), (5, 5))),
    2: (500, 20, 2, ((5, 5, 5, 5), (5, 5, 5, 5))),
    3: (500, 50, 2, ((10, 8, 7, 6, 5, 5, 4, 3, 2), (10, 8, 7, 6, 5, 5, 4, 3, 2))),
    4: (500, 50, 2, ((5,) * 10, (5,) * 10)),
    5: (
        500, 50, 2,
        ((6, 6, 5, 5, 5, 4, 4, 4, 4, 3, 2, 2), (6, 6, 5, 5, 5, 4, 4, 4, 4, 3, 2, 2)),
    ),
    6: (1000, 10, 3, ((5, 5),) * 3),
    7: (1000, 20, 3, ((5, 5, 5, 5),) * 3),
    8: (1000, 50, 3, ((10, 8, 7, 6, 5, 5, 4, 3, 2),) * 3),
    9: (1000, 50, 3, ((5,) * 10,) * 3),
    10: (1000, 50, 3, ((6, 6, 5, 5, 5, 4, 4, 4, 4, 3, 2, 2),) * 3),
    11: (500, 10, 2, ((5, 5), (4, 3, 3))),
    12: (500, 20, 2, ((5, 5, 5, 5), (4, 4, 4, 4, 4))),
}

_PI_TWO = (0.25, 0.75)
_PI_THREE = (0.35, 0.10, 0.55)

# Fixed seed offset for drawing preset means: the means are part of the
# preset's identity and must not change with the user's data seed.
_PRESET_MEAN_SEED = 9000


def _preset_means(study_id: int, d: int, G: int) -> np.ndarray:
    """Well-separated component means on the log scale.

    Every coordinate gets a low level in (1, 1.5) and a high level in
    (3, 4); each component follows its own alternating on/off pattern, so
    any two components sit at least 1.5 apart in at least half the
    coordinates while each stays within (1, 4).
    """
    rng = derive_rng(_PRESET_MEAN_SEED + study_id)
    low = rng.uniform(1.0, 1.5, size=d)
    high = rng.uniform(3.0, 4.0, size=d)
    j = np.arange(d)
    patterns = [j % 2 == 0, j % 2 == 1, (j // 2) % 2 == 0]
    mu = np.empty((G, d))
    for g in range(G):
        mu[g] = np.where(patterns[g], high, low)
    return mu


def preset(study_id: int) -> SimSpec:
    """SimSpec for benchmark study 1..12.

    Studies 1-5: n=500, two components with pi=(0.25, 0.75) and equal
    block counts; 6-10 repeat the layouts with n=1000 and three components
    with pi=(0.35, 0.10, 0.55); 11-12 use per-component block counts
    (2;3 at d=10 and 4;5 at d=20).  The data seed defaults to
    1000 + study_id; replace it to draw replicate datasets.
    """
    if study_id not in _PRESET_TABLE:
        raise ValueError(f"study_id must be 1..12, got {study_id}")
    n, d, G, blocks = _PRESET_TABLE[study_id]
    return SimSpec(
        n=n,
        d=d,
        pi=_PI_TWO if G == 2 else _PI_THREE,
        mu=_preset_means(study_id, d, G),
        block_sizes=blocks,
        # narrower than the SimSpec default: with magnitudes spread over
        # (0.4, 0.8) a block is internally heterogeneous enough that even
        # the true covariance sometimes silhouette-splits into sub-blocks
        within_block_corr_range=(0.55, 0.75),
        seed=1000 + study_id,
    )


# ---------------------------------------------------------------------------
# ground-truth serialization


def save_truth(truth: GroundTruth, path) -> None:
    payload = {
        "row_labels": [int(v) for v in truth.row_labels],
        "model": model_to_dict(truth.model),
    }
    write_json(payload, path)


def load_truth(path) -> GroundTruth:
    payload = read_json(path)
    return GroundTruth(row_labels=payload["row_labels"], model=model_from_dict(payload["model"]))


_SPEC_KEYS = frozenset(f.name for f in fields(SimSpec))
_REQUIRED_SPEC_KEYS = frozenset(
    f.name for f in fields(SimSpec) if f.default is MISSING
)


def spec_to_dict(spec: SimSpec) -> dict:
    return {
        "n": spec.n,
        "d": spec.d,
        "pi": list(spec.pi),
        "mu": [[float(v) for v in row] for row in spec.mu],
        "block_sizes": [list(sizes) for sizes in spec.block_sizes],
        "within_block_corr_range": list(spec.within_block_corr_range),
        "variance_range": list(spec.variance_range),
        "offsets": spec.offsets
        if isinstance(spec.offsets, str)
        else list(spec.offsets),
        "seed": spec.seed,
    }


def spec_from_dict(payload: dict) -> SimSpec:
    """Build a SimSpec from its JSON form; unknown keys are an error."""
    unknown = sorted(set(payload) - _SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown spec keys: {', '.join(unknown)}")
    missing = sorted(_REQUIRED_SPEC_KEYS - set(payload))
    if missing:
        raise ValueError(f"spec is missing keys: {', '.join(missing)}")
    return SimSpec(**payload)


def save_spec(spec: SimSpec, path) -> None:
    write_json(spec_to_dict(spec), path)


def load_spec(path) -> SimSpec:
    return spec_from_dict(read_json(path))
