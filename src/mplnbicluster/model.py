"""Mixture model parameters, variational state, and the ELBO.

Observation model: counts y_i | x_i are independent Poisson with rates
C_i * exp(x_ij), and x_i is Gaussian with component-specific mean and
block-diagonal covariance.  Each observation-component pair carries a
Gaussian variational posterior q_ig = N(m_ig, S_ig); F(q_ig, y_i) below is
the evidence lower bound of that single observation under component g.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from .colgroup import ColumnPartition
from .errors import LengthMismatch
from .linalg import cholesky, inv_logdet_from_cholesky, logdet_from_cholesky

# Cap on exponents fed to np.exp: keeps the ELBO and its updates finite
# (-inf ELBO instead of NaN) if an iterate ever runs away.
EXP_CAP = 700.0

# Responsibilities are floored at this tiny value purely so later divisions
# by column sums cannot hit exact zero.
RESP_FLOOR = 1e-300


@dataclass(frozen=True)
class MixtureModel:
    """Fitted (or ground-truth) mixture parameters.

    Attributes
    ----------
    pi : (G,) mixing proportions, simplex to 1e-12.
    mu : (G, d) component means of the latent Gaussian.
    sigma : (G, d, d) component covariances, block-diagonal under `groupings`
        with exact zeros outside the blocks.
    groupings : tuple of G ColumnPartition
        Column groups of each component (the block structure).
    """

    pi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    groupings: tuple[ColumnPartition, ...]

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "groupings", tuple(self.groupings))
        G = pi.shape[0]
        if mu.ndim != 2 or mu.shape[0] != G:
            raise LengthMismatch(f"mu shape {mu.shape} does not match G={G}")
        d = mu.shape[1]
        if sigma.shape != (G, d, d):
            raise LengthMismatch(f"sigma shape {sigma.shape}, expected {(G, d, d)}")
        if len(self.groupings) != G:
            raise LengthMismatch(f"{len(self.groupings)} groupings for G={G}")
        if np.any(pi < 0.0) or abs(float(pi.sum()) - 1.0) > 1e-12:
            raise ValueError(f"pi must be a probability vector, got {pi.tolist()}")
        for g, part in enumerate(self.groupings):
            if part.d != d:
                raise LengthMismatch(f"grouping {g} covers {part.d} variables, expected {d}")
            if not np.array_equal(sigma[g], sigma[g].T):
                raise ValueError(f"sigma[{g}] is not symmetric")
            outside = sigma[g][part.assign[:, None] != part.assign[None, :]]
            if outside.size and np.any(outside != 0.0):
                raise ValueError(f"sigma[{g}] has nonzero entries outside its blocks")
            cholesky(sigma[g])  # raises NotPositiveDefinite

    @property
    def G(self) -> int:
        return self.pi.shape[0]

    @property
    def d(self) -> int:
        return self.mu.shape[1]

    @property
    def n_free_parameters(self) -> int:
        return count_free_parameters(
            self.G, self.d, tuple(part.block_sizes() for part in self.groupings)
        )


@dataclass(frozen=True)
class VariationalState:
    """Per-observation, per-component variational parameters.

    m : (n, G, d) variational means; z : (n, G) responsibilities, rows on
    the simplex.  S_ig is stored per column block: ``groups[g]`` holds index
    arrays partitioning range(d) and ``s[g]`` the (n, b, b) blocks of S_ig
    on them.  A fitted state's ``groups[g]`` are component g's final blocks,
    merged with the previous partition's if it changed after the last sweep.
    """

    m: np.ndarray
    s: tuple
    z: np.ndarray
    groups: tuple

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        z = np.asarray(self.z, dtype=float)
        s = tuple(tuple(np.asarray(b, dtype=float) for b in blocks) for blocks in self.s)
        groups = tuple(tuple(np.asarray(idx, dtype=np.intp) for idx in g) for g in self.groups)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "groups", groups)
        if m.ndim != 3:
            raise LengthMismatch(f"m must be (n, G, d), got shape {m.shape}")
        n, G, d = m.shape
        if z.shape != (n, G):
            raise LengthMismatch(f"z shape {z.shape}, expected {(n, G)}")
        if len(s) != G or len(groups) != G:
            raise LengthMismatch(f"{len(s)} S and {len(groups)} group tuples for G={G}")
        for g, (blocks, idxs) in enumerate(zip(s, groups)):
            cols = np.concatenate((np.empty(0, dtype=np.intp),) + idxs)
            if not np.array_equal(np.sort(cols), np.arange(d)):
                raise LengthMismatch(f"groups[{g}] do not partition the {d} columns")
            if [block.shape for block in blocks] != [(n, i.size, i.size) for i in idxs]:
                raise LengthMismatch(f"S blocks of component {g} do not match its groups")
        if np.any(z < 0.0) or np.max(np.abs(z.sum(axis=1) - 1.0)) > 1e-8:
            raise ValueError("z rows must lie on the probability simplex")

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def G(self) -> int:
        return self.m.shape[1]


def elbo_batch(
    y: np.ndarray,
    log_c: np.ndarray,
    m: np.ndarray,
    s,
    mu: np.ndarray,
    sigma_inv,
    logdet_sigma: float,
    log_fact: np.ndarray | None = None,
    logdet_s: np.ndarray | None = None,
    *,
    groups,
) -> np.ndarray:
    """F(q_ig, y_i) for all observations under one component, vectorized.

    y, m: (n, d); mu: (d,).  S and Sigma^-1 are block-diagonal over the
    column blocks ``groups`` (index arrays partitioning the columns): s
    holds one (n, b, b) array and sigma_inv one (b, b) array per block,
    and the quadratic, trace and log-det terms are summed over blocks.
    log_fact is sum_j log(y_ij!) per row (computed if omitted); logdet_s
    may be passed when the caller already has it from a factorization.
    Otherwise each block of S is Cholesky-factored, which raises
    NotPositiveDefinite for an S that is not positive definite.
    """
    y = np.asarray(y, dtype=float)
    if log_fact is None:
        log_fact = gammaln(y + 1.0).sum(axis=1)
    if logdet_s is None:
        logdet_s = sum(logdet_from_cholesky(cholesky(block)) for block in s)
    d = m.shape[1]
    dm = m - mu
    quad = 0.0
    trace = 0.0
    s_diag = np.empty_like(dm)
    for idx, s_b, inv_b in zip(groups, s, sigma_inv):
        dm_b = dm[:, idx]
        quad = quad + np.einsum("ni,ij,nj->n", dm_b, inv_b, dm_b)
        trace = trace + np.einsum("ij,nji->n", inv_b, s_b)
        s_diag[:, idx] = np.einsum("njj->nj", s_b)
    rate = np.exp(np.minimum(log_c[:, None] + m + 0.5 * s_diag, EXP_CAP))
    return (
        -0.5 * quad
        - 0.5 * trace
        + 0.5 * logdet_s
        - 0.5 * logdet_sigma
        + 0.5 * d
        + np.einsum("ni,ni->n", m, y)
        + log_c * y.sum(axis=1)
        - rate.sum(axis=1)
        - log_fact
    )


def elbo_observation(
    y: np.ndarray,
    log_c: float,
    m: np.ndarray,
    s: np.ndarray,
    mu: np.ndarray,
    sigma: np.ndarray,
) -> float:
    """Single-observation ELBO F(q, y) under one component; S is one block."""
    sigma_inv, logdet_sigma = inv_logdet_from_cholesky(cholesky(sigma))
    return float(
        elbo_batch(
            np.asarray(y, dtype=float)[None, :],
            np.array([log_c], dtype=float),
            np.asarray(m, dtype=float)[None, :],
            [np.asarray(s, dtype=float)[None, :, :]],
            np.asarray(mu, dtype=float),
            [sigma_inv],
            logdet_sigma,
            groups=(np.arange(np.size(m)),),
        )[0]
    )


def responsibilities(elbo: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Posterior component probabilities from the (n, G) ELBO matrix.

    Row-wise softmax of log pi_g + F_ig, computed with the max shifted out
    so large negative ELBOs cannot underflow the normalizer.
    """
    logw = np.log(np.maximum(pi, RESP_FLOOR))[None, :] + elbo
    shift = logw.max(axis=1, keepdims=True)
    w = np.exp(logw - shift)
    z = w / w.sum(axis=1, keepdims=True)
    if np.any(z < RESP_FLOOR):
        z = np.maximum(z, RESP_FLOOR)
        z = z / z.sum(axis=1, keepdims=True)
    return z


def lower_bound(elbo: np.ndarray, z: np.ndarray, pi: np.ndarray) -> float:
    """Responsibility-weighted aggregate bound sum_ig z_ig (log pi_g + F_ig)."""
    logpi = np.log(np.maximum(pi, RESP_FLOOR))
    return float(np.sum(z * (logpi[None, :] + elbo)))


def observed_bound(elbo: np.ndarray, pi: np.ndarray) -> float:
    """Aggregate bound on the observed-data log-likelihood.

    sum_i log sum_g pi_g exp(F_ig), evaluated by log-sum-exp.  Equals
    lower_bound(...) plus the entropy of the softmax responsibilities, and
    unlike that quantity it is nondecreasing along the EM iteration, so the
    fitting loop traces and converges on this one.
    """
    logw = np.log(np.maximum(pi, RESP_FLOOR))[None, :] + elbo
    shift = logw.max(axis=1, keepdims=True)
    return float(np.sum(shift[:, 0] + np.log(np.sum(np.exp(logw - shift), axis=1))))


def count_free_parameters(
    G: int, d: int, block_sizes: tuple[tuple[int, ...], ...]
) -> int:
    """Number of free parameters of a G-component model on d variables.

    (G - 1) mixing proportions, G*d means, and for every block of size b
    within a component, b(b+1)/2 covariance entries.
    """
    if len(block_sizes) != G:
        raise LengthMismatch(f"{len(block_sizes)} block-size tuples for G={G}")
    total = (G - 1) + G * d
    for g, sizes in enumerate(block_sizes):
        if sum(sizes) != d:
            raise LengthMismatch(f"component {g} blocks sum to {sum(sizes)}, expected {d}")
        total += sum(b * (b + 1) // 2 for b in sizes)
    return total


def bic(lower_bound: float, p: int, n: int) -> float:
    """Bayesian information criterion on the bound scale; larger is better."""
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return float(2.0 * lower_bound - p * np.log(n))


# ---------------------------------------------------------------------------
# JSON serialization


def model_to_dict(model: MixtureModel) -> dict:
    """JSON-ready dict: pi, mu, per-component variable-index blocks, sigma."""
    return {
        "G": model.G,
        "d": model.d,
        "pi": model.pi.tolist(),
        "mu": model.mu.tolist(),
        "blocks": [
            [sorted(int(v) for v in members) for members in part.groups()]
            for part in model.groupings
        ],
        "sigma": model.sigma.tolist(),
    }


def model_from_dict(payload: dict) -> MixtureModel:
    G = int(payload["G"])
    d = int(payload["d"])
    groupings = []
    for blocks in payload["blocks"]:
        assign = np.zeros(d, dtype=np.int64)
        for label, members in enumerate(blocks, start=1):
            assign[np.asarray(members, dtype=int)] = label
        groupings.append(ColumnPartition(assign, len(blocks)))
    return MixtureModel(
        np.asarray(payload["pi"], dtype=float),
        np.asarray(payload["mu"], dtype=float),
        np.asarray(payload["sigma"], dtype=float),
        tuple(groupings),
    )


def save_model(model: MixtureModel, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path: str | Path) -> MixtureModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
