"""Mixture model parameters, variational state, a component's Sigma on its
column blocks (``BlockSigma``), and the ELBO.
S and Sigma are held per size class of the component's partition
(``ColumnPartition.classes``), and every sum over its blocks runs in that
class order (``sum_blocks``).

Observation model: counts y_i | x_i are independent Poisson with rates
C_i * exp(x_ij), and x_i is Gaussian with component-specific mean and
block-diagonal covariance.  Each observation-component pair carries a
Gaussian variational posterior q_ig = N(m_ig, S_ig); F(q_ig, y_i) below is
the evidence lower bound of that single observation under component g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .colgroup import ColumnPartition
from .data import read_json, write_json
from .errors import LengthMismatch
from .linalg import cholesky, inverse, logdet_from_cholesky

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
        # written so that NaN fails: every comparison with it is False
        if not (np.all(pi >= 0.0) and abs(float(pi.sum()) - 1.0) <= 1e-12):
            raise ValueError(f"pi must be a probability vector, got {pi.tolist()}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
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
    the simplex.  S_ig is block-diagonal on the partition
    ``partitions[g]`` and stored per size class of it: ``s[g]`` holds one
    (k, n, b, b) array per class of ``partitions[g].classes``, whose
    block t is S's block on the class's columns ``classes[c][t]``.  A
    fitted state's ``partitions[g]`` is component g's final partition.
    """

    m: np.ndarray
    s: tuple
    z: np.ndarray
    partitions: tuple

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        z = np.asarray(self.z, dtype=float)
        s = tuple(tuple(np.asarray(c, dtype=float) for c in stacks) for stacks in self.s)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if m.ndim != 3:
            raise LengthMismatch(f"m must be (n, G, d), got shape {m.shape}")
        n, G, d = m.shape
        if z.shape != (n, G):
            raise LengthMismatch(f"z shape {z.shape}, expected {(n, G)}")
        if len(s) != G or len(self.partitions) != G:
            raise LengthMismatch(f"{len(s)} S and {len(self.partitions)} partitions for G={G}")
        for g, (stacks, part) in enumerate(zip(s, self.partitions)):
            if part.d != d:
                raise LengthMismatch(f"partition {g} covers {part.d} variables, expected {d}")
            if [c.shape for c in stacks] != [(k, n, b, b) for k, b in map(np.shape, part.classes)]:
                raise LengthMismatch(f"S of component {g} does not match its partition")
        # written so that NaN fails, like the check on MixtureModel.pi
        if not (np.all(z >= 0.0) and np.max(np.abs(z.sum(axis=1) - 1.0)) <= 1e-8):
            raise ValueError("z rows must lie on the probability simplex")

    @property
    def n(self) -> int:
        return self.m.shape[0]

    @property
    def G(self) -> int:
        return self.m.shape[1]


def log_factorial(y) -> np.ndarray:
    """sum_j log(y_ij!) per row of a count matrix: log Gamma(y + 1) is
    taken once per distinct count, by ``math.lgamma``."""
    values, inverse = np.unique(np.asarray(y, dtype=float), return_inverse=True)
    table = np.array([math.lgamma(v + 1.0) for v in values.tolist()])
    return table[inverse.reshape(np.shape(y))].sum(axis=1)


def sum_blocks(per_class):
    """The sum over a component's blocks of one (k, ...) array per size
    class, block by block in class order, the fit's one block order."""
    return sum(value for values in per_class for value in values)


def logdet_blocks(s) -> np.ndarray:
    """log det S per observation for S stored per size class: the sum of
    the blocks' log-determinants, each from its Cholesky factor, so an S
    that is not positive definite raises NotPositiveDefinite."""
    return sum_blocks(logdet_from_cholesky(cholesky(c)) for c in s)


def block_index(columns):
    """The index of the diagonal blocks on a (k, b) stack of columns: a
    (d, d) array indexed by it is the (k, b, b) stack of its blocks."""
    return columns[:, :, None], columns[:, None, :]


@dataclass(frozen=True)
class SizeClass:
    """The blocks of one size of a ``BlockSigma``: their (k, b) column
    indices, their (k, b, b) blocks of Sigma and the blocks' inverses."""

    columns: np.ndarray
    blocks: np.ndarray
    inverses: np.ndarray


@dataclass(frozen=True)
class BlockSigma:
    """A component's Sigma on its partition's blocks: one ``SizeClass`` per
    class of ``partition.classes`` and log det Sigma.  A dense Sigma is the
    one-block partition."""

    partition: ColumnPartition
    classes: tuple
    logdet: float

    @classmethod
    def from_factors(cls, partition, factors):
        """Sigma from one (blocks, lower) pair per class of
        ``partition.classes``: the class's (k, b, b) stack of blocks and
        their Cholesky factors.  Each class's stack is inverted by one
        ``inverse`` call, and log det Sigma is summed from the factors'
        diagonals."""
        classes = tuple(SizeClass(cols, stack, inverse(stack)) for cols, (stack, _)
                        in zip(partition.classes, factors, strict=True))
        return cls(partition, classes,
                   sum_blocks(logdet_from_cholesky(lower) for _, lower in factors))

    def objective(self, w, mass):
        """-mass/2 * (tr(Sigma^-1 W) + log det Sigma), the component's
        weighted Gaussian objective against the scatter W; Sigma^-1 is
        block-diagonal, so only W's blocks on the partition enter, one
        stack per size class."""
        traces = [np.einsum("kij,kji->k", c.inverses, w[block_index(c.columns)])
                  for c in self.classes]
        return -0.5 * mass * (sum_blocks(traces) + self.logdet)

    def no_worse_than(self, current, w, mass):
        """Ascent guard of the covariance refresh: whether this Sigma does
        not lower the objective against W below its value at ``current``."""
        before = current.objective(w, mass)
        return self.objective(w, mass) >= before - 1e-10 * (1.0 + abs(before))

    def dense(self):
        """Sigma as a d x d matrix, exactly zero outside the blocks."""
        out = np.zeros((self.partition.d, self.partition.d))
        for c in self.classes:
            out[block_index(c.columns)] = c.blocks
        return out


def elbo_batch(
    y: np.ndarray,
    log_c: np.ndarray,
    m: np.ndarray,
    s,
    mu: np.ndarray,
    sigma: BlockSigma,
    log_fact: np.ndarray,
    logdet_s: np.ndarray,
) -> np.ndarray:
    """F(q_ig, y_i) for all observations under one component, vectorized.

    y, m: (n, d); mu: (d,).  S is stored per size class of Sigma's
    partition: s holds one (k, n, b, b) stack per class of
    ``sigma.classes``, and each class's quadratic forms and traces are
    taken as one batch of BLAS products, then summed over the blocks
    (``sum_blocks``).  log_fact is sum_j log(y_ij!) per row
    (``log_factorial``) and logdet_s log det S per row (``logdet_blocks``,
    or carried from the S-step).
    """
    y = np.asarray(y, dtype=float)
    n, d = m.shape
    dm = m - mu
    quads, traces = [], []
    s_diag = np.empty_like(dm)
    for c, s_c in zip(sigma.classes, s, strict=True):
        k, b = c.columns.shape
        dm_c = np.moveaxis(dm[:, c.columns], 1, 0)
        quads.append(np.einsum("kni,kni->kn", dm_c @ c.inverses, dm_c))
        # tr(Sigma_b^-1 S_b) as one matrix-vector product per block: Sigma_b^-1
        # is exactly symmetric; b * b, not -1, so that n = 0 rows reshape
        traces.append((s_c.reshape(k, n, b * b) @ c.inverses.reshape(k, b * b, 1))[..., 0])
        s_diag[:, c.columns] = np.moveaxis(np.einsum("knjj->knj", s_c), 0, 1)
    rate = poisson_rate(log_c, m, s_diag)
    return (
        -0.5 * sum_blocks(quads)
        - 0.5 * sum_blocks(traces)
        + 0.5 * logdet_s
        - 0.5 * sigma.logdet
        + 0.5 * d
        + np.einsum("ni,ni->n", m, y)
        + log_c * y.sum(axis=1)
        - rate.sum(axis=1)
        - log_fact
    )


def poisson_rate(log_c, m, diag_s):
    """Expected Poisson count exp(log C + m + diag(S)/2) under q = N(m, S).

    ``log_c`` has one entry per row of ``m`` and ``diag_s`` (its leading
    shape); the exponent is capped at EXP_CAP.
    """
    return np.exp(np.minimum(log_c[..., None] + m + 0.5 * diag_s, EXP_CAP))


def posterior(elbo: np.ndarray, pi: np.ndarray) -> tuple[float, np.ndarray]:
    """Observed-data bound and responsibilities from the (n, G) ELBO matrix.

    The bound is sum_i log sum_g pi_g exp(F_ig); it equals lower_bound(...)
    plus the entropy of the responsibilities, and unlike that quantity it is
    nondecreasing along the EM iteration, so the fitting loop traces and
    converges on this one.  The responsibilities are the row-wise softmax of
    log pi_g + F_ig.  Both come from the same weights, computed with each
    row's max shifted out so large negative ELBOs cannot underflow.
    """
    logw = np.log(np.maximum(pi, RESP_FLOOR))[None, :] + elbo
    shift = logw.max(axis=1, keepdims=True)
    w = np.exp(logw - shift)
    total = w.sum(axis=1, keepdims=True)
    bound = float(np.sum(shift[:, 0] + np.log(total[:, 0])))
    z = w / total
    if np.any(z < RESP_FLOOR):
        z = np.maximum(z, RESP_FLOOR)
        z = z / z.sum(axis=1, keepdims=True)
    return bound, z


def lower_bound(elbo: np.ndarray, z: np.ndarray, pi: np.ndarray) -> float:
    """Responsibility-weighted aggregate bound sum_ig z_ig (log pi_g + F_ig)."""
    logpi = np.log(np.maximum(pi, RESP_FLOOR))
    return float(np.sum(z * (logpi[None, :] + elbo)))


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
    """ValueError unless each component's blocks list every column 0..d-1
    once, as whole numbers."""
    G = int(payload["G"])
    d = int(payload["d"])
    groupings = []
    for g, blocks in enumerate(payload["blocks"], start=1):
        columns = np.asarray([c for members in blocks for c in members])
        if columns.dtype.kind not in "iuf" or not np.array_equal(np.sort(columns), np.arange(d)):
            raise ValueError(
                f"blocks of component {g} must list each column 0..{d - 1} once, "
                "as whole numbers"
            )
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
    write_json(model_to_dict(model), path)


def load_model(path: str | Path) -> MixtureModel:
    return model_from_dict(read_json(path))
