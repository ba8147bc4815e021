"""Recovery metrics: row-cluster agreement, column-group error, parameter MSE.

Estimated components carry arbitrary labels, so every comparison against
ground truth first aligns components by the permutation that maximizes
row-label agreement (optimal assignment, not greedy — greedy matching can
misreport errors when components are nearly symmetric).  All per-component
quantities in an :class:`EvalReport` are indexed in TRUE component order
after that alignment.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .colgroup import ColumnPartition
from .data import integer, labels_in_range, read_json, write_csv, write_json
from .errors import LengthMismatch

__all__ = [
    "ari",
    "align_components",
    "column_misclassification",
    "relabelling",
    "param_mse",
    "support_count_heatmap",
    "EvalReport",
    "evaluate_fit",
    "aggregate_reports",
    "replicate_sds",
    "none_if_nan",
    "report_to_dict",
    "save_report",
    "load_report",
    "save_support_csv",
    "save_support_pgm",
]


def _overlap(a, b, k: int) -> np.ndarray:
    """(k, k) table whose entry [t, e] counts the items labelled t + 1 in
    ``a`` and e + 1 in ``b`` (1-based labels; labels above k are left out)."""
    return np.array([np.bincount(b[a == t], minlength=k + 1)[1:k + 1] for t in range(1, k + 1)])


def relabelling(a, b, k: int) -> Optional[np.ndarray]:
    """The renaming that turns labelling ``a`` into ``b``, or None.

    ``perm[t] + 1`` is the label in ``b`` of the items labelled ``t + 1`` in
    ``a``, when the two labellings (1-based, labels in 1..k) split the
    items the same way up to renaming: their overlap table has exactly one
    nonzero entry per row and per column.  A label that labels no item
    leaves a row or column empty, so it never matches.
    """
    nonzero = _overlap(a, b, k) != 0
    if np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1):
        return np.argmax(nonzero, axis=1)
    return None


def ari(a, b) -> float:
    """Adjusted Rand index between two labelings.

    1 means identical partitions (up to renaming); 0 is the chance level.
    Degenerate comparisons where the adjustment denominator vanishes (for
    example both sides a single cluster) count as perfect agreement.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"label vectors differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n < 2:
        raise ValueError("ARI needs at least 2 observations")
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    table = _overlap(a_idx + 1, b_idx + 1, max(a_idx.max(), b_idx.max()) + 1)
    sum_cells = sum(comb(int(v), 2) for v in table.ravel())
    sum_rows = sum(comb(int(v), 2) for v in table.sum(axis=1))
    sum_cols = sum(comb(int(v), 2) for v in table.sum(axis=0))
    expected = sum_rows * sum_cols / comb(n, 2)
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))


def align_components(truth_labels, est_labels, g: int) -> np.ndarray:
    """Match estimated components to true ones by row-label overlap.

    Returns ``perm`` with ``perm[t]`` = 0-based index of the estimated
    component assigned to true component ``t`` (0-based), maximizing the
    total number of co-assigned rows.  Both label vectors are 1-based.
    """
    truth_labels = np.asarray(truth_labels)
    est_labels = np.asarray(est_labels)
    if truth_labels.shape != est_labels.shape:
        raise LengthMismatch(
            f"label vectors differ: {truth_labels.shape} vs {est_labels.shape}"
        )
    # imported here so that fitting never loads scipy
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(_overlap(truth_labels, est_labels, g), maximize=True)
    perm = np.empty(g, dtype=np.int64)
    perm[rows] = cols
    return perm


def column_misclassification(truth: ColumnPartition, est: ColumnPartition) -> float:
    """Fraction of variables assigned to the wrong group, best-case.

    The two label sets are padded to max(K_true, K_est) and the fraction
    is minimized exactly over all label bijections via optimal assignment
    on the group-agreement matrix.
    """
    if truth.assign.shape != est.assign.shape:
        raise LengthMismatch(
            f"partitions cover different variable counts: "
            f"{truth.assign.shape[0]} vs {est.assign.shape[0]}"
        )
    d = truth.assign.shape[0]
    from scipy.optimize import linear_sum_assignment

    agreement = _overlap(truth.assign, est.assign, max(truth.k, est.k))
    rows, cols = linear_sum_assignment(agreement, maximize=True)
    matched = agreement[rows, cols].sum()
    return float((d - matched) / d)


def param_mse(truth, est, truth_labels, est_labels):
    """Per-component squared errors of the mean vectors and proportions.

    Components are aligned by row-label agreement first; entry ``t`` of
    each returned tuple refers to true component ``t + 1``.  Returns
    (mu_mse, pi_mse) where mu_mse averages over the d coordinates.
    """
    if truth.G != est.G:
        raise ValueError(f"component counts differ: {truth.G} vs {est.G}")
    if truth.d != est.d:
        raise ValueError(f"dimensions differ: {truth.d} vs {est.d}")
    perm = align_components(truth_labels, est_labels, truth.G)
    mu_mse = np.array([
        np.mean((est.mu[perm[t]] - truth.mu[t]) ** 2) for t in range(truth.G)
    ])
    pi_mse = np.array([
        (est.pi[perm[t]] - truth.pi[t]) ** 2 for t in range(truth.G)
    ])
    return mu_mse, pi_mse


def support_count_heatmap(estimates) -> np.ndarray:
    """Entrywise count of estimates with a non-zero entry.

    The covariance estimators write literal zeros outside their blocks, so
    the non-zero test is exact — no threshold involved.
    """
    estimates = [np.asarray(e) for e in estimates]
    if not estimates:
        raise ValueError("need at least one estimate")
    shape = estimates[0].shape
    for e in estimates:
        if e.shape != shape:
            raise LengthMismatch(f"estimate shapes differ: {shape} vs {e.shape}")
    counts = np.zeros(shape, dtype=np.int64)
    for e in estimates:
        counts += (np.abs(e) > 0).astype(np.int64)
    return counts


@dataclass
class EvalReport:
    """Recovery metrics for one fit, or aggregated over replicates.

    Per-component fields follow TRUE component order.  When the estimated
    component count differs from the truth, the parameter metrics are NaN
    (serialized as null) and only the ARI is meaningful.
    """

    row_ari: float
    col_misclass: tuple  # per true component, NaN where unmatched
    col_misclass_mean: float
    mu_mse: tuple
    pi_mse: tuple
    support_counts: tuple  # per true component, (d, d) int arrays
    n_replicates: int = 1
    sd: Optional[dict] = None  # replicate_sds of two or more replicates

    @property
    def mu_mse_mean(self) -> float:
        return _nanmean(self.mu_mse)

    @property
    def pi_mse_mean(self) -> float:
        return _nanmean(self.pi_mse)


def _nanmean(values, axis=None):
    """``np.nanmean`` without its empty-slice warning: all-NaN gives NaN."""
    arr = np.asarray(values, dtype=float)
    defined = ~np.isnan(arr)
    with np.errstate(invalid="ignore"):
        means = np.where(defined, arr, 0.0).sum(axis=axis) / defined.sum(axis=axis)
    return float(means) if axis is None else tuple(float(v) for v in means)


def evaluate_fit(truth, model, labels) -> EvalReport:
    """Score one fitted model against the ground truth that generated it.

    ``truth`` is a GroundTruth; ``model``/``labels`` come from the fit.
    ValueError is raised unless every label is a whole number in 1..G, and
    LengthMismatch unless the fit has the truth's rows and variables.
    """
    labels = labels_in_range("labels", labels, model.G)
    truth_model = truth.model
    if model.d != truth_model.d or labels.size != truth.row_labels.size:
        raise LengthMismatch(
            f"the fit has d={model.d} and {labels.size} rows, "
            f"the truth d={truth_model.d} and {truth.row_labels.size} rows"
        )
    g_true = truth_model.G
    row_ari = ari(truth.row_labels, labels)
    if model.G == g_true:
        perm = align_components(truth.row_labels, labels, g_true)
        col = tuple(
            column_misclassification(
                truth.column_partitions[t], model.groupings[perm[t]]
            )
            for t in range(g_true)
        )
        mu_mse, pi_mse = param_mse(truth_model, model, truth.row_labels, labels)
        support = tuple(
            support_count_heatmap([model.sigma[perm[t]]]) for t in range(g_true)
        )
    else:
        col = (float("nan"),) * g_true
        mu_mse = np.full(g_true, np.nan)
        pi_mse = np.full(g_true, np.nan)
        d = truth_model.d
        support = tuple(np.zeros((d, d), dtype=np.int64) for _ in range(g_true))
    return EvalReport(
        row_ari=row_ari,
        col_misclass=col,
        col_misclass_mean=_nanmean(col),
        mu_mse=tuple(float(v) for v in mu_mse),
        pi_mse=tuple(float(v) for v in pi_mse),
        support_counts=support,
        n_replicates=1,
    )


def aggregate_reports(reports) -> EvalReport:
    """Combine per-replicate reports: metric means, support-count sums.

    Two or more reports also get their replicate SDs (``replicate_sds``) as
    ``sd``; a single report keeps its metrics and gets ``sd`` None.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    g = len(reports[0].col_misclass)
    for r in reports:
        if len(r.col_misclass) != g:
            raise LengthMismatch("reports cover different component counts")
    support = tuple(
        sum(r.support_counts[t] for r in reports) for t in range(g)
    )
    return EvalReport(
        row_ari=float(np.mean([r.row_ari for r in reports])),
        col_misclass=_nanmean([r.col_misclass for r in reports], axis=0),
        col_misclass_mean=_nanmean([r.col_misclass_mean for r in reports]),
        mu_mse=_nanmean([r.mu_mse for r in reports], axis=0),
        pi_mse=_nanmean([r.pi_mse for r in reports], axis=0),
        support_counts=support,
        n_replicates=sum(r.n_replicates for r in reports),
        sd=replicate_sds(reports) if len(reports) > 1 else None,
    )


def replicate_sds(reports) -> dict:
    """Sample standard deviations of the metrics across replicate reports.

    NaN-aware: a metric with fewer than two defined values gets None.
    """

    def sd(values):
        arr = np.asarray(values, dtype=float)
        arr = arr[~np.isnan(arr)]
        if arr.size < 2:
            return None
        return float(np.std(arr, ddof=1))

    g = len(reports[0].col_misclass)
    return {
        "row_ari": sd([r.row_ari for r in reports]),
        "col_misclass": [
            sd([r.col_misclass[t] for r in reports]) for t in range(g)
        ],
        "col_misclass_mean": sd([r.col_misclass_mean for r in reports]),
        "mu_mse": [sd([r.mu_mse[t] for r in reports]) for t in range(g)],
        "pi_mse": [sd([r.pi_mse[t] for r in reports]) for t in range(g)],
        "mu_mse_mean": sd([r.mu_mse_mean for r in reports]),
        "pi_mse_mean": sd([r.pi_mse_mean for r in reports]),
    }


def none_if_nan(value):
    """``value`` as a float, or None (JSON null) for None or NaN."""
    return None if value is None or np.isnan(value) else float(value)


def report_to_dict(report: EvalReport) -> dict:
    payload = {
        "row_ari": report.row_ari,
        "col_misclass": [none_if_nan(v) for v in report.col_misclass],
        "col_misclass_mean": none_if_nan(report.col_misclass_mean),
        "mu_mse": [none_if_nan(v) for v in report.mu_mse],
        "pi_mse": [none_if_nan(v) for v in report.pi_mse],
        "support_counts": [m.tolist() for m in report.support_counts],
        "n_replicates": report.n_replicates,
    }
    if report.sd is not None:
        payload["sd"] = report.sd
    return payload


def save_report(report: EvalReport, path) -> None:
    write_json(report_to_dict(report), path)


def load_report(path) -> EvalReport:
    """The report ``save_report`` wrote at ``path``, its fields typed;
    KeyError, TypeError or ValueError on a malformed file."""
    payload = read_json(path)

    def number(value):
        # null, an undefined metric, reads as NaN
        if value is not None and (type(value) not in (int, float)
                                  or abs(value) > sys.float_info.max):
            raise ValueError(f"expected a number or null, got {value!r}")
        return float("nan") if value is None else float(value)

    def back(values):
        return tuple(number(v) for v in values)

    sd = payload["sd"] if "sd" in payload else None
    if sd is not None:  # an undefined sd stays None
        sd = {key: [none_if_nan(number(v)) for v in value] if isinstance(value, list)
              else none_if_nan(number(value)) for key, value in dict(sd).items()}
    return EvalReport(
        row_ari=number(payload["row_ari"]),
        col_misclass=back(payload["col_misclass"]),
        col_misclass_mean=number(payload["col_misclass_mean"]),
        mu_mse=back(payload["mu_mse"]),
        pi_mse=back(payload["pi_mse"]),
        support_counts=tuple(
            np.asarray(m, dtype=np.int64) for m in payload["support_counts"]
        ),
        n_replicates=integer("n_replicates", payload["n_replicates"], 1),
        sd=sd,
    )


def save_support_csv(counts: np.ndarray, path) -> None:
    """Plain integer matrix, one CSV row per matrix row."""
    write_csv(np.asarray(counts, dtype=np.int64).tolist(), path)


def save_support_pgm(counts: np.ndarray, path) -> None:
    """8-bit binary PGM heatmap; the maximum count maps to 255, linearly."""
    counts = np.asarray(counts, dtype=np.int64)
    peak = counts.max()
    if peak > 0:
        pixels = np.rint(counts * (255.0 / peak)).astype(np.uint8)
    else:
        pixels = np.zeros_like(counts, dtype=np.uint8)
    h, w = counts.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
