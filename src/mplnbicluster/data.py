"""Count-matrix and offset handling, and the package's file formats.

Counts are stored as a dense integer matrix with named samples (rows) and
variables (columns).  Offsets are per-sample positive multipliers of the
Poisson rate (library-size normalizers); they enter the model on the log
scale but are stored and exchanged on the natural scale.  This module owns
the JSON and CSV formats: every JSON file the package writes or reads goes
through ``write_json`` and ``read_json``, and every CSV table it writes
through ``write_csv``.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    LengthMismatch,
    MplnError,
    NegativeCount,
    NonIntegerCount,
    NonpositiveOffset,
    ZeroLibrarySize,
)

# the largest count the fit, which takes counts as float64, holds exactly
MAX_COUNT = 2**53


def integer(name, value, low):
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer of at least ``low``."""
    # bool is an Integral too, but True is no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return int(value)


def labels_in_range(name, values, k):
    """``values`` as a 1-D int64 array; ValueError naming ``name`` unless
    every value is a whole number in 1..k."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a flat list of numbers")
    bad = np.flatnonzero(~((arr >= 1) & (arr <= k) & (arr == np.floor(arr))))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{name} must be whole numbers in 1..{k}; entry {i} is {arr[i].item()!r}")
    return arr.astype(np.int64)


def write_json(payload, path: str | Path) -> None:
    """Write ``payload`` as JSON indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_json(path: str | Path):
    """The JSON value in the file at ``path``; json.JSONDecodeError if it
    does not parse."""
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class CountMatrix:
    """A samples-by-variables matrix of nonnegative integer counts.

    The ids are checked first, then the counts: each must be a whole
    number from 0 to ``MAX_COUNT``, or NegativeCount or NonIntegerCount
    names the first bad cell's row id and column.

    Attributes
    ----------
    counts : ndarray of int64, shape (n, d)
    sample_ids : tuple of str, length n
        Unique row identifiers.
    var_names : tuple of str, length d
        Unique column identifiers.
    """

    counts: np.ndarray
    sample_ids: tuple[str, ...]
    var_names: tuple[str, ...]

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise LengthMismatch(f"counts must be 2-D, got shape {counts.shape}")
        object.__setattr__(self, "sample_ids", tuple(str(s) for s in self.sample_ids))
        object.__setattr__(self, "var_names", tuple(str(v) for v in self.var_names))
        n, d = counts.shape
        if len(self.sample_ids) != n:
            raise LengthMismatch(f"{len(self.sample_ids)} sample ids for {n} rows")
        if len(self.var_names) != d:
            raise LengthMismatch(f"{len(self.var_names)} variable names for {d} columns")
        if len(set(self.sample_ids)) != n:
            raise LengthMismatch("sample ids are not unique")
        if len(set(self.var_names)) != d:
            raise LengthMismatch("variable names are not unique")
        if counts.dtype.kind not in "biu":
            counts = counts.astype(float)
        # written so that NaN is bad: every comparison with it is False
        good = (counts >= 0) & (counts <= MAX_COUNT)
        if counts.dtype.kind == "f":
            good &= counts == np.floor(counts)
        if not np.all(good):
            i, j = np.argwhere(~good)[0]
            value = repr(counts[i, j].item()).removesuffix(".0")  # -2.0 reads as -2
            where = f"at row {self.sample_ids[i]!r}, column {self.var_names[j]!r}"
            if counts[i, j] < 0:
                raise NegativeCount(f"negative count {value} {where}")
            raise NonIntegerCount(f"count {value} {where} is not a whole number up to 2**53")
        object.__setattr__(self, "counts", counts.astype(np.int64, copy=False))

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @property
    def d(self) -> int:
        return self.counts.shape[1]


@dataclass(frozen=True)
class OffsetVector:
    """Per-sample positive rate multipliers.

    Attributes
    ----------
    c : ndarray of float64, shape (n,)
        Strictly positive offsets on the natural scale.
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1:
            raise LengthMismatch(f"offsets must be 1-D, got shape {c.shape}")
        if np.any(~np.isfinite(c)) or np.any(c <= 0.0):
            i = int(np.flatnonzero(~np.isfinite(c) | (c <= 0.0))[0])
            raise NonpositiveOffset(f"offset {i} is {c[i]!r}; offsets must be finite and > 0")
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def log(self) -> np.ndarray:
        return np.log(self.c)


def check_offsets(counts: CountMatrix, offsets: OffsetVector) -> None:
    """Raise LengthMismatch unless ``offsets`` has one value per row of ``counts``."""
    if offsets.n != counts.n:
        raise LengthMismatch(f"{offsets.n} offsets for {counts.n} samples")


def _delimiter(path: str | Path) -> str:
    """Tab for a .tsv file, comma for anything else."""
    return "\t" if Path(path).suffix.lower() == ".tsv" else ","


def write_csv(rows, path: str | Path) -> None:
    """Write ``rows``, an iterable of field sequences with the header first
    if there is one; a .tsv file is tab-delimited, anything else
    comma-delimited."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, delimiter=_delimiter(path)).writerows(rows)


def load_counts(path: str | Path) -> CountMatrix:
    """Read a count matrix from a delimited text file.

    The first row is a header: an identifier column name followed by the
    variable names.  Every following row is a sample id followed by the
    counts for that sample.

    Parameters
    ----------
    path : str or Path
        A .tsv file is tab-delimited, anything else comma-delimited.

    Returns
    -------
    CountMatrix

    Raises
    ------
    NonIntegerCount
        On a cell that does not parse as a number, with its row id and
        column name in the message.
    LengthMismatch
        On ragged rows, an empty file, or duplicate identifiers.

    Each cell is read as a float64, the type the fit takes counts as;
    ``CountMatrix`` checks the values.  Every message starts with the
    path.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=_delimiter(path)))
    rows = [r for r in rows if r]  # ignore blank lines
    if not rows:
        raise LengthMismatch(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2:
        raise LengthMismatch(f"{path}: header has no variable columns")
    var_names = tuple(name.strip() for name in header[1:])
    sample_ids: list[str] = []
    data = np.empty((len(rows) - 1, len(var_names)))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise LengthMismatch(
                f"{path}: line {r} has {len(row)} fields, expected {len(header)}"
            )
        sid = row[0].strip()
        sample_ids.append(sid)
        for j, cell in enumerate(row[1:]):
            try:
                data[r - 2, j] = float(cell)
            except ValueError:
                raise NonIntegerCount(
                    f"{path}: unparseable count {cell.strip()!r} at row {sid!r}, "
                    f"column {var_names[j]!r}"
                ) from None
    try:
        return CountMatrix(data, tuple(sample_ids), var_names)
    except MplnError as exc:  # bad ids or counts
        raise type(exc)(f"{path}: {exc}") from None


def save_counts(cm: CountMatrix, path: str | Path) -> None:
    """Write a count matrix in the format accepted by load_counts."""
    rows = zip(cm.sample_ids, cm.counts.tolist())
    write_csv([["sample_id", *cm.var_names], *([sid, *row] for sid, row in rows)], path)


def compute_offsets(cm: CountMatrix, mode: str = "unit") -> OffsetVector:
    """Derive per-sample offsets from a count matrix.

    Parameters
    ----------
    cm : CountMatrix
    mode : {'unit', 'libsize'}
        'unit' gives all-ones offsets.  'libsize' divides each row total by
        the geometric mean of the row totals, so the offsets multiply to 1.

    Raises
    ------
    ZeroLibrarySize
        In 'libsize' mode when some row total is zero.
    """
    if mode == "unit":
        return OffsetVector(np.ones(cm.n))
    if mode == "libsize":
        totals = cm.counts.sum(axis=1).astype(float)
        if np.any(totals == 0.0):
            i = int(np.flatnonzero(totals == 0.0)[0])
            raise ZeroLibrarySize(
                f"sample {cm.sample_ids[i]!r} has zero total count; "
                "library-size offsets are undefined"
            )
        log_totals = np.log(totals)
        return OffsetVector(np.exp(log_totals - log_totals.mean()))
    raise ValueError(f"unknown offset mode {mode!r}; expected 'unit' or 'libsize'")


def load_offsets(path: str | Path, n: int | None = None) -> OffsetVector:
    """Read offsets from a text file with one positive real per line.

    Parameters
    ----------
    path : str or Path
    n : int, optional
        Expected length; a mismatch raises LengthMismatch.
    """
    values: list[float] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise NonpositiveOffset(
                    f"{path}: line {lineno}: unparseable offset {text!r}"
                ) from None
            if not math.isfinite(value) or value <= 0.0:
                raise NonpositiveOffset(
                    f"{path}: line {lineno}: offset {value!r} must be finite and > 0"
                )
            values.append(value)
    if n is not None and len(values) != n:
        raise LengthMismatch(f"{path}: {len(values)} offsets for {n} samples")
    return OffsetVector(np.asarray(values))


def save_offsets(off: OffsetVector, path: str | Path) -> None:
    """Write offsets, one per line, in full round-trip precision."""
    with open(path, "w") as fh:
        for value in off.c:
            fh.write(f"{float(value)!r}\n")


def filter_top_variable(cm: CountMatrix, top_n: int) -> CountMatrix:
    """Keep the top_n columns by interquartile range of log(count + 1).

    Ties are broken in favor of earlier original columns, and the selected
    columns keep their original relative order, so applying the filter
    twice with the same top_n is a no-op.  If top_n >= d the matrix is
    returned unchanged.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    if top_n >= cm.d:
        return cm
    logged = np.log(cm.counts + 1.0)
    q1, q3 = np.percentile(logged, [25.0, 75.0], axis=0)
    iqr = q3 - q1
    # Stable sort on negated IQR keeps earlier columns first among ties.
    order = np.argsort(-iqr, kind="stable")[:top_n]
    keep = np.sort(order)
    return CountMatrix(
        cm.counts[:, keep],
        cm.sample_ids,
        tuple(cm.var_names[j] for j in keep),
    )
