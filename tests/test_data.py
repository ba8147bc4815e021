from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from mplnbicluster.data import (
    CountMatrix,
    OffsetVector,
    compute_offsets,
    filter_top_variable,
    load_counts,
    load_offsets,
    save_counts,
    save_offsets,
)
from mplnbicluster.errors import (
    LengthMismatch,
    NegativeCount,
    NonIntegerCount,
    NonpositiveOffset,
    ZeroLibrarySize,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_counts_basic(tmp_path):
    p = write(tmp_path, "c.csv", "id,g1,g2\na,0,3\nb,5,1\n")
    cm = load_counts(p)
    assert cm.sample_ids == ("a", "b")
    assert cm.var_names == ("g1", "g2")
    np.testing.assert_array_equal(cm.counts, [[0, 3], [5, 1]])
    assert cm.counts.dtype == np.int64


def test_load_counts_tsv_by_suffix(tmp_path):
    p = write(tmp_path, "c.tsv", "id\tg1\tg2\na\t1\t2\n")
    cm = load_counts(p)
    np.testing.assert_array_equal(cm.counts, [[1, 2]])


def test_load_counts_negative_reports_location(tmp_path):
    p = write(tmp_path, "c.csv", "id,g1,g2\na,0,3\nb,-5,1\n")
    with pytest.raises(NegativeCount, match=r"'b'.*'g1'"):
        load_counts(p)


def test_load_counts_non_integer_reports_location(tmp_path):
    p = write(tmp_path, "c.csv", "id,g1,g2\na,0,2.5\n")
    with pytest.raises(NonIntegerCount, match=r"'a'.*'g2'"):
        load_counts(p)


def test_load_counts_junk_cell(tmp_path):
    p = write(tmp_path, "c.csv", "id,g1\na,xyz\n")
    with pytest.raises(NonIntegerCount):
        load_counts(p)


@pytest.mark.parametrize("value, error, message", [
    (np.inf, NonIntegerCount, "count inf at row 'b', column 'g2' is not a whole number"),
    (np.nan, NonIntegerCount, "count nan at row 'b', column 'g2' is not a whole number"),
    (1e30, NonIntegerCount, "count 1e+30 at row 'b', column 'g2' is not a whole number"),
    (2.5, NonIntegerCount, "count 2.5 at row 'b', column 'g2' is not a whole number"),
    (-0.5, NegativeCount, "negative count -0.5 at row 'b', column 'g2'"),
    (-2.0, NegativeCount, "negative count -2 at row 'b', column 'g2'"),
])
def test_count_matrix_names_the_first_bad_cell(value, error, message):
    # a cast to int64 would warn on inf and NaN, and warnings fail the tests
    counts = np.array([[1.0, 2.0], [3.0, value]])
    with pytest.raises(error, match=re.escape(message)):
        CountMatrix(counts, ("a", "b"), ("g1", "g2"))


def test_count_matrix_holds_counts_float64_holds_exactly():
    ids = ("a",), ("g1", "g2")
    assert CountMatrix(np.array([[0, 2**53]]), *ids).counts[0, 1] == 2**53
    with pytest.raises(NonIntegerCount, match=r"9007199254740993 .* up to 2\*\*53"):
        CountMatrix(np.array([[0, 2**53 + 1]]), *ids)


def test_count_matrix_checks_its_ids_before_its_counts():
    with pytest.raises(LengthMismatch, match="unique"):
        CountMatrix(np.array([[1, -1], [1, 1]]), ("a", "a"), ("g1", "g2"))


def test_load_counts_ragged_row(tmp_path):
    p = write(tmp_path, "c.csv", "id,g1,g2\na,1\n")
    with pytest.raises(LengthMismatch, match="line 2"):
        load_counts(p)


def test_load_counts_empty_file(tmp_path):
    p = write(tmp_path, "c.csv", "")
    with pytest.raises(LengthMismatch):
        load_counts(p)


def test_load_counts_duplicate_sample_ids(tmp_path):
    p = write(tmp_path, "c.csv", "id,g1\na,1\na,2\n")
    with pytest.raises(LengthMismatch, match="unique"):
        load_counts(p)


def test_counts_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    cm = CountMatrix(
        rng.poisson(4.0, size=(7, 5)),
        tuple(f"s{i}" for i in range(7)),
        tuple(f"v{j}" for j in range(5)),
    )
    for fmt in ("csv", "tsv"):
        p = tmp_path / f"c.{fmt}"
        save_counts(cm, p)
        back = load_counts(p)
        np.testing.assert_array_equal(back.counts, cm.counts)
        assert back.sample_ids == cm.sample_ids
        assert back.var_names == cm.var_names


def test_compute_offsets_unit():
    cm = CountMatrix(np.array([[1, 2], [3, 4]]), ("a", "b"), ("g1", "g2"))
    np.testing.assert_array_equal(compute_offsets(cm, "unit").c, [1.0, 1.0])


def test_compute_offsets_libsize_known():
    # Row totals 10 and 1000; geometric mean 100 -> offsets 0.1 and 10.
    cm = CountMatrix(np.array([[4, 6], [400, 600]]), ("a", "b"), ("g1", "g2"))
    off = compute_offsets(cm, "libsize")
    np.testing.assert_allclose(off.c, [0.1, 10.0], rtol=1e-12)


def test_compute_offsets_libsize_geometric_mean_one():
    rng = np.random.default_rng(5)
    cm = CountMatrix(
        rng.poisson(20.0, size=(13, 4)) + 1,
        tuple(f"s{i}" for i in range(13)),
        ("a", "b", "c", "d"),
    )
    off = compute_offsets(cm, "libsize")
    assert np.exp(np.mean(np.log(off.c))) == pytest.approx(1.0, abs=1e-12)


def test_compute_offsets_zero_row():
    cm = CountMatrix(np.array([[0, 0], [1, 2]]), ("a", "b"), ("g1", "g2"))
    with pytest.raises(ZeroLibrarySize, match="'a'"):
        compute_offsets(cm, "libsize")


def test_compute_offsets_unknown_mode():
    cm = CountMatrix(np.array([[1]]), ("a",), ("g1",))
    with pytest.raises(ValueError):
        compute_offsets(cm, "tmm")


def test_load_offsets(tmp_path):
    p = write(tmp_path, "o.txt", "0.5\n2.0\n")
    off = load_offsets(p, n=2)
    np.testing.assert_array_equal(off.c, [0.5, 2.0])


def test_load_offsets_length_mismatch(tmp_path):
    p = write(tmp_path, "o.txt", "1.0\n1.0\n1.0\n")
    with pytest.raises(LengthMismatch):
        load_offsets(p, n=2)


def test_load_offsets_nonpositive(tmp_path):
    p = write(tmp_path, "o.txt", "1.0\n0.0\n")
    with pytest.raises(NonpositiveOffset, match="line 2"):
        load_offsets(p)


def test_load_offsets_junk_line(tmp_path):
    p = write(tmp_path, "o.txt", "1.0\nhello\n")
    with pytest.raises(NonpositiveOffset, match="line 2"):
        load_offsets(p)


def test_offsets_round_trip_exact(tmp_path):
    rng = np.random.default_rng(9)
    off = OffsetVector(rng.uniform(0.01, 50.0, size=17))
    p = tmp_path / "o.txt"
    save_offsets(off, p)
    back = load_offsets(p, n=17)
    np.testing.assert_array_equal(back.c, off.c)


def iqr_oracle(col):
    # Manual linear-interpolation quartiles, independent of np.percentile.
    x = np.sort(np.log(np.asarray(col, dtype=float) + 1.0))
    m = len(x)

    def quantile(q):
        pos = q * (m - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, m - 1)
        frac = pos - lo
        return x[lo] + frac * (x[hi] - x[lo])

    return quantile(0.75) - quantile(0.25)


def test_filter_top_variable_matches_oracle():
    rng = np.random.default_rng(21)
    counts = rng.poisson(rng.uniform(0.5, 60.0, size=12), size=(30, 12))
    cm = CountMatrix(counts, tuple(f"s{i}" for i in range(30)), tuple(f"v{j}" for j in range(12)))
    iqrs = np.array([iqr_oracle(counts[:, j]) for j in range(12)])
    expected = sorted(np.argsort(-iqrs, kind="stable")[:5])
    got = filter_top_variable(cm, 5)
    assert got.var_names == tuple(f"v{j}" for j in expected)
    np.testing.assert_array_equal(got.counts, counts[:, expected])


def test_filter_top_variable_constant_column_dropped():
    counts = np.array(
        [
            [5, 0, 10],
            [5, 8, 40],
            [5, 2, 0],
            [5, 9, 90],
        ]
    )
    cm = CountMatrix(counts, ("a", "b", "c", "d"), ("flat", "mid", "wide"))
    got = filter_top_variable(cm, 2)
    assert got.var_names == ("mid", "wide")


def test_filter_top_variable_ties_prefer_earlier_columns():
    # Two identical columns tie on IQR; the earlier one must win.
    counts = np.array([[0, 0, 9], [4, 4, 9], [8, 8, 9]])
    cm = CountMatrix(counts, ("a", "b", "c"), ("x", "y", "z"))
    got = filter_top_variable(cm, 1)
    assert got.var_names == ("x",)


def test_filter_top_variable_idempotent():
    rng = np.random.default_rng(33)
    cm = CountMatrix(
        rng.poisson(5.0, size=(20, 9)),
        tuple(f"s{i}" for i in range(20)),
        tuple(f"v{j}" for j in range(9)),
    )
    once = filter_top_variable(cm, 4)
    twice = filter_top_variable(once, 4)
    np.testing.assert_array_equal(once.counts, twice.counts)
    assert once.var_names == twice.var_names


def test_filter_top_variable_noop_when_wide_enough():
    cm = CountMatrix(np.array([[1, 2]]), ("a",), ("x", "y"))
    assert filter_top_variable(cm, 2) is cm
    assert filter_top_variable(cm, 5) is cm
    with pytest.raises(ValueError):
        filter_top_variable(cm, 0)


def _owned_names(tree):
    """(name, line) of every json.* / csv.* attribute reference, every name
    imported from json or csv, and every reference to EXP_CAP."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("json", "csv")):
            found.append((node.value.id + "." + node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module in ("json", "csv"):
            found.extend((node.module + "." + alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.extend((alias.name, node.lineno) for alias in node.names
                         if alias.name == "EXP_CAP")
        elif isinstance(node, ast.Name) and node.id == "EXP_CAP":
            found.append(("EXP_CAP", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "EXP_CAP":
            found.append(("EXP_CAP", node.lineno))
    return found


def test_one_module_owns_the_json_files_and_one_the_exponent_cap():
    # data writes and reads every JSON file and every CSV table, and
    # model.poisson_rate is the one place that caps the exponent of a
    # Poisson rate
    owner = {"json.dump": "data.py", "json.load": "data.py", "csv.writer": "data.py",
             "csv.reader": "data.py", "EXP_CAP": "model.py"}
    src = Path(__file__).resolve().parents[1] / "src" / "mplnbicluster"
    seen = {}
    for path in sorted(src.glob("*.py")):
        names = _owned_names(ast.parse(path.read_text(), filename=str(path)))
        seen[path.name] = {name for name, _ in names}
        bad = [(name, line) for name, line in names
               if name in owner and owner[name] != path.name]
        assert not bad, f"{path.name} uses what another module owns: {bad}"
    # finding the owners' own uses shows the walker sees them
    assert {"json.dump", "json.load", "csv.writer", "csv.reader"} <= seen["data.py"]
    assert "EXP_CAP" in seen["model.py"]
