"""Tests for BIC and the model-selection protocols."""

import csv
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mplnbicluster.data import CountMatrix, OffsetVector
from mplnbicluster.errors import AllCellsFailed, EmptyComponent, LengthMismatch
from mplnbicluster import select
from mplnbicluster.model import bic
from mplnbicluster.select import (
    GRID_COLUMNS,
    GridCell,
    fit_varying_k,
    grid_search_equal_k,
    save_grid,
    _select_best,
)
from mplnbicluster.vem import FitConfig


def make_counts(y):
    y = np.asarray(y)
    return CountMatrix(
        y,
        tuple(f"s{i}" for i in range(y.shape[0])),
        tuple(f"v{j}" for j in range(y.shape[1])),
    )


def unit_offsets(n):
    return OffsetVector(np.ones(n))


def block_cov(sizes, rho=0.6, var=1.0):
    d = sum(sizes)
    cov = np.zeros((d, d))
    lo = 0
    for b in sizes:
        block = np.full((b, b), rho * var)
        np.fill_diagonal(block, var)
        cov[lo:lo + b, lo:lo + b] = block
        lo += b
    return cov


def two_component_block_data(seed=5, n=220, d=6, sizes=(3, 3)):
    rng = np.random.default_rng(seed)
    mu = np.stack([
        np.where(np.arange(d) % 2 == 0, 1.2, 3.2),
        np.where(np.arange(d) % 2 == 0, 3.2, 1.2),
    ])
    cov = block_cov(sizes, rho=0.55, var=0.8)
    labels = (rng.random(n) < 0.6).astype(int)
    x = np.stack([rng.multivariate_normal(mu[g], cov) for g in labels])
    y = rng.poisson(np.exp(x)).astype(np.int64)
    return make_counts(y), unit_offsets(n), labels


# ---------------------------------------------------------------------------
# the criterion itself


def test_bic_worked_example():
    value = bic(-100.0, 5, 50)
    assert value == pytest.approx(-200.0 - 5 * np.log(50), abs=1e-12)
    assert value == pytest.approx(-219.560, abs=1e-3)


def test_bic_validation():
    with pytest.raises(ValueError):
        bic(-10.0, 0, 50)
    with pytest.raises(ValueError):
        bic(-10.0, 3, 0)


def test_bic_penalty_monotone_in_p():
    assert bic(-50.0, 2, 30) > bic(-50.0, 5, 30)
    # adding a constant to both bounds cannot flip an equal-p comparison
    assert (bic(-50.0, 4, 30) > bic(-60.0, 4, 30)) == (
        bic(-50.0 + 7.0, 4, 30) > bic(-60.0 + 7.0, 4, 30)
    )


# ---------------------------------------------------------------------------
# tie-breaking and failure handling (on synthetic cells)


def cell(g, k, bic_value, converged=True, error=None):
    ks = (k,) if isinstance(k, int) else tuple(k)
    if error is not None:
        return GridCell(g, ks, 0.0, error=error)
    # a stand-in for the FitResult with the fields selection and the CSV read
    result = SimpleNamespace(lower_bound=-10.0, bic=bic_value, converged=converged,
                             iterations=5, model=SimpleNamespace(n_free_parameters=3))
    return GridCell(g, ks, 0.0, result)


def test_select_best_prefers_higher_bic():
    best = _select_best([cell(1, 1, -120.0), cell(2, 1, -100.0)])
    assert (best.g, best.k_label) == (2, "1")


def test_select_best_tie_goes_to_smaller_model():
    best = _select_best([
        cell(2, 2, -100.0),
        cell(1, 2, -100.0),
        cell(1, 1, -100.0),
    ])
    assert (best.g, best.k_label) == (1, "1")
    best = _select_best([
        cell(2, (3, 2), -100.0),
        cell(2, (2, 3), -100.0),
    ])
    assert best.k_label == "2;3"


def test_select_best_prefers_converged():
    best = _select_best([
        cell(1, 1, -90.0, converged=False),
        cell(2, 1, -100.0, converged=True),
    ])
    assert best.g == 2
    # with no converged cell at all, fall back to the best fitted one
    best = _select_best([
        cell(1, 1, -90.0, converged=False),
        cell(2, 1, -100.0, converged=False),
    ])
    assert best.g == 1


def test_select_best_all_failed():
    with pytest.raises(AllCellsFailed) as err:
        _select_best([
            cell(1, 1, None, error="EmptyComponent: gone"),
            cell(2, 1, None, error="NotPositiveDefinite: bad"),
        ])
    assert len(err.value.failures) == 2
    assert "EmptyComponent" in err.value.failures[0][1]


# ---------------------------------------------------------------------------
# equal-K grid on data


def test_grid_selects_true_cell():
    counts, offsets, _ = two_component_block_data()
    best, grid = grid_search_equal_k(
        counts, offsets, g_max=3, k_max=3,
        config=FitConfig(n_starts=2, max_em_iter=150, seed=11),
    )
    assert (grid.best_g, grid.best_k_label) == (2, "2")
    assert best.model.G == 2
    assert all(part.k == 2 for part in best.model.groupings)
    assert len(grid.cells) == 9
    assert [(c.g, c.k_label) for c in grid.cells] == [
        (g, str(k)) for g in (1, 2, 3) for k in (1, 2, 3)
    ]
    assert best.state is None  # grids drop the variational state


def test_grid_single_component_data():
    rng = np.random.default_rng(31)
    x = rng.multivariate_normal(np.full(4, 2.0), 0.3 * np.eye(4), size=150)
    y = rng.poisson(np.exp(x)).astype(np.int64)
    best, grid = grid_search_equal_k(
        make_counts(y), unit_offsets(150), g_max=2, k_max=2,
        config=FitConfig(n_starts=2, max_em_iter=150, seed=7),
    )
    assert grid.best_g == 1
    # the selection agrees with an argmax over the recorded cells
    fitted = [c for c in grid.cells if not c.failed and c.result.converged]
    recomputed = max(fitted, key=lambda c: c.result.bic)
    assert (grid.best_g, grid.best_k_label) == (recomputed.g, recomputed.k_label)


def test_grid_reproducible_and_parallel_identical():
    counts, offsets, _ = two_component_block_data(seed=9, n=120, d=4, sizes=(2, 2))
    config = FitConfig(n_starts=1, max_em_iter=60, seed=3)
    best_a, grid_a = grid_search_equal_k(counts, offsets, 2, 2, config=config)
    best_b, grid_b = grid_search_equal_k(counts, offsets, 2, 2, config=config)
    best_c, grid_c = grid_search_equal_k(counts, offsets, 2, 2, config=config, jobs=2)
    for other in (grid_b, grid_c):
        assert [(c.g, c.k_label) for c in other.cells] == [
            (c.g, c.k_label) for c in grid_a.cells
        ]
        assert [c.result.bic for c in other.cells] == [c.result.bic for c in grid_a.cells]
        assert [c.result.iterations for c in other.cells] == [
            c.result.iterations for c in grid_a.cells
        ]
    assert np.array_equal(best_a.labels, best_c.labels)
    assert best_a.bic == best_c.bic


@pytest.mark.parametrize("g_max, k_max, workers", [(2, 2, [4]), (1, 1, [])])
def test_grid_workers_capped_at_cell_count(monkeypatch, g_max, k_max, workers):
    # a forked pool would start every requested worker at once; a grid of
    # four cells needs four, and a single cell runs without a pool
    created = []

    class RecordingPool:
        """Records max_workers and maps serially, starting no process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    counts, offsets, _ = two_component_block_data(seed=9, n=120, d=4, sizes=(2, 2))
    config = FitConfig(n_starts=1, max_em_iter=60, seed=3)
    _, serial = grid_search_equal_k(counts, offsets, g_max, k_max, config=config)
    monkeypatch.setattr(select, "ProcessPoolExecutor", RecordingPool)
    _, pooled = grid_search_equal_k(counts, offsets, g_max, k_max, config=config, jobs=64)
    assert created == workers
    assert [(c.g, c.k_label, c.result.bic, c.result.iterations) for c in pooled.cells] == [
        (c.g, c.k_label, c.result.bic, c.result.iterations) for c in serial.cells
    ]


def test_grid_validation():
    counts, offsets, _ = two_component_block_data(seed=2, n=30, d=4, sizes=(2, 2))
    with pytest.raises(ValueError):
        grid_search_equal_k(counts, offsets, 0, 2)
    with pytest.raises(ValueError):
        grid_search_equal_k(counts, offsets, 2, 5)  # k_max > d
    tiny = make_counts(np.ones((1, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        grid_search_equal_k(tiny, unit_offsets(1), 1, 1)


# each search with the k_max its tests use and the labels of its G=2 cells
SEARCHES = pytest.mark.parametrize(
    "search, k_max, g2_labels",
    [(grid_search_equal_k, 2, ["1", "2"]), (fit_varying_k, 2, [""])],
    ids=["equal", "varying"],
)


@SEARCHES
def test_grid_failed_cells_recorded(monkeypatch, search, k_max, g2_labels):
    counts, offsets, _ = two_component_block_data(seed=13, n=80, d=4, sizes=(2, 2))
    real_fit = select.fit

    def flaky(counts_, offsets_, g, k_spec, config=None):
        if g == 2:
            raise EmptyComponent("forced")
        return real_fit(counts_, offsets_, g, k_spec, config)

    monkeypatch.setattr(select, "fit", flaky)
    best, grid = search(
        counts, offsets, 2, k_max, config=FitConfig(n_starts=1, max_em_iter=40, seed=1)
    )
    assert best.model.G == 1
    failed = [c for c in grid.cells if c.failed]
    assert [(c.g, c.k_label) for c in failed] == [(2, label) for label in g2_labels]
    assert all("EmptyComponent" in c.error for c in failed)


@SEARCHES
def test_grid_all_cells_failed(monkeypatch, search, k_max, g2_labels):
    counts, offsets, _ = two_component_block_data(seed=17, n=40, d=4, sizes=(2, 2))

    def always_fail(*args, **kwargs):
        raise EmptyComponent("nope")

    monkeypatch.setattr(select, "fit", always_fail)
    with pytest.raises(AllCellsFailed) as err:
        search(counts, offsets, 2, k_max, config=FitConfig(n_starts=1, seed=0))
    assert len(err.value.failures) == 2 * len(g2_labels)


@pytest.mark.parametrize("search", [grid_search_equal_k, fit_varying_k],
                         ids=["equal", "varying"])
def test_search_rejects_g_max_above_n_before_fitting(monkeypatch, search):
    rng = np.random.default_rng(3)
    counts = make_counts(rng.poisson(5.0, size=(3, 4)))
    real_fit = select.fit
    calls = []
    built = []

    def counting_fit(*args, **kwargs):
        calls.append(args[2])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(select, "fit", counting_fit)
    # every grid cell builds one block-count request, so a bad g_max must be
    # rejected before any is built: its cost must not grow with g_max
    for name in ("EqualK", "SilhouetteK"):
        real = getattr(select, name)
        monkeypatch.setattr(select, name,
                            lambda *args, _real=real: built.append(args) or _real(*args))
    with pytest.raises(ValueError, match="g_max=4 exceeds"):
        search(counts, unit_offsets(3), 4, 2,
               config=FitConfig(n_starts=1, max_em_iter=5, seed=0))
    assert calls == []
    assert built == []


@pytest.mark.parametrize("length", [1, 29])
@pytest.mark.parametrize("search", [grid_search_equal_k, fit_varying_k],
                         ids=["equal", "varying"])
def test_search_rejects_offsets_of_another_length_before_fitting(monkeypatch, search, length):
    counts = make_counts(np.random.default_rng(3).poisson(5.0, size=(30, 4)))
    built = []
    for name in ("EqualK", "SilhouetteK"):
        real = getattr(select, name)
        monkeypatch.setattr(select, name,
                            lambda *args, _real=real: built.append(args) or _real(*args))
    with pytest.raises(LengthMismatch, match=f"{length} offsets for 30 samples"):
        search(counts, unit_offsets(length), 2, 2,
               config=FitConfig(n_starts=1, max_em_iter=5, seed=0))
    assert built == []


@pytest.mark.parametrize("jobs", [0, -5])
@pytest.mark.parametrize("search", [grid_search_equal_k, fit_varying_k],
                         ids=["equal", "varying"])
def test_search_rejects_jobs_below_one_before_fitting(monkeypatch, search, jobs):
    rng = np.random.default_rng(3)
    counts = make_counts(rng.poisson(5.0, size=(6, 4)))
    calls = []
    monkeypatch.setattr(select, "fit", lambda *args, **kwargs: calls.append(args[2]))
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        search(counts, unit_offsets(6), 2, 2,
               config=FitConfig(n_starts=1, max_em_iter=5, seed=0), jobs=jobs)
    assert calls == []


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", ["g_max", "k_max", "jobs"])
@pytest.mark.parametrize("search", [grid_search_equal_k, fit_varying_k],
                         ids=["equal", "varying"])
def test_search_rejects_non_integer_arguments_before_fitting(monkeypatch, search, name, value):
    # True would run as 1 and 2.5 fail deep in range(); both are no count
    counts = make_counts(np.random.default_rng(3).poisson(5.0, size=(6, 4)))
    calls = []
    monkeypatch.setattr(select, "fit", lambda *args, **kwargs: calls.append(args[2]))
    args = {"g_max": 2, "k_max": 2, "jobs": 1, name: value}
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        search(counts, unit_offsets(6), args["g_max"], args["k_max"],
               config=FitConfig(n_starts=1, max_em_iter=5, seed=0), jobs=args["jobs"])
    assert calls == []


def test_searches_reproduce_recorded_fits():
    # Values recorded from the searches before the sweep's guard was moved
    # onto the full per-observation bound.  The guard now compares full
    # bounds rather than bounds with the (m, S)-constant terms dropped, so
    # comparisons that tie at rounding level can go the other way: the
    # discrete outcomes must match exactly, the bounds to rel=1e-9.
    #
    # The two G=2, K=2 entries were re-recorded when a restart began to stop
    # on reaching the optimum of the first start that finished.  In both
    # searches restart 1 now joins restart 0 (after 42 and 56 iterations),
    # so restart 0, the k-means start, wins instead of restart 1: equal-K
    # 51 -> 12 iterations, bound -1798.5722485452907 -> -1798.5727128183867,
    # BIC -3697.6818236890044 -> -3697.6827522351964; varying-K 66 -> 12
    # iterations, bound -1798.5703936304005 -> -1798.5727128183867, BIC
    # -3697.678113859224 -> -3697.6827522351964.  The row labels are the same
    # split renamed (equal-K) or unchanged (varying-K), and the partitions
    # and selections are unchanged.
    #
    # All entries were re-recorded when each EM pass began to take one
    # variational step per component instead of up to ten.  Selections, row
    # labels and partitions are unchanged.  G=2, K=2 (both searches): 12 ->
    # 13 iterations, bound -1798.5727128183867 -> -1798.570510551088, BIC
    # -3697.6827522351964 -> -3697.6783477005993.  G=1, K=1: bound
    # -1853.6947270557548 -> -1853.6948990764517, BIC -3774.414338510458 ->
    # -3774.414682551852.  G=1, K=2: bound -1881.7932506683196 ->
    # -1881.79333492277, BIC -3811.4614187644597 -> -3811.4615872733607.
    # G=2, K=1: bound -1794.5226034037776 -> -1794.5231447619358, BIC
    # -3727.8824673482345 -> -3727.883550064551.  The iteration counts of
    # these three cells are unchanged.
    counts, offsets, _ = two_component_block_data(seed=9, n=120, d=4, sizes=(2, 2))
    config = FitConfig(n_starts=2, max_em_iter=80, seed=3)
    labels = (
        "2122222211111222121212222221211212111211122122111111222121112121"
        "21211112222122111121212212212211221121111111111112221212"
    )
    recorded = {
        "equal": (grid_search_equal_k, 2, (2, "2"), labels, [
            (1, "1", 8, -1853.6948990764517, -3774.414682551852),
            (1, "2", 5, -1881.79333492277, -3811.4615872733607),
            (2, "1", 13, -1794.5231447619358, -3727.883550064551),
            (2, "2", 13, -1798.570510551088, -3697.6783477005993),
        ]),
        "varying": (fit_varying_k, 3, (2, "2;2"), labels, [
            (1, "2", 5, -1881.79333492277, -3811.4615872733607),
            (2, "2;2", 13, -1798.570510551088, -3697.6783477005993),
        ]),
    }
    for mode, (search, k_max, selected, row_labels, cells) in recorded.items():
        best, grid = search(counts, offsets, 2, k_max, config=config)
        assert (grid.best_g, grid.best_k_label) == selected, mode
        assert "".join(str(v) for v in best.labels) == row_labels, mode
        assert [part.assign.tolist() for part in best.model.groupings] == [
            [1, 1, 2, 2], [1, 1, 2, 2]
        ], mode
        assert [(c.g, c.k_label, c.result.iterations) for c in grid.cells] == [
            cell_[:3] for cell_ in cells
        ], mode
        assert all(c.result.converged for c in grid.cells), mode
        for c, (_, _, _, lower, bic_value) in zip(grid.cells, cells):
            assert c.result.lower_bound == pytest.approx(lower, rel=1e-9), mode
            assert c.result.bic == pytest.approx(bic_value, rel=1e-9), mode


# ---------------------------------------------------------------------------
# varying-K protocol


def two_component_varying_data(seed=23, n=320):
    # component 1 has two blocks of 3; component 2 has three blocks of 2
    rng = np.random.default_rng(seed)
    d = 6
    mu = np.stack([
        np.where(np.arange(d) % 2 == 0, 1.2, 3.2),
        np.where(np.arange(d) % 2 == 0, 3.2, 1.2),
    ])
    covs = [block_cov((3, 3), rho=0.6, var=0.8), block_cov((2, 2, 2), rho=0.6, var=0.8)]
    labels = (rng.random(n) < 0.5).astype(int)
    x = np.stack([rng.multivariate_normal(mu[g], covs[g]) for g in labels])
    y = rng.poisson(np.exp(x)).astype(np.int64)
    return make_counts(y), unit_offsets(n), labels


def test_varying_k_selects_per_component_counts():
    counts, offsets, _ = two_component_varying_data()
    best, grid = fit_varying_k(
        counts, offsets, g_max=3, k_max=4,
        config=FitConfig(n_starts=2, max_em_iter=150, seed=19),
    )
    assert grid.best_g == 2
    ks = sorted(part.k for part in best.model.groupings)
    assert ks == [2, 3]
    assert len(grid.cells) == 3


def test_varying_k_validation():
    counts, offsets, _ = two_component_block_data(seed=3, n=30, d=4, sizes=(2, 2))
    with pytest.raises(ValueError):
        fit_varying_k(counts, offsets, g_max=2, k_max=1)
    with pytest.raises(ValueError):
        fit_varying_k(counts, offsets, g_max=2, k_max=5)
    with pytest.raises(ValueError):
        fit_varying_k(counts, offsets, g_max=0, k_max=2)


# ---------------------------------------------------------------------------
# CSV output


def test_save_grid_round_trip(tmp_path):
    counts, offsets, _ = two_component_block_data(seed=41, n=80, d=4, sizes=(2, 2))
    _, grid = grid_search_equal_k(
        counts, offsets, 2, 2, config=FitConfig(n_starts=1, max_em_iter=40, seed=5)
    )
    path = tmp_path / "grid.csv"
    save_grid(grid, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(GRID_COLUMNS)
    assert len(rows) == 1 + 4
    for row, cell_ in zip(rows[1:], grid.cells):
        assert int(row[0]) == cell_.g
        assert row[1] == cell_.k_label
        assert float(row[2]) == cell_.result.lower_bound  # repr round-trips exactly
        assert int(row[3]) == cell_.result.model.n_free_parameters
        assert float(row[4]) == cell_.result.bic
        assert row[5] == ("true" if cell_.result.converged else "false")
        assert float(row[7]) > 0.0


def test_save_grid_without_timing_is_stable(tmp_path):
    counts, offsets, _ = two_component_block_data(seed=43, n=60, d=4, sizes=(2, 2))
    config = FitConfig(n_starts=1, max_em_iter=30, seed=2)
    _, grid_a = grid_search_equal_k(counts, offsets, 2, 2, config=config)
    _, grid_b = grid_search_equal_k(counts, offsets, 2, 2, config=config)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_grid(grid_a, path_a, include_timing=False)
    save_grid(grid_b, path_b, include_timing=False)
    assert path_a.read_bytes() == path_b.read_bytes()
    with open(path_a, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(row[7] == "0.0" for row in rows[1:])


def test_save_grid_failed_row(tmp_path):
    cells = [cell(1, 1, -50.0), cell(2, 1, None, error="EmptyComponent: x")]
    from mplnbicluster.select import SelectionGrid

    grid = SelectionGrid(cells)
    path = tmp_path / "grid.csv"
    save_grid(grid, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[2][5] == "failed"
    assert rows[2][2] == rows[2][3] == rows[2][4] == rows[2][6] == ""
