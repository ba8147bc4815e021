"""Model selection over component counts and block counts.

Two protocols are supported.  The equal-K grid fits every (G, K)
combination with the same number of variable blocks in each component and
keeps the BIC-best cell.  The varying-K protocol fits one model per G in
which every component picks its own block count by silhouette at each
covariance refresh, then compares the G values by BIC.

Cells are independent: each derives its own seed from the grid seed and
its coordinates, so results are bit-identical whether the grid runs
serially or across a process pool.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Optional

from .data import CountMatrix, OffsetVector, check_offsets, integer, write_csv
from .errors import AllCellsFailed, MplnError
from .seeding import TAG_CELL, derive_seed
from .vem import EqualK, FitConfig, FitResult, SilhouetteK, fit

__all__ = [
    "GridCell",
    "SelectionGrid",
    "grid_search_equal_k",
    "fit_varying_k",
    "save_grid",
]

GRID_COLUMNS = (
    "G",
    "k_spec",
    "lower_bound",
    "p",
    "bic",
    "converged",
    "iterations",
    "wall_time_ms",
)

_MODE_EQUAL = 0
_MODE_VARYING = 1


@dataclass
class GridCell:
    """Outcome of one grid cell: its fit, or the error when it failed.

    ``ks`` is an equal-K cell's requested K, or the block counts a
    silhouette cell's fit chose (none when that fit failed).  The fit's
    variational state is dropped.
    """

    g: int
    ks: tuple
    wall_time_ms: float
    result: Optional[FitResult] = None
    error: Optional[str] = None

    @property
    def k_label(self) -> str:
        """"2" for equal-K cells, "2;3" for per-component counts."""
        return ";".join(map(str, self.ks))

    @property
    def failed(self) -> bool:
        return self.result is None


@dataclass
class SelectionGrid:
    cells: list  # one GridCell per (G, k_spec) fitted, in search order
    best_g: Optional[int] = None
    best_k_label: Optional[str] = None


def _run_cell(args):
    counts, offsets, g, k_spec, config = args
    ks = (k_spec.k,) if isinstance(k_spec, EqualK) else ()
    start = perf_counter()
    try:
        result = fit(counts, offsets, g, k_spec, config)
    except MplnError as exc:
        return GridCell(g, ks, 1000.0 * (perf_counter() - start),
                        error=f"{type(exc).__name__}: {exc}")
    elapsed = 1000.0 * (perf_counter() - start)
    result.state = None
    return GridCell(g, ks or tuple(part.k for part in result.model.groupings), elapsed, result)


def _run_cells(tasks, jobs):
    # a forked pool starts all its workers at once, so never more than cells
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [_run_cell(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell, tasks))


def _select_best(cells):
    """BIC argmax over non-failed cells, preferring converged ones.

    Ties go to the smaller (G, block counts).  Returns the best cell or
    raises AllCellsFailed when nothing fit.
    """
    fitted = [cell for cell in cells if not cell.failed]
    if not fitted:
        raise AllCellsFailed(
            [(f"G={cell.g} K={cell.k_label or '?'}", cell.error) for cell in cells]
        )
    converged = [cell for cell in fitted if cell.result.converged]
    return max(converged or fitted,
               key=lambda cell: (cell.result.bic, -cell.g, tuple(-k for k in cell.ks)))


def _cell_config(config: FitConfig, g: int, k_spec) -> FitConfig:
    if isinstance(k_spec, EqualK):
        seed = derive_seed(config.seed, TAG_CELL, _MODE_EQUAL, g, k_spec.k)
    else:
        seed = derive_seed(config.seed, TAG_CELL, _MODE_VARYING, g, 0)
    return replace(config, seed=seed)


def _check_search(counts, offsets, g_max, k_max, k_low, jobs):
    """Reject fewer than 2 observations, offsets of another length, a
    ``g_max`` outside 1..n, a ``k_max`` outside k_low..d or a ``jobs`` below
    1 before any cell is built, so a bad value costs nothing however large
    it is."""
    if counts.n < 2:
        raise ValueError("model selection needs at least 2 observations")
    if integer("g_max", g_max, 1) > counts.n:
        raise ValueError(f"g_max={g_max} exceeds the number of observations {counts.n}")
    check_offsets(counts, offsets)
    if integer("k_max", k_max, k_low) > counts.d:
        raise ValueError(f"k_max={k_max} exceeds the number of variables {counts.d}")
    integer("jobs", jobs, 1)


def _search(counts, offsets, specs, config, jobs):
    """Fit every (G, k_spec) pair in ``specs`` and pick the BIC-best fit.

    Returns (best FitResult, SelectionGrid with the cells in ``specs`` order).
    """
    if config is None:
        config = FitConfig()
    tasks = [
        (counts, offsets, g, k_spec, _cell_config(config, g, k_spec))
        for g, k_spec in specs
    ]
    cells = _run_cells(tasks, jobs)
    best = _select_best(cells)
    return best.result, SelectionGrid(cells, best.g, best.k_label)


def grid_search_equal_k(
    counts: CountMatrix,
    offsets: OffsetVector,
    g_max: int,
    k_max: int,
    config: Optional[FitConfig] = None,
    jobs: int = 1,
):
    """Fit every (G, K) with equal per-component block counts; BIC picks.

    Returns (best FitResult, SelectionGrid).  Failed cells stay in the grid
    marked with their error but are excluded from selection.
    """
    _check_search(counts, offsets, g_max, k_max, 1, jobs)
    specs = [(g, EqualK(k)) for g in range(1, g_max + 1) for k in range(1, k_max + 1)]
    return _search(counts, offsets, specs, config, jobs)


def fit_varying_k(
    counts: CountMatrix,
    offsets: OffsetVector,
    g_max: int,
    k_max: int,
    config: Optional[FitConfig] = None,
    jobs: int = 1,
):
    """One silhouette-guided fit per G in 1..g_max; BIC compares across G."""
    # the silhouette needs two blocks to compare
    _check_search(counts, offsets, g_max, k_max, 2, jobs)
    specs = [(g, SilhouetteK(k_max)) for g in range(1, g_max + 1)]
    return _search(counts, offsets, specs, config, jobs)


def save_grid(grid: SelectionGrid, path, include_timing: bool = True) -> None:
    """Write the grid as CSV.

    Failed cells leave the numeric columns empty and put ``failed`` in the
    ``converged`` column.  With ``include_timing=False`` the
    wall_time_ms column is written as 0 so that repeated runs produce
    byte-identical files.
    """

    def row(cell):
        timing = repr(float(cell.wall_time_ms)) if include_timing else "0.0"
        if cell.failed:
            return [cell.g, cell.k_label, "", "", "", "failed", "", timing]
        r = cell.result
        return [cell.g, cell.k_label, repr(float(r.lower_bound)), r.model.n_free_parameters,
                repr(float(r.bic)), "true" if r.converged else "false", r.iterations, timing]

    write_csv([GRID_COLUMNS, *map(row, grid.cells)], path)
