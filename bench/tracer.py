"""Spans around the package's module-level functions, installed from outside.

The package imports its collaborators by name (``vem`` does ``from .colgroup
import agglomerate``, ``select`` does ``from .vem import fit``), so a wrapper
has to replace the attribute in the namespace that looks the name up, such
as ``vem.agglomerate`` or ``select.fit``.  Nothing under ``src/`` is edited:
``Tracer.install`` patches the attributes and ``Tracer.restore`` puts the
originals back.

Each call of a wrapped function records one span (name, start, end, parent,
run id).  Spans stay in memory; ``per_layer_metrics`` reduces them to the
benchmark's per-layer table and ``dump`` writes them out when a run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans, None for a root
    run: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows_of_m(args, kwargs):
    # s_fixed_point_step(log_c, m, s, sigma_inv): one row per observation
    m = kwargs["m"] if "m" in kwargs else args[1]
    return {"rows": int(m.shape[0])}


def _restart_index(args, kwargs):
    # fit_from_state(counts, offsets, state, k_spec, config, restart=0)
    return {"restart": int(kwargs.get("restart", args[5] if len(args) > 5 else 0))}


def _jitter(args, kwargs, result):
    # cholesky_with_jitter returns its input unchanged unless it had to bump
    # the diagonal
    return {"jitter": result[0] is not args[0]}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _winner(args, kwargs, result):
    return {"winner": int(result.restart)}


# (span name, module, attribute, on_call, on_return) for every wrapped name.
# on_call sees the arguments, on_return also the result; both return a dict
# merged into the span's info.
TARGETS = (
    ("select.search", "cli", "grid_search_equal_k", None, None),
    ("select.search", "cli", "fit_varying_k", None, None),
    ("select.cell", "select", "fit", None, _winner),
    ("vem.fit", "vem", "fit", None, _winner),
    ("vem.init", "vem", "initialize", None, None),
    ("vem.restart", "vem", "fit_from_state", _restart_index, _iterations),
    ("vem.sweep", "vem", "_sweep_batch", None, None),
    ("vem.s_step", "vem", "s_fixed_point_step", _rows_of_m, None),
    ("vem.newton", "vem", "newton_m_step", None, None),
    ("vem.partial_elbo", "vem", "_partial_elbo", None, None),
    ("vem.mstep", "vem", "m_step_pi", None, None),
    ("vem.mstep", "vem", "m_step_mu", None, None),
    ("vem.mstep", "vem", "compute_scatter", None, None),
    ("model.elbo", "vem", "elbo_batch", None, None),
    ("colgroup.refresh", "vem", "_covariance_candidate", None, None),
    ("colgroup.distance", "vem", "distance_matrix", None, None),
    ("colgroup.agglomerate", "vem", "agglomerate", None, None),
    ("colgroup.silhouette", "vem", "select_k_silhouette", None, None),
    ("colgroup.cut", "vem", "cut", None, None),
    ("colgroup.project", "vem", "block_project", None, None),
    ("linalg.chol_jitter", "vem", "cholesky_with_jitter", None, _jitter),
    ("data.load", "cli", "load_counts", None, None),
    ("data.load", "cli", "load_offsets", None, None),
    ("cli.write", "cli", "save_model", None, None),
    ("cli.write", "cli", "save_result", None, None),
    ("cli.write", "cli", "save_labels", None, None),
    ("cli.write", "cli", "save_grid", None, None),
    ("cli.write", "cli", "_save_trace", None, None),
    ("cli.write", "cli", "_save_partitions", None, None),
    ("cli.write", "cli", "_write_run_config", None, None),
    ("simulate.sample", "simulate", "sample_dataset", None, None),
)

# per-layer metric -> (unit, better, span it is computed from); the order is
# the order of the table.  A metric whose span's wrapped names are all gone
# is reported absent.
PER_LAYER = {
    "vem.sweep_s": ("s", "lower", "vem.sweep"),
    "vem.s_step_s": ("s", "lower", "vem.s_step"),
    "vem.newton_s": ("s", "lower", "vem.newton"),
    "vem.partial_elbo_s": ("s", "lower", "vem.partial_elbo"),
    "vem.sweep_rows": ("count", "lower", "vem.s_step"),
    "vem.restarts": ("count", "lower", "vem.restart"),
    "vem.restarts_failed": ("count", "lower", "vem.restart"),
    "vem.restart_s": ("s", "lower", "vem.restart"),
    "vem.restart_useful_frac": ("ratio", "higher", "vem.restart"),
    "vem.em_iters": ("count", "lower", "vem.restart"),
    "vem.ms_per_em_iter": ("ms", "lower", "vem.restart"),
    "vem.init_s": ("s", "lower", "vem.init"),
    "vem.mstep_s": ("s", "lower", "vem.mstep"),
    "vem.fit_self_s": ("s", "lower", "vem.restart"),
    "model.elbo_s": ("s", "lower", "model.elbo"),
    "model.elbo_calls": ("count", "lower", "model.elbo"),
    "colgroup.refresh_s": ("s", "lower", "colgroup.refresh"),
    "colgroup.refresh_calls": ("count", "lower", "colgroup.refresh"),
    "colgroup.distance_s": ("s", "lower", "colgroup.distance"),
    "colgroup.agglomerate_s": ("s", "lower", "colgroup.agglomerate"),
    "colgroup.silhouette_s": ("s", "lower", "colgroup.silhouette"),
    "colgroup.cut_s": ("s", "lower", "colgroup.cut"),
    "colgroup.project_s": ("s", "lower", "colgroup.project"),
    "linalg.chol_jitter_s": ("s", "lower", "linalg.chol_jitter"),
    "linalg.jitter_applied": ("count", "lower", "linalg.chol_jitter"),
    "select.search_s": ("s", "lower", "select.search"),
    "select.cells": ("count", "lower", "select.cell"),
    "select.cells_failed": ("count", "lower", "select.cell"),
    "select.cell_s_max": ("s", "lower", "select.cell"),
    "data.load_s": ("s", "lower", "data.load"),
    "cli.write_s": ("s", "lower", "cli.write"),
    "simulate.sample_s": ("s", "lower", "simulate.sample"),
    "trace.overhead_s": ("s", "lower", None),
}

# Times that read 0 on a gated workload which never reaches the layer: the
# fit_wide_p4 API fit has no search and loads and writes nothing through the
# CLI, and neither gated workload picks K by silhouette.  They are printed in
# the table but kept out of the JSON result and BENCHMARK.json, where a time
# that reads the same on every run would be taken for a broken measurement.
TABLE_ONLY = frozenset({
    "colgroup.silhouette_s", "select.search_s", "select.cell_s_max",
    "data.load_s", "cli.write_s",
})


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self.absent: list[str] = []  # "module.attr" names that no longer exist
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target; ``modules`` maps short names to module objects."""
        self.absent = []
        for name, mod_name, attr, on_call, on_return in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, original, on_call, on_return))
            self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, original, on_call, on_return):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            span = tracer.spans[index]
            if on_call is not None:
                span.info.update(on_call(args, kwargs))
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(index)
            if on_return is not None:
                span.info.update(on_return(args, kwargs, result))
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(span) for span in self.spans], fh)
            fh.write("\n")


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> tuple[dict, list]:
    """Reduce the recorded spans to the per-layer table.

    Returns (metrics, absent): every metric of PER_LAYER, with 0 for those
    whose wrapped name no longer exists, and the list of those metrics.
    """
    self_time = tracer.self_times()
    spans = list(enumerate(tracer.spans))

    def of(name):
        return [(i, s) for i, s in spans if s.name == name]

    def total(name, inclusive=False):
        return sum(s.duration if inclusive else self_time[i] for i, s in of(name))

    restarts = of("vem.restart")
    winning = set()
    for i, s in spans:
        if s.name in ("vem.fit", "select.cell") and "winner" in s.info:
            winning.update(
                j for j, r in restarts
                if r.parent == i and r.info.get("restart") == s.info["winner"]
                and "error" not in r.info
            )
    restart_s = total("vem.restart", inclusive=True)
    em_iters = sum(r.info.get("iterations", 0) for _, r in restarts)
    cells = of("select.cell")

    metrics = {
        "vem.sweep_s": total("vem.sweep", inclusive=True),
        "vem.s_step_s": total("vem.s_step"),
        "vem.newton_s": total("vem.newton"),
        "vem.partial_elbo_s": total("vem.partial_elbo"),
        "vem.sweep_rows": sum(s.info["rows"] for _, s in of("vem.s_step")),
        "vem.restarts": len(restarts),
        "vem.restarts_failed": sum("error" in r.info for _, r in restarts),
        "vem.restart_s": restart_s,
        "vem.restart_useful_frac": (
            sum(r.duration for j, r in restarts if j in winning) / restart_s
            if restart_s > 0 else 0.0
        ),
        "vem.em_iters": em_iters,
        "vem.ms_per_em_iter": 1000.0 * restart_s / em_iters if em_iters else 0.0,
        "vem.init_s": total("vem.init", inclusive=True),
        "vem.mstep_s": total("vem.mstep"),
        "vem.fit_self_s": total("vem.restart"),
        "model.elbo_s": total("model.elbo"),
        "model.elbo_calls": len(of("model.elbo")),
        "colgroup.refresh_s": total("colgroup.refresh", inclusive=True),
        "colgroup.refresh_calls": len(of("colgroup.refresh")),
        "colgroup.distance_s": total("colgroup.distance"),
        "colgroup.agglomerate_s": total("colgroup.agglomerate"),
        "colgroup.silhouette_s": total("colgroup.silhouette"),
        "colgroup.cut_s": total("colgroup.cut"),
        "colgroup.project_s": total("colgroup.project"),
        "linalg.chol_jitter_s": total("linalg.chol_jitter"),
        "linalg.jitter_applied": sum(
            bool(s.info.get("jitter")) for _, s in of("linalg.chol_jitter")
        ),
        "select.search_s": total("select.search", inclusive=True),
        "select.cells": len(cells),
        "select.cells_failed": sum("error" in s.info for _, s in cells),
        "select.cell_s_max": max((s.duration for _, s in cells), default=0.0),
        "data.load_s": total("data.load"),
        "cli.write_s": total("cli.write"),
        "simulate.sample_s": total("simulate.sample", inclusive=True),
        "trace.overhead_s": overhead_s,
    }
    wrapped = {name for name, mod, attr, _, _ in TARGETS
               if f"{mod}.{attr}" not in tracer.absent}
    absent = [metric for metric, (_, _, span) in PER_LAYER.items()
              if span is not None and span not in wrapped]
    return metrics, absent
