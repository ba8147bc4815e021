#!/usr/bin/env python3
"""Fit benchmark for mplnbicluster.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Each invocation runs one
workload in this single process, with BLAS pinned to one thread and the CLI
at ``--jobs 1``:

1. set-up: a fresh interpreter imports the package, simulates the preset
   from the seed and, for the CLI workloads, writes ``counts.csv`` and
   ``offsets.txt``.  This is repeated and its median is ``setup_s``;
2. with ``--trace 0``, the user-visible operation is run and timed with
   tracing off, cycling through the workload's datasets until ``--seconds``
   is used up, and every operation's outputs are checked;
3. with ``--trace 1``, one untraced and one traced operation run back to
   back on the first dataset, the traced one with spans around the
   package's module-level functions (see ``tracer.py``), and their outputs
   must be byte-identical.

``setup_s`` and ``wall_s`` are times at the reference host speed: the
process and its set-up children stay on one CPU, and ``hostspeed.py``
samples that CPU's speed while each timed region runs and scales the
region's time by it, so that a shared host's slow spells do not show as a
slower program.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the environment, the checks and every metric with its unit and better
direction.  The exit code is 0 when every check passed and 1 otherwise; it
is 2, with no result printed, when the package cannot be found.

Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported, here and in the set-up children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import ctypes
import filecmp
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_REPEATS = 5
SETUP_BURST = 25  # kernel runs just before and just after each set-up child
QUALITY_OPS = 2  # every run fits at least these first datasets
FIT_SEED = 7  # fit seed at benchmark seed 0; the seed adds to it
TRACE_REL_TOL = -1e-8  # acceptance criterion 6: smallest relative bound change

sys.path.insert(0, str(BENCH_DIR))
import tracer as tracing  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    preset: int
    mode: str  # "api" for the fit() call, else the CLI --mode
    g: int  # G for the API fit, --gmax for the CLI
    k: int  # K for the API fit, --kmax for the CLI
    n_starts: Optional[int]  # None keeps the package default (5)
    replicates: int  # datasets the operations cycle through
    n: Optional[int] = None  # rows; None keeps the preset's
    max_em_iter: Optional[int] = None  # None keeps the package default

    @property
    def cli(self) -> bool:
        return self.mode != "api"

    @property
    def cells(self) -> int:
        """Operations counted per run of the operation: one fit, or one per
        grid cell."""
        if self.mode == "api":
            return 1
        return self.g * self.k if self.mode == "equal-k" else self.g


# Why each workload was chosen is in BENCHMARK.json and README.md.  A run
# cycles through ``replicates`` datasets drawn from the seed, so that its
# median is not the time of one dataset: the time a search needs varies by
# about a tenth between datasets of one preset.
WORKLOADS = {
    w.name: w
    for w in (
        # capped below the 18-24 iterations its datasets need to converge, so
        # that every operation does the same number of variational sweeps
        Workload("fit_wide_p4", 4, "api", 2, 10, 1, 4, max_em_iter=15),
        Workload("search_equal_p1", 1, "equal-k", 2, 2, None, 6),
        # not in BENCHMARK.json: one dataset takes 14-27 s and its time
        # spreads by about 40% across seeds, too much to gate on
        Workload("search_varying_p11", 11, "varying-k", 3, 5, None, 1),
    )
}

# end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
    "neg_bic": ("score", "lower"),
    "row_ari": ("ratio", "higher"),
    "col_accuracy": ("ratio", "higher"),
}


class PackageMissing(Exception):
    pass


def import_package():
    """Import mplnbicluster from this checkout's src/ only."""
    if not (SRC / "mplnbicluster" / "__init__.py").is_file():
        raise PackageMissing(f"no package at {SRC / 'mplnbicluster'}")
    sys.path.insert(0, str(SRC))
    import mplnbicluster
    from mplnbicluster import cli, data, errors, evaluate, model, select, simulate, vem

    if Path(mplnbicluster.__file__).resolve().parent != (SRC / "mplnbicluster").resolve():
        raise PackageMissing(f"imported {mplnbicluster.__file__}, not the checkout's")
    return {
        "cli": cli, "data": data, "errors": errors, "evaluate": evaluate, "model": model,
        "select": select, "simulate": simulate, "vem": vem,
    }


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    counts: object
    offsets: object
    truth: object
    counts_path: Path
    offsets_path: Path


def make_panel(pkg, w: Workload, seed: int, dest: Path) -> list[Inputs]:
    """Simulate the workload's datasets; replicate r has data seed
    preset seed + 1000 * seed + r, so seed 0 starts with the preset's own."""
    sim = pkg["simulate"]
    base = sim.preset(w.preset)
    panel = []
    for r in range(w.replicates):
        spec = replace(base, seed=base.seed + 1000 * seed + r, n=w.n or base.n)
        counts, truth = sim.sample_dataset(spec)
        offsets = sim.spec_offsets(spec)
        folder = dest / f"rep{r}"
        folder.mkdir()
        inputs = Inputs(counts, offsets, truth, folder / "counts.csv", folder / "offsets.txt")
        if w.cli:
            pkg["data"].save_counts(counts, inputs.counts_path)
            pkg["data"].save_offsets(offsets, inputs.offsets_path)
        panel.append(inputs)
    return panel


def time_setup(w: Workload, seed: int, dest: Path, repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until its inputs are ready,
    at the reference host speed.  The child runs on this process's CPU, whose
    speed is sampled just before and just after it."""
    sampler = HostSpeed()
    times = []
    for i in range(repeats):
        out = dest / f"setup{i}"
        out.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", w.name, "--seed", str(seed), "--out", str(out)]
        before = sampler.burst(SETUP_BURST)
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        after = sampler.burst(SETUP_BURST)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed with exit code {code}")
        times.append((ready - start) * HostSpeed.speed_of(before + after))
        shutil.rmtree(out)
    return times


# ---------------------------------------------------------------------------
# one operation


def fit_argv(w: Workload, seed: int, inputs: Inputs, out: Path) -> list[str]:
    argv = ["fit", "--counts", str(inputs.counts_path),
            "--offsets", str(inputs.offsets_path), "--mode", w.mode,
            "--gmax", str(w.g), "--kmax", str(w.k), "--seed", str(FIT_SEED + seed),
            "--jobs", "1", "--no-timestamp", "--out", str(out)]
    if w.n_starts is not None:
        argv += ["--n-starts", str(w.n_starts)]
    if w.max_em_iter is not None:
        argv += ["--max-em-iter", str(w.max_em_iter)]
    return argv


def run_op(pkg, w: Workload, seed: int, inputs: Inputs, out: Path) -> tuple[HostSpeed, bool]:
    """Run and time the user-visible operation; returns (clock, exited ok).

    The clock holds the elapsed time and the time at the reference host
    speed.  The API fit's result and model are written after the clock
    stops, so that both kinds of workload leave result.json and model.json
    in ``out``.
    """
    out.mkdir()
    vem = pkg["vem"]
    gc.collect()
    clock = HostSpeed()
    if w.cli:
        argv = fit_argv(w, seed, inputs, out)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            with clock:
                code = pkg["cli"].main(argv)
        return clock, code == 0
    cfg = {"seed": FIT_SEED + seed}
    if w.n_starts is not None:
        cfg["n_starts"] = w.n_starts
    if w.max_em_iter is not None:
        cfg["max_em_iter"] = w.max_em_iter
    config = vem.FitConfig(**cfg)
    try:
        with clock:
            # looked up on the module at call time, so a traced run sees the wrapper
            result = vem.fit(inputs.counts, inputs.offsets, w.g, vem.EqualK(w.k), config)
    except pkg["errors"].MplnError:
        return clock, False
    vem.save_result(result, out / "result.json")
    pkg["model"].save_model(result.model, out / "model.json")
    return clock, True


def check_op(pkg, w: Workload, inputs: Inputs, out: Path, exited_ok: bool) -> dict:
    """Output checks and quality figures of one operation.

    Returns {"checks": {name: bool}, "cells": int, "cells_failed": int,
    "bic", "row_ari", "col_accuracy", "fit": str}, where "fit" describes the
    returned model for the log.
    """
    checks = {"exit": exited_ok, "loads": False, "trace_monotone": False}
    if w.cli:
        checks["selects_true_g"] = False
    report = {"checks": checks, "cells": w.cells, "cells_failed": w.cells,
              "bic": 0.0, "row_ari": 0.0, "col_accuracy": 0.0, "fit": "failed"}
    if not exited_ok:
        return report
    try:
        result = pkg["vem"].load_result(out / "result.json")
        model = pkg["model"].load_model(out / "model.json")
    except (OSError, ValueError, KeyError, TypeError, pkg["errors"].MplnError):
        return report
    truth = inputs.truth
    checks["loads"] = (
        result.labels.shape[0] == inputs.counts.n
        and model.d == inputs.counts.d
        and model.G == result.model.G
    )
    trace = result.elbo_trace
    rel = np.diff(trace) / np.maximum(1.0, np.abs(trace[:-1]))
    checks["trace_monotone"] = bool(
        trace.size > 0 and np.all(np.isfinite(trace))
        and (rel.size == 0 or rel.min() >= TRACE_REL_TOL)
    )
    if w.cli:
        checks["selects_true_g"] = model.G == truth.model.G
        with open(out / "grid.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        report["cells"] = len(rows)
        report["cells_failed"] = sum(row["converged"] == "failed" for row in rows)
    else:
        report["cells_failed"] = 0
    quality = pkg["evaluate"].evaluate_fit(truth, model, result.labels)
    report["bic"] = result.bic
    report["fit"] = (f"G={model.G} K={';'.join(str(p.k) for p in model.groupings)} "
                     f"BIC={result.bic:.3f} iterations={result.iterations}")
    report["row_ari"] = quality.row_ari
    if not np.isnan(quality.col_misclass_mean):
        report["col_accuracy"] = 1.0 - quality.col_misclass_mean
    return report


def same_files(a: Path, b: Path) -> bool:
    """True when two output directories hold byte-identical files."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "mplnbicluster").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "git_rev": git_revision(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def git_revision() -> Optional[str]:
    # only a checkout that is itself a repository, so git never looks above it
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


# ---------------------------------------------------------------------------
# runs


@dataclass
class Report:
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value
    units: dict  # name -> (unit, better, ...)
    table_only: frozenset  # names printed in the table but not in the JSON
    checks: dict  # name -> bool, over every operation of the run
    env: dict
    ops: list  # check_op's report of each operation, with "s" and "dataset"
    absent: list


def _tally(w: Workload, reports: list[dict]) -> tuple[dict, int, int, bool]:
    checks: dict = {}
    for rep in reports:
        for name, ok in rep["checks"].items():
            checks[name] = checks.get(name, True) and bool(ok)
    correct = all(checks.values())
    attempted = sum(rep["cells"] for rep in reports)
    failed = attempted if not correct else sum(rep["cells_failed"] for rep in reports)
    return checks, attempted, failed, correct


def run_untraced(w: Workload, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS) -> Report:
    """Time operations with tracing off until ``seconds`` are used up.

    The operations cycle through the workload's datasets, at least
    ``QUALITY_OPS`` of them; ``wall_s`` is the median time of one operation
    at the reference host speed.
    """
    pkg = import_package()
    rundir = _fresh_rundir(w, seed)
    try:
        setup = time_setup(w, seed, rundir, setup_repeats)
        panel = make_panel(pkg, w, seed, rundir)
        out = rundir / "out"
        reports = []
        deadline = time.perf_counter() + seconds
        while True:
            dataset = len(reports) % len(panel)
            clock, ok = run_op(pkg, w, seed, panel[dataset], out)
            reports.append(check_op(pkg, w, panel[dataset], out, ok))
            reports[-1].update(s=clock.scaled_s, elapsed_s=clock.elapsed_s,
                               speed=clock.speed, dataset=dataset)
            shutil.rmtree(out)
            # start another operation only if it should finish in time
            if (len(reports) >= QUALITY_OPS
                    and time.perf_counter() + clock.elapsed_s > deadline):
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    checks, attempted, failed, correct = _tally(w, reports)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rep["s"] for rep in reports),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        # quality of the first datasets, which every run fits, so that it
        # does not depend on how many operations fitted in the run
        "neg_bic": -statistics.fmean(rep["bic"] for rep in reports[:QUALITY_OPS]),
        "row_ari": statistics.fmean(rep["row_ari"] for rep in reports[:QUALITY_OPS]),
        "col_accuracy": statistics.fmean(
            rep["col_accuracy"] for rep in reports[:QUALITY_OPS]),
    }
    return Report(w.name, seed, correct, attempted, failed, metrics, END_TO_END,
                  frozenset(), checks, environment(seed), reports, [])


def run_traced(w: Workload, seed: int, spans_path: Optional[Path] = None) -> tuple[Report, "tracing.Tracer"]:
    """One untraced and one traced operation on the first dataset.

    The per-layer metrics come from the traced operation, which sits under
    a root span ``bench.op``; set-up runs traced too, for
    ``simulate.sample_s``.  Both operations are sampled for host speed,
    and ``trace.overhead_s`` is the difference of their times at the
    reference speed.  Span times are as measured: the sampler's kernel runs
    inside whichever span is open, about 2.5% of each.
    """
    pkg = import_package()
    tracer = tracing.Tracer()
    rundir = _fresh_rundir(w, seed)
    # both operations write to the same path, which run_config.json records
    out = rundir / "out"
    try:
        tracer.install(pkg)
        try:
            inputs = make_panel(pkg, w, seed, rundir)[0]
        finally:
            tracer.restore()
        clock, ok = run_op(pkg, w, seed, inputs, out)
        plain = check_op(pkg, w, inputs, out, ok)
        plain.update(s=clock.scaled_s, elapsed_s=clock.elapsed_s, speed=clock.speed,
                     dataset=0)
        out.rename(rundir / "plain")

        tracer.run = 1
        tracer.install(pkg)
        try:
            root = tracer.open("bench.op")
            try:
                clock, ok = run_op(pkg, w, seed, inputs, out)
            finally:
                tracer.close(root)
        finally:
            tracer.restore()
        traced = check_op(pkg, w, inputs, out, ok)
        traced.update(s=clock.scaled_s, elapsed_s=clock.elapsed_s, speed=clock.speed,
                      dataset=0)
        traced["checks"]["traced_outputs_identical"] = same_files(rundir / "plain", out)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_path)
    checks, attempted, failed, correct = _tally(w, [plain, traced])
    metrics, absent = tracing.per_layer_metrics(tracer, traced["s"] - plain["s"])
    report = Report(w.name, seed, correct, attempted, failed, metrics, tracing.PER_LAYER,
                    tracing.TABLE_ONLY, checks, environment(seed), [plain, traced], absent)
    return report, tracer


def _fresh_rundir(w: Workload, seed: int) -> Path:
    rundir = WORK / f"{w.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    return rundir


def pin_to_one_cpu() -> None:
    """Keep this process and the set-up children it starts on one CPU.

    Each CPU of a shared host has slow spells of its own, so the host speed
    sampled in this process holds for a child only when both run on the
    same CPU.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def format_report(report: Report) -> list[str]:
    """Human-readable lines, then the one-line JSON result."""
    lines = [
        f"workload {report.workload}  seed {report.seed}  operations {len(report.ops)}",
        "env " + json.dumps(report.env, sort_keys=True),
        "checks " + "  ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in report.checks.items()),
    ]
    for i, op in enumerate(report.ops):
        lines.append(f"op {i}  dataset {op['dataset']}  {op['s']:.4f} s at reference speed  "
                     f"(elapsed {op['elapsed_s']:.4f} s, host speed {op['speed']:.3f})  "
                     f"{op['fit']}")
    width = max(len(name) for name in report.units)
    for name, (unit, better, *_) in report.units.items():
        flag = "  (absent: wrapped name no longer exists)" if name in report.absent else ""
        if name in report.table_only:
            flag += "  (table only)"
        lines.append(f"  {name:<{width}}  {report.metrics[name]:>16.6f}  {unit:<6}  "
                     f"{better} is better{flag}")
    lines.append(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": unit}
                    for name, (unit, *_) in report.units.items()
                    if name not in report.table_only},
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    w = WORKLOADS[args.workload]
    if not args.setup_only:
        pin_to_one_cpu()
    try:
        if args.setup_only:
            make_panel(import_package(), w, args.seed, args.out)
            print("ready", flush=True)
            return 0
        if args.trace:
            report, _ = run_traced(
                w, args.seed, WORK / "spans" / f"{w.name}-seed{args.seed}.json")
        else:
            report = run_untraced(w, args.seed, args.seconds)
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(format_report(report)), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
