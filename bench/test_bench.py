"""Smoke test of the benchmark itself, on shrunken workloads.

    python3 -m pytest bench/test_bench.py -q

Each workload runs with fewer rows, starts and EM iterations, so the whole
file takes seconds.  The tests check that every metric is printed with a
unit and a direction, that the output checks run, that spans nest, that the
host-speed sampler measures its region and puts the alarm back, and that
the benchmark fails cleanly where the package is missing.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

NAMES = sorted(run.WORKLOADS)


def shrink(name):
    """Fewer rows and one start; the API fit also stops after 5 iterations,
    while a search runs to convergence so that it selects the true G."""
    w = run.WORKLOADS[name]
    return replace(w, n=200, n_starts=1, replicates=2,
                   max_em_iter=None if w.cli else 5)


def assert_metric_lines(lines, table, table_only=frozenset()):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(table) - table_only
    for name, (unit, better, *_) in table.items():
        if name not in table_only:
            assert result["metrics"][name]["unit"] == unit
            assert isinstance(result["metrics"][name]["value"], (int, float))
        assert better in ("lower", "higher")
        assert any(
            line.split()[:1] == [name] and f" {unit} " in line
            and f"{better} is better" in line
            for line in lines[:-1]
        ), name
    return result


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_prints_every_metric_and_checks_outputs(name):
    w = shrink(name)
    report = run.run_untraced(w, seed=0, seconds=0.0, setup_repeats=1)
    result = assert_metric_lines(run.format_report(report), run.END_TO_END)
    expected = {"exit", "loads", "trace_monotone"}
    if w.cli:
        expected.add("selects_true_g")
    assert set(report.checks) == expected
    assert result["correct"] is all(report.checks.values()) is True
    assert len(report.ops) == run.QUALITY_OPS
    assert result["attempted"] == run.QUALITY_OPS * w.cells


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_nests_spans_and_keeps_outputs(name):
    w = shrink(name)
    report, tracer = run.run_traced(w, seed=0)
    assert_metric_lines(run.format_report(report), tracing.PER_LAYER, tracing.TABLE_ONLY)
    assert report.correct and report.checks["traced_outputs_identical"]
    assert report.absent == []

    spans = tracer.spans
    self_time = tracer.self_times()
    children = {i: [] for i in range(len(spans))}
    for i, span in enumerate(spans):
        assert span.start <= span.end
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            children[span.parent].append(span)
    for i, span in enumerate(spans):
        kids = sorted(children[i], key=lambda s: s.start)
        assert all(a.end <= b.start for a, b in zip(kids, kids[1:]))
        assert self_time[i] + sum(k.duration for k in kids) == pytest.approx(span.duration)
        assert self_time[i] >= 0.0
    # the traced operation's layers partition its time
    (root,) = [s for s in spans if s.name == "bench.op"]
    assert root.parent is None
    traced = [i for i, s in enumerate(spans) if s.run == root.run]
    assert sum(self_time[i] for i in traced) == pytest.approx(root.duration)
    layers = {s.name for s in spans}
    assert {"vem.restart", "vem.sweep", "model.elbo", "colgroup.refresh"} <= layers
    assert ("select.search" in layers) == w.cli


def test_host_speed_samples_its_region_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSpeed(interval_s=0.01) as clock:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 5
    assert 0.0 < clock.net_s < clock.elapsed_s
    assert clock.scaled_s == pytest.approx(clock.net_s * clock.speed)


def test_missing_wrapped_name_is_reported_absent():
    pkg = run.import_package()
    vem = types.SimpleNamespace(**{
        k: v for k, v in vars(pkg["vem"]).items() if k != "_partial_elbo"
    })
    tracer = tracing.Tracer()
    tracer.install({**pkg, "vem": vem})
    tracer.restore()
    assert tracer.absent == ["vem._partial_elbo"]
    metrics, absent = tracing.per_layer_metrics(tracer, 0.0)
    assert absent == ["vem.partial_elbo_s"]
    assert set(metrics) == set(tracing.PER_LAYER)


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in tracing.PER_LAYER.items() if k not in tracing.TABLE_ONLY}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
