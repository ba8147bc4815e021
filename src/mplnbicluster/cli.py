"""Command-line front end: simulate | fit | evaluate | report.

Each subcommand reads its parameters from three layers — built-in
defaults, an optional flat JSON config file (``--config``), and command
line flags — where later layers win.  The fully resolved parameter set is
archived as ``run_config.json`` next to the outputs, and that file can be
fed back via ``--config`` to replay the run.

Exit codes are a stable contract for scripting: 0 on success, 1 on a
runtime failure (e.g. every grid cell failed), 2 on a usage or
configuration error (unknown flags or config keys, missing input files,
invalid parameter values).

All outputs are byte-identical across reruns with the same inputs and
seed, except the timestamp recorded in ``run_config.json`` and the
wall_time_ms column of ``grid.csv``; ``--no-timestamp`` suppresses both.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields, replace as dc_replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .colgroup import LINKAGES
from .data import compute_offsets, load_counts, load_offsets, save_counts, save_offsets
from .errors import MplnError
from .evaluate import (
    aggregate_reports,
    evaluate_fit,
    load_report,
    save_report,
    save_support_csv,
    save_support_pgm,
)
from .model import save_model
from .select import fit_varying_k, grid_search_equal_k, save_grid
from .simulate import load_spec, preset, sample_dataset, save_truth, spec_offsets, load_truth
from .vem import FitConfig, load_result, save_labels, save_result

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """A problem with flags, config keys, or input files; exit code 2."""


# defaults per command; None marks "not set" so config/flags can fill it in
_DEFAULTS = {
    "simulate": {
        "preset": None,
        "spec": None,
        "seed": None,  # None keeps the spec's own seed
        "out": None,
        "no_timestamp": False,
    },
    "fit": {
        "counts": None,
        "offsets": None,
        "offsets_mode": "unit",
        "mode": None,
        "gmax": None,
        "kmax": None,
        "jobs": 1,
        **asdict(FitConfig()),
        "out": None,
        "no_timestamp": False,
    },
    "evaluate": {
        "truth": None,
        "result": None,
        "out": None,
        "no_timestamp": False,
    },
    "report": {
        "report": None,
        "out": None,
        "no_timestamp": False,
    },
}

_INT_KEYS = frozenset(
    {"preset", "seed", "gmax", "kmax", "jobs", "n_starts", "max_em_iter", "inner_iter"}
)
_FLOAT_KEYS = frozenset({"elbo_rel_tol", "inner_tol"})
_LIST_KEYS = frozenset({"truth", "result", "report"})


class _Parser(argparse.ArgumentParser):
    # surface argparse's own complaints through the UsageError path so
    # main() can return 2 instead of the parser calling sys.exit itself
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mplnbicluster", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("-o", "--out", default=None, help="output directory")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            default=None,
            dest="no_timestamp",
            help="omit the run timestamp and zero wall_time_ms for byte-stable outputs",
        )

    p = sub.add_parser("simulate", help="draw a synthetic dataset with known structure")
    p.add_argument("--preset", type=int, default=None, help="benchmark study id (1-12)")
    p.add_argument("--spec", default=None, help="JSON file describing the generator")
    p.add_argument("--seed", type=int, default=None, help="override the spec's data seed")
    common(p)

    p = sub.add_parser("fit", help="fit the mixture and select the structure by BIC")
    p.add_argument("--counts", default=None, help="count matrix CSV/TSV")
    p.add_argument("--offsets", default=None, help="offsets file (one value per line)")
    p.add_argument(
        "--offsets-mode",
        default=None,
        dest="offsets_mode",
        choices=("unit", "libsize"),
        help="derive offsets from the counts when no --offsets file is given",
    )
    p.add_argument("--mode", default=None, choices=("equal-k", "varying-k"))
    p.add_argument("--gmax", type=int, default=None, help="largest component count tried")
    p.add_argument("--kmax", type=int, default=None, help="largest block count tried")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None, help="concurrent grid cells")
    p.add_argument("--n-starts", type=int, default=None, dest="n_starts")
    p.add_argument("--max-em-iter", type=int, default=None, dest="max_em_iter")
    p.add_argument("--elbo-rel-tol", type=float, default=None, dest="elbo_rel_tol")
    p.add_argument("--inner-iter", type=int, default=None, dest="inner_iter")
    p.add_argument("--inner-tol", type=float, default=None, dest="inner_tol")
    p.add_argument("--linkage", default=None, choices=LINKAGES)
    common(p)

    p = sub.add_parser("evaluate", help="score fits against the generating truth")
    p.add_argument(
        "--truth",
        action="append",
        default=None,
        help="truth JSON, or a directory of truth*.json; repeatable",
    )
    p.add_argument(
        "--result",
        action="append",
        default=None,
        help="fit result JSON, or a directory of result*.json; repeatable",
    )
    common(p)

    p = sub.add_parser("report", help="summarize evaluation reports as one table")
    p.add_argument(
        "--report",
        action="append",
        default=None,
        help="report JSON, or a directory of report*.json; repeatable",
    )
    common(p)
    return parser


def _coerce(key, value):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _LIST_KEYS:
            if isinstance(value, str):
                return [value]
            return [str(v) for v in value]
        if key == "no_timestamp":
            if not isinstance(value, bool):
                raise ValueError("expected true or false")
            return value
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {key!r}: {exc}") from None
    return value


def _resolve(command, args):
    """Merge defaults, config-file values, and CLI flags (flags win)."""
    defaults = _DEFAULTS[command]
    effective = dict(defaults)
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {args.config}")
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{args.config}: invalid JSON ({exc})") from None
        if not isinstance(cfg, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        cfg = dict(cfg)
        recorded = cfg.pop("command", None)
        if recorded is not None and recorded != command:
            raise UsageError(
                f"config file was written for {recorded!r}, not {command!r}"
            )
        cfg.pop("timestamp", None)  # a replayed archive carries one; harmless
        unknown = sorted(set(cfg) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in cfg.items():
            effective[key] = None if value is None else _coerce(key, value)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            effective[key] = _coerce(key, value)
    return effective


def _require(effective, key, flag):
    if effective.get(key) is None:
        raise UsageError(f"{flag} is required")
    return effective[key]


def _prepare_out(effective) -> Path:
    out = Path(_require(effective, "out", "-o/--out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_file(path, kind) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{kind} file not found: {path}")
    return p


def _write_run_config(command, effective, out: Path) -> None:
    payload = {"command": command}
    for key in sorted(effective):
        payload[key] = effective[key]
    if not effective["no_timestamp"]:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    with open(out / "run_config.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(effective) -> int:
    preset_id = effective["preset"]
    spec_path = effective["spec"]
    if (preset_id is None) == (spec_path is None):
        raise UsageError("exactly one of --preset or --spec is required")
    if preset_id is not None:
        try:
            spec = preset(preset_id)
        except ValueError:
            raise UsageError(f"unknown preset {preset_id}") from None
    else:
        _require_file(spec_path, "spec")
        try:
            spec = load_spec(spec_path)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{spec_path}: invalid JSON ({exc})") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"{spec_path}: {exc}") from None
    if effective["seed"] is not None:
        spec = dc_replace(spec, seed=effective["seed"])
    out = _prepare_out(effective)
    counts, truth = sample_dataset(spec)
    save_counts(counts, out / "counts.csv")
    save_offsets(spec_offsets(spec), out / "offsets.txt")
    save_truth(truth, out / "truth.json")
    _write_run_config("simulate", effective, out)
    print(f"simulated {counts.n}x{counts.d} counts, G={spec.G} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# fit


def _save_trace(trace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "observed_bound"])
        for i, value in enumerate(trace):
            writer.writerow([i, repr(float(value))])


def _save_partitions(model, var_names, path) -> None:
    """Variable-to-block assignments of every component, stacked."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "component", "group"])
        for g, partition in enumerate(model.groupings, start=1):
            for j, name in enumerate(var_names):
                writer.writerow([name, g, int(partition.assign[j])])


def _cmd_fit(effective) -> int:
    counts_path = _require(effective, "counts", "--counts")
    mode = _require(effective, "mode", "--mode")
    gmax = _require(effective, "gmax", "--gmax")
    kmax = _require(effective, "kmax", "--kmax")
    if mode not in ("equal-k", "varying-k"):
        raise UsageError(f"mode must be equal-k or varying-k, got {mode!r}")
    if effective["jobs"] < 1:
        raise UsageError(f"jobs must be at least 1, got {effective['jobs']}")
    out = _prepare_out(effective)

    _require_file(counts_path, "counts")
    try:
        counts = load_counts(counts_path)
    except (MplnError, ValueError) as exc:
        raise UsageError(f"{counts_path}: {exc}") from None
    if effective["offsets"] is not None:
        _require_file(effective["offsets"], "offsets")
        try:
            offsets = load_offsets(effective["offsets"], n=counts.n)
        except (MplnError, ValueError) as exc:
            raise UsageError(f"{effective['offsets']}: {exc}") from None
    else:
        try:
            offsets = compute_offsets(counts, effective["offsets_mode"])
        except (MplnError, ValueError) as exc:
            raise UsageError(str(exc)) from None

    config = FitConfig(**{f.name: effective[f.name] for f in fields(FitConfig)})
    search = grid_search_equal_k if mode == "equal-k" else fit_varying_k
    best, grid = search(counts, offsets, gmax, kmax, config, jobs=effective["jobs"])

    save_model(best.model, out / "model.json")
    save_result(best, out / "result.json")
    save_labels(counts.sample_ids, best.labels, out / "labels.csv")
    save_grid(grid, out / "grid.csv", include_timing=not effective["no_timestamp"])
    _save_trace(best.elbo_trace, out / "elbo_trace.csv")
    _save_partitions(best.model, counts.var_names, out / "partitions.csv")
    _write_run_config("fit", effective, out)
    print(
        f"best model: G={grid.best_g}, K={grid.best_k_label}, "
        f"BIC={best.bic:.6g}, converged={best.converged} -> {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _expand(values, pattern, kind):
    paths = []
    for value in values:
        p = Path(value)
        if p.is_dir():
            found = sorted(p.glob(pattern))
            if not found:
                raise UsageError(f"{value}: no {pattern} files in directory")
            paths.extend(found)
        elif p.is_file():
            paths.append(p)
        else:
            raise UsageError(f"{kind} file not found: {value}")
    return paths


def _null(value):
    return None if value is None or np.isnan(value) else float(value)


def _cmd_evaluate(effective) -> int:
    truth_arg = _require(effective, "truth", "--truth")
    result_arg = _require(effective, "result", "--result")
    out = _prepare_out(effective)
    truth_paths = _expand(truth_arg, "truth*.json", "truth")
    result_paths = _expand(result_arg, "result*.json", "result")
    if len(truth_paths) == 1 and len(result_paths) > 1:
        truth_paths = truth_paths * len(result_paths)
    elif len(truth_paths) != len(result_paths):
        raise UsageError(
            f"got {len(truth_paths)} truth files for {len(result_paths)} "
            "result files; need one truth per result or a single shared truth"
        )

    reports = []
    for truth_path, result_path in zip(truth_paths, result_paths):
        try:
            truth = load_truth(truth_path)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, MplnError) as exc:
            raise UsageError(f"{truth_path}: not a valid truth file ({exc})") from None
        try:
            result = load_result(result_path)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, MplnError) as exc:
            raise UsageError(f"{result_path}: not a valid result file ({exc})") from None
        if result.model.d != truth.model.d:
            raise UsageError(
                f"{result_path}: model has d={result.model.d} variables but "
                f"{truth_path} has d={truth.model.d}"
            )
        if result.labels.shape[0] != truth.row_labels.shape[0]:
            raise UsageError(
                f"{result_path}: {result.labels.shape[0]} row labels but "
                f"{truth_path} has {truth.row_labels.shape[0]}"
            )
        reports.append(evaluate_fit(truth, result.model, result.labels))

    try:
        final = aggregate_reports(reports)
    except MplnError as exc:
        raise UsageError(f"{exc}; aggregate only replicates of a single study") from None
    save_report(final, out / "report.json")
    for t, matrix in enumerate(final.support_counts, start=1):
        save_support_csv(matrix, out / f"support_component_{t}.csv")
        save_support_pgm(matrix, out / f"support_component_{t}.pgm")
    _write_run_config("evaluate", effective, out)
    print(
        f"evaluated {final.n_replicates} replicate(s): "
        f"mean ARI {final.row_ari:.4f} -> {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# report


_SUMMARY_COLUMNS = (
    "report",
    "n_replicates",
    "row_ari",
    "row_ari_sd",
    "col_misclass",
    "col_misclass_sd",
    "mu_mse",
    "mu_mse_sd",
    "pi_mse",
    "pi_mse_sd",
)


def _summary_row(path: Path) -> dict:
    label = path.parent.name if path.stem == "report" and path.parent.name else path.stem
    try:
        report = load_report(path)
        sd = report.sd or {}
        return {
            "report": label,
            "n_replicates": int(report.n_replicates),
            "row_ari": _null(report.row_ari),
            "row_ari_sd": _null(sd.get("row_ari")),
            "col_misclass": _null(report.col_misclass_mean),
            "col_misclass_sd": _null(sd.get("col_misclass_mean")),
            "mu_mse": _null(report.mu_mse_mean),
            "mu_mse_sd": _null(sd.get("mu_mse_mean")),
            "pi_mse": _null(report.pi_mse_mean),
            "pi_mse_sd": _null(sd.get("pi_mse_mean")),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: not a valid report file ({exc})") from None


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6g}"


def _cmd_report(effective) -> int:
    report_arg = _require(effective, "report", "--report")
    out = _prepare_out(effective)
    paths = _expand(report_arg, "report*.json", "report")
    if not paths:
        raise UsageError("no reports given")
    rows = [_summary_row(p) for p in paths]

    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["report"], row["n_replicates"]]
                + [_fmt(row[c]) for c in _SUMMARY_COLUMNS[2:]]
            )

    # plain-text twin: one row per report, metric columns as "mean (sd)"
    def cell(row, key):
        mean = row[key]
        if mean is None:
            return "-"
        sd = row[key + "_sd"]
        if sd is None:
            return f"{mean:.4f}"
        return f"{mean:.4f} ({sd:.4f})"

    headers = ["report", "reps", "row_ari", "col_misclass", "mu_mse", "pi_mse"]
    table = [
        [
            row["report"],
            str(row["n_replicates"]),
            cell(row, "row_ari"),
            cell(row, "col_misclass"),
            cell(row, "mu_mse"),
            cell(row, "pi_mse"),
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in table)) for i in range(len(headers))
    ]
    with open(out / "summary.txt", "w") as fh:
        fh.write("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
        fh.write("\n")
        for r in table:
            fh.write("  ".join(v.ljust(widths[i]) for i, v in enumerate(r)).rstrip())
            fh.write("\n")
    _write_run_config("report", effective, out)
    print(f"summarized {len(rows)} report(s) -> {out}")
    return 0


# ---------------------------------------------------------------------------


_DISPATCH = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        effective = _resolve(args.command, args)
        return _DISPATCH[args.command](effective)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MplnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
