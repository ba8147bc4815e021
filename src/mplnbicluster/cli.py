"""Command-line front end: simulate | fit | evaluate | report.

Each subcommand reads its parameters from three layers — built-in
defaults, an optional flat JSON config file (``--config``), and command
line flags — where later layers win.  The fully resolved parameter set is
archived as ``run_config.json`` next to the outputs, and that file can be
fed back via ``--config`` to replay the run.  A ``fit`` file written when
each EM pass ran an inner loop of variational steps holds that loop's two
keys, and exits 2 on them as unknown: the one-step sweep cannot replay it.

Exit codes are a stable contract for scripting: 0 on success, 1 on a
runtime failure (e.g. every grid cell failed), 2 on a usage or
configuration error (unknown flags or config keys, missing or malformed
input files, invalid parameter values).

All outputs are byte-identical across reruns with the same inputs and
seed, except the timestamp recorded in ``run_config.json`` and the
wall_time_ms column of ``grid.csv``; ``--no-timestamp`` suppresses both.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields, replace as dc_replace
from datetime import datetime, timezone
from pathlib import Path

from .colgroup import LINKAGES
from .data import (
    compute_offsets,
    load_counts,
    load_offsets,
    read_json,
    save_counts,
    save_offsets,
    write_csv,
    write_json,
)
from .errors import MplnError
from .evaluate import (
    aggregate_reports,
    evaluate_fit,
    load_report,
    none_if_nan,
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


# Every option of every command: key -> (kind, default, help).  The flag is
# the key with "-" for "_" and the config key is the key itself.  ``kind``
# is int, float or str, a tuple of allowed strings, list for a repeatable
# flag, or bool for a switch.  A None default means "not set", so config
# and flags may fill it in.  The FitConfig fields take their kind from the
# type of their default.
_COMMON = {
    "out": (str, None, "output directory"),
    "no_timestamp": (
        bool,
        False,
        "omit the run timestamp and zero wall_time_ms for byte-stable outputs",
    ),
}
_OPTIONS = {
    "simulate": {
        "preset": (int, None, "benchmark study id (1-12)"),
        "spec": (str, None, "JSON file describing the generator"),
        "seed": (int, None, "override the spec's data seed"),
        **_COMMON,
    },
    "fit": {
        "counts": (str, None, "count matrix CSV/TSV"),
        "offsets": (str, None, "offsets file (one value per line)"),
        "offsets_mode": (
            ("unit", "libsize"),
            "unit",
            "derive offsets from the counts when no --offsets file is given",
        ),
        "mode": (("equal-k", "varying-k"), None, "one K for all components, or one each"),
        "gmax": (int, None, "largest component count tried"),
        "kmax": (int, None, "largest block count tried"),
        "jobs": (int, 1, "concurrent grid cells"),
        **{
            f.name: (LINKAGES if f.name == "linkage" else type(f.default), f.default, None)
            for f in fields(FitConfig)
        },
        **_COMMON,
    },
    "evaluate": {
        "truth": (list, None, "truth JSON, or a directory of truth*.json; repeatable"),
        "result": (list, None, "fit result JSON, or a directory of result*.json; repeatable"),
        **_COMMON,
    },
    "report": {
        "report": (list, None, "report JSON, or a directory of report*.json; repeatable"),
        **_COMMON,
    },
}

_HELP = {
    "simulate": "draw a synthetic dataset with known structure",
    "fit": "fit the mixture and select the structure by BIC",
    "evaluate": "score fits against the generating truth",
    "report": "summarize evaluation reports as one table",
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number, exponent form included, is an option's value
        # and not another option (argparse before 3.13 reads -1e-6 as one)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # surface argparse's own complaints through the UsageError path so
    # main() can return 2 instead of the parser calling sys.exit itself
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mplnbicluster", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=_HELP[command])
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for key, (kind, _, text) in options.items():
            flag = "--" + key.replace("_", "-")
            names = ("-o", flag) if key == "out" else (flag,)
            # every flag defaults to None so that _resolve can tell it was not given
            kwargs = {"default": None, "help": text}
            if kind is bool:
                kwargs["action"] = "store_true"
            elif kind is list:
                kwargs["action"] = "append"
            elif isinstance(kind, tuple):
                kwargs["choices"] = kind
            elif kind is not str:
                kwargs["type"] = kind
            p.add_argument(*names, **kwargs)
    return parser


def _coerce(key, kind, value):
    """Check a config-file value against its option's kind (argparse has
    already typed the flags)."""
    if kind is list:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        expected = "a list of strings"
    elif isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
        expected = "one of " + ", ".join(kind)
    elif kind is bool or kind is str:
        ok = isinstance(value, kind)
        expected = "true or false" if kind is bool else "a string"
    elif kind is int:
        # JSON numbers only (int() also takes true and "5"), and whole ones
        # (int() cuts 2.7 to 2)
        ok = type(value) is int or (type(value) is float and value.is_integer())
        expected = "an integer"
    else:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        expected = "a finite number"
    if not ok:
        raise UsageError(f"config key {key!r}: expected {expected}, got {json.dumps(value)}")
    return kind(value) if kind in (int, float) else value


def _resolve(command, args):
    """Merge defaults, config-file values, and CLI flags (flags win)."""
    options = _OPTIONS[command]
    effective = {key: default for key, (_, default, _) in options.items()}
    if args.config is not None:
        cfg = _load(read_json, args.config, "config")
        if not isinstance(cfg, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        cfg = dict(cfg)
        recorded = cfg.pop("command", None)
        if recorded is not None and recorded != command:
            raise UsageError(
                f"config file was written for {recorded!r}, not {command!r}"
            )
        cfg.pop("timestamp", None)  # a replayed archive carries one; harmless
        unknown = sorted(set(cfg) - set(options))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in cfg.items():
            if value is not None:  # null means "not set", like an absent flag
                effective[key] = _coerce(key, options[key][0], value)
    for key in options:
        value = getattr(args, key)
        if value is not None:
            effective[key] = value
    return effective


def _require(effective, key, flag):
    if effective.get(key) is None:
        raise UsageError(f"{flag} is required")
    return effective[key]


def _out_dir(effective) -> Path:
    """The output directory.  A command checks it is given before its work
    and makes it just before its first write, so a run that fails leaves no
    empty directory behind."""
    return Path(_require(effective, "out", "-o/--out"))


def _load(loader, path, kind, **kwargs):
    """``loader(path, **kwargs)``, the one way a command reads an input
    file.  A missing file or any error of the loader is a UsageError that
    names the path once: a message that already starts with it is kept,
    any other is wrapped."""
    if not Path(path).is_file():
        raise UsageError(f"{kind} file not found: {path}")
    try:
        return loader(path, **kwargs)
    # ValueError covers json.JSONDecodeError and UnicodeDecodeError
    except (MplnError, ValueError, KeyError, TypeError) as exc:
        message = str(exc)
        if not message.startswith(f"{path}: "):
            message = f"{path}: not a valid {kind} file ({message})"
        raise UsageError(message) from None


def _write_run_config(command, effective, out: Path) -> None:
    payload = {"command": command}
    for key in sorted(effective):
        payload[key] = effective[key]
    if not effective["no_timestamp"]:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    write_json(payload, out / "run_config.json")


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(effective) -> int:
    preset_id = effective["preset"]
    spec_path = effective["spec"]
    if (preset_id is None) == (spec_path is None):
        raise UsageError("exactly one of --preset or --spec is required")
    out = _out_dir(effective)
    if preset_id is not None:
        try:
            spec = preset(preset_id)
        except ValueError:
            raise UsageError(f"unknown preset {preset_id}") from None
    else:
        spec = _load(load_spec, spec_path, "spec")
    if effective["seed"] is not None:
        spec = dc_replace(spec, seed=effective["seed"])
    counts, truth = sample_dataset(spec)
    out.mkdir(parents=True, exist_ok=True)
    save_counts(counts, out / "counts.csv")
    save_offsets(spec_offsets(spec), out / "offsets.txt")
    save_truth(truth, out / "truth.json")
    _write_run_config("simulate", effective, out)
    print(f"simulated {counts.n}x{counts.d} counts, G={spec.G} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# fit


def _save_trace(trace, path) -> None:
    rows = ((i, repr(float(value))) for i, value in enumerate(trace))
    write_csv([["iteration", "observed_bound"], *rows], path)


def _save_partitions(model, var_names, path) -> None:
    """Variable-to-block assignments of every component, stacked."""
    rows = (
        (name, g, group)
        for g, partition in enumerate(model.groupings, start=1)
        for name, group in zip(var_names, partition.assign.tolist())
    )
    write_csv([["variable", "component", "group"], *rows], path)


def _cmd_fit(effective) -> int:
    counts_path = _require(effective, "counts", "--counts")
    mode = _require(effective, "mode", "--mode")
    gmax = _require(effective, "gmax", "--gmax")
    kmax = _require(effective, "kmax", "--kmax")
    config = FitConfig(**{f.name: effective[f.name] for f in fields(FitConfig)})
    out = _out_dir(effective)

    counts = _load(load_counts, counts_path, "counts")
    if effective["offsets"] is not None:
        offsets = _load(load_offsets, effective["offsets"], "offsets", n=counts.n)
    else:
        try:
            offsets = compute_offsets(counts, effective["offsets_mode"])
        except (MplnError, ValueError) as exc:
            raise UsageError(str(exc)) from None

    search = grid_search_equal_k if mode == "equal-k" else fit_varying_k
    best, grid = search(counts, offsets, gmax, kmax, config, jobs=effective["jobs"])

    out.mkdir(parents=True, exist_ok=True)
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


def _cmd_evaluate(effective) -> int:
    truth_arg = _require(effective, "truth", "--truth")
    result_arg = _require(effective, "result", "--result")
    out = _out_dir(effective)
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
        truth = _load(load_truth, truth_path, "truth")
        result = _load(load_result, result_path, "result")
        try:
            reports.append(evaluate_fit(truth, result.model, result.labels))
        except MplnError as exc:
            raise UsageError(f"{result_path} against {truth_path}: {exc}") from None

    try:
        final = aggregate_reports(reports)
    except MplnError as exc:
        raise UsageError(f"{exc}; aggregate only replicates of a single study") from None
    out.mkdir(parents=True, exist_ok=True)
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


# summary column -> the EvalReport attribute it reports, which is also the
# metric's key in the report's "sd"
_SUMMARY = {
    "row_ari": "row_ari",
    "col_misclass": "col_misclass_mean",
    "mu_mse": "mu_mse_mean",
    "pi_mse": "pi_mse_mean",
}


def _summary_row(path: Path) -> tuple:
    """(label, replicates, [(mean, sd) of each _SUMMARY metric]); None
    stands for an undefined mean or sd."""
    label = path.parent.name if path.stem == "report" and path.parent.name else path.stem
    report = _load(load_report, path, "report")
    sd = report.sd or {}
    metrics = [
        (none_if_nan(getattr(report, attr)), none_if_nan(sd.get(attr)))
        for attr in _SUMMARY.values()
    ]
    return label, report.n_replicates, metrics


def _cmd_report(effective) -> int:
    report_arg = _require(effective, "report", "--report")
    out = _out_dir(effective)
    paths = _expand(report_arg, "report*.json", "report")
    if not paths:
        raise UsageError("no reports given")
    rows = [_summary_row(p) for p in paths]

    # summary.csv has a mean and an sd column per metric, its plain-text
    # twin one "mean (sd)" column
    def cell(mean, sd):
        if mean is None:
            return "-"
        return f"{mean:.4f}" if sd is None else f"{mean:.4f} ({sd:.4f})"

    csv_rows = [["report", "n_replicates", *(c for m in _SUMMARY for c in (m, m + "_sd"))]]
    table = [["report", "reps", *_SUMMARY]]
    for label, reps, metrics in rows:
        means_sds = ("" if v is None else f"{v:.6g}" for pair in metrics for v in pair)
        csv_rows.append([label, reps, *means_sds])
        table.append([label, str(reps), *(cell(mean, sd) for mean, sd in metrics)])
    widths = [max(map(len, column)) for column in zip(*table)]
    out.mkdir(parents=True, exist_ok=True)
    write_csv(csv_rows, out / "summary.csv")
    with open(out / "summary.txt", "w") as fh:
        for r in table:
            fh.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")
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
