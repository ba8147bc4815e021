"""End-to-end tests for the command-line interface.

Everything runs through ``main(argv)`` so exit codes and file outputs are
exercised exactly as a shell user would see them, just without spawning
subprocesses.  The datasets are deliberately tiny.
"""

import json
import warnings

import numpy as np
import pytest

from mplnbicluster.cli import main
from mplnbicluster.data import load_counts
from mplnbicluster.errors import AllCellsFailed
from mplnbicluster.model import load_model
from mplnbicluster.simulate import SimSpec, load_truth, sample_dataset, save_spec, save_truth
from mplnbicluster.vem import FitResult, load_result, save_result


def small_spec(**overrides):
    base = dict(
        n=70,
        d=6,
        pi=(0.5, 0.5),
        mu=np.array(
            [[1.0, 1.0, 1.0, 3.0, 3.0, 3.0], [3.0, 3.0, 3.0, 1.0, 1.0, 1.0]]
        ),
        block_sizes=((3, 3), (3, 3)),
        within_block_corr_range=(0.55, 0.75),
        seed=11,
    )
    base.update(overrides)
    return SimSpec(**base)


FAST_FIT = ("--n-starts", "1", "--max-em-iter", "60", "--seed", "3")


@pytest.fixture(scope="session")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    save_spec(small_spec(), path)
    return path


@pytest.fixture(scope="session")
def sim_dir(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("pipeline") / "sim"
    rc = main(["simulate", "--spec", str(spec_file), "--no-timestamp", "-o", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def fit_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("pipeline") / "fit"
    rc = main(
        [
            "fit",
            "--counts", str(sim_dir / "counts.csv"),
            "--offsets", str(sim_dir / "offsets.txt"),
            "--mode", "equal-k",
            "--gmax", "2",
            "--kmax", "2",
            *FAST_FIT,
            "--no-timestamp",
            "-o", str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def eval_dir(tmp_path_factory, sim_dir, fit_dir):
    out = tmp_path_factory.mktemp("pipeline") / "eval"
    rc = main(
        [
            "evaluate",
            "--truth", str(sim_dir / "truth.json"),
            "--result", str(fit_dir / "result.json"),
            "--no-timestamp",
            "-o", str(out),
        ]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# argument handling


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["simulate", "--bogus", "1"]) == 2


def test_bad_choice_is_usage_error(tmp_path):
    rc = main(
        ["fit", "--counts", "x.csv", "--mode", "sideways",
         "--gmax", "1", "--kmax", "1", "-o", str(tmp_path)]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_dataset(sim_dir):
    for name in ("counts.csv", "offsets.txt", "truth.json", "run_config.json"):
        assert (sim_dir / name).is_file()
    counts = load_counts(sim_dir / "counts.csv")
    assert (counts.n, counts.d) == (70, 6)
    truth = load_truth(sim_dir / "truth.json")
    assert set(np.unique(truth.row_labels)) <= {1, 2}


def test_simulate_preset_dims(tmp_path, capsys):
    out = tmp_path / "p1"
    assert main(["simulate", "--preset", "1", "--seed", "7", "-o", str(out)]) == 0
    assert "500x10" in capsys.readouterr().out
    counts = load_counts(out / "counts.csv")
    assert (counts.n, counts.d) == (500, 10)
    assert (out / "truth.json").is_file() and (out / "offsets.txt").is_file()


def test_simulate_unknown_preset(tmp_path, capsys):
    rc = main(["simulate", "--preset", "99", "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


def test_simulate_needs_exactly_one_source(tmp_path, spec_file):
    assert main(["simulate", "-o", str(tmp_path / "a")]) == 2
    rc = main(
        ["simulate", "--preset", "1", "--spec", str(spec_file),
         "-o", str(tmp_path / "b")]
    )
    assert rc == 2


def test_simulate_rerun_is_byte_identical(spec_file, tmp_path):
    args = ["simulate", "--spec", str(spec_file), "--no-timestamp"]
    assert main(args + ["-o", str(tmp_path / "a")]) == 0
    assert main(args + ["-o", str(tmp_path / "b")]) == 0
    for name in ("counts.csv", "offsets.txt", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_simulate_timestamp_toggle(spec_file, tmp_path):
    assert main(["simulate", "--spec", str(spec_file), "-o", str(tmp_path / "t")]) == 0
    with open(tmp_path / "t" / "run_config.json") as fh:
        assert "timestamp" in json.load(fh)
    assert main(
        ["simulate", "--spec", str(spec_file), "--no-timestamp",
         "-o", str(tmp_path / "nt")]
    ) == 0
    with open(tmp_path / "nt" / "run_config.json") as fh:
        assert "timestamp" not in json.load(fh)


def test_simulate_rejects_unknown_spec_key(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps({"n": 10, "d": 2, "pi": [1.0], "mu": [[0, 0]],
                               "block_sizes": [[2]], "sigma": 1}))
    rc = main(["simulate", "--spec", str(bad), "-o", str(tmp_path / "o")])
    assert rc == 2
    assert "sigma" in capsys.readouterr().err


def test_simulate_seed_flag_overrides_spec(spec_file, sim_dir, tmp_path):
    out = tmp_path / "seeded"
    assert main(
        ["simulate", "--spec", str(spec_file), "--seed", "99",
         "--no-timestamp", "-o", str(out)]
    ) == 0
    assert (out / "counts.csv").read_bytes() != (sim_dir / "counts.csv").read_bytes()


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_all_outputs(fit_dir):
    for name in (
        "model.json", "result.json", "labels.csv", "grid.csv",
        "elbo_trace.csv", "partitions.csv", "run_config.json",
    ):
        assert (fit_dir / name).is_file()

    grid_lines = (fit_dir / "grid.csv").read_text().splitlines()
    assert len(grid_lines) == 1 + 4  # header + 2x2 grid
    assert grid_lines[0].startswith("G,k_spec,lower_bound")
    # --no-timestamp zeroes the timing column
    assert all(line.endswith(",0.0") for line in grid_lines[1:])

    labels_lines = (fit_dir / "labels.csv").read_text().splitlines()
    assert labels_lines[0] == "sample_id,cluster"
    assert len(labels_lines) == 1 + 70

    model = load_model(fit_dir / "model.json")
    result = load_result(fit_dir / "result.json")
    assert result.model.G == model.G

    trace_lines = (fit_dir / "elbo_trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,observed_bound"
    values = [float(line.split(",")[1]) for line in trace_lines[1:]]
    assert len(values) == result.iterations + 1
    assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))

    part_lines = (fit_dir / "partitions.csv").read_text().splitlines()
    assert part_lines[0] == "variable,component,group"
    assert len(part_lines) == 1 + model.G * model.d


def test_fit_three_by_three_grid_has_nine_rows(sim_dir, tmp_path):
    out = tmp_path / "grid33"
    rc = main(
        ["fit", "--counts", str(sim_dir / "counts.csv"), "--mode", "equal-k",
         "--gmax", "3", "--kmax", "3", *FAST_FIT, "--no-timestamp",
         "-o", str(out)]
    )
    assert rc == 0
    assert len((out / "grid.csv").read_text().splitlines()) == 1 + 9


def test_fit_missing_counts_is_usage_error(tmp_path, capsys):
    rc = main(
        ["fit", "--counts", str(tmp_path / "nope.csv"), "--mode", "equal-k",
         "--gmax", "1", "--kmax", "1", "-o", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_fit_jobs_do_not_change_outputs(sim_dir, tmp_path):
    base = ["fit", "--counts", str(sim_dir / "counts.csv"), "--mode", "equal-k",
            "--gmax", "2", "--kmax", "2", *FAST_FIT, "--no-timestamp"]
    assert main(base + ["--jobs", "1", "-o", str(tmp_path / "j1")]) == 0
    assert main(base + ["--jobs", "2", "-o", str(tmp_path / "j2")]) == 0
    for name in ("model.json", "result.json", "labels.csv", "grid.csv",
                 "elbo_trace.csv", "partitions.csv"):
        assert (tmp_path / "j1" / name).read_bytes() == (
            tmp_path / "j2" / name
        ).read_bytes()


def test_fit_varying_k_labels_blocks_per_component(sim_dir, tmp_path):
    out = tmp_path / "vary"
    rc = main(
        ["fit", "--counts", str(sim_dir / "counts.csv"), "--mode", "varying-k",
         "--gmax", "2", "--kmax", "3", *FAST_FIT, "--no-timestamp",
         "-o", str(out)]
    )
    assert rc == 0
    rows = [line.split(",") for line in (out / "grid.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2  # one silhouette-guided fit per G
    g2 = next(r for r in rows if r[0] == "2")
    assert g2[1].count(";") == 1  # block count reported per component
    result = load_result(out / "result.json")
    assert len(result.model.groupings) == result.model.G


def test_fit_config_file_and_flag_precedence(sim_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "counts": str(sim_dir / "counts.csv"),
        "mode": "equal-k",
        "gmax": 1,
        "kmax": 1,
        "n_starts": 1,
        "max_em_iter": 30,
        "seed": 3,
        "no_timestamp": True,
    }))
    out = tmp_path / "out"
    # --kmax on the command line beats the config file's kmax=1
    assert main(["fit", "--config", str(cfg), "--kmax", "2", "-o", str(out)]) == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 2  # gmax 1 from config, kmax 2 from the flag
    with open(out / "run_config.json") as fh:
        stored = json.load(fh)
    assert stored["kmax"] == 2 and stored["gmax"] == 1
    assert "timestamp" not in stored


def test_fit_config_unknown_key(sim_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gmaxx": 3}))
    rc = main(
        ["fit", "--config", str(cfg), "--counts", str(sim_dir / "counts.csv"),
         "--mode", "equal-k", "--gmax", "1", "--kmax", "1",
         "-o", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "gmaxx" in capsys.readouterr().err


def test_fit_rejects_config_from_other_command(sim_dir, tmp_path, capsys):
    rc = main(
        ["fit", "--config", str(sim_dir / "run_config.json"),
         "--counts", str(sim_dir / "counts.csv"), "--mode", "equal-k",
         "--gmax", "1", "--kmax", "1", "-o", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "simulate" in capsys.readouterr().err


def test_fit_replays_archived_run_config(fit_dir, tmp_path):
    out = tmp_path / "replay"
    assert main(["fit", "--config", str(fit_dir / "run_config.json"),
                 "-o", str(out)]) == 0
    for name in ("grid.csv", "result.json"):
        assert (out / name).read_bytes() == (fit_dir / name).read_bytes()


def test_fit_runtime_failure_exits_1(sim_dir, tmp_path, monkeypatch, capsys):
    import mplnbicluster.cli as cli

    def boom(*args, **kwargs):
        raise AllCellsFailed([("G=1 K=1", "NotPositiveDefinite: no")])

    monkeypatch.setattr(cli, "grid_search_equal_k", boom)
    rc = main(
        ["fit", "--counts", str(sim_dir / "counts.csv"), "--mode", "equal-k",
         "--gmax", "1", "--kmax", "1", "-o", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "G=1 K=1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_outputs(eval_dir):
    with open(eval_dir / "report.json") as fh:
        payload = json.load(fh)
    assert payload["n_replicates"] == 1
    assert "sd" not in payload  # single replicate has no spread
    for t in (1, 2):
        assert (eval_dir / f"support_component_{t}.csv").is_file()
        pgm = (eval_dir / f"support_component_{t}.pgm").read_bytes()
        assert pgm.startswith(b"P5\n6 6\n255\n")


def test_evaluate_truth_against_itself_is_perfect(sim_dir, tmp_path):
    truth = load_truth(sim_dir / "truth.json")
    ideal = FitResult(
        model=truth.model, state=None, labels=truth.row_labels,
        elbo_trace=np.array([-1.0]), lower_bound=-1.0, bic=-2.0,
        converged=True, iterations=0, restart=0,
    )
    save_result(ideal, tmp_path / "result.json")
    out = tmp_path / "eval"
    rc = main(
        ["evaluate", "--truth", str(sim_dir / "truth.json"),
         "--result", str(tmp_path / "result.json"),
         "--no-timestamp", "-o", str(out)]
    )
    assert rc == 0
    with open(out / "report.json") as fh:
        payload = json.load(fh)
    assert payload["row_ari"] == 1.0
    assert payload["col_misclass"] == [0.0, 0.0]
    assert payload["mu_mse"] == [0.0, 0.0]
    assert payload["pi_mse"] == pytest.approx([0.0, 0.0], abs=1e-3)


def test_evaluate_mismatched_d_is_usage_error(fit_dir, tmp_path, capsys):
    other = small_spec(
        d=4,
        mu=np.array([[1.0, 1.0, 3.0, 3.0], [3.0, 3.0, 1.0, 1.0]]),
        block_sizes=((2, 2), (2, 2)),
    )
    _, truth = sample_dataset(other)
    save_truth(truth, tmp_path / "truth.json")
    rc = main(
        ["evaluate", "--truth", str(tmp_path / "truth.json"),
         "--result", str(fit_dir / "result.json"), "-o", str(tmp_path / "o")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "d=6" in err and "d=4" in err


def test_evaluate_replicates_aggregate_with_sds(tmp_path):
    truth_paths, result_paths = [], []
    for i, seed in enumerate((21, 22, 23)):
        _, truth = sample_dataset(small_spec(seed=seed))
        tp = tmp_path / f"truth_{i}.json"
        rp = tmp_path / f"result_{i}.json"
        save_truth(truth, tp)
        save_result(
            FitResult(model=truth.model, state=None, labels=truth.row_labels,
                      elbo_trace=np.array([-1.0]), lower_bound=-1.0, bic=-2.0,
                      converged=True, iterations=0, restart=0),
            rp,
        )
        truth_paths += ["--truth", str(tp)]
        result_paths += ["--result", str(rp)]
    out = tmp_path / "agg"
    rc = main(["evaluate", *truth_paths, *result_paths,
               "--no-timestamp", "-o", str(out)])
    assert rc == 0
    with open(out / "report.json") as fh:
        payload = json.load(fh)
    assert payload["n_replicates"] == 3
    assert payload["row_ari"] == 1.0
    assert payload["sd"]["row_ari"] == 0.0
    support = np.array(
        [[int(v) for v in line.split(",")]
         for line in (out / "support_component_1.csv").read_text().splitlines()]
    )
    assert support.shape == (6, 6)
    assert np.all(np.diag(support) == 3)  # diagonal present in every replicate
    assert support.max() == 3


def test_evaluate_single_truth_shared_across_results(sim_dir, fit_dir, tmp_path):
    out = tmp_path / "shared"
    rc = main(
        ["evaluate", "--truth", str(sim_dir / "truth.json"),
         "--result", str(fit_dir / "result.json"),
         "--result", str(fit_dir / "result.json"),
         "--no-timestamp", "-o", str(out)]
    )
    assert rc == 0
    with open(out / "report.json") as fh:
        assert json.load(fh)["n_replicates"] == 2


def test_evaluate_count_mismatch_is_usage_error(sim_dir, fit_dir, tmp_path):
    rc = main(
        ["evaluate",
         "--truth", str(sim_dir / "truth.json"),
         "--truth", str(sim_dir / "truth.json"),
         "--result", str(fit_dir / "result.json"),
         "--result", str(fit_dir / "result.json"),
         "--result", str(fit_dir / "result.json"),
         "-o", str(tmp_path / "o")]
    )
    assert rc == 2


def test_evaluate_expands_directories(sim_dir, fit_dir, tmp_path):
    rep = tmp_path / "reps"
    rep.mkdir()
    for i in (1, 2):
        (rep / f"truth_{i}.json").write_bytes((sim_dir / "truth.json").read_bytes())
        (rep / f"result_{i}.json").write_bytes((fit_dir / "result.json").read_bytes())
    out = tmp_path / "o"
    rc = main(["evaluate", "--truth", str(rep), "--result", str(rep),
               "--no-timestamp", "-o", str(out)])
    assert rc == 0
    with open(out / "report.json") as fh:
        assert json.load(fh)["n_replicates"] == 2


# ---------------------------------------------------------------------------
# report


def test_report_single_row(eval_dir, tmp_path):
    out = tmp_path / "rep"
    rc = main(["report", "--report", str(eval_dir / "report.json"),
               "--no-timestamp", "-o", str(out)])
    assert rc == 0
    csv_lines = (out / "summary.csv").read_text().splitlines()
    assert csv_lines[0].startswith("report,n_replicates,row_ari")
    assert len(csv_lines) == 2
    assert csv_lines[1].split(",")[0] == "eval"  # named after its directory
    txt_lines = (out / "summary.txt").read_text().splitlines()
    assert len(txt_lines) == 2


def test_report_zero_reports_is_usage_error(tmp_path, capsys):
    assert main(["report", "-o", str(tmp_path / "o")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--report", str(empty), "-o", str(tmp_path / "o2")]) == 2


def test_report_renders_means_and_sds(tmp_path):
    payload = {
        "row_ari": 0.95,
        "col_misclass": [0.0, 0.1],
        "col_misclass_mean": 0.05,
        "mu_mse": [0.01, 0.03],
        "pi_mse": [0.001, 0.003],
        "support_counts": [[[1]], [[1]]],
        "n_replicates": 10,
        "sd": {
            "row_ari": 0.02,
            "col_misclass": [0.0, 0.01],
            "col_misclass_mean": 0.005,
            "mu_mse": [0.002, 0.004],
            "pi_mse": [0.0002, 0.0004],
            "mu_mse_mean": 0.003,
            "pi_mse_mean": 0.0003,
        },
    }
    for name in ("studyA", "studyB"):
        d = tmp_path / name
        d.mkdir()
        with open(d / "report.json", "w") as fh:
            json.dump(payload, fh)
    out = tmp_path / "summary"
    rc = main(["report", "--report", str(tmp_path / "studyA" / "report.json"),
               "--report", str(tmp_path / "studyB" / "report.json"),
               "--no-timestamp", "-o", str(out)])
    assert rc == 0
    csv_lines = (out / "summary.csv").read_text().splitlines()
    assert len(csv_lines) == 3
    row = csv_lines[1].split(",")
    assert row[0] == "studyA"
    assert float(row[2]) == 0.95 and float(row[3]) == 0.02
    txt = (out / "summary.txt").read_text()
    assert "0.9500 (0.0200)" in txt
    # mu_mse column shows the mean over components
    assert float(row[6]) == pytest.approx(0.02)


def test_report_of_unmatched_components_leaves_cells_empty(tmp_path):
    # a G mismatch leaves every parameter metric null; the summary shows
    # that as an empty CSV cell and "-" without a mean-of-empty warning
    payload = {
        "row_ari": 0.4,
        "col_misclass": [None, None],
        "col_misclass_mean": None,
        "mu_mse": [None, None],
        "pi_mse": [None, None],
        "support_counts": [[[0]], [[0]]],
        "n_replicates": 1,
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "summary"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["report", "--report", str(path), "--no-timestamp", "-o", str(out)])
    assert rc == 0
    row = (out / "summary.csv").read_text().splitlines()[1].split(",")
    assert row[2] == "0.4"
    assert row[4:] == [""] * 6
    assert (out / "summary.txt").read_text().splitlines()[1].split()[2:] == [
        "0.4000", "-", "-", "-",
    ]


# ---------------------------------------------------------------------------
# whole-pipeline determinism


def test_pipeline_rerun_is_byte_identical(spec_file, tmp_path):
    def run(root):
        sim, fit_out = root / "sim", root / "fit"
        eval_out, rep = root / "eval", root / "rep"
        assert main(["simulate", "--spec", str(spec_file), "--no-timestamp",
                     "-o", str(sim)]) == 0
        assert main(["fit", "--counts", str(sim / "counts.csv"),
                     "--offsets", str(sim / "offsets.txt"),
                     "--mode", "equal-k", "--gmax", "2", "--kmax", "2",
                     *FAST_FIT, "--no-timestamp", "-o", str(fit_out)]) == 0
        assert main(["evaluate", "--truth", str(sim / "truth.json"),
                     "--result", str(fit_out / "result.json"),
                     "--no-timestamp", "-o", str(eval_out)]) == 0
        assert main(["report", "--report", str(eval_out / "report.json"),
                     "--no-timestamp", "-o", str(rep)]) == 0
        return root

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    for rel in ("sim/counts.csv", "fit/grid.csv", "fit/result.json",
                "eval/report.json", "eval/support_component_1.pgm",
                "rep/summary.csv", "rep/summary.txt"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
