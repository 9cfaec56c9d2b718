import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rffkrr
import rffkrr.cli as cli
from rffkrr import NumericalError, linalg
from rffkrr.experiments import REPORT_HEADER, ExperimentConfig


@pytest.fixture()
def blob_csv(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(40):
        x = rng.normal(0.25, 0.05, size=2)
        lines.append(f"{x[0]:.6f},{x[1]:.6f},1")
    for _ in range(20):
        x = rng.normal(0.75, 0.05, size=2)
        lines.append(f"{x[0]:.6f},{x[1]:.6f},2")
    path = tmp_path / "blob.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _data_rows(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    assert lines[0] == REPORT_HEADER
    return [line for line in lines[1:] if not line.startswith("#")]


def test_krr_subcommand_emits_report(blob_csv, capsys):
    code = cli.main(
        ["krr", "--data", blob_csv, "--method", "RFF", "--s-mult", "2",
         "--trials", "1", "--folds", "3", "--lambda-grid", "0.05,1"]
    )
    captured = capsys.readouterr()
    assert code == 0
    rows = _data_rows(captured.out)
    assert len(rows) == 1
    fields = rows[0].split(",")
    assert fields[0] == "RFF" and fields[1] == "4"
    assert 0.0 <= float(fields[3]) <= 1.0
    assert "done method=RFF" in captured.err


def test_unset_flags_take_experiment_config_defaults():
    args = cli._build_parser().parse_args(["krr", "--data", "F"])
    assert cli._resolve_config(cli._merge_settings(args)) == ExperimentConfig(data="F")


def test_approx_subcommand_skips_accuracy(blob_csv, capsys):
    code = cli.main(
        ["approx", "--data", blob_csv, "--method", "RFF,QMC", "--trials", "1"]
    )
    captured = capsys.readouterr()
    assert code == 0
    rows = _data_rows(captured.out)
    assert len(rows) == 2
    for row in rows:
        fields = row.split(",")
        assert fields[3] == "nan"  # accuracy not computed
        assert float(fields[4]) > 0.0  # rel_error is


def test_bench_subcommand_times_generation(blob_csv, capsys):
    code = cli.main(["bench", "--data", blob_csv, "--method", "QMC", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 0
    rows = _data_rows(captured.out)
    assert len(rows) == 2
    assert all(float(row.split(",")[5]) >= 0.0 for row in rows)


def test_bounds_subcommand_reports_constants(blob_csv, capsys):
    code = cli.main(
        ["bounds", "--data", blob_csv, "--lambda-grid", "0.01,0.05", "--delta", "0.2"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("s_required_surrogate") == 2
    assert "s_required_erls" in captured.out
    assert "decay_regime" in captured.out


def test_cv_subcommand_reports_chosen_lambda(blob_csv, capsys):
    code = cli.main(
        ["cv", "--data", blob_csv, "--method", "RFF", "--s-mult", "2",
         "--folds", "3", "--lambda-grid", "0.05,0.5"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "chosen_lambda=" in captured.out
    assert captured.out.count("mean_accuracy=") == 2


def test_out_flag_writes_file(blob_csv, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(
        ["krr", "--data", blob_csv, "--method", "RFF", "--trials", "1",
         "--folds", "3", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert f"wrote {out}" in captured.err
    assert out.read_text().startswith(REPORT_HEADER)


def test_config_file_supplies_flags(blob_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# benchmark settings\n"
        "method = RFF\n"
        "trials = 3\n"
        "folds = 3\n"
        "err_subsample = 50\n"  # underscores normalize to dashes
    )
    code = cli.main(["krr", "--data", blob_csv, "--config", str(cfg)])
    assert code == 0
    assert len(_data_rows(capsys.readouterr().out)) == 3

    # explicit flags win over file values
    code = cli.main(
        ["krr", "--data", blob_csv, "--config", str(cfg), "--trials", "1"]
    )
    assert code == 0
    assert len(_data_rows(capsys.readouterr().out)) == 1


def test_config_file_rejects_unknown_keys(blob_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trails = 3\n")
    assert cli.main(["krr", "--data", blob_csv, "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_file_rejects_malformed_lines(blob_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials\n")
    assert cli.main(["krr", "--data", blob_csv, "--config", str(cfg)]) == 1
    assert "expected key=value" in capsys.readouterr().err


def test_missing_config_file(blob_csv, capsys):
    assert cli.main(["krr", "--data", blob_csv, "--config", "/nope.cfg"]) == 1
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["krr"],  # --data missing
        ["krr", "--data", "x.csv", "--trials", "many"],
        ["krr", "--data", "x.csv", "--folds", "1"],
        ["krr", "--data", "x.csv", "--method", "SVM"],
        ["krr", "--data", "x.csv", "--format", "parquet"],
        ["krr", "--data", "x.csv", "--s-mult", "2,x"],
        ["bounds", "--data", "x.csv", "--delta", "1.5"],
        ["bounds", "--data", "x.csv", "--delta", "abc"],
        ["krr", "--data", "x.csv", "--bogus", "1"],
        ["transmogrify", "--data", "x.csv"],
        [],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_data_file_exits_2(capsys):
    assert cli.main(["krr", "--data", "/no/such/file.csv", "--trials", "1"]) == 2
    assert "data error" in capsys.readouterr().err


def test_non_binary_labels_exit_2(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_text("0,1\n1,2\n2,3\n")
    assert cli.main(["krr", "--data", str(path), "--trials", "1"]) == 2
    assert "2 label values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fmt, row",
    [("csv", "nan,0.5,1"), ("csv", "0.5,inf,1"), ("libsvm", "1 1:nan 2:0.5")],
)
def test_non_finite_features_exit_2(blob_csv, tmp_path, fmt, row, capsys):
    lines = Path(blob_csv).read_text().splitlines()
    if fmt == "libsvm":
        lines = [
            f"{label} 1:{a} 2:{b}"
            for a, b, label in (line.split(",") for line in lines)
        ]
    path = tmp_path / f"bad.{fmt}"
    path.write_text("\n".join(lines[:5] + [row] + lines[5:]) + "\n")
    argv = ["approx", "--data", str(path), "--format", fmt, "--method", "RFF",
            "--trials", "1"]
    assert cli.main(argv) == 2
    assert ":6: non-finite feature" in capsys.readouterr().err


def test_numerical_failures_exit_3(blob_csv, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise NumericalError("synthetic breakdown")

    monkeypatch.setattr(cli, "run_experiment", explode)
    assert cli.main(["krr", "--data", blob_csv, "--trials", "1"]) == 3
    assert "numerical failure" in capsys.readouterr().err

    def explode_lapack(*args, **kwargs):
        raise np.linalg.LinAlgError("factorization failed")

    monkeypatch.setattr(cli, "run_experiment", explode_lapack)
    assert cli.main(["krr", "--data", blob_csv, "--trials", "1"]) == 3

    def factor_nan_gram(*args, **kwargs):
        linalg.psd_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    monkeypatch.setattr(cli, "run_experiment", factor_nan_gram)
    assert cli.main(["krr", "--data", blob_csv, "--trials", "1"]) == 3


def test_unwritable_out_path_exits_1(blob_csv, capsys):
    code = cli.main(
        ["cv", "--data", blob_csv, "--folds", "3", "--out", "/no/such/dir/x.txt"]
    )
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_console_script_round_trip(blob_csv):
    # The child interpreter finds the package through PYTHONPATH, which a
    # bare `pytest` (pythonpath set in pyproject.toml) does not export.
    env = dict(os.environ)
    src = Path(rffkrr.__file__).resolve().parent.parent
    paths = [str(src), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    result = subprocess.run(
        [sys.executable, "-m", "rffkrr.cli", "cv", "--data", blob_csv,
         "--folds", "3", "--lambda-grid", "0.05,0.5"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "chosen_lambda=" in result.stdout


def test_package_exports_resolve():
    assert rffkrr.__version__ == "0.1.0"
    for name in rffkrr.__all__:
        assert getattr(rffkrr, name) is not None
