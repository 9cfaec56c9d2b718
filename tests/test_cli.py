import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rffkrr
import rffkrr.cli as cli
import rffkrr.experiments as experiments
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


@pytest.fixture()
def noisy_csv(tmp_path):
    # Overlapping classes, so every split and fold scores differently.
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(160, 3))
    score = np.sin(6.0 * X[:, 0]) + X[:, 1] + rng.normal(0.0, 0.4, size=160)
    path = tmp_path / "noisy.csv"
    table = np.column_stack([X, score > 0.6])
    np.savetxt(path, table, fmt=["%.6f"] * 3 + ["%d"], delimiter=",")
    return str(path)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cv_reports_the_selection_of_krr_trial_0(noisy_csv, seed, capsys, monkeypatch):
    flags = ["--data", noisy_csv, "--method", "RFF", "--s-mult", "4", "--folds", "3",
             "--lambda-grid", "0.001,0.01,0.1,1", "--seed", str(seed)]
    assert cli.main(["cv", *flags]) == 0
    printed = capsys.readouterr().out.splitlines()

    # The report that run_experiment's trial 0 computes on its own
    # training half with its own CV seed.
    reports = []
    real_cross_validate = experiments.cross_validate

    def recording_cross_validate(*args, **kwargs):
        reports.append(real_cross_validate(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(experiments, "cross_validate", recording_cross_validate)
    assert cli.main(["krr", *flags, "--trials", "1", "--emit", "jsonl"]) == 0
    (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (report,) = reports

    assert printed == [
        "method=RFF s=12 folds=3",
        *(
            f"lambda={lam:.9g} mean_accuracy={accuracy:.9g}"
            for lam, accuracy in zip(report.lambda_grid, report.mean_accuracy)
        ),
        f"chosen_lambda={report.chosen_lambda:.9g}",
    ]
    assert record["lambda"] == report.chosen_lambda


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


def test_bounds_subsample_beyond_the_exact_cap_exits_1(tmp_path, capsys):
    cap = linalg.EXACT_MODE_CAP
    X = np.random.default_rng(0).uniform(size=(cap + 100, 2))
    path = tmp_path / "big.csv"
    path.write_text("".join(f"{a:.6f},{b:.6f},{int(a > b)}\n" for a, b in X))
    argv = ["bounds", "--data", str(path), "--err-subsample", str(cap + 50)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert f"--err-subsample {cap + 50} exceeds the exact-mode cap of {cap}" in err


def test_missing_data_file_exits_2(capsys):
    assert cli.main(["krr", "--data", "/no/such/file.csv", "--trials", "1"]) == 2
    assert "data error" in capsys.readouterr().err


def test_test_label_outside_the_training_pair_exits_2(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text("0.1,0\n0.2,1\n0.3,0\n0.4,1\n")
    test = tmp_path / "test.csv"
    test.write_text("0.15,1\n0.25,2\n")
    argv = ["krr", "--data", str(train), "--test-data", str(test), "--trials", "1"]
    assert cli.main(argv) == 2
    assert "not one of the training labels" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", ["one.csv", "two.csv", "one.libsvm", "two.libsvm"])
def test_nan_labels_exit_2(tmp_path, name, capsys):
    from test_datasets import NAN_LABEL_FILES

    fmt, text = NAN_LABEL_FILES[name]
    path = tmp_path / name
    path.write_text(text)
    argv = ["approx", "--data", str(path), "--format", fmt, "--method", "RFF",
            "--trials", "1"]
    assert cli.main(argv) == 2
    assert ":2: non-finite label" in capsys.readouterr().err


def _rows(count, width):
    # Deterministic rows of ``width`` features in [0, 1) and 0/1 labels.
    return "".join(
        ",".join(f"{(i * 7 + j * 13) % 29 / 29:.4f}" for j in range(width))
        + f",{i % 2}\n"
        for i in range(count)
    )


# Files that the bad-input table names as {name}, written as name.csv.
_BAD_FILES = {
    "tiny": _rows(6, 2),
    "small": _rows(40, 3),
    "wide": _rows(12, 70),
    "big": _rows(linalg.EXACT_MODE_CAP + 100, 2),
    "three": "0,1\n1,2\n2,3\n",
    "train": "0.1,0\n0.2,1\n0.3,0\n0.4,1\n",
    "test": "0.15,1\n0.25,2\n",
    "nan": "0.1,0\nnan,1\n0.3,0\n0.4,1\n",
}

_FEW_ROWS = "the training half has 3 rows, fewer than the 5 cross-validation folds"
_SIGMA = "sigma must be positive, with 1/sigma^2 and 2/sigma^2 finite and positive"
_WIDE_QMC = (
    "QMC supports at most 64 data columns (one Halton prime base each); "
    "the data has 70"
)

# (argv, exit code, message): every bad input ends in its documented exit
# code and a one-line message, never a traceback.
_BAD_INPUTS = [
    pytest.param(["krr", "--data", "{tiny}", "--method", "RFF", "--trials", "1"],
                 2, _FEW_ROWS, id="krr-fewer-rows-than-folds"),
    pytest.param(["cv", "--data", "{tiny}"],
                 2, _FEW_ROWS, id="cv-fewer-rows-than-folds"),
    pytest.param(["krr", "--data", "{wide}", "--method", "QMC", "--trials", "1"],
                 1, _WIDE_QMC, id="krr-qmc-beyond-halton"),
    pytest.param(["cv", "--data", "{wide}", "--method", "QMC"],
                 1, _WIDE_QMC, id="cv-qmc-beyond-halton"),
    pytest.param(["krr"], 1, "--data is required", id="no-data"),
    pytest.param(["krr", "--data", "x.csv", "--folds", "1"], 1, "need at least 2 folds",
                 id="one-fold"),
    pytest.param(["krr", "--data", "x.csv", "--method", "SVM"], 1, "unknown methods",
                 id="unknown-method"),
    pytest.param(["bounds", "--data", "x.csv", "--delta", "1.5"], 1,
                 "--delta must be in (0, 1)", id="delta-out-of-range"),
    pytest.param(["bounds", "--data", "{big}", "--err-subsample", "2050"], 1,
                 "exceeds the exact-mode cap", id="bounds-beyond-exact-cap"),
    pytest.param(["krr", "--data", "/no/such/file.csv", "--trials", "1"],
                 2, "cannot read", id="missing-file"),
    pytest.param(["krr", "--data", "{three}", "--trials", "1"], 2, "2 label values",
                 id="three-labels"),
    pytest.param(["krr", "--data", "{train}", "--test-data", "{test}", "--trials", "1"],
                 2, "not one of the training labels", id="test-label-outside-pair"),
    pytest.param(["approx", "--data", "{nan}", "--method", "RFF", "--trials", "1"],
                 2, ":2: non-finite feature", id="nan-feature"),
    # sigma whose 2/sigma^2 overflows, or whose sigma^2 does
    pytest.param(["krr", "--data", "{small}", "--sigma", "1e-160", "--trials", "1"],
                 1, _SIGMA, id="krr-sigma-1e-160"),
    pytest.param(["krr", "--data", "{small}", "--sigma", "1e300", "--trials", "1"],
                 1, _SIGMA, id="krr-sigma-1e300"),
    pytest.param(["cv", "--data", "{small}", "--sigma", "1e160", "--trials", "1"],
                 1, _SIGMA, id="cv-sigma-1e160"),
    pytest.param(["bounds", "--data", "{small}", "--sigma", "1e-300", "--trials", "1"],
                 1, _SIGMA, id="bounds-sigma-1e-300"),
    pytest.param(["krr", "--data", "{small}", "--lambda-grid", "nan", "--trials", "1"],
                 1, "lambda grid must be nonempty, finite and positive",
                 id="krr-lambda-nan"),
    # n lambda overflows for the 20 training rows
    pytest.param(["krr", "--data", "{small}", "--lambda-grid", "1e308,1e-308",
                  "--trials", "1"],
                 1, "lambda 1e+308 times 20 points overflows", id="krr-n-lambda-overflows"),
    pytest.param(["cv", "--data", "{small}", "--seed", "-1"],
                 1, "seed must be non-negative, got -1", id="cv-negative-seed"),
]


@pytest.mark.parametrize("argv, code, message", _BAD_INPUTS)
def test_bad_inputs_exit_with_their_code(tmp_path, capsys, argv, code, message):
    paths = {name: str(tmp_path / f"{name}.csv") for name in _BAD_FILES}
    for name in re.findall(r"\{(\w+)\}", " ".join(argv)):
        Path(paths[name]).write_text(_BAD_FILES[name])
    assert cli.main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith({1: "usage error: ", 2: "data error: "}[code])
    assert message in err
    assert "Traceback" not in err


# The CLI's numeric flags and the values swept through each of them.
_NUMERIC_FLAGS = ("s-mult", "pool-mult", "sigma", "lambda-grid", "folds", "trials",
                  "seed", "err-subsample", "threads", "delta")
_EXTREMES = ("0", "-1", "1e-300", "1e-160", "1e160", "1e300", "nan", "inf")

# Report columns that each experiment subcommand fills; the others hold
# NaN for the stages that its mode does not run.
_FILLED = {
    "krr": ("accuracy", "rel_error", "gen_time_s", "solve_time_s", "lambda"),
    "approx": ("rel_error", "gen_time_s", "lambda"),
    "bench": ("gen_time_s", "lambda"),
}


def _non_finite_fields(command, stdout):
    """The printed numbers that are not finite, as (field, text) pairs: in
    a report, those of the columns and summary fields the mode fills;
    elsewhere every token that reads as a number."""
    bad = []
    if command in _FILLED:
        rows = _data_rows(stdout)
        for row in rows:
            for column, cell in zip(REPORT_HEADER.split(","), row.split(",")):
                if column in _FILLED[command] and not np.isfinite(float(cell)):
                    bad.append((column, cell))
        for name, mean, spread in re.findall(r"(\w+)=([^\s±]+)±(\S+)", stdout):
            if name in _FILLED[command] and not np.isfinite([float(mean), float(spread)]).all():
                bad.append((name, f"{mean}±{spread}"))
        return bad
    for token in re.split(r"[\s=(),\[\]]+", stdout):
        try:
            value = float(token)
        except ValueError:
            continue
        if not np.isfinite(value):
            bad.append((command, token))
    return bad


@pytest.mark.filterwarnings("ignore:n\\*lambda")
@pytest.mark.parametrize("command", ["approx", "bench", "krr", "bounds", "cv"])
def test_extreme_numeric_flags_end_in_a_documented_code(tmp_path, capsys, command):
    # Every numeric flag at every extreme value, on a tiny file: each run
    # returns a documented code without raising, and a run that succeeds
    # prints no NaN or infinite number where its mode fills a field.
    data = tmp_path / "tiny.csv"
    data.write_text(_rows(24, 2))
    base = {"trials": "1", "folds": "3"}
    for flag in _NUMERIC_FLAGS:
        for value in _EXTREMES:
            flags = dict(base, **{flag: value})
            argv = [command, "--data", str(data)]
            for name, given in flags.items():
                argv += ["--" + name, given]
            code = cli.main(argv)
            out = capsys.readouterr().out
            assert code in (0, 1, 2, 3), argv
            if code == 0:
                assert _non_finite_fields(command, out) == [], argv


@pytest.mark.filterwarnings("ignore:n\\*lambda")
def test_bounds_report_a_vacuous_bound_as_not_available(blob_csv, capsys):
    # At these lambdas the degrees of freedom d fall to 16 d <= 1, where
    # log(16 d) is not positive: the counts read n/a, not -inf, NaN or a
    # negative count.
    assert cli.main(["bounds", "--data", blob_csv, "--lambda-grid", "1e160,1e300"]) == 0
    out = capsys.readouterr().out
    counts = re.findall(r"s_required_(?:surrogate|erls)\s+(\S+)", out)
    assert counts == ["n/a"] * 4


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


def test_krr_report_does_not_depend_on_the_blas_environment(tmp_path):
    # 1050 training rows and 1024 features: fit solves on Z with products
    # Z^T (Z p) in two row blocks, which run as blocks at one BLAS thread
    # and as one product under more.  The run holds BLAS at one thread, so
    # the report is the same with the variables unset as with BLAS pinned.
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(2100, 8))
    y = (X[:, 0] + 0.3 * rng.standard_normal(2100) > 0.5).astype(int)
    data = tmp_path / "wide.csv"
    np.savetxt(data, np.column_stack([X, y]), delimiter=",", fmt="%.6f")
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(name, None)
    src = Path(rffkrr.__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "rffkrr.cli", "krr", "--data", str(data),
            "--method", "RFF,SurrogateRFF", "--s-mult", "64", "--folds", "3",
            "--trials", "1", "--seed", "1"]
    rows = []
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        result = subprocess.run(argv, env=dict(env, **blas), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        timing = [REPORT_HEADER.split(",").index(c) for c in ("gen_time_s", "solve_time_s")]
        rows.append([
            [cell for i, cell in enumerate(row.split(",")) if i not in timing]
            for row in _data_rows(result.stdout)
        ])
    assert len(rows[0]) == 2
    assert rows[0] == rows[1]


def test_package_exports_resolve():
    assert rffkrr.__version__ == "0.1.0"
    for name in rffkrr.__all__:
        assert getattr(rffkrr, name) is not None
