"""Smoke runs of the simulation-study scripts at tiny replication counts."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_level_table(tmp_path, capsys):
    out = tmp_path / "level.csv"
    assert load_script("level_table").main(["--reps", "2", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["dist", "scenario", "n", "p", "reps", "rejections", "rate", "se"]
    assert len(rows) == 19  # 3 distributions x 2 scenarios x 3 sizes
    assert f"wrote {out}" in capsys.readouterr().out


def test_power_curves(tmp_path, capsys):
    out = tmp_path / "power.csv"
    code = load_script("power_curves").main(
        ["--reps", "2", "--deltas", "0,0.1", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["dist", "scenario", "n", "p", "delta", "reps",
                       "rejections", "rate", "se"]
    assert len(rows) == 37  # 18 cells x 2 deltas
    assert {row[4] for row in rows[1:]} == {"0.0", "0.1"}
    assert f"wrote {out}" in capsys.readouterr().out


def test_null_histograms(tmp_path, capsys):
    prefix = tmp_path / "hist"
    code = load_script("null_histograms").main(
        ["--reps", "20", "--n", "30", "--p", "12", "--blocks", "6",
         "--out-prefix", str(prefix)])
    assert code == 0
    printed = capsys.readouterr().out
    for dist in ("normal", "t15", "exp1"):
        bins = read_rows(f"{prefix}_{dist}_bins.csv")
        assert bins[0] == ["lower", "upper", "count"]
        assert len(bins) == 43  # 40 bins and two overflow bins
        assert sum(int(row[2]) for row in bins[1:]) == 20
        z = read_rows(f"{prefix}_{dist}_z.csv")
        assert z[0] == ["rep", "z"]
        assert len(z) == 21
        assert f"{prefix}_{dist}_bins.csv" in printed


@pytest.mark.parametrize("name", ["level_table", "power_curves", "null_histograms"])
def test_threads_below_one_is_usage_error(name, capsys):
    with pytest.raises(SystemExit) as exc:
        load_script(name).main(["--threads", "0", "--reps", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv, message", [
    ("power_curves", ["--deltas", "0,x"], "bad delta list '0,x'"),
    ("null_histograms", ["--blocks", "0"], "--blocks must be a positive divisor of p=60"),
    ("null_histograms", ["--blocks", "-3"], "--blocks must be a positive divisor of p=60"),
    ("null_histograms", ["--blocks", "7"], "--blocks must be a positive divisor of p=60"),
    ("level_table", ["--reps", "0"], "reps must be positive, got 0"),
    ("level_table", ["--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
    ("power_curves", ["--reps", "0"], "reps must be positive, got 0"),
    ("power_curves", ["--deltas", "0,1.5"], "delta must be in [0, 1), got 1.5"),
    ("null_histograms", ["--n", "10"], "requires 2 <= p < n, got p=60, n=10"),
    ("null_histograms", ["--reps", "0"], "reps must be positive, got 0"),
    ("null_histograms", ["--bins", "0"], "bins must be positive, got 0"),
    ("null_histograms", ["--blocks", "1"], "at least two blocks required, got q=1"),
    ("null_histograms", ["--seed", "-1"], "seed must be in [0, 2**64), got -1"),
], ids=["deltas_not_numbers", "blocks_zero", "blocks_negative", "blocks_not_divisor",
        "level_reps_zero", "level_alpha_two", "power_reps_zero", "power_delta_above_one",
        "hist_n_below_p", "hist_reps_zero", "hist_bins_zero", "blocks_one",
        "hist_seed_negative"])
def test_bad_arguments_are_usage_errors(name, argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the scripts' default output paths are relative
    with pytest.raises(SystemExit) as exc:
        load_script(name).main(["--reps", "2"] + argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
