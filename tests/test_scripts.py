"""Smoke runs of the three modes of scripts/study.py at two replications."""

import csv

import pytest

from conftest import STUDY


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_level_table(tmp_path, capsys):
    out = tmp_path / "level.csv"
    assert STUDY.main(["level", "--reps", "2", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["dist", "scenario", "n", "p", "reps", "rejections", "rate", "se"]
    assert len(rows) == 19  # 3 distributions x 2 scenarios x 3 sizes
    assert f"wrote {out}" in capsys.readouterr().out


def test_power_curves(tmp_path, capsys):
    out = tmp_path / "power.csv"
    assert STUDY.main(["power", "--reps", "2", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["dist", "scenario", "n", "p", "delta", "reps",
                       "rejections", "rate", "se"]
    assert len(rows) == 127  # 18 cells x 7 deltas
    assert [row[4] for row in rows[1:8]] == ["0.0", "0.02", "0.04", "0.06", "0.08", "0.1", "0.12"]
    assert f"wrote {out}" in capsys.readouterr().out


def test_null_histograms(tmp_path, capsys):
    prefix = tmp_path / "hist"
    assert STUDY.main(["hist", "--reps", "2", "--out", str(prefix)]) == 0
    paths = []
    for dist in ("normal", "t15", "exp1"):
        z = read_rows(f"{prefix}_{dist}_z.csv")
        assert z[0] == ["rep", "z"]
        assert len(z) == 3
        bins = read_rows(f"{prefix}_{dist}_bins.csv")
        assert bins[0] == ["lower", "upper", "count"]
        assert len(bins) == 43  # 40 bins and two overflow bins
        assert sum(int(row[2]) for row in bins[1:]) == 2
        paths += [f"{prefix}_{dist}_z.csv", f"{prefix}_{dist}_bins.csv"]
    assert f"wrote {', '.join(paths)} [" in capsys.readouterr().out


def usage_error(argv, tmp_path, monkeypatch, capsys) -> str:
    """Run the script, check it exits 2 and writes no file, return stderr."""
    monkeypatch.chdir(tmp_path)  # the default output paths are relative
    with pytest.raises(SystemExit) as exc:
        STUDY.main(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    return capsys.readouterr().err


@pytest.mark.parametrize("mode", ["level", "power", "hist"],
                         ids=["level_table", "power_curves", "null_histograms"])
def test_threads_below_one_is_usage_error(mode, tmp_path, monkeypatch, capsys):
    err = usage_error([mode, "--threads", "0", "--reps", "2"], tmp_path, monkeypatch, capsys)
    assert "--threads" in err


@pytest.mark.parametrize("argv, message", [
    (["level", "--reps", "0"], "reps must be positive, got 0"),
    (["power", "--reps", "0"], "reps must be positive, got 0"),
    (["hist", "--reps", "0"], "reps must be positive, got 0"),
    (["table", "--reps", "2"], "invalid choice: 'table'"),
], ids=["level_reps_zero", "power_reps_zero", "hist_reps_zero", "unknown_mode"])
def test_bad_arguments_are_usage_errors(argv, message, tmp_path, monkeypatch, capsys):
    assert message in usage_error(argv, tmp_path, monkeypatch, capsys)
