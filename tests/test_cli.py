"""CLI end-to-end tests: CSV parsing, report emission, determinism."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from hdlrt.cli import _parse_csv_rows, build_parser, main, parse_csv, parse_partition
from hdlrt.errors import ParseError, RaggedRows
from hdlrt.linalg import BlockPartition
from hdlrt.oracle import naive_log_vn
from hdlrt.sampling import DistributionSpec, draw_entries, entry_generator

from conftest import near_overflow

GOLDEN_LEVEL_CSV = (
    "delta,reps,rejections,rate,se,seed\n"
    "0,50,3,0.059999999999999998,0.033585711247493329,42\n"
)


def write_data(path, n=40, p=8, seed=5):
    data = draw_entries(entry_generator(seed), n, p, DistributionSpec.normal())
    np.savetxt(path, data, delimiter=",")
    return data


def run_cli(args):
    return main(list(args))


# ---------------------------------------------------------------------------
# parse_csv
# ---------------------------------------------------------------------------

def test_parse_csv_plain(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n")
    assert np.array_equal(parse_csv(str(path)), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_parse_csv_header_skip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n")
    assert np.array_equal(parse_csv(str(path)), np.array([[1.0, 2.0]]))


def test_parse_csv_ragged_names_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(RaggedRows) as err:
        parse_csv(str(path))
    assert "row 2" in str(err.value)


def test_parse_csv_bad_cell_position(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        parse_csv(str(path))
    assert err.value.row == 2
    assert err.value.col == 2


def test_parse_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,nan\n")
    with pytest.raises(ParseError):
        parse_csv(str(path))


def test_parse_csv_first_row_with_bad_cell_is_not_a_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,nan,3\n4,5,6\n")
    with pytest.raises(ParseError) as err:
        parse_csv(str(path))
    assert (err.value.row, err.value.col) == (1, 2)


def test_parse_csv_empty(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\n\n")
    with pytest.raises(ParseError):
        parse_csv(str(path))


# Files for the one-pass read against the exact per-cell read: some take the
# loadtxt pass, the others need the exact read to accept them or word the error.
PARSE_CASES = {
    "header": "a,b\n1,2\n3,4\n",
    "quoted_numbers": '"1","2"\n"3","4"\n',
    "comma_blank_rows": "1,2,3\n,,\n4,5,6\n,,\n",
    "crlf_blank_lines_before_header": "\r\n\r\na,b\r\n1,2\r\n3,4\r\n",
    "header_only": "a,b\n",
    "trailing_comma": "1,2,\n3,4,\n",
    "hash_cell": "1,2\n#,4\n",
    "underscore_digits": "1_0,2\n3,4\n",
    "overflow_to_inf": "1,2\n3,1e309\n",
    "single_column": "x\n1\n2\n3\n",
    "single_row": "1,2,3\n",
    "nan_after_blank_lines": "1,2\n\n\n3,nan\n",
    "ragged": "a,b\n1,2\n3\n",
    # a UTF-8 byte order mark, as spreadsheets' "CSV UTF-8" export writes
    "bom_header": "\ufeffa,b\n1,2\n3,4\n",
    "bom_multi_column": "\ufeff1.0,2\n3,4\n",
    "bom_single_column": "\ufeff1\n2\n3\n",
    # Latin-1 bytes, which are not UTF-8: in the header and in a data cell
    "latin1_header": b"caf\xe9,b\n1,2\n3,4\n5,6\n",
    "latin1_cell": b"a,b\n1,2\n3,4\xe9\n5,6\n",
}


def _read_outcome(read, path):
    try:
        data = read(path)
    except (ParseError, RaggedRows) as exc:
        return type(exc), str(exc), exc.row, exc.col
    return data.shape, data.tobytes()


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_parse_csv_matches_exact_read(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    text = PARSE_CASES[name]
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    outcome = _read_outcome(parse_csv, str(path))
    assert outcome == _read_outcome(_parse_csv_rows, str(path))
    if isinstance(text, str) and text.startswith("\ufeff"):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(PARSE_CASES[name][1:].encode())
        assert outcome == _read_outcome(parse_csv, str(plain))


def test_parse_csv_error_names_file_row_after_blank_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(PARSE_CASES["nan_after_blank_lines"])
    with pytest.raises(ParseError) as err:
        parse_csv(str(path))
    assert (err.value.row, err.value.col) == (4, 2)


@pytest.mark.parametrize("name, offset", [("latin1_header", 3), ("latin1_cell", 11)])
def test_non_utf8_csv_is_one_error_line_exit_1(tmp_path, name, offset):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(PARSE_CASES[name])
    proc = subprocess.run([sys.executable, "-m", "hdlrt.cli", "test", "corr",
                           "--input", str(path)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"hdlrt: error: {path}: byte offset {offset}: not valid UTF-8\n"


def test_parse_csv_header_only_emits_no_warning(tmp_path, recwarn):
    path = tmp_path / "d.csv"
    path.write_text(PARSE_CASES["header_only"])
    with pytest.raises(ParseError, match="no data rows below the header"):
        parse_csv(str(path))
    assert len(recwarn) == 0


# ---------------------------------------------------------------------------
# partition syntax
# ---------------------------------------------------------------------------

def test_parse_partition_forms():
    assert parse_partition("2,2,3") == BlockPartition((2, 2, 3))
    assert parse_partition("30x2") == BlockPartition.uniform(30, 2)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_partition("2,zebra")


# ---------------------------------------------------------------------------
# test subcommands
# ---------------------------------------------------------------------------

def test_block_json_report(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    write_data(data_path)
    out_path = tmp_path / "report.json"
    code = run_cli(["test", "block", "--input", str(data_path),
                    "--partition", "4,4", "--alpha", "0.05",
                    "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["test"] == "block"
    assert payload["n"] == 40
    assert payload["p"] == 8
    assert payload["partition"] == [4, 4]
    # decision must be recomputable from the emitted fields
    assert payload["reject"] == (payload["p_value"] <= payload["alpha"])
    assert payload["z"] == pytest.approx(
        (payload["log_statistic"] - payload["mu"]) / payload["sigma"], rel=1e-15)
    assert payload["constants"]["mu_n"] == payload["mu"]
    assert payload["constants"]["sigma_n"] == payload["sigma"]


def test_block_csv_report(tmp_path):
    data_path = tmp_path / "d.csv"
    write_data(data_path)
    out_path = tmp_path / "report.csv"
    code = run_cli(["test", "block", "--input", str(data_path),
                    "--partition", "4,4", "--format", "csv", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("test,n,p,partition,log_statistic")


def test_corr_dimension_error_exit_2(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    write_data(data_path, n=6, p=8)
    code = run_cli(["test", "corr", "--input", str(data_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "p < n" in captured.err


@pytest.mark.parametrize("n, partition, message", [
    (100, "60x2", "partition p=120 does not match data p=60"),
    (50, "30x2", "requires 2 <= p < n, got p=60, n=50"),
], ids=["partition_p_not_data_p", "p_not_below_n"])
def test_block_partition_errors_exit_2(tmp_path, capsys, n, partition, message):
    data_path = tmp_path / "d.csv"
    write_data(data_path, n=n, p=60)
    code = run_cli(["test", "block", "--input", str(data_path), "--partition", partition])
    assert code == 2
    assert capsys.readouterr().err == f"hdlrt: error: {message}\n"


def _overflow_commands(tmp_path, top, columns=6):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for seed, path in enumerate(paths):
        np.savetxt(path, near_overflow(top, columns, seed=seed), delimiter=",")
    return {
        "block": ["test", "block", "--input", str(paths[0]), "--partition", "3,3"],
        "corr": ["test", "corr", "--input", str(paths[0])],
        "eqcov": ["test", "eqcov", "--input", str(paths[0]), "--input", str(paths[1])],
    }


@pytest.mark.parametrize("kind, rows", [("block", 40), ("corr", 40), ("eqcov", 80)])
def test_data_whose_scatter_overflows_is_one_error_line_exit_2(tmp_path, capsys, kind, rows):
    # n * max|x|^2 is above the float64 maximum.  block used to print a NaN
    # report with exit 0, corr to call a variable's variance zero, and eqcov
    # to escape as "ValueError: matrix is not exactly symmetric"
    assert run_cli(_overflow_commands(tmp_path, 2.2e153, columns=1)[kind]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("hdlrt: error: data entries up to 2.2e+153 in magnitude overflow "
                   f"the scatter matrix of {rows} observations\n")


@pytest.mark.parametrize("kind", ["block", "corr", "eqcov"])
def test_data_below_the_overflow_bound_gives_a_finite_report(tmp_path, capsys, kind):
    assert run_cli(_overflow_commands(tmp_path, 1e153)[kind]) == 0

    def refuse(name):
        raise ValueError(f"{name} in the report")
    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert report["log_statistic"] < 0.0


def test_missing_file_exit_1(capsys):
    code = run_cli(["test", "corr", "--input", "/nonexistent/nope.csv"])
    assert code == 1


def test_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3\n")
    code = run_cli(["test", "corr", "--input", str(path)])
    assert code == 1
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("row", [1, 3])
def test_field_over_the_csv_limit_is_one_error_line_exit_1(tmp_path, capsys, row):
    lines = ["1,2", "3,4", "5,6", "7,8"]
    lines[row - 1] = "1" * 200_000 + ",5"
    path = tmp_path / "wide_field.csv"
    path.write_text("\n".join(lines) + "\n")
    for read in (parse_csv, _parse_csv_rows):
        with pytest.raises(ParseError) as err:
            read(str(path))
        assert (err.value.row, err.value.col) == (row, None)
    assert run_cli(["test", "corr", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"hdlrt: error: {path}: row {row}: field larger than field limit (131072)\n"


def test_eqcov_two_files(tmp_path):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_data(a_path, n=30, p=5, seed=1)
    write_data(b_path, n=25, p=5, seed=2)
    out_path = tmp_path / "out.json"
    code = run_cli(["test", "eqcov", "--input", str(a_path), "--input", str(b_path),
                    "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["n_sizes"] == [30, 25]
    assert payload["reject"] == (payload["p_value"] <= payload["alpha"])


def test_json_round_trip_reproduces_decision(tmp_path):
    data_path = tmp_path / "d.csv"
    write_data(data_path, seed=11)
    out_path = tmp_path / "r.json"
    run_cli(["test", "block", "--input", str(data_path), "--partition", "2x4",
             "--alpha", "0.2", "--out", str(out_path)])
    payload = json.loads(out_path.read_text())
    from hdlrt.sampling import normal_cdf

    z = (payload["log_statistic"] - payload["constants"]["mu_n"]) / payload["constants"]["sigma_n"]
    assert (normal_cdf(z) <= payload["alpha"]) == payload["reject"]


def write_repr_csv(path, data, quoted):
    cell = (lambda v: f'"{v!r}"') if quoted else repr
    lines = [",".join(f"x{j + 1}" for j in range(data.shape[1]))]
    lines += [",".join(cell(v) for v in row) for row in data.tolist()]
    path.write_text("\n".join(lines) + "\n")


def test_test_commands_byte_identical_for_both_read_paths(tmp_path):
    """Plain cells take the loadtxt pass; quoted cells force the exact read."""
    groups = [draw_entries(entry_generator(31, k), 300, 40, DistributionSpec.normal())
              for k in range(2)]
    paths = {}
    for quoted in (False, True):
        paths[quoted] = []
        for k, data in enumerate(groups):
            path = tmp_path / f"g{k}_{'quoted' if quoted else 'plain'}.csv"
            write_repr_csv(path, data, quoted)
            paths[quoted].append(str(path))
    commands = {
        "block": lambda files: ["test", "block", "--input", files[0], "--partition", "20x2"],
        "corr": lambda files: ["test", "corr", "--input", files[0]],
        "eqcov": lambda files: ["test", "eqcov", "--input", files[0], "--input", files[1]],
    }
    for name, command in commands.items():
        outputs = []
        for quoted in (False, True):
            out_path = tmp_path / f"{name}_{quoted}.json"
            assert run_cli(command(paths[quoted]) + ["--out", str(out_path)]) == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1], name
        if name == "block":
            stat = json.loads(outputs[0])["log_statistic"]
            assert stat == pytest.approx(
                naive_log_vn(groups[0], BlockPartition.uniform(20, 2)), rel=1e-9)


# Default JSON reports on a seeded 80 x 6 matrix (and a second group for
# eqcov); a change to any statistic, constant or field shows here.
GOLDEN_TEST_REPORTS = {
    "block": {
        "test": "block", "n": 80, "p": 6, "partition": [1, 2, 3],
        "log_statistic": -0.09489878925362305,
        "mu": -0.14331400474229117, "sigma": 0.060724598942506126,
        "z": 0.7972916467428217, "p_value": 0.7873591647270678,
        "alpha": 0.05, "reject": False, "assumption_warnings": [],
        "constants": {"mu_n": -0.14331400474229117, "sigma_n": 0.060724598942506126},
    },
    "corr": {
        "test": "correlation", "n": 80, "p": 6,
        "log_statistic": -0.1292712871841637,
        "mu": -0.19443312140729407, "sigma": 0.0705527919865848,
        "z": 0.9235897317220347, "p_value": 0.8221500189927997,
        "alpha": 0.05, "reject": False, "assumption_warnings": [],
        "constants": {"mu_n": -0.19443312140729407, "sigma_n": 0.0705527919865848},
    },
    "eqcov": {
        "test": "eqcov", "n_sizes": [80, 80], "p": 6,
        "log_statistic": -19.032108402387014,
        "mu": -21.885259180245498, "sigma": 6.236133836801314,
        "z": 0.4575191701340946, "p_value": 0.6763510366946677,
        "alpha": 0.05, "reject": False, "assumption_warnings": [],
        "constants": {"mu_n": -21.885259180245498, "sigma_n": 0.038975836480008214},
    },
}


# The same reports as one flat CSV row each (``--format csv``).
GOLDEN_TEST_CSV = {
    "block": (
        "test,n,p,partition,log_statistic,mu,sigma,z,p_value,alpha,reject,"
        "assumption_warnings,mu_n,sigma_n\n"
        "block,80,6,1|2|3,-0.09489878925362305,-0.14331400474229117,0.060724598942506126,"
        "0.79729164674282171,0.7873591647270678,0.050000000000000003,False,\"\","
        "-0.14331400474229117,0.060724598942506126\n"
    ),
    "corr": (
        "test,n,p,log_statistic,mu,sigma,z,p_value,alpha,reject,"
        "assumption_warnings,mu_n,sigma_n\n"
        "correlation,80,6,-0.1292712871841637,-0.19443312140729407,0.070552791986584804,"
        "0.92358973172203473,0.82215001899279971,0.050000000000000003,False,\"\","
        "-0.19443312140729407,0.070552791986584804\n"
    ),
    "eqcov": (
        "test,n_sizes,p,log_statistic,mu,sigma,z,p_value,alpha,reject,"
        "assumption_warnings,mu_n,sigma_n\n"
        "eqcov,80|80,6,-19.032108402387014,-21.885259180245498,6.2361338368013142,"
        "0.4575191701340946,0.67635103669466767,0.050000000000000003,False,\"\","
        "-21.885259180245498,0.038975836480008214\n"
    ),
}


def test_test_commands_golden_json(tmp_path):
    files = []
    for k in range(2):
        path = tmp_path / f"g{k}.csv"
        data = draw_entries(entry_generator(17, k), 80, 6, DistributionSpec.normal())
        write_repr_csv(path, data, quoted=False)
        files.append(str(path))
    commands = {
        "block": ["test", "block", "--input", files[0], "--partition", "1,2,3"],
        "corr": ["test", "corr", "--input", files[0]],
        "eqcov": ["test", "eqcov", "--input", files[0], "--input", files[1]],
    }
    for name, command in commands.items():
        out_path = tmp_path / f"{name}.json"
        assert run_cli(command + ["--out", str(out_path)]) == 0
        golden = json.dumps(GOLDEN_TEST_REPORTS[name], indent=2) + "\n"
        assert out_path.read_text() == golden, name
        csv_path = tmp_path / f"{name}.csv"
        assert run_cli(command + ["--format", "csv", "--out", str(csv_path)]) == 0
        assert csv_path.read_text() == GOLDEN_TEST_CSV[name], name


@pytest.mark.parametrize("kind, expected", [
    ("block", "block_constants"), ("corr", "correlation_constants"), ("eqcov", "eqcov_constants"),
])
def test_test_command_computes_the_constants_once(tmp_path, monkeypatch, kind, expected):
    # the command prints the constants its report used; it used to compute
    # them a second time.  Every module binding of every constants function
    # is counted, so a call through any of them shows.
    from hdlrt import blocktest, cli, eqcov, montecarlo

    calls = []

    def counted(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    originals = {"block_constants": blocktest.block_constants,
                 "correlation_constants": blocktest.correlation_constants,
                 "eqcov_constants": eqcov.eqcov_constants}
    for module in (blocktest, eqcov, montecarlo, cli):
        for name, original in originals.items():
            monkeypatch.setattr(module, name, counted(name, original), raising=False)
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    write_data(paths[0], n=30, p=6, seed=1)
    write_data(paths[1], n=25, p=6, seed=2)
    command = {"block": ["--input", paths[0], "--partition", "3,3"],
               "corr": ["--input", paths[0]],
               "eqcov": ["--input", paths[0], "--input", paths[1]]}[kind]
    assert run_cli(["test", kind, *command, "--out", str(tmp_path / "r.json")]) == 0
    assert calls == [expected]


# ---------------------------------------------------------------------------
# simulate subcommands
# ---------------------------------------------------------------------------

# ``simulate level|power --format json`` on the block test at n=40, p=8.
GOLDEN_SIM_JSON = {
    "level": {
        "plan": {"test": "block", "p": 8, "delta": 0.0, "dist": "normal", "reps": 50,
                 "alpha": 0.05, "seed": 42, "n": 40, "partition": [4, 4]},
        "rows": [{"delta": 0.0, "reps": 50, "rejections": 3, "rate": 0.06,
                  "se": 0.03358571124749333, "seed": 42}],
    },
    "power": {
        "plan": {"test": "block", "p": 8, "delta": 0.0, "dist": "normal", "reps": 20,
                 "alpha": 0.05, "seed": 7, "n": 40, "partition": [4, 4]},
        "rows": [{"delta": 0.0, "reps": 20, "rejections": 1, "rate": 0.05,
                  "se": 0.04873397172404482, "seed": 7},
                 {"delta": 0.3, "reps": 20, "rejections": 19, "rate": 0.95,
                  "se": 0.04873397172404484, "seed": 7}],
    },
}


def test_simulate_level_golden_csv(tmp_path):
    command = ["simulate", "level", "--test", "block", "--n", "40", "--p", "8",
               "--blocks", "2x4", "--reps", "50", "--seed", "42"]
    out_path = tmp_path / "level.csv"
    code = run_cli(command + ["--format", "csv", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == GOLDEN_LEVEL_CSV
    json_path = tmp_path / "level.json"
    assert run_cli(command + ["--format", "json", "--out", str(json_path)]) == 0
    assert json_path.read_text() == json.dumps(GOLDEN_SIM_JSON["level"], indent=2) + "\n"


def test_simulate_level_byte_identical_across_threads(tmp_path):
    outputs = []
    for threads in (1, 2, 3):
        out_path = tmp_path / f"level{threads}.csv"
        code = run_cli(["simulate", "level", "--test", "block", "--n", "40", "--p", "8",
                        "--blocks", "2x4", "--reps", "60", "--seed", "9",
                        "--threads", str(threads), "--format", "csv",
                        "--out", str(out_path)])
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


# Outputs captured before replications were batched.  Both runs end their
# chunks and batches unevenly: odd reps, a lone last replication.
GOLDEN_UNEVEN_BATCHES = {
    "block_hist": (
        ["simulate", "hist", "--test", "block", "--n", "90", "--p", "60",
         "--blocks", "20,10,30", "--dist", "exp1", "--reps", "101", "--format", "json"],
        "sha256:737b1506d59d2b3a0bb93268b90f00e32a3c064fba93d28dbf5c7bc5854645f3",
    ),
    "corr_power": (
        ["simulate", "power", "--test", "corr", "--n", "100", "--p", "60", "--reps", "33",
         "--seed", "8", "--deltas", "0,0.01,0.02,0.03", "--format", "csv"],
        "delta,reps,rejections,rate,se,seed\n"
        "0,33,1,0.030303030303030304,0.02984036144953521,8\n"
        "0.01,33,3,0.090909090909090912,0.050043807505743665,8\n"
        "0.02,33,3,0.090909090909090912,0.050043807505743665,8\n"
        "0.029999999999999999,33,6,0.18181818181818182,0.067140813261454213,8\n",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_UNEVEN_BATCHES))
def test_simulate_uneven_batches_golden_across_threads(tmp_path, name):
    command, golden = GOLDEN_UNEVEN_BATCHES[name]
    for threads in (1, 2, 3):
        out_path = tmp_path / f"{name}{threads}.out"
        assert run_cli(command + ["--threads", str(threads), "--out", str(out_path)]) == 0
        out = out_path.read_bytes()
        if golden.startswith("sha256:"):
            assert "sha256:" + hashlib.sha256(out).hexdigest() == golden, threads
        else:
            assert out.decode() == golden, threads


def test_simulate_power_schema_and_rates(tmp_path):
    command = ["simulate", "power", "--test", "block", "--n", "40", "--p", "8",
               "--blocks", "2x4", "--reps", "20", "--seed", "7", "--deltas", "0,0.3"]
    json_path = tmp_path / "power.json"
    assert run_cli(command + ["--format", "json", "--out", str(json_path)]) == 0
    assert json_path.read_text() == json.dumps(GOLDEN_SIM_JSON["power"], indent=2) + "\n"
    out_path = tmp_path / "power.csv"
    code = run_cli(command + ["--format", "csv", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "delta,reps,rejections,rate,se,seed"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[3]) == pytest.approx(int(fields[2]) / int(fields[1]))


def test_simulate_hist_json(tmp_path):
    out_path = tmp_path / "hist.json"
    code = run_cli(["simulate", "hist", "--test", "corr", "--n", "30", "--p", "6",
                    "--reps", "40", "--seed", "3",
                    "--format", "json", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert sum(payload["counts"]) == 40
    assert len(payload["bin_edges"]) == 41
    assert len(payload["counts"]) == 42
    assert len(payload["z_samples"]) == 40
    assert 0.0 <= payload["ks_statistic"] <= 1.0


def test_simulate_hist_csv_is_every_z_at_full_precision(tmp_path):
    command = ["simulate", "hist", "--test", "block", "--n", "30", "--p", "6",
               "--blocks", "3x2", "--reps", "13", "--seed", "5"]
    json_path = tmp_path / "hist.json"
    assert run_cli(command + ["--format", "json", "--out", str(json_path)]) == 0
    z_samples = json.loads(json_path.read_text())["z_samples"]
    outputs = []
    for threads in (1, 2):
        out_path = tmp_path / f"hist{threads}.csv"
        assert run_cli(command + ["--format", "csv", "--threads", str(threads),
                                  "--out", str(out_path)]) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().splitlines()
    assert lines[0] == "rep,z"
    assert lines[1:] == [f"{rep},{z:.17g}" for rep, z in enumerate(z_samples)]
    assert [float(line.split(",")[1]) for line in lines[1:]] == z_samples


def test_simulate_eqcov_level(tmp_path):
    out_path = tmp_path / "eq.csv"
    code = run_cli(["simulate", "level", "--test", "eqcov", "--n-sizes", "15,20",
                    "--p", "4", "--reps", "30", "--seed", "4",
                    "--format", "csv", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "delta,reps,rejections,rate,se,seed"


def test_simulate_scenario_flag(tmp_path):
    out_path = tmp_path / "s2.csv"
    code = run_cli(["simulate", "level", "--test", "block", "--n", "30", "--p", "12",
                    "--scenario", "2", "--reps", "20", "--seed", "1",
                    "--format", "csv", "--out", str(out_path)])
    assert code == 0


def test_simulate_passes_the_plan_only_the_options_given():
    # the plan's defaults are the only ones; the CLI used to restate four
    args = build_parser().parse_args(["simulate", "level", "--n", "30", "--p", "6"])
    assert set(vars(args)) == {"command", "kind", "func", "test", "n", "p", "threads",
                               "out", "format"}


def test_simulate_scenario_outside_one_and_two_is_the_plans_refusal(capsys):
    # argparse used to refuse it as an invalid choice, before the plan
    code = run_cli(["simulate", "level", "--n", "30", "--p", "6", "--scenario", "3"])
    assert code == 2
    assert capsys.readouterr().err == "hdlrt: error: scenario must be 1 or 2, got 3\n"


def test_simulate_hist_has_no_bins_option(capsys):
    # the histogram always has HISTOGRAM_BINS bins; every z is in the output
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "hist", "--n", "30", "--p", "6", "--scenario", "1",
                 "--bins", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bins 8" in capsys.readouterr().err


def test_simulate_invalid_design_exit_2(tmp_path, capsys):
    code = run_cli(["simulate", "level", "--test", "block", "--n", "10", "--p", "12",
                    "--scenario", "1", "--reps", "5"])
    assert code == 2


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)], ids=["negative", "2_64"])
def test_simulate_seed_outside_64_bits_exit_2(seed, capsys):
    code = run_cli(["simulate", "level", "--test", "corr", "--n", "30", "--p", "6",
                    "--reps", "5", "--seed", seed])
    assert code == 2
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err


def test_simulate_flag_kind_mismatch_exit_2(capsys):
    code = run_cli(["simulate", "level", "--test", "corr", "--n", "30", "--p", "6",
                    "--blocks", "3x2", "--reps", "5"])
    assert code == 2
    assert "correlation plans take no partition" in capsys.readouterr().err
    code = run_cli(["simulate", "level", "--test", "eqcov", "--n", "30", "--p", "6",
                    "--n-sizes", "15,15", "--reps", "5"])
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (["--test", "eqcov", "--p", "4"], "eqcov plans need n_sizes"),
    (["--test", "corr", "--p", "4", "--n", "30", "--n-sizes", "10,10"],
     "correlation plans take n, not n_sizes"),
    (["--test", "block", "--p", "4", "--blocks", "2x2"], "block plans need n"),
], ids=["eqcov_without_n_sizes", "corr_with_n_sizes", "block_without_n"])
def test_simulate_missing_or_foreign_size_flag_exit_2(flags, message, capsys):
    code = run_cli(["simulate", "level", *flags, "--reps", "5"])
    assert code == 2
    assert capsys.readouterr().err == f"hdlrt: error: {message}\n"


@pytest.mark.parametrize("dist", ["expinf", "exp1e400"])
def test_simulate_infinite_exponential_rate_exit_2(dist, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "level", "--test", "block", "--n", "40", "--p", "8",
                 "--blocks", "2x4", "--reps", "10", "--dist", dist])
    assert exc.value.code == 2
    assert f"cannot parse distribution name {dist!r}" in capsys.readouterr().err


def test_simulate_block_hist_with_blocks_flag(tmp_path):
    out_path = tmp_path / "bh.json"
    code = run_cli(["simulate", "hist", "--dist", "t15", "--n", "40", "--p", "8",
                    "--blocks", "4x2", "--reps", "50", "--seed", "2",
                    "--format", "json", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["plan"]["partition"] == [2, 2, 2, 2]
    assert payload["plan"]["dist"] == "t15"


def test_threads_env_fallback(monkeypatch, capsys):
    from hdlrt.cli import _default_threads

    monkeypatch.setenv("HDLRT_THREADS", "3")
    assert _default_threads() == 3
    monkeypatch.delenv("HDLRT_THREADS")
    assert _default_threads() == 1
    assert capsys.readouterr().err == ""
    for bad in ("junk", "0", "-3"):
        monkeypatch.setenv("HDLRT_THREADS", bad)
        assert _default_threads() == 1
        assert capsys.readouterr().err == (
            f"hdlrt: warning: ignoring HDLRT_THREADS={bad!r}, not a positive integer; "
            "using 1 worker\n")


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(threads, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "level", "--test", "block", "--n", "40", "--p", "8",
                 "--blocks", "2x4", "--reps", "10", "--threads", threads])
    assert exc.value.code == 2
    assert "--threads: must be a positive integer" in capsys.readouterr().err


def test_threads_env_bad_value_warns_once_and_keeps_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HDLRT_THREADS", "two")
    out_path = tmp_path / "level.csv"
    code = run_cli(["simulate", "level", "--test", "block", "--n", "40", "--p", "8",
                    "--blocks", "2x4", "--reps", "50", "--seed", "42",
                    "--format", "csv", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == GOLDEN_LEVEL_CSV
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert warnings == ["hdlrt: warning: ignoring HDLRT_THREADS='two', not a positive "
                        "integer; using 1 worker"]


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_runs(tmp_path):
    out_path = tmp_path / "lvl.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "hdlrt.cli", "simulate", "level", "--test", "block",
         "--n", "30", "--p", "6", "--blocks", "3x2", "--reps", "10", "--seed", "0",
         "--format", "csv", "--out", str(out_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out_path.read_text().startswith("delta,reps,")


def test_cli_does_not_import_the_oracle(tmp_path):
    """The brute-force oracle is for tests; the CLI must not load it, not
    even lazily on a command's path."""
    data_path = tmp_path / "d.csv"
    write_data(data_path)
    commands = [
        ["test", "block", "--input", str(data_path), "--partition", "4,4",
         "--out", str(tmp_path / "test.json")],
        ["simulate", "level", "--test", "block", "--n", "20", "--p", "4",
         "--blocks", "2x2", "--reps", "4", "--out", str(tmp_path / "level.json")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from hdlrt.cli import main\n"
         f"for argv in {commands!r}:\n"
         "    assert main(argv) == 0, argv\n"
         "assert 'hdlrt.oracle' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "test.json").exists() and (tmp_path / "level.json").exists()
