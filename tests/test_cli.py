"""Command-line contract: flags, exit codes, output schemas, byte stability."""

import json
import random
from pathlib import Path

import pytest

import coded_matmul.cli as cli
from coded_matmul.blockmat import Matrix, matrix_multiply, read_matrix, write_matrix
from coded_matmul.ffield import DEFAULT_MODULUS, PrimeModulus
from coded_matmul.optimizer import TRADEOFF_CSV_HEADER

import matrix_helpers as mh

F_BIG = PrimeModulus(DEFAULT_MODULUS)
DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_pair(tmp_path, rows=6, inner=6, cols=6, q=F_BIG, seeds=(1, 2)):
    a = mh.random(rows, inner, q, random.Random(seeds[0]))
    b = mh.random(inner, cols, q, random.Random(seeds[1]))
    pa, pb = tmp_path / "a.mat", tmp_path / "b.mat"
    write_matrix(a, pa)
    write_matrix(b, pb)
    return a, b, str(pa), str(pb)


# -- overheads ---------------------------------------------------------------


def test_overheads_csv_matches_closed_forms(capsys):
    rc, out, err = run_cli(
        capsys, "overheads", "--scheme", "tri",
        "--p0", "2", "--p1", "2", "--p2", "2", "--format", "csv",
    )
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "scheme,p0,p1,p2,K,R_th,R0,R1,delta,delta_u0,delta_u1,delta_d"
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["scheme"] == "tri"
    assert row["R_th"] == "12"
    assert row["delta"] == "0.5"
    assert row["delta_u0"] == "0.5"
    assert row["delta_u1"] == "0.5"
    assert row["delta_d"] == "2.0"


def test_overheads_all_lists_every_kind(capsys):
    rc, out, err = run_cli(
        capsys, "overheads", "--scheme", "all", "--p0", "2", "--p1", "2", "--p2", "2",
    )
    assert rc == 0
    body = out.splitlines()
    # table format: header then one line per kind
    assert len(body) == 5
    for kind in ("epc", "bi0", "bi2", "tri"):
        assert any(line.startswith(kind) for line in body[1:])


def test_overheads_json(capsys):
    rc, out, _ = run_cli(
        capsys, "overheads", "--scheme", "epc",
        "--p0", "2", "--p1", "2", "--p2", "2", "--format", "json",
    )
    assert rc == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and len(rows) == 1
    row = rows[0]
    assert row["scheme"] == "epc"
    assert row["R_th"] == 9
    assert row["K"] == 8
    assert row["delta"] == 0.125
    assert row["delta_d"] == 1.25


def test_overheads_byte_stable(capsys):
    argv = ["overheads", "--scheme", "all", "--p0", "3", "--p1", "2", "--p2", "4",
            "--format", "csv"]
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


# -- usage errors ------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    cases = [
        ["overheads", "--scheme", "tri", "--p1", "2", "--p2", "2"],  # missing --p0
        ["overheads", "--scheme", "quad", "--p0", "1", "--p1", "1", "--p2", "1"],
        ["overheads", "--scheme", "tri", "--p0", "0", "--p1", "1", "--p2", "1"],
        ["nonsense"],
        [],
    ]
    for argv in cases:
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 1, argv
        assert err != ""


_MODEL_ARGV = {
    "simulate": ["simulate", "--scheme", "epc", "--p0", "1", "--p1", "1", "--p2", "1",
                 "--workers", "2", "--lambda-inv", "2", "--t0", "1", "--trials", "5"],
    "tradeoff": ["tradeoff", "--schemes", "epc", "--budgets", "1", "--workers", "2",
                 "--lambda-inv", "2", "--t0", "1", "--p0-cap", "1", "--p2-cap", "1",
                 "--trials", "5"],
    "run": ["run", "--scheme", "epc", "--p0", "1", "--p1", "1", "--p2", "1",
            "--workers", "1", "--a", "a.mat", "--b", "b.mat"],
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--t0", "nan"),
        ("simulate", "--t0", "inf"),
        ("simulate", "--lambda-inv", "nan"),
        ("simulate", "--lambda-inv", "inf"),
        ("tradeoff", "--t0", "nan"),
        ("tradeoff", "--lambda-inv", "nan"),
        ("run", "--inject-t0", "nan"),
        ("run", "--inject-t0", "inf"),
        ("run", "--inject-lambda-inv", "nan"),
    ],
)
def test_non_finite_model_values_exit_one(capsys, command, flag, value):
    # A NaN would make the simulator draw without bound and the runtime
    # skip its sleep; an infinite sleep overflows.
    rc, out, err = run_cli(capsys, *_MODEL_ARGV[command], flag, value)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and f"argument {flag}" in err and "finite" in err


@pytest.mark.parametrize("command", ["simulate", "tradeoff", "run"])
def test_negative_seed_exits_one_naming_the_flag(capsys, command):
    # Rejected while parsing, before a simulation draws or a worker starts.
    rc, out, err = run_cli(capsys, *_MODEL_ARGV[command], "--seed", "-1")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "argument --seed" in err and ">= 0" in err


def test_help_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "--help")
    assert rc == 0
    assert "usage" in out


# -- multiply ----------------------------------------------------------------


def test_multiply_to_file_is_exact(capsys, tmp_path):
    a, b, pa, pb = write_pair(tmp_path)
    out_path = tmp_path / "c.mat"
    rc, out, err = run_cli(
        capsys, "multiply", "--scheme", "bi0",
        "--p0", "2", "--p1", "2", "--p2", "2",
        "--a", pa, "--b", pb, "--out", str(out_path),
    )
    assert rc == 0 and err == ""
    assert out == ""
    assert read_matrix(out_path) == matrix_multiply(a, b)


def test_multiply_stdout_round_trips(capsys, tmp_path):
    a, b, pa, pb = write_pair(tmp_path)
    rc, out, _ = run_cli(
        capsys, "multiply", "--scheme", "epc",
        "--p0", "2", "--p1", "2", "--p2", "2", "--a", pa, "--b", pb,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == f"6 6 {DEFAULT_MODULUS}"
    direct = matrix_multiply(a, b)
    parsed = [int(tok) for line in lines[1:] for tok in line.split()]
    assert parsed == direct.data.ravel().tolist()


def test_multiply_verify_passes(capsys, tmp_path):
    _, _, pa, pb = write_pair(tmp_path)
    rc, _, err = run_cli(
        capsys, "multiply", "--scheme", "tri",
        "--p0", "2", "--p1", "2", "--p2", "2",
        "--a", pa, "--b", pb, "--verify",
        "--out", str(tmp_path / "c.mat"),
    )
    assert rc == 0 and err == ""


def test_multiply_verify_failure_exits_two(capsys, tmp_path, monkeypatch):
    a, b, pa, pb = write_pair(tmp_path)
    wrong = mh.zeros(a.rows, b.cols, a.modulus)
    monkeypatch.setattr(cli, "matrix_multiply", lambda x, y: wrong)
    rc, _, err = run_cli(
        capsys, "multiply", "--scheme", "epc",
        "--p0", "1", "--p1", "2", "--p2", "1",
        "--a", pa, "--b", pb, "--verify",
    )
    assert rc == 2
    assert "verif" in err.lower()


def test_multiply_mismatched_moduli_exit_one(capsys, tmp_path):
    a = mh.random(4, 4, PrimeModulus(101), random.Random(3))
    b = mh.random(4, 4, F_BIG, random.Random(4))
    pa, pb = tmp_path / "a.mat", tmp_path / "b.mat"
    write_matrix(a, pa)
    write_matrix(b, pb)
    rc, _, err = run_cli(
        capsys, "multiply", "--scheme", "epc",
        "--p0", "1", "--p1", "1", "--p2", "1", "--a", str(pa), "--b", str(pb),
    )
    assert rc == 1
    assert err != ""


@pytest.mark.parametrize("command", ["multiply", "run"])
def test_inner_dimension_mismatch_exits_one(capsys, tmp_path, command):
    # a 4x6 left factor against a 4x4 right factor; both split 2x2 evenly
    _, _, pa, pb = write_pair(tmp_path, rows=4, inner=6, cols=4)
    write_matrix(mh.random(4, 4, F_BIG, random.Random(9)), pb)
    extra = ["--workers", "2"] if command == "run" else []
    rc, _, err = run_cli(
        capsys, command, "--scheme", "tri",
        "--p0", "2", "--p1", "2", "--p2", "2", "--a", pa, "--b", pb, *extra,
    )
    assert rc == 1
    assert "cannot multiply" in err


def test_multiply_non_integer_entry_names_line_exits_one(capsys, tmp_path):
    _, _, pa, pb = write_pair(tmp_path)
    lines = (tmp_path / "a.mat").read_text().splitlines()
    lines[6] = "1 x 2 3 4 5"  # the last of six rows, on line 7 of the file
    (tmp_path / "a.mat").write_text("\n".join(lines) + "\n")
    rc, out, err = run_cli(
        capsys, "multiply", "--scheme", "epc",
        "--p0", "1", "--p1", "1", "--p2", "1", "--a", pa, "--b", pb,
    )
    assert rc == 1
    assert out == "" and err.startswith(f"error: {pa}:7: ")


def test_multiply_non_utf8_file_names_path_exits_one(capsys, tmp_path):
    _, _, pa, pb = write_pair(tmp_path)
    (tmp_path / "a.mat").write_bytes(b"\xff\xfe6 6 2147483647\n")
    rc, out, err = run_cli(
        capsys, "multiply", "--scheme", "epc",
        "--p0", "1", "--p1", "1", "--p2", "1", "--a", pa, "--b", pb,
    )
    assert rc == 1
    assert out == "" and err.startswith(f"error: {pa}: ")


def test_multiply_q_override_recomputes_in_that_field(capsys, tmp_path):
    small = PrimeModulus(13)
    a, b, pa, pb = write_pair(tmp_path, q=small, seeds=(5, 6))
    rc, out, _ = run_cli(
        capsys, "multiply", "--scheme", "epc",
        "--p0", "2", "--p1", "2", "--p2", "2",
        "--a", pa, "--b", pb, "--q", "101",
    )
    assert rc == 0
    big = PrimeModulus(101)
    aa = Matrix(a.rows, a.cols, a.data, big)
    bb = Matrix(b.rows, b.cols, b.data, big)
    direct = matrix_multiply(aa, bb)
    lines = out.splitlines()
    assert lines[0] == "6 6 101"
    parsed = [int(tok) for line in lines[1:] for tok in line.split()]
    assert parsed == direct.data.ravel().tolist()


def test_multiply_rejects_pseudoprime_modulus_exits_one(capsys, tmp_path):
    # A composite that passes the 12-base Miller-Rabin test; see test_ffield.
    _, _, pa, pb = write_pair(tmp_path)
    rc, out, err = run_cli(
        capsys, "multiply", "--scheme", "epc",
        "--p0", "1", "--p1", "1", "--p2", "1",
        "--a", pa, "--b", pb, "--q", "318665857834031151167461", "--verify",
    )
    assert rc == 1
    assert out == "" and "2^63" in err


def test_multiply_field_too_small_exits_two(capsys, tmp_path):
    # epc at (3,3,3) needs 29 distinct nonzero points; F_13 cannot host them.
    a, b, pa, pb = write_pair(tmp_path, q=PrimeModulus(13), seeds=(7, 8))
    rc, _, err = run_cli(
        capsys, "multiply", "--scheme", "epc",
        "--p0", "3", "--p1", "3", "--p2", "3", "--a", pa, "--b", pb,
    )
    assert rc == 2
    assert err != ""


# -- simulate ----------------------------------------------------------------


def test_simulate_output_and_anchor(capsys):
    argv = ["simulate", "--scheme", "epc", "--p0", "1", "--p1", "1", "--p2", "1",
            "--workers", "1", "--lambda-inv", "2", "--t0", "1",
            "--trials", "2000", "--seed", "5"]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("mean_latency ")
    assert lines[1].startswith("stderr ")
    mean = float(lines[0].split()[1])
    stderr = float(lines[1].split()[1])
    # K=1, R_th=1, N=1: latency is T0 + Exp(lambda), mean 1 + 2 = 3.
    assert abs(mean - 3.0) < 0.25
    assert stderr > 0

    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc2 == 0 and out2 == out


def test_simulate_prints_the_tradeoff_row(capsys):
    model = ["--workers", "20", "--lambda-inv", "10", "--t0", "1",
             "--trials", "50", "--seed", "3"]
    rc, out, _ = run_cli(capsys, "tradeoff", "--schemes", "all", "--budgets", "0.5,2",
                         "--p0-cap", "3", "--p2-cap", "3", *model)
    assert rc == 0
    header = TRADEOFF_CSV_HEADER.split(",")
    rows = [dict(zip(header, line.split(","))) for line in out.splitlines()[1:]]
    feasible = [row for row in rows if row["feasible"] == "true"]
    assert len(feasible) == len(rows) == 8
    for row in feasible:
        rc, out, _ = run_cli(capsys, "simulate", "--scheme", row["scheme"], "--p0", row["p0"],
                             "--p1", row["p1"], "--p2", row["p2"], *model)
        assert rc == 0
        assert out == f"mean_latency {row['mean_latency']}\nstderr {row['stderr']}\n", row


# -- tradeoff ----------------------------------------------------------------


def test_tradeoff_csv_schema_and_stability(capsys):
    argv = ["tradeoff", "--schemes", "epc,tri", "--budgets", "0.5,2",
            "--workers", "20", "--lambda-inv", "10", "--t0", "1",
            "--p0-cap", "2", "--p2-cap", "2", "--trials", "50", "--seed", "3"]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == TRADEOFF_CSV_HEADER
    assert len(lines) == 1 + 2 * 2  # kinds x budgets
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 14
        assert fields[-1] == "true"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["epc", "epc", "tri", "tri"]

    rc2, out2, _ = run_cli(capsys, *argv)
    assert out2 == out


@pytest.mark.parametrize(
    "extra, golden", [((), "tradeoff_seed3.csv"), (("--force-p1-1",), "tradeoff_seed3_p1_1.csv")]
)
def test_tradeoff_csv_matches_golden_file(capsys, extra, golden):
    # Unsorted budgets with a negative, a zero and a fraction, all four
    # schemes; the files pin every byte, floats included.
    rc, out, err = run_cli(
        capsys, "tradeoff", "--schemes", "all", "--budgets", "0.5,1,2,4,8,-1,0,3/2",
        "--workers", "300", "--lambda-inv", "10", "--t0", "1",
        "--p0-cap", "6", "--p2-cap", "6", "--trials", "50", "--seed", "3", *extra,
    )
    assert rc == 0 and err == ""
    assert out.encode() == (DATA / golden).read_bytes()


def test_tradeoff_out_file_matches_stdout(capsys, tmp_path):
    dest = tmp_path / "curve.csv"
    base = ["tradeoff", "--schemes", "epc", "--budgets", "1",
            "--workers", "10", "--lambda-inv", "5", "--t0", "0.5",
            "--p0-cap", "2", "--p2-cap", "2", "--trials", "20", "--seed", "9"]
    rc, out, _ = run_cli(capsys, *base)
    assert rc == 0
    rc2, out2, _ = run_cli(capsys, *base, "--out", str(dest))
    assert rc2 == 0
    assert out2 == ""
    assert dest.read_text() == out


def test_tradeoff_force_p1_flag(capsys):
    rc, out, _ = run_cli(
        capsys, "tradeoff", "--schemes", "tri", "--budgets", "4",
        "--workers", "10", "--lambda-inv", "5", "--t0", "1",
        "--p0-cap", "3", "--p2-cap", "3", "--trials", "20", "--seed", "1",
        "--force-p1-1",
    )
    assert rc == 0
    for line in out.splitlines()[1:]:
        assert line.split(",")[3] == "1"  # p1 column


def test_tradeoff_infeasible_rows(capsys):
    rc, out, err = run_cli(
        capsys, "tradeoff", "--schemes", "epc", "--budgets=-1",
        "--workers", "5", "--lambda-inv", "5", "--t0", "1",
        "--p0-cap", "2", "--p2-cap", "2", "--trials", "10", "--seed", "2",
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1] == "epc,-1.0,,,,,,,,,,,,false"


# -- run ---------------------------------------------------------------------


def test_run_demo_verifies_and_writes_trace(capsys, tmp_path):
    _, _, pa, pb = write_pair(tmp_path)
    trace_path = tmp_path / "trace.csv"
    rc, out, err = run_cli(
        capsys, "run", "--scheme", "epc",
        "--p0", "2", "--p1", "2", "--p2", "2",
        "--workers", "3", "--a", pa, "--b", pb,
        "--inject-t0", "0", "--inject-lambda-inv", "0",
        "--seed", "1", "--trace", str(trace_path),
    )
    assert rc == 0 and err == ""
    assert "verified true" in out
    assert "tasks 9" in out
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "task_id,x,y,z,worker,start_ms,end_ms"
    assert len(lines) == 1 + 9
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[1] != "" and fields[2] == "" and fields[3] == ""
        float(fields[5]), float(fields[6])


def test_run_verification_failure_exits_two(capsys, tmp_path, monkeypatch):
    a, b, pa, pb = write_pair(tmp_path)
    wrong = mh.zeros(a.rows, b.cols, a.modulus)
    monkeypatch.setattr(cli, "matrix_multiply", lambda x, y: wrong)
    rc, _, err = run_cli(
        capsys, "run", "--scheme", "tri",
        "--p0", "2", "--p1", "2", "--p2", "2",
        "--workers", "2", "--a", pa, "--b", pb,
    )
    assert rc == 2
    assert "verif" in err.lower()
