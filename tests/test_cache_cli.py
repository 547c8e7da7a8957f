"""Shell cache file format, tamper detection with line numbers, the
read-vs-enumerate speedup, and the installed command-line surface."""

import csv
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spherelab
from spherelab.cache import load_or_enumerate, read_shell, shell_path, write_shell
from spherelab.errors import CacheFormatError, ConfigError, ShellCountMismatchError
from spherelab.experiments import parse_config
from spherelab.lattice import sphere_shell


def test_roundtrip(tmp_path):
    shell = sphere_shell(3, 14)
    path = tmp_path / "s.txt"
    write_shell(shell, path)
    back = read_shell(path)
    assert back.dimension == 3 and back.k == 14
    assert np.array_equal(back.points, shell.points)


def test_load_or_enumerate_hits_cache(tmp_path):
    first = load_or_enumerate(4, 6, tmp_path)
    assert shell_path(tmp_path, 4, 6).exists()
    second = load_or_enumerate(4, 6, tmp_path)
    assert np.array_equal(first.points, second.points)


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_tampered_header(tmp_path):
    path = tmp_path / "s.txt"
    _write_lines(path, ["2 1 999", "0 1"])
    with pytest.raises(ShellCountMismatchError):
        read_shell(path)
    _write_lines(path, ["2 1", "0 1"])
    with pytest.raises(CacheFormatError) as err:
        read_shell(path)
    assert err.value.line == 1


def test_tampered_rows(tmp_path):
    shell = sphere_shell(2, 1)  # 4 points
    path = tmp_path / "s.txt"

    write_shell(shell, path)
    lines = path.read_text().splitlines()
    lines[2] = "0 x"
    _write_lines(path, lines)
    with pytest.raises(CacheFormatError) as err:
        read_shell(path)
    assert err.value.line == 3 and "non-integer" in str(err.value)

    lines[2] = "7 7"
    _write_lines(path, lines)
    with pytest.raises(CacheFormatError) as err:
        read_shell(path)
    assert err.value.line == 3 and "squared norm" in str(err.value)

    lines[2] = "0 1 0"
    _write_lines(path, lines)
    with pytest.raises(CacheFormatError) as err:
        read_shell(path)
    assert err.value.line == 3 and "coordinates" in str(err.value)


def test_truncated_and_padded(tmp_path):
    shell = sphere_shell(2, 1)
    path = tmp_path / "s.txt"
    write_shell(shell, path)
    lines = path.read_text().splitlines()

    _write_lines(path, lines[:3])  # drop the last two points
    with pytest.raises(CacheFormatError) as err:
        read_shell(path)
    assert err.value.line == 4

    _write_lines(path, lines + ["0 1"])
    with pytest.raises(CacheFormatError) as err:
        read_shell(path)
    assert err.value.line == 6 and "trailing" in str(err.value)


def test_read_beats_enumeration(tmp_path):
    d, k = 5, 52
    t0 = time.perf_counter()
    load_or_enumerate(d, k, tmp_path)
    cold = time.perf_counter() - t0
    warm = min(
        _timed(lambda: load_or_enumerate(d, k, tmp_path)) for _ in range(3)
    )
    # enumeration measured around 12x slower than the cached read; assert
    # a conservative factor so scheduler noise cannot flake the suite
    assert warm * 3.0 < cold


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------- CLI ----

# The CLI runs in a child process; put the directory this spherelab was
# imported from first on its path, so it runs the same code installed or not.
_CLI_PATH = [str(Path(spherelab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
_CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, _CLI_PATH))}


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "spherelab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=600,
        env=_CLI_ENV,
    )
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_cli_rd():
    proc = run_cli("rd", "--d", "5", "--max-k", "6")
    header, rows = parse_csv(proc.stdout)
    assert header == ["k", "count"]
    assert [int(r[1]) for r in rows] == [1, 10, 40, 80, 90, 112, 240]


def test_cli_shell_with_cache(tmp_path):
    proc = run_cli("shell", "--d", "3", "--k", "2", "--cache", str(tmp_path))
    header, rows = parse_csv(proc.stdout)
    assert header == ["x_1", "x_2", "x_3"]
    assert len(rows) == 12
    assert [int(v) for v in rows[0]] == [-1, -1, 0]
    assert shell_path(tmp_path, 3, 2).exists()


def test_cli_farey():
    proc = run_cli("farey", "--order", "3")
    _, rows = parse_csv(proc.stdout)
    assert rows[0][:2] == ["0", "1"]
    assert rows[2][:2] == ["1", "2"]


def test_cli_gauss_exit_codes():
    proc = run_cli("gauss", "--a", "1", "--q", "3", "--ell", "0,0,0,0,0")
    _, rows = parse_csv(proc.stdout)
    assert abs(float(rows[0][9]) - 3**-2.5) < 1e-14  # |value|
    assert abs(float(rows[0][10]) - 1.0) < 1e-12     # q^{d/2}-normalized
    proc = run_cli("gauss", "--a", "2", "--q", "4", expect=1)
    assert "not reduced" in proc.stderr


def test_cli_mult_value():
    proc = run_cli("mult", "--d", "5", "--k", "1", "--xi", "0.5,0,0,0,0")
    _, rows = parse_csv(proc.stdout)
    assert abs(float(rows[0][5]) - 0.6) < 1e-12  # re column
    assert float(rows[0][8]) == 1.0              # unit-phase envelope


def test_cli_ncmax(tmp_path):
    problem = tmp_path / "fam.txt"
    problem.write_text("2 2 2\n1 0\n0 -2\n\n-3 0\n0 1\n")
    proc = run_cli("ncmax", "--input", str(problem))
    header, rows = parse_csv(proc.stdout)
    i = header.index("objective")
    assert abs(float(rows[0][i]) - 13**0.5) < 1e-5
    proc = run_cli("ncmax", "--input", str(problem), "--p", "inf")
    _, rows = parse_csv(proc.stdout)
    assert float(rows[0][i]) == 3.0


def test_cli_transfer_trivial():
    proc = run_cli("transfer", "--theta", "0,0,0,0,0", "--cap", "2", "--J", "3")
    header, rows = parse_csv(proc.stdout)
    assert header == ["K", "ratio", "lower_bound", "upper_bound", "solver_gap"]
    assert [int(r[0]) for r in rows] == [1, 4]
    for r in rows:
        assert abs(float(r[1]) - 1.0) < 1e-6
    assert "truncation_identity_deviation" in proc.stderr


def test_cli_experiment_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = farey\nLambda = nope\n")
    proc = run_cli("experiment", "run", str(cfg), expect=1)
    assert "config key" in proc.stderr


def test_cli_experiment_farey(tmp_path):
    cfg = tmp_path / "farey.cfg"
    cfg.write_text("# partition sanity\nkind = farey\nLambda = 5\n")
    proc = run_cli("experiment", "run", str(cfg))
    assert "result = pass" in proc.stdout
    assert "partition_exact: pass" in proc.stdout


def test_cli_out_writes_file(tmp_path):
    out = tmp_path / "rd.csv"
    run_cli("--out", str(out), "rd", "--d", "2", "--max-k", "4")
    header, rows = parse_csv(out.read_text())
    assert [int(r[1]) for r in rows] == [1, 4, 4, 0, 4]


def test_cli_verify_selected_suites():
    proc = run_cli("verify", "--suite", "rep-count-oracle", "--suite", "poisson-forms")
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("[PASS] 02 rep-count-oracle (")
    assert lines[1].startswith("[PASS] 04 poisson-forms (")
    assert lines[2] == "2/2 criteria passed"


def test_cli_verify_rejects_unknown_suite():
    proc = run_cli("verify", "--suite", "nope", expect=2)
    assert "--suite" in proc.stderr and "'nope'" in proc.stderr


def test_cli_gauss_rejects_fractional_ell():
    proc = run_cli("gauss", "--a", "1", "--q", "3", "--ell", "1.5,0.9", expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --ell") and "1.5,0.9" in proc.stderr


def test_cli_budget_belongs_to_shell():
    run_cli("--budget", "100", "rd", "--d", "2", "--max-k", "4", expect=2)
    proc = run_cli("rd", "--d", "2", "--max-k", "4", "--budget", "100", expect=2)
    assert "unrecognized arguments: --budget 100" in proc.stderr
    proc = run_cli("shell", "--d", "2", "--k", "1", "--budget", "100")
    assert len(parse_csv(proc.stdout)[1]) == 4


@pytest.mark.parametrize(
    "text,key",
    [
        ("kind = decay\nLambda = 1\n", "Lambda"),
        ("kind = transfer\nK = 0\n", "K"),
        ("kind = transfer\nK = -4\n", "K"),
        ("kind = transfer\nfamily = circulant\n", "family"),
    ],
)
def test_cli_experiment_runner_errors_name_the_key(tmp_path, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    proc = run_cli("experiment", "run", str(cfg), expect=1)
    assert proc.stderr.startswith(f"error: config key '{key}'"), proc.stderr


@pytest.mark.parametrize(
    "text,key",
    [
        ("kind = poisson_check\nd = 0\n", "d"),
        ("kind = gauss\nL = 0\n", "L"),
        ("kind = gauss\nq_max = 0\n", "q_max"),
        ("kind = gauss\nd = 0\n", "d"),
        ("kind = reconstruct\nd = 5\nK = 3\nL = 0\n", "L"),
        ("kind = sphere_ft\nd = 1\n", "d"),
        ("kind = farey\nLambda = 0\n", "Lambda"),
        ("kind = reconstruct\nd = 5\nK = -1\n", "K"),
        ("kind = transfer\nn = 0\n", "n"),
        ("kind = gauss\nseed = -1\n", "seed"),
        ("kind = transfer\np = 0.5\n", "p"),
        ("kind = transfer\np = nan\n", "p"),
        ("kind = transfer\ntol = 0\n", "tol"),
        ("kind = ncmax\ninput = f.txt\ntol = -1\n", "tol"),
        ("kind = gauss\ntol = nan\n", "tol"),
    ],
)
def test_config_keys_below_their_bound_are_rejected_by_name(tmp_path, text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    cfg = tmp_path / "low.cfg"
    cfg.write_text(text)
    proc = run_cli("experiment", "run", str(cfg), expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: config key '{key}'"), proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_cli_bad_problem_file_names_the_line(tmp_path):
    problem = tmp_path / "short.txt"
    problem.write_text("2 1 2\n1 0\n")
    proc = run_cli("ncmax", "--input", str(problem), expect=1)
    assert proc.stderr.startswith("error: --input") and "line 2:" in proc.stderr
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kind = ncmax\ninput = {problem}\n")
    proc = run_cli("experiment", "run", str(cfg), expect=1)
    assert proc.stderr.startswith("error: config key 'input'")
    assert "line 2:" in proc.stderr


def test_cli_approx_rejects_bad_arguments():
    proc = run_cli("approx", "--d", "3", "--k", "4", "--xi", "0,0,0", expect=1)
    assert proc.stdout == "" and proc.stderr.startswith("error: --d 3")
    proc = run_cli("approx", "--k", "4", "--q-max", "0", "--xi", "0,0,0,0,0", expect=1)
    assert proc.stdout == "" and proc.stderr.startswith("error: --q-max 0")


def test_cli_shell_over_budget():
    proc = run_cli("shell", "--d", "5", "--k", "40", "--budget", "100", expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --budget 100") and "2800 points" in proc.stderr


def test_cli_transfer_window_below_cap():
    proc = run_cli("transfer", "--J", "3", expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --J 3") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("gauss", "--a", "1", "--q", "0"),
        ("gauss", "--a", "1", "--q", "-3"),
        ("farey", "--order", "0"),
        ("rd", "--d", "0", "--max-k", "3"),
        ("rd", "--d", "3", "--max-k", "-1"),
        ("shell", "--d", "3", "--k", "-1"),
        ("transfer", "--cap", "0"),
        ("transfer", "--n", "0"),
        ("transfer", "--p", "0.5"),
        ("transfer", "--theta", "1/3,x"),
        ("mult", "--k", "2", "--xi", "0.1,abc,0,0,0"),
    ],
)
def test_cli_bad_inputs_give_one_error_line(argv):
    proc = run_cli(*argv, expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("transfer", "--cap", "0"), "--cap"),
        (("transfer", "--theta", "1/3,x"), "--theta"),
        (("transfer", "--theta", "1/0,1/3"), "--theta"),
        (("mult", "--k", "2", "--xi", "0.1,abc,0,0,0"), "--xi"),
        (("mult", "--k", "2", "--xi", "0.1,nan,0,0,0"), "--xi"),
        (("approx", "--k", "2", "--xi", "0.1,0,0"), "--xi"),
        (("shell", "--d", "2", "--k", "5", "--budget", "0"), "--budget"),
        (("--seed", "-1", "experiment", "run", "g.cfg"), "--seed"),
        (("--seed", "-2", "transfer"), "--seed"),
        (("farey", "--order", "0"), "--order"),
        (("shell", "--d", "3", "--k", "-1"), "--k"),
        (("rd", "--d", "3", "--max-k", "-1"), "--max-k"),
        (("transfer", "--n", "0"), "--n"),
        (("transfer", "--p", "0.5"), "--p"),
        (("rd", "--d", "0", "--max-k", "3"), "--d"),
        (("gauss", "--a", "1", "--q", "0"), "--q"),
        (("approx", "--k", "4", "--q-max", "0", "--xi", "0,0,0,0,0"), "--q-max"),
        (("approx", "--k", "0", "--xi", "0,0,0,0,0"), "--k"),
        (("ncmax", "--input", "f.txt", "--tol", "0"), "--tol"),
        (("ncmax", "--input", "f.txt", "--tol", "-1"), "--tol"),
        (("ncmax", "--input", "f.txt", "--tol", "nan"), "--tol"),
        (("transfer", "--theta", ","), "--theta"),
    ],
)
def test_cli_rejections_name_their_flag(argv, flag):
    proc = run_cli(*argv, expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {flag} "), proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_cli_mult_rejects_an_empty_shell():
    # no integer is a square root of 2, so the d = 1 shell at k = 2 is empty
    proc = run_cli("mult", "--d", "1", "--k", "2", "--xi", "0.1", expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: empty shell") and "= 2" in proc.stderr
