"""Shell cache file format, tamper detection with line numbers, the
read-vs-enumerate speedup, and the installed command-line surface."""

import contextlib
import csv
import io
import os
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spherelab
from spherelab import cache, cli, lattice
from spherelab.cache import _read_rows, load_or_enumerate, read_shell, shell_path, write_shell
from spherelab.errors import (BudgetExceededError, CacheFormatError, ConfigError,
                              ShellCountMismatchError)
from spherelab.experiments import parse_config, run_experiment
from spherelab.lattice import sphere_shell


def test_roundtrip(tmp_path):
    shell = sphere_shell(3, 14)
    path = tmp_path / "s.txt"
    write_shell(shell, path)
    back = read_shell(path)
    assert back.dimension == 3 and back.k == 14
    assert np.array_equal(back.points, shell.points)


@pytest.mark.parametrize("d, k", [(2, 125), (2, 128), (3, 126), (3, 129)])
def test_roundtrip_keeps_the_narrow_dtype(tmp_path, d, k):
    # both read paths give the values and the dtype of the enumerated shell
    shell = sphere_shell(d, k)
    path = tmp_path / "s.txt"
    write_shell(shell, path)
    back = read_shell(path)
    assert back.points.dtype == shell.points.dtype == lattice.shell_dtype(k)
    assert np.array_equal(back.points, shell.points)
    rows = _read_rows(path.read_text().splitlines()[1:], d, k, shell.count)
    assert rows.points.dtype == shell.points.dtype
    assert np.array_equal(rows.points, shell.points)


def test_load_or_enumerate_hits_cache(tmp_path):
    first = load_or_enumerate(4, 6, tmp_path)
    assert shell_path(tmp_path, 4, 6).exists()
    second = load_or_enumerate(4, 6, tmp_path)
    assert np.array_equal(first.points, second.points)


def test_shells_and_cache_reads_share_one_cached_count(tmp_path, monkeypatch):
    # every count table is one _theta_product call, whoever asks for it
    calls = []
    real = lattice._theta_product
    monkeypatch.setattr(lattice, "_theta_product",
                        lambda coefs, max_k: calls.append(max_k) or real(coefs, max_k))
    lattice.rep_count.cache_clear()
    try:
        for _ in range(2):
            load_or_enumerate(4, 29, tmp_path)   # a miss, then a hit
            sphere_shell(4, 29)
        assert calls == [29]
    finally:
        lattice.rep_count.cache_clear()


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


def test_valid_file_in_shell_order_is_read(tmp_path):
    path = tmp_path / "s.txt"
    _write_lines(path, ["2 1 4", "-1 0", "0 -1", "0 1", "1 0"])
    assert np.array_equal(read_shell(path).points, sphere_shell(2, 1).points)
    _write_lines(path, ["1 2 0"])                  # an empty shell
    assert read_shell(path).count == 0


@pytest.mark.parametrize("rows, line", [
    (["1 0", "1 0", "1 0", "1 0"], 3),            # one point four times
    (["-1 0", "0 -1", "0 -1", "1 0"], 4),         # a duplicate row
    (["-1 0", "0 1", "0 -1", "1 0"], 4),          # two swapped rows
    (["1 0", "0 1", "0 -1", "-1 0"], 3),          # the shell backwards
])
def test_rows_out_of_order_or_repeated_are_refused(tmp_path, rows, line):
    # four points of norm 1 that are not the four of the shell, or not in
    # its order, are refused, naming the first line out of order
    path = tmp_path / "s.txt"
    _write_lines(path, ["2 1 4", *rows])
    with pytest.raises(CacheFormatError) as err:
        read_shell(path)
    assert err.value.line == line and "lexicographic order" in str(err.value)
    with pytest.raises(CacheFormatError) as err:
        _read_rows(rows, 2, 1, 4)
    assert err.value.line == line


def test_cli_refuses_a_cached_shell_out_of_order(tmp_path):
    _write_lines(shell_path(tmp_path, 2, 1), ["2 1 4", "1 0", "1 0", "1 0", "1 0"])
    proc = run_cli("shell", "--d", "2", "--k", "1", "--cache", str(tmp_path), expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: line 3:") and "lexicographic" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("row", ["4294967296 0 0", "-9223372036854775808 0 0",
                                 "99999999999999999999 0 0"])
def test_coordinates_beyond_int64_or_its_squares_are_refused(tmp_path, row):
    # 2^32 and -2^63 square to 0 mod 2^64; 10^20 does not fit an int64
    path = tmp_path / "s.txt"
    _write_lines(path, ["3 0 1", row])
    with pytest.raises(CacheFormatError) as err:
        read_shell(path)
    assert err.value.line == 2 and "squared norm" in str(err.value)


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


def _per_coordinate_text(shell):
    """A shell file as write_shell first formatted it, str(int(v)) per
    coordinate, kept here as the reference for its bytes."""
    lines = [f"{shell.dimension} {shell.k} {shell.count}\n"]
    lines.extend(" ".join(str(int(v)) for v in pt) + "\n" for pt in shell.points)
    return "".join(lines)


# (5, 52) is left out: test_read_beats_enumeration needs it cold in the memo
@pytest.mark.parametrize("d, k", [(1, 0), (1, 49), (2, 3), (2, 25), (3, 14),
                                  (3, 129), (4, 128), (5, 40), (6, 20)])
def test_write_shell_bytes_match_the_per_coordinate_format(tmp_path, d, k):
    shell = sphere_shell(d, k)
    write_shell(shell, tmp_path / "new.txt")
    assert (tmp_path / "new.txt").read_bytes() == _per_coordinate_text(shell).encode()
    (tmp_path / "old.txt").write_text(_per_coordinate_text(shell))
    back = read_shell(tmp_path / "old.txt")
    assert back.points.dtype == shell.points.dtype
    assert np.array_equal(back.points, shell.points)


def _one_string_text(shell):
    """A shell file as write_shell first formatted it in one string, the %d
    row template over every coordinate at once, kept here as the reference
    for the bytes of its blocks."""
    row = " ".join(["%d"] * shell.dimension) + "\n"
    return (f"{shell.dimension} {shell.k} {shell.count}\n"
            + (row * shell.count) % tuple(shell.points.ravel().tolist()))


# d = 1..5, an empty shell (r_3(7) = 0) and 152,560 rows in 19 blocks
@pytest.mark.parametrize("d, k", [(1, 49), (2, 25), (3, 14), (4, 30), (5, 40), (3, 7),
                                  (5, 394)])
def test_write_shell_bytes_match_the_one_string_form(tmp_path, d, k):
    shell = sphere_shell(d, k)
    write_shell(shell, tmp_path / "s.txt")
    assert (tmp_path / "s.txt").read_bytes() == _one_string_text(shell).encode()


# the 48 rows of (3, 14) in exactly one block, one block and one row, and a
# block a row
@pytest.mark.parametrize("block_rows", [48, 47, 1])
def test_write_shell_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch,
                                                           block_rows):
    shell = sphere_shell(3, 14)
    assert shell.count == 48
    monkeypatch.setattr(cache, "WRITE_BLOCK_ROWS", block_rows)
    write_shell(shell, tmp_path / "s.txt")
    assert (tmp_path / "s.txt").read_bytes() == _one_string_text(shell).encode()


def test_writing_a_large_shell_holds_one_block_at_a_time(tmp_path):
    # d = 5, k = 394: 152,560 rows, a 1.5 MB file; formatted in one string
    # its temporaries peaked at 21.7 MB
    shell = sphere_shell(5, 394)
    tracemalloc.start()
    try:
        write_shell(shell, tmp_path / "s.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_a_cache_hit_checks_the_budget_before_reading(tmp_path, monkeypatch):
    load_or_enumerate(5, 40, tmp_path)
    reads, real = [], cache.read_shell
    monkeypatch.setattr(cache, "read_shell", lambda path: reads.append(path) or real(path))
    with pytest.raises(BudgetExceededError,
                       match="^shell d=5, k=40 has 2800 points, over the budget of 100$"):
        load_or_enumerate(5, 40, tmp_path, budget=100)
    monkeypatch.setattr(lattice, "DEFAULT_POINT_BUDGET", 2799)
    with pytest.raises(BudgetExceededError, match="2800 points, over the budget of 2799$"):
        load_or_enumerate(5, 40, tmp_path)
    assert reads == []
    assert load_or_enumerate(5, 40, tmp_path, budget=2800).count == 2800
    assert reads == [shell_path(tmp_path, 5, 40)]


def test_cli_shell_over_budget_on_a_cache_hit(tmp_path):
    run_cli("shell", "--d", "5", "--k", "40", "--cache", str(tmp_path))
    proc = run_cli("shell", "--d", "5", "--k", "40", "--budget", "100",
                   "--cache", str(tmp_path), expect=1)
    assert proc.stdout == ""
    assert proc.stderr == ("error: --budget 100: shell d=5, k=40 has 2800 points, "
                           "over the budget of 100\n")


def test_cli_refuses_rows_that_split_a_point_across_lines(tmp_path):
    # the body holds the 8 coordinates of 4 points, but not 2 on each line
    _write_lines(shell_path(tmp_path, 2, 1), ["2 1 4", "-1 0 0", "-1", "0 1", "1 0"])
    proc = run_cli("shell", "--d", "2", "--k", "1", "--cache", str(tmp_path), expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: line 2: expected 2 coordinates, got 3")
    assert len(proc.stderr.splitlines()) == 1


def test_file_with_tabs_and_runs_of_spaces_is_read(tmp_path):
    path = tmp_path / "s.txt"
    _write_lines(path, ["2 1 4", "-1\t0", "0  -1", " 0 1", "1\t 0 "])
    assert np.array_equal(read_shell(path).points, sphere_shell(2, 1).points)


@pytest.mark.parametrize("row", ["0 -", "- 0", "+ 0", "0 +"])
def test_a_lone_sign_is_not_read_as_zero(tmp_path, row):
    path = tmp_path / "s.txt"
    _write_lines(path, ["2 0 1", row])
    with pytest.raises(CacheFormatError) as err:
        read_shell(path)
    assert err.value.line == 2 and "non-integer" in str(err.value)


def test_read_beats_enumeration(tmp_path):
    d, k = 5, 52
    # a shell kept by an earlier test would turn the cold run into a memo hit
    lattice._kept_shell.cache_clear()
    t0 = time.perf_counter()
    load_or_enumerate(d, k, tmp_path)
    cold = time.perf_counter() - t0
    warm = min(
        _timed(lambda: load_or_enumerate(d, k, tmp_path)) for _ in range(3)
    )
    # enumerating and writing measured 4.1-5.3x slower than the cached
    # read; assert a conservative factor so scheduler noise cannot flake
    # the suite
    assert warm * 3.0 < cold


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------- CLI ----

# run_cli runs the CLI in this process and reports what a child process
# would: the exit status the interpreter gives SystemExit (a message goes
# to stderr with status 1) and a traceback with status 1 for any other
# exception.  The tests below that start a real process put the directory
# this spherelab was imported from first on the child's path, so it runs
# the same code installed or not.
_CLI_PATH = [str(Path(spherelab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
_CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, _CLI_PATH))}


def run_cli(*argv, expect=0):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
            if isinstance(code, str):
                print(code, file=sys.stderr)
                code = 1
        except Exception:
            traceback.print_exc()
            code = 1
    proc = subprocess.CompletedProcess(argv, code or 0, out.getvalue(), err.getvalue())
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc


def run_cli_process(*argv, expect=0):
    """python -m spherelab.cli in a child process; its output bytes decoded
    without newline translation, so they compare with run_cli's."""
    proc = subprocess.run(
        [sys.executable, "-m", "spherelab.cli", *argv],
        capture_output=True,
        timeout=600,
        env=_CLI_ENV,
    )
    proc.stdout, proc.stderr = proc.stdout.decode(), proc.stderr.decode()
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return proc


def test_cli_process_success_and_refusal_match_the_in_process_run():
    for argv, expect in [(("rd", "--d", "5", "--max-k", "6"), 0),
                         (("farey", "--order", "0"), 1)]:
        proc = run_cli_process(*argv, expect=expect)
        same = run_cli(*argv, expect=expect)
        assert (proc.stdout, proc.stderr) == (same.stdout, same.stderr)
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr == "error: --order 0: need order >= 1\n"


def test_cli_import_leaves_scipy_special_unloaded():
    # every CLI call pays the package import; scipy.special alone about
    # doubles it, and only two sphere transforms need it
    code = "import sys, spherelab.cli; sys.exit('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_CLI_ENV, timeout=120)
    assert proc.returncode == 0


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


def test_cli_transfer_and_ncmax_write_their_runners_tables(tmp_path, capsys):
    # one route: each command builds its config and writes the runner's CSV
    problem = tmp_path / "fam.txt"
    problem.write_text("2 2 2\n1 0\n0 -2\n\n-3 0\n0 1\n")
    for argv, text in [
        (["transfer", "--cap", "3", "--J", "4"], "kind = transfer\nK = 9\nJ = 4\n"),
        (["ncmax", "--input", str(problem), "--p", "inf"],
         f"kind = ncmax\ninput = {problem}\np = inf\n"),
    ]:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == run_experiment(parse_config(text)).csv_text()


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
        ("kind = farey\nLambda = 5000\n", "Lambda"),
        ("kind = reconstruct\nd = 5\nK = 2\nLambda = 5000\n", "Lambda"),
        ("kind = transfer\ntheta = 1/3,x\n", "theta"),
        ("kind = transfer\ntheta = 1/0\n", "theta"),
        ("kind = transfer\nJ = 1\nK = 16\n", "J"),
        ("kind = transfer\nJ = 8\n", "J"),
        ("kind = transfer\nd = 6\n", "d"),
        ("kind = transfer\nd = 2\ntheta = 1/3,1/5,1/7\n", "d"),
        ("kind = transfer\nfamily = permutation\ntheta = 1/3\n", "theta"),
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
        ("kind = transfer\ntol = inf\n", "tol"),
        ("kind = ncmax\ninput = f.txt\ntol = inf\n", "tol"),
        ("kind = ncmax\ninput = f.txt\np = 0.5\n", "p"),
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


def test_cli_approx_names_a_q_max_over_the_point_budget():
    # q_max * d images: at d = 5 a q_max of 1,000,001 is one over the budget
    proc = run_cli("approx", "--k", "9", "--q-max", "1000001",
                   "--xi", "0.5,0.1,0,0,0", expect=1)
    assert proc.stdout == ""
    assert proc.stderr == ("error: --q-max 1000001: q_max=1000001 needs 5000005 "
                           "images in d=5, over the budget of 5000000\n")


def test_cli_names_the_flag_or_key_of_each_allocation_over_the_point_budget(tmp_path):
    big = tmp_path / "big.txt"
    rows = np.add.outer(np.arange(48), np.arange(48))
    big.write_text("48 1 2\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    cfg = tmp_path / "big_L.cfg"
    cfg.write_text("kind = gauss\nL = 1000001\n")
    system = "the n^2 x n^2 step system at n=48 has 5308416 entries, over the budget of 5000000"
    for argv, text in [
            (("ncmax", "--input", str(big)), f"--input {big}: {system}"),
            (("transfer", "--n", "48"), f"--n 48: {system}"),
            (("gauss", "--a", "1", "--q", "5000001"),
             "--q 5000001: modulus q=5000001 needs arrays of 5000001 entries, "
             "over the budget of 5000000"),
            (("transfer", "--theta", "1e400"), "--theta 1e400: a phase is too large for a float"),
            (("experiment", "run", str(cfg)),
             "config key 'L': 1000001 k-samples in d=5 take 5000005 entries, "
             "over the budget of 5000000")]:
        proc = run_cli(*argv, expect=1)
        assert proc.stdout == "" and proc.stderr == f"error: {text}\n"
    # p = inf builds no step system: the same file solves
    proc = run_cli("ncmax", "--input", str(big), "--p", "inf")
    assert parse_csv(proc.stdout)[1][0][:3] == ["48", "1", "inf"]


def test_cli_names_a_ratio_table_over_budget_by_cap_or_K(tmp_path):
    counts = ("r_5(k) for k <= 90000 takes 135001500 theta-product terms, "
              "over the budget of 5000000")
    twisted = "twisted table of 1600 rows x 3970 shells, over the budget of 5000000"
    for argv, text, reason in [(("--cap", "300"), "K = 90000\n", counts),
                               (("--n", "40", "--cap", "63"), "n = 40\nK = 3970\n",
                                twisted)]:
        proc = run_cli("transfer", *argv, expect=1)
        assert proc.stdout == ""
        assert proc.stderr == f"error: --cap {argv[-1]}: {reason}\n"
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"kind = transfer\n{text}")
        proc = run_cli("experiment", "run", str(cfg), expect=1)
        assert proc.stdout == ""
        assert proc.stderr == f"error: config key 'K': {reason}\n"


def test_cli_reconstruct_past_float_range_gives_one_error_line(tmp_path):
    # K = 500 at Lambda = 2: e^(2 pi k / 4) = e^785 overflows a float
    cfg = tmp_path / "r500.cfg"
    cfg.write_text("kind = reconstruct\nd = 5\nK = 500\nLambda = 2\nL = 1\n")
    proc = run_cli("experiment", "run", str(cfg), expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: k=500, eps=0.25: ")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


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
        (("farey", "--order", "100000"), "--order"),
        (("ncmax", "--input", "f.txt", "--tol", "inf"), "--tol"),
        (("transfer", "--J", "8"), "--J"),
    ],
)
def test_cli_rejections_name_their_flag(argv, flag):
    proc = run_cli(*argv, expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {flag} "), proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv, flag", [
    (("rd", "--d", "5", "--max-k", "10000"), "--max-k"),
    (("shell", "--d", "5", "--k", "10000000"), "--k"),
    (("shell", "--d", "5", "--k", "10000000", "--cache", "unused"), "--k"),
    (("mult", "--d", "5", "--k", "10000000", "--xi", "0.1,0,0,0,0"), "--k"),
    (("approx", "--k", "10000000", "--xi", "0.1,0,0,0,0"), "--k"),
])
def test_cli_count_table_budget_names_its_flag(argv, flag):
    # the r_d(k) table is refused before it is built, by the flag that sets k
    proc = run_cli(*argv, expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {flag} "), proc.stderr
    assert "theta-product terms" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_cli_mult_rejects_an_empty_shell():
    # no integer is a square root of 2, so the d = 1 shell at k = 2 is empty
    proc = run_cli("mult", "--d", "1", "--k", "2", "--xi", "0.1", expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: empty shell") and "= 2" in proc.stderr
