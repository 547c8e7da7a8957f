"""Config parsing, deterministic report bytes, and quick runner checks."""

import math

import numpy as np
import pytest

from spherelab.errors import ConfigError
from spherelab.experiments import (
    DECAY_OFFSETS,
    TRANSFER_THETAS,
    CheckResult,
    ExperimentConfig,
    decay_grid,
    load_config,
    parse_config,
    random_hermitian_probe,
    read_ncmax_problem,
    run_experiment,
)
from spherelab.farey import farey_sequence, major_arcs
from spherelab.ncmax import MaxNormProblem, hermitian_element
from spherelab import transfer
from spherelab.transfer import diagonal_phase_family, maximal_ratio_experiment


def write_ncmax_problem(prob: MaxNormProblem, path) -> None:
    """The file format read_ncmax_problem reads: a header "n N p", then the
    N matrices' rows, each entry a Python complex literal."""
    p = "inf" if math.isinf(prob.p) else repr(float(prob.p))
    lines = [f"{prob.n} {len(prob.family)} {p}"]
    for x in prob.family:
        for row in x.entries:
            lines.append(" ".join(f"{float(v.real)!r}{float(v.imag):+}j"
                                  for v in row))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "relation, verdicts",
    [("<", (True, False, False)), ("<=", (True, True, False)),
     ("==", (False, True, False)), (">=", (False, True, True))],
)
def test_check_passes_iff_its_printed_comparison_holds(relation, verdicts):
    # measured below, at and above the threshold 1.0
    for measured, verdict in zip((0.5, 1.0, 1.5), verdicts):
        assert CheckResult("c", measured, relation, 1.0).passed is verdict
    assert CheckResult("c", math.nan, relation, 1.0).passed is False


def test_parse_happy_path():
    cfg = parse_config("# comment\nkind = farey\nLambda = 12\n\n")
    assert cfg.kind == "farey"
    assert cfg.parameters["Lambda"] == 12
    assert cfg.output is None


def test_parse_defaults_filled():
    cfg = parse_config("kind = gauss\n")
    assert cfg.parameters["q_max"] == 12
    assert cfg.parameters["tol"] == 1e-12


@pytest.mark.parametrize(
    "text,key",
    [
        ("Lambda = 3\n", "kind"),
        ("kind = frobnicate\n", "kind"),
        ("kind = farey\n", "Lambda"),
        ("kind = farey\nLambda = x\n", "Lambda"),
        ("kind = farey\nLambda = 3\nwidgets = 1\n", "widgets"),
        ("kind = farey\nLambda = 3\nseed = 1\n", "seed"),
        ("kind = ncmax\ntol = big\ninput = f\n", "tol"),
        ("kind = transfer\ncap = 3\n", "cap"),
        ("kind = transfer\nfamily = permutation\nn = 5\n", "n"),
        ("kind = transfer\nfamily = permutation\nn = 2\n", "n"),
    ],
)
def test_parse_errors_name_the_key(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    assert f"config key '{key}'" in str(err.value)


@pytest.mark.parametrize(
    "text,key,lines",
    [
        ("kind = farey\nLambda = 3\nLambda = 7\n", "Lambda", (2, 3)),
        ("kind = farey\n# a comment\nLambda = 3\nkind = gauss\n", "kind", (1, 4)),
        ("out = a.csv\nkind = farey\nLambda = 3\nout = b.csv\n", "out", (1, 4)),
        ("kind = gauss\ntol = 1e-9\ntol = 1e-9\n", "tol", (2, 3)),
    ],
)
def test_parse_rejects_a_repeated_key_with_both_lines(text, key, lines):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    assert f"repeated on lines {lines[0]} and {lines[1]}" in str(err.value)


_KINDS_LISTED = ("(one of: farey, gauss, poisson_check, decay, sphere_ft, ncmax, "
                 "transfer, reconstruct)")


@pytest.mark.parametrize(
    "text,message",
    [
        ("kind farey\n", "config key 'kind': line 1 is not 'key = value'"),
        ("kind = farey\nLambda =\n", "config key 'Lambda': empty value on line 2"),
        ("kind = farey\nLambda = 3\nwidgets = 1\n", "config key 'widgets': unknown key"),
        ("kind = farey\nLambda = x\n",
         "config key 'Lambda': expected an integer, got 'x'"),
        ("kind = gauss\nseed = 1.5\n",
         "config key 'seed': expected an integer, got '1.5'"),
        ("kind = ncmax\ntol = big\ninput = f\n",
         "config key 'tol': expected a number, got 'big'"),
        ("Lambda = 3\n", f"config key 'kind': missing {_KINDS_LISTED}"),
        ("kind = frobnicate\n",
         f"config key 'kind': unknown kind 'frobnicate' {_KINDS_LISTED}"),
        ("kind = farey\n", "config key 'Lambda': required for kind = farey"),
        ("kind = reconstruct\nd = 5\n",
         "config key 'K': required for kind = reconstruct"),
        ("kind = farey\nLambda = 3\nseed = 1\n",
         "config key 'seed': not a parameter of kind = farey"),
        ("kind = farey\nLambda = 0\n", "config key 'Lambda': must be >= 1, got 0"),
        ("kind = gauss\nseed = -1\n", "config key 'seed': must be >= 0, got -1"),
        ("kind = reconstruct\nd = 5\nK = -1\n", "config key 'K': must be >= 0, got -1"),
        ("kind = transfer\np = 0.5\n", "config key 'p': must be >= 1, got 0.5"),
        ("kind = transfer\np = nan\n", "config key 'p': must be >= 1, got nan"),
        ("kind = sphere_ft\nd = 1\n", "config key 'd': must be >= 2, got 1"),
        ("kind = sphere_ft\nd = 3\nL = -1\n", "config key 'L': must be >= 0, got -1"),
        ("kind = transfer\nK = 0\n", "config key 'K': must be >= 1, got 0"),
        ("kind = transfer\ntol = 0\n", "config key 'tol': need tol > 0"),
        ("kind = gauss\ntol = nan\n", "config key 'tol': need tol > 0"),
        ("kind = transfer\ntol = inf\n", "config key 'tol': need a finite tol"),
        ("kind = transfer\nfamily = permutation\nn = 2\n",
         "config key 'n': the permutation family has n = 3, got 2"),
    ],
)
def test_every_config_refusal_has_its_exact_message(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


def test_config_values_parse_to_their_keys_types():
    cfg = parse_config("kind = transfer\np = inf\ntol = 1e-9\nK = 4\ntheta = 1/3\n")
    assert cfg.parameters["p"] == math.inf and cfg.parameters["tol"] == 1e-9
    assert type(cfg.parameters["K"]) is int and cfg.parameters["theta"] == "1/3"
    assert parse_config("kind = sphere_ft\nd = 2\nL = 0\n").parameters["L"] == 0


def test_echo_lines_order(tmp_path):
    cfg = parse_config(f"kind = farey\nLambda = 4\nout = {tmp_path / 'o.csv'}\n")
    lines = cfg.echo_lines()
    assert lines[0] == "kind = farey"
    assert lines[-1].startswith("out = ")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("kind = farey\nLambda = 6\n")
    assert load_config(path).parameters["Lambda"] == 6


def test_farey_runner_matches_library():
    report = run_experiment(ExperimentConfig("farey", {"Lambda": 7}))
    assert report.passed
    arcs = major_arcs(farey_sequence(7))
    assert len(report.rows) == len(arcs)
    first = report.rows[0]
    assert (first[0], first[1]) == (0, 1)
    # endpoints are carried as exact numerator/denominator pairs
    assert first[2] / first[3] == 0.0


def test_gauss_runner_quick():
    report = run_experiment(
        ExperimentConfig("gauss", {"d": 3, "q_max": 6, "L": 5, "seed": 1, "tol": 1e-12})
    )
    assert report.passed
    assert report.rng == "numpy PCG64 seed=1"


def test_poisson_runner_deterministic_bytes():
    cfg = ExperimentConfig("poisson_check", {"d": 2, "L": 6, "seed": 11, "tol": 1e-8})
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.csv_text() == b.csv_text()
    assert a.report_text() == b.report_text()
    assert a.passed
    assert "wall" not in a.report_text()
    assert "result = pass" in a.report_text()


def test_sphere_ft_runner_low_dim():
    cfg = ExperimentConfig("sphere_ft", {"d": 3, "L": 20_000, "seed": 0, "tol": 1e-8})
    report = run_experiment(cfg)
    assert report.passed
    assert report.summary["value_at_zero"] == 1.0


def test_ncmax_runner_roundtrip(tmp_path):
    fam = [
        hermitian_element(np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -2.0]])),
        hermitian_element(np.diag([3.0, 0.0])),
    ]
    prob = MaxNormProblem(p=math.inf, family=tuple(fam))
    path = tmp_path / "fam.txt"
    write_ncmax_problem(prob, path)
    back = read_ncmax_problem(path)
    assert math.isinf(back.p)
    for x, y in zip(prob.family, back.family):
        assert np.abs(x.entries - y.entries).max() < 1e-15
    report = run_experiment(
        ExperimentConfig("ncmax", {"input": str(path), "tol": 1e-7})
    )
    assert report.passed
    assert report.summary["objective"] >= 3.0 - 1e-6


def test_transfer_runner_trivial():
    cfg = ExperimentConfig(
        "transfer",
        {"family": "trivial", "n": 2, "p": 2.0, "K": 4, "seed": 7, "tol": 1e-7},
    )
    report = run_experiment(cfg)
    assert report.passed
    assert abs(report.summary["max_ratio"] - 1.0) < 1e-6


def test_transfer_permutation_family_takes_n_three():
    # the family is fixed at 3x3: an explicit n = 3 runs it like an omitted n
    left_out = run_experiment(parse_config("kind = transfer\nfamily = permutation\nK = 4\n"))
    explicit = run_experiment(parse_config("kind = transfer\nfamily = permutation\nn = 3\nK = 4\n"))
    assert explicit.rows == left_out.rows
    assert "n = 2" in left_out.report_text()   # the omitted n still echoes its default
    assert explicit.passed


def test_transfer_runner_diagonal_uses_n():
    cfg = ExperimentConfig(
        "transfer",
        {"family": "diagonal", "n": 4, "p": 2.0, "K": 4, "seed": 7, "tol": 1e-7},
    )
    report = run_experiment(cfg)
    fam = diagonal_phase_family(TRANSFER_THETAS, n=4)
    probe = random_hermitian_probe(4, 7)
    assert report.rows == maximal_ratio_experiment(fam, probe, [1, 4], 2.0, tol=1e-7)
    assert report.passed


def test_transfer_window_over_the_orbit_budget_is_refused_before_any_solve(monkeypatch):
    # J = 8 at d = 5, n = 2: 17^5 * 4 orbit-box entries, over DEFAULT_POINT_BUDGET
    calls, solve = [], transfer.ncmax_norm
    monkeypatch.setattr(transfer, "ncmax_norm",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    with pytest.raises(ConfigError) as err:
        run_experiment(parse_config("kind = transfer\nK = 16\nJ = 8\n"))
    assert err.value.key == "J"
    assert err.value.reason == ("17^5 orbit sites of 2x2 entries exceed the budget "
                                "of 5000000")
    assert calls == []


@pytest.mark.parametrize(
    "text,reason",
    [
        ("kind = transfer\nK = 90000\n",
         "r_5(k) for k <= 90000 takes 135001500 theta-product terms, budget is 5000000"),
        ("kind = transfer\nn = 40\nK = 3970\n",
         "twisted table of 1600 rows x 3970 shells exceeds the budget of 5000000"),
    ],
)
def test_a_ratio_table_over_budget_is_refused_as_K_before_any_solve(monkeypatch, text,
                                                                     reason):
    calls, solve = [], transfer.ncmax_norm
    monkeypatch.setattr(transfer, "ncmax_norm",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    with pytest.raises(ConfigError) as err:
        run_experiment(parse_config(text))
    assert err.value.key == "K" and err.value.reason == reason
    assert calls == []


@pytest.mark.parametrize(
    "text,line",
    [
        ("", None),
        ("2 1\n1 0\n0 1\n", 1),
        ("2 x 2\n1 0\n0 1\n", 1),
        ("2 1 0.5\n1 0\n0 1\n", 1),
        ("# family\n2 1 2\n1 0\n", 3),
        ("2 1 2\n1 0\n0 1\n\n1 1\n", 5),
        ("2 1 2\n1 0\n0 1 2\n", 3),
        ("2 2 2\n1 0\n0 1\n1 2\n0 1\n", "4-5"),
        ("2 1 2\n1 0\n0 oops\n", 3),
        ("2 1 2\nnan 0\n0 1\n", 2),
        ("2 1 2\n1 0\n0 nan\n", 3),
        ("2 1 2\n1 1e999\n1e999 0\n", 2),
        ("2 1 2\n1 1\n0 1\n", "2-3"),
    ],
)
def test_read_ncmax_problem_names_the_line(tmp_path, text, line):
    # a malformed or non-finite row names its own line; only the block-level
    # hermitian check names the block, as "lines a-b"
    path = tmp_path / "fam.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_ncmax_problem(path)
    if line is None:
        assert "empty" in str(err.value)
    else:
        word = "lines" if isinstance(line, str) else "line"
        assert str(err.value).startswith(f"{word} {line}:")


def test_reconstruct_runner_quick():
    cfg = ExperimentConfig(
        "reconstruct",
        {"d": 5, "K": 1, "Lambda": 2, "L": 2, "seed": 0, "tol": 1e-6},
    )
    report = run_experiment(cfg)
    assert report.passed
    assert report.summary["arcs"] == 3


def test_report_write(tmp_path):
    report = run_experiment(ExperimentConfig("farey", {"Lambda": 3}))
    csv_path, report_path = report.write(tmp_path / "farey.csv")
    raw = csv_path.read_bytes()
    assert raw.splitlines()[0].split(b",")[0] == b"a"
    assert b"\r\n" in raw  # RFC-4180 line endings on disk
    assert report_path.read_text().startswith("[config]")


def test_decay_grid_geometry():
    grid = decay_grid()
    assert grid.shape == (15 * len(DECAY_OFFSETS), 5)
    # every probe stays well separated from the integer lattice, so the
    # surface-measure factor cannot blow up the normalized statistic
    dist = np.linalg.norm(grid - np.round(grid), axis=1)
    assert dist.min() >= 1.0 / 3.0 - 1e-12
