"""End-to-end acceptance checks, one test per criterion.

Each test runs its criterion by suite name through
spherelab.acceptance.run_criteria, prints its single pass/fail summary line,
and registers the line with the terminal-summary hook so the full tally is
visible at the end of the run.  The thresholds re-asserted here pin the
gates independently of each criterion's own pass logic.
"""

import functools

from conftest import record_acceptance_line

from spherelab import acceptance
from spherelab.experiments import ExperimentConfig, RunReport


@functools.cache
def _result(name):
    [res] = acceptance.run_criteria([name])
    return res


def _run(name):
    res = _result(name)
    line = acceptance.summary_line(res)
    print(line)
    record_acceptance_line(line)
    assert res.passed, line
    return res


def test_farey_partition_exact():
    _run("farey-partition")


def test_rep_counts_match_box_oracle():
    _run("rep-count-oracle")


def test_gauss_sums_satisfy_dft_identity():
    res = _run("gauss-dft")
    assert res.summary["max_err"] < 1e-12


def test_heat_forms_agree():
    res = _run("poisson-forms")
    assert res.summary["max_rel_err"] < 1e-8


def test_kernel_envelope_stays_bounded():
    _run("kernel-envelope")


def test_arc_sum_reconstructs_multiplier():
    res = _run("arc-reconstruction")
    assert res.summary["max_err"] < 1e-6


def test_surface_transform_oracles():
    _run("sphere-ft-oracle")


def test_main_term_integral_matches_closed_form():
    res = _run("mainterm-identity")
    assert res.summary["max_closed_err"] < 1e-4


def test_approximation_error_decays():
    res = _run("approx-decay")
    assert res.summary["band"] <= 3.0
    assert -0.8 <= res.summary["loglog_slope"] <= -0.2


def test_matrix_norm_solver_matches_oracles():
    _run("ncmax-oracles")


def test_orbit_average_matches_lattice_average():
    _run("transfer-identity")


def test_ratio_table_monotone_and_emitted():
    res = _run("ratio-table")
    assert "csv" in res.summary
    assert res.summary["csv"].startswith("K,ratio")


def test_suite_names_match_run_criteria():
    # runs after the twelve tests above, so every result is already cached
    names = list(acceptance.CRITERIA)
    assert len(names) == len(set(names)) == 12
    assert [_result(name).config.kind for name in names] == names
    assert [int(acceptance.summary_line(res).split()[1])
            for res in map(_result, names)] == list(range(1, 13))


def test_summary_line_leaves_out_csv():
    res = RunReport(ExperimentConfig("ratio-table", {}), (), [],
                    {"monotone": True, "csv": "K,ratio\r\n"})
    assert acceptance.summary_line(res) == "[PASS] 12 ratio-table (0.0s): monotone=True"
