"""The twelve gating checks, runnable programmatically or via the CLI.

Each criterion returns (details, checks): the quantities it measured and
the CheckResults that judge them.  run_criteria wraps them in a RunReport
whose kind is the criterion's key in CRITERIA; summary_line numbers it by
its position there.  Criteria 03, 04, 06, 07, 09, 11 and 12 are pinned
experiment configs judged by their runners' checks, plus any
criterion-only check.
Thresholds and configs are hard-coded on purpose: they are the contract.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .experiments import CheckResult, ExperimentConfig, RunReport, run_experiment
from .farey import farey_certificate, farey_sequence, major_arcs, verify_partition
from .heat import heat_direct_batch
from .lattice import box_counts_oracle, rep_counts
from .ncmax import MaxNormProblem, envelope_bounds, hermitian_element, \
    ncmax_diag_oracle, ncmax_grid_oracle_2x2, ncmax_norm
from .sphere import j_main, j_main_integral, unit_sphere_ft
from .transfer import TRUNCATION_TOL


def summary_line(report: RunReport) -> str:
    """One line per criterion: verdict, number, name, time and details."""
    name = report.config.kind
    number = list(CRITERIA).index(name) + 1
    parts = " ".join(f"{k}={_short(v)}" for k, v in report.summary.items()
                     if k != "csv")
    return (f"[{'PASS' if report.passed else 'FAIL'}] {number:02d} {name} "
            f"({report.wall_time:.1f}s): {parts}")


def _short(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def criterion_01_farey_partition() -> tuple[dict, list]:
    """Exact cover of [0,1] by arcs, plus Farey neighbor identities.

    Two independent routes: orders <= 50 walk the exact Fraction endpoints
    of the arcs (a plain list, so verify_partition does not certify on the
    pairs), and orders <= 200 run the integer neighbour certificate.  Each
    sequence is built once."""
    cover_ok = neighbor_ok = True
    for order in range(1, 201):
        seq = farey_sequence(order)
        if order <= 50:
            cover_ok = cover_ok and verify_partition(list(major_arcs(seq)))
        neighbor_ok = neighbor_ok and farey_certificate(seq)
    return ({"cover_orders": 50, "neighbor_orders": 200, "cover_ok": cover_ok,
             "neighbor_ok": neighbor_ok},
            [CheckResult("cover_ok", float(cover_ok), "==", 1.0),
             CheckResult("neighbor_ok", float(neighbor_ok), "==", 1.0)])


def criterion_02_rep_counts() -> tuple[dict, list]:
    """Shell counting table against brute-force box enumeration."""
    worst = 0
    for d in range(1, 6):
        table = rep_counts(d, 50)
        brute = box_counts_oracle(d, 50)
        worst = max(worst, max(abs(a - b) for a, b in zip(table, brute)))
    return ({"d_max": 5, "k_max": 50, "max_abs_diff": worst},
            [CheckResult("max_abs_diff", worst, "==", 0)])


def _pinned(kind: str, **params) -> RunReport:
    return run_experiment(ExperimentConfig(kind, params))


def criterion_03_gauss_dft() -> tuple[dict, list]:
    """DFT of the normalized complete sum is the pure quadratic phase, and
    no sum exceeds its magnitude bound."""
    rep = _pinned("gauss", d=5, q_max=25, L=20, seed=0, tol=1e-12)
    return {"q_max": rep.summary["q_max"],
            "k_samples": rep.summary["k_samples"],
            "max_err": rep.summary["max_dft_err"],
            "tol": rep.checks[0].threshold}, rep.checks


def criterion_04_poisson_forms() -> tuple[dict, list]:
    """Lattice sum vs image-sum resummation of the kernel transform."""
    dims = (2, 3, 5)
    reps = [_pinned("poisson_check", d=d, L=20, seed=400 + d, tol=1e-8)
            for d in dims]
    return {"dims": ",".join(map(str, dims)),
            "draws_per_case": reps[0].summary["draws_per_eps"],
            "max_rel_err": max(r.summary["max_rel_err"] for r in reps),
            "tol": reps[0].checks[0].threshold}, [c for r in reps for c in r.checks]


ENVELOPE_REL_OFFSETS = np.array([-0.9, -0.5, -0.2, 0.0, 0.2, 0.5, 0.9])
ENVELOPE_D = 5


def _envelope_frequencies() -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(1))
    rational = np.array([[0.5, 0, 0, 0, 0],
                         [1 / 3, 1 / 3, 0, 0, 0],
                         [0.25, 0.5, 0, 0, 0]])
    return np.vstack([np.zeros((1, ENVELOPE_D)),
                      rng.uniform(-0.5, 0.5, size=(12, ENVELOPE_D)), rational])


def envelope_sup(order: int) -> float:
    """Normalized kernel size q^{d/2} (order^-2 + |t|)^{d/2} |K| in d = 5,
    maximized over a fixed arc/offset/frequency design that exists at every
    order."""
    d = ENVELOPE_D
    eps = float(order) ** -2.0
    xis = _envelope_frequencies()
    arcs = [arc for arc in major_arcs(farey_sequence(order))
            if arc.center.denominator <= 2]
    sup = 0.0
    for arc in arcs:
        q = arc.center.denominator
        a = arc.center.numerator
        lo = float(arc.left - arc.center)
        hi = float(arc.right - arc.center)
        ts = np.where(ENVELOPE_REL_OFFSETS < 0,
                      -ENVELOPE_REL_OFFSETS * lo, ENVELOPE_REL_OFFSETS * hi)
        for t in ts:
            s = np.array([a / q + t])
            for xi in xis:
                val = abs(np.atleast_1d(
                    heat_direct_batch(eps, s, xi, tol=1e-10).value)[0])
                sup = max(sup, q ** (d / 2.0) * (eps + abs(t)) ** (d / 2.0) * val)
    return sup


def criterion_05_kernel_envelope() -> tuple[dict, list]:
    """The normalized kernel sup must not grow as the order doubles twice."""
    sups = {order: envelope_sup(order) for order in (2, 4, 8)}
    growth_24 = sups[4] / sups[2]
    growth_48 = sups[8] / sups[4]
    return ({"sup_2": sups[2], "sup_4": sups[4], "sup_8": sups[8],
             "growth_2_to_4": growth_24, "growth_4_to_8": growth_48,
             "limit": 1.1},
            [CheckResult("growth_2_to_4", growth_24, "<=", 1.1),
             CheckResult("growth_4_to_8", growth_48, "<=", 1.1)])


def criterion_06_arc_reconstruction() -> tuple[dict, list]:
    """Summing all arc pieces rebuilds the exact shell multiplier."""
    ks = (1, 2, 4)
    reps = [_pinned("reconstruct", d=5, K=k, Lambda=2, L=8, seed=0, tol=1e-6)
            for k in ks]
    return {"d": reps[0].summary["d"], "ks": ",".join(map(str, ks)),
            "order": reps[0].summary["order"],
            "frequencies": len(reps[0].rows),
            "max_err": max(r.summary["max_abs_err"] for r in reps),
            "tol": reps[0].checks[0].threshold}, [c for r in reps for c in r.checks]


def criterion_07_sphere_ft() -> tuple[dict, list]:
    """Bessel closed form vs quadrature, Monte Carlo, and pinned values."""
    reps = [_pinned("sphere_ft", d=d, L=1_000_000, seed=0, tol=1e-8) for d in (3, 5)]
    worst_mc = max(r.checks[1].measured for r in reps)
    at_zero = reps[1].summary["value_at_zero"]
    pin = abs(float(unit_sphere_ft(5, 1.0)) + 3.0 / (4.0 * math.pi ** 2))
    return ({"max_quad_err": max(r.summary["max_quad_err"] for r in reps),
             "max_mc_err": worst_mc, "value_at_zero": at_zero, "pinned_d5_err": pin},
            [*(c for r in reps for c in r.checks),
             CheckResult("max_mc_err", worst_mc, "<", 1e-3),
             CheckResult("value_at_zero", at_zero, "==", 1.0),
             CheckResult("pinned_d5_err", pin, "<", 1e-10)])


def criterion_08_mainterm_identity() -> tuple[dict, list]:
    """Full-line oscillatory integral equals the closed main-term formula,
    independently of the Gaussian width."""
    d = 5
    xis = [np.zeros(d), np.array([0.2, 0.1, 0.0, 0.0, 0.0]),
           np.array([0.3, -0.25, 0.15, 0.05, 0.1])]
    worst_closed = 0.0
    worst_eps = 0.0
    for k in (1, 4):
        for xi in xis:
            closed = j_main(d, k, xi)
            vals = []
            for eps in (0.25, 0.0625):
                val, _ = j_main_integral(d, k, xi, eps)
                vals.append(val)
                worst_closed = max(worst_closed,
                                   abs(val - closed) / max(1.0, abs(closed)))
            worst_eps = max(worst_eps, abs(vals[0] - vals[1]))
    return ({"d": 5, "ks": "1,4", "max_closed_err": worst_closed,
             "max_eps_dependence": worst_eps, "tol": 1e-4},
            [CheckResult("max_closed_err", worst_closed, "<", 1e-4),
             CheckResult("max_eps_dependence", worst_eps, "<", 1e-4)])


def criterion_09_approx_decay() -> tuple[dict, list]:
    """Scaled deviation between the exact multiplier and the rational
    approximation stays in a narrow band with the predicted slope."""
    rep = _pinned("decay", q_max=30, Lambda=8)
    band_check, slope_low, slope_high = rep.checks
    return {"orders": ",".join(str(r[0]) for r in rep.rows),
            "band": rep.summary["band"],
            "band_limit": band_check.threshold,
            "loglog_slope": rep.summary["loglog_slope"],
            "slope_range": f"[{slope_low.threshold},"
                           f"{slope_high.threshold}]"}, rep.checks


def _random_diag_problem(rng) -> MaxNormProblem:
    n = int(rng.integers(1, 7))
    count = int(rng.integers(1, 9))
    p = float(rng.choice([1.0, 1.5, 2.0, math.inf]))
    family = tuple(hermitian_element(np.diag(rng.uniform(-3, 3, size=n)))
                   for _ in range(count))
    return MaxNormProblem(p=p, family=family)


def criterion_10_ncmax() -> tuple[dict, list]:
    """Barrier solver against the pinching oracle, the 2x2 grid oracle,
    and its own certificate bounds."""
    rng = np.random.Generator(np.random.PCG64(10))
    worst_rel = 0.0
    sandwich_ok = True
    for _ in range(100):
        prob = _random_diag_problem(rng)
        cert = ncmax_norm(prob, tol=1e-7)
        oracle = ncmax_diag_oracle(prob)
        worst_rel = max(worst_rel, abs(cert.objective - oracle) / max(oracle, 1e-12))
        lower, upper = envelope_bounds(prob)
        if cert.objective < lower - 1e-7 * max(1.0, lower) or \
                cert.objective - cert.gap > upper + 1e-7 * max(1.0, upper):
            sandwich_ok = False
    sz = hermitian_element(np.diag([1.0, -1.0]))
    sx = hermitian_element(np.array([[0.0, 1.0], [1.0, 0.0]]))
    grid_errs = []
    for p in (2.0, math.inf):
        prob = MaxNormProblem(p=p, family=(sz, sx))
        grid = ncmax_grid_oracle_2x2(prob)
        solved = ncmax_norm(prob, tol=1e-7).objective
        grid_errs.append(abs(grid - solved) / max(grid, 1e-12))
    worst_grid = max(grid_errs)
    return ({"diag_problems": 100, "max_rel_err": worst_rel,
             "grid_rel_err": worst_grid, "sandwich_ok": sandwich_ok},
            [CheckResult("max_rel_err", worst_rel, "<", 1e-5),
             CheckResult("grid_rel_err", worst_grid, "<", 1e-4),
             CheckResult("sandwich_ok", float(sandwich_ok), "==", 1.0)])


def criterion_11_transfer_identity() -> tuple[dict, list]:
    """Orbit truncation reproduces automorphism averages exactly inside
    the guard window."""
    reps = [_pinned("transfer", family=family, n=n, p=2.0, K=4, J=J, seed=7, tol=1e-7)
            for family, n, J in (("diagonal", 2, 4), ("permutation", 3, 5))]
    dev_a, dev_b = (r.summary["truncation_identity_deviation"] for r in reps)
    return ({"dev_n2_d5": dev_a, "dev_n3_d3": dev_b, "tol": TRUNCATION_TOL},
            [c for r in reps for c in r.checks])


def criterion_12_ratio_table() -> tuple[dict, list]:
    """Maximal-ratio trend table: monotone, certified below the summed
    envelope bound, exported as CSV."""
    rep = _pinned("transfer", family="diagonal", n=2, p=2.0, K=16, seed=7,
                  tol=1e-7)
    monotone, below = rep.checks
    return ({"ratios": ",".join(f"{r[1]:.6f}" for r in rep.rows),
             "monotone": monotone.passed, "below_upper": below.passed,
             "csv": rep.csv_text()},
            [*rep.checks, CheckResult("rows", len(rep.rows), "==", 4)])


# suite name -> criterion, in run order
CRITERIA = {
    "farey-partition": criterion_01_farey_partition,
    "rep-count-oracle": criterion_02_rep_counts,
    "gauss-dft": criterion_03_gauss_dft,
    "poisson-forms": criterion_04_poisson_forms,
    "kernel-envelope": criterion_05_kernel_envelope,
    "arc-reconstruction": criterion_06_arc_reconstruction,
    "sphere-ft-oracle": criterion_07_sphere_ft,
    "mainterm-identity": criterion_08_mainterm_identity,
    "approx-decay": criterion_09_approx_decay,
    "ncmax-oracles": criterion_10_ncmax,
    "transfer-identity": criterion_11_transfer_identity,
    "ratio-table": criterion_12_ratio_table,
}


def run_criteria(names=None) -> list[RunReport]:
    reports = []
    for name, fn in CRITERIA.items():
        if names and name not in names:
            continue
        t0 = time.perf_counter()
        details, checks = fn()
        reports.append(RunReport(ExperimentConfig(name, {}), (), [], details,
                                 checks, wall_time=time.perf_counter() - t0))
    return reports
