"""Command-line interface.

Every subcommand prints an RFC-4180 CSV table (complex values as re/im
column pairs) to stdout or, with --out, to a file.  Commands that carry
assertions (farey, ncmax, transfer, verify, experiment) exit nonzero when
any assertion fails, so the exit code is usable in scripts.  Input the
library rejects with a ValueError or BudgetExceededError ends in one
``error: ...`` line on stderr and exit status 1; a numeric flag below its
lower bound is rejected before the command runs, naming the flag.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .acceptance import CRITERIA, run_criteria
from .arcs import approx_total, exact_multiplier_many
from .cache import load_or_enumerate
from .errors import BudgetExceededError
from .experiments import (TRANSFER_THETAS, ExperimentConfig, csv_text,
                          load_config, ncmax_checks, random_hermitian_probe,
                          ratio_table_checks, read_ncmax_problem,
                          run_experiment)
from .gauss import gauss_magnitude_bound, gauss_sum
from .lattice import DEFAULT_POINT_BUDGET, rep_counts, sphere_shell
from .ncmax import MaxNormProblem, ncmax_norm
from .transfer import (TRUNCATION_TOL, diagonal_phase_family,
                       maximal_ratio_experiment, truncation_identity_check)

_FOOTER = sys.stderr  # human-readable notes go here, tables to stdout/--out

# Smallest accepted value of each numeric flag, by argparse dest; a flag
# left unset (None) is not checked.  --tol must be > 0 instead.
_LOWER_BOUNDS = {"d": 1, "k": 0, "max_k": 0, "order": 1, "q": 1, "n": 1,
                 "p": 1, "cap": 1, "q_max": 1, "budget": 1, "seed": 0}


def _write_csv(args, columns, rows) -> None:
    text = csv_text(columns, rows)
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_vector(text: str, d: int) -> np.ndarray:
    """One --xi value: d comma-separated finite reals."""
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != d:
        raise SystemExit(f"error: --xi {text!r}: expected {d} comma-separated "
                         f"components, got {len(parts)}")
    bad = SystemExit(f"error: --xi {text!r}: expected finite real numbers")
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError:
        raise bad from None
    if not np.all(np.isfinite(vec)):
        raise bad
    return vec


def _cmd_rd(args) -> int:
    table = rep_counts(args.d, args.max_k)
    _write_csv(args, ("k", "count"), list(enumerate(table.counts)))
    return 0


def _cmd_shell(args) -> int:
    try:
        if args.cache:
            shell = load_or_enumerate(args.d, args.k, args.cache, budget=args.budget)
        else:
            shell = sphere_shell(args.d, args.k, point_budget=args.budget)
    except BudgetExceededError as exc:
        raise SystemExit(f"error: --budget {args.budget}: {exc}") from None
    cols = tuple(f"x_{i + 1}" for i in range(args.d))
    _write_csv(args, cols, [tuple(int(v) for v in pt) for pt in shell.points])
    print(f"d={args.d} k={args.k} count={shell.count}", file=_FOOTER)
    return 0


def _cmd_farey(args) -> int:
    report = run_experiment(ExperimentConfig("farey", {"Lambda": args.order}))
    _write_csv(args, report.columns, report.rows)
    print(f"order={args.order} arcs={report.summary['arc_count']} "
          f"partition_exact={report.passed}", file=_FOOTER)
    return 0 if report.passed else 1


def _cmd_gauss(args) -> int:
    if args.ell:
        try:
            l_vec = tuple(int(v) for v in args.ell.replace(",", " ").split())
        except ValueError:
            raise SystemExit(f"error: --ell expects integers: {args.ell!r}") from None
        d = len(l_vec)
    else:
        d = args.d
        l_vec = tuple([0] * d)
    if math.gcd(args.a, args.q) != 1:
        raise SystemExit(f"error: a/q = {args.a}/{args.q} is not reduced")
    val = gauss_sum(args.a, args.q, l_vec)
    bound = gauss_magnitude_bound(args.q, d)
    normalized = abs(val) * args.q ** (d / 2.0)
    row = (args.a, args.q, *l_vec, val.real, val.imag, abs(val),
           normalized, bound)
    cols = ("a", "q", *(f"l_{i + 1}" for i in range(d)),
            "re", "im", "abs", "abs_normalized", "bound")
    _write_csv(args, cols, [row])
    return 0 if abs(val) <= bound + 1e-12 else 1


def _write_multiplier_csv(args, xis, values, envelopes) -> None:
    cols = (*(f"xi_{i + 1}" for i in range(args.d)),
            "re", "im", "|value|", "bound_envelope")
    values = [complex(v) for v in values]
    _write_csv(args, cols, [(*map(float, xi), v.real, v.imag, abs(v), env)
                            for xi, v, env in zip(xis, values, envelopes)])


def _cmd_mult(args) -> int:
    xis = [_parse_vector(t, args.d) for t in args.xi]
    values = exact_multiplier_many(sphere_shell(args.d, args.k), np.array(xis))
    # the exact multiplier is an average of unit phases
    _write_multiplier_csv(args, xis, values, [1.0] * len(values))
    return 0


def _cmd_approx(args) -> int:
    if args.d < 5:
        raise SystemExit(f"error: --d {args.d}: the approximant sum needs d >= 5")
    if args.k < 1:
        raise SystemExit(f"error: --k {args.k}: the approximant needs k >= 1")
    xis = [_parse_vector(t, args.d) for t in args.xi]
    results = [approx_total(args.d, args.k, xi, q_max=args.q_max) for xi in xis]
    # each tail_bound bounds the dropped q > q_max part
    _write_multiplier_csv(args, xis, [r.value for r in results],
                          [r.tail_bound for r in results])
    return 0


def _cmd_ncmax(args) -> int:
    try:
        prob = read_ncmax_problem(args.input)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: --input {args.input}: {exc}") from None
    if args.p is not None:
        prob = MaxNormProblem(p=args.p, family=prob.family)
    cert = ncmax_norm(prob, tol=args.tol)
    lower, checks = ncmax_checks(prob, cert, args.tol)
    _write_csv(args, ("n", "N", "p", "objective", "lower_bound", "residual",
                      "gap", "newton_steps", "converged"),
               [(prob.n, len(prob.family), prob.p, cert.objective, lower,
                 cert.residual, cert.gap, cert.newton_steps, cert.converged)])
    return 0 if all(c.passed for c in checks) else 1


def _cmd_transfer(args) -> int:
    if args.window is not None and args.cap > args.window:
        # the identity is checked at sites |n|_inf <= J - cap
        raise SystemExit(f"error: --J {args.window}: the truncation identity "
                         f"needs --cap {args.cap} <= J")
    if args.theta:
        try:
            thetas = [Fraction(t) for t in args.theta.replace(",", " ").split()]
            if not thetas:
                raise ValueError
        except (ValueError, ZeroDivisionError):
            raise SystemExit(f"error: --theta {args.theta!r}: expected "
                             f"fractions or decimals like 1/3,0.2") from None
        if args.d is not None and args.d != len(thetas):
            raise SystemExit(f"error: --d {args.d} but {len(thetas)} thetas")
    else:
        d = args.d if args.d is not None else 5
        if d > len(TRANSFER_THETAS):
            raise SystemExit(f"error: give --theta explicitly for d > "
                             f"{len(TRANSFER_THETAS)}")
        thetas = TRANSFER_THETAS[:d]
    fam = diagonal_phase_family(thetas, n=args.n)
    seed = args.seed if args.seed is not None else 7
    x = random_hermitian_probe(args.n, seed)
    k_list = [lam * lam for lam in range(1, args.cap + 1)]
    rows = maximal_ratio_experiment(fam, x, k_list, args.p)
    _write_csv(args, ("K", "ratio", "lower_bound", "upper_bound",
                      "solver_gap"), rows)
    ok = all(c.passed for c in ratio_table_checks(rows))
    if args.window is not None:
        dev = truncation_identity_check(fam, x, args.window, args.cap ** 2)
        print(f"truncation_identity_deviation = {dev!r}", file=_FOOTER)
        ok = ok and dev < TRUNCATION_TOL
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    results = run_criteria(args.suite)
    for res in results:
        print(res.summary_line())
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if n_pass == len(results) else 1


def _cmd_experiment(args) -> int:
    cfg = load_config(args.file)
    if args.out is not None:
        cfg = ExperimentConfig(cfg.kind, cfg.parameters, Path(args.out))
    if args.seed is not None and "seed" in cfg.parameters:
        cfg = ExperimentConfig(cfg.kind, {**cfg.parameters, "seed": args.seed},
                               cfg.output)
    report = run_experiment(cfg)
    sys.stdout.write(report.report_text())
    if cfg.output is None:
        sys.stdout.write(report.csv_text())
    print(f"wall_time = {report.wall_time:.3f}s", file=_FOOTER)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherelab",
        description="Numerical laboratory for lattice sphere averages, "
                    "rational-arc multipliers, matrix maximal norms, and "
                    "automorphism transference.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the RNG seed where one is used")
    parser.add_argument("--out", type=str, default=None,
                        help="write the CSV table to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rd", help="representation-count table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.set_defaults(func=_cmd_rd)

    p = sub.add_parser("shell", help="integer points on a sphere shell")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cache", type=str, default=None,
                   help="cache directory (read hit or write after enumerating)")
    p.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET,
                   help="point budget for the enumeration")
    p.set_defaults(func=_cmd_shell)

    p = sub.add_parser("farey", help="major-arc partition table")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_farey)

    p = sub.add_parser("gauss", help="normalized quadratic exponential sum")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--ell", type=str, default=None,
                   help="comma-separated integer offset vector")
    p.set_defaults(func=_cmd_gauss)

    p = sub.add_parser("mult", help="exact shell multiplier at frequencies")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--xi", action="append", required=True,
                   help="comma-separated frequency vector (repeatable)")
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("approx", help="rational approximant of the multiplier")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-max", type=int, default=30)
    p.add_argument("--xi", action="append", required=True,
                   help="comma-separated frequency vector (repeatable)")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("ncmax", help="matrix maximal-norm solver")
    p.add_argument("--input", type=str, required=True,
                   help="problem file: 'n N p' then N blocks of n rows")
    p.add_argument("--p", type=float, default=None,
                   help="override the p recorded in the file")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=_cmd_ncmax)

    p = sub.add_parser("transfer", help="automorphism maximal-ratio table")
    p.add_argument("--n", type=int, default=2, help="matrix dimension")
    p.add_argument("--d", type=int, default=None,
                   help="number of commuting unitaries")
    p.add_argument("--J", dest="window", type=int, default=None,
                   help="also check the truncation identity on this window")
    p.add_argument("--cap", type=int, default=4,
                   help="radii 1..cap give the rows K = 1, 4, ..., cap^2")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--theta", type=str, default=None,
                   help="comma-separated phases, fractions ok (1/3,1/5,...)")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--suite", action="append", default=None,
                   choices=list(CRITERIA), help="criterion name (repeatable)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="run a config-file experiment")
    p.add_argument("action", choices=("run",))
    p.add_argument("file", type=str)
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, bound in _LOWER_BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None and not value >= bound:
            raise SystemExit(f"error: --{dest.replace('_', '-')} {value}: "
                             f"need {dest} >= {bound}")
    if not getattr(args, "tol", 1.0) > 0.0:
        raise SystemExit(f"error: --tol {args.tol}: need tol > 0")
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError) as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
