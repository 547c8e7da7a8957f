"""Command-line interface.

Every subcommand prints an RFC-4180 CSV table (complex values as re/im
column pairs) to stdout or, with --out, to a file, and human-readable notes
to stderr; farey, ncmax and transfer build the config of their experiment
kind from their flags and print its runner's table.  Commands that carry
assertions (farey, gauss, ncmax, transfer, verify, experiment) exit 0 iff
every CheckResult passes.  Input the library rejects ends in one
``error: ...`` line on stderr and exit status 1, naming the flag at fault
where there is one: a numeric flag below its lower bound before the command
runs, a config key by the flag that set it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .acceptance import CRITERIA, run_criteria, summary_line
from .arcs import approx_total, exact_multiplier_many
from .cache import load_or_enumerate
from .errors import BudgetExceededError, ConfigError
from .experiments import (CheckResult, ExperimentConfig, csv_text, load_config,
                          make_config, run_experiment)
from .gauss import gauss_magnitude_bound, gauss_sum
from .lattice import DEFAULT_POINT_BUDGET, rep_count, rep_counts, sphere_shell

# Smallest accepted value of each numeric flag, by argparse dest; a flag
# left unset (None) is not checked.  --tol is checked as the config key tol.
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


def _run_kind(args, kind: str, params: dict):
    """Run the experiment kind on the flags' values and write its table.  A
    ConfigError names the flag that set its key: --key, but for Lambda and K."""
    try:
        report = run_experiment(make_config(kind, params))
    except ConfigError as exc:
        dest = {"Lambda": "order", "K": "cap"}.get(exc.key, exc.key)
        raise SystemExit(f"error: --{dest} {getattr(args, dest)}: "
                         f"{exc.reason}") from None
    _write_csv(args, report.columns, report.rows)
    return report


def _refuse_over_count_budget(d: int, k: int) -> None:
    """r_d(k)'s theta table has its own budget, refused naming --k."""
    try:
        rep_count(d, k)
    except BudgetExceededError as exc:
        raise SystemExit(f"error: --k {k}: {exc}") from None


def _cmd_rd(args) -> int:
    try:
        counts = rep_counts(args.d, args.max_k)
    except BudgetExceededError as exc:
        raise SystemExit(f"error: --max-k {args.max_k}: {exc}") from None
    _write_csv(args, ("k", "count"), list(enumerate(counts)))
    return 0


def _cmd_shell(args) -> int:
    _refuse_over_count_budget(args.d, args.k)
    try:
        if args.cache:
            shell = load_or_enumerate(args.d, args.k, args.cache, budget=args.budget)
        else:
            shell = sphere_shell(args.d, args.k, point_budget=args.budget)
    except BudgetExceededError as exc:
        raise SystemExit(f"error: --budget {args.budget}: {exc}") from None
    _write_csv(args, [f"x_{i + 1}" for i in range(args.d)], shell.points.tolist())
    print(f"d={args.d} k={args.k} count={shell.count}", file=sys.stderr)
    return 0


def _cmd_farey(args) -> int:
    report = _run_kind(args, "farey", {"Lambda": args.order})
    print(f"order={args.order} arcs={report.summary['arc_count']} "
          f"partition_exact={report.passed}", file=sys.stderr)
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
    check = CheckResult("within_bound", abs(val), "<=", bound + 1e-12)
    return 0 if check.passed else 1


def _write_multiplier_csv(args, xis, values, envelopes) -> None:
    cols = (*(f"xi_{i + 1}" for i in range(args.d)),
            "re", "im", "|value|", "bound_envelope")
    values = [complex(v) for v in values]
    _write_csv(args, cols, [(*map(float, xi), v.real, v.imag, abs(v), env)
                            for xi, v, env in zip(xis, values, envelopes)])


def _cmd_mult(args) -> int:
    xis = [_parse_vector(t, args.d) for t in args.xi]
    _refuse_over_count_budget(args.d, args.k)
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
    _refuse_over_count_budget(args.d, args.k)
    try:
        results = [approx_total(args.d, args.k, xi, q_max=args.q_max) for xi in xis]
    except BudgetExceededError as exc:
        raise SystemExit(f"error: --q-max {args.q_max}: {exc}") from None
    # each tail_bound bounds the dropped q > q_max part
    _write_multiplier_csv(args, xis, [r.value for r in results],
                          [r.tail_bound for r in results])
    return 0


def _cmd_ncmax(args) -> int:
    report = _run_kind(args, "ncmax", {"input": args.input, "p": args.p,
                                       "tol": args.tol})
    return 0 if report.passed else 1


def _cmd_transfer(args) -> int:
    report = _run_kind(args, "transfer", {
        "n": args.n, "p": args.p, "K": args.cap ** 2, "seed": args.seed,
        "theta": args.theta, "d": args.d, "J": args.J})
    if args.J is not None:
        dev = report.summary["truncation_identity_deviation"]
        print(f"truncation_identity_deviation = {dev!r}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    results = run_criteria(args.suite)
    for res in results:
        print(summary_line(res))
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
    print(f"wall_time = {report.wall_time:.3f}s", file=sys.stderr)
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
    p.add_argument("--J", type=int, default=None,
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
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError) as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
