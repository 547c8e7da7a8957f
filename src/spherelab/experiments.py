"""Experiment runner: flat-text configs in, CSV tables and check reports out.

A config is plain ``key = value`` text, one pair per line, with ``#``
comments.  ``kind`` selects the experiment; the remaining keys are typed
(ints, floats, or short strings) and validated per kind before anything
runs.  Each run produces a RunReport carrying the row table, summary
statistics, and named threshold checks; persisted bytes are a function of
config and seed only (wall time is reported but never written), so a fixed
seed reproduces output files exactly.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .arcs import approx_total, arc_multiplier, exact_multiplier_many
from .errors import BudgetExceededError, ConfigError
from .farey import MajorArcs, farey_sequence, major_arcs, verify_partition
from .gauss import gauss_dft, gauss_magnitude_bound, gauss_sum
from .heat import heat_multiplier_direct, heat_multiplier_poisson, on_arc
from .lattice import sphere_shell
from .ncmax import MaxNormProblem, envelope_bounds, hermitian_element, ncmax_norm
from .sphere import sphere_ft_montecarlo, sphere_ft_quadrature, unit_sphere_ft
from .transfer import (TRUNCATION_TOL, AutomorphismFamily, check_orbit_budget,
                       diagonal_phase_family, maximal_ratio_experiment,
                       permutation_phase_family, trivial_family,
                       truncation_identity_check)

# Each key's type and smallest accepted value (None: unbounded); _KINDS may
# set another bound for its kind, and tol must be finite and > 0.
_KEYS = {"d": (int, 1), "L": (int, 1), "K": (int, 0), "Lambda": (int, 1),
         "q_max": (int, 1), "n": (int, 1), "seed": (int, 0), "J": (int, None),
         "p": (float, 1), "tol": (float, None), "family": (str, None),
         "input": (str, None), "theta": (str, None)}

# Fixed evaluation grid for the decay experiment: rational base frequencies
# with small denominators (where the rational approximants are actually
# active) plus small irrational offsets, kept well away from the integer
# lattice where the two order-1 arcs overlap a full neighborhood of 0.
DECAY_BASES = (
    (Fraction(1, 2), 0, 0, 0, 0),
    (Fraction(1, 2), Fraction(1, 2), 0, 0, 0),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0, 0),
    (Fraction(1, 3), 0, 0, 0, 0),
    (Fraction(1, 3), Fraction(1, 3), 0, 0, 0),
    (Fraction(2, 3), Fraction(1, 3), 0, 0, 0),
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0, 0),
    (Fraction(1, 4), Fraction(1, 2), 0, 0, 0),
    (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4), 0, 0),
    (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), 0),
    (Fraction(2, 5), Fraction(1, 5), 0, 0, 0),
    (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5), 0, 0),
    (Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)),
    (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3), 0, 0),
    (Fraction(1, 6), Fraction(1, 6), Fraction(1, 2), 0, 0),
)
DECAY_OFFSETS = (
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (0.02, 0.0, 0.0, 0.0, 0.0),
    (0.01, 0.01, 0.01, 0.01, 0.01),
    (0.015, -0.01, 0.02, 0.0, 0.0),
)
DECAY_ORDERS = (2, 3, 4, 6, 8)


def decay_grid() -> np.ndarray:
    """The 60 frequencies the decay statistic is measured over."""
    pts = [np.array([float(b) for b in base]) + np.array(off)
           for base in DECAY_BASES for off in DECAY_OFFSETS]
    return np.array(pts)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    parameters: dict
    output: Path | None = None

    def echo_lines(self) -> list[str]:
        lines = [f"kind = {self.kind}"]
        lines += [f"{k} = {_fmt(self.parameters[k])}"
                  for k in sorted(self.parameters)]
        if self.output is not None:
            lines.append(f"out = {self.output}")
        return lines


_RELATIONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
              ">=": operator.ge}


@dataclass(frozen=True)
class CheckResult:
    """A named gate that passes iff ``measured <relation> threshold``; the
    report line prints that comparison, and a NaN measurement fails it."""

    name: str
    measured: float
    relation: str
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation](self.measured, self.threshold))


@dataclass
class RunReport:
    config: ExperimentConfig
    columns: tuple
    rows: list
    summary: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    rng: str | None = None
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def csv_text(self) -> str:
        return csv_text(self.columns, self.rows)

    def report_text(self) -> str:
        """Summary + checks as flat text.  Excludes wall time by design:
        identical config and seed must give identical bytes."""
        lines = ["[config]"]
        lines += self.config.echo_lines()
        lines.append("[rng]")
        lines.append(f"generator = {self.rng if self.rng else 'none'}")
        lines.append("[summary]")
        lines += [f"{k} = {_fmt(v)}" for k, v in self.summary.items()]
        lines.append("[checks]")
        for c in self.checks:
            verdict = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name}: {verdict} measured={_fmt(c.measured)} "
                         f"{c.relation} threshold={_fmt(c.threshold)}")
        lines.append(f"result = {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def write(self, out_path) -> tuple[Path, Path]:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(self.csv_text())
        report_path = out_path.with_suffix(".report.txt")
        report_path.write_text(self.report_text())
        return out_path, report_path


def csv_text(columns, rows) -> str:
    """RFC-4180 table text with CRLF line ends, one ``_fmt`` cell per value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _rng_for(seed: int) -> tuple[np.random.Generator, str]:
    # PCG64 named explicitly so the report pins the algorithm, not just
    # the seed.
    return np.random.Generator(np.random.PCG64(seed)), f"numpy PCG64 seed={seed}"


def parse_config(text: str) -> ExperimentConfig:
    kind = None
    params: dict = {}
    out = None
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line.split()[0], f"line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in first_line:
            raise ConfigError(key, f"repeated on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        if not value:
            raise ConfigError(key, f"empty value on line {lineno}")
        if key == "kind":
            kind = value
        elif key == "out":
            out = value
        elif key in _KEYS:
            convert = _KEYS[key][0]
            try:
                params[key] = convert(value)
            except ValueError:
                expected = "an integer" if convert is int else "a number"
                raise ConfigError(key, f"expected {expected}, got {value!r}") from None
        else:
            raise ConfigError(key, "unknown key")
    return make_config(kind, params, Path(out) if out else None)


def make_config(kind: str, params: dict, output: Path | None = None) -> ExperimentConfig:
    """kind's config of params over its defaults (None leaves a key out), every
    key checked: the step parse_config ends in and the CLI's flags go through."""
    if kind not in _KINDS:
        got = "missing" if kind is None else f"unknown kind {kind!r}"
        raise ConfigError("kind", f"{got} (one of: {', '.join(_KINDS)})")
    _, required, defaults, kind_bounds = _KINDS[kind]
    for key in required:
        if key not in params:
            raise ConfigError(key, f"required for kind = {kind}")
    for key in params:
        if key not in defaults and key not in required:
            raise ConfigError(key, f"not a parameter of kind = {kind}")
    merged = {k: v for k, v in defaults.items() if v is not None}
    merged.update((k, v) for k, v in params.items() if v is not None)
    for key, value in merged.items():
        bound = kind_bounds.get(key, _KEYS[key][1])
        if bound is not None and not value >= bound:
            raise ConfigError(key, f"must be >= {bound}, got {value}")
    if not merged.get("tol", 1.0) > 0.0:
        raise ConfigError("tol", "need tol > 0")
    if not math.isfinite(merged.get("tol", 1.0)):
        raise ConfigError("tol", "need a finite tol")
    # the permutation family is fixed at 3x3 and the n default (2) serves
    # the other families, so only an n written in the config is checked
    if kind == "transfer" and params.get("family") == "permutation" \
            and params.get("n", 3) != 3:
        raise ConfigError("n", f"the permutation family has n = 3, got {params['n']}")
    return ExperimentConfig(kind=kind, parameters=merged, output=output)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    t0 = time.perf_counter()
    report = _KINDS[cfg.kind][0](cfg)
    report.wall_time = time.perf_counter() - t0
    if cfg.output is not None:
        report.write(cfg.output)
    return report


# ---------------------------------------------------------------- runners

def _lambda_arcs(order: int) -> MajorArcs:
    """major_arcs of the Farey order set by the config key Lambda."""
    try:
        return major_arcs(farey_sequence(order))
    except BudgetExceededError as exc:
        raise ConfigError("Lambda", str(exc)) from exc


def _run_farey(cfg: ExperimentConfig) -> RunReport:
    order = cfg.parameters["Lambda"]
    arcs = _lambda_arcs(order)
    rows = [(arc.center.numerator, arc.center.denominator,
             arc.left.numerator, arc.left.denominator,
             arc.right.numerator, arc.right.denominator) for arc in arcs]
    widths = [float(arc.right - arc.left) for arc in arcs]
    partition_ok = verify_partition(arcs)
    checks = [CheckResult("partition_exact", float(partition_ok), "==", 1.0)]
    summary = {"order": order, "arc_count": len(arcs),
               "min_width": min(widths), "max_width": max(widths)}
    return RunReport(cfg, ("a", "q", "left_num", "left_den",
                           "right_num", "right_den"), rows, summary, checks)


def _run_gauss(cfg: ExperimentConfig) -> RunReport:
    P = cfg.parameters
    d, q_max, n_k, tol = P["d"], P["q_max"], P["L"], P["tol"]
    rng, rng_label = _rng_for(P["seed"])
    ks = rng.integers(-10, 11, size=(n_k, d))
    rows = []
    worst_dft = 0.0
    worst_mag_ratio = 0.0
    for q in range(1, q_max + 1):
        for a in range(q):
            if math.gcd(a, q) != 1:
                continue
            dft_err = 0.0
            for k in ks:
                kk = tuple(int(v) for v in k)
                target = np.exp(2j * np.pi * ((sum(v * v for v in kk) * a) % q) / q)
                dft_err = max(dft_err, abs(gauss_dft(a, q, kk) - target))
            mag = max(abs(gauss_sum(a, q, tuple(int(v) for v in k))) for k in ks)
            bound = gauss_magnitude_bound(q, d)
            rows.append((a, q, dft_err, mag, bound))
            worst_dft = max(worst_dft, dft_err)
            worst_mag_ratio = max(worst_mag_ratio, mag / bound)
    checks = [
        CheckResult("dft_identity_max_err", worst_dft, "<", tol),
        CheckResult("magnitude_within_bound", worst_mag_ratio, "<=", 1.0 + 1e-12),
    ]
    summary = {"d": d, "q_max": q_max, "k_samples": n_k,
               "max_dft_err": worst_dft, "max_mag_over_bound": worst_mag_ratio}
    return RunReport(cfg, ("a", "q", "dft_err", "max_abs", "bound"),
                     rows, summary, checks, rng=rng_label)


def _run_poisson(cfg: ExperimentConfig) -> RunReport:
    P = cfg.parameters
    d, n_draws, tol = P["d"], P["L"], P["tol"]
    rng, rng_label = _rng_for(P["seed"])
    rows = []
    worst = 0.0
    for eps in (1.0, 0.25, 0.0625):
        for _ in range(n_draws):
            q = int(rng.integers(1, 9))
            a = int(rng.integers(0, q))
            while math.gcd(a, q) != 1:
                a = int(rng.integers(0, q))
            t = float(rng.uniform(-0.5, 0.5)) / (q * q)
            xi = rng.uniform(-0.5, 0.5, size=d)
            params = on_arc(eps, a, q, t)
            direct = complex(np.atleast_1d(
                heat_multiplier_direct(params, xi, tol=1e-14).value)[0])
            poisson = complex(heat_multiplier_poisson(params, xi, tol=1e-14).value)
            rel = abs(direct - poisson) / max(abs(direct), abs(poisson), 1e-300)
            worst = max(worst, rel)
            rows.append((d, eps, a, q, t, direct.real, direct.imag,
                         poisson.real, poisson.imag, rel))
    checks = [CheckResult("direct_vs_poisson_rel", worst, "<", tol)]
    summary = {"d": d, "draws_per_eps": n_draws, "max_rel_err": worst}
    return RunReport(cfg, ("d", "eps", "a", "q", "t", "direct_re", "direct_im",
                           "poisson_re", "poisson_im", "rel_err"),
                     rows, summary, checks, rng=rng_label)


def _run_decay(cfg: ExperimentConfig) -> RunReport:
    P = cfg.parameters
    q_max = P["q_max"]
    orders = [v for v in DECAY_ORDERS if v <= P["Lambda"]]
    if not orders:
        raise ConfigError("Lambda", "below the smallest ladder order 2")
    grid = decay_grid()
    rows = []
    sups = []
    for order in orders:
        sup_dev = 0.0
        lam_at = order
        for lam in range(order, 2 * order):
            k = lam * lam
            shell = sphere_shell(5, k)
            exact = exact_multiplier_many(shell, grid)
            approx = np.array([approx_total(5, k, xi, q_max=q_max).value
                               for xi in grid])
            dev = float(np.abs(exact - approx).max())
            if dev > sup_dev:
                sup_dev, lam_at = dev, lam
        sups.append(sup_dev)
        rows.append((order, lam_at, sup_dev, sup_dev * math.sqrt(order)))
    normalized = [s * math.sqrt(o) for s, o in zip(sups, orders)]
    band = max(normalized) / min(normalized)
    slope = float(np.polyfit(np.log(orders), np.log(sups), 1)[0]) \
        if len(orders) > 1 else 0.0
    checks = [
        CheckResult("normalized_band", band, "<=", 3.0),
        CheckResult("loglog_slope_low", slope, ">=", -0.8),
        CheckResult("loglog_slope_high", slope, "<=", -0.2),
    ]
    summary = {"q_max": q_max, "grid_points": len(grid), "band": band,
               "loglog_slope": slope}
    return RunReport(cfg, ("order", "lam_at_sup", "sup_dev", "normalized"),
                     rows, summary, checks)


def n_polar(d: int, rho: float) -> int:
    """Polar nodes per angle for the product quadrature at radius rho (the
    azimuth gets three times as many); d = 3 affords more than d >= 4."""
    if d == 3:
        return max(32, 24 * math.ceil(rho))
    return min(48, 32 + 8 * max(0, math.ceil(rho) - 1))


def _run_sphere_ft(cfg: ExperimentConfig) -> RunReport:
    """Closed form against the product quadrature at xi = rho e_1, with
    n_polar(d, rho) polar nodes, and against Monte Carlo at rho = 1."""
    P = cfg.parameters
    d, n_mc, tol = P["d"], P["L"], P["tol"]
    rng_label = f"numpy PCG64 seed={P['seed']}"
    rhos = [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0]
    if d >= 4:
        # the angle grid has n_polar^(d-2) * n_azimuth points, so high
        # frequencies are only affordable in low dimension
        rhos = [r for r in rhos if r <= 3.0]
    rows = []
    worst = 0.0
    for rho in rhos:
        closed = float(unit_sphere_ft(d, rho))
        n = n_polar(d, rho)
        quad = sphere_ft_quadrature(d, np.eye(d)[0] * rho, n_polar=n, n_azimuth=3 * n)
        err = abs(closed - quad)
        worst = max(worst, err)
        rows.append((rho, closed, quad, err))
    checks = [CheckResult("quadrature_abs_err", worst, "<", tol)]
    summary = {"d": d, "max_quad_err": worst,
               "value_at_zero": float(unit_sphere_ft(d, 0.0))}
    if n_mc > 0:
        mc = sphere_ft_montecarlo(d, 1.0, n_samples=n_mc, seed=P["seed"])
        closed1 = float(unit_sphere_ft(d, 1.0))
        mc_err = abs(mc - closed1)
        mc_tol = 30.0 / math.sqrt(n_mc)
        checks.append(CheckResult("montecarlo_abs_err", mc_err, "<", mc_tol))
        summary["montecarlo_at_1"] = mc
    return RunReport(cfg, ("rho", "closed_form", "quadrature", "abs_err"),
                     rows, summary, checks, rng=rng_label)


def read_ncmax_problem(path) -> MaxNormProblem:
    """Matrix family file: first line ``n N p``, then N blocks of n lines,
    each line n finite complex entries like ``0.5-0.25j`` (plain reals fine).
    Every ValueError names the file line it is about."""
    text = Path(path).read_text().splitlines()
    lines = [(no, ln.split()) for no, ln in enumerate(text, start=1)
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty problem file")
    head_no, head = lines[0]
    try:
        n, count = int(head[0]), int(head[1])
        p = math.inf if head[2] == "inf" else float(head[2])
        if len(head) != 3 or n < 1 or count < 1 or not p >= 1.0:
            raise ValueError
    except (ValueError, IndexError):
        raise ValueError(f"line {head_no}: expected 'n N p' with n, N >= 1 "
                         f"and p >= 1, got {' '.join(head)!r}") from None
    body = lines[1:]
    if len(body) != n * count:
        no = body[n * count][0] if len(body) > n * count else len(text)
        raise ValueError(f"line {no}: expected {n * count} matrix rows after "
                         f"line {head_no}, got {len(body)}")
    family = []
    for j in range(count):
        block = body[j * n:(j + 1) * n]
        rows = []
        for no, toks in block:
            if len(toks) != n:
                raise ValueError(f"line {no}: expected {n} entries, got {len(toks)}")
            try:
                rows.append([complex(tok) for tok in toks])
            except ValueError as exc:
                raise ValueError(f"line {no}: {exc}") from None
            if not np.isfinite(rows[-1]).all():
                raise ValueError(f"line {no}: entries must be finite, got "
                                 f"{' '.join(toks)!r}")
        try:
            family.append(hermitian_element(rows))
        except ValueError as exc:
            raise ValueError(f"lines {block[0][0]}-{block[-1][0]}: {exc}") from None
    return MaxNormProblem(p=p, family=tuple(family))


def _run_ncmax(cfg: ExperimentConfig) -> RunReport:
    P = cfg.parameters
    try:
        prob = read_ncmax_problem(P["input"])
    except (OSError, ValueError) as exc:
        raise ConfigError("input", str(exc)) from None
    if "p" in P:
        prob = MaxNormProblem(p=P["p"], family=prob.family)
    cert = ncmax_norm(prob, tol=P["tol"])
    lower = envelope_bounds(prob)[0]
    checks = [
        CheckResult("converged", float(cert.converged), "==", 1.0),
        CheckResult("lower_sandwich", cert.objective, ">=",
                    lower - P["tol"] * max(lower, 1.0)),
        CheckResult("gap_nonnegative", cert.gap, ">=", -1e-12),
    ]
    rows = [(prob.n, len(prob.family), prob.p, cert.objective, lower,
             cert.residual, cert.gap, cert.newton_steps, cert.converged)]
    summary = {"objective": cert.objective, "gap": cert.gap,
               "residual": cert.residual}
    return RunReport(cfg, ("n", "N", "p", "objective", "lower_bound", "residual",
                           "gap", "newton_steps", "converged"), rows, summary, checks)


# Probe for transfer runs.  A generic hermitian: anything too symmetric
# (e.g. a single Pauli) keeps every shell average parallel to the probe
# and the ratio table degenerates to a constant.
def random_hermitian_probe(n: int, seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitian_element(0.5 * (m + m.conj().T))


TRANSFER_THETAS = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                   Fraction(1, 11), Fraction(1, 13))


def _transfer_family(P: dict) -> AutomorphismFamily:
    """The family set by the keys family and n; a diagonal one takes its
    phases from theta, by default the first d (5) of TRANSFER_THETAS."""
    family = P["family"]
    for key in ("theta", "d"):
        if key in P and family != "diagonal":
            raise ConfigError(key, f"sets the diagonal family, not a {family} one")
    if family == "permutation":
        return permutation_phase_family()
    if family == "trivial":
        return trivial_family(P["n"], 5)
    if family != "diagonal":
        raise ConfigError("family", f"unknown family {family!r}")
    thetas = TRANSFER_THETAS[:P.get("d")]
    if "theta" in P:
        try:
            thetas = [Fraction(t) for t in P["theta"].replace(",", " ").split()]
        except (ValueError, ZeroDivisionError):
            thetas = []
        if not thetas:
            raise ConfigError("theta", "expected fractions or decimals like 1/3,0.2")
    if P.get("d", len(thetas)) != len(thetas):
        raise ConfigError("d", f"needs {P['d']} phases, got {len(thetas)} from theta")
    return diagonal_phase_family(thetas, n=P["n"])


def _run_transfer(cfg: ExperimentConfig) -> RunReport:
    """The ratio table at K = 1, 4, ..., isqrt(K)^2, monotone and below its
    upper bound up to the gaps (each norm is certified within [ratio - gap,
    ratio]); with J, also the truncation identity on |n|_inf <= J."""
    P = cfg.parameters
    family_name, p, k_cap, tol = P["family"], P["p"], P["K"], P["tol"]
    fam = _transfer_family(P)
    radius = math.isqrt(k_cap)
    if P.get("J", radius) < radius:
        raise ConfigError("J", f"needs J >= {radius}, the largest shell radius")
    if "J" in P:
        try:
            check_orbit_budget(fam, P["J"])
        except BudgetExceededError as exc:
            raise ConfigError("J", str(exc)) from exc
    x = random_hermitian_probe(fam.n, P["seed"])
    k_list = [j * j for j in range(1, radius + 1)]
    try:
        rows = maximal_ratio_experiment(fam, x, k_list, p, tol=tol)
    except BudgetExceededError as exc:
        # the count and twisted tables up to K, built before any solve
        raise ConfigError("K", str(exc)) from exc
    min_step = min((b[1] - a[1] + a[4] + b[4] for a, b in zip(rows, rows[1:])),
                   default=0.0)
    checks = [
        CheckResult("monotone_nondecreasing", min_step, ">=", 0.0),
        CheckResult("ratio_below_upper", max(r[1] - r[4] - r[3] for r in rows),
                    "<=", 1e-9),
    ]
    if family_name == "trivial":
        dev = max(abs(r[1] - 1.0) for r in rows)
        checks.append(CheckResult("trivial_ratio_one", dev, "<=", 1e-6))
    summary = {"family": family_name, "p": p,
               "max_ratio": max(r[1] for r in rows)}
    if "J" in P:
        dev = truncation_identity_check(fam, x, P["J"], k_list[-1])
        summary["truncation_identity_deviation"] = dev
        checks.append(CheckResult("truncation_identity", dev, "<", TRUNCATION_TOL))
    return RunReport(cfg, ("K", "ratio", "lower_bound", "upper_bound",
                           "solver_gap"), rows, summary, checks,
                     rng=f"numpy PCG64 seed={P['seed']}")


def _run_reconstruct(cfg: ExperimentConfig) -> RunReport:
    P = cfg.parameters
    d, k, order, n_xi, tol = P["d"], P["K"], P["Lambda"], P["L"], P["tol"]
    rng, rng_label = _rng_for(P["seed"])
    xis = rng.uniform(-0.5, 0.5, size=(n_xi, d))
    arcs = _lambda_arcs(order)
    exact = exact_multiplier_many(sphere_shell(d, k), xis)
    eps = float(order) ** -2.0
    rows = []
    worst = 0.0
    for xi, m_exact in zip(xis, exact):
        total = sum(arc_multiplier(d, k, arc, xi, eps) for arc in arcs)
        err = abs(total - complex(m_exact))
        worst = max(worst, err)
        rows.append((*[float(v) for v in xi], float(m_exact),
                     total.real, total.imag, err))
    checks = [CheckResult("reconstruction_abs_err", worst, "<", tol)]
    summary = {"d": d, "k": k, "order": order, "arcs": len(arcs),
               "max_abs_err": worst}
    cols = tuple(f"xi_{i + 1}" for i in range(d)) + \
        ("exact", "arcsum_re", "arcsum_im", "abs_err")
    return RunReport(cfg, cols, rows, summary, checks, rng=rng_label)


# Each kind's runner, required keys, optional keys with defaults (None: a key
# left out is not echoed) and the bounds that differ from _KEYS': sphere_ft
# needs a sphere in d >= 2, and L = 0 there skips the Monte Carlo run; a
# transfer table needs at least K = 1.  A key not listed for the kind is
# rejected by name.
_KINDS = {
    "farey": (_run_farey, ("Lambda",), {}, {}),
    "gauss": (_run_gauss, (), {"d": 5, "q_max": 12, "L": 20, "seed": 0,
                               "tol": 1e-12}, {}),
    "poisson_check": (_run_poisson, ("d",), {"L": 20, "seed": 0, "tol": 1e-8}, {}),
    "decay": (_run_decay, (), {"q_max": 30, "Lambda": 8}, {}),
    "sphere_ft": (_run_sphere_ft, ("d",), {"L": 200_000, "seed": 0, "tol": 1e-8},
                  {"d": 2, "L": 0}),
    "ncmax": (_run_ncmax, ("input",), {"tol": 1e-7, "p": None}, {}),
    "transfer": (_run_transfer, (), {"family": "diagonal", "n": 2, "p": 2.0,
                                     "K": 16, "seed": 7, "tol": 1e-7, "theta": None,
                                     "d": None, "J": None}, {"K": 1}),
    "reconstruct": (_run_reconstruct, ("d", "K"), {"Lambda": 2, "L": 8, "seed": 0,
                                                   "tol": 1e-6}, {}),
}
