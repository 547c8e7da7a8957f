"""Seeded request streams for the three workloads, their execution through
spherelab's public API, and the oracle check for every request.

A stream is a sequence of rounds.  Round r is generated from
``numpy.random.default_rng([seed, r])`` alone, so a seed fixes the whole
stream however far a run gets into it.  The parameters that set a
request's cost (matrix size n and shell cap K, quadrature size, Farey
order, cache radius) follow a fixed schedule over the rounds, and the
seed draws everything else; so every seed gives a stream of nearly the
same cost, and a run's figures do not hinge on its seed.

Correctness comes from oracles, second code paths and the criterion-09
gates, never from pinned outputs.  Checks run after the timed phase and
with tracing off, so they cost neither latency nor per-layer time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from spherelab import arcs, cache, farey, gauss, heat, lattice, ncmax, sphere, transfer
from spherelab.experiments import decay_grid


@dataclass(frozen=True)
class Request:
    kind: str
    key: tuple       # starts with the round; unique within a stream
    params: tuple


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _stratum(r: int, strata: int) -> int:
    """Stratum of round r: steps of 5 through range(strata), each once per cycle."""
    return (5 * r) % strata


def _hermitian(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


class Workload:
    """Base: rounds on demand, dispatch by request kind."""

    name = ""
    # A run stops only between rounds when a round is short and its requests
    # differ in cost by orders of magnitude: stopping inside such a round
    # makes requests/s a sawtooth in the run length.
    whole_rounds = True

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch   # per-phase directory for files requests write

    def round(self, r: int) -> list[Request]:
        raise NotImplementedError

    def execute(self, req: Request):
        return getattr(self, "run_" + req.kind)(*req.params)

    def check(self, req: Request, result, results: dict) -> str | None:
        """None if the result passes its oracle, else what failed."""
        return getattr(self, "check_" + req.kind)(req, result, results)

    def finish(self, results: dict) -> list[tuple[str, str | None]]:
        """Run-level gates as (name, failure or None); none by default."""
        return []


# ---------------------------------------------------------------------------
# decay: the criterion-09 ladder of rational approximants


DECAY_D = 5
DECAY_ORDERS = (2, 3, 4, 6, 8)
DECAY_Q_MAX = 30
GENERIC_PER_RUNG = 90


class Decay(Workload):
    """Rungs k = lam^2, lam in [L, 2L), L in DECAY_ORDERS (23 rungs).

    A round is one pass over the ladder: first one ``exact`` request per
    rung in ladder order (shell plus batch multiplier over the rung's
    frequencies), then the ``approx`` requests, one per rung and frequency,
    swept across the rungs in seeded order so that any prefix of the round
    samples every rung alike.  Each rung's frequencies are the 60
    decay_grid() points and GENERIC_PER_RUNG seeded generic points; generic
    points outnumber grid points, so the median request is a generic one
    and p90 a rational one.
    """

    name = "decay"
    # a round (about 3500 requests) outlasts a run, and its approximant
    # requests are swept across the rungs, so any prefix is representative
    whole_rounds = False

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.grid = decay_grid()
        self.rungs = [(order, lam * lam) for order in DECAY_ORDERS
                      for lam in range(order, 2 * order)]

    def round(self, r):
        rng = _rng(self.seed, r)
        freqs = [np.vstack([self.grid, rng.uniform(-0.5, 0.5, (GENERIC_PER_RUNG, DECAY_D))])
                 for _ in self.rungs]
        reqs = [Request("exact", (r, i), (k, freqs[i]))
                for i, (_, k) in enumerate(self.rungs)]
        order = rng.permutation(len(self.rungs))
        perms = [rng.permutation(len(f)) for f in freqs]
        for j in range(len(freqs[0])):
            for i in order:
                idx = int(perms[i][j])
                reqs.append(Request("approx", (r, int(i), idx),
                                    (self.rungs[i][1], freqs[i][idx])))
        return reqs

    def run_exact(self, k, freqs):
        shell = lattice.sphere_shell(DECAY_D, k)
        return shell, arcs.exact_multiplier_many(shell, freqs)

    def run_approx(self, k, xi):
        return arcs.approx_total(DECAY_D, k, xi, q_max=DECAY_Q_MAX)

    def check_exact(self, req, result, results):
        k, freqs = req.params
        shell, values = result
        if shell.count != lattice.rep_counts(DECAY_D, k)[k]:
            return f"k={k}: {shell.count} shell points, counting table disagrees"
        if ((shell.points ** 2).sum(axis=1) != k).any():
            return f"k={k}: shell point off the sphere"
        single = np.array([arcs.exact_multiplier(shell, xi) for xi in freqs])
        err = float(np.abs(values - single).max())
        if not err <= 1e-12:
            return f"k={k}: batch vs single-point multiplier differ by {err:.3e}"
        if not float(np.abs(values).max()) <= 1.0 + 1e-12:
            return f"k={k}: |m| > 1"
        return None

    def check_approx(self, req, result, results):
        k, xi = req.params
        if result.q_max != DECAY_Q_MAX or not np.isfinite(result.value) \
                or not 0.0 < result.tail_bound < math.inf:
            return f"k={k}: malformed approximant {result}"
        return None

    def finish(self, results):
        """Criterion-09 band and slope gates over round 0's grid points.

        Grid requests of round 0 that the timed phase did not reach are
        executed here, untimed; the gate counts as one operation.
        """
        n_grid = len(self.grid)
        sups = {order: 0.0 for order in DECAY_ORDERS}
        try:
            for i, (order, k) in enumerate(self.rungs):
                exact_key = (0, i)
                if exact_key in results:
                    exact = results[exact_key][1]     # grid rows come first
                else:
                    exact = self.run_exact(k, self.grid)[1]
                for idx in range(n_grid):
                    got = results.get((0, i, idx))
                    value = got.value if got is not None else \
                        self.run_approx(k, self.grid[idx]).value
                    sups[order] = max(sups[order], abs(exact[idx] - value))
        except Exception as exc:  # a gate that cannot be evaluated has failed
            return [("approx-decay", f"{type(exc).__name__}: {exc}")]
        sup = [sups[o] for o in DECAY_ORDERS]
        normalized = [s * math.sqrt(o) for s, o in zip(sup, DECAY_ORDERS)]
        band = max(normalized) / min(normalized)
        slope = float(np.polyfit(np.log(DECAY_ORDERS), np.log(sup), 1)[0])
        if band <= 3.0 and -0.8 <= slope <= -0.2:
            return [("approx-decay", None)]
        return [("approx-decay", f"band={band:.4g} (limit 3), slope={slope:.4g} "
                                 f"(range [-0.8,-0.2])")]


# ---------------------------------------------------------------------------
# transfer: commuting-unitary orbits, maximal ratios, truncation identity

TRANSFER_D = 5
RATIO_N = (2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6)   # 16 per round
RATIO_K = 16
RATIO_P = (1.5, 2.0, 3.0)
LARGE_N = 8


class Transfer(Workload):
    """Rounds of 20 or 21 requests, in a fixed order of kinds.

    16 ``ratio`` requests with n from RATIO_N, every K in 1..16 once and p
    from RATIO_P, the pairing rotating by one step per round; in even
    rounds one more ``ratio`` request at n=8, K stepping through 1..16
    across those rounds;
    three ``truncation`` requests (twice the d=5 diagonal family n=2
    window 4, once the d=3 permutation family window 5, all cap^2=4); one
    ``ncmax`` request on a random simultaneously diagonal family.  The d=5
    truncations cost the same each time and are about 10 % of the stream,
    with only the n=8 and the largest n=6 ratios above them, so p90 is one
    of them.
    """

    name = "transfer"

    def round(self, r):
        rng = _rng(self.seed, r)
        ratios = [("ratio", self._ratio_params(rng, n, (i + r) % RATIO_K + 1,
                                               RATIO_P[(i + r) % len(RATIO_P)]))
                  for i, n in enumerate(RATIO_N)]
        if r % 2 == 0:
            k8 = _stratum(r // 2, RATIO_K) + 1
            ratios.append(("ratio", self._ratio_params(rng, LARGE_N, k8, RATIO_P[r // 2 % 3])))
        diagonal = [("truncation", ("diagonal", tuple(rng.uniform(0, 1, TRANSFER_D)),
                                    _hermitian(rng, 2), 4)) for _ in range(2)]
        n = int(rng.integers(1, 7))
        count = int(rng.integers(1, 9))
        p = float(rng.choice([1.0, 1.5, 2.0, math.inf]))
        others = [diagonal[0],
                  ("ncmax", (p, tuple(rng.uniform(-3, 3, size=n) for _ in range(count)))),
                  ("truncation", ("permutation", (), _hermitian(rng, 3), 5)),
                  diagonal[1]]
        # every kind appears within the first few requests of a round, so a
        # short prefix (the traced run's) still reaches every layer
        items = []
        for j, other in enumerate(others):
            items.append(other)
            items.extend(ratios[4 * j:4 * j + 4])
        items.extend(ratios[16:])
        return [Request(kind, (r, pos), params) for pos, (kind, params) in enumerate(items)]

    @staticmethod
    def _ratio_params(rng, n, k_top, p):
        return (tuple(rng.uniform(0, 1, TRANSFER_D)), n, _hermitian(rng, n), k_top, p)

    def run_ratio(self, thetas, n, probe, k_top, p):
        fam = transfer.diagonal_phase_family(thetas, n)
        x = ncmax.hermitian_element(probe)
        return transfer.maximal_ratio_experiment(fam, x, [k_top], p)

    def run_truncation(self, family, thetas, probe, window):
        if family == "diagonal":
            fam = transfer.diagonal_phase_family(thetas, 2)
        else:
            fam = transfer.permutation_phase_family()
        return transfer.truncation_identity_check(fam, ncmax.hermitian_element(probe),
                                                  window=window, k_cap_sq=4)

    def run_ncmax(self, p, diagonals):
        family = tuple(ncmax.hermitian_element(np.diag(v)) for v in diagonals)
        prob = ncmax.MaxNormProblem(p=p, family=family)
        return prob, ncmax.ncmax_norm(prob, tol=1e-7)

    def check_ratio(self, req, rows, results):
        k_top = req.params[3]
        if len(rows) != 1 or rows[0][0] != k_top:
            return f"K={k_top}: expected one row, got {rows}"
        _, ratio, lower, upper, gap = rows[0]
        if not all(np.isfinite([ratio, lower, upper, gap])) or gap < 0:
            return f"K={k_top}: non-finite row or negative gap {rows[0]}"
        if ratio < lower - 1e-7 * max(1.0, lower):
            return f"K={k_top}: ratio {ratio!r} below lower bound {lower!r}"
        if ratio - gap > upper + 1e-7 * max(1.0, upper):
            return f"K={k_top}: ratio {ratio!r} - gap above upper bound {upper!r}"
        return None

    def check_truncation(self, req, dev, results):
        if not dev < 1e-10:
            return f"{req.params[0]} family: truncation deviation {dev:.3e}"
        return None

    def check_ncmax(self, req, result, results):
        prob, cert = result
        oracle = ncmax.ncmax_diag_oracle(prob)
        err = abs(cert.objective - oracle) / max(oracle, 1e-12)
        if not err < 1e-5:
            return f"n={prob.n} p={prob.p}: solver vs pinching oracle rel. err {err:.3e}"
        return None


# ---------------------------------------------------------------------------
# oracle-mix: the criteria 01-08 style oracle pairs

FAREY_ORDERS = (20, 200)
CACHE_K_MAX = 400
STRATA = 8
HEAT_CASES = [(d, eps) for d in (2, 3, 5) for eps in (1.0, 0.25, 0.0625)]
HEAT_PER_ROUND = 16
HEAT_Q_MAX = 8
HEAT_XI = 8             # frequencies per heat request, so that p50 is not a lone call


def _in_stratum(rng, r: int, lo: int, hi: int) -> int:
    """An integer in [lo, hi], uniform within round r's stratum of STRATA."""
    return lo + int((_stratum(r, STRATA) + rng.random()) * (hi - lo + 1) / STRATA)


class OracleMix(Workload):
    """Rounds of 25 requests, in a fixed order of kinds.

    One farey request (sequence, arcs, partition, 20 lookups); 16 heat
    requests (direct vs Poisson at HEAT_XI frequencies) taking the (d, eps)
    cases and q = 1..HEAT_Q_MAX in turn, spread between the others; one
    arc-sum (arc pieces vs exact multiplier); one gauss-dft (every a at one
    modulus q <= 60); quadrature vs closed form once at d=3 and three times
    at d=5, with n_polar 32, 40 and 48; and a cache miss followed by a
    cache hit of the same shell.  Heat requests are 64 % of the stream, so
    p50 is a heat request.  The d=5 quadratures are 12 %, so p90 falls in
    the middle of the n_polar=32 third of them.
    """

    name = "oracle-mix"

    def round(self, r):
        rng = _rng(self.seed, r)
        lookups = tuple(float(v) for v in rng.uniform(0, 1, 16)) + \
            tuple(int(v) for v in rng.integers(0, 1 << 30, 4))
        others = [("farey", (_in_stratum(rng, r, *FAREY_ORDERS), lookups))]
        heats = []
        for i in range(HEAT_PER_ROUND):
            j = HEAT_PER_ROUND * r + i
            d, eps = HEAT_CASES[j % len(HEAT_CASES)]
            q = 1 + j % HEAT_Q_MAX
            a = 0 if q == 1 else int(rng.choice([v for v in range(1, q) if math.gcd(v, q) == 1]))
            t = float(rng.uniform(-0.5, 0.5)) / (q * q)
            heats.append(("heat", (d, eps, a, q, t, rng.uniform(-0.5, 0.5, (HEAT_XI, d)))))
        others.append(("arcsum", (int(rng.integers(2, 5)), int(rng.integers(1, 10)),
                                  rng.uniform(-0.5, 0.5, 5))))
        others.append(("gauss_dft", (_in_stratum(rng, r, 1, 60),
                                     tuple(int(v) for v in rng.integers(-10, 11, size=5)))))
        others.append(("quadrature", (3, float(rng.uniform(0.1, 5.0)), self._direction(rng, 3))))
        for band in range(3):                       # n_polar 32, 40, 48
            rho = band + float(rng.uniform(0.1 if band == 0 else 0.0, 1.0))
            others.append(("quadrature", (5, rho, self._direction(rng, 5))))
        cache_params = (f"r{r}", (3, 4, 5)[r % 3], _in_stratum(rng, r, 1, CACHE_K_MAX))
        others.append(("cache_miss", cache_params))
        # the heat requests are spread through the round, so that p50 is
        # taken over many moments of the run rather than one burst per round
        items = []
        for chunk, other in zip(np.array_split(np.arange(HEAT_PER_ROUND), len(others)), others):
            miss_pos = len(items)               # of the last one, the cache miss
            items.append(other)
            items.extend(heats[i] for i in chunk)
        items.append(("cache_hit", cache_params + ((r, miss_pos),)))
        return [Request(kind, (r, pos), params) for pos, (kind, params) in enumerate(items)]

    @staticmethod
    def _direction(rng, d):
        v = rng.normal(size=d)
        return v / np.linalg.norm(v)

    def run_farey(self, order, lookups):
        seq = farey.farey_sequence(order)
        arc_list = farey.major_arcs(seq)
        ok = farey.verify_partition(arc_list)
        points = [v if isinstance(v, float) else arc_list[v % len(arc_list)].left
                  for v in lookups]
        return seq, arc_list, ok, [farey.locate_arc(v, arc_list) for v in points], points

    def run_heat(self, d, eps, a, q, t, xis):
        params = heat.on_arc(eps, a, q, t)
        return [(complex(heat.heat_multiplier_direct(params, xi, tol=1e-14).value),
                 complex(heat.heat_multiplier_poisson(params, xi, tol=1e-14).value))
                for xi in xis]

    def run_arcsum(self, order, k, xi):
        arc_list = farey.major_arcs(farey.farey_sequence(order))
        eps = float(order) ** -2.0
        total = sum(arcs.arc_multiplier(5, k, arc, xi, eps) for arc in arc_list)
        exact = arcs.exact_multiplier_many(lattice.sphere_shell(5, k), xi[None, :])[0]
        return total, exact

    def run_gauss_dft(self, q, k):
        return {a: gauss.gauss_dft(a, q, k) for a in range(q) if math.gcd(a, q) == 1}

    def run_quadrature(self, d, rho, direction):
        if d == 3:
            n_polar = max(32, 24 * math.ceil(rho))
        else:
            n_polar = 32 + 8 * max(0, math.ceil(rho) - 1)
        quad = sphere.sphere_ft_quadrature(d, rho * direction, n_polar=n_polar,
                                           n_azimuth=3 * n_polar)
        return quad, float(sphere.unit_sphere_ft(d, rho))

    def run_cache_miss(self, subdir, d, k):
        return cache.load_or_enumerate(d, k, self.scratch / subdir)

    def run_cache_hit(self, subdir, d, k, miss_key):
        return cache.load_or_enumerate(d, k, self.scratch / subdir)

    def check_farey(self, req, result, results):
        order = req.params[0]
        seq, arc_list, ok, located, points = result
        if not ok:
            return f"order {order}: arcs do not tile [0,1]"
        phi = list(range(order + 1))
        for i in range(2, order + 1):
            if phi[i] == i:
                for j in range(i, order + 1, i):
                    phi[j] -= phi[j] // i
        if len(seq) != 1 + sum(phi[1:]):
            return f"order {order}: {len(seq)} fractions, totient count disagrees"
        by_center = {arc.center: arc for arc in arc_list}
        for s, (center, t) in zip(points, located):
            s = Fraction(s)
            if center + t != s or not by_center[center].contains(s) \
                    or not abs(t) < Fraction(1, center.denominator * order):
                return f"order {order}: lookup of {s} returned arc {center}, offset {t}"
        return None

    def check_heat(self, req, result, results):
        err = max(abs(direct - image) / max(abs(direct), abs(image), 1e-300)
                  for direct, image in result)
        if not err < 1e-8:
            return f"heat params {req.params[:5]}: direct vs Poisson rel. err {err:.3e}"
        return None

    def check_arcsum(self, req, result, results):
        err = abs(result[0] - complex(result[1]))
        if not err < 1e-6:
            return f"order {req.params[0]} k={req.params[1]}: arc sum vs exact {err:.3e}"
        return None

    def check_gauss_dft(self, req, result, results):
        q, k = req.params
        norm_sq = sum(v * v for v in k)
        for a, value in result.items():
            phase = np.exp(2j * np.pi * ((norm_sq * a) % q) / q)
            if not abs(value - phase) < 1e-12:
                return f"q={q} a={a}: DFT vs phase {abs(value - phase):.3e}"
        if len(result) != sum(1 for a in range(q) if math.gcd(a, q) == 1):
            return f"q={q}: wrong number of residues"
        return None

    def check_quadrature(self, req, result, results):
        err = abs(result[0] - result[1])
        if not err < 1e-8:
            return f"d={req.params[0]} rho={req.params[1]}: quadrature vs closed form {err:.3e}"
        return None

    def check_cache_miss(self, req, shell, results):
        subdir, d, k = req.params
        if not cache.shell_path(self.scratch / subdir, d, k).is_file():
            return f"d={d} k={k}: miss wrote no cache file"
        if shell.count != lattice.rep_counts(d, k)[k] or \
                ((shell.points ** 2).sum(axis=1) != k).any():
            return f"d={d} k={k}: enumerated shell disagrees with the counting table"
        return None

    def check_cache_hit(self, req, shell, results):
        subdir, d, k, miss_key = req.params
        miss = results.get(miss_key)
        if miss is None:
            return f"d={d} k={k}: hit has no miss to compare with"
        if shell.points.shape != miss.points.shape or not np.array_equal(shell.points, miss.points):
            return f"d={d} k={k}: cache hit differs from the enumerated shell"
        return None


WORKLOADS = {cls.name: cls for cls in (Decay, Transfer, OracleMix)}
