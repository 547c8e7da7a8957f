"""Fixed-size microbenchmarks of the lattice, arcs, sphere, farey, heat, gauss, transfer and ncmax kernels.

Each kernel runs at fixed sizes, once to warm up and then REPEAT times
(so the shell memo, the Gauss rows and the unit phases are warm, except in
``sphere_shell_d5_k225_cold``, which clears the shell memo before each call;
``write_shell_d5_k400`` and ``read_shell_d5_k400`` write and read one cache
file in a temporary directory);
the best time is kept, and the median and quartiles of the REPEAT calls
beside it, since the best alone can move by 1.5x between runs on a busy
machine.  ``heat_request_d2``, ``_d3`` and ``_d5`` time one whole
``oracle-mix`` heat request: both heat forms at 8 frequencies, and
``farey_request_order200`` one whole farey request: sequence, arcs,
partition check and 20 lookups.
Each ``truncation_identity_check`` kernel (the ``transfer`` workload's d = 5
diagonal and d = 3 permutation requests, and a d = 5, n = 3 family with a
non-diagonal eigenbasis) also reports its tracemalloc peak from one
further call; ``major_arcs_order200`` and ``sphere_shell_d5_k400``
report the bytes their result keeps and their peak; and the ``ncmax_norm``
kernels their total count of primal-dual iterations, kept under the key
``newton_steps`` as the certificates name it (``ncmax_norm_transfer_set16`` solves
16 seeded ratio-table families like those of the ``transfer`` workload, and
``ncmax_norm_n12_members6_p2`` and ``_n24_`` one family of 6 seeded random
hermitian members each).  ``ratio_request_n4_k9`` times one whole
``transfer`` ratio request (family, probe and a one-row ratio table at
n = 4, K = 9), and ``hkm_gram_n8_members16`` the HKM Gram product of
ncmax_norm's iteration at n = 8 with 32 constraint slacks.  The result is
one JSON object:

    python tools/microbench.py bench.json

It imports the ``src/`` next to it, so the same file run in two checkouts
compares them on one machine.  It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

REPEAT = 20

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from spherelab.arcs import approx_total, exact_multiplier_many  # noqa: E402
from spherelab.cache import read_shell, write_shell  # noqa: E402
from spherelab.experiments import (TRANSFER_THETAS, decay_grid,  # noqa: E402
                                   random_hermitian_probe)
from spherelab.farey import farey_sequence, locate_arc, major_arcs, verify_partition  # noqa: E402
from spherelab.gauss import gauss_dft  # noqa: E402
from spherelab.heat import heat_multiplier_direct, heat_multiplier_poisson, on_arc  # noqa: E402
from spherelab.lattice import _kept_shell, rep_counts, sphere_shell, twisted_counts  # noqa: E402
from spherelab.ncmax import (MaxNormProblem, _dual_bound, _hkm_operator,  # noqa: E402
                             _pd_step, _power_hessian, _signed_stack, _slacks, _sym,
                             hermitian_element, matrix_abs, ncmax_norm)
from spherelab.sphere import sphere_ft_quadrature  # noqa: E402
from spherelab.transfer import (AutomorphismFamily, _orbit_box,  # noqa: E402
                                _phase_differences, auto_spherical_average,
                                diagonal_phase_family, maximal_ratio_experiment,
                                permutation_phase_family, shell_averages,
                                truncation_identity_check)


def conjugated_family(d: int, n: int) -> AutomorphismFamily:
    """U_i = W diag(e(theta_i j))_j W* for the first d TRANSFER_THETAS and a
    seeded QR unitary W, so that the joint eigenbasis is not the identity."""
    rng = np.random.default_rng(0)
    w = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    phases = [np.exp(2j * np.pi * float(th) * np.arange(n)) for th in TRANSFER_THETAS[:d]]
    return AutomorphismFamily(n=n, d=d, unitaries=np.stack([(w * e) @ w.conj().T
                                                            for e in phases]))


def hessian_point(n: int):
    """Eigenpairs of a seeded positive definite n x n matrix."""
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.eigh(m @ m.conj().T + np.eye(n))


def per_shell_averages(fam: AutomorphismFamily, x, max_k: int) -> list:
    """The averages of shell_averages, one auto_spherical_average per k."""
    counts = rep_counts(fam.d, max_k)
    return [auto_spherical_average(fam, x, k) for k in range(1, max_k + 1) if counts[k]]


def transfer_style_problems() -> list:
    """16 seeded ratio-table families as the transfer workload builds them:
    the shell averages k = 1..K of a random probe under a random d = 5
    diagonal phase family, for K = 1..16, n from 2 to 6 and p in
    {1.5, 2, 3}."""
    rng = np.random.default_rng(1801)
    probs = []
    for i in range(16):
        n, p = (2, 2, 3, 3, 4, 4, 5, 6)[i % 8], (1.5, 2.0, 3.0)[i % 3]
        fam = diagonal_phase_family(rng.uniform(0.0, 1.0, 5), n)
        averages = shell_averages(fam, random_hermitian_probe(n, i), i + 1)
        probs.append(MaxNormProblem(p=p, family=tuple(averages.values())))
    return probs


def pd_point(prob: MaxNormProblem):
    """A fixed strictly feasible point of ncmax_norm's iteration: the signed
    stack, a = sum_j |x_j| + I, its slacks Y_i and the dual slacks
    Z_i = mu Y_i^{-1} at mu = tr(a^p) / nu."""
    signed = _signed_stack(prob.members)
    a = sum(matrix_abs(x) for x in prob.members) + np.eye(prob.n)
    a = 0.5 * (a + a.conj().T)
    ys = _slacks(a, signed)
    zs = (float((np.linalg.eigvalsh(a) ** prob.p).sum()) / (len(ys) * prob.n)
          * _sym(np.linalg.inv(ys)))
    return signed, a, ys, zs


def pd_iteration(prob: MaxNormProblem):
    """One primal-dual iteration of ncmax_norm, its gap test, matrix, two
    solves and step lengths, at pd_point."""
    signed, a, ys, zs = pd_point(prob)

    def iteration():
        lam, vecs = np.linalg.eigh(a)
        _dual_bound(zs, signed, prob.p)
        return _pd_step(lam, vecs, ys, zs, prob.p)
    return iteration


def hkm_gram(prob: MaxNormProblem):
    """_hkm_operator, the Gram product of the W_i = Y_i^{-1} and Z_i
    stacks and its index permutation, at pd_point."""
    _, _, ys, zs = pd_point(prob)
    yinvs = _sym(np.linalg.inv(ys))
    return lambda: _hkm_operator(yinvs, zs)


def ratio_request(thetas, probe, k_top: int, p: float):
    """One transfer ratio request: the d = 5 diagonal phase family, the
    probe's hermitian element and a one-row ratio table."""
    fam = diagonal_phase_family(thetas, len(probe))
    return maximal_ratio_experiment(fam, hermitian_element(probe), [k_top], p)


def farey_request(order: int, lookups) -> list:
    """One oracle-mix farey request: the sequence, its arcs, the partition
    check, and one lookup per float and per integer (the left end of the
    arc it indexes modulo the arc count)."""
    arcs = major_arcs(farey_sequence(order))
    verify_partition(arcs)
    points = [v if isinstance(v, float) else arcs[v % len(arcs)].left for v in lookups]
    return [locate_arc(v, arcs) for v in points]


def call_times(fn) -> list[float]:
    """Seconds of each of REPEAT calls, after one warm-up call."""
    fn()
    times = []
    for _ in range(REPEAT):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return times


def kernels(tmp: Path):
    """(name, zero-argument call) pairs at the fixed sizes; the cache file
    kernels write and read in the directory tmp."""
    fam5 = diagonal_phase_family(TRANSFER_THETAS, 2)
    x2 = random_hermitian_probe(2, 0)
    fam3 = conjugated_family(3, 6)
    x6 = random_hermitian_probe(6, 0)
    fam16 = conjugated_family(3, 16)
    x16 = random_hermitian_probe(16, 0)
    # the transfer workload's permutation truncation, and a d = 5 family
    # whose joint eigenbasis is not a signed permutation
    perm3, fam53 = permutation_phase_family(), conjugated_family(5, 3)
    x3 = random_hermitian_probe(3, 0)
    out = [
        ("orbit_box_d5_n2_span4", lambda: _orbit_box(fam5, x2, 4)),
        ("orbit_box_d3_n6_span5", lambda: _orbit_box(fam3, x6, 5)),
        ("orbit_box_d3_n16_span3", lambda: _orbit_box(fam16, x16, 3)),
        ("truncation_identity_check_d5_n2_window4_k4",
         lambda: truncation_identity_check(fam5, x2, 4, 4)),
        ("truncation_identity_check_d3_n3_window5_k4",
         lambda: truncation_identity_check(perm3, x3, 5, 4)),
        ("truncation_identity_check_conjugated_d5_n3_window4_k4",
         lambda: truncation_identity_check(fam53, x3, 4, 4)),
    ]
    dphi16 = _phase_differences(diagonal_phase_family(TRANSFER_THETAS, 16))
    fam4 = diagonal_phase_family(TRANSFER_THETAS, 4)
    x4 = random_hermitian_probe(4, 0)
    prob4 = MaxNormProblem(p=2.0, family=tuple(per_shell_averages(fam4, x4, 16)))
    fam8 = diagonal_phase_family(TRANSFER_THETAS, 8)
    x8 = random_hermitian_probe(8, 0)
    transfer_set = transfer_style_problems()
    prob6 = MaxNormProblem(p=2.0, family=tuple(per_shell_averages(
        diagonal_phase_family(TRANSFER_THETAS, 6), x6, 16)))
    prob8 = MaxNormProblem(p=2.0, family=tuple(per_shell_averages(fam8, x8, 16)))
    # the thetas and probe of a transfer ratio request at n = 4
    thetas = tuple(np.random.default_rng(3001).uniform(0.0, 1.0, 5))
    probe4 = x4.entries
    prob12, prob24 = (MaxNormProblem(p=2.0, family=tuple(random_hermitian_probe(n, j)
                                                         for j in range(6)))
                      for n in (12, 24))
    out += [
        ("rep_counts_d5_k4", lambda: rep_counts(5, 4)),
        ("rep_counts_d5_k225", lambda: rep_counts(5, 225)),
        ("rep_counts_d3_k2000", lambda: rep_counts(3, 2000)),
        ("twisted_counts_d5_rows256_k144", lambda: twisted_counts(dphi16, 144)),
        ("per_shell_averages_d5_n4_k16", lambda: per_shell_averages(fam4, x4, 16)),
        ("shell_averages_d5_n4_k16", lambda: shell_averages(fam4, x4, 16)),
        ("ncmax_norm_n4_members16_p2", lambda: [ncmax_norm(prob4)]),
        ("ncmax_norm_transfer_set16", lambda: [ncmax_norm(prob) for prob in transfer_set]),
        ("ncmax_norm_n12_members6_p2", lambda: [ncmax_norm(prob12)]),
        ("ncmax_norm_n24_members6_p2", lambda: [ncmax_norm(prob24)]),
        ("pd_iteration_n6_members16_p2", pd_iteration(prob6)),
        ("hkm_gram_n8_members16", hkm_gram(prob8)),
        ("ratio_request_n4_k9", lambda: ratio_request(thetas, probe4, 9, 2.0)),
        ("maximal_ratio_n8_cap12", lambda: maximal_ratio_experiment(
            fam8, x8, [j * j for j in range(1, 13)], 2.0)),
    ]
    # the decay ladder's largest rung, then a shell of 20 points where the
    # direct sum over the shell would beat the theta table
    rng = np.random.default_rng(0)
    shell5, xis5 = sphere_shell(5, 225), rng.uniform(-0.5, 0.5, (150, 5))
    shell2, xis2 = sphere_shell(2, 10_000), rng.uniform(-0.5, 0.5, (200, 2))
    out += [
        ("exact_multiplier_many_d5_k225_rows150",
         lambda: exact_multiplier_many(shell5, xis5)),
        ("exact_multiplier_many_d2_k10000_rows200",
         lambda: exact_multiplier_many(shell2, xis2)),
    ]
    # one decay request at that rung: a grid point, where 15 of the 30
    # moduli survive their cutoff, and a generic point, where none does
    grid_xi, generic_xi = decay_grid()[0], xis5[0]
    out += [
        ("approx_total_d5_k225_q30_grid", lambda: approx_total(5, 225, grid_xi, 30)),
        ("approx_total_d5_k225_q30_generic", lambda: approx_total(5, 225, generic_xi, 30)),
        ("sphere_shell_d5_k225_cold",
         lambda: (_kept_shell.cache_clear(), sphere_shell(5, 225))),
        ("sphere_shell_d5_k225_warm", lambda: sphere_shell(5, 225)),
    ]
    # the oracle-mix cache radius, as a cache miss writes it and a hit reads it
    shell400, cached = sphere_shell(5, 400), tmp / "shell_d5_k400.txt"
    out += [
        ("write_shell_d5_k400", lambda: write_shell(shell400, cached)),
        ("read_shell_d5_k400", lambda: read_shell(cached)),
    ]
    # the largest oracle-mix quadrature, and its farey request at the
    # largest order: without lookups, and whole
    xi5 = np.array([1.3, -0.4, 0.7, 0.2, -0.9])
    farey_lookups = tuple(rng.uniform(0, 1, 16).tolist()) + \
        tuple(int(v) for v in rng.integers(0, 1 << 30, 4))
    out += [
        ("sphere_ft_quadrature_d5_n48",
         lambda: sphere_ft_quadrature(5, xi5, n_polar=48, n_azimuth=144)),
        ("farey_arcs_order200",
         lambda: verify_partition(major_arcs(farey_sequence(200)))),
        ("farey_request_order200", lambda: farey_request(200, farey_lookups)),
    ]
    # one frequency of an oracle-mix heat request at its largest radius, and
    # its gauss-dft request at the largest modulus: every unit a mod 60
    heat5, heat_xi5 = on_arc(0.0625, 3, 7, 0.3 / 49), np.array([0.1, -0.4, 0.25, 0.05, -0.3])
    units60 = [a for a in range(60) if math.gcd(a, 60) == 1]
    out += [
        ("heat_direct_d5", lambda: heat_multiplier_direct(heat5, heat_xi5, tol=1e-14)),
        ("heat_poisson_d5", lambda: heat_multiplier_poisson(heat5, heat_xi5, tol=1e-14)),
        ("gauss_dft_q60", lambda: [gauss_dft(a, 60, (3, -7, 10, 0, -2)) for a in units60]),
    ]
    # one whole oracle-mix heat request at each dimension: both forms at 8
    # frequencies, on the same arc point
    for d in (2, 3, 5):
        xis = np.random.default_rng(d).uniform(-0.5, 0.5, (8, d))
        out.append((f"heat_request_d{d}", lambda xis=xis: [
            (heat_multiplier_direct(heat5, xi, tol=1e-14).value,
             heat_multiplier_poisson(heat5, xi, tol=1e-14).value) for xi in xis]))
    for n in (4, 8, 24, 32):
        lam, vecs = hessian_point(n)
        out.append((f"power_hessian_n{n}",
                    lambda lam=lam, vecs=vecs: _power_hessian(lam, vecs, 1.5)))
    return out


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_kept(fn) -> int:
    """Bytes that fn allocates and that stay allocated while its result is held."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 -- held until the count is taken
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def kept_results():
    """(name, call) pairs whose results a caller keeps: the arcs of one
    farey request and one shell of the oracle-mix cache radius, enumerated
    cold, so the shell memo holds it."""
    return [
        ("major_arcs_order200", lambda: major_arcs(farey_sequence(200))),
        ("sphere_shell_d5_k400", lambda: (_kept_shell.cache_clear(), sphere_shell(5, 400))),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    result = {
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpus": os.cpu_count(), "processor": platform.processor()},
        "repeat": REPEAT,
        "best_s": {},
        "median_s": {},
        "quartiles_s": {},
        "newton_steps": {},
    }
    tmp = tempfile.TemporaryDirectory()
    for name, fn in kernels(Path(tmp.name)):
        times = call_times(fn)
        q1, median, q3 = np.percentile(times, [25, 50, 75])
        result["best_s"][name] = min(times)
        result["median_s"][name] = median
        result["quartiles_s"][name] = [q1, q3]
        note = ""
        if name.startswith("ncmax_norm"):
            result["newton_steps"][name] = sum(c.newton_steps for c in fn())
            note = f", {result['newton_steps'][name]} iterations"
        print(f"{name}: best {1e3 * min(times):.3f} ms, median {1e3 * median:.3f} ms "
              f"({1e3 * q1:.3f}-{1e3 * q3:.3f}){note}", flush=True)
        if name.startswith("truncation_identity_check"):
            result[f"{name}_tracemalloc_peak_bytes"] = traced_peak(fn)
    tmp.cleanup()
    for name, fn in kept_results():
        fn()  # warm the count tables, which are not the result's
        result[f"{name}_tracemalloc_peak_bytes"] = traced_peak(fn)
        result[f"{name}_tracemalloc_kept_bytes"] = traced_kept(fn)
        print(f"{name}: keeps {result[f'{name}_tracemalloc_kept_bytes']} bytes, "
              f"peak {result[f'{name}_tracemalloc_peak_bytes']} bytes", flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
