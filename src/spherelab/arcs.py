"""Arc decomposition of the normalized spherical multiplier.

The exact multiplier of the normalized shell average at radius-squared k is

    m_k(xi) = r_d(k)^{-1} sum_{|m|^2 = k} e(m . xi),

a real number in [-1, 1] with m_k(0) = 1.  exact_multiplier sums it over
the enumerated shell and is the oracle; exact_multiplier_many reads it at
many xi off one lattice.twisted_counts table.  Writing the shell average
through the damped heat multiplier and cutting the circle [0,1] into the
Farey intervals of order L (with eps = L^{-2}) gives one arc piece per
fraction,

    piece(a/q; xi) = e^{2 pi eps k} / r_d(k) *
                     Integral over the arc of e^{-2 pi i k s} H_s(xi) ds,

and the pieces sum exactly to m_k(xi) over any Farey order.  Replacing the
arc integral by its stationary main term yields the rational approximant

    approx(a/q; xi) = e(-k a / q) sum_l G(a/q, l) w_q(xi - l/q)
                                              j_main(xi - l/q),

where w_q is the narrow cutoff at modulus q (so at most one image l
contributes at any xi).  Summing approximants over q <= q_max and the
units a of Z/q (the single a = 0 for q = 1, the one arc around 0 mod 1)
gives the full approximation whose distance to m_k decays like
L^{2 - d/2} at k ~ L^2.  approx_total evaluates it per modulus from two
LRU caches, the gauss rows per (q, l mod q) and the unit phases per
(q, k mod q), both read-only, with one batched j_main call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cutoff import cutoff
from .farey import MajorArc
from .gauss import gauss_sum, gauss_sum_1d_all_a
from .heat import heat_direct_batch
from .lattice import SphereShell, check_budget, rep_count, twisted_counts
from .sphere import j_main, panel_quadrature, radial_constant, undamping


def exact_multiplier(shell: SphereShell, xi) -> float:
    """Normalized exponential sum over the shell; real by symmetry."""
    shell.check_nonempty()
    xi = np.asarray(xi, dtype=float)
    phases = shell.points @ xi
    value = np.exp(2j * np.pi * phases).sum() / shell.count
    return float(value.real)


def exact_multiplier_many(shell: SphereShell, xis: np.ndarray) -> np.ndarray:
    """exact_multiplier at each row of a (rows, d) array xis: column k of
    twisted_counts(xis, k) over r_d(k).  O(rows d sqrt(k) k) against the
    direct sum's O(rows r_d(k)), so slower only where r_d(k) << d sqrt(k) k
    (d <= 3, large k, many rows; sphere_shell pays O(d sqrt(k) k) there
    anyway); rows * (k + 1) must fit twisted_counts' budget.
    """
    shell.check_nonempty()
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != shell.dimension:
        raise ValueError(f"xis must be a (rows, {shell.dimension}) array, "
                         f"got shape {xis.shape}")
    return twisted_counts(xis, shell.k)[:, shell.k] / shell.count


def _frequency(d: int, xi) -> np.ndarray:
    """xi as a float array, refused unless its shape is (d,)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (d,):
        raise ValueError(f"xi must have shape ({d},) in d={d}, got shape {xi.shape}")
    return xi


def arc_multiplier(d: int, k: int, arc: MajorArc, xi, eps: float) -> complex:
    """One arc piece of the circle decomposition, by panel quadrature.

    panel_quadrature over the arc, after undamping has checked the
    prefactor e^{2 pi eps k}.  eps must equal order^{-2} for the arc's
    Farey order, and xi must have shape (d,).
    """
    if not math.isclose(eps, arc.order ** -2.0, rel_tol=1e-9):
        raise ValueError(f"eps={eps} does not match arc order {arc.order}")
    growth = undamping(k, eps)
    xi = _frequency(d, xi)
    s, w = panel_quadrature(float(arc.left), float(arc.right), k, eps)
    kernel = heat_direct_batch(eps, s, xi).value
    osc = np.exp(-2j * np.pi * np.mod(k * s, 1.0))
    integral = complex((w * osc * kernel).sum())
    return growth / rep_count(d, k) * integral


class ApproxTotal(NamedTuple):
    value: complex
    tail_bound: float
    q_max: int


def approx_arc_multiplier(d: int, k: int, a: int, q: int, xi) -> complex:
    """Stationary main term of one arc piece (defined for every coprime pair).

    At most one lattice image l/q falls inside the narrow cutoff support,
    so the image sum collapses to a single term (or vanishes).
    """
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError(f"need q >= 1 and gcd(a, q) = 1, got a={a}, q={q}")
    xi = _frequency(d, xi)
    l = np.rint(q * xi).astype(np.int64)
    u = xi - l / q
    w = cutoff(q * u)
    if w == 0.0:
        return 0.0 + 0.0j
    phase = np.exp(-2j * np.pi * ((k % q) * (a % q) % q) / q)
    return complex(phase * gauss_sum(a, q, tuple(int(c) for c in l)) * w * j_main(d, k, u))


def approx_tail_bound(d: int, k: int, q_max: int) -> float:
    """Envelope bound on the mass of approximants with q > q_max.

    Per pair the single surviving image is at most
    (sqrt 2)^d q^{-d/2} * c_d k^{(d-2)/2} / r_d(k); summing phi(q) <= q
    values of a and comparing with the integral of q^{1 - d/2} gives

        bound = (sqrt 2)^d * c_d k^{(d-2)/2} / r_d(k)
                            * (2/(d-4)) q_max^{(4-d)/2},   d >= 5.
    """
    if d < 5:
        raise ValueError(f"d={d}: the approximant sum needs d >= 5")
    if k < 1:
        # at k = 0 the main term vanishes while the multiplier is 1
        raise ValueError(f"k={k}: the approximant needs k >= 1")
    amp = 2.0 ** (d / 2) * radial_constant(d) * k ** ((d - 2) / 2.0)
    amp /= rep_count(d, k)
    return amp * (2.0 / (d - 4)) * q_max ** ((4 - d) / 2.0)


UNIT_PHASE_ROWS = 1024  # _unit_phases vectors kept, keyed by (q, k mod q)


@lru_cache(maxsize=UNIT_PHASE_ROWS)
def _unit_phases(q: int, r: int) -> np.ndarray:
    """e(-r a / q) at the units a of Z/q and 0 at every other a, read-only."""
    a = np.arange(q, dtype=np.int64)
    phases = np.where(np.gcd(a, q) == 1, np.exp(-2j * np.pi * (r * a % q) / q), 0.0)
    phases.flags.writeable = False
    return phases


def approx_total(d: int, k: int, xi, q_max: int) -> ApproxTotal:
    """Sum of approximants over q <= q_max and the units a of Z/q.

    Works per modulus: the images l = rint(q xi) and the narrow cutoffs of
    every q come from one vectorized pass, and a modulus whose cutoff
    vanishes is skipped.  One j_main call covers every surviving modulus,
    and none is made when no modulus survives.  For a surviving q the
    Gauss sums at every a are products of the cached gauss_sum_1d_all_a
    rows, one per distinct l_i mod q, and the sum over the units is one
    dot product with the cached _unit_phases(q, k mod q).
    approx_arc_multiplier is the per-pair oracle of this sum and shares
    neither cache.  The q_max * d images are checked against
    DEFAULT_POINT_BUDGET before anything is allocated.
    """
    if q_max < 1:
        raise ValueError(f"q_max={q_max}: need q_max >= 1")
    check_budget(q_max * d, f"q_max={q_max} needs {q_max * d} images in d={d}")
    # checks d and k before any work
    tail_bound = approx_tail_bound(d, k, q_max)
    xi = _frequency(d, xi)
    qs = np.arange(1, q_max + 1)
    ls = np.rint(qs[:, None] * xi).astype(np.int64)
    us = xi - ls / qs[:, None]
    ws = cutoff(qs[:, None] * us)
    alive = np.flatnonzero(ws)
    if alive.size == 0:  # no image near xi: 37 % of uniform xi at q_max = 30
        return ApproxTotal(value=0j, tail_bound=tail_bound, q_max=q_max)
    mains = j_main(d, k, us[alive])
    residues = (ls[alive] % qs[alive, None]).tolist()
    total = 0.0 + 0.0j
    for i, main, res in zip(alive.tolist(), mains, residues):
        q = i + 1
        g = np.ones(q, dtype=complex)
        for r in sorted(set(res)):
            g *= gauss_sum_1d_all_a(q, r) ** res.count(r)
        total += (_unit_phases(q, k % q) @ g) * ws[i] * main
    return ApproxTotal(value=complex(total), tail_bound=tail_bound, q_max=q_max)

