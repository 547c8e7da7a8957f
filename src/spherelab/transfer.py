"""Commuting inner automorphisms on M_n and their spherical averages.

A family of commuting unitaries U_1..U_d defines trace-preserving
automorphisms gamma_i(x) = U_i x U_i^{-1} and, for an integer vector n,
gamma^n = gamma_1^{n_1}...gamma_d^{n_d}.  Averaging gamma^n x over a sphere
shell |n|^2 = k gives the automorphism spherical average.  Placing the orbit
g(n) = gamma^n x on a finite lattice window turns that average into an
ordinary spherical convolution: away from the window edge the two agree
exactly, site by site, which is the identity the transference experiment
verifies before comparing maximal norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError
from .lattice import DEFAULT_POINT_BUDGET, sphere_shell
from .ncmax import (AlgebraElement, MaxNormProblem, hermitian_element,
                    matrix_abs, ncmax_norm, schatten_norm)
from .torus import LatticeFunction, spherical_convolve

UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class AutomorphismFamily:
    """d pairwise-commuting unitaries on C^n, acting by conjugation."""

    n: int
    d: int
    unitaries: np.ndarray  # shape (d, n, n)

    def __post_init__(self):
        u = np.asarray(self.unitaries, dtype=complex)
        if u.shape != (self.d, self.n, self.n):
            raise ValueError(f"unitaries must have shape {(self.d, self.n, self.n)}")
        eye = np.eye(self.n)
        for i in range(self.d):
            if np.abs(u[i] @ u[i].conj().T - eye).max() > UNITARY_TOL:
                raise ValueError(f"matrix {i} is not unitary")
        for i in range(self.d):
            for j in range(i + 1, self.d):
                if np.abs(u[i] @ u[j] - u[j] @ u[i]).max() > UNITARY_TOL:
                    raise ValueError(f"unitaries {i} and {j} do not commute")
        object.__setattr__(self, "unitaries", u)


def diagonal_phase_family(thetas, n: int = 2) -> AutomorphismFamily:
    """U_i = diag(1, e^{2 pi i theta_i}, ..., e^{2 pi i theta_i (n-1)})."""
    thetas = [float(Fraction(t)) if isinstance(t, str) else float(t) for t in thetas]
    rows = [np.diag(np.exp(2j * np.pi * th * np.arange(n))) for th in thetas]
    return AutomorphismFamily(n=n, d=len(thetas), unitaries=np.stack(rows))


def permutation_phase_family() -> AutomorphismFamily:
    """Three commuting non-diagonal unitaries on C^3.

    Scalar phases times powers of the cyclic shift: all powers of a single
    permutation commute, and the phases keep the three matrices distinct.
    """
    shift = np.roll(np.eye(3), 1, axis=0)
    w = np.exp(2j * np.pi / 3.0)
    mats = np.stack([shift, w * (shift @ shift), np.conj(w) * shift])
    return AutomorphismFamily(n=3, d=3, unitaries=mats)


def trivial_family(n: int, d: int) -> AutomorphismFamily:
    return AutomorphismFamily(n=n, d=d, unitaries=np.stack([np.eye(n)] * d))


def _power_table(u: np.ndarray, span: int) -> dict:
    """U^m for m in [-span, span]; negative powers via the adjoint."""
    tab = {0: np.eye(u.shape[0], dtype=complex)}
    for m in range(1, span + 1):
        tab[m] = u @ tab[m - 1]
        tab[-m] = tab[m].conj().T
    return tab


def gamma_apply(fam: AutomorphismFamily, n_vec, x: AlgebraElement) -> AlgebraElement:
    """gamma^n x = U^n x U^{-n} with U^n = prod_i U_i^{n_i}."""
    if x.n != fam.n:
        raise ValueError("dimension mismatch between x and the family")
    n_vec = tuple(int(v) for v in n_vec)
    if len(n_vec) != fam.d:
        raise ValueError(f"n must have {fam.d} components")
    u = np.eye(fam.n, dtype=complex)
    for i, m in enumerate(n_vec):
        if m == 0:
            continue
        um = np.linalg.matrix_power(fam.unitaries[i], abs(m))
        u = u @ (um if m > 0 else um.conj().T)
    out = u @ x.entries @ u.conj().T
    return AlgebraElement(n=fam.n, entries=out, hermitian=x.hermitian)


def auto_spherical_average(fam: AutomorphismFamily, x: AlgebraElement,
                           k: int) -> AlgebraElement:
    """Mean of gamma^n x over the shell |n|^2 = k."""
    shell = sphere_shell(fam.d, k)
    if shell.count == 0:
        raise ValueError(f"empty shell: no lattice points with |n|^2 = {k}")
    span = math.isqrt(k)
    tabs = [_power_table(fam.unitaries[i], span) for i in range(fam.d)]
    acc = np.zeros((fam.n, fam.n), dtype=complex)
    for pt in shell.points:
        u = tabs[0][int(pt[0])]
        for i in range(1, fam.d):
            u = u @ tabs[i][int(pt[i])]
        acc += u @ x.entries @ u.conj().T
    return AlgebraElement(n=fam.n, entries=acc / shell.count, hermitian=x.hermitian)


def _orbit_box(fam: AutomorphismFamily, x: AlgebraElement, span: int) -> np.ndarray:
    """Grid of gamma^m x over the box |m|_inf <= span, shape (2s+1,)*d+(n,n).

    Built one axis at a time: conjugating an already-assembled block by
    U_i^m fills the next axis in a single vectorized pass.
    """
    cur = x.entries.astype(complex)
    width = 2 * span + 1
    for axis in range(fam.d - 1, -1, -1):
        tab = _power_table(fam.unitaries[axis], span)
        new = np.empty((width,) + cur.shape, dtype=complex)
        for row, m in enumerate(range(-span, span + 1)):
            um = tab[m]
            new[row] = np.einsum("ab,...bc,dc->...ad", um, cur, um.conj())
        cur = new
    return cur


def orbit_truncation(fam: AutomorphismFamily, x: AlgebraElement, window: int,
                     side: int | None = None,
                     budget: int = DEFAULT_POINT_BUDGET) -> LatticeFunction:
    """Matrix-valued lattice function g(n) = gamma^n x for |n|_inf <= window.

    The sup-norm box keeps the site count at exactly (2*window+1)^d.  The
    torus side defaults to the minimal faithful value 2*window+1; pass a
    larger side to leave room for convolution without wrap-around.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    if side is None:
        side = 2 * window + 1
    if side < 2 * window + 1:
        raise ValueError("side must cover the orbit window")
    if side ** fam.d > budget:
        raise BudgetExceededError(
            f"{side}^{fam.d} lattice sites exceed the budget of {budget}")
    vals = np.zeros((side,) * fam.d + (fam.n, fam.n), dtype=complex)
    box = _orbit_box(fam, x, window)
    idx = np.arange(-window, window + 1) % side
    vals[np.ix_(*([idx] * fam.d))] = box
    return LatticeFunction(dimension=fam.d, side=side, values=vals)


def truncation_identity_check(fam: AutomorphismFamily, x: AlgebraElement,
                              window: int, k_cap_sq: int) -> float:
    """Max deviation between lattice and automorphism spherical averages.

    With g the orbit truncated to |n|_inf <= window and cap = sqrt(k_cap_sq),
    the spherical convolution of g agrees with gamma^n applied to the
    automorphism average, entrywise, at every site |n|_inf <= window - cap
    and every shell k <= cap^2.  Both sides are computed independently; the
    return value is pure floating-point roundoff.
    """
    cap = math.isqrt(k_cap_sq)
    if cap * cap != k_cap_sq:
        raise ValueError("k_cap_sq must be a perfect square")
    if cap > window:
        raise ValueError("need cap <= window")
    side = 2 * (window + cap) + 1
    g = orbit_truncation(fam, x, window, side=side)
    inner = window - cap
    idx = np.arange(-inner, inner + 1) % side
    worst = 0.0
    for k in range(1, k_cap_sq + 1):
        shell = sphere_shell(fam.d, k)
        if shell.count == 0:
            continue
        conv = spherical_convolve(shell, g)
        lhs = conv.values[np.ix_(*([idx] * fam.d))]
        avg = auto_spherical_average(fam, x, k)
        rhs = _orbit_box(fam, avg, inner)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def window_count_ratio(window: int, cap: int, d: int) -> float:
    """Fraction of box sites that survive shrinking the window by cap."""
    if not 0 <= cap <= window:
        raise ValueError("need 0 <= cap <= window")
    return ((2 * (window - cap) + 1) / (2 * window + 1)) ** d


def maximal_ratio_experiment(fam: AutomorphismFamily, x: AlgebraElement,
                             k_list, p: float, tol: float = 1e-7) -> list:
    """Rows (K, ratio, lower_bound, upper_bound, solver_gap).

    ratio = maximal norm of {average over shell k : k = 1..K} divided by
    ||x||_p.  Growing K only adds family members, so the sequence is
    monotone nondecreasing; boundedness in K is reported, not asserted,
    since no effective constant is available.
    """
    k_list = sorted(int(k) for k in k_list)
    if not k_list or k_list[0] < 1:
        raise ValueError("k_list must contain positive integers")
    base = schatten_norm(x, p)
    if base == 0.0:
        raise ValueError("x must be nonzero")
    averages = []
    rows = []
    next_k = 1
    for k_top in k_list:
        for k in range(next_k, k_top + 1):
            if sphere_shell(fam.d, k).count > 0:
                averages.append(auto_spherical_average(fam, x, k))
        next_k = k_top + 1
        prob = MaxNormProblem(p=p, family=tuple(averages))
        cert = ncmax_norm(prob, tol=tol)
        lower = max(schatten_norm(y, p) for y in averages) / base
        summ = sum(matrix_abs(y.entries) for y in averages)
        upper = schatten_norm(hermitian_element(summ), p) / base
        rows.append((k_top, cert.objective / base, lower, upper, cert.gap / base))
    return rows
