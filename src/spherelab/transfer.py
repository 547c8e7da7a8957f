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

import numpy as np

from .errors import BudgetExceededError
from .lattice import DEFAULT_POINT_BUDGET, SphereShell, rep_counts, sphere_shell
from .ncmax import (AlgebraElement, MaxNormProblem, envelope_bounds,
                    hermitian_element, ncmax_norm, schatten_norm)
from .torus import LatticeFunction

UNITARY_TOL = 1e-12
# auto_spherical_average conjugates shell points in blocks of about this
# many matrix entries, so its stacks stay a few MB whatever the shell size.
AVERAGE_BLOCK_ENTRIES = 1 << 18
# largest deviation the truncation identity admits (it is roundoff only)
TRUNCATION_TOL = 1e-10


@dataclass(frozen=True)
class AutomorphismFamily:
    """d pairwise-commuting unitaries on C^n, acting by conjugation."""

    n: int
    d: int
    unitaries: np.ndarray  # shape (d, n, n)

    def __post_init__(self):
        for name in ("n", "d"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)}: need {name} >= 1")
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


def diagonal_phase_family(thetas, n: int) -> AutomorphismFamily:
    """U_i = diag(1, e^{2 pi i theta_i}, ..., e^{2 pi i theta_i (n-1)})."""
    thetas = [float(t) for t in thetas]
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


def _power_table(u: np.ndarray, span: int) -> np.ndarray:
    """U^m for m in [-span, span], stacked at index m + span; negative
    powers via the adjoint."""
    tab = np.empty((2 * span + 1,) + u.shape, dtype=complex)
    tab[span] = np.eye(u.shape[0])
    for m in range(1, span + 1):
        tab[span + m] = u @ tab[span + m - 1]
        tab[span - m] = tab[span + m].conj().T
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
    return hermitian_element(u @ x.entries @ u.conj().T)


def auto_spherical_average(fam: AutomorphismFamily, x: AlgebraElement,
                           k: int) -> AlgebraElement:
    """Mean of gamma^n x over the shell |n|^2 = k.

    U^n is gathered from per-axis power tables for a block of shell points
    at once and the conjugates are summed in shell order, the first one
    onto the running sum, so the additions are those of a point-by-point
    loop.
    """
    shell = sphere_shell(fam.d, k)
    shell.check_nonempty()
    span = math.isqrt(k)
    tabs = [_power_table(fam.unitaries[i], span) for i in range(fam.d)]
    rows = shell.points + span
    block = max(1, AVERAGE_BLOCK_ENTRIES // (fam.n * fam.n))
    acc = np.zeros((fam.n, fam.n), dtype=complex)
    for lo in range(0, shell.count, block):
        idx = rows[lo:lo + block]
        u = tabs[0][idx[:, 0]]
        for i in range(1, fam.d):
            u = u @ tabs[i][idx[:, i]]
        terms = u @ x.entries @ u.conj().swapaxes(-1, -2)
        terms[0] += acc
        acc = terms.sum(axis=0)
    return hermitian_element(acc / shell.count)


def _orbit_box(fam: AutomorphismFamily, x: AlgebraElement, span: int) -> np.ndarray:
    """Grid of gamma^m x over the box |m|_inf <= span, shape (2s+1,)*d+(n,n).

    The site count is checked against DEFAULT_POINT_BUDGET before anything
    is allocated.  Built one axis at a time: conjugating an already-assembled
    block by U_i^m fills the next axis in a single vectorized pass.
    """
    width = 2 * span + 1
    if width ** fam.d > DEFAULT_POINT_BUDGET:
        raise BudgetExceededError(
            f"{width}^{fam.d} orbit sites exceed the budget of {DEFAULT_POINT_BUDGET}")
    cur = x.entries.astype(complex)
    for axis in range(fam.d - 1, -1, -1):
        tab = _power_table(fam.unitaries[axis], span)
        new = np.empty((width,) + cur.shape, dtype=complex)
        for row, um in enumerate(tab):
            new[row] = np.einsum("ab,...bc,dc->...ad", um, cur, um.conj())
        cur = new
    return cur


def orbit_truncation(fam: AutomorphismFamily, x: AlgebraElement,
                     window: int) -> LatticeFunction:
    """Matrix-valued lattice function g(m) = gamma^m x for |m|_inf <= window
    on the torus of side 2*window+1, with g(m) at the site m mod side."""
    if window < 0:
        raise ValueError("window must be >= 0")
    box = _orbit_box(fam, x, window)
    vals = np.fft.ifftshift(box, axes=range(fam.d))
    return LatticeFunction(dimension=fam.d, side=2 * window + 1, values=vals)


def inner_shell_average(box: np.ndarray, shell: SphereShell,
                        margin: int) -> np.ndarray:
    """(1/count) sum_{|m|^2=k} box[n - m] at the sites n of a box of odd
    side centred on 0 that lie at least margin inside its edge.

    With |m|_inf <= margin every n - m stays in the box, so this is the
    lattice spherical convolution of the box padded by zeros, restricted to
    those sites, with no torus built: one slice add per shell point, in
    shell order (the additions of torus.spherical_convolve there).
    """
    d = shell.dimension
    shell.check_nonempty()
    if int(np.abs(shell.points).max()) > margin:
        raise ValueError(f"shell k={shell.k} reaches beyond the margin {margin}")
    width = box.shape[0] - 2 * margin
    if width < 1:
        raise ValueError(f"margin {margin} leaves no inner site")
    out = np.zeros((width,) * d + box.shape[d:], dtype=complex)
    for point in shell.points:
        out += box[tuple(slice(margin - c, margin - c + width) for c in point)]
    out /= shell.count
    return out


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
    box = _orbit_box(fam, x, window)
    inner = window - cap
    worst = 0.0
    for k in range(1, k_cap_sq + 1):
        shell = sphere_shell(fam.d, k)
        if shell.count == 0:
            continue
        lhs = inner_shell_average(box, shell, cap)
        avg = auto_spherical_average(fam, x, k)
        rhs = _orbit_box(fam, avg, inner)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


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
    counts = rep_counts(fam.d, k_list[-1])
    averages = []
    rows = []
    next_k = 1
    for k_top in k_list:
        for k in range(next_k, k_top + 1):
            if counts[k] > 0:
                averages.append(auto_spherical_average(fam, x, k))
        next_k = k_top + 1
        prob = MaxNormProblem(p=p, family=tuple(averages))
        cert = ncmax_norm(prob, tol=tol)
        lower, upper = envelope_bounds(prob)
        rows.append((k_top, cert.objective / base, lower / base, upper / base,
                     cert.gap / base))
    return rows
