"""Commuting inner automorphisms on M_n and their spherical averages.

A family of commuting unitaries U_1..U_d defines trace-preserving
automorphisms gamma_i(x) = U_i x U_i^{-1} and, for an integer vector n,
gamma^n = gamma_1^{n_1}...gamma_d^{n_d}.  Averaging gamma^n x over a sphere
shell |n|^2 = k gives the automorphism spherical average.  Placing the orbit
g(n) = gamma^n x on a finite lattice window turns that average into an
ordinary spherical convolution: away from the window edge the two agree
exactly, site by site, which is the identity the transference experiment
verifies before comparing maximal norms.

Commuting unitaries share an eigenbasis V, V*U_iV = diag(e(phi_i)), in which
gamma^n multiplies V*xV entrywise by e(n . (phi_r - phi_s)); the shell
average is there the multiplier M_k[r, s] = S_k(phi_r - phi_s) / r_d(k) of
the shell sum S_k.  The ratio tables and the automorphism side of the
truncation identity take every M_k up to the largest shell from one
lattice.twisted_counts table at the n^2 phase differences, with no shell
enumerated (shell_averages); auto_spherical_average reads one k off the
same kernel through exact_multiplier_many.  Both sides of the truncation
identity are summed in the joint eigenbasis, where the lattice sum commutes
with conjugation by the fixed V, and only their difference on the inner
sites is rotated back to V B V* (truncation_identity_check);
orbit_truncation rotates its whole box back, by two GEMMs per slice of its
first axis, peaking at about one box.  gamma_apply, by matrix powers, is
the independent oracle of all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arcs import exact_multiplier_many
from .lattice import SphereShell, check_budget, rep_counts, sphere_shell, twisted_counts
from .ncmax import (AlgebraElement, MaxNormProblem, envelope_bounds,
                    hermitian_element, ncmax_norm, schatten_norm)
from .torus import LatticeFunction

UNITARY_TOL = 1e-12
# largest deviation the truncation identity admits (it is roundoff only)
TRUNCATION_TOL = 1e-10
# members a ratio-table row adds to its active set per re-solve
LADDER_ADD = 4


@dataclass(frozen=True)
class AutomorphismFamily:
    """d pairwise-commuting unitaries on C^n, acting by conjugation.

    basis is a joint eigenbasis V, V* U_i V = diag(e(phases[i])): the
    eigenvectors of the normal matrix sum_i c_i U_i (seeded complex c_i),
    made unitary by QR; distinct joint eigenvalues meet there only on a set
    of real codimension two.  V* U_i V being diagonal is the commutation check.
    Both checks run over the whole stack at once and name the first matrix
    that fails.
    """

    n: int
    d: int
    unitaries: np.ndarray  # shape (d, n, n)
    basis: np.ndarray = field(init=False, repr=False)    # shape (n, n)
    phases: np.ndarray = field(init=False, repr=False)   # shape (d, n)

    def __post_init__(self):
        for name in ("n", "d"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)}: need {name} >= 1")
        u = np.asarray(self.unitaries, dtype=complex)
        if u.shape != (self.d, self.n, self.n):
            raise ValueError(f"unitaries must have shape {(self.d, self.n, self.n)}")
        finite = np.isfinite(u).all(axis=(1, 2))
        with np.errstate(invalid="ignore", over="ignore"):
            dev = np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(self.n)).max(axis=(1, 2))
        # not (dev <= tol): a product whose overflow gave nan is refused too
        bad = ~finite | ~(dev <= UNITARY_TOL)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"matrix {i} has an entry that is not finite" if not finite[i]
                             else f"matrix {i} is not unitary")
        v = np.linalg.qr(np.linalg.eig(np.tensordot(_mixing(self.d), u, axes=1))[1])[0]
        diag = v.conj().T @ u @ v
        off = np.abs(np.where(np.eye(self.n, dtype=bool), 0.0, diag)).max(axis=(1, 2))
        mixed = off > UNITARY_TOL
        if mixed.any():
            i = int(mixed.argmax())
            raise ValueError(f"unitaries do not commute (matrix {i} is not diagonal)")
        object.__setattr__(self, "unitaries", u)
        object.__setattr__(self, "basis", v)
        object.__setattr__(self, "phases",
                           np.angle(np.diagonal(diag, axis1=1, axis2=2)) / (2.0 * np.pi))


@lru_cache
def _mixing(d: int) -> np.ndarray:
    """The seeded complex coefficients c_1..c_d of AutomorphismFamily's
    normal matrix sum_i c_i U_i, drawn once per d and read-only."""
    c = np.random.default_rng(0).standard_normal((d, 2)) @ (1.0, 1j)
    c.flags.writeable = False
    return c


@lru_cache
def _rep_counts_array(d: int, max_k: int) -> np.ndarray:
    """rep_counts(d, max_k) as a read-only float array, cached per (d, max_k)."""
    counts = np.array(rep_counts(d, max_k), dtype=float)
    counts.flags.writeable = False
    return counts


def diagonal_phase_family(thetas, n: int) -> AutomorphismFamily:
    """U_i = diag(1, e^{2 pi i theta_i}, ..., e^{2 pi i theta_i (n-1)}), d n^2
    entries checked against DEFAULT_POINT_BUDGET before any is built."""
    thetas = [float(t) for t in thetas]
    d = len(thetas)
    check_budget(d * n * n, f"{d} unitaries of {n}x{n} take {d * n * n} entries")
    rows = [np.diag(np.exp(2j * np.pi * th * np.arange(n))) for th in thetas]
    return AutomorphismFamily(n=n, d=d, unitaries=np.stack(rows))


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
    """d identities on C^n: the diagonal family at theta = 0, bit for bit."""
    return diagonal_phase_family([0.0] * d, n)


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


def _phase_differences(fam: AutomorphismFamily) -> np.ndarray:
    """The n^2 rows phi_r - phi_s, row-major in (r, s), shape (n^2, d)."""
    return (fam.phases[:, :, None] - fam.phases[:, None, :]).reshape(fam.d, -1).T


def auto_spherical_average(fam: AutomorphismFamily, x: AlgebraElement,
                           k: int) -> AlgebraElement:
    """Mean of gamma^n x over the shell |n|^2 = k.

    It is V ((V*xV) o M_k) V* with M_k[r, s] = m_k(phi_r - phi_s): one
    exact_multiplier_many call at the n^2 phase differences, on the twisted
    table of shell_averages; gamma_apply is the independent oracle.
    """
    shell = sphere_shell(fam.d, k)
    mult = exact_multiplier_many(shell, _phase_differences(fam)).reshape(fam.n, fam.n)
    v = fam.basis
    return hermitian_element(v @ ((v.conj().T @ x.entries @ v) * mult) @ v.conj().T)


def shell_averages(fam: AutomorphismFamily, x: AlgebraElement,
                   max_k: int) -> dict:
    """{k: auto_spherical_average(fam, x, k)} over the nonempty shells
    1 <= k <= max_k, in increasing k.

    One twisted_counts table at the n^2 phase differences gives every
    multiplier M_k = table[:, k] / r_d(k); the averages V((V*xV) o M_k)V*
    are then one batched product.  No shell is enumerated.
    """
    counts = _rep_counts_array(fam.d, max_k)
    ks = [k for k in range(1, max_k + 1) if counts[k] > 0]
    table = twisted_counts(_phase_differences(fam), max_k)
    mults = (table[:, ks] / counts[ks]).T.reshape(len(ks), fam.n, fam.n)
    v = fam.basis
    avgs = v @ ((v.conj().T @ x.entries @ v) * mults) @ v.conj().T
    return {k: hermitian_element(avg) for k, avg in zip(ks, avgs)}


def check_orbit_budget(fam: AutomorphismFamily, span: int) -> None:
    """Refuse an orbit box |m|_inf <= span over DEFAULT_POINT_BUDGET."""
    w = 2 * span + 1
    check_budget(w ** fam.d * fam.n ** 2, f"{w}^{fam.d} orbit sites of {fam.n}x{fam.n} entries")


def _phase_box(fam: AutomorphismFamily, xt: np.ndarray, span: int) -> np.ndarray:
    """Grid of xt o e(m . (phi_r - phi_s)) over the box |m|_inf <= span, shape
    (2s+1,)*d + (n,n): gamma^m in the joint eigenbasis, xt = V*xV.

    Its width^d * n^2 entries are checked against DEFAULT_POINT_BUDGET
    (check_orbit_budget) before anything is allocated.  It is built one axis
    at a time, as the outer product of the grid over the axes before it with
    that axis's phases e(m_i (phi_r - phi_s)), so each entry takes its
    factors in axis order.
    """
    check_orbit_budget(fam, span)
    n = fam.n
    box = xt[None]
    steps = np.arange(-span, span + 1)
    for dphi in fam.phases[:, :, None] - fam.phases[:, None, :]:
        phase = np.exp(2j * np.pi * steps[:, None, None] * dphi)
        box = (box[:, None] * phase[None]).reshape(-1, n, n)
    return box.reshape((2 * span + 1,) * fam.d + (n, n))


def _rotate_back(v: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Overwrite every n x n site B of a contiguous stack (w, ..., n, n)
    with V B V*, and return the stack.

    Each slice of the first axis takes two GEMMs over all its sites at
    once, V B and then (V B) V*: O(n^3) a site, and the peak is the stack
    plus two slices.
    """
    n = v.shape[0]
    vh = v.conj().T
    for block in sites.reshape(sites.shape[0], -1, n, n):
        left = v @ block.transpose(1, 0, 2).reshape(n, -1)
        block[...] = (left.reshape(-1, n) @ vh).reshape(n, -1, n).transpose(1, 0, 2)
        del left  # else it is a third live slice during the next V product
    return sites


def _orbit_box(fam: AutomorphismFamily, x: AlgebraElement, span: int) -> np.ndarray:
    """Grid of gamma^m x over the box |m|_inf <= span, shape (2s+1,)*d+(n,n):
    the phase box of V*xV rotated back to V B V*, site by site."""
    v = fam.basis
    return _rotate_back(v, _phase_box(fam, v.conj().T @ x.entries @ v, span))


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
    for point in shell.points.tolist():
        out += box[tuple(slice(margin - c, margin - c + width) for c in point)]
    out /= shell.count
    return out


def truncation_identity_check(fam: AutomorphismFamily, x: AlgebraElement,
                              window: int, k_cap_sq: int) -> float:
    """Max deviation between lattice and automorphism spherical averages.

    With g the orbit truncated to |n|_inf <= window and cap = sqrt(k_cap_sq),
    the spherical convolution of g agrees with gamma^n applied to the
    automorphism average, entrywise, at every site |n|_inf <= window - cap
    and every shell k <= cap^2.  Both sides are summed in the joint
    eigenbasis, where conjugation by the fixed V commutes with the lattice
    sum: the lattice side is inner_shell_average over the phase box of V*xV
    on the whole window (enumerated shell slices), the automorphism side
    the phase box of V* avg V on the inner sites, every avg from one
    shell_averages table (the twisted theta table).  Only their
    difference on the inner sites is rotated back to V (lhs - rhs) V*
    before the max is taken; the return value is pure floating-point
    roundoff.  k_cap_sq must be a perfect square >= 1.
    """
    if k_cap_sq < 1:
        raise ValueError(f"k_cap_sq must be >= 1, got {k_cap_sq}")
    cap = math.isqrt(k_cap_sq)
    if cap * cap != k_cap_sq:
        raise ValueError("k_cap_sq must be a perfect square")
    if cap > window:
        raise ValueError("need cap <= window")
    v = fam.basis
    vh = v.conj().T
    box = _phase_box(fam, vh @ x.entries @ v, window)
    inner = window - cap
    worst = 0.0
    for k, avg in shell_averages(fam, x, k_cap_sq).items():
        diff = inner_shell_average(box, sphere_shell(fam.d, k), cap)
        diff -= _phase_box(fam, vh @ avg.entries @ v, inner)
        worst = max(worst, float(np.abs(_rotate_back(v, diff)).max()))
    return worst


def maximal_ratio_experiment(fam: AutomorphismFamily, x: AlgebraElement,
                             k_list, p: float, tol: float = 1e-7) -> list:
    """Rows (K, ratio, lower_bound, upper_bound, solver_gap).

    ratio = maximal norm of {average over shell k : k = 1..K} divided by
    ||x||_p, the averages taken from one shell_averages call up to the
    largest K.  Over the row's averages x_j, lower_bound is the trivial
    envelope bound max_j ||x_j||_p / ||x||_p, not the solver's certified
    lower bound, which is ratio - solver_gap: solver_gap comes from the
    weak-duality bound of ncmax_norm's dual slacks, so it holds whether or
    not the solve converged; upper_bound is ||sum_j |x_j| ||_p / ||x||_p.  Growing K only adds family members, so
    the sequence is monotone nondecreasing; boundedness in K is reported,
    not asserted, since no effective constant is available.

    The rows are solved on a ladder of active members.  The first row
    solves its whole family.  At each later row, one batched eigvalsh of
    a -/+ x_j at the current envelope a tests every member outside the
    active set; while some member is violated, the (at most LADDER_ADD)
    most violated join the active set, which is solved again.  A row with
    no violated member keeps the last certificate, whose gap still holds:
    obj - gap <= OPT(active) <= OPT(full) <= obj, the middle step because
    the active set is a subfamily (its dual slacks, padded with Z = 0 on
    the members outside it, are dual slacks of the full family) and the
    last because a dominates every member.  A certificate that did not
    converge is reported as it is, its gap still a bound.
    """
    k_list = sorted(int(k) for k in k_list)
    if not k_list or k_list[0] < 1:
        raise ValueError("k_list must contain positive integers")
    base = schatten_norm(x, p)
    if base == 0.0:
        raise ValueError("x must be nonzero")
    averages = shell_averages(fam, x, k_list[-1])
    members = tuple(averages.values())
    cert = None
    rows = []
    for k_top in k_list:
        prob = MaxNormProblem(p=p, family=members[:sum(1 for k in averages if k <= k_top)])
        if cert is None:
            active = list(range(len(prob.family)))
            cert = ncmax_norm(prob, tol=tol)
        while violated := _violated_members(cert.envelope.entries, prob.members, active):
            active = sorted(active + violated)
            cert = ncmax_norm(MaxNormProblem(p=p, family=tuple(members[j] for j in active)),
                              tol=tol)
        lower, upper = envelope_bounds(prob)
        rows.append((k_top, cert.objective / base, lower / base, upper / base,
                     cert.gap / base))
    return rows


def _violated_members(a: np.ndarray, xs: np.ndarray, active: list) -> list:
    """Up to LADDER_ADD indices j outside active, most violated first, at
    which a - x_j or a + x_j has a negative eigenvalue: one batched eigvalsh
    over every member outside active."""
    outside = sorted(set(range(len(xs))) - set(active))
    if not outside:
        return []
    lam = np.linalg.eigvalsh(np.stack([a - xs[outside], a + xs[outside]]))
    worst = lam.min(axis=(0, 2))
    return [outside[i] for i in np.argsort(worst, kind="stable")[:LADDER_ADD]
            if worst[i] < 0.0]
