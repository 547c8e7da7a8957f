"""Matrix p-norms and the maximal-envelope norm on finite matrix algebras.

The maximal norm of a finite family x_1..x_N of hermitian n x n matrices is

    inf { ||a||_p : a is positive semidefinite, -a <= x_j <= a for all j },

the noncommutative analogue of the p-norm of sup_j |x_j|.  The infimum is a
convex program over the hermitian matrices: the constraint set is an
intersection of semidefinite order intervals, and tr(a^p) is convex for
p >= 1.  ncmax_norm solves it with a logarithmic-barrier interior-point
method whose Newton systems are set up on the complex row-major vec of the
step; two exact oracles (diagonal pinching, 2x2 grid refinement) pin the
solver's accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12
DEFAULT_TOL = 1e-7
DEFAULT_NEWTON_BUDGET = 20_000
# ncmax_grid_oracle_2x2: refinement stages, grid points per axis and stage
GRID_STAGES = 12
GRID_POINTS = 15

# Backtracking constants: Armijo fraction, step shrink factor.
ARMIJO = 0.25
SHRINK = 0.5


@dataclass(frozen=True)
class AlgebraElement:
    """A hermitian element of M_n, the algebra with the unnormalized trace."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=complex)
        if ent.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}, got {ent.shape}")
        dev = np.abs(ent - ent.conj().T).max()
        scale = max(1.0, float(np.abs(ent).max()))
        if dev > HERM_TOL * scale:
            raise ValueError(f"matrix is not hermitian (deviation {dev:.3e})")
        object.__setattr__(self, "entries", 0.5 * (ent + ent.conj().T))


def hermitian_element(entries) -> AlgebraElement:
    ent = np.asarray(entries, dtype=complex)
    return AlgebraElement(n=ent.shape[0], entries=ent)


@dataclass(frozen=True)
class MaxNormProblem:
    """A p-exponent together with a finite family of hermitian matrices."""

    p: float
    family: tuple

    def __post_init__(self):
        if not self.family:
            raise ValueError("family must be nonempty")
        if not (1.0 <= self.p):
            raise ValueError("p must lie in [1, inf]")
        n = self.family[0].n
        for x in self.family:
            if not isinstance(x, AlgebraElement):
                raise ValueError("family members must be hermitian AlgebraElements")
            if x.n != n:
                raise ValueError("family members must share the matrix dimension")

    @property
    def n(self) -> int:
        return self.family[0].n


@dataclass(frozen=True)
class MaxNormCertificate:
    """Solver output: envelope matrix, objective, feasibility margin, gap."""

    envelope: AlgebraElement
    objective: float
    residual: float      # least eigenvalue among {a - x_j, a + x_j}
    gap: float           # bound on objective minus the true infimum
    converged: bool
    newton_steps: int


def schatten_norm(x: AlgebraElement, p) -> float:
    """(sum of |lambda_i|^p)^(1/p) over the eigenvalues of x; max for p = inf."""
    sig = np.abs(np.linalg.eigvalsh(x.entries))
    if math.isinf(p):
        return float(sig.max())
    if p < 1.0:
        raise ValueError("p must be >= 1")
    return float((sig ** p).sum() ** (1.0 / p))


def _divided_differences(lam: np.ndarray, p: float) -> np.ndarray:
    """Matrix f[1](lam_i, lam_j) for f(t) = t^(p-1) on positive eigenvalues."""
    e = p - 1.0
    f = lam ** e
    num = f[:, None] - f[None, :]
    den = lam[:, None] - lam[None, :]
    scale = max(lam.max(), 1e-300)
    close = np.abs(den) < 1e-12 * scale
    out = np.where(close, 1.0, num) / np.where(close, 1.0, den)
    if e == 0.0:
        deriv = np.zeros_like(lam)
    else:
        deriv = e * lam ** (e - 1.0)
    diag = 0.5 * (deriv[:, None] + deriv[None, :])
    return np.where(close, diag, out)


def _slacks(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Hermitian parts of the 2N barrier arguments a - x_1, a + x_1, ...,
    a + x_N, stacked in that order."""
    ys = np.stack([a - xs, a + xs], axis=1).reshape(-1, *a.shape)
    return 0.5 * (ys + ys.conj().swapaxes(-1, -2))


def _barrier_value(a: np.ndarray, xs: np.ndarray, p: float, mu: float) -> float:
    """tr(a^p) - mu * sum_j log det Y_j over the slacks Y_j, or inf outside
    the domain.  One batched Cholesky Y_j = L_j L_j* both tests every slack
    for positive definiteness and gives log det Y_j = 2 sum_i log L_j[i,i]."""
    lam = np.linalg.eigvalsh(a)
    if lam.min() <= 0.0:
        return math.inf
    try:
        chol = np.linalg.cholesky(_slacks(a, xs))
    except np.linalg.LinAlgError:
        return math.inf
    logdet = 2.0 * float(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real).sum())
    return float((lam ** p).sum()) - mu * logdet


def _power_hessian(lam: np.ndarray, vecs: np.ndarray, p: float) -> np.ndarray:
    """p K diag(vec F1) K* with K = V (x) conj(V): the Hessian of tr(a^p) at
    a = V diag(lam) V* on row-major vec, which maps vec E to
    p vec(V (F1 o V* E V) V*) with F1 the divided differences of t^(p-1)."""
    kron = np.kron(vecs, vecs.conj())
    return p * (kron * _divided_differences(lam, p).ravel()) @ kron.conj().T


def _barrier_hessian(yinvs: np.ndarray) -> np.ndarray:
    """sum_j W_j (x) W_j^T over the stack W_j = Y_j^{-1}, the Hessian of
    -sum_j log det Y_j on row-major vec, which maps vec E to
    vec(sum_j W_j E W_j) (Boyd-Vandenberghe, Convex Optimization, A.4.1).

    Entry [(a,b),(c,d)] = sum_j W_j[a,c] W_j[d,b] is read off one Gram
    matrix S[a,b,c,d] = sum_j W_j[a,b] W_j[c,d] at [a,c,d,b], a single GEMM
    over the stack.
    """
    n = yinvs.shape[-1]
    flat = yinvs.reshape(len(yinvs), n * n)
    gram = (flat.T @ flat).reshape(n, n, n, n)
    return gram.transpose(0, 3, 1, 2).reshape(n * n, n * n)


def ncmax_norm(prob: MaxNormProblem, tol: float = DEFAULT_TOL) -> MaxNormCertificate:
    """Interior-point solve of the maximal-envelope norm, in at most
    DEFAULT_NEWTON_BUDGET Newton steps.

    Minimizes tr(a^p) - mu * sum_j [logdet(a - x_j) + logdet(a + x_j)] along a
    decreasing mu-path; each center is found by Newton's method, one complex
    n^2 x n^2 system on the row-major vec of the step, with backtracking line
    search.  The constraints -a <= x_j <= a already force a >= 0 (average the
    two sides), so no separate positivity barrier is needed.  For p = inf the
    optimum is known in closed form: tI is feasible exactly when
    t >= max_j rho(x_j), and any feasible a has v*av >= |v*x_jv| at a peak
    eigenvector v, so the bisection the barrier method would perform
    collapses to that threshold.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    p = float(prob.p)
    xs = np.stack([x.entries for x in prob.family])
    n = prob.n
    big_n = len(prob.family)

    scale = float(np.abs(np.linalg.eigvalsh(xs)).max())   # max_j rho(x_j)
    if math.isinf(p):
        a = scale * np.eye(n)
        res = float(np.linalg.eigvalsh(_slacks(a, xs)).min())
        return MaxNormCertificate(envelope=hermitian_element(a), objective=scale,
                                  residual=res, gap=0.0, converged=True,
                                  newton_steps=0)

    if scale == 0.0:
        zero = hermitian_element(np.zeros((n, n)))
        return MaxNormCertificate(envelope=zero, objective=0.0, residual=0.0,
                                  gap=0.0, converged=True, newton_steps=0)

    # Strictly feasible start: the sum of moduli dominates every |x_j|.
    a = sum(matrix_abs(x) for x in xs) + (tol * scale) * np.eye(n)

    nu = 2.0 * big_n * n          # total barrier degree, controls the gap
    mu = float((np.linalg.eigvalsh(a) ** p).sum()) / nu
    steps = 0
    converged = False

    while True:
        # Newton centering at the current mu.
        for _ in range(60):
            if steps >= DEFAULT_NEWTON_BUDGET:
                break
            lam, vecs = np.linalg.eigh(a)
            yinvs = np.linalg.inv(_slacks(a, xs))
            yinvs = 0.5 * (yinvs + yinvs.conj().swapaxes(-1, -2))
            grad = (vecs * (p * lam ** (p - 1.0))) @ vecs.conj().T
            grad = grad - mu * yinvs.sum(axis=0)

            # hess maps hermitian matrices to hermitian matrices and is
            # positive definite, so the step for the hermitian -grad is
            # hermitian; hermitizing it removes only roundoff.
            hess = _power_hessian(lam, vecs, p) + mu * _barrier_hessian(yinvs)
            try:
                step = np.linalg.solve(hess, -grad.ravel())
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, -grad.ravel(), rcond=None)[0]
            step = step.reshape(n, n)
            step = 0.5 * (step + step.conj().T)
            slope = float(np.vdot(grad, step).real)   # -(Newton decrement)^2
            if slope >= 0.0:
                break

            f0 = _barrier_value(a, xs, p, mu)
            s = 1.0
            while s > 1e-14:
                if _barrier_value(a + s * step, xs, p, mu) <= f0 + ARMIJO * s * slope:
                    break
                s *= SHRINK
            a = a + s * step
            a = 0.5 * (a + a.conj().T)
            steps += 1
            if -slope <= 1e-12 * (1.0 + abs(f0)):
                break

        tr_val = float((np.linalg.eigvalsh(a) ** p).sum())
        gap_tr = mu * nu
        obj = tr_val ** (1.0 / p)
        gap = obj - max(tr_val - gap_tr, 0.0) ** (1.0 / p)
        if gap <= tol * obj:
            converged = True
            break
        if steps >= DEFAULT_NEWTON_BUDGET:
            break
        mu *= 0.125

    res = float(np.linalg.eigvalsh(_slacks(a, xs)).min())
    return MaxNormCertificate(envelope=hermitian_element(a),
                              objective=schatten_norm(hermitian_element(a), p),
                              residual=res, gap=gap, converged=converged,
                              newton_steps=steps)


def matrix_abs(x: np.ndarray) -> np.ndarray:
    """|x| = (x* x)^{1/2} of a hermitian matrix, through its eigenbasis."""
    lam, vecs = np.linalg.eigh(x)
    return (vecs * np.abs(lam)) @ vecs.conj().T


def envelope_bounds(prob: MaxNormProblem) -> tuple[float, float]:
    """max_j ||x_j||_p and ||sum_j |x_j| ||_p, between which the maximal
    norm lies: every feasible a dominates each |x_j|, and sum_j |x_j| is
    feasible."""
    lower = max(schatten_norm(x, prob.p) for x in prob.family)
    upper = schatten_norm(
        hermitian_element(sum(matrix_abs(x.entries) for x in prob.family)), prob.p)
    return lower, upper


def ncmax_diag_oracle(prob: MaxNormProblem) -> float:
    """Exact value for simultaneously diagonal families.

    Pinching any feasible envelope onto the diagonal preserves the order
    constraints and never increases the p-norm, so the optimum is the p-norm
    of the entrywise maximum diag_i(max_j |x_j[i,i]|).
    """
    diag_cols = []
    for x in prob.family:
        off = x.entries - np.diag(np.diag(x.entries))
        if np.abs(off).max() > 1e-10 * max(1.0, np.abs(x.entries).max()):
            raise ValueError("family is not simultaneously diagonal")
        diag_cols.append(np.diag(x.entries).real)
    env = np.abs(np.stack(diag_cols)).max(axis=0)
    return schatten_norm(hermitian_element(np.diag(env)), prob.p)


def ncmax_grid_oracle_2x2(prob: MaxNormProblem) -> float:
    """Brute-force optimum for n = 2 by staged grid refinement.

    A hermitian 2x2 envelope is four reals (a11, a22, Re a12, Im a12).  Each
    of GRID_STAGES stages scans a GRID_POINTS^4 grid over the current box,
    keeps the best feasible point, and shrinks the box around it.
    Feasibility of a 2x2 order constraint is exact: trace >= 0 and
    determinant >= 0.
    """
    if prob.n != 2:
        raise ValueError("grid oracle only covers n = 2")
    xs = np.stack([x.entries for x in prob.family])
    radius = sum(float(np.abs(np.linalg.eigvalsh(x)).max()) for x in xs)

    center = np.array([radius, radius, 0.0, 0.0])
    half = np.array([radius, radius, radius, radius])
    best = math.inf
    slack = 1e-12 * max(radius, 1.0)

    for _ in range(GRID_STAGES):
        axes = [np.linspace(c - h, c + h, GRID_POINTS) for c, h in zip(center, half)]
        g11, g22, gre, gim = np.meshgrid(*axes, indexing="ij")
        g11, g22, gre, gim = (g.ravel() for g in (g11, g22, gre, gim))

        ok = np.ones(g11.shape, dtype=bool)
        for x in xs:
            for sgn in (-1.0, 1.0):
                y11 = g11 + sgn * x[0, 0].real
                y22 = g22 + sgn * x[1, 1].real
                yre = gre + sgn * x[0, 1].real
                yim = gim + sgn * x[0, 1].imag
                tr = y11 + y22
                det = y11 * y22 - (yre * yre + yim * yim)
                ok &= (tr >= -slack) & (det >= -slack)
        if not ok.any():
            half = half * 1.5
            continue

        tr = g11 + g22
        det = g11 * g22 - (gre * gre + gim * gim)
        disc = np.sqrt(np.maximum(0.25 * tr * tr - det, 0.0))
        e1 = np.abs(0.5 * tr + disc)
        e2 = np.abs(0.5 * tr - disc)
        if math.isinf(prob.p):
            val = np.maximum(e1, e2)
        else:
            val = (e1 ** prob.p + e2 ** prob.p) ** (1.0 / prob.p)
        val = np.where(ok, val, math.inf)
        k = int(val.argmin())
        if val[k] < best:
            best = float(val[k])
        center = np.array([g11[k], g22[k], gre[k], gim[k]])
        half = half * (2.2 / (GRID_POINTS - 1))
    return best
