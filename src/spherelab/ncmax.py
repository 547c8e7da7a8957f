"""Matrix p-norms and the maximal-envelope norm on finite matrix algebras.

The maximal norm of a finite family x_1..x_N of hermitian n x n matrices is

    inf { ||a||_p : a is positive semidefinite, -a <= x_j <= a for all j },

the noncommutative analogue of the p-norm of sup_j |x_j|.  The infimum is a
convex program over the hermitian matrices: the constraint set is an
intersection of semidefinite order intervals, and tr(a^p) is convex for
p >= 1.  ncmax_norm solves it with a logarithmic-barrier interior-point
method whose Newton systems are set up on the complex row-major vec of the
step.  The path starts at the scalar envelope, a multiple of the identity
just above the largest spectral radius, with mu set by how far its tr(a^p)
lies above the lower envelope bound max_j ||x_j||_p^p, and mu falls 8x a
stage.  Centering is staged: a mu stage that cannot certify the gap stops
at a loose Newton decrement, and only the stage that certifies is centred
tightly.  Each accepted point keeps the one eigh and Cholesky that
accepted it for the step, barrier value and gap test that follow.  Two
exact oracles (diagonal pinching, 2x2 grid refinement) pin the solver's
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

HERM_TOL = 1e-12
DEFAULT_TOL = 1e-7
DEFAULT_NEWTON_BUDGET = 20_000
# Newton steps one centering may take to meet its decrement test
CENTERING_STEPS = 60
# A mu stage that cannot be the last stops centering once -slope, the
# squared Newton decrement, is at most this multiple of mu
LOOSE_DECREMENT = 2.0
# mu falls by this factor from one stage to the next
MU_FACTOR = 0.125
# The start c I has c = (1 + START_MARGIN) max_j rho(x_j)
START_MARGIN = 0.1
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
        if not np.isfinite(ent).all():
            i, j = np.argwhere(~np.isfinite(ent))[0]
            raise ValueError(f"entry ({i}, {j}) is not finite: {ent[i, j]}")
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


def _signed_stack(xs: np.ndarray) -> np.ndarray:
    """-x_1, x_1, ..., -x_N, x_N stacked in that order, built once a solve."""
    return np.stack([-xs, xs], axis=1).reshape(-1, *xs.shape[1:])


def _slacks(a: np.ndarray, signed: np.ndarray) -> np.ndarray:
    """The 2N barrier arguments a - x_1, a + x_1, ..., a + x_N as a + signed,
    signed = _signed_stack(xs): bitwise a - x_j, since IEEE a + (-x) is
    a - x.  Exactly hermitian, as ncmax_norm keeps a and every x_j."""
    return a + signed


class _Point(NamedTuple):
    """An envelope a inside the barrier's domain, with what the solver reads
    off it: tr(a^p), sum_j log det Y_j over the slacks, and eigh(a)."""

    a: np.ndarray
    trace_power: float
    logdet: float
    lam: np.ndarray
    vecs: np.ndarray

    def barrier(self, mu: float) -> float:
        return self.trace_power - mu * self.logdet


def _barrier_point(a: np.ndarray, signed: np.ndarray, p: float) -> _Point | None:
    """The _Point at a, or None outside the domain.  One batched Cholesky
    Y_j = L_j L_j* both tests every slack for positive definiteness and
    gives log det Y_j = 2 sum_i log L_j[i,i]; it runs first, so a trial
    outside the domain costs no eigen-solve of a."""
    try:
        chol = np.linalg.cholesky(_slacks(a, signed))
    except np.linalg.LinAlgError:
        return None
    lam, vecs = np.linalg.eigh(a)
    if lam.min() <= 0.0:
        return None
    logdet = 2.0 * float(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real).sum())
    return _Point(a, float((lam ** p).sum()), logdet, lam, vecs)


def _power_hessian(lam: np.ndarray, vecs: np.ndarray, p: float) -> np.ndarray:
    """p K diag(vec F1) K* with K = V (x) conj(V): the Hessian of tr(a^p) at
    a = V diag(lam) V* on row-major vec, which maps vec E to
    p vec(V (F1 o V* E V) V*) with F1 the divided differences of t^(p-1).
    Formed in O(n^5) as p P F1 P* with P[(a,c),i] = V[a,i] conj V[c,i]
    (n^2 x n), whose axes 1 and 2 swapped give [(a,b),(c,d)]; no kron."""
    n = len(lam)
    pmat = (vecs[:, None] * vecs.conj()).reshape(n * n, n)
    h = (p * pmat) @ _divided_differences(lam, p) @ pmat.conj().T
    return h.reshape((n,) * 4).swapaxes(1, 2).reshape(n * n, n * n)


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


def _newton_system(point: _Point, signed: np.ndarray, p: float, mu: float):
    """Gradient and Hessian of the barrier at point.a on row-major vec.  A
    slack that the Cholesky test accepted but LU calls singular is
    pseudo-inverted, as _solve_hermitian falls back to lstsq."""
    slacks = _slacks(point.a, signed)
    try:
        yinvs = np.linalg.inv(slacks)
    except np.linalg.LinAlgError:
        yinvs = np.linalg.pinv(slacks, hermitian=True)
    yinvs = 0.5 * (yinvs + yinvs.conj().swapaxes(-1, -2))
    lam, vecs = point.lam, point.vecs
    grad = (vecs * (p * lam ** (p - 1.0))) @ vecs.conj().T - mu * yinvs.sum(axis=0)
    hess = _power_hessian(lam, vecs, p) + mu * _barrier_hessian(yinvs)
    return grad, hess


def _solve_hermitian(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """hess^{-1} vec(rhs) for a hermitian rhs, as a hermitian matrix.  hess
    maps hermitian matrices to hermitian matrices and is positive definite,
    so the solution is hermitian; hermitizing it removes only roundoff."""
    n = rhs.shape[0]
    try:
        sol = np.linalg.solve(hess, rhs.ravel())
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(hess, rhs.ravel(), rcond=None)[0]
    sol = sol.reshape(n, n)
    return 0.5 * (sol + sol.conj().T)


def _center(point: _Point, signed: np.ndarray, p: float, mu: float,
            floor: float, steps: int):
    """Newton centering of the barrier at mu from point, with backtracking
    line search, until -slope (the squared Newton decrement) is at most
    max(1e-12 (1 + |f0|), floor) or the step count reaches
    DEFAULT_NEWTON_BUDGET.  Returns the last point, the step count, and
    False when CENTERING_STEPS steps did not meet the test or the line
    search could not stay in the domain."""
    f0 = point.barrier(mu)
    for _ in range(CENTERING_STEPS):
        if steps >= DEFAULT_NEWTON_BUDGET:
            return point, steps, True
        grad, hess = _newton_system(point, signed, p, mu)
        step = _solve_hermitian(hess, -grad)
        slope = float(np.vdot(grad, step).real)   # -(Newton decrement)^2
        if slope >= 0.0:
            return point, steps, True

        s = 1.0
        while s > 1e-14:
            trial = _barrier_point(point.a + s * step, signed, p)
            if trial is not None and trial.barrier(mu) <= f0 + ARMIJO * s * slope:
                break
            s *= SHRINK
        else:
            trial = _barrier_point(point.a + s * step, signed, p)
            if trial is None:   # even the shortest step leaves the domain
                return point, steps, False
        point = trial
        steps += 1
        if -slope <= max(1e-12 * (1.0 + abs(f0)), floor):
            return point, steps, True
        f0 = point.barrier(mu)
    return point, steps, False   # out of steps before the test


def _objective_gap(trace_power: float, mu: float, nu: float, p: float):
    """tr(a^p)^(1/p) and its distance to (tr(a^p) - mu nu)^(1/p), the gap
    that mu nu bounds at a central point."""
    obj = trace_power ** (1.0 / p)
    return obj, obj - max(trace_power - mu * nu, 0.0) ** (1.0 / p)


def _start(sig: np.ndarray, signed: np.ndarray, p: float, nu: float):
    """The path's first point and mu, from sig, the moduli of the members'
    eigenvalues (one row a member).  The point is c I with
    c = (1 + START_MARGIN) max_j rho(x_j), strictly between every -x_j and
    x_j: every slack c I -+ x_j has its eigenvalues between
    START_MARGIN rho and (2 + START_MARGIN) rho.  c I is exactly hermitian,
    and so is every later iterate.

    -a <= x_j <= a forces ||x_j||_p <= ||a||_p, so mu nu starts at the
    envelope gap tr(c^p I) - max_j ||x_j||_p^p, the most the start's
    tr(a^p) can exceed the optimum's.  It stays positive well above
    roundoff, as n c^p >= (1 + START_MARGIN)^p max_j ||x_j||_p^p, unless
    c^p overflows or underflows, which is refused."""
    scale = float(sig.max())
    point = _barrier_point((1.0 + START_MARGIN) * scale * np.eye(sig.shape[-1]),
                           signed, p)
    mu = (math.nan if point is None
          else (point.trace_power - float((sig ** p).sum(axis=1).max())) / nu)
    if not 0.0 < mu < math.inf:
        raise ValueError(f"max_j rho(x_j) = {scale:.3e} takes tr(a^p) out of "
                         f"floating-point range at p = {p}")
    return point, mu


def ncmax_norm(prob: MaxNormProblem, tol: float = DEFAULT_TOL) -> MaxNormCertificate:
    """Interior-point solve of the maximal-envelope norm, in at most
    DEFAULT_NEWTON_BUDGET Newton steps.  converged is False when that
    budget runs out, or when some centering takes CENTERING_STEPS steps
    without meeting its decrement test: the reported gap mu * nu bounds the
    error only at a central point.

    Minimizes tr(a^p) - mu * sum_j [logdet(a - x_j) + logdet(a + x_j)] along a
    decreasing mu-path.  The path starts at the scalar envelope c I just
    above max_j rho(x_j), with mu nu the envelope gap
    tr(c^p I) - max_j ||x_j||_p^p (_start), and mu falls by MU_FACTOR from
    one stage to the next.  Each center is found by Newton's method
    (_center), one complex n^2 x n^2 system on the row-major vec of the
    step, with backtracking line search.  Centering is staged: only the
    stage that certifies needs a tight center (Boyd-Vandenberghe, Convex
    Optimization, 11.3).  A stage whose starting tr(a^p) already passes the gap test at
    its mu is centred tightly, to -slope <= 1e-12 (1 + |f0|); any other
    stage stops at -slope <= max(1e-12 (1 + |f0|), LOOSE_DECREMENT * mu),
    that is once the Newton decrement lambda^2 / mu of the barrier divided
    by mu is at most LOOSE_DECREMENT.  A loosely centred stage that passes
    the gap test is centred again tightly at the same mu and tested again,
    so a gap is only reported from a tight center.  The next stage starts
    from the last center.  Every accepted point carries its eigh(a),
    tr(a^p) and log dets (_Point, from the trial that accepted it), which
    serve the next Newton step, the next stage's starting barrier value and
    the stage's gap test.

    The constraints -a <= x_j <= a already force a >= 0 (average the
    two sides), so no separate positivity barrier is needed.  For p = inf the
    optimum is known in closed form: tI is feasible exactly when
    t >= max_j rho(x_j), and any feasible a has v*av >= |v*x_jv| at a peak
    eigenvector v, so the bisection the barrier method would perform
    collapses to that threshold.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    p = float(prob.p)
    xs = np.stack([x.entries for x in prob.family])
    signed = _signed_stack(xs)
    n = prob.n
    big_n = len(prob.family)

    sig = np.abs(np.linalg.eigvalsh(xs))
    scale = float(sig.max())   # max_j rho(x_j)
    if math.isinf(p):
        a = scale * np.eye(n)
        res = float(np.linalg.eigvalsh(_slacks(a, signed)).min())
        return MaxNormCertificate(envelope=hermitian_element(a), objective=scale,
                                  residual=res, gap=0.0, converged=True,
                                  newton_steps=0)

    if scale == 0.0:
        zero = hermitian_element(np.zeros((n, n)))
        return MaxNormCertificate(envelope=zero, objective=0.0, residual=0.0,
                                  gap=0.0, converged=True, newton_steps=0)

    nu = 2.0 * big_n * n          # total barrier degree, controls the gap
    point, mu = _start(sig, signed, p, nu)
    steps = 0
    converged = False
    centered = True    # no centering has run out of CENTERING_STEPS

    while True:
        obj, gap = _objective_gap(point.trace_power, mu, nu, p)
        loose = gap > tol * obj   # this stage cannot be the last
        point, steps, ok = _center(point, signed, p, mu,
                                   LOOSE_DECREMENT * mu if loose else 0.0, steps)
        centered &= ok
        obj, gap = _objective_gap(point.trace_power, mu, nu, p)
        if loose and gap <= tol * obj:
            point, steps, ok = _center(point, signed, p, mu, 0.0, steps)
            centered &= ok
            obj, gap = _objective_gap(point.trace_power, mu, nu, p)
        if gap <= tol * obj:
            # mu * nu bounds the gap only at a central point
            converged = centered
            break
        if steps >= DEFAULT_NEWTON_BUDGET:
            break
        mu *= MU_FACTOR

    a = point.a
    res = float(np.linalg.eigvalsh(_slacks(a, signed)).min())
    return MaxNormCertificate(envelope=hermitian_element(a),
                              objective=schatten_norm(hermitian_element(a), p),
                              residual=res, gap=gap, converged=converged,
                              newton_steps=steps)


def matrix_abs(x: np.ndarray) -> np.ndarray:
    """|x| = (x* x)^{1/2} of a hermitian matrix, or of each matrix of a
    stack, through its eigenbasis."""
    lam, vecs = np.linalg.eigh(x)
    return (vecs * np.abs(lam)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def envelope_bounds(prob: MaxNormProblem) -> tuple[float, float]:
    """max_j ||x_j||_p and ||sum_j |x_j| ||_p, between which the maximal
    norm lies: every feasible a dominates each |x_j|, and sum_j |x_j| is
    feasible.  One batched eigvalsh and one batched eigh over the members
    run the LAPACK routines of schatten_norm and matrix_abs on each, and
    each root is a scalar power as in schatten_norm, so both bounds are
    bitwise those of the per-member calls."""
    p = prob.p
    xs = np.stack([x.entries for x in prob.family])
    sig = np.abs(np.linalg.eigvalsh(xs))
    if math.isinf(p):
        lower = float(sig.max())
    else:
        lower = max(float(t) ** (1.0 / p) for t in (sig ** p).sum(axis=1))
    upper = schatten_norm(hermitian_element(sum(matrix_abs(xs))), p)
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
