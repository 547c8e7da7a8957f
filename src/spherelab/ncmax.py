"""Matrix p-norms and the maximal-envelope norm on finite matrix algebras.

The maximal norm of a finite family x_1..x_N of hermitian n x n matrices is

    inf { ||a||_p : a is positive semidefinite, -a <= x_j <= a for all j },

the noncommutative analogue of the p-norm of sup_j |x_j|.  The infimum is a
convex program over the hermitian matrices: the constraint set is an
intersection of semidefinite order intervals, and tr(a^p) is convex for
p >= 1.  ncmax_norm solves it with a primal-dual interior-point method
(the HKM direction, Mehrotra's predictor-corrector) that keeps a positive
definite dual slack beside each constraint a -+ x_j >= 0; each iteration
sets up one n^2 x n^2 system on the complex row-major vec of the step and
solves it twice.  It starts at the scalar envelope, a multiple of the
identity just above the largest spectral radius, with mu set by how far
its tr(a^p) lies above the lower envelope bound max_j ||x_j||_p^p, and
stops on a weak-duality gap: every iterate's dual slacks give a lower
bound on the optimum, so the reported gap bounds the error whether or not
the solve converged.  Two exact oracles (diagonal pinching, 2x2 grid
refinement) pin the solver's accuracy and lie inside that interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import check_budget

HERM_TOL = 1e-12
DEFAULT_TOL = 1e-7
DEFAULT_NEWTON_BUDGET = 20_000
# The start c I has c = (1 + START_MARGIN) max_j rho(x_j)
START_MARGIN = 0.1
# ncmax_grid_oracle_2x2: refinement stages, grid points per axis and stage
GRID_STAGES = 12
GRID_POINTS = 15

# Step lengths: the backtracking factor, and the fraction of the longest
# backtracked step that an iteration takes.
STEP_SHRINK = 0.8
STEP_FRACTION = 0.95


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
    """A p-exponent together with a finite family of hermitian matrices,
    stacked once as members with their |eigvalsh| moduli, both read-only."""

    p: float
    family: tuple
    members: np.ndarray = field(init=False, repr=False, compare=False)  # (N, n, n)
    moduli: np.ndarray = field(init=False, repr=False, compare=False)   # (N, n)

    def __post_init__(self):
        if not self.family:
            raise ValueError("family must be nonempty")
        if not (1.0 <= self.p):
            raise ValueError("p must lie in [1, inf]")
        if not all(isinstance(x, AlgebraElement) for x in self.family):
            raise ValueError("family members must be hermitian AlgebraElements")
        if len({x.n for x in self.family}) > 1:
            raise ValueError("family members must share the matrix dimension")
        xs = np.stack([x.entries for x in self.family])
        sig = np.abs(np.linalg.eigvalsh(xs))
        for name, arr in (("members", xs), ("moduli", sig)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.family[0].n


@dataclass(frozen=True)
class MaxNormCertificate:
    """Solver output: envelope matrix, objective, feasibility margin, gap;
    newton_steps counts primal-dual iterations."""

    envelope: AlgebraElement
    objective: float
    residual: float      # least eigenvalue among {a - x_j, a + x_j}
    gap: float           # weak-duality bound on objective minus the infimum
    converged: bool
    newton_steps: int


def check_system_budget(n: int) -> None:
    """Refuse an n whose n^2 x n^2 step system is over the point budget."""
    check_budget(n ** 4, f"the n^2 x n^2 step system at n={n} has {n ** 4} entries")


def schatten_norm(x: AlgebraElement, p) -> float:
    """(sum of |lambda_i|^p)^(1/p) over the eigenvalues of x; max for p = inf."""
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    sig = np.abs(np.linalg.eigvalsh(x.entries))
    if math.isinf(p):
        return float(sig.max())
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
    """The 2N constraint slacks a - x_1, a + x_1, ..., a + x_N as a + signed,
    signed = _signed_stack(xs): bitwise a - x_j, since IEEE a + (-x) is
    a - x.  Exactly hermitian, as ncmax_norm keeps a and every x_j."""
    return a + signed


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


def _hkm_operator(yinvs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """E -> 1/2 sum_i (W_i E Z_i + Z_i E W_i) over the stacks W_i = Y_i^{-1}
    and Z_i on row-major vec: the HKM linearization of Y_i Z_i = mu I,
    which maps hermitian matrices to hermitian matrices and is positive
    definite.  The first half's entry [(a,b),(c,d)] = sum_i W_i[a,c] Z_i[d,b]
    is G[(a,c),(d,b)] of the one Gram product G = W^T Z over the stacks
    flattened to (2N, n^2), the second half's is G^T there, so both are one
    index permutation of G + G^T.  At Z_i = W_i it is the Hessian of
    -sum_i log det Y_i (Boyd-Vandenberghe, Convex Optimization, A.4.1).

    G is taken as n stacked (n, 2N) x (2N, n^2) products, one per row a of
    the W_i, bitwise the single (n^2, 2N) x (2N, n^2) GEMM: that GEMM is
    large enough at n = 8 for OpenBLAS to hand it to its worker threads,
    where it can run a hundredfold slower for a whole process."""
    n = yinvs.shape[-1]
    gram = (yinvs.transpose(1, 2, 0) @ zs.reshape(len(zs), n * n)).reshape(n * n, n * n)
    half = 0.5 * (gram + gram.T)
    return half.reshape((n,) * 4).transpose(0, 3, 1, 2).reshape(n * n, n * n)


def _sym(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 of each matrix of a stack, exactly hermitian."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _solve_hermitian(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """matrix^{-1} vec(rhs) for a hermitian rhs, as a hermitian matrix.
    matrix maps hermitian matrices to hermitian matrices and is positive
    definite, so the solution is hermitian; hermitizing it removes only
    roundoff."""
    n = rhs.shape[0]
    try:
        sol = np.linalg.solve(matrix, rhs.ravel())
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(matrix, rhs.ravel(), rcond=None)[0]
    return _sym(sol.reshape(n, n))


def _dual_bound(zs: np.ndarray, signed: np.ndarray, p: float) -> float:
    """The weak-duality lower bound g on tr(a^p) over every feasible a, from
    dual slacks Z_i >= 0 of the constraints Y_i = a + s_i >= 0, s_i the
    signed stack.  With A = -sum_i tr(Z_i s_i), S = sum_i Z_i and
    B = tr((S_+ / p)^(p/(p-1))), every t >= 0 and feasible a give
    tr(a^p) >= tr(a^p) - t sum_i tr(Z_i Y_i) = t A + tr(a^p) - t tr(S a)
    >= t A - (p - 1) t^(p/(p-1)) B, the last minimum over a >= 0 taken in
    the eigenbasis of S (Boyd-Vandenberghe, Convex Optimization, 5.9); g
    takes it at its maximizing t = (A / (p B))^(p-1).  For p = 1 the
    minimum is -inf unless t S <= I, so g = A / lambda_max(S).  g = 0 when
    A <= 0, where t = 0 is best."""
    big_a = -float(np.vdot(signed, zs).real)
    lam = np.linalg.eigvalsh(zs.sum(axis=0))
    if p == 1.0:
        top = float(lam.max())
        return big_a / top if big_a > 0.0 and top > 0.0 else 0.0
    big_b = float(((np.maximum(lam, 0.0) / p) ** (p / (p - 1.0))).sum())
    if big_a <= 0.0 or big_b == 0.0:
        return 0.0
    t = (big_a / (p * big_b)) ** (p - 1.0)
    return t * big_a - (p - 1.0) * t ** (p / (p - 1.0)) * big_b


def _step_length(slacks: np.ndarray, steps: np.ndarray, trial: np.ndarray) -> float:
    """The largest s in 1, STEP_SHRINK, STEP_SHRINK^2, ... above 1e-14 at
    which every slacks[i] + s steps[i] is positive definite, tested by one
    batched Cholesky a trial; 0.0 when none is.  Each trial is built in the
    buffer trial, which holds slacks + s steps for the s returned."""
    s = 1.0
    while s > 1e-14:
        np.multiply(steps, s, out=trial)
        trial += slacks
        try:
            np.linalg.cholesky(trial)
            return s
        except np.linalg.LinAlgError:
            s *= STEP_SHRINK
    np.multiply(steps, 0.0, out=trial)
    trial += slacks
    return 0.0


def _start(sig: np.ndarray, p: float, nu: float):
    """The first envelope and mu, from sig, the moduli of the members'
    eigenvalues (one row a member).  The envelope is c I with
    c = (1 + START_MARGIN) max_j rho(x_j), strictly between every -x_j and
    x_j: every slack c I -+ x_j has its eigenvalues between
    START_MARGIN rho and (2 + START_MARGIN) rho.  c I is exactly hermitian,
    and so is every later iterate.

    -a <= x_j <= a forces ||x_j||_p <= ||a||_p, so mu nu starts at the
    envelope gap tr(c^p I) - max_j ||x_j||_p^p, the most the start's
    tr(a^p) can exceed the optimum's.  It stays positive well above
    roundoff, as n c^p >= (1 + START_MARGIN)^p max_j ||x_j||_p^p, unless
    c^p overflows or underflows, which is refused."""
    n = sig.shape[-1]
    c = (1.0 + START_MARGIN) * sig.max()
    mu = (float(n * c ** p) - float((sig ** p).sum(axis=1).max())) / nu
    if not 0.0 < mu < math.inf:
        raise ValueError(f"max_j rho(x_j) = {sig.max():.3e} takes tr(a^p) out of "
                         f"floating-point range at p = {p}")
    return c * np.eye(n), mu


def _pd_step(lam: np.ndarray, vecs: np.ndarray, ys: np.ndarray,
             zs: np.ndarray, p: float):
    """One predictor-corrector step from the envelope a = V diag(lam) V*,
    its slacks Y_i and the dual slacks Z_i: (da, dZ, s), s the step length
    the iteration takes, 0.0 when no step keeps every slack definite.

    Linearizing p a^(p-1) = sum_i Z_i and Y_i Z_i = sigma mu I with the HKM
    direction dZ_i = sigma mu Y_i^{-1} - Z_i - sym(Y_i^{-1} da Z_i) leaves
    (H + _hkm_operator) da = sigma mu sum_i Y_i^{-1} - p a^(p-1), H the
    Hessian of tr(a^p), on the row-major vec of da.  Mehrotra's
    predictor-corrector solves it twice (Mehrotra, SIAM J. Optim. 1992;
    Boyd-Vandenberghe, Convex Optimization, 11.7): the predictor at
    sigma = 0 gives mu_aff, the mean of tr(Y_i Z_i) / n after its longest
    step, and the corrector takes sigma = (mu_aff / mu)^3 with the
    second-order term sym(Y_i^{-1} da_aff dZ_aff,i) subtracted from its
    right-hand side.  Both step lengths come from _step_length on the
    stacked [Y; Z], and the corrector moves STEP_FRACTION of its own.
    W_i da_aff is formed once, for dZ_aff and the second-order term, and
    mu_aff is read off the predictor's accepted trial."""
    m, n = ys.shape[0], ys.shape[-1]
    nu = m * n
    yinvs = _sym(np.linalg.inv(ys))
    matrix = _power_hessian(lam, vecs, p) + _hkm_operator(yinvs, zs)
    grad = (vecs * (p * lam ** (p - 1.0))) @ vecs.conj().T
    mu = float(np.vdot(ys, zs).real) / nu
    slacks = np.concatenate([ys, zs])
    steps, trial = np.empty_like(slacks), np.empty_like(slacks)

    def length(da, dzs):
        steps[:m] = da
        steps[m:] = dzs
        return _step_length(slacks, steps, trial)

    def times_w(d):
        """W_i d over the stack, one GEMM over W flattened to (2N n, n)."""
        return (yinvs.reshape(-1, n) @ d).reshape(yinvs.shape)

    da = _solve_hermitian(matrix, -grad)
    w_da = times_w(da)
    dzs = -zs - _sym(w_da @ zs)
    length(da, dzs)
    # trial holds Y_i + s da and Z_i + s dZ_i at the predictor's step
    sigma_mu = (float(np.vdot(trial[:m], trial[m:]).real) / nu / mu) ** 3 * mu
    second = _sym(w_da @ dzs)
    da = _solve_hermitian(matrix, sigma_mu * yinvs.sum(axis=0) - grad - second.sum(axis=0))
    dzs = sigma_mu * yinvs - zs - _sym(times_w(da) @ zs) - second
    return da, dzs, STEP_FRACTION * length(da, dzs)


def ncmax_norm(prob: MaxNormProblem, tol: float = DEFAULT_TOL) -> MaxNormCertificate:
    """Primal-dual interior-point solve of the maximal-envelope norm, in at
    most DEFAULT_NEWTON_BUDGET iterations; newton_steps counts them, each
    one n^2 x n^2 matrix (check_system_budget) and two solves.  The
    reported gap is objective - g^(1/p) for the weak-duality bound g of
    _dual_bound at the last dual slacks, so it bounds the error at every
    iterate: a solve that runs out of iterations, or whose step length
    underflows, reports converged False with a gap that still holds.

    Minimizes tr(a^p) subject to Y_i = a + s_i >= 0, s_i = -+x_j, keeping
    dual slacks Z_i > 0 beside a, by the predictor-corrector steps of
    _pd_step.  The iteration starts at the scalar envelope c I just above
    max_j rho(x_j) with Z_i = mu Y_i^{-1}, mu nu the envelope gap
    tr(c^p I) - max_j ||x_j||_p^p (_start) for nu = 2 N n, so that mu is
    the mean eigenvalue of the Y_i Z_i.  Padding Z = 0 beside the
    members a caller left out gives dual slacks of a larger family, so the
    bound of a subfamily's solve bounds the larger family's optimum too.

    The constraints -a <= x_j <= a already force a >= 0 (average the
    two sides), so no separate positivity constraint is needed.  For p = inf
    the optimum is known in closed form: tI is feasible exactly when
    t >= max_j rho(x_j), and any feasible a has v*av >= |v*x_jv| at a peak
    eigenvector v, so the solve collapses to that threshold.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    p = float(prob.p)
    signed = _signed_stack(prob.members)
    n = prob.n

    sig = prob.moduli
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

    check_system_budget(n)
    a, mu = _start(sig, p, float(signed.shape[0] * n))
    ys = _slacks(a, signed)
    zs = mu * _sym(np.linalg.inv(ys))
    steps = 0
    converged = False
    while True:
        lam, vecs = np.linalg.eigh(a)
        obj = float((lam ** p).sum()) ** (1.0 / p)
        # clamped at 0, where roundoff lifts the bound above the objective
        gap = max(obj - _dual_bound(zs, signed, p) ** (1.0 / p), 0.0)
        if gap <= tol * obj:
            converged = True
            break
        if steps >= DEFAULT_NEWTON_BUDGET:
            break
        da, dzs, s = _pd_step(lam, vecs, ys, zs, p)
        if s == 0.0:
            break
        a = a + s * da
        zs = zs + s * dzs
        ys = _slacks(a, signed)
        steps += 1

    res = float(np.linalg.eigvalsh(ys).min())
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
    feasible.  The problem's moduli (one batched eigvalsh) and one batched
    eigh over its members run the LAPACK routines of schatten_norm and
    matrix_abs on each, and each root is a scalar power as in
    schatten_norm, so both bounds are bitwise those of the per-member
    calls."""
    p = prob.p
    sig = prob.moduli
    if math.isinf(p):
        lower = float(sig.max())
    else:
        lower = max(float(t) ** (1.0 / p) for t in (sig ** p).sum(axis=1))
    upper = schatten_norm(hermitian_element(sum(matrix_abs(prob.members))), p)
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
    xs = prob.members
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
