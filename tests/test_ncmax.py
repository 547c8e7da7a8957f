"""Least dominating envelope of a finite hermitian family.

Two independent oracles pin the interior-point solver: the commuting case
has an exact eigenbasis answer, and 2x2 families admit a staged grid
search over the envelope parameters.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab import ncmax
from spherelab.acceptance import _random_diag_problem
from spherelab.ncmax import (
    MaxNormProblem,
    _barrier_hessian,
    _divided_differences,
    _power_hessian,
    _signed_stack,
    _slacks,
    envelope_bounds,
    hermitian_element,
    matrix_abs,
    ncmax_diag_oracle,
    ncmax_grid_oracle_2x2,
    ncmax_norm,
    schatten_norm,
)
from spherelab.transfer import diagonal_phase_family, shell_averages


def _diag(*vals):
    return hermitian_element(np.diag([float(v) for v in vals]))


SZ = hermitian_element(np.diag([1.0, -1.0]))
SX = hermitian_element(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_schatten_values():
    m = hermitian_element(np.diag([3.0, -4.0]))
    assert schatten_norm(m, 1) == 7.0
    assert schatten_norm(m, 2) == 5.0
    assert schatten_norm(m, math.inf) == 4.0


def test_scalar_family():
    prob = MaxNormProblem(p=2.0, family=[_diag(3), _diag(-5)])
    assert ncmax_diag_oracle(prob) == 5.0
    cert = ncmax_norm(prob)
    assert cert.converged
    assert abs(cert.objective - 5.0) <= 1e-5 * 5.0
    prob_inf = MaxNormProblem(p=math.inf, family=prob.family)
    assert ncmax_norm(prob_inf).objective == 5.0


def test_commuting_pair_oracle():
    # envelope of diag(1,-2) and diag(-3,1) is diag(3,2): value sqrt(13)
    prob = MaxNormProblem(p=2.0, family=[_diag(1, -2), _diag(-3, 1)])
    oracle = ncmax_diag_oracle(prob)
    assert abs(oracle - math.sqrt(13.0)) < 1e-12
    cert = ncmax_norm(prob)
    assert cert.converged
    assert abs(cert.objective - oracle) <= 1e-5 * oracle


def test_single_diag_oracle():
    assert ncmax_diag_oracle(MaxNormProblem(p=1.0, family=[_diag(5)])) == 5.0


def test_noncommuting_pair_against_grid():
    for p in (2.0, math.inf):
        prob = MaxNormProblem(p=p, family=[SZ, SX])
        cert = ncmax_norm(prob)
        grid = ncmax_grid_oracle_2x2(prob)
        assert cert.converged
        assert abs(cert.objective - grid) <= 1e-4 * max(1.0, grid)


def test_sup_norm_closed_form():
    # p = infinity: the optimum is the largest spectral radius, since
    # that multiple of the identity dominates every member
    rng = np.random.default_rng(3)
    family = []
    for _ in range(4):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        family.append(hermitian_element(0.5 * (m + m.conj().T)))
    cert = ncmax_norm(MaxNormProblem(p=math.inf, family=family))
    rho = max(np.abs(np.linalg.eigvalsh(x.entries)).max() for x in family)
    assert cert.objective == rho
    assert cert.gap == 0.0


def test_identical_members_collapse():
    prob = MaxNormProblem(p=math.inf, family=[SX, SX, SX])
    assert ncmax_norm(prob).objective == 1.0


def test_homogeneity():
    fam = [SZ, SX]
    base = ncmax_norm(MaxNormProblem(p=2.0, family=fam)).objective
    scaled_fam = [hermitian_element(2.5 * x.entries) for x in fam]
    scaled = ncmax_norm(MaxNormProblem(p=2.0, family=scaled_fam)).objective
    assert abs(scaled - 2.5 * base) <= 1e-6 * scaled


def test_monotone_in_family():
    rng = np.random.default_rng(12)
    members = []
    prev = 0.0
    for i in range(4):
        m = rng.standard_normal((2, 2))
        members.append(hermitian_element(0.5 * (m + m.T)))
        cert = ncmax_norm(MaxNormProblem(p=2.0, family=list(members)))
        assert cert.objective >= prev - 2.0 * cert.gap - 1e-9
        prev = cert.objective


def test_certificate_soundness():
    prob = MaxNormProblem(p=2.0, family=[SZ, SX])
    cert = ncmax_norm(prob, tol=1e-7)
    env = cert.envelope.entries
    scale = float(np.abs(np.linalg.eigvalsh(env)).max())
    for x in prob.family:
        for sign in (1.0, -1.0):
            lam_min = float(np.linalg.eigvalsh(env + sign * x.entries).min())
            assert lam_min >= -1e-7 * max(1.0, scale)
    # certified interval brackets the reported objective
    assert cert.gap >= 0.0
    lower = max(schatten_norm(x, 2.0) for x in prob.family)
    assert cert.objective >= lower - cert.gap - 1e-9


def test_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        MaxNormProblem(p=2.0, family=[SZ, hermitian_element(np.eye(3))])


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_element(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
def test_rejects_non_finite_entries_by_position(bad):
    with pytest.raises(ValueError, match=r"entry \(1, 1\) is not finite"):
        hermitian_element(np.array([[2.0, 0.0], [0.0, bad]]))


def _feasible_point(rng, n, count):
    """Random hermitian family and a strictly feasible envelope for it,
    pushed off the boundary by a random margin."""
    m = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    xs = 0.5 * (m + m.conj().swapaxes(-1, -2))
    a = sum(matrix_abs(x) for x in xs) + rng.uniform(0.05, 2.0) * np.eye(n)
    return xs, a


def _unit(n, c):
    e = np.zeros(n * n, dtype=complex)
    e[c] = 1.0
    return e.reshape(n, n)


@given(n=st.integers(1, 4), count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_barrier_hessian_matches_per_term_traces(n, count, seed):
    # column c of the vec-Hessian is vec(sum_j W_j E_c W_j), E_c the c-th
    # unit matrix in row-major order
    xs, a = _feasible_point(np.random.default_rng(seed), n, count)
    yinvs = np.linalg.inv(_slacks(a, _signed_stack(xs)))
    yinvs = 0.5 * (yinvs + yinvs.conj().swapaxes(-1, -2))
    ref = np.stack([sum(w @ _unit(n, c) @ w for w in yinvs).ravel()
                    for c in range(n * n)], axis=1)
    got = _barrier_hessian(yinvs)
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def _point_with_spectrum(rng, n, spectrum):
    """W diag(lam) W* for a random unitary W, with positive lam that are
    generic, repeated (drawn from two values) or clustered within 1e-13
    relative."""
    w = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    if spectrum == "generic":
        lam = rng.uniform(0.05, 2.0, n)
    elif spectrum == "repeated":
        lam = rng.choice(rng.uniform(0.05, 2.0, 2), n)
    else:
        lam = rng.uniform(0.05, 2.0) * (1.0 + 1e-13 * rng.uniform(0.0, 1.0, n))
    a = (w * lam) @ w.conj().T
    return 0.5 * (a + a.conj().T)


@given(n=st.integers(1, 8), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       spectrum=st.sampled_from(["generic", "repeated", "clustered"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_power_hessian_matches_the_daleckii_krein_form(n, p, spectrum, seed):
    # column c of p K diag(F1) K* is vec(p V (F1 o V* E_c V) V*); repeated
    # and clustered spectra put F1 on its close-eigenvalue branch
    a = _point_with_spectrum(np.random.default_rng(seed), n, spectrum)
    lam, vecs = np.linalg.eigh(a)
    if spectrum == "clustered" and n > 1:
        assert np.ptp(lam) < 1e-12 * lam.max()
    f1 = _divided_differences(lam, p)
    ref = np.stack([(p * vecs @ (f1 * (vecs.conj().T @ _unit(n, c) @ vecs))
                     @ vecs.conj().T).ravel() for c in range(n * n)], axis=1)
    got = _power_hessian(lam, vecs, p)
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", range(1, 7))
def test_every_slack_argument_is_exactly_hermitian(monkeypatch, n, p):
    # _slacks does not hermitize: the solver must hand it a bitwise
    # hermitian a at every step and line-search candidate
    seen = []
    slacks = ncmax._slacks

    def spy(a, xs):
        seen.append(np.array_equal(a, a.conj().T))
        return slacks(a, xs)

    monkeypatch.setattr(ncmax, "_slacks", spy)
    rng = np.random.default_rng(100 * n + int(2 * p))
    m = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    family = tuple(hermitian_element(0.5 * (x + x.conj().T)) for x in m)
    cert = ncmax_norm(MaxNormProblem(p=p, family=family))
    assert cert.converged and cert.newton_steps > 0
    assert len(seen) > cert.newton_steps and all(seen)


def _barrier_value(a, signed, p, mu):
    """tr(a^p) - mu * sum_j log det Y_j over the slacks Y_j, or inf outside
    the domain."""
    point = ncmax._barrier_point(a, signed, p)
    return math.inf if point is None else point.barrier(mu)


@given(n=st.integers(1, 4), count=st.integers(1, 4),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_barrier_value_is_trace_power_minus_log_dets(n, count, p, seed):
    rng = np.random.default_rng(seed)
    xs, a = _feasible_point(rng, n, count)
    mu = rng.uniform(1e-3, 10.0)
    lam = np.linalg.eigvalsh(a)
    signed = _signed_stack(xs)
    ref = (lam ** p).sum() - mu * np.log(np.linalg.eigvalsh(_slacks(a, signed))).sum()
    got = _barrier_value(a, signed, p, mu)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    # raise x_0[0,0] until a - x_0 has the diagonal entry -1, so that slack
    # is not positive semidefinite while a and the other slacks stay definite
    bad = xs.copy()
    bad[0, 0, 0] += (a - xs[0])[0, 0].real + 1.0
    assert np.linalg.eigvalsh(a).min() > 0.0
    assert _barrier_value(a, _signed_stack(bad), p, mu) == math.inf


def test_envelope_bounds_of_a_diagonal_family():
    # max_j ||x_j||_2 = sqrt(10) and ||diag(1+3, 3+1)||_2 = sqrt(32)
    prob = MaxNormProblem(p=2.0, family=(_diag(1, -3), _diag(-3, 1)))
    lower, upper = envelope_bounds(prob)
    assert abs(lower - math.sqrt(10)) < 1e-14
    assert abs(upper - math.sqrt(32)) < 1e-14
    assert lower <= ncmax_norm(prob).objective <= upper


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        ncmax_norm(MaxNormProblem(p=2.0, family=(SZ, SX)), tol=tol)


def test_newton_budget_stops_the_solve(monkeypatch):
    prob = MaxNormProblem(p=2.0, family=(SZ, SX))
    monkeypatch.setattr(ncmax, "DEFAULT_NEWTON_BUDGET", 3)
    cert = ncmax_norm(prob)
    assert cert.newton_steps == 3 and not cert.converged


def test_capped_centering_is_not_converged(monkeypatch):
    # two steps cannot centre the first mu stage, so the gap mu * nu that
    # closes the later stages is not a bound and converged must say so
    prob = MaxNormProblem(p=2.0, family=(SZ, SX))
    monkeypatch.setattr(ncmax, "CENTERING_STEPS", 2)
    cert = ncmax_norm(prob)
    assert cert.newton_steps > 0 and not cert.converged


def test_slacks_are_bitwise_the_differences():
    # a + (-x) is a - x in IEEE arithmetic, signed zeros included
    rng = np.random.default_rng(5)
    xs, a = _feasible_point(rng, 3, 4)
    xs[0, 0, 1] = 0.0
    ref = np.stack([a - xs, a + xs], axis=1).reshape(-1, 3, 3)
    got = _slacks(a, _signed_stack(xs))
    assert got.tobytes() == ref.tobytes()


def _plain_barrier_path(prob, tol=ncmax.DEFAULT_TOL):
    """The same staged barrier path with nothing carried between uses: every
    barrier value from _barrier_value, every tr(a^p) from eigvalsh.  It
    starts at c I, c = (1 + START_MARGIN) max_j rho(x_j), with
    mu nu = tr(c^p I) - max_j ||x_j||_p^p, and mu falls by MU_FACTOR a
    stage, each stage starting at the last one's centre.  A stage whose
    start fails the gap test is centred loosely, and again tightly if it
    then passes.  Returns the envelope and its Newton step count."""
    p, n = float(prob.p), prob.n
    xs = np.stack([x.entries for x in prob.family])
    signed = _signed_stack(xs)
    scale = float(np.abs(np.linalg.eigvalsh(xs)).max())
    a = (1.0 + ncmax.START_MARGIN) * scale * np.eye(n)
    nu = 2.0 * len(xs) * n
    lower = max(schatten_norm(x, p) ** p for x in prob.family)
    mu = (float((np.linalg.eigvalsh(a) ** p).sum()) - lower) / nu
    steps = 0

    def passes(a):
        tr_val = float((np.linalg.eigvalsh(a) ** p).sum())
        obj = tr_val ** (1.0 / p)
        return obj - max(tr_val - mu * nu, 0.0) ** (1.0 / p) <= tol * obj

    def center(a, floor):
        nonlocal steps
        f0 = _barrier_value(a, signed, p, mu)
        for _ in range(ncmax.CENTERING_STEPS):
            lam, vecs = np.linalg.eigh(a)
            yinvs = np.linalg.inv(_slacks(a, signed))
            yinvs = 0.5 * (yinvs + yinvs.conj().swapaxes(-1, -2))
            grad = (vecs * (p * lam ** (p - 1.0))) @ vecs.conj().T - mu * yinvs.sum(axis=0)
            hess = _power_hessian(lam, vecs, p) + mu * _barrier_hessian(yinvs)
            step = np.linalg.solve(hess, -grad.ravel()).reshape(n, n)
            step = 0.5 * (step + step.conj().T)
            slope = float(np.vdot(grad, step).real)
            if slope >= 0.0:
                break
            s = 1.0
            while ((f1 := _barrier_value(a + s * step, signed, p, mu))
                   > f0 + ncmax.ARMIJO * s * slope and s > 1e-14):
                s *= ncmax.SHRINK
            a = a + s * step
            steps += 1
            if -slope <= max(1e-12 * (1.0 + abs(f0)), floor):
                break
            f0 = f1
        return a

    while True:
        loose = not passes(a)
        a = center(a, ncmax.LOOSE_DECREMENT * mu if loose else 0.0)
        if loose and passes(a):
            a = center(a, 0.0)
        if passes(a):
            return a, steps
        mu *= ncmax.MU_FACTOR


def _solver_problems():
    """Criterion 10's 100 diagonal problems, then random hermitian families
    of 4 members for n = 1..6 and p in {1, 1.5, 2, 3}."""
    rng = np.random.Generator(np.random.PCG64(10))
    probs = [_random_diag_problem(rng) for _ in range(100)]
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        for p in (1.0, 1.5, 2.0, 3.0):
            m = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
            family = tuple(hermitian_element(0.5 * (x + x.conj().T)) for x in m)
            probs.append(MaxNormProblem(p=p, family=family))
    return probs


def _transfer_problems():
    """Ratio-table families as the transfer workload builds them: the shell
    averages k = 1..K of a random probe under a random d = 5 diagonal phase
    family, for n <= 6, K <= 16 and p in {1.5, 2, 3}."""
    rng = np.random.default_rng(18)
    probs = []
    for i in range(24):
        n, k_top = int(rng.integers(2, 7)), int(rng.integers(1, 17))
        fam = diagonal_phase_family(rng.uniform(0.0, 1.0, 5), n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        averages = shell_averages(fam, hermitian_element(0.5 * (m + m.conj().T)), k_top)
        probs.append(MaxNormProblem(p=(1.5, 2.0, 3.0)[i % 3],
                                    family=tuple(averages.values())))
    return probs


def test_the_solve_follows_the_plain_barrier_path():
    # ncmax_norm reuses each accepted trial's eigh, tr(a^p) and log dets;
    # recomputing them at every use takes the same Newton steps to the same
    # envelope, up to the roundoff of eigh against eigvalsh
    for prob in _solver_problems() + _transfer_problems():
        if math.isinf(prob.p):
            continue
        cert = ncmax_norm(prob)
        ref, steps = _plain_barrier_path(prob)
        assert cert.converged
        assert cert.newton_steps == steps > 0
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(cert.envelope.entries - ref).max() <= 1e-9 * scale


def test_staged_centering_saves_steps_at_the_same_optimum(monkeypatch):
    # LOOSE_DECREMENT = 0 centres every stage tightly; loose stages that
    # cannot certify must not move the certified objective
    probs = _solver_problems() + _transfer_problems()
    staged = [ncmax_norm(prob) for prob in probs]
    monkeypatch.setattr(ncmax, "LOOSE_DECREMENT", 0.0)
    tight = [ncmax_norm(prob) for prob in probs]
    assert [c.converged for c in staged] == [c.converged for c in tight]
    assert sum(c.newton_steps for c in staged) < sum(c.newton_steps for c in tight)
    for c, ref in zip(staged, tight):
        assert abs(c.objective - ref.objective) <= 1e-10 * ref.objective


def _sum_of_moduli_start(sig, signed, p, nu):
    """The earlier start: sum_j |x_j| + margin I, the margin DEFAULT_TOL
    max_j rho(x_j) doubled while roundoff eats it, at mu = tr(a^p) / nu."""
    dominant = sum(matrix_abs(signed[1::2]))
    margin = ncmax.DEFAULT_TOL * float(sig.max())
    while True:
        a = dominant + margin * np.eye(len(dominant))
        point = ncmax._barrier_point(0.5 * (a + a.conj().T), signed, p)
        if point is not None:
            return point, point.trace_power / nu
        margin *= 2.0


def test_the_scalar_start_saves_newton_steps(monkeypatch):
    probs = _solver_problems() + _transfer_problems()
    scalar = [ncmax_norm(prob) for prob in probs]
    monkeypatch.setattr(ncmax, "_start", _sum_of_moduli_start)
    moduli = [ncmax_norm(prob) for prob in probs]
    assert [c.converged for c in scalar] == [c.converged for c in moduli]
    assert sum(c.newton_steps for c in scalar) < sum(c.newton_steps for c in moduli)
    for c, ref in zip(scalar, moduli):
        assert abs(c.objective - ref.objective) <= c.gap + ref.gap


def _rank_one(n):
    """-2.5 v v* for a random unit vector v: one nonzero eigenvalue."""
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return hermitian_element(-2.5 * np.outer(v, v.conj()))


@pytest.mark.parametrize("family", [
    (_diag(2, -2, 2),),          # one member, every |eigenvalue| its rho
    (SZ, SX),                    # two members that share the largest rho
    (_rank_one(3), _diag(1, -0.5, 0)),
    (_rank_one(4),),
])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_the_scalar_start_is_strictly_feasible_with_a_positive_mu(family, p):
    xs = np.stack([x.entries for x in family])
    signed = _signed_stack(xs)
    n = family[0].n
    nu = 2.0 * len(family) * n
    point, mu = ncmax._start(np.abs(np.linalg.eigvalsh(xs)), signed, p, nu)
    rho = max(schatten_norm(x, math.inf) for x in family)
    c = point.a[0, 0]
    assert np.array_equal(point.a, c * np.eye(n))
    assert c == pytest.approx((1.0 + ncmax.START_MARGIN) * rho, rel=1e-14)
    assert np.linalg.eigvalsh(_slacks(point.a, signed)).min() > 0.0
    # mu nu is the envelope gap n c^p - max_j ||x_j||_p^p
    lower = max(schatten_norm(x, p) ** p for x in family)
    assert mu > 0.0
    assert mu * nu == pytest.approx(n * c ** p - lower, rel=1e-12)
    assert ncmax_norm(MaxNormProblem(p=p, family=family)).converged


@pytest.mark.parametrize("rho", [1e200, 1e-200, 1e-310])
def test_a_spectral_radius_whose_power_leaves_the_float_range_is_refused(rho):
    # c^2 overflows or underflows, so mu would be nan or 0
    prob = MaxNormProblem(p=2.0, family=(_diag(rho, -rho / 3),))
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="out of floating-point range at p = 2.0"):
        ncmax_norm(prob)


def _a_stage_built_below_its_centre(prob, center):
    """A start for prob's second stage below its centre, and a tol at which
    that stage must be centred twice.  The first stage runs as ncmax_norm
    runs it, loosely from _start at mu_0; the second, at mu_1 = MU_FACTOR
    mu_0, starts at P, the centre of a 16 times smaller mu, whose tr(a^p)
    lies below that of the centre at mu_1.  tol puts the gap test's
    threshold on tr(a^p), mu_1 nu / (1 - (1 - tol)^p), halfway between P
    and P's loose centre at mu_1: P fails the test and its loose centre
    passes it.  Returns (P, tol), or None when no tol below 1 does that or
    the first stage would pass at it.  center is the unpatched _center."""
    p = float(prob.p)
    xs = np.stack([x.entries for x in prob.family])
    signed = _signed_stack(xs)
    nu = 2.0 * len(xs) * prob.n
    start, mu0 = ncmax._start(np.abs(np.linalg.eigvalsh(xs)), signed, p, nu)
    first = center(start, signed, p, mu0, ncmax.LOOSE_DECREMENT * mu0, 0)[0]
    mu1 = ncmax.MU_FACTOR * mu0
    below = center(first, signed, p, mu1 / 16.0, 0.0, 0)[0]
    loose = center(below, signed, p, mu1, ncmax.LOOSE_DECREMENT * mu1, 0)[0]
    threshold = 0.5 * (below.trace_power + loose.trace_power)
    if threshold <= mu1 * nu:
        return None
    tol = 1.0 - (1.0 - mu1 * nu / threshold) ** (1.0 / p)

    def passes(point, mu):
        obj, gap = ncmax._objective_gap(point.trace_power, mu, nu, p)
        return gap <= tol * obj

    if passes(start, mu0) or passes(first, mu0) or passes(below, mu1) or not passes(loose, mu1):
        return None
    return below, tol


def test_a_loose_stage_that_certifies_is_centred_again(monkeypatch):
    # a stage started below its centre fails the gap test there, yet may
    # pass it once loosely centred; it must be centred tightly at the same
    # mu before the gap is reported.  The stage is built so (see
    # _a_stage_built_below_its_centre) and put in place of the first
    # stage's centre, so the branch fires whatever the start and the mu
    # factor: checked at the module's constants, at MU_FACTOR = 1/16 and at
    # START_MARGIN = 0.2
    center = ncmax._center
    calls, replace = [], []

    def spy(point, signed, p, mu, floor, steps):
        calls.append((mu, floor))
        point, steps, ok = center(point, signed, p, mu, floor, steps)
        return (replace.pop() if replace else point), steps, ok

    monkeypatch.setattr(ncmax, "_center", spy)
    for constants in ({}, {"MU_FACTOR": 1.0 / 16.0}, {"START_MARGIN": 0.2}):
        with monkeypatch.context() as m:
            for name, value in constants.items():
                m.setattr(ncmax, name, value)
            built = 0
            for prob in _solver_problems():
                if math.isinf(prob.p):
                    continue
                stage = _a_stage_built_below_its_centre(prob, center)
                if stage is None:
                    continue
                below, tol = stage
                # the first stage ends at below, where the second starts
                replace[:] = [below]
                calls.clear()
                cert = ncmax_norm(prob, tol=tol)
                assert cert.converged and calls[-1][1] == 0.0
                (mu1, loose), (again, tight) = calls[1:3]
                assert again == mu1 and loose > 0.0 and tight == 0.0
                built += 1
            assert built >= 3, constants


@pytest.mark.parametrize("tol", [1e-16, 1e-300])
def test_a_tolerance_below_roundoff_still_starts_inside_the_domain(tol):
    # a gap test below roundoff still ends, from a start inside the domain
    # whatever tol is, and one member is its own maximal norm
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    x = hermitian_element(0.5 * (m + m.conj().T))
    cert = ncmax_norm(MaxNormProblem(p=2.0, family=(x,)), tol=tol)
    exact = schatten_norm(x, 2.0)
    assert cert.converged
    assert abs(cert.objective - exact) <= 1e-12 * exact
    assert cert.residual >= -1e-12 * exact


def test_newton_system_pseudo_inverts_a_slack_that_inv_rejects():
    # the slack a - x_1 of a = x_1 = diag(1, 2) is exactly zero: inv raises
    # LinAlgError on it, and the Newton system takes its pseudo-inverse, 0,
    # beside the inverse of a + x_1 = diag(2, 4)
    a = np.diag([1.0, 2.0]).astype(complex)
    signed = _signed_stack(a[None])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(_slacks(a, signed))
    lam, vecs = np.linalg.eigh(a)
    point = ncmax._Point(a, float((lam ** 2).sum()), 0.0, lam, vecs)
    grad, hess = ncmax._newton_system(point, signed, 2.0, 0.5)
    # 2 a - 0.5 (0 + diag(1/2, 1/4))
    assert np.allclose(grad, np.diag([1.75, 3.875]), atol=1e-15, rtol=0)
    assert np.isfinite(hess).all()


def test_newton_system_inverts_regular_slacks_with_inv():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    xs = 0.5 * (m + m.conj().swapaxes(-1, -2))
    signed = _signed_stack(xs)
    a = sum(matrix_abs(x) for x in xs) + np.eye(3)
    point = ncmax._barrier_point(a, signed, 1.5)
    yinvs = np.linalg.inv(_slacks(a, signed))
    yinvs = 0.5 * (yinvs + yinvs.conj().swapaxes(-1, -2))
    lam, vecs = point.lam, point.vecs
    grad, hess = ncmax._newton_system(point, signed, 1.5, 0.3)
    assert np.array_equal(grad, (vecs * (1.5 * lam ** 0.5)) @ vecs.conj().T
                          - 0.3 * yinvs.sum(axis=0))
    assert np.array_equal(hess, _power_hessian(lam, vecs, 1.5)
                          + 0.3 * _barrier_hessian(yinvs))
