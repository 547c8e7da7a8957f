"""Least dominating envelope of a finite hermitian family.

Two independent oracles pin the interior-point solver: the commuting case
has an exact eigenbasis answer, and 2x2 families admit a staged grid
search over the envelope parameters.  Both must lie in the solver's
weak-duality interval [objective - gap, objective].
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab import ncmax
from spherelab.errors import BudgetExceededError
from spherelab.acceptance import _random_diag_problem
from spherelab.ncmax import (
    MaxNormProblem,
    _divided_differences,
    _dual_bound,
    _hkm_operator,
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
SY = hermitian_element(np.array([[0.0, -1j], [1j, 0.0]]))


def test_schatten_values():
    m = hermitian_element(np.diag([3.0, -4.0]))
    assert schatten_norm(m, 1) == 7.0
    assert schatten_norm(m, 2) == 5.0
    assert schatten_norm(m, math.inf) == 4.0


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0, -math.inf, math.nan])
def test_schatten_norm_refuses_p_below_one_before_any_work(p, monkeypatch):
    def no_work(*args):
        raise AssertionError("eigvalsh ran before p was checked")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_work)
    with pytest.raises(ValueError, match=f"p must be >= 1, got {p}"):
        schatten_norm(SX, p)


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


@pytest.mark.parametrize("n,count", [(1, 1), (3, 4), (5, 9)])
def test_members_and_moduli_are_the_stack_and_its_spectra_read_only(n, count):
    rng = np.random.default_rng(40 + n)
    m = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    prob = MaxNormProblem(p=2.0, family=tuple(hermitian_element(x + x.conj().T) for x in m))
    fresh = np.stack([x.entries for x in prob.family])
    assert prob.members.tobytes() == fresh.tobytes()
    assert prob.moduli.tobytes() == np.abs(np.linalg.eigvalsh(fresh)).tobytes()
    for arr in (prob.members, prob.moduli):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert "members" not in repr(prob) and prob == MaxNormProblem(2.0, prob.family)


def test_a_prefix_problem_has_the_envelope_bounds_of_its_members():
    # the ladder's row problem, a prefix of one shell_averages table, and a
    # problem built from copies of the same members, against the
    # per-member schatten_norm and matrix_abs calls
    fam = diagonal_phase_family((0.11, 0.23, 0.37, 0.41, 0.53), 4)
    rng = np.random.default_rng(41)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    members = tuple(shell_averages(fam, hermitian_element(m + m.conj().T), 16).values())
    for p in (1.5, 2.0, math.inf):
        for size in (1, 5, len(members)):
            prefix = MaxNormProblem(p=p, family=members[:size])
            copies = MaxNormProblem(p=p, family=tuple(hermitian_element(x.entries.copy())
                                                      for x in members[:size]))
            per_member = (max(schatten_norm(x, p) for x in members[:size]),
                          schatten_norm(hermitian_element(
                              sum(matrix_abs(x.entries) for x in members[:size])), p))
            assert envelope_bounds(prefix) == envelope_bounds(copies) == per_member


def test_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        MaxNormProblem(p=2.0, family=[SZ, hermitian_element(np.eye(3))])


@pytest.mark.parametrize(
    "p, family, message",
    [
        (2.0, (), "family must be nonempty"),
        (0.5, (SZ,), "p must lie in [1, inf]"),
        (math.nan, (SZ,), "p must lie in [1, inf]"),
        (2.0, (SZ, SX.entries), "family members must be hermitian AlgebraElements"),
        (2.0, (np.eye(2), SZ), "family members must be hermitian AlgebraElements"),
        (2.0, (SZ, SX, hermitian_element(np.eye(3))),
         "family members must share the matrix dimension"),
    ],
)
def test_max_norm_problem_refusals_have_their_messages(p, family, message):
    with pytest.raises(ValueError) as err:
        MaxNormProblem(p=p, family=family)
    assert str(err.value) == message


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
def test_hkm_operator_matches_per_term_traces(n, count, seed):
    # column c of the vec operator is vec(1/2 sum_i (W_i E_c Z_i + Z_i E_c W_i)),
    # E_c the c-th unit matrix in row-major order; at Z_i = W_i it is the
    # log-det Hessian, vec(sum_i W_i E_c W_i)
    rng = np.random.default_rng(seed)
    xs, a = _feasible_point(rng, n, count)
    yinvs = np.linalg.inv(_slacks(a, _signed_stack(xs)))
    yinvs = 0.5 * (yinvs + yinvs.conj().swapaxes(-1, -2))
    zs = np.stack([matrix_abs(m) + np.eye(n) for m in _feasible_point(rng, n, 2 * count)[0]])
    ref = np.stack([sum(0.5 * (w @ _unit(n, c) @ z + z @ _unit(n, c) @ w)
                        for w, z in zip(yinvs, zs)).ravel()
                    for c in range(n * n)], axis=1)
    got = _hkm_operator(yinvs, zs)
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    log_det = np.stack([sum(w @ _unit(n, c) @ w for w in yinvs).ravel()
                        for c in range(n * n)], axis=1)
    got = _hkm_operator(yinvs, yinvs)
    assert np.abs(got - log_det).max() <= 1e-12 * max(1.0, np.abs(log_det).max())


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
    # hermitian a at every iterate
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


def test_slacks_are_bitwise_the_differences():
    # a + (-x) is a - x in IEEE arithmetic, signed zeros included
    rng = np.random.default_rng(5)
    xs, a = _feasible_point(rng, 3, 4)
    xs[0, 0, 1] = 0.0
    ref = np.stack([a - xs, a + xs], axis=1).reshape(-1, 3, 3)
    got = _slacks(a, _signed_stack(xs))
    assert got.tobytes() == ref.tobytes()


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


def _sum_of_moduli_start(xs):
    """The earlier start for the members xs, in _start's form: the envelope
    sum_j |x_j| + margin I, the margin DEFAULT_TOL max_j rho(x_j) doubled
    while roundoff eats it, at mu = tr(a^p) / nu."""
    signed, dominant = _signed_stack(xs), sum(matrix_abs(xs))

    def start(sig, p, nu):
        margin = ncmax.DEFAULT_TOL * float(sig.max())
        while True:
            a = dominant + margin * np.eye(len(dominant))
            a = 0.5 * (a + a.conj().T)
            try:
                np.linalg.cholesky(_slacks(a, signed))
            except np.linalg.LinAlgError:
                margin *= 2.0
                continue
            return a, float((np.linalg.eigvalsh(a) ** p).sum()) / nu
    return start


def test_the_scalar_start_saves_newton_steps(monkeypatch):
    probs = _solver_problems() + _transfer_problems()
    scalar = [ncmax_norm(prob) for prob in probs]
    moduli = []
    for prob in probs:
        xs = np.stack([x.entries for x in prob.family])
        monkeypatch.setattr(ncmax, "_start", _sum_of_moduli_start(xs))
        moduli.append(ncmax_norm(prob))
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
    a, mu = ncmax._start(np.abs(np.linalg.eigvalsh(xs)), p, nu)
    rho = max(schatten_norm(x, math.inf) for x in family)
    c = a[0, 0]
    assert np.array_equal(a, c * np.eye(n))
    assert c == pytest.approx((1.0 + ncmax.START_MARGIN) * rho, rel=1e-14)
    assert np.linalg.eigvalsh(_slacks(a, signed)).min() > 0.0
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


@given(n=st.integers(1, 4), count=st.integers(1, 4),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_the_dual_bound_lies_below_every_feasible_trace_power(n, count, p, seed):
    # weak duality: any dual slacks Z_i >= 0 bound tr(a^p) below at every
    # feasible a, and the bound takes its best scale of Z itself
    rng = np.random.default_rng(seed)
    xs, a = _feasible_point(rng, n, count)
    signed = _signed_stack(xs)
    m = rng.standard_normal((2 * count, n, n)) + 1j * rng.standard_normal((2 * count, n, n))
    zs = m @ m.conj().swapaxes(-1, -2) + rng.uniform(0.0, 1.0) * np.eye(n)
    bound = _dual_bound(zs, signed, p)
    assert 0.0 <= bound <= float((np.linalg.eigvalsh(a) ** p).sum()) * (1.0 + 1e-12)
    scaled = _dual_bound(rng.uniform(0.1, 10.0) * zs, signed, p)
    assert scaled == pytest.approx(bound, rel=1e-12, abs=1e-300)


def _in_interval(cert, oracle, rel=1e-12):
    """objective - gap <= oracle <= objective, up to rel of roundoff."""
    slack = rel * max(1.0, oracle)
    return cert.objective - cert.gap - slack <= oracle <= cert.objective + slack


def test_the_weak_duality_interval_holds_the_pinching_oracle():
    # criterion 10's 100 diagonal problems
    rng = np.random.Generator(np.random.PCG64(10))
    for _ in range(100):
        prob = _random_diag_problem(rng)
        cert = ncmax_norm(prob, tol=1e-7)
        assert cert.converged
        assert _in_interval(cert, ncmax_diag_oracle(prob))


@pytest.mark.parametrize("family", [(SZ, SX), (SZ, SX, SY)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_the_weak_duality_interval_holds_the_grid_oracle(family, p):
    prob = MaxNormProblem(p=p, family=family)
    cert = ncmax_norm(prob, tol=1e-7)
    assert cert.converged
    assert _in_interval(cert, ncmax_grid_oracle_2x2(prob))


def test_a_capped_solve_reports_a_gap_that_holds(monkeypatch):
    # the gap is a weak-duality bound at every iterate, not only at the end:
    # a solve stopped by the iteration budget is not converged, and its
    # interval still holds the oracle
    rng = np.random.Generator(np.random.PCG64(10))
    probs = [(prob, ncmax_diag_oracle(prob))
             for prob in (_random_diag_problem(rng) for _ in range(40))]
    probs += [(prob, ncmax_grid_oracle_2x2(prob))
              for prob in (MaxNormProblem(p=p, family=(SZ, SX)) for p in (1.5, 2.0))]
    uncapped = [ncmax_norm(prob).newton_steps for prob, _ in probs]
    for budget in (0, 1, 2, 4):
        monkeypatch.setattr(ncmax, "DEFAULT_NEWTON_BUDGET", budget)
        capped = 0
        for (prob, oracle), steps in zip(probs, uncapped):
            if steps <= budget:
                continue
            cert = ncmax_norm(prob)
            assert cert.newton_steps == budget and not cert.converged
            assert cert.gap > 0.0 and _in_interval(cert, oracle)
            capped += 1
        assert capped >= 20, budget


def test_every_solve_converges_in_few_iterations():
    # the test problem sets take 9 iterations on average, 13 at most
    for prob in _solver_problems() + _transfer_problems():
        cert = ncmax_norm(prob)
        assert cert.converged and cert.newton_steps <= 20


STALLED_RATIO_PROBLEMS = [
    # (thetas, the probe's upper triangle by rows, K, p) of three ratio
    # requests that a staged log-barrier path could not certify
    # n = 2, K = 8, p = 2.0: transfer stream seed 4, request (6, 2)
    ((0.3444540797947212, 0.4461332671169569, 0.4617530416900434,
      0.03884502091126796, 0.12151832723133149),
     [(1.136689800538802+0j), (0.17269637263406395-0.8533627860085795j),
      (0.20481794945536286+0j)], 8, 2.0),
    # n = 3, K = 13, p = 1.5: transfer stream seed 6, request (6, 8)
    ((0.36422607879579794, 0.48980425690294116, 0.43533325534039935,
      0.4226294851317336, 0.31497433497825333),
     [(-0.05931986755736629+0j), (-0.012708704317060282-0.4595912801769519j),
      (0.17857040346672282+0.4121781458874571j), (-0.02423650774065588+0j),
      (-0.45042923281713615-0.17171917825434402j), (1.3302513224035055+0j)], 13, 1.5),
    # n = 4, K = 11, p = 2.0: transfer stream seed 8, request (1, 12)
    ((0.4772668976578074, 0.799018767350289, 0.2631684065244646,
      0.5284715028141069, 0.3665388257980262),
     [(-0.7388561553704941+0j), (0.8792661769309028+0.5832378339566593j),
      (-0.07169793377227018+0.44283382687039957j), (-0.626239786942693-0.3426437908689237j),
      (1.7259785208237244+0j), (0.8323349341774462+0.8917777310672272j),
      (0.11451169763483401+0.13921317852125092j), (0.7310385729506801+0j),
      (-0.6139986342102705+0.007130949756504454j), (0.09543191985573116+0j)], 11, 2.0),
]


@pytest.mark.parametrize("thetas, upper, k_top, p", STALLED_RATIO_PROBLEMS)
def test_the_stalled_ratio_problems_converge(thetas, upper, k_top, p):
    n = math.isqrt(2 * len(upper))
    m = np.zeros((n, n), dtype=complex)
    m[np.triu_indices(n)] = upper
    probe = hermitian_element(m + m.conj().T - np.diag(m.diagonal()))
    averages = shell_averages(diagonal_phase_family(thetas, n), probe, k_top)
    prob = MaxNormProblem(p=p, family=tuple(averages.values()))
    cert = ncmax_norm(prob)
    assert cert.converged and cert.newton_steps <= 20
    tight = ncmax_norm(prob, tol=1e-10)
    assert tight.converged
    assert abs(cert.objective - tight.objective) <= cert.gap + tight.gap
    if n == 2:
        grid = ncmax_grid_oracle_2x2(prob)
        assert abs(cert.objective - grid) <= 1e-4 * max(1.0, grid)


def _flat_hkm_operator(yinvs, zs):
    """_hkm_operator with its Gram product G = W^T Z taken as the single
    (n^2, 2N) x (2N, n^2) GEMM, as the solver first formed it."""
    n = yinvs.shape[-1]
    gram = yinvs.reshape(len(yinvs), n * n).T @ zs.reshape(len(zs), n * n)
    half = 0.5 * (gram + gram.T)
    return half.reshape((n,) * 4).transpose(0, 3, 1, 2).reshape(n * n, n * n)


def _dual_point(rng, n, count):
    """Stacks W_i = Y_i^{-1} and Z_i > 0 at a strictly feasible envelope
    of a random family of count members."""
    xs, a = _feasible_point(rng, n, count)
    yinvs = ncmax._sym(np.linalg.inv(_slacks(a, _signed_stack(xs))))
    m = rng.standard_normal((2 * count, n, n)) + 1j * rng.standard_normal((2 * count, n, n))
    return yinvs, m @ m.conj().swapaxes(-1, -2) + np.eye(n)


@pytest.mark.parametrize("count", [1, 4, 8, 11, 16])
@pytest.mark.parametrize("n", range(1, 9))
def test_the_stacked_gram_is_bitwise_the_flat_gemm(n, count):
    # 2N = 2 .. 32 constraint slacks; the stacked products keep every entry
    # of the one GEMM, byte for byte
    yinvs, zs = _dual_point(np.random.default_rng(100 * n + count), n, count)
    assert _hkm_operator(yinvs, zs).tobytes() == _flat_hkm_operator(yinvs, zs).tobytes()


def _reference_step_length(slacks, steps):
    """_step_length as the solver first took it: a fresh trial array each
    time."""
    s = 1.0
    while s > 1e-14:
        try:
            np.linalg.cholesky(slacks + s * steps)
            return s
        except np.linalg.LinAlgError:
            s *= ncmax.STEP_SHRINK
    return 0.0


def _reference_pd_step(lam, vecs, ys, zs, p):
    """_pd_step as the solver first took it: W da formed once for each
    of the three sandwiches, the step stacks concatenated afresh, mu_aff
    from freshly formed Y_i + s da and Z_i + s dZ_i, and the flat Gram."""
    def sandwich(d, right):
        n = d.shape[-1]
        return ncmax._sym((yinvs.reshape(-1, n) @ d).reshape(yinvs.shape) @ right)

    nu = ys.shape[0] * ys.shape[-1]
    yinvs = ncmax._sym(np.linalg.inv(ys))
    matrix = _power_hessian(lam, vecs, p) + _flat_hkm_operator(yinvs, zs)
    grad = (vecs * (p * lam ** (p - 1.0))) @ vecs.conj().T
    mu = float(np.vdot(ys, zs).real) / nu
    slacks = np.concatenate([ys, zs])

    def length(da, dzs):
        return _reference_step_length(
            slacks, np.concatenate([np.broadcast_to(da, ys.shape), dzs]))

    da = ncmax._solve_hermitian(matrix, -grad)
    dzs = -zs - sandwich(da, zs)
    s = length(da, dzs)
    sigma_mu = (float(np.vdot(ys + s * da, zs + s * dzs).real) / nu / mu) ** 3 * mu
    second = sandwich(da, dzs)
    da = ncmax._solve_hermitian(matrix, sigma_mu * yinvs.sum(axis=0) - grad - second.sum(axis=0))
    dzs = sigma_mu * yinvs - zs - sandwich(da, zs) - second
    return da, dzs, ncmax.STEP_FRACTION * length(da, dzs)


def _bitwise_equal_steps(got, ref):
    return (got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
            and got[2] == ref[2])


def _iteration_point(rng, n, count, p, scale):
    """(lam, vecs, ys, zs) at the envelope scale * (sum_j |x_j| + c I) of a
    random family, with Z_i = mu Y_i^{-1}: strictly feasible for scale 1."""
    xs, a = _feasible_point(rng, n, count)
    a = scale * a
    a = 0.5 * (a + a.conj().T)
    lam, vecs = np.linalg.eigh(a)
    ys = _slacks(a, _signed_stack(xs))
    zs = float((lam ** p).sum()) / (2 * count * n) * ncmax._sym(np.linalg.inv(ys))
    return lam, vecs, ys, zs


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_the_lean_iteration_is_bitwise_the_reference_at_feasible_points(p, seed):
    rng = np.random.default_rng(3000 + seed)
    point = _iteration_point(rng, int(rng.integers(1, 7)), int(rng.integers(1, 9)), p, 1.0)
    got = ncmax._pd_step(*point, p)
    assert got[2] > 0.0
    assert _bitwise_equal_steps(got, _reference_pd_step(*point, p))


def test_the_lean_iteration_is_bitwise_the_reference_where_no_step_is_definite():
    # a tenth of a dominating envelope leaves indefinite slacks, so every
    # trial step fails and mu_aff is read at s = 0.0
    point = _iteration_point(np.random.default_rng(3100), 3, 4, 2.0, 0.1)
    assert np.linalg.eigvalsh(point[2]).min() < 0.0
    got = ncmax._pd_step(*point, 2.0)
    assert got[2] == 0.0
    assert _bitwise_equal_steps(got, _reference_pd_step(*point, 2.0))


def test_the_lean_iteration_is_bitwise_the_reference_along_every_solve(monkeypatch):
    lean, compared = ncmax._pd_step, []

    def both(lam, vecs, ys, zs, p):
        got = lean(lam, vecs, ys, zs, p)
        compared.append(_bitwise_equal_steps(got, _reference_pd_step(lam, vecs, ys, zs, p)))
        return got

    probs = _solver_problems() + _transfer_problems()
    monkeypatch.setattr(ncmax, "_pd_step", both)
    lean_steps = [ncmax_norm(prob).newton_steps for prob in probs]
    monkeypatch.setattr(ncmax, "_pd_step", _reference_pd_step)
    reference_steps = [ncmax_norm(prob).newton_steps for prob in probs]
    assert len(probs) == 148 and lean_steps == reference_steps
    assert len(compared) >= sum(lean_steps) > 0 and all(compared)


def _problem_48(p):
    rng = np.random.default_rng(48)
    xs = [rng.standard_normal((48, 48)) for _ in range(4)]
    return MaxNormProblem(p=p, family=tuple(hermitian_element(x + x.T) for x in xs))


def test_a_48x48_solve_is_refused_before_its_step_system():
    # 48^4 = 5,308,416 entries of the n^2 x n^2 system, over the point
    # budget (47^4 = 4,879,681 is under it): 85 MB a matrix, refused first
    prob = _problem_48(2.0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match="^the n\\^2 x n\\^2 step system at n=48 has 5308416 "
                                 "entries, over the budget of 5000000$"):
            ncmax_norm(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_48x48_problem_that_builds_no_system_still_solves():
    # p = inf has a closed form and an all-zero family returns at once
    prob = _problem_48(math.inf)
    cert = ncmax_norm(prob)
    assert cert.converged and cert.objective == float(prob.moduli.max())
    zero = MaxNormProblem(p=2.0, family=(hermitian_element(np.zeros((48, 48))),))
    assert ncmax_norm(zero).objective == 0.0
