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
from spherelab.ncmax import (
    MaxNormProblem,
    _barrier_hessian,
    _barrier_value,
    _divided_differences,
    _power_hessian,
    _slacks,
    envelope_bounds,
    hermitian_element,
    matrix_abs,
    ncmax_diag_oracle,
    ncmax_grid_oracle_2x2,
    ncmax_norm,
    schatten_norm,
)


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
    yinvs = np.linalg.inv(_slacks(a, xs))
    yinvs = 0.5 * (yinvs + yinvs.conj().swapaxes(-1, -2))
    ref = np.stack([sum(w @ _unit(n, c) @ w for w in yinvs).ravel()
                    for c in range(n * n)], axis=1)
    got = _barrier_hessian(yinvs)
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@given(n=st.integers(1, 4), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_power_hessian_matches_the_daleckii_krein_form(n, p, seed):
    # column c of p K diag(F1) K* is vec(p V (F1 o V* E_c V) V*)
    _, a = _feasible_point(np.random.default_rng(seed), n, 2)
    lam, vecs = np.linalg.eigh(a)
    f1 = _divided_differences(lam, p)
    ref = np.stack([(p * vecs @ (f1 * (vecs.conj().T @ _unit(n, c) @ vecs))
                     @ vecs.conj().T).ravel() for c in range(n * n)], axis=1)
    got = _power_hessian(lam, vecs, p)
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@given(n=st.integers(1, 4), count=st.integers(1, 4),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_barrier_value_is_trace_power_minus_log_dets(n, count, p, seed):
    rng = np.random.default_rng(seed)
    xs, a = _feasible_point(rng, n, count)
    mu = rng.uniform(1e-3, 10.0)
    lam = np.linalg.eigvalsh(a)
    ref = (lam ** p).sum() - mu * np.log(np.linalg.eigvalsh(_slacks(a, xs))).sum()
    got = _barrier_value(a, xs, p, mu)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    # raise x_0[0,0] until a - x_0 has the diagonal entry -1, so that slack
    # is not positive semidefinite while a and the other slacks stay definite
    bad = xs.copy()
    bad[0, 0, 0] += (a - xs[0])[0, 0].real + 1.0
    assert np.linalg.eigvalsh(a).min() > 0.0
    assert _barrier_value(a, bad, p, mu) == math.inf


def test_envelope_bounds_of_a_diagonal_family():
    # max_j ||x_j||_2 = sqrt(10) and ||diag(1+3, 3+1)||_2 = sqrt(32)
    prob = MaxNormProblem(p=2.0, family=(_diag(1, -3), _diag(-3, 1)))
    lower, upper = envelope_bounds(prob)
    assert abs(lower - math.sqrt(10)) < 1e-14
    assert abs(upper - math.sqrt(32)) < 1e-14
    assert lower <= ncmax_norm(prob).objective <= upper


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        ncmax_norm(MaxNormProblem(p=2.0, family=(SZ, SX)), tol=tol)


def test_newton_budget_stops_the_solve(monkeypatch):
    prob = MaxNormProblem(p=2.0, family=(SZ, SX))
    monkeypatch.setattr(ncmax, "DEFAULT_NEWTON_BUDGET", 3)
    cert = ncmax_norm(prob)
    assert cert.newton_steps == 3 and not cert.converged
