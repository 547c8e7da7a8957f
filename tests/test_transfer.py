"""Commuting-unitary orbits: conjugation averages over integer shells and
their agreement with lattice convolution of the truncated orbit."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab import transfer
from spherelab.errors import BudgetExceededError
from spherelab.experiments import TRANSFER_THETAS, random_hermitian_probe
from spherelab.lattice import rep_counts, sphere_shell
from spherelab.ncmax import (MaxNormProblem, hermitian_element, matrix_abs, ncmax_norm,
                             schatten_norm)
from spherelab.torus import LatticeFunction, spherical_convolve
from spherelab.transfer import (
    AutomorphismFamily,
    auto_spherical_average,
    diagonal_phase_family,
    gamma_apply,
    inner_shell_average,
    maximal_ratio_experiment,
    orbit_truncation,
    permutation_phase_family,
    shell_averages,
    trivial_family,
    truncation_identity_check,
)

SX = hermitian_element(np.array([[0.0, 1.0], [1.0, 0.0]]))
FAM5 = diagonal_phase_family(TRANSFER_THETAS, n=2)


def test_zero_exponent_is_identity():
    x = random_hermitian_probe(2, 1)
    out = gamma_apply(FAM5, (0, 0, 0, 0, 0), x)
    assert np.abs(out.entries - x.entries).max() < 1e-15


def test_diagonal_fixed_points():
    x = hermitian_element(np.diag([2.0, -1.0]))
    out = gamma_apply(FAM5, (3, -2, 1, 0, 5), x)
    assert np.abs(out.entries - x.entries).max() < 1e-14


def test_conjugation_phase():
    # U_1 = diag(1, e(theta_1)) moves the two off-diagonal entries of SX by
    # the opposite phases e(-theta_1) and e(theta_1), and leaves the diagonal
    out = gamma_apply(FAM5, (1, 0, 0, 0, 0), SX)
    expected = np.exp(-2j * np.pi * float(TRANSFER_THETAS[0]))
    assert abs(out.entries[0, 1] - expected) < 1e-14
    assert abs(out.entries[1, 0] - np.conj(expected)) < 1e-14
    assert np.abs(np.diag(out.entries)).max() == 0.0


def test_average_under_trivial_family():
    fam = trivial_family(2, 5)
    x = random_hermitian_probe(2, 2)
    out = auto_spherical_average(fam, x, 4)
    assert np.abs(out.entries - x.entries).max() < 1e-14


def test_average_of_identity():
    out = auto_spherical_average(FAM5, hermitian_element(np.eye(2)), 9)
    assert np.abs(out.entries - np.eye(2)).max() < 1e-14


def test_average_cosine_formula():
    # off-diagonal of the averaged reflection picks up the mean of the
    # two phases e(+-theta_i) over the ten unit vectors
    out = auto_spherical_average(FAM5, SX, 1)
    expected = sum(2.0 * math.cos(2.0 * math.pi * float(t)) for t in TRANSFER_THETAS) / 10.0
    assert abs(out.entries[0, 1] - expected) < 1e-14
    assert abs(out.entries[0, 0]) < 1e-15


def test_average_is_isometry_free_contraction():
    x = random_hermitian_probe(2, 5)
    for p in (1.0, 2.0, math.inf):
        for n_vec in ((1, 0, 2, 0, -1), (0, 0, 0, 0, 3)):
            moved = gamma_apply(FAM5, n_vec, x)
            assert abs(schatten_norm(moved, p) - schatten_norm(x, p)) < 1e-12
        avg = auto_spherical_average(FAM5, x, 4)
        assert schatten_norm(avg, p) <= schatten_norm(x, p) + 1e-12


def test_empty_shell_rejected():
    with pytest.raises(ValueError):
        auto_spherical_average(diagonal_phase_family((0.1, 0.2, 0.3), n=2), SX, 7)


def test_orbit_truncation_shapes():
    x = random_hermitian_probe(2, 7)
    orb = orbit_truncation(FAM5, x, 3)
    assert orb.side == 7
    assert orb.values.shape == (7, 7, 7, 7, 7, 2, 2)
    single = orbit_truncation(FAM5, x, 0)
    assert np.abs(single.values[(0,) * 5] - x.entries).max() == 0.0


def test_orbit_truncation_puts_gamma_m_at_m_mod_side():
    x = random_hermitian_probe(2, 7)
    fam = diagonal_phase_family(TRANSFER_THETAS[:3], n=2)
    for window in (0, 1, 3):
        orb = orbit_truncation(fam, x, window)
        side = 2 * window + 1
        assert orb.side == side
        for m in ((0, 0, 0), (window, -window, min(window, 1)), (-window, 0, window)):
            site = tuple(c % side for c in m)
            expected = gamma_apply(fam, m, x).entries
            assert np.abs(orb.values[site] - expected).max() < 1e-14


def test_orbit_truncation_budget_checked_before_allocation():
    with pytest.raises(BudgetExceededError, match="23\\^5"):
        orbit_truncation(FAM5, random_hermitian_probe(2, 7), 11)


@pytest.mark.parametrize("n,d,name", [(0, 2, "n"), (-1, 2, "n"), (2, 0, "d")])
def test_family_rejects_empty_dimensions_by_name(n, d, name):
    with pytest.raises(ValueError, match=f"^{name}="):
        AutomorphismFamily(n=n, d=d, unitaries=np.ones((1, 1, 1)))


def test_orbit_of_trivial_family_is_constant():
    x = random_hermitian_probe(2, 8)
    orb = orbit_truncation(trivial_family(2, 5), x, 1)
    assert np.abs(orb.values - x.entries).max() < 1e-15


def test_truncation_identity():
    x = random_hermitian_probe(2, 7)
    assert truncation_identity_check(trivial_family(2, 5), x, 2, 1) == 0.0
    assert truncation_identity_check(FAM5, x, 3, 1) < 1e-10
    assert truncation_identity_check(FAM5, x, 4, 4) < 1e-10


@pytest.mark.parametrize("k_cap_sq", [0, -1, -4])
def test_truncation_identity_refuses_a_cap_below_one_by_name(k_cap_sq):
    with pytest.raises(ValueError, match=f"k_cap_sq must be >= 1, got {k_cap_sq}"):
        truncation_identity_check(FAM5, random_hermitian_probe(2, 7), 2, k_cap_sq)


@pytest.mark.parametrize("fam,window,k_cap_sq", [(FAM5, 3, 4), (permutation_phase_family(), 5, 9),
                                                 (trivial_family(2, 3), 2, 1)])
def test_truncation_identity_takes_its_averages_from_one_table(fam, window, k_cap_sq,
                                                               monkeypatch):
    calls = []

    def spy(fam_, x_, max_k):
        calls.append(max_k)
        return shell_averages(fam_, x_, max_k)

    monkeypatch.setattr(transfer, "shell_averages", spy)
    assert truncation_identity_check(fam, random_hermitian_probe(fam.n, 8),
                                     window, k_cap_sq) < 1e-10
    assert calls == [k_cap_sq]


def test_truncation_identity_budget_checked_before_allocation():
    # 23^5 orbit sites are over the default budget of 5,000,000
    with pytest.raises(BudgetExceededError, match="23\\^5"):
        truncation_identity_check(FAM5, random_hermitian_probe(2, 7), 11, 1)


def test_orbit_box_budget_counts_matrix_entries():
    # 21^5 sites are under the budget, but they hold 21^5 * 16^2 (about
    # 10^9) complex entries; the refusal allocates almost nothing
    fam = diagonal_phase_family(TRANSFER_THETAS, 16)
    x = random_hermitian_probe(16, 0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="21\\^5 orbit sites of 16x16"):
            orbit_truncation(fam, x, 10)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 1_000_000


def test_permutation_family_commutes():
    fam = permutation_phase_family()
    u = fam.unitaries
    for i in range(fam.d):
        for j in range(fam.d):
            assert np.abs(u[i] @ u[j] - u[j] @ u[i]).max() < 1e-14
    x = random_hermitian_probe(3, 4)
    dev = truncation_identity_check(fam, x, 3, 1)
    assert dev < 1e-10


def test_ratio_table_structure():
    x = random_hermitian_probe(2, 7)
    rows = maximal_ratio_experiment(FAM5, x, [1, 4, 9], 2.0)
    assert [r[0] for r in rows] == [1, 4, 9]
    base = schatten_norm(x, 2.0)
    for k_top, ratio, lower, upper, gap in rows:
        assert gap >= 0.0
        # certified interval sits below the exact upper bound
        assert ratio - gap <= upper + 1e-9
    assert rows[0][1] <= 1.0 + rows[0][4] + 1e-9
    for a, b in zip(rows, rows[1:]):
        assert b[1] >= a[1] - a[4] - b[4]  # monotone up to certified gaps
    assert rows[0][2] == rows[1][2] == rows[2][2]  # shared lower bound
    assert base > 0.0


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_ladder_rows_agree_with_full_solves_within_the_gaps(p):
    # every row of an n=4, cap 6 table solved on its whole family
    fam = diagonal_phase_family(TRANSFER_THETAS, n=4)
    x = random_hermitian_probe(4, 3)
    k_list = [j * j for j in range(1, 7)]
    rows = maximal_ratio_experiment(fam, x, k_list, p)
    averages = shell_averages(fam, x, k_list[-1])
    base = schatten_norm(x, p)
    for k_top, ratio, _, _, gap in rows:
        family = tuple(avg for k, avg in averages.items() if k <= k_top)
        full = ncmax_norm(MaxNormProblem(p=p, family=family))
        assert full.converged
        assert abs(ratio * base - full.objective) <= gap * base + full.gap


def _parent_ladder(fam, x, k_list, p, tol=1e-7):
    """maximal_ratio_experiment as it was before its row problems held
    their stacked members: a per-row stack, a solve closure over member
    indices and envelope_bounds' own stack and eigvalsh."""
    def bounds(family):
        xs = np.stack([m.entries for m in family])
        sig = np.abs(np.linalg.eigvalsh(xs))
        lower = (float(sig.max()) if math.isinf(p)
                 else max(float(t) ** (1.0 / p) for t in (sig ** p).sum(axis=1)))
        return lower, schatten_norm(hermitian_element(sum(matrix_abs(xs))), p)

    k_list = sorted(int(k) for k in k_list)
    base = schatten_norm(x, p)
    averages = shell_averages(fam, x, k_list[-1])
    members = list(averages.values())
    xs = np.stack([avg.entries for avg in members])

    def solve(active):
        return ncmax_norm(MaxNormProblem(p=p, family=tuple(members[j] for j in active)),
                          tol=tol)

    cert = None
    rows = []
    for k_top in k_list:
        size = sum(1 for k in averages if k <= k_top)
        if cert is None:
            active = list(range(size))
            cert = solve(active)
        while violated := transfer._violated_members(cert.envelope.entries, xs[:size],
                                                     active):
            active = sorted(active + violated)
            cert = solve(active)
        lower, upper = bounds(members[:size])
        rows.append((k_top, cert.objective / base, lower / base, upper / base,
                     cert.gap / base))
    return rows


@pytest.mark.parametrize("n,p,cap", [(2, 1.5, 4), (3, 2.0, 5), (4, 3.0, 6), (5, 1.5, 6),
                                     (6, 2.0, 4), (6, 3.0, 5)])
def test_multi_row_tables_are_bitwise_the_parent_ladder(n, p, cap):
    rng = np.random.default_rng(100 * n + cap)
    fam = diagonal_phase_family(rng.uniform(0.0, 1.0, 5), n)
    x = random_hermitian_probe(n, cap)
    k_list = [j * j for j in range(1, cap + 1)]
    assert repr(maximal_ratio_experiment(fam, x, k_list, p)) == \
        repr(_parent_ladder(fam, x, k_list, p))


def test_a_one_row_table_is_one_solve_of_the_whole_family(monkeypatch):
    sizes = []

    def spy(prob, tol):
        sizes.append(len(prob.family))
        return ncmax_norm(prob, tol=tol)

    monkeypatch.setattr(transfer, "ncmax_norm", spy)
    rows = maximal_ratio_experiment(FAM5, random_hermitian_probe(2, 7), [9], 2.0)
    assert [r[0] for r in rows] == [9]
    assert sizes == [9]   # every shell k = 1..9 of Z^5 is nonempty


# window bounds keep the oracle torus small: side 2*(window + cap) + 1 is
# at most 25 at d=2, 17 at d=3 and 9 at d=5
WINDOW_MAX = {2: 6, 3: 4, 5: 2}


@given(d=st.sampled_from(sorted(WINDOW_MAX)), data=st.data())
@settings(max_examples=30, deadline=None)
def test_inner_shell_average_is_the_roll_convolution(d, data):
    window = data.draw(st.integers(1, WINDOW_MAX[d]), label="window")
    cap = data.draw(st.integers(1, window), label="cap")
    ks = [k for k in range(1, cap * cap + 1) if rep_counts(d, k)[k] > 0]
    k = data.draw(st.sampled_from(ks), label="k")
    dim = data.draw(st.sampled_from([1, 2]), label="matrix_dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = (2 * window + 1,) * d + ((dim, dim) if dim > 1 else ())
    box = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # the roll path: the box on a torus wide enough that nothing wraps
    side = 2 * (window + cap) + 1
    vals = np.zeros((side,) * d + shape[d:], dtype=complex)
    vals[np.ix_(*[np.arange(-window, window + 1) % side] * d)] = box
    shell = sphere_shell(d, k)
    conv = spherical_convolve(shell, LatticeFunction(d, side, vals))
    inner = np.arange(-(window - cap), window - cap + 1) % side
    expected = conv.values[np.ix_(*[inner] * d)]
    got = inner_shell_average(box, shell, cap)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_inner_shell_average_rejects_a_shell_beyond_the_margin():
    box = np.zeros((7, 7))
    with pytest.raises(ValueError, match="margin"):
        inner_shell_average(box, sphere_shell(2, 4), 1)


AVERAGE_FAMILIES = [
    ("diagonal", FAM5, 2),
    ("permutation", permutation_phase_family(), 3),
    ("trivial", trivial_family(2, 5), 2),
    ("diagonal_n4_d3", diagonal_phase_family((0.1, 0.37, 0.9), n=4), 4),
]


@pytest.mark.parametrize("name,fam,n", AVERAGE_FAMILIES, ids=[f[0] for f in AVERAGE_FAMILIES])
def test_average_is_the_mean_of_gamma_over_the_shell(name, fam, n):
    x = random_hermitian_probe(n, 11)
    for k in (1, 2, 3, 4, 5, 9):
        shell = sphere_shell(fam.d, k)
        if shell.count == 0:
            continue
        oracle = np.mean([gamma_apply(fam, pt, x).entries for pt in shell.points], axis=0)
        avg = auto_spherical_average(fam, x, k)
        assert np.abs(avg.entries - oracle).max() < 1e-13


def _conjugated_family(thetas, seed):
    """U_i = W diag(e(thetas[i])) W* with W a seeded QR unitary."""
    d, n = thetas.shape
    rng = np.random.default_rng(seed)
    w = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    mats = np.stack([(w * np.exp(2j * np.pi * th)) @ w.conj().T for th in thetas])
    return AutomorphismFamily(n=n, d=d, unitaries=mats)


@given(n=st.integers(1, 5), d=st.integers(1, 5), repeat=st.booleans(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_eigenbasis_paths_match_gamma_apply_on_conjugated_families(n, d, repeat, data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    thetas = np.random.default_rng(seed).uniform(0, 1, size=(d, n))
    if repeat and n > 1:
        thetas[:, -1] = thetas[:, 0]     # a repeated joint eigenvalue
    fam = _conjugated_family(thetas, seed)
    x = random_hermitian_probe(n, seed % 1000)
    ks = [k for k in range(1, 6) if rep_counts(d, 5)[k] > 0]
    k = data.draw(st.sampled_from(ks), label="k")
    shell = sphere_shell(d, k)
    oracle = np.mean([gamma_apply(fam, pt, x).entries for pt in shell.points], axis=0)
    assert np.abs(auto_spherical_average(fam, x, k).entries - oracle).max() < 1e-12
    window = 2 if d <= 3 else 1
    orb = orbit_truncation(fam, x, window)
    for _ in range(3):
        m = data.draw(st.lists(st.integers(-window, window), min_size=d, max_size=d),
                      label="site")
        site = tuple(c % (2 * window + 1) for c in m)
        expected = gamma_apply(fam, m, x).entries
        assert np.abs(orb.values[site] - expected).max() < 1e-12


TABLE_FAMILIES = AVERAGE_FAMILIES + [
    ("conjugated_n4_d3", _conjugated_family(
        np.random.default_rng(3).uniform(0, 1, size=(3, 4)), 3), 4),
    ("conjugated_n3_d5", _conjugated_family(
        np.random.default_rng(4).uniform(0, 1, size=(5, 3)), 4), 3),
]


@pytest.mark.parametrize("name,fam,n", TABLE_FAMILIES, ids=[f[0] for f in TABLE_FAMILIES])
def test_shell_averages_match_the_per_shell_route(name, fam, n):
    x = random_hermitian_probe(n, 12)
    table = shell_averages(fam, x, 16)
    counts = rep_counts(fam.d, 16)
    assert list(table) == [k for k in range(1, 17) if counts[k] > 0]
    for k, avg in table.items():
        per_shell = auto_spherical_average(fam, x, k)
        assert np.abs(avg.entries - per_shell.entries).max() < 1e-12, k


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_family_rejects_a_non_finite_entry_by_matrix(bad):
    u = np.stack([np.eye(2), np.diag([1.0, bad])])
    with pytest.raises(ValueError, match="^matrix 1 has an entry that is not finite"):
        AutomorphismFamily(n=2, d=2, unitaries=u)


def test_non_commuting_pair_is_rejected():
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="do not commute"):
        AutomorphismFamily(n=2, d=2, unitaries=np.stack([z, x]))


@pytest.mark.parametrize("i", range(3))
def test_family_names_the_first_matrix_that_is_not_unitary(i):
    # identities before it, and a non-finite matrix after it
    u = np.stack([np.eye(2)] * i + [2.0 * np.eye(2), np.diag([1.0, math.nan])])
    with pytest.raises(ValueError, match=f"^matrix {i} is not unitary$"):
        AutomorphismFamily(n=2, d=i + 2, unitaries=u)


@pytest.mark.parametrize("i", range(3))
def test_family_names_the_first_matrix_that_is_not_diagonal(i):
    # identities are diagonal in every basis; the joint eigenbasis of the
    # normal matrix mixing Z and X diagonalizes neither
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.stack([np.eye(2)] * i + [z, x])
    with pytest.raises(ValueError, match=rf"do not commute \(matrix {i} is not diagonal\)"):
        AutomorphismFamily(n=2, d=i + 2, unitaries=u)


@pytest.mark.parametrize("d", [1, 3, 5])
def test_mixing_coefficients_are_the_seeded_draw_and_read_only(d):
    c = transfer._mixing(d)
    ref = np.random.default_rng(0).standard_normal((d, 2)) @ (1.0, 1j)
    assert c.tobytes() == ref.tobytes() and transfer._mixing(d) is c
    with pytest.raises(ValueError, match="read-only"):
        c[0] = 0.0


def test_cached_shell_counts_are_rep_counts_and_read_only():
    counts = transfer._rep_counts_array(5, 16)
    assert counts.tolist() == list(rep_counts(5, 16))
    with pytest.raises(ValueError, match="read-only"):
        counts[1] = 0.0


def _rotated_orbit_box(fam, x, span):
    """gamma^m x over |m|_inf <= span built site by site in the original
    basis: the phases of V*xV one axis at a time, each site then rotated
    back to V B V* before any shell is summed."""
    n, v = fam.n, fam.basis
    box = (v.conj().T @ x.entries @ v)[None]
    steps = np.arange(-span, span + 1)
    for dphi in fam.phases[:, :, None] - fam.phases[:, None, :]:
        phase = np.exp(2j * np.pi * steps[:, None, None] * dphi)
        box = (box[:, None] * phase[None]).reshape(-1, n, n)
    return np.einsum("ij,mjk,lk->mil", v, box, v.conj()).reshape(
        (2 * span + 1,) * fam.d + (n, n))


def _rotated_box_sides(fam, x, window, cap):
    """{k: (lattice side, automorphism side)} of the truncation identity on
    the rotated-box route: the lattice side summed over the rotated orbit
    box of the whole window, the automorphism side the rotated orbit box of
    its average on the inner sites."""
    box = _rotated_orbit_box(fam, x, window)
    sides = {}
    for k in range(1, cap * cap + 1):
        shell = sphere_shell(fam.d, k)
        if shell.count:
            avg = auto_spherical_average(fam, x, k)
            sides[k] = (inner_shell_average(box, shell, cap),
                        _rotated_orbit_box(fam, avg, window - cap))
    return sides


def _random_commuting_family(d, n, seed):
    return _conjugated_family(np.random.default_rng(seed).uniform(0, 1, size=(d, n)), seed)


IDENTITY_FAMILIES = (
    [(f"diagonal_d{d}_n{n}", diagonal_phase_family(TRANSFER_THETAS[:d], n))
     for d, n in ((3, 2), (4, 3), (5, 2), (5, 4))]
    + [("permutation_d3_n3", permutation_phase_family())]
    + [(f"conjugated_d{d}_n{n}", _random_commuting_family(d, n, 10 * d + n))
       for d, n in ((3, 2), (3, 4), (4, 3), (5, 2), (5, 3), (5, 4))])


@pytest.mark.parametrize("name,fam", IDENTITY_FAMILIES, ids=[f[0] for f in IDENTITY_FAMILIES])
def test_eigenbasis_sides_match_the_rotated_box_sides(name, fam):
    # the lattice side summed in the joint eigenbasis and rotated back
    # agrees to roundoff with the sum over the rotated box; both deviations
    # are roundoff
    x = random_hermitian_probe(fam.n, 27)
    window, cap = 3, 2
    v = fam.basis
    phase_box = transfer._phase_box(fam, v.conj().T @ x.entries @ v, window)
    oracle_worst = 0.0
    for k, (lhs, rhs) in _rotated_box_sides(fam, x, window, cap).items():
        eigen_lhs = transfer._rotate_back(
            v, inner_shell_average(phase_box, sphere_shell(fam.d, k), cap))
        assert np.abs(eigen_lhs - lhs).max() < 1e-13, k
        oracle_worst = max(oracle_worst, float(np.abs(lhs - rhs).max()))
    assert oracle_worst < 1e-12
    assert truncation_identity_check(fam, x, window, cap * cap) < 1e-12


@pytest.mark.parametrize("name,fam", IDENTITY_FAMILIES, ids=[f[0] for f in IDENTITY_FAMILIES])
def test_the_check_measures_a_defect_in_the_original_basis(name, fam, monkeypatch):
    # an automorphism side off by a hermitian e at k = 1 makes the rotated
    # difference -gamma^m(e) at every inner site m, so the check reads the
    # largest entry of gamma^m(e) over them, by matrix powers
    x = random_hermitian_probe(fam.n, 28)
    e = 1e-3 * random_hermitian_probe(fam.n, 29).entries
    true_averages = transfer.shell_averages

    def off_at_one(fam_, x_, max_k):
        averages = true_averages(fam_, x_, max_k)
        averages[1] = hermitian_element(averages[1].entries + e)
        return averages

    monkeypatch.setattr(transfer, "shell_averages", off_at_one)
    window, cap = 2, 1
    inner = window - cap
    expected = max(np.abs(gamma_apply(fam, np.subtract(m, inner), hermitian_element(e))
                          .entries).max() for m in np.ndindex(*(2 * inner + 1,) * fam.d))
    assert abs(truncation_identity_check(fam, x, window, cap * cap) - expected) < 1e-12


def test_phase_box_and_rotation_rebuild_the_orbit_box():
    fam = _random_commuting_family(4, 3, 5)
    x = random_hermitian_probe(3, 5)
    v = fam.basis
    box = transfer._orbit_box(fam, x, 2)
    assert np.array_equal(
        box, transfer._rotate_back(v, transfer._phase_box(fam, v.conj().T @ x.entries @ v, 2)))
    assert np.abs(box - _rotated_orbit_box(fam, x, 2)).max() < 1e-13


def test_truncation_identity_refuses_a_wide_box_before_allocation():
    # 21^5 sites of 16x16 entries: the phase box of the whole window is
    # refused before x is rotated or any site is built
    fam = diagonal_phase_family(TRANSFER_THETAS, 16)
    x = random_hermitian_probe(16, 0)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="21\\^5 orbit sites of 16x16"):
            truncation_identity_check(fam, x, 10, 4)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 1_000_000
