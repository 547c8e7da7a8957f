"""Commuting-unitary orbits: conjugation averages over integer shells and
their agreement with lattice convolution of the truncated orbit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab import transfer
from spherelab.errors import BudgetExceededError
from spherelab.experiments import TRANSFER_THETAS, random_hermitian_probe
from spherelab.lattice import rep_counts, sphere_shell
from spherelab.ncmax import hermitian_element, schatten_norm
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


def test_truncation_identity_budget_checked_before_allocation():
    # 23^5 orbit sites are over the default budget of 5,000,000
    with pytest.raises(BudgetExceededError, match="23\\^5"):
        truncation_identity_check(FAM5, random_hermitian_probe(2, 7), 11, 1)


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


def test_average_blocks_add_in_shell_order(monkeypatch):
    # the running sum is carried onto the first point of the next block, so
    # any block size gives the bits of a single pass over the shell
    x = random_hermitian_probe(3, 5)
    fam = permutation_phase_family()
    whole = auto_spherical_average(fam, x, 9).entries
    monkeypatch.setattr(transfer, "AVERAGE_BLOCK_ENTRIES", 7 * 9)
    assert np.array_equal(auto_spherical_average(fam, x, 9).entries, whole)
    monkeypatch.setattr(transfer, "AVERAGE_BLOCK_ENTRIES", 1)
    assert np.array_equal(auto_spherical_average(fam, x, 9).entries, whole)
