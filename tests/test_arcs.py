"""Exact shell multiplier, its arc decomposition, and the rational
approximants with their dropped-tail envelope."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab import arcs, lattice
from spherelab.arcs import (
    approx_arc_multiplier,
    approx_tail_bound,
    approx_total,
    arc_multiplier,
    exact_multiplier,
    exact_multiplier_many,
)
from spherelab.errors import BudgetExceededError
from spherelab.farey import farey_sequence, major_arcs
from spherelab.gauss import gauss_magnitude_bound
from spherelab.experiments import ExperimentConfig, run_experiment
from spherelab.lattice import DEFAULT_POINT_BUDGET, rep_counts, sphere_shell
from spherelab.sphere import j_main, radial_constant


def test_exact_multiplier_pinned():
    shell = sphere_shell(5, 1)
    assert exact_multiplier(shell, np.zeros(5)) == 1.0
    # ten signed unit vectors: two give phase -1, eight give +1
    val = exact_multiplier(shell, np.array([0.5, 0.0, 0.0, 0.0, 0.0]))
    assert abs(val - 0.6) < 1e-14


@pytest.mark.parametrize("d, k", [(1, 49), (2, 25), (2, 10_000), (3, 2500),
                                  (5, 4), (5, 225), (6, 50)])
def test_exact_multiplier_real_and_bounded(d, k):
    # the batch reads the twisted theta table, the single point sums the shell
    shell = sphere_shell(d, k)
    rng = np.random.default_rng(0)
    xis = rng.uniform(-0.5, 0.5, size=(20, d))
    vals = exact_multiplier_many(shell, xis)
    assert np.abs(vals.imag).max() < 1e-12
    assert np.abs(vals).max() <= 1.0 + 1e-12
    for xi, v in zip(xis, vals):
        assert abs(exact_multiplier(shell, xi) - v) < 1e-13


def test_exact_multiplier_half_integer_point():
    shell = sphere_shell(2, 25)
    val = exact_multiplier_many(shell, np.array([[0.5, 0.5]]))[0]
    assert abs(val.imag) < 1e-14


def test_zero_arc_approximant_is_main_profile():
    for d, k in ((5, 1), (5, 4), (6, 2)):
        v = approx_arc_multiplier(d, k, 0, 1, np.zeros(d))
        assert abs(v - j_main(d, k, np.zeros(d))) < 1e-15


def test_approximant_envelope():
    # |approximant| <= (gauss bound) * c_d lam^{d-2} / r_d(k), since both
    # the surface-measure transform and the cutoff are bounded by one
    rng = np.random.default_rng(5)
    for k in (1, 2, 4, 9):
        lam = math.sqrt(k)
        r = rep_counts(5, k)[k]
        envelope_base = radial_constant(5) * lam**3 / r
        for q, a_list in ((1, (0, 1)), (2, (1,)), (3, (1, 2)), (5, (2,))):
            for a in a_list:
                for _ in range(4):
                    xi = a / q + 0.02 * rng.uniform(-1, 1, size=5)
                    v = abs(approx_arc_multiplier(5, k, a, q, xi))
                    bound = gauss_magnitude_bound(q, 5) * envelope_base
                    assert v <= bound * (1.0 + 1e-9)


def test_approx_total_sums_low_arcs():
    # q = 1 has the single unit a = 0: one arc around 0 mod 1, counted once
    for xi in (np.array([0.23, -0.11, 0.05, 0.0, 0.37]),
               np.array([0.1, -0.05, 0.02, 0.0, 0.12])):
        total = approx_total(5, 4, xi, q_max=1)
        one_term = approx_arc_multiplier(5, 4, 0, 1, xi)
        assert abs(total.value - one_term) < 1e-15
        assert total.q_max == 1
    assert abs(one_term) > 0.1  # the second point lies inside the q = 1 cutoff


@pytest.mark.parametrize("k", [4, 9, 16, 36, 64, 100, 144, 225])
def test_approx_total_near_zero_is_one(k):
    # the exact multiplier is 1 at xi = 0; a doubled q = 1 term reads ~2.2
    assert abs(approx_total(5, k, np.zeros(5), q_max=30).value - 1.0) < 0.05


DECAY_LADDER = [lam * lam for order in (2, 3, 4, 6, 8)
                for lam in range(order, 2 * order)]


def _pair_sum(d, k, xi, q_max):
    """Sum of the per-pair approximants, q = 1 counted once (a = 0)."""
    total = approx_arc_multiplier(d, k, 0, 1, xi)
    for q in range(2, q_max + 1):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                total += approx_arc_multiplier(d, k, a, q, xi)
    return total


@st.composite
def _frequencies(draw):
    coords = st.floats(-0.5, 0.5, allow_nan=False)
    if draw(st.booleans()):
        return np.array(draw(st.lists(coords, min_size=5, max_size=5)))
    # near a rational point, so that moduli other than 1 are active
    q = draw(st.integers(1, 12))
    a = draw(st.lists(st.integers(0, q - 1), min_size=5, max_size=5))
    noise = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=5, max_size=5))
    return np.array(a) / q + 0.02 * np.array(noise)


@given(k=st.sampled_from(DECAY_LADDER), q_max=st.sampled_from([1, 2, 7, 30, 60]),
       xi=_frequencies())
@settings(max_examples=40, deadline=None)
def test_approx_total_matches_pair_sum(k, q_max, xi):
    fast = approx_total(5, k, xi, q_max=q_max).value
    assert abs(fast - _pair_sum(5, k, xi, q_max)) < 1e-12


def test_approx_total_rejects_bad_arguments():
    with pytest.raises(ValueError, match="d=3"):
        approx_total(3, 4, np.zeros(3), q_max=10)
    with pytest.raises(ValueError, match="q_max=0"):
        approx_total(5, 4, np.zeros(5), q_max=0)
    # m_0 is identically 1, but the main term carries k^{(d-2)/2} = 0
    with pytest.raises(ValueError, match="k=0"):
        approx_total(5, 0, np.zeros(5), q_max=10)
    with pytest.raises(ValueError, match="k=0"):
        approx_tail_bound(5, 0, 10)


def test_approx_total_tail_control():
    tails = [approx_tail_bound(5, 4, q) for q in (5, 10, 20, 40)]
    assert all(t > 0 for t in tails)
    assert all(b < a for a, b in zip(tails, tails[1:]))
    with pytest.raises(ValueError):
        approx_tail_bound(3, 4, 10)  # tail sum diverges below d = 5


def test_rejects_non_reduced_fraction():
    with pytest.raises(ValueError):
        approx_arc_multiplier(5, 4, 2, 4, np.zeros(5))
    with pytest.raises(ValueError, match="q=0"):
        approx_arc_multiplier(5, 4, 1, 0, np.zeros(5))  # gcd(1, 0) = 1


def test_two_arc_reconstruction_order_one():
    shell = sphere_shell(5, 1)
    arcs = major_arcs(farey_sequence(1))
    for xi in (np.zeros(5), np.array([0.23, -0.11, 0.05, 0.0, 0.37])):
        total = sum(arc_multiplier(5, 1, arc, xi, eps=1.0) for arc in arcs)
        assert abs(total - exact_multiplier(shell, xi)) < 1e-9


def test_arc_multiplier_requires_matching_damping():
    arc = major_arcs(farey_sequence(2))[0]
    with pytest.raises(ValueError):
        arc_multiplier(5, 1, arc, np.zeros(5), eps=1.0)  # order 2 needs 1/4


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_arc_panel_cap_checked_before_allocation():
    # the order-1000 arc [0, 1/1001] at k = 104,270,667 needs panels of
    # width 1/(4k), 416,667 of them, one over the 416,666 panels of 12 nodes
    # the point budget holds; 2 pi eps k = 655 is still in a float's range
    arc = major_arcs(farey_sequence(1000))[0]
    assert arc.center == 0 and arc.right * 1001 == 1
    assert 416_666 * 12 <= DEFAULT_POINT_BUDGET < 416_667 * 12

    def over_budget():
        with pytest.raises(BudgetExceededError,
                           match=f"^416667 panels of 12 nodes, over the budget of "
                                 f"{DEFAULT_POINT_BUDGET}$"):
            arc_multiplier(5, 104_270_667, arc, np.full(5, 0.1), 1e-6)

    assert _traced_peak(over_budget) < 1 << 20


def test_arc_overflow_is_refused_before_the_panels():
    # the order-2 arc [0, 1/3] at k = 200,000 fits the point budget with
    # 266,667 panels, but e^(2 pi eps k) at eps = 1/4 overflows a float
    arc = major_arcs(farey_sequence(2))[0]

    def overflow():
        with pytest.raises(ValueError, match=r"k=200000, eps=0\.25: .* overflows a float"):
            arc_multiplier(5, 200_000, arc, np.full(5, 0.1), 0.25)

    assert _traced_peak(overflow) < 1 << 20
    # K = 500 at Lambda = 2: 2 pi eps k = 785
    cfg = ExperimentConfig("reconstruct", {"d": 5, "K": 500, "Lambda": 2, "L": 1,
                                           "seed": 0, "tol": 1e-6})
    with pytest.raises(ValueError, match="k=500, eps=0.25"):
        run_experiment(cfg)


def test_approx_total_images_checked_before_allocation(monkeypatch):
    # q_max * d images against the point budget: at d = 5 a q_max of
    # 1,000,001 is one modulus over, refused before any array is built
    def over_budget():
        with pytest.raises(BudgetExceededError,
                           match=f"q_max=1000001 needs 5000005 images in d=5, "
                                 f"over the budget of {DEFAULT_POINT_BUDGET}$"):
            approx_total(5, 9, np.array([0.5, 0.1, 0, 0, 0]), q_max=1_000_001)

    assert _traced_peak(over_budget) < 1 << 20
    # with the budget at the images of q_max = 30 the sum is evaluated, and
    # one modulus more is refused before allocation
    xi = np.array([0.5, 0.1, 0, 0, 0])
    full = approx_total(5, 9, xi, q_max=30)
    monkeypatch.setattr(lattice, "DEFAULT_POINT_BUDGET", 30 * 5)
    assert approx_total(5, 9, xi, q_max=30) == full

    def one_over():
        with pytest.raises(BudgetExceededError, match="q_max=31 needs 155 images"):
            approx_total(5, 9, xi, q_max=31)

    assert _traced_peak(one_over) < 1 << 20



def test_exact_multiplier_rejects_an_empty_shell():
    shell = sphere_shell(1, 2)  # 2 is no square
    assert shell.count == 0
    with pytest.raises(ValueError, match="empty shell.*= 2"):
        exact_multiplier(shell, np.array([0.1]))
    with pytest.raises(ValueError, match="empty shell.*= 2"):
        exact_multiplier_many(shell, np.array([[0.1], [0.2]]))


@pytest.mark.parametrize("shape", [(3,), (4, 2), (4, 4), (1, 1, 3)])
def test_exact_multiplier_many_names_a_bad_shape(shape):
    shell = sphere_shell(3, 2)
    with pytest.raises(ValueError, match=re.escape(f"(rows, 3) array, got shape {shape}")):
        exact_multiplier_many(shell, np.zeros(shape))


WRONG_LENGTH = "xi must have shape (5,) in d=5, got shape (3,)"


def test_approx_total_refuses_a_frequency_of_the_wrong_length():
    with pytest.raises(ValueError) as err:
        approx_total(5, 4, [0.1, 0.2, 0.0], q_max=10)
    assert str(err.value) == WRONG_LENGTH
    # the q_max, d and k refusals still come first
    for d, k, q_max, what in ((5, 4, 0, "q_max=0"), (3, 4, 10, "d=3"), (5, 0, 10, "k=0")):
        with pytest.raises(ValueError, match=what):
            approx_total(d, k, [0.1, 0.2, 0.0], q_max=q_max)


def test_approx_arc_multiplier_refuses_a_frequency_of_the_wrong_length():
    with pytest.raises(ValueError) as err:
        approx_arc_multiplier(5, 4, 1, 3, [0.1, 0.2, 0.0])
    assert str(err.value) == WRONG_LENGTH
    with pytest.raises(ValueError, match="q=0"):
        approx_arc_multiplier(5, 4, 1, 0, [0.1, 0.2, 0.0])


def test_arc_multiplier_refuses_a_frequency_of_the_wrong_length(monkeypatch):
    calls = []
    monkeypatch.setattr(arcs, "panel_quadrature", lambda *a: calls.append(a))
    for arc in major_arcs(farey_sequence(2)):
        with pytest.raises(ValueError) as err:
            arc_multiplier(5, 2, arc, [0.1, 0.2, 0.0], 0.25)
        assert str(err.value) == WRONG_LENGTH
    assert calls == []
    with pytest.raises(ValueError, match="does not match arc order 2"):
        arc_multiplier(5, 2, arc, [0.1, 0.2, 0.0], 1.0)


def test_an_arc_whose_panel_width_underflows_is_refused_by_name():
    # order 2^537 gives eps = 2^-1074, the smallest float, and panels of
    # width eps / 2, which rounds to 0: refused as a budget, not divided by
    from fractions import Fraction

    from spherelab.farey import MajorArc
    order = 2 ** 537
    arc = MajorArc(center=Fraction(0), left=Fraction(0), right=Fraction(1, order + 1),
                   alpha=Fraction(order, order + 1), beta=Fraction(order, order + 1),
                   order=order, closed_right=False)
    eps = 5e-324
    assert order ** -2.0 == eps and eps / 2.0 == 0.0

    def refused():
        with pytest.raises(BudgetExceededError, match="^inf panels of 12 nodes, over the budget"):
            arc_multiplier(5, 1, arc, np.full(5, 0.1), eps)

    assert _traced_peak(refused) < 1 << 20
