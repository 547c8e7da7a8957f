"""Exact rational partition of the circle by denominator-bounded fractions."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab.errors import BudgetExceededError
from spherelab.farey import (MajorArc, farey_sequence, locate_arc, major_arcs,
                             verify_partition)

F = Fraction


def test_order_one():
    assert farey_sequence(1).fractions == (F(0), F(1))


def test_order_three():
    assert farey_sequence(3).fractions == (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))


def test_order_five_neighbors():
    fr = farey_sequence(5).fractions
    assert len(fr) == 11
    i = fr.index(F(2, 5))
    assert fr[i + 1] == F(1, 2)
    assert fr[i + 1] - fr[i] == F(1, 10)


def _totient(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if gcd(a, q) == 1)


@pytest.mark.parametrize("order", [1, 2, 7, 31, 100])
def test_length_is_totient_sum(order):
    expected = 1 + sum(_totient(q) for q in range(1, order + 1))
    assert len(farey_sequence(order)) == expected


@given(order=st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_neighbor_determinant(order):
    fr = farey_sequence(order).fractions
    for x, y in zip(fr, fr[1:]):
        assert y.numerator * x.denominator - x.numerator * y.denominator == 1


def test_arc_table_order_three():
    arcs = {a.center: a for a in major_arcs(farey_sequence(3))}
    assert (arcs[F(1, 2)].left, arcs[F(1, 2)].right) == (F(2, 5), F(3, 5))
    assert (arcs[F(0)].left, arcs[F(0)].right) == (F(0), F(1, 4))
    assert (arcs[F(1)].left, arcs[F(1)].right) == (F(3, 4), F(1))
    assert arcs[F(1)].closed_right and not arcs[F(0)].closed_right


def test_two_arcs_at_order_one():
    arcs = major_arcs(farey_sequence(1))
    assert [(a.left, a.right) for a in arcs] == [(F(0), F(1, 2)), (F(1, 2), F(1))]
    assert [a.closed_right for a in arcs] == [False, True]


@pytest.mark.parametrize("order", list(range(1, 40)) + [80])
def test_partition(order):
    assert verify_partition(major_arcs(farey_sequence(order)))


@pytest.mark.parametrize("order", [1, 2, 3, 17, 200])
def test_arc_ends_match_the_weight_form(order):
    # arcs are built from mediants; each end must also be
    # a/q -+ weight/(q L), the form the arc multiplier integrates over
    arcs = major_arcs(farey_sequence(order))
    for arc in arcs[1:-1]:
        q = arc.center.denominator
        assert arc.left == arc.center - arc.beta / (q * order)
        assert arc.right == arc.center + arc.alpha / (q * order)
    edge = F(order, order + 1)
    assert (arcs[0].left, arcs[0].right) == (F(0), edge / order)
    assert (arcs[-1].left, arcs[-1].right) == (1 - edge / order, F(1))
    assert arcs[0].alpha == arcs[0].beta == arcs[-1].alpha == arcs[-1].beta == edge


def _eager_arcs(order):
    """Every MajorArc of the order-L partition built at once from the
    Fractions of the sequence: ends at the mediants, weights L/(q + q')
    inside and L/(1 + L) at the end fractions."""
    fr = farey_sequence(order).fractions
    last = len(fr) - 1
    arcs = []
    for i, c in enumerate(fr):
        prev, nxt = fr[max(i - 1, 0)], fr[min(i + 1, last)]
        edge = F(order, 1 + order)
        arcs.append(MajorArc(
            center=c,
            left=F(prev.numerator + c.numerator, prev.denominator + c.denominator)
            if i > 0 else F(0),
            right=F(c.numerator + nxt.numerator, c.denominator + nxt.denominator)
            if i < last else F(1),
            alpha=F(order, c.denominator + nxt.denominator) if 0 < i < last else edge,
            beta=F(order, prev.denominator + c.denominator) if 0 < i < last else edge,
            order=order,
            closed_right=i == last))
    return arcs


@pytest.mark.parametrize("order", list(range(1, 61)) + [200])
def test_arcs_built_on_read_match_the_eager_construction(order):
    arcs, eager = major_arcs(farey_sequence(order)), _eager_arcs(order)
    n = len(eager)
    assert len(arcs) == n
    assert list(arcs) == eager
    assert [arcs[i] for i in range(-n, n)] == eager + eager
    assert arcs[-1] == eager[-1] and arcs[-1].closed_right
    for cut in (slice(None), slice(1, -1), slice(None, None, -1), slice(2, n, 3),
                slice(n, n + 5)):
        assert arcs[cut] == eager[cut]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            arcs[bad]


def test_partition_check_rejects_a_gap_and_a_misplaced_closed_end():
    arcs = list(major_arcs(farey_sequence(7)))
    assert verify_partition(arcs)
    mid = arcs[5]
    gap = replace(mid, right=mid.right - F(1, 1000))
    assert not verify_partition(arcs[:5] + [gap] + arcs[6:])
    assert not verify_partition(arcs[:5] + [replace(mid, closed_right=True)] + arcs[6:])
    assert not verify_partition(arcs[:-1] + [replace(arcs[-1], closed_right=False)])
    assert not verify_partition(arcs[1:])
    assert not verify_partition(arcs[:-1])


def test_locate_on_a_subset_of_arcs():
    # callers may search a filtered list of arcs, not only a full partition
    arcs = [a for a in major_arcs(farey_sequence(5)) if a.center.denominator == 5]
    assert locate_arc(F(2, 5), arcs) == (F(2, 5), F(0))
    assert locate_arc(F(41, 100), arcs)[0] == F(2, 5)


def test_halfwidth_weights_in_band():
    # interior weights order/(q + q') are strictly inside (1/2, 1) because
    # consecutive denominators are coprime and sum past the order
    for order in (2, 3, 5, 17, 59, 200):
        vals = [v for a in major_arcs(farey_sequence(order)) for v in (a.alpha, a.beta)]
        assert min(vals) > F(1, 2) and max(vals) < 1
    edge = major_arcs(farey_sequence(1))[0]
    assert edge.alpha == edge.beta == F(1, 2)


def test_locate_centers_and_edges():
    arcs = major_arcs(farey_sequence(3))
    assert locate_arc(F(1, 2), arcs) == (F(1, 2), F(0))
    center, t = locate_arc(0.39, arcs)
    assert center == F(1, 3)
    assert abs(t - (F(0.39) - F(1, 3))) == 0
    assert locate_arc(1, arcs) == (F(1), F(0))
    assert locate_arc(0, arcs) == (F(0), F(0))


def test_locate_rejects_outside():
    arcs = major_arcs(farey_sequence(2))
    with pytest.raises(ValueError):
        locate_arc(1.5, arcs)


def test_locate_offset_bound():
    # across a fine grid, the offset beats 1/(q * order)
    order = 50
    arcs = major_arcs(farey_sequence(order))
    for i in range(10_000):
        center, t = locate_arc(F(i, 10_000), arcs)
        assert abs(t) < F(1, center.denominator * order)


def test_order_over_budget_is_refused_before_the_recurrence():
    # |F_L| is about 3 L^2 / pi^2: some 3 * 10^9 fractions at L = 100000
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="order 100000 has up to 5000050001"):
            farey_sequence(100_000)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 100_000
