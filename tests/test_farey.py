"""Exact rational partition of the circle by denominator-bounded fractions."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab.errors import BudgetExceededError
from spherelab.farey import (FareySequence, MajorArc, MajorArcs, farey_certificate,
                             farey_sequence, locate_arc, major_arcs, verify_partition)

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


@pytest.mark.parametrize("order", list(range(1, 61)) + [200])
def test_certificate_agrees_with_the_fraction_walk(order):
    # a MajorArcs is certified on its integer pairs; a plain list of the
    # same arcs takes the exact Fraction endpoint walk
    seq = farey_sequence(order)
    assert farey_certificate(seq)
    assert verify_partition(major_arcs(seq)) is True
    assert verify_partition(list(major_arcs(seq))) is True


def _with_pairs(seq, pairs, order=None):
    """seq with its pairs replaced (as tuples, so any int fits)."""
    return replace(seq, order=seq.order if order is None else order,
                   numerators=tuple(a for a, _ in pairs),
                   denominators=tuple(q for _, q in pairs))


def _mutations(order):
    """Sequences that are not the Farey sequence of their order: named
    edits of farey_sequence(order)."""
    seq = farey_sequence(order)
    pairs = list(zip(seq.numerators, seq.denominators))
    mid = len(pairs) // 2                       # the pair 1/2
    assert pairs[mid] == (1, 2)
    swapped = pairs[:mid - 1] + [pairs[mid], pairs[mid - 1]] + pairs[mid + 1:]
    negated = pairs[:mid - 1] + [(pairs[mid - 1][0], -pairs[mid - 1][1])] + pairs[mid:]
    return {
        "swapped": _with_pairs(seq, swapped),
        "dropped first": _with_pairs(seq, pairs[1:]),
        "dropped middle": _with_pairs(seq, pairs[:mid - 1] + pairs[mid:]),
        "dropped last": _with_pairs(seq, pairs[:-1]),
        "2/4 inserted": _with_pairs(seq, pairs[:mid + 1] + [(2, 4)] + pairs[mid + 1:]),
        "1/2 written 2/4": _with_pairs(seq, pairs[:mid] + [(2, 4)] + pairs[mid + 1:]),
        "labelled L+1": replace(seq, order=order + 1),
        "labelled L-1": replace(seq, order=order - 1),
        "denominator negated": _with_pairs(seq, negated),
    }


@pytest.mark.parametrize("order", [7, 12, 60])
def test_certificate_rejects_what_the_endpoint_walk_accepts(order):
    # the arcs of a MajorArcs are mediants of its own pairs, so the endpoint
    # walk over them accepts any of these edits; the certificate does not
    for name, bad in _mutations(order).items():
        arcs = MajorArcs(bad)
        assert verify_partition(list(arcs)), name
        assert not farey_certificate(bad), name
        assert not verify_partition(arcs), name


def test_certificate_rejects_an_extra_fraction_past_the_order():
    # 0/1, 1/2, 1/1 meets the identity and q + q' > 1 but is not of order 1
    seq = farey_sequence(1)
    extra = _with_pairs(seq, [(0, 1), (1, 2), (1, 1)])
    assert verify_partition(list(MajorArcs(extra)))
    assert not verify_partition(MajorArcs(extra))
    assert verify_partition(MajorArcs(replace(extra, order=2)))


@pytest.mark.parametrize("order, i, shift", [(4, 2, -2**63), (12, 18, 2**62)])
def test_certificate_bounds_the_numerators_before_the_int64_products(order, i, shift):
    # both neighbours' denominators are multiples of 2^64 / |shift|, so the
    # shifted numerator gives the same int64 neighbour identities
    seq = farey_sequence(order)
    pairs = list(zip(seq.numerators, seq.denominators))
    a, q = pairs[i]
    assert pairs[i - 1][1] * shift % 2**64 == pairs[i + 1][1] * shift % 2**64 == 0
    forged = _with_pairs(seq, pairs[:i] + [(a + shift, q)] + pairs[i + 1:])
    nums = np.array(forged.numerators, dtype=np.int64)
    dens = np.array(forged.denominators, dtype=np.int64)
    assert (nums[1:] * dens[:-1] - nums[:-1] * dens[1:] == 1).all()
    assert not farey_certificate(forged)
    assert not verify_partition(MajorArcs(forged))


def test_certificate_refuses_short_and_ragged_pairs():
    assert not farey_certificate(FareySequence(order=1, numerators=(0,), denominators=(1,)))
    assert not farey_certificate(FareySequence(order=1, numerators=(), denominators=()))
    assert not farey_certificate(FareySequence(order=1, numerators=(0, 1),
                                               denominators=(1, 1, 1)))
    assert not farey_certificate(FareySequence(order=0, numerators=(0, 1),
                                               denominators=(1, 1)))
    assert farey_certificate(FareySequence(order=1, numerators=(0, 1), denominators=(1, 1)))


def test_sequence_keeps_two_byte_pairs():
    tracemalloc.start()
    try:
        seq = farey_sequence(200)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 60_000
    assert seq.numerators.typecode == seq.denominators.typecode == "h"
    assert seq.numerators.itemsize == 2
    for i in (0, 1, len(seq) // 2, -1):
        assert type(seq.numerators[i]) is int and type(seq.denominators[i]) is int
    assert type(major_arcs(seq)[7].center.numerator) is int


@pytest.mark.parametrize("order", list(range(1, 61)) + [200])
def test_locate_on_the_pairs_matches_the_bisect_over_arcs(order):
    # the integer-mediant search on a MajorArcs and the bisect over the
    # left ends of a plain list of the same arcs
    arcs = major_arcs(farey_sequence(order))
    plain = list(arcs)
    points = [p for arc in plain for p in (arc.left, arc.center, arc.right)]
    rng = np.random.default_rng(order)
    points += rng.uniform(0.0, 1.0, 2000).tolist()
    for s in points:
        assert locate_arc(s, arcs) == locate_arc(s, plain)
    # the open right end of arc i belongs to arc i + 1, the closed one of
    # the last arc to itself
    assert locate_arc(plain[0].right, arcs)[0] == plain[1].center
    assert locate_arc(F(1), arcs) == (F(1), F(0))
