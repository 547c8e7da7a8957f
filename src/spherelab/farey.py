"""Farey fractions and the exact interval partition of [0,1] they induce.

Everything here is exact: integer recurrences, with fractions.Fraction
only in the results (FareySequence.fractions and MajorArc).  For an order
L, the reduced fractions a/q in [0,1] with q <= L split [0,1] into one
interval per fraction.  Writing a1/q1 < a/q < a2/q2 for consecutive
fractions, the interval owned by a/q is

    [ a/q - beta/(q L),  a/q + alpha/(q L) )
        = [ (a + a1)/(q + q1),  (a + a2)/(q + q2) )

with alpha = L/(q + q2) and beta = L/(q + q1): its ends are the mediants
with its neighbours, because a q1 - a1 q = 1.  The endpoint fractions 0/1
and 1/1 both use alpha = beta = L/(1 + L); the 0/1 interval starts at 0 and
the 1/1 interval is [1 - beta/L, 1], closed on the right.  Both weights lie
strictly between 1/2 and 1, and the intervals tile [0,1] exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .errors import BudgetExceededError
from .lattice import DEFAULT_POINT_BUDGET


@dataclass(frozen=True)
class FareySequence:
    """The reduced pairs (numerators[i], denominators[i]), ascending."""

    order: int
    numerators: tuple[int, ...]
    denominators: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.numerators)

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.numerators, self.denominators))


@dataclass(frozen=True)
class MajorArc:
    """One interval of the order-L partition, owned by its center fraction."""

    center: Fraction
    left: Fraction
    right: Fraction
    alpha: Fraction
    beta: Fraction
    order: int
    closed_right: bool

    def contains(self, s: Fraction) -> bool:
        if self.closed_right:
            return self.left <= s <= self.right
        return self.left <= s < self.right


def farey_sequence(order: int) -> FareySequence:
    """All reduced fractions in [0,1] with denominator <= order, ascending.

    Uses the classical next-term recurrence on integer pairs: from
    consecutive terms p/q, p'/q' the following term is (j*p' - p)/(j*q' - q)
    with j = floor((order + q)/q').  The bound 1 + order(order + 1)/2 on
    its length is checked against DEFAULT_POINT_BUDGET before it starts.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    bound = 1 + order * (order + 1) // 2
    if bound > DEFAULT_POINT_BUDGET:
        raise BudgetExceededError(
            f"Farey order {order} has up to {bound} fractions, budget is "
            f"{DEFAULT_POINT_BUDGET}")
    p, q, p2, q2 = 0, 1, 1, order
    nums, dens = [0, 1], [1, order]
    while p2 != q2:
        j = (order + q) // q2
        p, q, p2, q2 = p2, q2, j * p2 - p, j * q2 - q
        nums.append(p2)
        dens.append(q2)
    return FareySequence(order=order, numerators=tuple(nums),
                         denominators=tuple(dens))


def major_arcs(seq: FareySequence) -> list[MajorArc]:
    """The exact partition of [0,1] owned by the fractions of seq.

    Each interior endpoint is the mediant (a + a')/(q + q') of two
    neighbours, built from their integer numerators and denominators.
    """
    L = seq.order
    nums, dens = seq.numerators, seq.denominators
    bounds = [Fraction(0, 1)]
    bounds += [Fraction(a + a2, q + q2)
               for a, q, a2, q2 in zip(nums, dens, nums[1:], dens[1:])]
    bounds.append(Fraction(1, 1))
    # sums[i] = q_i + q_{i+1}; the end fractions 0/1 and 1/1 both get the
    # weight pair (edge, edge)
    sums = [q + q2 for q, q2 in zip(dens, dens[1:])]
    edge = Fraction(L, 1 + L)
    last = len(seq) - 1
    return [
        MajorArc(
            center=Fraction(a, q),
            left=bounds[i],
            right=bounds[i + 1],
            alpha=Fraction(L, sums[i]) if 0 < i < last else edge,
            beta=Fraction(L, sums[i - 1]) if 0 < i < last else edge,
            order=L,
            closed_right=i == last,
        )
        for i, (a, q) in enumerate(zip(nums, dens))
    ]


def verify_partition(arcs: list[MajorArc]) -> bool:
    """True iff the arcs tile [0,1] exactly: consecutive endpoints agree,
    the first starts at 0 and the last ends at 1 (exact rationals)."""
    if arcs[0].left != 0 or arcs[-1].right != 1 or not arcs[-1].closed_right:
        return False
    for prev, cur in zip(arcs, arcs[1:]):
        if prev.right != cur.left:
            return False
        if prev.closed_right:
            return False
    return True


def locate_arc(s, arcs: list[MajorArc]) -> tuple[Fraction, Fraction]:
    """Find the arc owning s in [0,1]; return (center, t) with t = s - center.

    s may be a Fraction, int, or float (floats are converted exactly).
    Binary search over left endpoints; |t| < 1/(q L) always holds because
    both interval weights are < 1.
    """
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise ValueError(f"s must lie in [0,1], got {s}")
    i = bisect_right(arcs, s, key=attrgetter("left")) - 1
    arc = arcs[i]
    if not arc.contains(s):
        raise AssertionError(f"partition lookup failed for s={s}")
    return arc.center, s - arc.center
