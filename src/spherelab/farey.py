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

major_arcs returns these intervals as a MajorArcs, a read-only sequence
that keeps only the integer pairs of the Farey sequence and builds each
MajorArc when it is read, so a partition of order L holds O(L^2) ints
and no Fraction until its arcs are used.  The pairs are kept in two
array.array of code 'h': 2 bytes a pair member where a tuple takes 8
(the length budget caps the order at 3,161, well inside 'h').

The partition of a MajorArcs is certified on those pairs alone
(farey_certificate): a list of pairs that starts at 0/1, ends at 1/1 and
whose consecutive pairs satisfy a' q - a q' = 1 and q + q' > L, with every
q in 1..L, is exactly the Farey sequence of order L.  The identity makes
each pair reduced and the sequence strictly ascending, so every mediant
lies strictly between its two fractions and the arcs tile [0,1]; a
fraction of order <= L strictly between two consecutive pairs would have
a denominator >= q + q' > L, so none is missing.  Any other sequence of
arcs is checked by walking its exact Fraction endpoints.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from operator import attrgetter

import numpy as np

from .lattice import check_budget


@dataclass(frozen=True)
class FareySequence:
    """The reduced pairs (numerators[i], denominators[i]), ascending.

    farey_sequence keeps them in array.array of code 'h', read-only by
    convention; indexing yields Python ints."""

    order: int
    numerators: Sequence[int]
    denominators: Sequence[int]

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
    check_budget(bound, f"Farey order {order} has up to {bound} fractions")
    p, q, p2, q2 = 0, 1, 1, order
    nums, dens = [0, 1], [1, order]
    while p2 != q2:
        j = (order + q) // q2
        p, q, p2, q2 = p2, q2, j * p2 - p, j * q2 - q
        nums.append(p2)
        dens.append(q2)
    return FareySequence(order=order, numerators=array("h", nums),
                         denominators=array("h", dens))


def farey_certificate(seq: FareySequence) -> bool:
    """True iff the pairs of seq are exactly the Farey sequence of its
    order L, ascending and reduced (see the module docstring): the first
    pair is 0/1 and the last 1/1, every 0 <= a <= q <= L with q > 0, and
    consecutive pairs satisfy a' q - a q' = 1 and q + q' > L.

    One numpy pass in int64; orders of 2^31 and more are refused, so that
    with every value bounded by L no product overflows."""
    L = seq.order
    if not 1 <= L < 2**31 or len(seq.numerators) < 2 \
            or len(seq.numerators) != len(seq.denominators):
        return False
    a = np.asarray(seq.numerators, dtype=np.int64)
    q = np.asarray(seq.denominators, dtype=np.int64)
    if not (a[0] == 0 and q[0] == 1 and a[-1] == 1 and q[-1] == 1):
        return False
    if not ((q > 0).all() and (q <= L).all() and (a >= 0).all() and (a <= q).all()):
        return False
    return bool((a[1:] * q[:-1] - a[:-1] * q[1:] == 1).all()
                and (q[:-1] + q[1:] > L).all())


class MajorArcs(Sequence):
    """The exact partition of [0,1] owned by the fractions of a
    FareySequence, read-only: it keeps the sequence alone, and builds each
    MajorArc from its integer pairs when it is read.

    Arc i is owned by a_i/q_i.  Its interior ends are the mediants
    (a_{i-1} + a_i)/(q_{i-1} + q_i) and (a_i + a_{i+1})/(q_i + q_{i+1}), and
    its weights alpha = L/(q_i + q_{i+1}) and beta = L/(q_{i-1} + q_i); the
    end fractions 0/1 and 1/1 both take the weight L/(1 + L).  Indexing
    takes negative indices and slices (a slice is a list of arcs).
    """

    __slots__ = ("seq",)

    def __init__(self, seq: FareySequence):
        self.seq = seq

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._arc(j) for j in range(*i.indices(len(self)))]
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"arc index {i} out of range for {n} arcs")
        return self._arc(i % n)

    def __iter__(self) -> Iterator[MajorArc]:
        return map(self._arc, range(len(self)))

    def _arc(self, i: int) -> MajorArc:
        L, nums, dens = self.seq.order, self.seq.numerators, self.seq.denominators
        a, q, last = nums[i], dens[i], len(nums) - 1
        left = Fraction(nums[i - 1] + a, dens[i - 1] + q) if i > 0 else Fraction(0, 1)
        right = Fraction(a + nums[i + 1], q + dens[i + 1]) if i < last else Fraction(1, 1)
        if 0 < i < last:
            alpha, beta = Fraction(L, q + dens[i + 1]), Fraction(L, dens[i - 1] + q)
        else:
            alpha = beta = Fraction(L, 1 + L)
        return MajorArc(center=Fraction(a, q), left=left, right=right, alpha=alpha,
                        beta=beta, order=L, closed_right=i == last)


def major_arcs(seq: FareySequence) -> MajorArcs:
    """The exact partition of [0,1] owned by the fractions of seq, as a
    MajorArcs: each arc is built from the integer pairs when it is read."""
    return MajorArcs(seq)


def verify_partition(arcs: Sequence[MajorArc]) -> bool:
    """True iff the arcs tile [0,1] exactly.

    A MajorArcs is certified on its integer pairs (farey_certificate), with
    no Fraction built.  Any other sequence of arcs is walked once on its
    exact endpoints: consecutive endpoints agree, the first starts at 0 and
    the last ends at 1, closed."""
    if isinstance(arcs, MajorArcs):
        return farey_certificate(arcs.seq)
    if arcs[0].left != 0 or arcs[-1].right != 1 or not arcs[-1].closed_right:
        return False
    return all(prev.right == cur.left and not prev.closed_right
               for prev, cur in pairwise(arcs))


def locate_arc(s, arcs: Sequence[MajorArc]) -> tuple[Fraction, Fraction]:
    """Find the arc owning s in [0,1]; return (center, t) with t = s - center.

    s may be a Fraction, int, or float (floats are converted exactly).
    Binary search over left endpoints: on a MajorArcs over its integer
    mediants, building only the arc it returns, and on any other sequence
    over the arcs' left ends.  |t| < 1/(q L) always holds because both
    interval weights are < 1.
    """
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise ValueError(f"s must lie in [0,1], got {s}")
    if isinstance(arcs, MajorArcs):
        i = _last_left_at_most(arcs.seq, s)
    else:
        i = bisect_right(arcs, s, key=attrgetter("left")) - 1
    arc = arcs[i]
    if not arc.contains(s):
        raise AssertionError(f"partition lookup failed for s={s}")
    return arc.center, s - arc.center


def _last_left_at_most(seq: FareySequence, s: Fraction) -> int:
    """The last arc index i whose left end is <= s: arc 0 starts at 0, and
    arc i > 0 at the mediant (a_{i-1} + a_i)/(q_{i-1} + q_i), compared with
    s = n/m by cross-multiplying (both denominators are positive)."""
    nums, dens = seq.numerators, seq.denominators
    n, m = s.numerator, s.denominator
    lo, hi = 0, len(nums) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if m * (nums[mid - 1] + nums[mid]) <= n * (dens[mid - 1] + dens[mid]):
            lo = mid
        else:
            hi = mid - 1
    return lo
