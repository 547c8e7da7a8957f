"""Exact lattice combinatorics: sums of squares and integer sphere shells.

Counts are ordered, signed representations: r_d(k) is the number of
m in Z^d with m_1^2 + ... + m_d^2 = k.  One truncated theta product,
_theta_product, gives both tables: rep_counts carries it in Python ints,
so its counts are exact at every size (rep_count caches one of them), and
twisted_counts in floats with a cosine twist per axis, to give the shell
exponential sums without enumerating a shell.  box_counts_oracle scores
every point of a box and is the independent oracle of the counts.

sphere_shell checks the exact count against its point budget on every
call, then hands out one shared SphereShell per (d, k) with read-only
points in shell_dtype(k), the smallest signed integer dtype that holds k;
_enumerate_shell builds them as arrays in it, a first coordinate at a time.
The memo keeps at most SHELL_MEMO_ENTRIES shells of at most
SHELL_MEMO_MAX_POINTS points each, so at most DEFAULT_POINT_BUDGET points
in all; a larger shell is enumerated on every call and not kept.  The
budget of rep_counts keeps k below 32,768, so points are int8 or int16,
and the memo holds at most 50 MB of them at d = 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError

DEFAULT_POINT_BUDGET = 5_000_000
SHELL_MEMO_ENTRIES = 64
SHELL_MEMO_MAX_POINTS = DEFAULT_POINT_BUDGET // SHELL_MEMO_ENTRIES


def check_budget(count, what: str, budget=None):
    """Refuse count (NaN and inf too) over budget, by default DEFAULT_POINT_BUDGET
    read at call time, by BudgetExceededError "<what>, over the budget of
    <budget>", what stating the count.  Returns the budget, to size blocks by."""
    if budget is None:
        budget = DEFAULT_POINT_BUDGET
    if not count <= budget:
        raise BudgetExceededError(f"{what}, over the budget of {budget}")
    return budget


@dataclass(frozen=True)
class SphereShell:
    """All integer points on the sphere |m|^2 = k in Z^d, lexicographic order."""

    dimension: int
    k: int
    points: np.ndarray  # shape (count, d), dtype shell_dtype(k)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def check_nonempty(self) -> None:
        """Raise a ValueError naming k when no point lies on the shell."""
        if self.count == 0:
            raise ValueError(f"empty shell: no lattice points with |m|^2 = {self.k}")


def shell_dtype(k: int) -> np.dtype:
    """The smallest signed integer dtype that holds k: int8 up to 127,
    int16 up to 32,767, and so on (the one that holds -k - 1).  Every
    coordinate m_i of a point on the shell |m|^2 = k has m_i^2 <= k, so it
    squares without overflow, and a sum over the coordinates promotes to int64."""
    return np.min_scalar_type(-k - 1)


def _theta_product(coefs: np.ndarray, max_k: int) -> np.ndarray:
    """Coefficients of z^0..z^max_k in prod_i (1 + sum_{j>=1} c_ij z^{j^2})
    at each row: coefs is (rows, d, isqrt(max_k)) and the (rows, max_k + 1)
    table takes its dtype.  The product is truncated at z^max_k, one
    shift-and-add over all rows per square j^2 <= max_k and axis:
    O(d * rows * max_k^{3/2}).
    """
    rows, d, _ = coefs.shape
    roots = np.arange(1, math.isqrt(max_k) + 1)
    table = np.zeros((rows, max_k + 1), dtype=coefs.dtype)
    table[:, 0] = 1
    table[:, roots ** 2] = coefs[:, 0]
    for axis in range(1, d):
        prev = table.copy()  # the j = 0 term of the factor
        for j, coef in zip(roots, coefs[:, axis].T):
            table[:, j * j:] += coef[:, None] * prev[:, :max_k + 1 - j * j]
    return table


def rep_counts(d: int, max_k: int) -> tuple[int, ...]:
    """r_d(k) for k = 0..max_k: ordered representations as sums of d signed
    squares, as exact Python ints.

    The z^k coefficients of theta(z)^d, theta(z) = 1 + 2 sum_{j>=1} z^{j^2},
    from _theta_product on Python-int coefficients: exact at every size.
    Its d * isqrt(max_k) * (max_k + 1) shift-and-add terms are checked
    against DEFAULT_POINT_BUDGET before anything is allocated.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    terms = d * math.isqrt(max_k) * (max_k + 1)
    check_budget(terms, f"r_{d}(k) for k <= {max_k} takes {terms} theta-product terms")
    twos = np.full((1, d, math.isqrt(max_k)), 2, dtype=object)
    return tuple(_theta_product(twos, max_k)[0])


@lru_cache(maxsize=None)
def rep_count(d: int, k: int) -> int:
    """r_d(k) alone, the last entry of rep_counts(d, k), cached per (d, k)."""
    return rep_counts(d, k)[k]


def twisted_counts(xis, max_k: int) -> np.ndarray:
    """Shell sums S_k(xi) = sum_{|m|^2 = k} e(m . xi), k = 0..max_k, at each
    row xi of xis: a (rows, max_k + 1) float table, real by symmetry.

    S_k(xi) is the z^k coefficient of prod_i (1 + 2 sum_{j>=1} cos(2 pi j
    xi_i) z^{j^2}), the generating function of rep_counts with a cosine
    twist (Grosswald, Representations of Integers as Sums of Squares),
    built by _theta_product, and no shell point is enumerated.  At xi = 0
    every term is an integer, so the table is rep_counts exactly.
    rows * (max_k + 1) is checked against DEFAULT_POINT_BUDGET before
    anything is allocated.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] < 1:
        raise ValueError(f"xis must be a (rows, d) array with d >= 1, got shape {xis.shape}")
    if max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    rows = len(xis)
    check_budget(rows * (max_k + 1), f"twisted table of {rows} rows x {max_k + 1} shells")
    roots = np.arange(1, math.isqrt(max_k) + 1)
    return _theta_product(2.0 * np.cos(2.0 * np.pi * xis[:, :, None] * roots), max_k)


def check_shell_budget(d: int, k: int, point_budget: int | None = None) -> int:
    """r_d(k), the shell's point count, refused over point_budget (None: the
    point budget)."""
    count = rep_count(d, k)
    check_budget(count, f"shell d={d}, k={k} has {count} points", point_budget)
    return count


def sphere_shell(d: int, k: int, point_budget: int | None = None) -> SphereShell:
    """The shell {m in Z^d : |m|^2 = k} in lexicographic order.

    The exact count is checked against point_budget (None: the point
    budget) on every call, before any enumeration and before the memo is
    consulted.  Shells of at most
    SHELL_MEMO_MAX_POINTS points are enumerated once and kept, the last
    SHELL_MEMO_ENTRIES of them, so one (d, k) gives the same shared object
    each time; its points are read-only.
    """
    if check_shell_budget(d, k, point_budget) > SHELL_MEMO_MAX_POINTS:
        return _enumerate_shell(d, k)
    return _kept_shell(d, k)


def _enumerate_shell(d: int, k: int) -> SphereShell:
    """One first coordinate at a time (the prefixes stay in one slice of the
    ball), grown axis by axis in row-major order; a square remainder r^2 on
    the last axis gives -r, then r (0 once), so the rows need no sort."""
    dtype, s = shell_dtype(k), math.isqrt(k)
    line = np.arange(-s, s + 1, dtype=dtype)
    sq = line * line
    roots = np.full(k + 1, -1, dtype=dtype)  # r at r^2, -1 at a non-square
    roots[sq[s:]] = line[s:]
    starts = ([(line[m:m + 1, None], k - sq[m:m + 1]) for m in range(2 * s + 1)]
              if d > 1 else [(np.empty((1, 0), dtype), np.array([k], dtype))])
    blocks = []
    for prefix, rest in starts:
        for _ in range(d - 2):
            rows, cols = np.nonzero(sq <= rest[:, None])
            prefix = np.column_stack((prefix[rows], line[cols]))
            rest = rest[rows] - sq[cols]
        r = roots[rest]
        rows, cols = np.nonzero(np.column_stack((r >= 0, r > 0)))
        blocks.append(np.column_stack((prefix[rows], np.column_stack((-r, r))[rows, cols])))
    points = np.concatenate(blocks)
    if len(points) != rep_count(d, k):
        raise AssertionError(f"shell enumeration bug: found {len(points)} points, "
                             f"counted {rep_count(d, k)}")
    points.flags.writeable = False
    return SphereShell(dimension=d, k=k, points=points)


_kept_shell = lru_cache(maxsize=SHELL_MEMO_ENTRIES)(_enumerate_shell)


def box_counts_oracle(d: int, max_k: int) -> list[int]:
    """Brute-force oracle for rep_counts: score every point of the box
    [-sqrt(max_k), sqrt(max_k)]^d by its squared norm.  Exponential in d;
    intended for cross-checks at small d only."""
    r = math.isqrt(max_k)
    line = np.arange(-r, r + 1, dtype=np.int64) ** 2
    norms = line
    for _ in range(d - 1):
        norms = np.add.outer(norms, line).ravel()
    counts = np.bincount(norms[norms <= max_k], minlength=max_k + 1)
    return [int(c) for c in counts]
