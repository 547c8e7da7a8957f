"""Normalized quadratic Gauss sums over (Z/q)^d and their discrete Fourier transform.

The normalized sum is

    G(a/q, l) = q^{-d} sum_{n in (Z/q)^d} e((|n|^2 a + n.l)/q),   e(x) = exp(2 pi i x),

which factors over coordinates into one-dimensional sums.  Its magnitude is
at most (sqrt 2 / sqrt q)^d, with |G| = q^{-d/2} exactly when q is odd.  The
DFT over the shift l collapses to a single phase,

    sum_l e(k.l/q) G(a/q, l) = e(|k|^2 a / q),

which this module asserts at every evaluation (it is a strong correctness
check on the implementation).  gauss_sum_1d sums directly and is the
oracle; the tables over every shift (gauss_sum_1d_all) and over every a
(gauss_sum_1d_all_a) are each one length-q inverse FFT.  Both are kept in
LRU caches of GAUSS_ROWS rows each and returned read-only: the rows over
every shift keyed by (a mod q, q), after the coprimality check, each with
its largest magnitude beside it (gauss_row_max), and the rows over every a
by (q, l mod q).  A row is q complex numbers, 16 q bytes, so a cache of
rows with q <= 701 holds at most 11.5 MB.  All phase arguments are reduced
mod q in integer arithmetic before any floating multiply by 2 pi / q.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

REL_TOL_DFT = 1e-12
GAUSS_ROWS = 1024  # rows kept by each of the two row caches


def _check_coprime(a: int, q: int) -> None:
    if q < 1:
        raise ValueError(f"modulus q must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise ValueError(f"need gcd(a, q) = 1, got a={a}, q={q}")


def gauss_sum_1d_all(a: int, q: int) -> np.ndarray:
    """Vector of the 1-d normalized sums for every shift l = 0..q-1.

    numpy's inverse DFT is q^{-1} sum_n x_n e(l n / q), so one length-q
    ifft of the quadratic phases e(a n^2 / q) gives every shift at once.
    The row is cached per (a mod q, q), GAUSS_ROWS rows in all, and shared
    between callers, so it is read-only: copy it before writing.
    """
    _check_coprime(a, q)
    return _all_shift_row(a % q, q)[0]


def gauss_row_max(a: int, q: int) -> float:
    """max_l |G(a/q, l)| over the row of gauss_sum_1d_all, computed once
    per (a mod q, q) and cached beside the row."""
    _check_coprime(a, q)
    return _all_shift_row(a % q, q)[1]


@lru_cache(maxsize=GAUSS_ROWS)
def _all_shift_row(a: int, q: int) -> tuple[np.ndarray, float]:
    n = np.arange(q, dtype=np.int64)
    row = np.fft.ifft(np.exp(2j * np.pi * ((n * n % q) * a % q) / q))
    row.flags.writeable = False
    return row, float(np.abs(row).max())


def gauss_sum_1d_all_a(q: int, l: int) -> np.ndarray:
    """Vector of q^{-1} sum_n e((a n^2 + l n)/q) over every a = 0..q-1.

    The linear phases e(l n / q) are binned by the residue n^2 mod q, and
    one length-q inverse FFT sums the bins against e(a r / q) for all a at
    once: O(q log q) instead of O(q) per a.  Entries at a not coprime to q
    are computed too; the caller picks the units.  The row is cached per
    (q, l mod q), GAUSS_ROWS rows in all, and shared between callers, so
    it is read-only: copy it before writing.
    """
    if q < 1:
        raise ValueError(f"modulus q must be >= 1, got {q}")
    return _all_a_row(q, l % q)


@lru_cache(maxsize=GAUSS_ROWS)
def _all_a_row(q: int, l: int) -> np.ndarray:
    n = np.arange(q, dtype=np.int64)
    linear = np.exp(2j * np.pi * (l * n % q) / q)
    squares = n * n % q
    bins = (np.bincount(squares, weights=linear.real, minlength=q)
            + 1j * np.bincount(squares, weights=linear.imag, minlength=q))
    row = np.fft.ifft(bins)
    row.flags.writeable = False
    return row


def gauss_sum_1d(a: int, q: int, l: int) -> complex:
    """q^{-1} sum_n e((n^2 a + n l)/q)."""
    _check_coprime(a, q)
    n = np.arange(q, dtype=np.int64)
    args = ((n * n % q) * (a % q) + n * (l % q)) % q
    return complex(np.exp(2j * np.pi * args / q).mean())


def gauss_sum(a: int, q: int, l: tuple[int, ...]) -> complex:
    """Normalized d-dimensional sum, computed as the product of 1-d factors."""
    out = complex(1.0)
    for li in l:
        out *= gauss_sum_1d(a, q, li)
    return out


def gauss_magnitude_bound(q: int, d: int) -> float:
    """The envelope (sqrt 2)^d q^{-d/2}; tight only when 4 | q."""
    return 2.0 ** (d / 2) * q ** (-d / 2)


def gauss_dft(a: int, q: int, k: tuple[int, ...]) -> complex:
    """DFT of G(a/q, .) over shifts, evaluated at frequency k.

    Computed by direct summation (one 1-d DFT per coordinate, multiplied
    together) and asserted against the exact phase e(|k|^2 a / q) to
    within 1e-12.  A violation means a Gauss-sum implementation bug.
    """
    _check_coprime(a, q)
    g1 = gauss_sum_1d_all(a, q)
    l = np.arange(q, dtype=np.int64)
    value = complex(1.0)
    for ki in k:
        phases = np.exp(2j * np.pi * ((ki % q) * l % q) / q)
        value *= complex(phases @ g1)
    norm_sq = sum(int(ki) * int(ki) for ki in k)
    expected = np.exp(2j * np.pi * ((norm_sq % q) * (a % q) % q) / q)
    if abs(value - expected) > REL_TOL_DFT:
        raise ArithmeticError(
            f"Gauss DFT identity violated at a={a}, q={q}, k={k}: "
            f"|computed - phase| = {abs(value - expected):.3e}"
        )
    return value
