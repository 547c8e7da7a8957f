"""Normalized quadratic exponential sums: the coordinate factorization is
checked against direct O(q^d) summation, and the shift transform against a
hand-rolled transform of the raw values."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab import gauss
from spherelab.errors import BudgetExceededError
from spherelab.gauss import (
    gauss_dft,
    gauss_magnitude_bound,
    gauss_sum,
    gauss_sum_1d,
    gauss_sum_1d_all,
    gauss_sum_1d_all_a,
)


def test_pinned_one_dim_values():
    assert gauss_sum_1d(1, 1, 0) == 1
    assert abs(gauss_sum_1d(1, 2, 0)) < 1e-15
    assert abs(gauss_sum_1d(1, 3, 0) - 1j / math.sqrt(3)) < 1e-15


def test_pinned_product_values():
    assert abs(gauss_sum(1, 3, (0, 0)) - (-1 / 3)) < 1e-15
    assert abs(abs(gauss_sum(2, 3, (1, 0, 0, 0, 0))) - 3**-2.5) < 1e-15


def _direct_sum(a, q, l):
    total = 0j
    for n in product(range(q), repeat=len(l)):
        phase = sum(x * x for x in n) * a + sum(x * y for x, y in zip(n, l))
        total += np.exp(2j * np.pi * (phase % q) / q)
    return total / q ** len(l)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12])
def test_factorization_matches_direct(q):
    rng = np.random.default_rng(q)
    coprime = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
    for a in coprime[:4]:
        for d in (1, 2, 3):
            l = tuple(int(v) for v in rng.integers(0, q, size=d))
            assert abs(gauss_sum(a, q, l) - _direct_sum(a, q, l)) < 1e-13


@given(q=st.integers(1, 200), data=st.data())
@settings(max_examples=60, deadline=None)
def test_magnitude_envelope(q, data):
    coprime = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
    a = data.draw(st.sampled_from(coprime))
    l = data.draw(st.integers(0, q - 1))
    mag = abs(gauss_sum_1d(a, q, l))
    assert mag <= math.sqrt(2.0 / q) + 1e-12
    if q % 2 == 1:
        # odd modulus: the magnitude is exactly q^{-1/2} for every shift
        assert abs(mag - q**-0.5) < 1e-12


@given(q=st.integers(1, 64), l=st.integers(-10_000, 10_000))
@settings(max_examples=60, deadline=None)
def test_all_a_table_matches_direct_sums(q, l):
    # both FFT tables, over every a and over every shift, against direct sums
    table = gauss_sum_1d_all_a(q, l)
    assert table.shape == (q,)
    for a in range(q):
        if math.gcd(a, q) == 1:
            direct = gauss_sum_1d(a, q, l)
            assert abs(table[a] - direct) < 1e-13
            assert abs(gauss_sum_1d_all(a, q)[l % q] - direct) < 1e-13


def _jacobi(a, q):
    """Jacobi symbol (a/q) for odd q >= 1, by quadratic reciprocity."""
    a, sign = a % q, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if q % 8 in (3, 5):
                sign = -sign
        a, q = q, a
        if a % 4 == 3 and q % 4 == 3:
            sign = -sign
        a %= q
    return sign if q == 1 else 0


def _odd_closed_form(a, q, l):
    """Odd q: G(a/q, l) = eps_q (a/q) q^{-1/2} e(-inv(4a) l^2 / q), with
    eps_q = 1 or i as q = 1 or 3 mod 4 (Berndt-Evans-Williams, ch. 1)."""
    eps = 1 if q % 4 == 1 else 1j
    phase = pow(4 * a, -1, q) * (l * l % q) % q
    return eps * _jacobi(a, q) / math.sqrt(q) * np.exp(-2j * np.pi * phase / q)


def _two_power_closed_form(c, k, l):
    """q = 2^k, c odd: G(c/q, l) is 1 at k = 0, and at k = 1 it is 1 for odd
    l and 0 for even l.  For k >= 2, n -> n + 2^(k-1) flips its sign at odd
    l, so it vanishes there; at even l, completing the square gives
    (1 + i^c) (2/c)^k 2^(-k/2) e(-inv(c) (l/2)^2 / q)
    (Berndt-Evans-Williams, ch. 1)."""
    l = np.asarray(l)
    if k == 0:
        return np.ones(l.shape)
    if k == 1:
        return (l % 2).astype(complex)
    q = 2 ** k
    half = (l // 2) % q
    phase = pow(c, -1, q) * (half * half % q) % q
    even = ((1, 1j, -1, -1j)[c % 4] + 1) * _jacobi(2, c) ** k / 2 ** (k / 2) \
        * np.exp(-2j * np.pi * phase / q)
    return np.where(l % 2 == 0, even, 0.0)


def _closed_form(a, q, l):
    """G(a/q, l) in closed form for every q.  With q = 2^k m, m odd, the
    CRT substitution n = m u + 2^k v splits the sum as
    G(a/q, l) = G(a m / 2^k, l) G(a 2^k / m, l).
    Shares no code with the three summation routes."""
    k = (q & -q).bit_length() - 1
    m = q >> k
    return (_two_power_closed_form(a * m % 2 ** k, k, l)
            * _odd_closed_form(a * 2 ** k % m, m, l))


@pytest.mark.parametrize("q", range(1, 100, 2))
def test_closed_form_matches_every_summation_route(q):
    shifts = np.arange(q)
    closed = {a: _closed_form(a, q, shifts) for a in range(q) if math.gcd(a, q) == 1}
    for a, want in closed.items():
        assert np.abs(gauss_sum_1d_all(a, q) - want).max() < 1e-12
        for l in {0, 1 % q, q // 2, q - 1}:
            assert abs(gauss_sum_1d(a, q, l) - want[l]) < 1e-12
    for l in range(q):
        table = gauss_sum_1d_all_a(q, l)
        assert max(abs(table[a] - want[l]) for a, want in closed.items()) < 1e-12


@pytest.mark.parametrize("q", range(2, 130, 2))
def test_even_closed_form_matches_every_summation_route(q):
    # the 2-part split off by the CRT, at every even q < 130: 2^k up to 64,
    # and q = 2^k m with k = 1..6
    test_closed_form_matches_every_summation_route(q)


def test_envelope_saturated_mod_four():
    mags = np.abs(gauss_sum_1d_all(1, 4))
    assert abs(mags.max() - math.sqrt(2.0 / 4)) < 1e-12


def test_magnitude_bound_values():
    assert gauss_magnitude_bound(1, 5) == 2**2.5
    assert abs(gauss_magnitude_bound(3, 5) - 2**2.5 * 3**-2.5) < 1e-15


@pytest.mark.parametrize("a,q", [(1, 5), (3, 7), (5, 12)])
def test_periodicity_in_shift(a, q):
    for l in range(q):
        assert abs(gauss_sum_1d(a, q, l) - gauss_sum_1d(a, q, l + q)) < 1e-15


def test_dft_phase_values():
    assert abs(gauss_dft(1, 3, (2,)) - np.exp(2j * np.pi / 3)) < 1e-12
    assert abs(gauss_dft(1, 1, (0, 0)) - 1) < 1e-15
    val = gauss_dft(3, 7, (1, 1, 1, 1, 1))
    assert abs(val - np.exp(2j * np.pi / 7)) < 1e-12
    assert abs(abs(val) - 1.0) < 1e-12


def test_dft_identity_brute_force():
    # transform the raw normalized sums by hand; the result must collapse
    # to a single unit phase determined by |k|^2 a / q
    for q, a in ((4, 3), (6, 5), (9, 2)):
        shifts = list(product(range(q), repeat=2))
        g = [gauss_sum(a, q, l) for l in shifts]
        for k in ((0, 1), (2, 3)):
            acc = sum(
                gv * np.exp(2j * np.pi * ((k[0] * l1 + k[1] * l2) % q) / q)
                for gv, (l1, l2) in zip(g, shifts)
            )
            norm_sq = k[0] * k[0] + k[1] * k[1]
            expected = np.exp(2j * np.pi * ((norm_sq % q) * (a % q) % q) / q)
            assert abs(acc - expected) < 1e-10


def test_rejects_non_reduced():
    with pytest.raises(ValueError):
        gauss_sum_1d(2, 4, 0)
    with pytest.raises(ValueError):
        gauss_dft(3, 9, (1,))


@pytest.mark.parametrize("q", [4097, 20_000])
def test_all_shift_table_budget_checked_before_allocation(q):
    # one length-q FFT stays inside an 8 MiB budget, where a q x q phase
    # matrix would not (6.4 GB at q = 20000)
    assert 16 * q * q > 8 << 20
    tracemalloc.start()
    try:
        table = gauss_sum_1d_all(1, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    for l in (0, 1, 7, 2_345, q - 1):
        assert abs(table[l] - gauss_sum_1d(1, q, l)) < 1e-13


@pytest.mark.parametrize("a, q", [(0, 1), (1, 2), (3, 4), (2, 7), (7, 60), (5, 701)])
def test_shift_row_is_a_cached_read_only_fft(a, q):
    n = np.arange(q, dtype=np.int64)
    fresh = np.fft.ifft(np.exp(2j * np.pi * ((n * n % q) * a % q) / q))
    row = gauss_sum_1d_all(a, q)
    assert np.array_equal(row, fresh)
    # one row per residue a mod q, shared between callers
    assert gauss_sum_1d_all(a + 7 * q, q) is row
    assert gauss_sum_1d_all(a - 3 * q, q) is row
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        row *= 2.0


def test_shift_row_checks_coprimality_before_its_cache():
    gauss_sum_1d_all(1, 4)
    for a, q in [(2, 4), (6, 4), (-2, 4), (3, 9), (1, 0)]:
        with pytest.raises(ValueError):
            gauss_sum_1d_all(a, q)


@pytest.mark.parametrize("call", [lambda q: gauss_sum_1d(1, q, 0),
                                  lambda q: gauss_sum_1d_all(1, q),
                                  lambda q: gauss_sum_1d_all_a(q, 0),
                                  lambda q: gauss_sum(1, q, (0,) * 5)],
                         ids=["1d", "all_shift", "all_a", "d5"])
def test_a_modulus_over_the_point_budget_is_refused_before_allocation(call):
    # q = 5,000,001: each length-q array would take 40-80 MB
    q = 5_000_001
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match=f"^modulus q={q} needs arrays of {q} entries, "
                                 f"over the budget of 5000000$"):
            call(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_cached_gauss_row_is_not_checked_again(monkeypatch):
    # the row builders check q on a cache miss only
    gauss.gauss_sum_1d_all(3, 7)
    gauss.gauss_sum_1d_all_a(7, 2)
    checked = []
    monkeypatch.setattr(gauss, "check_budget", lambda *args: checked.append(args))
    gauss.gauss_sum_1d_all(3, 7)
    gauss.gauss_sum_1d_all_a(7, 2)
    assert checked == []
    gauss.gauss_sum_1d(3, 7, 1)
    assert len(checked) == 1
