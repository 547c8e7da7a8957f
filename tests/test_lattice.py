"""Representation counts and shell enumeration, checked against a
brute-force box oracle that scores every lattice point in a cube, Jacobi's
four-square formula and a plain integer convolution; the twisted shell-sum
table, checked against sums over enumerated shells."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherelab.arcs import exact_multiplier
from spherelab.errors import BudgetExceededError
from spherelab.lattice import (DEFAULT_POINT_BUDGET, _kept_shell, box_counts_oracle,
                               rep_count, rep_counts, shell_dtype, sphere_shell,
                               twisted_counts)


def test_one_dimensional_counts():
    assert rep_counts(1, 9) == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)


def test_five_dimensional_counts_start():
    assert rep_counts(5, 6) == (1, 10, 40, 80, 90, 112, 240)


def test_two_squares_at_25():
    assert rep_counts(2, 25)[25] == 12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_counts_match_box_oracle(d):
    max_k = 60 if d < 5 else 40
    assert list(rep_counts(d, max_k)) == box_counts_oracle(d, max_k)


def test_growth_band_d5():
    # counts grow like k^{3/2}; the normalized ratio stays in a fixed
    # multiplicative band (measured spread is about 2.8, asserted at 50)
    counts = rep_counts(5, 200)
    ratios = [counts[k] / k**1.5 for k in range(10, 201)]
    assert max(ratios) / min(ratios) < 50.0


def _divisor_sums(n):
    sigma = [0] * (n + 1)
    for q in range(1, n + 1):
        for m in range(q, n + 1, q):
            sigma[m] += q
    return sigma


def test_four_square_counts_follow_jacobi():
    # r_4(k) = 8 sigma(k) - 32 sigma(k/4), with sigma(k/4) = 0 unless 4 | k
    sigma = _divisor_sums(2000)
    jacobi = [1] + [8 * sigma[k] - (32 * sigma[k // 4] if k % 4 == 0 else 0)
                    for k in range(1, 2001)]
    assert list(rep_counts(4, 2000)) == jacobi


@pytest.mark.parametrize("d", [1, 2, 3, 5, 20])
def test_rep_count_is_the_table_entry(d):
    table = rep_counts(d, 60)
    assert [rep_count(d, k) for k in range(61)] == list(table)


def test_counts_stay_exact_beyond_float_precision():
    # a plain Python-int convolution of theta(z)^20; its counts pass 2^53
    max_k = 200
    theta = [0] * (max_k + 1)
    theta[0] = 1
    for j in range(1, math.isqrt(max_k) + 1):
        theta[j * j] = 2
    ref = [1] + [0] * max_k
    for _ in range(20):
        ref = [sum(ref[i] * theta[k - i] for i in range(k + 1)) for k in range(max_k + 1)]
    counts = rep_counts(20, max_k)
    assert max(ref) > 2 ** 53
    assert list(counts) == ref
    assert all(type(c) is int for c in counts)


def test_shell_origin():
    assert sphere_shell(2, 0).points.tolist() == [[0, 0]]


def test_shell_two_dim_25():
    shell = sphere_shell(2, 25)
    pts = set(map(tuple, shell.points.tolist()))
    assert shell.count == 12
    assert {(3, 4), (-3, 4), (5, 0), (0, -5)} <= pts


def test_shell_unit_vectors_d5():
    shell = sphere_shell(5, 1)
    assert shell.count == 10
    # every point is a signed standard basis vector
    assert int(np.abs(shell.points).sum(axis=1).max()) == 1
    assert int(np.abs(shell.points).max()) == 1


def test_shell_lexicographic_order():
    pts = sphere_shell(3, 9).points.tolist()
    assert pts == sorted(pts)


def test_shell_signed_permutation_closure():
    pts = set(map(tuple, sphere_shell(3, 14).points.tolist()))
    for p in list(pts):
        for flips in itertools.product((-1, 1), repeat=3):
            flipped = tuple(f * c for f, c in zip(flips, p))
            for perm in itertools.permutations(flipped):
                assert perm in pts


@pytest.mark.parametrize("k, dtype", [(0, np.int8), (127, np.int8), (128, np.int16),
                                      (32_767, np.int16), (32_768, np.int32),
                                      (2 ** 31 - 1, np.int32), (2 ** 31, np.int64)])
def test_shell_dtype_is_the_smallest_signed_one_that_holds_k(k, dtype):
    # rep_counts' budget refuses every shell with k >= 29,241 (d = 1), so
    # the 32,767 / 32,768 boundary is reached by shell_dtype alone
    assert shell_dtype(k) == np.dtype(dtype)


@pytest.mark.parametrize("d, k", [(1, 121), (1, 144), (2, 125), (2, 127), (2, 128),
                                  (2, 130), (3, 126), (3, 129), (4, 128)])
def test_shell_points_match_an_int64_enumeration(d, k):
    shell = sphere_shell(d, k)
    assert shell.points.dtype == shell_dtype(k)
    r = math.isqrt(k)
    box = np.array(list(itertools.product(range(-r, r + 1), repeat=d)), dtype=np.int64)
    expected = box[(box ** 2).sum(axis=1) == k]     # product order is lexicographic
    assert shell.points.shape == expected.shape
    assert (shell.points.astype(np.int64) == expected).all()
    # squares stay in the narrow dtype; the row sums promote to int64
    assert ((shell.points ** 2).sum(axis=1) == k).all()


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        sphere_shell(5, 100, point_budget=10)


def _box_shell(d, k):
    """Every point of the box [-isqrt(k), isqrt(k)]^d with |m|^2 = k, in
    the box's row-major order, which is lexicographic."""
    line = np.arange(-math.isqrt(k), math.isqrt(k) + 1, dtype=np.int64)
    box = np.stack(np.meshgrid(*[line] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return box[(box * box).sum(axis=1) == k]


@pytest.mark.parametrize("d, ks", [(1, range(0, 131)), (2, range(0, 131)),
                                   (3, range(0, 131)), (4, range(0, 61)),
                                   (5, (0, 1, 3, 7, 16, 25, 30))])
def test_shell_is_the_box_filtered_to_the_sphere(d, ks):
    # the enumeration against a brute-force filter of the box: the same
    # points in the same order, in shell_dtype(k)
    for k in ks:
        shell = sphere_shell(d, k)
        assert shell.points.dtype == shell_dtype(k), k
        assert shell.points.shape == (rep_count(d, k), d), k
        assert np.array_equal(shell.points, _box_shell(d, k)), k


def test_cold_shell_peak_stays_below_the_recursive_enumeration():
    # a cold (5, 400) shell of 88,330 points peaked at 12.7 MB when it was
    # built as Python tuples; built a first coordinate at a time, about 2 MB
    rep_count(5, 400)  # the count table is not the enumeration's
    _kept_shell.cache_clear()
    assert _peak_bytes(lambda: sphere_shell(5, 400)) <= 12_700_000


@given(d=st.integers(2, 4), k=st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_shell_matches_count_and_norm(d, k):
    shell = sphere_shell(d, k)
    assert shell.count == rep_counts(d, k)[k]
    if shell.count:
        norms = (shell.points.astype(np.int64) ** 2).sum(axis=1)
        assert norms.tolist() == [k] * shell.count


@st.composite
def _frequencies(draw, d):
    """1-4 rows of xi in [0, 1)^d, uniform or with denominators up to 12."""
    rows = draw(st.integers(1, 4), label="rows")
    if draw(st.booleans(), label="rational"):
        q = draw(st.integers(1, 12), label="q")
        return np.array([[draw(st.integers(0, q - 1)) / q for _ in range(d)]
                         for _ in range(rows)])
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return np.random.default_rng(seed).uniform(0.0, 1.0, (rows, d))


@given(d=st.integers(1, 6), data=st.data())
@settings(max_examples=40, deadline=None)
def test_twisted_counts_match_enumerated_shell_sums(d, data):
    max_k = data.draw(st.integers(0, 100 if d <= 3 else 40), label="max_k")
    xis = data.draw(_frequencies(d), label="xis")
    table = twisted_counts(xis, max_k)
    assert table.shape == (len(xis), max_k + 1)
    counts = rep_counts(d, max_k)
    for k in range(max_k + 1):
        if counts[k] == 0:
            assert np.abs(table[:, k]).max() == 0.0
            continue
        shell = sphere_shell(d, k)
        exact = np.array([exact_multiplier(shell, xi) for xi in xis])
        assert np.abs(table[:, k] / counts[k] - exact).max() <= 1e-12, k


def test_twisted_counts_at_zero_are_the_rep_counts():
    table = twisted_counts(np.zeros((1, 5)), 400)
    assert np.array_equal(table[0], np.array(rep_counts(5, 400), dtype=float))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_twisted_counts_budget_checked_before_allocation():
    # 50,001 rows x 100 shells is just over the budget: the table would be
    # 40 MB, the refusal allocates almost nothing
    rows = DEFAULT_POINT_BUDGET // 100 + 1
    xis = np.zeros((rows, 5))

    def call():
        with pytest.raises(BudgetExceededError, match=f"{rows} rows x 100 shells"):
            twisted_counts(xis, 99)

    assert _peak_bytes(call) < 100_000


@pytest.mark.parametrize("d, max_k", [(5, 10_000), (1, 10**12), (5, 10**7)])
def test_rep_counts_budget_checked_before_allocation(d, max_k):
    # d * isqrt(K) * (K + 1) theta-product terms: at d = 5, K = 10,000 that
    # is 5,000,500, just over the budget; the refusal allocates almost nothing
    terms = d * math.isqrt(max_k) * (max_k + 1)
    assert terms > DEFAULT_POINT_BUDGET

    def call():
        with pytest.raises(BudgetExceededError, match=f"{terms} theta-product terms"):
            rep_counts(d, max_k)

    assert _peak_bytes(call) < 100_000


def test_rep_counts_within_the_budget_at_its_edge():
    # d = 5, K = 9,999 is 4,950,000 terms: under the budget, and exact
    assert 5 * math.isqrt(9_999) * 10_000 <= DEFAULT_POINT_BUDGET
    assert rep_counts(5, 9_999)[:7] == (1, 10, 40, 80, 90, 112, 240)


def test_twisted_counts_reject_a_negative_max_k_by_name():
    xis = np.zeros((DEFAULT_POINT_BUDGET // 10, 5))

    def call():
        with pytest.raises(ValueError, match="max_k must be >= 0, got -1"):
            twisted_counts(xis, -1)

    assert _peak_bytes(call) < 100_000
