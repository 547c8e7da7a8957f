"""The objects that are cached and shared between callers: the sphere shell
memo, the Gauss rows over every a, the unit phases of approx_total and the
batched j_main that approx_total reads them with.  A shared object must be
read-only, and a cache must not let a call skip a check it would make
uncached."""

import numpy as np
import pytest

from spherelab import lattice
from spherelab.arcs import _unit_phases
from spherelab.errors import BudgetExceededError
from spherelab.gauss import gauss_sum_1d, gauss_sum_1d_all_a
from spherelab.lattice import (DEFAULT_POINT_BUDGET, SHELL_MEMO_ENTRIES,
                               SHELL_MEMO_MAX_POINTS, rep_count, sphere_shell)
from spherelab.sphere import j_main


def test_repeat_shell_call_still_checks_the_budget():
    shell = sphere_shell(5, 100)
    assert shell.count > 10
    with pytest.raises(BudgetExceededError, match="budget is 10"):
        sphere_shell(5, 100, point_budget=10)
    assert sphere_shell(5, 100, point_budget=shell.count) is shell


def test_shell_is_shared_and_read_only():
    shell = sphere_shell(5, 36)
    assert sphere_shell(5, 36) is shell
    with pytest.raises(ValueError, match="read-only"):
        shell.points[0, 0] = 7
    assert ((shell.points ** 2).sum(axis=1) == 36).all()


def test_memo_holds_at_most_one_point_budget():
    assert SHELL_MEMO_MAX_POINTS == DEFAULT_POINT_BUDGET // SHELL_MEMO_ENTRIES == 78_125
    assert lattice._kept_shell.cache_info().maxsize == SHELL_MEMO_ENTRIES


def test_shell_over_the_size_limit_is_not_kept():
    d, k = 6, 67
    assert rep_count(d, k) > SHELL_MEMO_MAX_POINTS
    kept = lattice._kept_shell.cache_info().currsize
    first, second = sphere_shell(d, k), sphere_shell(d, k)
    assert first is not second
    assert np.array_equal(first.points, second.points)
    assert first.count == rep_count(d, k)
    assert not first.points.flags.writeable
    assert lattice._kept_shell.cache_info().currsize == kept


@pytest.mark.parametrize("q, l", [(1, 0), (7, 3), (12, 5), (30, 29), (701, 400)])
def test_gauss_row_is_shared_per_residue(q, l):
    row = gauss_sum_1d_all_a(q, l)
    for shift in (l + 7 * q, l - 3 * q):
        again = gauss_sum_1d_all_a(q, shift)
        assert np.array_equal(again, row)
        assert again is row
    a = 1 if q > 1 else 0
    assert abs(row[a] - gauss_sum_1d(a, q, l)) < 1e-12


def test_gauss_row_is_read_only():
    row = gauss_sum_1d_all_a(13, 4)
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        row *= 2.0


def test_unit_phases_vanish_off_the_units_and_are_read_only():
    phases = _unit_phases(12, 5)
    units = [1, 5, 7, 11]
    expected = np.zeros(12, dtype=complex)
    expected[units] = np.exp(-2j * np.pi * (5 * np.array(units) % 12) / 12)
    assert np.array_equal(phases, expected)
    with pytest.raises(ValueError, match="read-only"):
        phases[1] = 0.0


@pytest.mark.parametrize("d, k", [(3, 2), (4, 4), (5, 225), (6, 50)])
def test_batched_j_main_equals_the_scalar_calls(d, k):
    # row 0 is xi = 0 (the power series), then points inside the series
    # cutoff, generic points, and rows with |xi| up to 40 (closed form or
    # Bessel function far out)
    rng = np.random.default_rng(d * 1000 + k)
    xis = np.vstack([np.zeros(d),
                     rng.uniform(-1e-3, 1e-3, (3, d)),
                     rng.uniform(-0.5, 0.5, (6, d)),
                     rng.uniform(-40.0, 40.0, (6, d))])
    batch = j_main(d, k, xis)
    assert batch.shape == (len(xis),)
    scalar = [j_main(d, k, xi) for xi in xis]
    assert all(isinstance(v, float) for v in scalar)
    assert np.array_equal(batch, scalar)
    assert j_main(d, k, np.zeros((0, d))).shape == (0,)
