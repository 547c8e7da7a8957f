"""Damped lattice Gaussian multiplier: the truncated theta product and its
rational resummation are independent code paths, so their agreement is a
strong cross-check.  The classical theta transformation gives hand-computed
oracle values."""

import math
import tracemalloc

import numpy as np
import pytest

from spherelab import heat
from spherelab.errors import BudgetExceededError
from spherelab.heat import (
    HeatParams,
    heat_direct_batch,
    heat_multiplier_direct,
    heat_multiplier_poisson,
    on_arc,
)

THETA_AT_ONE = 1.0037348854877393  # sum over Z of exp(-2 pi m^2)


def test_one_dim_theta_value():
    oracle = sum(math.exp(-2 * math.pi * m * m) for m in range(-8, 9))
    assert abs(oracle - THETA_AT_ONE) < 1e-15
    hv = heat_multiplier_direct(HeatParams(eps=1.0, s=0.0), np.zeros(1))
    assert abs(hv.value - THETA_AT_ONE) < 1e-14
    assert hv.tail_bound < 1e-30


def test_theta_transformation_oracle():
    # (2 eps)^{-1/2} sum exp(-pi l^2 / (2 eps)) is the same number, and the
    # resummed code path reproduces it
    oracle = 2.0**-0.5 * sum(math.exp(-math.pi * l * l / 2.0) for l in range(-8, 9))
    assert abs(oracle - THETA_AT_ONE) < 1e-15
    pv = heat_multiplier_poisson(on_arc(1.0, 0, 1, 0.0), np.zeros(1))
    assert abs(pv.value - THETA_AT_ONE) < 1e-14


def test_product_structure():
    one = heat_multiplier_direct(HeatParams(eps=1.0, s=0.0), np.zeros(1)).value
    five = heat_multiplier_direct(HeatParams(eps=1.0, s=0.0), np.zeros(5)).value
    assert abs(five - one**5) < 1e-14


def test_strong_damping_limit():
    hv = heat_multiplier_direct(HeatParams(eps=50.0, s=0.0), np.zeros(5))
    assert abs(hv.value - 1.0) < 1e-10


@pytest.mark.parametrize(
    "eps,a,q,t",
    [(1.0, 0, 1, 0.0), (1.0 / 9.0, 1, 3, 0.02), (0.0625, 3, 4, -0.01), (0.04, 2, 5, 0.013)],
)
def test_direct_matches_poisson(eps, a, q, t):
    rng = np.random.default_rng(q * 7 + a)
    params = on_arc(eps, a, q, t)
    for _ in range(3):
        xi = rng.uniform(-0.5, 0.5, size=3)
        dv = heat_multiplier_direct(params, xi).value
        pv = heat_multiplier_poisson(params, xi).value
        assert abs(dv - pv) <= 1e-10 * max(1.0, abs(dv))


def test_batch_matches_pointwise():
    s_grid = np.array([0.0, 0.125, 1.0 / 3.0, 0.5, 0.777])
    xi = np.array([0.2, -0.1])
    batch = heat_direct_batch(0.2, s_grid, xi)
    assert batch.value.shape == s_grid.shape
    for s, v in zip(s_grid, batch.value):
        single = heat_multiplier_direct(HeatParams(eps=0.2, s=float(s)), xi)
        assert abs(v - single.value) < 1e-14


def test_tail_bound_covers_truncation():
    params = HeatParams(eps=0.05, s=0.3)
    xi = np.array([0.11, 0.42])
    loose = heat_multiplier_direct(params, xi, tol=1e-4)
    tight = heat_multiplier_direct(params, xi, tol=1e-14)
    assert tight.radius >= loose.radius
    assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound


def test_parameter_validation():
    with pytest.raises(ValueError):
        HeatParams(eps=0.0, s=0.0)
    with pytest.raises(ValueError):
        HeatParams(eps=1.0, s=0.9, a=1, q=2, t=0.0)  # 0.9 != 1/2 + 0
    with pytest.raises(ValueError):
        on_arc(1.0, 2, 4, 0.0)
    with pytest.raises(ValueError):
        heat_multiplier_poisson(HeatParams(eps=1.0, s=0.25), np.zeros(2))


def test_direct_form_names_a_zero_dimension():
    # refused before the radius is chosen, which divides by d
    for call in (lambda: heat_direct_batch(0.5, [0.1], np.zeros(0)),
                 lambda: heat_multiplier_direct(on_arc(0.5, 1, 3, 0.01), np.zeros(0))):
        with pytest.raises(ValueError, match="dimension d >= 1"):
            call()


def test_poisson_form_names_a_zero_dimension():
    with pytest.raises(ValueError, match="dimension d >= 1"):
        heat_multiplier_poisson(on_arc(0.5, 1, 3, 0.01), np.zeros(0))


def test_budget_refusal(monkeypatch):
    monkeypatch.setattr(heat, "DEFAULT_BOX_BUDGET", 5)
    with pytest.raises(BudgetExceededError):
        heat_multiplier_direct(HeatParams(eps=1e-4, s=0.0), np.zeros(3))


def _per_axis_oracle(eps, s_values, xi, tol):
    """The theta product one axis at a time, with every array rebuilt on each
    call: the independent oracle of heat_direct_batch's one-pass form."""
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[0]
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    r = heat._theta_radius(eps, tol, d)
    n = np.arange(-r, r + 1, dtype=np.int64)
    gauss = np.exp(-2.0 * np.pi * (n * n) * eps)
    quad = np.mod(np.outer(s_values, (n * n).astype(float)), 1.0)
    vals = np.ones(s_values.shape, dtype=complex)
    for i in range(d):
        lin = np.mod(n * xi[i], 1.0)
        phases = np.exp(2j * np.pi * (quad + lin[None, :]))
        vals *= (gauss[None, :] * phases).sum(axis=1)
    tail1 = heat._theta_tail(eps, r)
    bound = d * tail1 * (float(gauss.sum()) + tail1) ** (d - 1)
    return vals, bound, r


@pytest.mark.parametrize("d", range(1, 7))
def test_one_pass_matches_the_per_axis_oracle(d):
    # one s: bitwise, as every single-xi multiplier call sees it; many s:
    # within 1e-15 relative
    rng = np.random.default_rng(d)
    for _ in range(40):
        eps = float(np.exp(rng.uniform(math.log(1e-3), math.log(5.0))))
        tol = float(10.0 ** rng.uniform(-15, -4))
        xi = rng.uniform(-0.7, 0.7, d)
        for count in (1, int(rng.integers(2, 200))):
            s = rng.uniform(-1.0, 1.0, count)
            got = heat_direct_batch(eps, s, xi, tol)
            want, bound, r = _per_axis_oracle(eps, s, xi, tol)
            assert (got.tail_bound, got.radius) == (bound, r)
            assert got.value.shape == want.shape
            if count == 1:
                assert got.value.tobytes() == want.tobytes()
            else:
                assert np.all(np.abs(got.value - want) <= 1e-15 * np.abs(want))


def test_theta_data_is_cached_and_read_only():
    first = heat._theta_data(0.25, 1e-12, 3)
    assert heat._theta_data(0.25, 1e-12, 3) is first
    for arr in (first.n, first.n_sq, first.gauss):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert heat._theta_data.cache_info().maxsize == heat.THETA_ENTRIES


def test_phase_blocks_stay_inside_the_point_budget(monkeypatch):
    eps, tol, xi = 0.25, 1e-12, np.array([0.1, -0.2, 0.3, 0.05, -0.45])
    s = np.random.default_rng(3).uniform(-1.0, 1.0, 6000)
    width = 5 * (2 * heat._theta_radius(eps, tol, 5) + 1)
    whole = heat_direct_batch(eps, s, xi, tol)    # one block; warms the cache
    assert s.size * width * 16 > 4 << 20          # its phases alone: over 4 MiB
    monkeypatch.setattr(heat, "DEFAULT_POINT_BUDGET", 10 * width)
    sizes = []
    real_rows = heat._theta_rows
    monkeypatch.setattr(heat, "_theta_rows",
                        lambda theta, lin, block: sizes.append(block.size * width)
                        or real_rows(theta, lin, block))
    tracemalloc.start()
    try:
        blocked = heat_direct_batch(eps, s, xi, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [10 * width] * 600
    assert peak < 1 << 20
    assert np.array_equal(blocked.value, whole.value)


def test_a_row_over_the_point_budget_is_refused(monkeypatch):
    width = 5 * (2 * heat._theta_radius(0.25, 1e-12, 5) + 1)
    monkeypatch.setattr(heat, "DEFAULT_POINT_BUDGET", width - 1)
    with pytest.raises(BudgetExceededError, match=f"{width} phase terms"):
        heat_direct_batch(0.25, np.array([0.1]), np.zeros(5))
    monkeypatch.setattr(heat, "DEFAULT_POINT_BUDGET", width)
    assert heat_direct_batch(0.25, np.array([0.1, 0.2]), np.zeros(5)).value.shape == (2,)
