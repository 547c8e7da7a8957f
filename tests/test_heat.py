"""Damped lattice Gaussian multiplier: the truncated theta product and its
rational resummation are independent code paths, so their agreement is a
strong cross-check.  The classical theta transformation gives hand-computed
oracle values."""

import math

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


def test_budget_refusal(monkeypatch):
    monkeypatch.setattr(heat, "DEFAULT_BOX_BUDGET", 5)
    with pytest.raises(BudgetExceededError):
        heat_multiplier_direct(HeatParams(eps=1e-4, s=0.0), np.zeros(3))
