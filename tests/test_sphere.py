"""Surface-measure Fourier transform and the radial main-term profile.

The closed Bessel form is checked against two independent evaluations:
product-rule angular quadrature and stratified Monte Carlo.
"""

import math
import tracemalloc

import numpy as np
import pytest

from spherelab.errors import BudgetExceededError
from spherelab.sphere import (
    J_MAIN_MAX_PANELS,
    j_main,
    j_main_integral,
    radial_constant,
    sphere_ft,
    sphere_ft_montecarlo,
    sphere_ft_quadrature,
    unit_sphere_ft,
)

C5 = 13.15947253478581  # (4/3) pi^2


def test_value_at_zero_frequency():
    for d in (2, 3, 4, 5, 7):
        assert unit_sphere_ft(d, 0.0) == 1.0


def test_pinned_values():
    # d = 5 at radius 1: Gamma(5/2) (pi)^{-3/2} J_{3/2}(2 pi) = -3/(4 pi^2)
    assert abs(unit_sphere_ft(5, 1.0) - (-3.0 / (4.0 * math.pi**2))) < 1e-13
    # d = 3 reduces to sinc(2 rho), which vanishes at rho = 1/2
    assert abs(unit_sphere_ft(3, 0.5)) < 1e-15
    assert abs(unit_sphere_ft(3, 0.7) - math.sin(1.4 * math.pi) / (1.4 * math.pi)) < 1e-14


def test_radial_scaling():
    # sphere_ft(d, lam, xi) only sees |lam * xi|
    xi = np.array([0.3, -0.2, 0.1])
    rho = float(np.linalg.norm(xi))
    assert abs(sphere_ft(3, 2.0, xi) - unit_sphere_ft(3, 2.0 * rho)) < 1e-15


def test_quadrature_oracle():
    xi3 = np.array([0.7 / math.sqrt(2.0), 0.7 / math.sqrt(2.0), 0.0])
    assert abs(sphere_ft_quadrature(3, xi3) - unit_sphere_ft(3, 0.7)) < 1e-12
    xi5 = np.array([0.8, 0.0, 0.0, 0.0, 0.0])
    q5 = sphere_ft_quadrature(5, xi5, n_polar=24, n_azimuth=72)
    assert abs(q5 - unit_sphere_ft(5, 0.8)) < 1e-10


def test_montecarlo_oracle():
    n = 200_000
    mc = sphere_ft_montecarlo(5, 1.0, n_samples=n, seed=0)
    assert abs(mc - unit_sphere_ft(5, 1.0)) < 30.0 / math.sqrt(n)


def test_radial_constant_d5():
    assert abs(radial_constant(5) - (4.0 / 3.0) * math.pi**2) < 1e-12
    assert abs(radial_constant(5) - C5) < 1e-12


def test_main_profile_at_zero():
    # c_5 * 1^3 / r_5(1) = c_5 / 10
    assert abs(j_main(5, 1, np.zeros(5)) - C5 / 10.0) < 1e-12


def test_main_profile_integral_form():
    xi = np.array([0.03, 0.0, 0.0, 0.0, 0.0])
    val, err_est = j_main_integral(5, 4, xi, eps=1.0 / 16.0)
    assert abs(val - j_main(5, 4, xi)) < 1e-6
    assert err_est < 1e-4


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        unit_sphere_ft(1, 0.5)
    with pytest.raises(ValueError):
        unit_sphere_ft(3, -0.5)
    with pytest.raises(ValueError):
        j_main(3, 7, np.zeros(3))  # 7 is not a sum of three squares
    with pytest.raises(ValueError):
        j_main_integral(2, 1, np.zeros(2), eps=0.25)


def test_main_term_panel_cap_checked_before_allocation():
    # k = 300 gives panels of width 1/1200 over [-1000, 1000]: 2.4M of them,
    # over the cap of 2M
    assert J_MAIN_MAX_PANELS == 2_000_000
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="2400000 panels exceed cap 2000000"):
            j_main_integral(5, 300, np.array([0.2, 0.1, 0.0, 0.0, 0.0]), 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
