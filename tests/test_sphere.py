"""Surface-measure Fourier transform and the radial main-term profile.

The closed Bessel form is checked against two independent evaluations:
product-rule angular quadrature and stratified Monte Carlo.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from spherelab import sphere
from spherelab.errors import BudgetExceededError
from spherelab.lattice import DEFAULT_POINT_BUDGET
from spherelab.sphere import (
    PANEL_NODES,
    j_main,
    j_main_integral,
    panel_quadrature,
    radial_constant,
    sphere_ft_montecarlo,
    sphere_ft_quadrature,
    undamping,
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


def test_quadrature_oracle():
    xi3 = np.array([0.7 / math.sqrt(2.0), 0.7 / math.sqrt(2.0), 0.0])
    assert abs(sphere_ft_quadrature(3, xi3) - unit_sphere_ft(3, 0.7)) < 1e-12
    xi5 = np.array([0.8, 0.0, 0.0, 0.0, 0.0])
    q5 = sphere_ft_quadrature(5, xi5, n_polar=24, n_azimuth=72)
    assert abs(q5 - unit_sphere_ft(5, 0.8)) < 1e-10


def _full_mesh_quadrature(d, xi, n_polar, n_azimuth):
    """Reference for sphere_ft_quadrature: the same product rule, with the
    whole n_polar^(d-2) * n_azimuth angle mesh and its cartesian
    coordinates built at once."""
    nodes, weights = leggauss(n_polar)
    theta = 0.5 * np.pi * (nodes + 1.0)
    w_theta = 0.5 * np.pi * weights
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    mesh = np.meshgrid(*([theta] * (d - 2) + [phi]), indexing="ij")
    weight = np.ones_like(mesh[0])
    for j in range(d - 2):
        weight = weight * (w_theta * np.sin(theta) ** (d - 2 - j))[
            tuple(slice(None) if i == j else None for i in range(d - 1))
        ]
    x = []
    sin_prod = np.ones_like(mesh[0])
    for j in range(d - 2):
        x.append(sin_prod * np.cos(mesh[j]))
        sin_prod = sin_prod * np.sin(mesh[j])
    x.append(sin_prod * np.cos(mesh[-1]))
    x.append(sin_prod * np.sin(mesh[-1]))
    phase = sum(xi[i] * x[i] for i in range(d))
    return float((weight * np.cos(2.0 * np.pi * phase)).sum()) / float(weight.sum())


@st.composite
def _quadrature_cases(draw):
    d = draw(st.integers(2, 6))
    xi = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    norm = float(np.linalg.norm(xi))
    radius = draw(st.floats(0.0, 3.0))
    if norm > 0:
        xi = xi * (radius / norm)
    return d, xi, draw(st.integers(1, 12)), draw(st.integers(1, 36))


@given(_quadrature_cases())
@settings(max_examples=60, deadline=None)
def test_quadrature_matches_full_mesh_reference(case):
    d, xi, n_polar, n_azimuth = case
    streamed = sphere_ft_quadrature(d, xi, n_polar=n_polar, n_azimuth=n_azimuth)
    assert abs(streamed - _full_mesh_quadrature(d, xi, n_polar, n_azimuth)) < 1e-14


def _full_grid_quadrature(d, xi, n_polar, n_azimuth):
    """The unfolded rule: every node of the product grid, its phase nested
    as P_j = xi_j cos theta_j + sin theta_j P_{j+1} from
    P_{d-2} = xi_{d-2} cos phi + xi_{d-1} sin phi, and both sums taken
    exactly rounded (math.fsum), so that xi = 0 gives 1 exactly."""
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    phase = xi[d - 2] * np.cos(phi) + xi[d - 1] * np.sin(phi)
    weight = np.ones(n_azimuth)
    nodes, weights = leggauss(n_polar)
    theta = 0.5 * np.pi * (nodes + 1.0)
    w_theta = 0.5 * np.pi * weights
    cos_t, sin_t = np.cos(theta)[:, None], np.sin(theta)[:, None]
    for j in range(d - 3, -1, -1):
        phase = (xi[j] * cos_t + sin_t * phase).ravel()
        weight = (w_theta[:, None] * sin_t ** (d - 2 - j) * weight).ravel()
    return math.fsum(weight * np.cos(2.0 * np.pi * phase)) / math.fsum(weight)


def _folding_frequencies(d):
    """A generic frequency of radius 1, the same with its first and with
    its last component zero, both axis directions at radius 1, and 0."""
    generic = np.random.default_rng(d).normal(size=d)
    generic /= np.linalg.norm(generic)
    first, last = generic.copy(), generic.copy()
    first[0], last[-1] = 0.0, 0.0
    return [generic, first, last, np.eye(d)[0], np.eye(d)[-1], np.zeros(d)]


# odd and even n_polar (a middle node or none), odd and even n_azimuth
# (phi folded or not), and three finer rules
_FOLDED_RULES = [(d, n, 3 * n + extra) for d in range(2, 7) for n in (7, 8)
                 for extra in (0, 1)] + [(3, 16, 48), (4, 16, 49), (5, 15, 45)]


@pytest.mark.parametrize("d, n_polar, n_azimuth", _FOLDED_RULES)
def test_folded_quadrature_matches_the_full_grid(d, n_polar, n_azimuth):
    # the roundoff of either sum grows with |xi|: at radius 3 it reaches
    # 1.7e-15 against a long-double evaluation of the same rule, and the
    # radius-3 cases are in the full-mesh test above
    for xi in _folding_frequencies(d):
        folded = sphere_ft_quadrature(d, xi, n_polar=n_polar, n_azimuth=n_azimuth)
        assert abs(folded - _full_grid_quadrature(d, xi, n_polar, n_azimuth)) <= 1e-15


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d, rho, n_polar, tol", [(2, 0.7, 32, 1e-12),
                                                   (3, 0.7, 32, 1e-12),
                                                   (5, 0.8, 24, 1e-10)])
def test_quadrature_is_rotation_invariant(seed, d, rho, n_polar, tol):
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
    xi = rotation @ (rho * np.eye(d)[0])
    quad = sphere_ft_quadrature(d, xi, n_polar=n_polar, n_azimuth=3 * n_polar)
    assert abs(quad - unit_sphere_ft(d, rho)) < tol


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadrature_streams_the_outer_angle():
    # the full d = 5, n_polar = 48 mesh has 15.9M nodes and took 1.7 GiB
    xi = np.array([1.3, -0.4, 0.7, 0.2, -0.9])
    peak = _traced_peak(lambda: sphere_ft_quadrature(5, xi, n_polar=48, n_azimuth=144))
    assert peak < 64 << 20


@pytest.mark.parametrize("d, n_polar, n_azimuth, name", [(1, 32, 96, "d"),
                                                         (3, 0, 96, "n_polar"),
                                                         (3, 32, 0, "n_azimuth")])
def test_quadrature_rejects_bad_arguments_by_name(d, n_polar, n_azimuth, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        sphere_ft_quadrature(d, np.full(d, 0.3), n_polar=n_polar, n_azimuth=n_azimuth)


def test_quadrature_inner_grid_checked_before_allocation():
    # d = 7: the inner grid is 48^4 * 144 nodes, far over the point budget
    inner = 48 ** 4 * 144
    assert inner > DEFAULT_POINT_BUDGET

    def over_budget():
        with pytest.raises(BudgetExceededError, match=f"{inner} nodes exceeds the budget"):
            sphere_ft_quadrature(7, np.full(7, 0.1), n_polar=48, n_azimuth=144)

    assert _traced_peak(over_budget) < 1 << 20


@pytest.mark.parametrize("d, n_polar", [(2, 5), (3, 1)])
def test_quadrature_inner_budget_boundary(d, n_polar):
    # the budget counts the unfolded inner grid: n_polar^(d-3) * n_azimuth
    # at the budget is evaluated, one node more is refused before allocation
    assert 0.0 < sphere_ft_quadrature(d, np.zeros(d), n_polar=n_polar,
                                      n_azimuth=DEFAULT_POINT_BUDGET) <= 1.0 + 1e-15

    def over_budget():
        with pytest.raises(BudgetExceededError,
                           match=f"inner grid of {DEFAULT_POINT_BUDGET + 1} nodes exceeds "
                                 f"the budget of {DEFAULT_POINT_BUDGET}$"):
            sphere_ft_quadrature(d, np.zeros(d), n_polar=n_polar,
                                 n_azimuth=DEFAULT_POINT_BUDGET + 1)

    assert _traced_peak(over_budget) < 1 << 20


def test_quadrature_blocks_follow_the_point_budget(monkeypatch):
    # the outer rows are streamed in blocks of at most DEFAULT_POINT_BUDGET
    # phases: at d = 5, n_polar 48 the 24 rows of 24^2 * 72 folded phases
    # are one block, and the smallest budget the inner grid allows,
    # 48^2 * 144, gives 3 blocks of 8 rows whose sum agrees at roundoff
    xi = np.array([1.3, -0.4, 0.7, 0.2, -0.9])
    whole = sphere_ft_quadrature(5, xi, n_polar=48, n_azimuth=144)
    assert DEFAULT_POINT_BUDGET // (24 ** 2 * 72) >= 24
    monkeypatch.setattr(sphere, "DEFAULT_POINT_BUDGET", 48 ** 2 * 144)
    rowwise = sphere_ft_quadrature(5, xi, n_polar=48, n_azimuth=144)
    assert abs(rowwise - whole) < 1e-15


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


@pytest.mark.parametrize("eps", [0.0, -0.25, math.nan, math.inf])
def test_the_integral_form_refuses_an_eps_that_is_not_positive_by_name(eps):
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        j_main_integral(5, 4, np.zeros(5), eps)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_montecarlo_refuses_fewer_than_one_sample_by_name(n_samples):
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        sphere_ft_montecarlo(5, 1.0, n_samples=n_samples)


def test_main_term_panel_cap_checked_before_allocation():
    # the point budget holds 416,666 panels of 12 nodes; at k = 1, eps = 0.0096
    # panels of width eps/2 = 0.0048 over [-1000, 1000] number 416,667
    assert 416_666 * PANEL_NODES <= DEFAULT_POINT_BUDGET < 416_667 * PANEL_NODES
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match=f"416667 panels of 12 nodes exceed the budget of "
                                 f"{DEFAULT_POINT_BUDGET} nodes"):
            j_main_integral(5, 1, np.array([0.2, 0.1, 0.0, 0.0, 0.0]), 0.0096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_panel_budget_boundary(monkeypatch):
    # k = 1, eps = 1/4 gives 16,000 panels of width 1/8 over [-1000, 1000]:
    # with the budget at their nodes the integral is evaluated, one node
    # short of them it is refused before allocation
    nodes = 16_000 * PANEL_NODES
    xi = np.array([0.2, 0.1, 0.0, 0.0, 0.0])
    assert len(panel_quadrature(-1e3, 1e3, 1, 0.25)[0]) == nodes
    monkeypatch.setattr(sphere, "DEFAULT_POINT_BUDGET", nodes)
    value, _ = j_main_integral(5, 1, xi, 0.25)
    assert abs(value - j_main(5, 1, xi)) < 1e-6
    monkeypatch.setattr(sphere, "DEFAULT_POINT_BUDGET", nodes - 1)

    def over_budget():
        with pytest.raises(BudgetExceededError, match="16000 panels of 12 nodes exceed"):
            j_main_integral(5, 1, xi, 0.25)

    assert _traced_peak(over_budget) < 1 << 20


def test_undamping_overflow_is_refused_before_the_panels():
    # 2 pi eps k = 980 > ln(float max) = 709.78, while the 416,000 panels of
    # k = 52 fit the point budget: about 0.48 GB would be built first
    assert 416_000 * PANEL_NODES <= DEFAULT_POINT_BUDGET

    def overflow():
        with pytest.raises(ValueError, match=r"k=52, eps=3\.0: .* overflows a float"):
            j_main_integral(5, 52, np.full(5, 0.1), 3.0)

    assert _traced_peak(overflow) < 1 << 20
    edge = math.log(1.7976931348623157e308)
    assert undamping(1, edge / (2.0 * math.pi)) <= 1.7976931348623157e308
    with pytest.raises(ValueError, match="k=2, eps="):
        undamping(2, edge / (2.0 * math.pi))


def test_a_panel_count_past_float_range_is_refused_by_name():
    # eps = 1e-310 makes panels of width 5e-311: 2000 / 5e-311 overflows to
    # inf, compared with the budget before it is rounded up
    def overflow():
        with pytest.raises(BudgetExceededError, match="^inf panels of 12 nodes exceed"):
            j_main_integral(5, 1, np.zeros(5), 1e-310)

    assert _traced_peak(overflow) < 1 << 20
    with pytest.raises(BudgetExceededError, match="^inf panels"):
        panel_quadrature(0.0, 1.0, 1, 5e-324)   # eps / 2 underflows to 0
