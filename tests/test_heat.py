"""Damped lattice Gaussian multiplier: the truncated theta product and its
rational resummation are independent code paths, so their agreement is a
strong cross-check.  The classical theta transformation gives hand-computed
oracle values."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from spherelab import heat, lattice
from spherelab.errors import BudgetExceededError
from spherelab.gauss import gauss_sum_1d_all
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


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_heat_forms_reject_a_tolerance_that_is_not_positive(tol):
    # refused by name before any radius or reach is derived from tol
    params, xi = on_arc(0.0625, 3, 7, 0.01), np.zeros(3)
    misses = heat._theta_radius.cache_info().misses
    for call in (lambda: heat_direct_batch(params.eps, [params.s], xi, tol),
                 lambda: heat_multiplier_direct(params, xi, tol),
                 lambda: heat_multiplier_poisson(params, xi, tol)):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            call()
    assert heat._theta_radius.cache_info().misses == misses


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
    monkeypatch.setattr(lattice, "DEFAULT_POINT_BUDGET", 10 * width)
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
    monkeypatch.setattr(lattice, "DEFAULT_POINT_BUDGET", width - 1)
    with pytest.raises(BudgetExceededError,
                       match=f"{width} phase terms, over the budget of {width - 1}$"):
        heat_direct_batch(0.25, np.array([0.1]), np.zeros(5))
    monkeypatch.setattr(lattice, "DEFAULT_POINT_BUDGET", width)
    assert heat_direct_batch(0.25, np.array([0.1, 0.2]), np.zeros(5)).value.shape == (2,)


def _per_axis_poisson(params, xi, tol, width=None):
    """The Poisson form one axis at a time, each axis over its own window
    lo_i..ceil(q (xi_i + reach)) + 1, or over lo_i..lo_i + width - 1: the
    independent oracle of heat_multiplier_poisson's one-pass form.  Returns
    the value, the tail bound, the radius, |prefactor|, and per axis |F_i|,
    the absolute term sum S_i and the tail t_i."""
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[-1]
    a, q, t, eps = params.a, params.q, params.t, params.eps
    z = 2.0 * (eps - 1j * t)
    inv_z = 1.0 / z
    decay = 0.5 * math.pi * eps / (eps * eps + t * t)
    g1 = gauss_sum_1d_all(a, q)
    g1_max = float(np.abs(g1).max())
    axis_tol = tol / (d * max(g1_max, 1e-300))
    reach = math.sqrt(max(math.log(1.0 / axis_tol), 0.0) / decay) if axis_tol < 1 else 0.0
    factors = np.empty(d, dtype=complex)
    sums, tails = np.empty(d), np.empty(d)
    for i in range(d):
        lo = math.floor(q * (xi[i] - reach)) - 1
        hi = math.ceil(q * (xi[i] + reach)) + 1 if width is None else lo + width - 1
        l = np.arange(lo, hi + 1, dtype=np.int64)
        u = xi[i] - l / q
        terms = g1[l % q] * np.exp(-np.pi * u * u * inv_z)
        factors[i], sums[i] = terms.sum(), np.abs(terms).sum()
        edge = max(abs(u[0]), abs(u[-1]))
        tails[i] = (2.0 * g1_max * math.exp(-decay * edge * edge)
                    / max(1.0 - math.exp(-decay / q**2), 1e-300))
    prefactor = z ** (-d / 2)
    return (complex(prefactor * factors.prod()), abs(prefactor) * tails.sum(),
            int(reach * q) + 1, abs(prefactor), np.abs(factors), sums, tails)


def _arc_point(rng, d):
    """Random eps, a/q, t and tol of the Poisson form's range, with one
    in three frequencies moved to an edge: xi_i = +-0.5, or xi_i on the
    grid l/q."""
    q = int(rng.integers(1, 40))
    a = int(rng.choice([a for a in range(q) if math.gcd(a, q) == 1]))
    eps = float(np.exp(rng.uniform(math.log(1e-4), math.log(2.0))))
    params = on_arc(eps, a, q, float(rng.uniform(-1.0, 1.0) / (30 * q)))
    xi = rng.uniform(-0.5, 0.5, d)
    for i in range(d):
        pick = rng.integers(6)
        if pick == 0:
            xi[i] = float(rng.choice([-0.5, 0.5]))
        elif pick == 1:
            xi[i] = int(rng.integers(-q, q + 1)) / q
    return params, xi, float(rng.choice([1e-8, 1e-12, 1e-14]))


def _reach(params, d, tol):
    """decay, g1_max and the per-axis reach, as heat_multiplier_poisson
    derives them from tol."""
    eps, t = params.eps, params.t
    decay = 0.5 * math.pi * eps / (eps * eps + t * t)
    g1_max = float(np.abs(gauss_sum_1d_all(params.a, params.q)).max())
    axis_tol = tol / (d * max(g1_max, 1e-300))
    reach = math.sqrt(max(math.log(1.0 / axis_tol), 0.0) / decay) if axis_tol < 1 else 0.0
    return decay, g1_max, reach


def _integer_reach_tol(params, d, tol):
    """The tol nearest tol at which q reach is an integer k >= 1, up to the
    roundoff of the sqrt."""
    decay, g1_max, reach = _reach(params, d, tol)
    k = max(1, round(params.q * reach))
    return d * g1_max * math.exp(-decay * (k / params.q) ** 2)


@pytest.mark.parametrize("d", range(1, 7))
def test_poisson_one_pass_matches_the_per_axis_loop(d):
    # over the one window W the loop and the pass add the same terms in
    # the same order: bitwise.  Against the loop's own windows the pass
    # adds only images the loop left out, so the values differ by at most
    # what those images can add to the product, |pref| (prod (S_i + t_i) -
    # prod S_i), plus roundoff; 8 ulps of |pref| prod S_i covers it (worst
    # measured 2.5 ulps over 9,000 draws).  Every 4th draw puts q reach on
    # an integer.
    rng = np.random.default_rng(2400 + d)
    ulp = np.finfo(float).eps
    for draw in range(150):
        params, xi, tol = _arc_point(rng, d)
        if draw % 4 == 0:
            tol = _integer_reach_tol(params, d, tol)
        got = heat_multiplier_poisson(params, xi, tol)
        value, _, radius, pref, _, sums, tails = _per_axis_poisson(params, xi, tol)
        _, width = heat._image_window(xi.tolist(), params.q, _reach(params, d, tol)[2])
        assert got.value == _per_axis_poisson(params, xi, tol, width)[0]
        assert got.radius == radius
        reach_out = pref * (np.prod(sums + tails) - np.prod(sums))
        assert abs(got.value - value) <= reach_out + 8 * ulp * pref * np.prod(sums)


def test_the_image_window_covers_every_axis():
    # lo_i is the loop's, and lo_i + W - 1 reaches the loop's hi_i, at most
    # one image beyond: hi_i - lo_i is an integer in [2 q reach, 2 q reach + 3]
    rng = np.random.default_rng(2410)
    cases = []
    for _ in range(2000):
        q = int(rng.integers(1, 60))
        cases.append((rng.uniform(-0.5, 0.5, 4), q, float(rng.uniform(0.0, 3.0))))
    for q in (1, 2, 4, 8, 16):
        for k in range(0, 40):
            grid = np.array([-0.5, 0.5, 0.0, k / q, -k / (2 * q), 3 / q])
            cases.append((grid, q, k / q))           # q reach an integer, exactly
            cases.append((grid, q, k / q + 1e-15))
    extra = set()
    for xi, q, reach in cases:
        lo, width = heat._image_window(xi.tolist(), q, reach)
        for i in range(xi.size):
            assert lo[i] == math.floor(q * (xi[i] - reach)) - 1
            hi = math.ceil(q * (xi[i] + reach)) + 1
            assert lo[i] + width - 1 >= hi
            extra.add(lo[i] + width - 1 - hi)
    assert extra == {0, 1}


def _spread(mags, tails):
    """prod (mags_i + tails_i) - prod mags_i, as the sum over every nonempty
    set of axes of its tails times the other axes' mags: no cancellation."""
    d = len(mags)
    return sum(math.prod(tails[i] if i in axes else mags[i] for i in range(d))
               for k in range(1, d + 1) for axes in itertools.combinations(range(d), k))


def test_poisson_tail_bounds_the_images_left_out():
    # on axis i the images left out start one step past each end of the
    # window; t_i is their majorant g1_max exp(-decay u^2) at its first
    # term over 1 - exp(-decay / q^2), so M_i <= t_i <= M_i / (1 - exp(-decay
    # / q^2)) with M_i the majorant's sum, and the bound |pref| (prod (|F_i|
    # + t_i) - prod |F_i|) lies between the same spread of the M_i and of
    # the M_i / (1 - exp(-decay / q^2))
    rng = np.random.default_rng(2411)
    for draw in range(400):
        d = int(rng.integers(1, 5))
        params, xi, _ = _arc_point(rng, d)
        if draw % 2:
            q = int(rng.integers(1, 4))
            params = on_arc(float(rng.uniform(0.02, 1.0)), 1 % q, q, 0.0)
        tol = float(rng.choice([1e-4, 1e-8]))
        got = heat_multiplier_poisson(params, xi, tol)
        q = params.q
        decay, g1_max, reach = _reach(params, d, tol)
        lo, width = heat._image_window(xi.tolist(), q, reach)
        _, _, _, pref, mags, _, _ = _per_axis_poisson(params, xi, tol, width)
        steps = np.arange(1, 4000)
        majorants = []
        for i in range(d):
            u = xi[i] - np.concatenate([lo[i] - steps, lo[i] + width - 1 + steps]) / q
            majorants.append(g1_max * float(np.exp(-decay * u * u).sum()))
        ratio = math.exp(-decay / q**2)
        assert pref * _spread(mags, majorants) * (1 - 1e-12) <= got.tail_bound
        assert got.tail_bound <= pref * _spread(
            mags, [m / (1.0 - ratio) for m in majorants]) * (1 + 1e-12)


@pytest.mark.parametrize("eps", [0.01, 1.0, 3.0, 10.0, 30.0])
@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_poisson_tail_bound_covers_the_truncation(eps, tol):
    # against the same form at tol 1e-300, whose window reaches far past
    # every image that matters: the truncation error stays below
    # tail_bound, up to roundoff, 64 ulps of |pref| prod S_i.  The first
    # draw is a/q = 0/1, t = 0, d = 6, where a bound that adds the axes'
    # tails without the other factors' size falls short at eps >= 10, by
    # 475 times at eps = 30, tol = 1e-4
    rng = np.random.default_rng(int(eps * 100) + int(-math.log10(tol)))
    ulp = np.finfo(float).eps
    for draw in range(40):
        d = 6 if draw == 0 else int(rng.integers(1, 7))
        q = 1 if draw == 0 else int(rng.integers(1, 12))
        a = int(rng.choice([a for a in range(q) if math.gcd(a, q) == 1]))
        t = 0.0 if draw == 0 else float(rng.uniform(-1.0, 1.0) / (30 * q))
        params = on_arc(eps, a, q, t)
        xi = (np.array([0.1, -0.2, 0.3, 0.05, -0.45, 0.25]) if draw == 0
              else rng.uniform(-0.5, 0.5, d))
        got = heat_multiplier_poisson(params, xi, tol)
        ref = heat_multiplier_poisson(params, xi, 1e-300)
        _, _, _, pref, _, sums, _ = _per_axis_poisson(params, xi, 1e-300)
        assert abs(got.value - ref.value) <= got.tail_bound + 64 * ulp * pref * np.prod(sums)


def test_a_poisson_window_over_the_point_budget_is_refused(monkeypatch):
    params, xi = on_arc(1e-6, 3, 997, 1e-3), np.array([0.1, -0.3, 0.45])
    width = heat._image_window(xi.tolist(), 997, _reach(params, 3, 1e-12)[2])[1]
    assert width > 2000
    heat_multiplier_poisson(params, xi)          # warms the Gauss row
    # the (3, W) image arrays hold 3 W entries: one over the budget is
    # refused before any is built, and at the budget the form is evaluated
    monkeypatch.setattr(lattice, "DEFAULT_POINT_BUDGET", 3 * width - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match=f"window {width} on 3 axes, over the budget of {3 * width - 1}$"):
            heat_multiplier_poisson(params, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * width                      # one int64 row of images
    monkeypatch.setattr(lattice, "DEFAULT_POINT_BUDGET", 3 * width)
    assert heat_multiplier_poisson(params, xi).radius > 0


def test_a_wide_poisson_window_is_refused_before_allocation():
    # at eps = 1e-8, a/q = 1/3001, t = 0.3 the window is W = 72,173,395
    # images an axis: (5, W) int64 images alone would take 2.9 GB
    params, xi = on_arc(1e-8, 1, 3001, 0.3), np.full(5, 0.1)
    assert math.ceil(2 * 3001 * _reach(params, 5, 1e-12)[2]) + 4 == 72_173_395
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="on 5 axes, over the budget"):
            heat_multiplier_poisson(params, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_gauss_row_maximum_is_computed_once_per_row(monkeypatch):
    # g1_max is cached beside the Gauss row: one computation per (a, q)
    # over repeated calls, with values and tail bounds bitwise those of
    # recomputing it from the row on every call
    from spherelab import gauss
    gauss._all_shift_row.cache_clear()
    cases = [(0, 1), (3, 7), (5, 12), (11, 29)]
    rng = np.random.default_rng(25)
    got = []
    for _ in range(3):
        for a, q in cases:
            params = on_arc(0.0625, a, q, 0.3 / (q * q))
            for d in (2, 5):
                xi = rng.uniform(-0.5, 0.5, d)
                got.append((params, xi, heat_multiplier_poisson(params, xi, tol=1e-14)))
    assert gauss._all_shift_row.cache_info().misses == len(cases)
    for a, q in cases:
        assert gauss.gauss_row_max(a + 5 * q, q) == float(np.abs(gauss_sum_1d_all(a, q)).max())
    assert gauss._all_shift_row.cache_info().misses == len(cases)
    monkeypatch.setattr(heat, "gauss_row_max",
                        lambda a, q: float(np.abs(gauss_sum_1d_all(a, q)).max()))
    for params, xi, hv in got:
        again = heat_multiplier_poisson(params, xi, tol=1e-14)
        assert (again.value, again.tail_bound, again.radius) == \
            (hv.value, hv.tail_bound, hv.radius)
    with pytest.raises(ValueError):
        gauss.gauss_row_max(2, 4)


@pytest.mark.parametrize("eps", [5e-324, 1e-300])
@pytest.mark.parametrize("form", [heat_multiplier_direct, heat_multiplier_poisson],
                         ids=["direct", "poisson"])
def test_an_eps_past_float_range_is_refused_by_name(form, eps):
    # at t = 0, eps^2 underflows to 0 and (2 eps)^(-3/2) overflows: both
    # forms name eps before any array is built
    params = on_arc(eps, 0, 1, 0.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^eps={eps}"):
            form(params, np.zeros(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_a_poisson_reach_past_float_range_is_refused_by_name():
    # at eps = 5e-324, t = 1 the decay is a subnormal 1e-323, and the image
    # reach sqrt(log(1/tol) / decay) is inf: refused as a window, not rounded up
    with pytest.raises(BudgetExceededError, match="window inf on 3 axes, over the budget"):
        heat_multiplier_poisson(on_arc(5e-324, 0, 1, 1.0), np.zeros(3))


def test_the_direct_radius_near_the_float_range_edge():
    # at d = 1, tol = 1/2 the target is a normal float down to eps near
    # 1e-307: at eps = 1e-200 the squared radius is a float, which the
    # budget then refuses; at eps = 1.6e-307 it overflows (about 7e308) and
    # is refused by name; at eps = 1e-320 the target is subnormal
    with pytest.raises(BudgetExceededError):
        heat_multiplier_direct(on_arc(1e-200, 0, 1, 0.0), np.zeros(1), tol=0.5)
    with pytest.raises(ValueError, match="^eps=1.6e-307, tol=0.5, d=1: the squared theta radius inf"):
        heat_multiplier_direct(on_arc(1.6e-307, 0, 1, 0.0), np.zeros(1), tol=0.5)
    with pytest.raises(ValueError, match="^eps=1e-320, tol=0.5, d=1: the theta truncation target"):
        heat_multiplier_direct(on_arc(1e-320, 0, 1, 0.0), np.zeros(1), tol=0.5)
