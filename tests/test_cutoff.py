"""The smooth tensor-product cutoff and its plateau/support geometry."""

import numpy as np

from spherelab.cutoff import cutoff, smooth_step


def test_step_endpoints():
    assert float(smooth_step(-1.0)) == 0.0
    assert float(smooth_step(0.0)) == 0.0
    assert float(smooth_step(1.0)) == 1.0
    assert float(smooth_step(2.0)) == 1.0
    assert 0.0 < float(smooth_step(0.5)) < 1.0


def test_step_monotone():
    vals = smooth_step(np.linspace(-0.5, 1.5, 401))
    assert np.all(np.diff(vals) >= 0)


def test_plateau_and_support():
    assert cutoff(np.zeros(5)) == 1.0
    assert cutoff(np.array([0.3, 0.0, 0.0, 0.0, 0.0])) == 0.0
    assert cutoff(np.array([0.1, 0.05, 0.0, 0.0, 0.0])) == 1.0


def test_transition_region_modulus_two():
    q = 2
    v = cutoff(q * np.array([0.09, 0.0, 0.0, 0.0, 0.0]))
    assert 0.0 < v < 1.0
    # per coordinate the modulus-2 profile decays across [1/16, 1/8]
    radii = np.linspace(1 / 16, 1 / 8, 25)
    vals = [cutoff(q * np.array([r, 0.0])) for r in radii]
    assert vals[0] == 1.0 and vals[-1] == 0.0
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_translates_have_disjoint_support():
    q = 3
    xi = np.linspace(0.0, 1.0, 301)[:, None]
    at_zero = cutoff(q * xi)
    at_third = cutoff(q * (xi - 1 / 3))
    assert float(np.minimum(at_zero, at_third).max()) == 0.0

