"""Discrete-torus functions: shell averaging by direct rolls must agree
with multiplication by the shell kernel's DFT."""

import numpy as np
import pytest

from spherelab.lattice import sphere_shell
from spherelab.torus import LatticeFunction, spherical_convolve


def _random(d, L, seed, trailing=()):
    rng = np.random.default_rng(seed)
    shape = (L,) * d + trailing
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return LatticeFunction(dimension=d, side=L, values=values)


def test_constant_is_fixed_point():
    shell = sphere_shell(3, 2)
    ones = LatticeFunction(dimension=3, side=6, values=np.ones((6, 6, 6), dtype=complex))
    out = spherical_convolve(shell, ones)
    assert np.abs(out.values - 1.0).max() < 1e-14


def test_delta_spreads_to_shell():
    shell = sphere_shell(5, 1)
    delta = np.zeros((4,) * 5, dtype=complex)
    delta[(0,) * 5] = 1.0
    out = spherical_convolve(shell, LatticeFunction(5, 4, delta))
    vals = out.values
    assert np.count_nonzero(np.abs(vals) > 1e-15) == 10
    sites = np.argwhere(np.abs(vals) > 1e-15)
    for site in sites:
        assert np.abs(vals[tuple(site)] - 0.1) < 1e-15
        # each active site is a signed unit vector mod 4
        residues = sorted(int(c) for c in site)
        assert residues in ([0, 0, 0, 0, 1], [0, 0, 0, 0, 3])


def test_fft_route_matches_direct_rolls():
    shell = sphere_shell(3, 2)
    f = _random(3, 8, seed=11)
    direct = spherical_convolve(shell, f)
    # the periodized kernel's DFT is the shell multiplier on the grid j/8
    kernel = np.zeros((8, 8, 8))
    for point in shell.points:
        kernel[tuple(int(c) % 8 for c in point)] += 1.0 / shell.count
    via_fft = np.fft.ifftn(np.fft.fftn(kernel) * np.fft.fftn(f.values))
    assert np.abs(direct.values - via_fft).max() < 1e-10


def test_matrix_values_entrywise():
    shell = sphere_shell(2, 1)
    f = _random(2, 6, seed=9, trailing=(2, 2))
    out = spherical_convolve(shell, f)
    for i in range(2):
        for j in range(2):
            comp = LatticeFunction(dimension=2, side=6, values=f.values[..., i, j])
            out_ij = spherical_convolve(shell, comp)
            assert np.abs(out.values[..., i, j] - out_ij.values).max() < 1e-13


def test_translation_equivariance():
    shell = sphere_shell(2, 2)
    f = _random(2, 7, seed=4)
    shift = (3, 5)
    rolled = LatticeFunction(dimension=2, side=7, values=np.roll(f.values, shift, axis=(0, 1)))
    a = spherical_convolve(shell, rolled).values
    b = np.roll(spherical_convolve(shell, f).values, shift, axis=(0, 1))
    assert np.abs(a - b).max() < 1e-13


def test_shape_validation():
    with pytest.raises(ValueError):
        LatticeFunction(dimension=2, side=4, values=np.zeros((4, 4, 2, 3)))
