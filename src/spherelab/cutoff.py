"""Smooth compactly supported cutoff on the frequency torus.

One tensor-product bump profile, built from the classical exp(-1/y)
transition.  Per coordinate it is exactly 1 on |u| <= 1/8, exactly 0 on
|u| >= 1/4 and smooth between, so with Q = (-1/2, 1/2]^d it is supported in
Q/2 and identically 1 on Q/4.

The narrow cutoff at modulus q is this profile at q*u: supported in
Q/(2q) and equal to 1 on Q/(4q), so its translates by l/q have pairwise
disjoint supports.  Callers pass the scaled argument q*u.
"""

from __future__ import annotations

import numpy as np

_PLATEAU, _EDGE = 0.125, 0.25


def smooth_step(y):
    """C-infinity step: 0 for y <= 0, 1 for y >= 1, strictly monotone between.

    h(y) = f(y) / (f(y) + f(1-y)) with f(y) = exp(-1/y) for y > 0.
    """
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        fy = np.where(y > 0, np.exp(-1.0 / np.where(y > 0, y, 1.0)), 0.0)
        fc = np.where(1 - y > 0, np.exp(-1.0 / np.where(1 - y > 0, 1 - y, 1.0)), 0.0)
    return fy / (fy + fc)


def cutoff(u) -> float | np.ndarray:
    """Evaluate the profile at a point u in R^d (tensor product).

    u has shape (d,) or (..., d); returns a scalar or an array of the
    leading shape.  Values are exactly 0 outside the support cube and
    exactly 1 on the inner cube.
    """
    u = np.abs(np.asarray(u, dtype=float))
    out = smooth_step((_EDGE - u) / (_EDGE - _PLATEAU)).prod(axis=-1)
    return float(out) if out.ndim == 0 else out
