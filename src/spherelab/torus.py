"""Functions on the discrete torus (Z/L)^d and the direct shell average.

Values may be scalar or matrix valued; matrix values occupy two trailing
axes.  spherical_convolve rolls the function once per shell point, and is
the oracle that transfer.inner_shell_average is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import SphereShell


@dataclass(frozen=True)
class LatticeFunction:
    """Scalar or matrix valued function on (Z/L)^d."""

    dimension: int
    side: int
    values: np.ndarray

    def __post_init__(self):
        lead = self.values.shape[: self.dimension]
        if lead != (self.side,) * self.dimension:
            raise ValueError(f"leading axes {lead} do not match side {self.side}")
        trailing = self.values.shape[self.dimension:]
        if trailing and (len(trailing) != 2 or trailing[0] != trailing[1]):
            raise ValueError(f"trailing axes {trailing} must be empty or square")


def spherical_convolve(shell: SphereShell, f: LatticeFunction) -> LatticeFunction:
    """Direct normalized shell average (1/count) sum_{|m|^2=k} f(n - m).

    Cyclic (torus) semantics: indices wrap mod L.
    """
    d, L = f.dimension, f.side
    if shell.dimension != d:
        raise ValueError("shell dimension does not match the function")
    out = np.zeros_like(np.asarray(f.values, dtype=complex))
    axes = tuple(range(d))
    for point in shell.points:
        out += np.roll(f.values, shift=tuple(int(c) for c in point), axis=axes)
    out /= shell.count
    return LatticeFunction(dimension=d, side=L, values=out)
