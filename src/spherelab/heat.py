"""Complexified heat multiplier on the torus: direct theta form and its
Gauss-sum (Poisson) resummation.

For damping eps > 0 and a circle variable s, the multiplier is the theta sum

    H(xi) = sum_{n in Z^d} exp(-2 pi |n|^2 (eps - i s)) e(n . xi),

which factors over coordinates, so it is evaluated as a product of d
one-dimensional sums truncated at |n_i| <= R with a certified Gaussian tail
bound.  Near a rational point, writing s = a/q + t with gcd(a, q) = 1,
Poisson summation in each residue class mod q gives the exact resummation

    H(xi) = (2(eps - i t))^{-d/2} sum_{l in Z^d} G(a/q, l)
                            exp(-pi |xi - l/q|^2 / (2(eps - i t))),

with G the normalized quadratic Gauss sum and the principal branch of the
complex power (Re(eps - i t) > 0, so no branch cut is crossed).  The two
forms agree to floating accuracy; they are kept as independent code paths
and cross-checked in the tests.

Both forms sum the d axes in one array pass.  heat_direct_batch keeps
what depends only on (eps, tol, d), the radius r, the points n = -r..r,
n^2, the Gaussian weights exp(-2 pi eps n^2) and the tail bound, in an LRU
cache of THETA_ENTRIES entries keyed by (eps, tol, d), with read-only
arrays.  An entry holds three vectors of 2r+1 floats, 24 (2r+1) bytes:
0.5 KB at eps = 1/16, tol = 1e-14, d = 5, and 0.5 MB at eps = 1/3161^2,
tol = 1e-12, d = 5 (3161 is the largest Farey order farey_sequence's
budget allows).
The (d, s, 2r+1) phases are built in blocks of rows of s of at most
DEFAULT_POINT_BUDGET entries; the rows are independent, so the blocks do
not change any value.  The Poisson form reads its Gauss row and the
row's largest magnitude from gauss_sum_1d_all's cache (see gauss) and
sums one (d, W) array of images, l = lo_i + 0..W-1 on axis i, with one
width W = ceil(2 q reach) + 4 that covers every axis's window
(_image_window), d W images at most DEFAULT_POINT_BUDGET; the images it
adds beyond an axis's reach lie below the per-axis tolerance.  Its tail
bound is |prefactor| (prod_i (|F_i| + t_i) - prod_i |F_i|), with F_i the
image sum of axis i and t_i the bound on what it leaves out: a tail of one
axis is multiplied by the other factors, whose product is 2.8e4 at
eps = 30, d = 6, a/q = 0/1, t = 0.

An eps too close to 0 for floats is refused by a ValueError naming it
before any array is built: in the direct form, where the truncation
target falls below the smallest normal float or the squared radius
overflows; in the Poisson form, where |2 (eps - i t)|^{-d/2} overflows or
the decay pi eps / (2 (eps^2 + t^2)) is not a positive float (at t = 0,
eps = 1e-300 does both).

A tail_bound bounds the truncation only, the terms a form leaves out; it
does not bound floating roundoff.  At d = 4, eps = 0.01, xi = 0, a/q = 0/1,
t = 0 and tol = 1e-15 the two forms differ by 4.5e-13, about eps_mach |H|
(|H| = 2500), while their tail bounds are 1.2e-18 (direct) and 0 (Poisson,
below the smallest float).

On an arc of Farey order L (so eps = L^{-2}, |t| < 1/(q L)) the normalized
magnitude q^{d/2} (eps + |t|)^{d/2} |H(xi)| stays bounded by an absolute
constant; an empirical sampler for that statistic is
acceptance.envelope_sup.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError
from .gauss import gauss_row_max, gauss_sum_1d_all
from .lattice import DEFAULT_POINT_BUDGET

DEFAULT_TOL = 1e-12
DEFAULT_BOX_BUDGET = 10.0**15  # the direct form's total work: s-count x d x (2r+1) terms
THETA_ENTRIES = 32  # _theta_radius and _theta_data entries kept, keyed by (eps, tol, d)
_LOG_FLOAT_MIN = math.log(sys.float_info.min)  # e^x is subnormal below it


@dataclass(frozen=True)
class HeatParams:
    """Damping eps and circle point s, optionally split as s = a/q + t."""

    eps: float
    s: float
    a: int | None = None
    q: int | None = None
    t: float | None = None

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.q is not None:
            if self.a is None or self.t is None:
                raise ValueError("rational split needs all of a, q, t")
            if math.gcd(self.a, self.q) != 1:
                raise ValueError(f"need gcd(a, q) = 1, got a={self.a}, q={self.q}")
            if abs(self.a / self.q + self.t - self.s) > 1e-12:
                raise ValueError("inconsistent split: s != a/q + t")


def on_arc(eps: float, a: int, q: int, t: float) -> HeatParams:
    return HeatParams(eps=eps, s=a / q + t, a=a, q=q, t=t)


class HeatValue(NamedTuple):
    """A multiplier value, the bound on what its truncation leaves out (not
    on floating roundoff; see the module docstring), and the truncation
    radius."""

    value: complex
    tail_bound: float
    radius: int


def _check_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


@lru_cache(maxsize=THETA_ENTRIES)
def _theta_radius(eps: float, tol: float, d: int) -> int:
    """Smallest truncation radius R with the omitted product mass below tol.

    An eps whose target or squared radius is past float range (eps near 0)
    is refused by name, before the powers below would overflow.
    """
    theta_full = 1.0 + 1.0 / math.sqrt(2.0 * eps)  # >= sum_n exp(-2 pi eps n^2)
    denom = -math.expm1(-2.0 * math.pi * eps)
    # the target, in logs
    log_target = (math.log(tol) - math.log(2 * d) - (d - 1) * math.log(theta_full)
                  + math.log(denom))
    if log_target < _LOG_FLOAT_MIN:
        raise ValueError(f"eps={eps}, tol={tol}, d={d}: the theta truncation target "
                         f"e^{log_target:.6g} is below the smallest normal float")
    per_axis = tol / (d * theta_full ** (d - 1))
    # need 2 exp(-2 pi eps (R+1)^2) / (1 - exp(-2 pi eps)) <= per_axis
    target = per_axis * denom / 2.0
    if target >= 1.0:
        return 0
    radius_sq = math.log(1.0 / target) / (2.0 * math.pi * eps)
    if not math.isfinite(radius_sq):
        raise ValueError(f"eps={eps}, tol={tol}, d={d}: the squared theta radius "
                         f"{radius_sq} is not a finite float")
    return math.isqrt(int(radius_sq)) + 1


def _theta_tail(eps: float, r: int) -> float:
    """Rigorous bound on 2 sum_{n > r} exp(-2 pi eps n^2) (geometric domination)."""
    ratio = math.exp(-2.0 * math.pi * eps * (2 * r + 3))
    return 2.0 * math.exp(-2.0 * math.pi * eps * (r + 1) ** 2) / (1.0 - ratio)


class _Theta(NamedTuple):
    n: np.ndarray       # -r..r, as floats
    n_sq: np.ndarray    # n^2, as floats
    gauss: np.ndarray   # exp(-2 pi eps n^2)
    bound: float        # tail bound of the d-fold product


@lru_cache(maxsize=THETA_ENTRIES)
def _theta_data(eps: float, tol: float, d: int) -> _Theta:
    r = _theta_radius(eps, tol, d)
    n = np.arange(-r, r + 1, dtype=np.int64)
    gauss = np.exp(-2.0 * np.pi * (n * n) * eps)
    tail1 = _theta_tail(eps, r)
    theta_abs = float(gauss.sum()) + tail1
    theta = _Theta(n.astype(float), (n * n).astype(float), gauss,
                   d * tail1 * theta_abs ** (d - 1))
    for arr in theta[:3]:
        arr.flags.writeable = False
    return theta


def heat_direct_batch(eps: float, s_values: np.ndarray, xi,
                      tol: float = DEFAULT_TOL) -> HeatValue:
    """Direct theta evaluation at several circle points s at once.

    Returns HeatValue whose .value is an array aligned with s_values.  The
    term count is checked against DEFAULT_BOX_BUDGET before any allocation,
    and the d (2r+1) phases of one s against DEFAULT_POINT_BUDGET.  A tol
    that is not finite and > 0 is refused first.
    """
    _check_tol(tol)
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.size == 0:
        raise ValueError(f"xi must be a flat point (d,) with dimension d >= 1, got {xi.shape}")
    d = xi.shape[0]
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    r = _theta_radius(eps, tol, d)
    # the lattice cube is never materialized: the sum over Z^d splits into a
    # product of d one-axis sums, so the cost is s-count x d x (2r+1)
    width = d * (2 * r + 1)
    work = float(s_values.size) * width
    if work > DEFAULT_BOX_BUDGET:
        raise BudgetExceededError(
            f"theta evaluation needs {work:g} terms, budget {DEFAULT_BOX_BUDGET:g}")
    if width > DEFAULT_POINT_BUDGET:
        raise BudgetExceededError(
            f"one theta row needs {width} phase terms, budget {DEFAULT_POINT_BUDGET}")
    theta = _theta_data(eps, tol, d)
    lin = np.mod(np.multiply.outer(xi, theta.n), 1.0)  # (d, 2r+1)
    # phases e(n^2 s + n xi_i) per (axis, s, n), in blocks of rows of s
    rows = DEFAULT_POINT_BUDGET // width
    blocks = [_theta_rows(theta, lin, s_values[i:i + rows])
              for i in range(0, max(s_values.size, 1), rows)]
    vals = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return HeatValue(value=vals, tail_bound=theta.bound, radius=r)


def _theta_rows(theta: _Theta, lin: np.ndarray, s_block: np.ndarray) -> np.ndarray:
    # phase (n^2 s mod 1) per (s, n); reduction keeps the exp argument small
    quad = np.mod(np.multiply.outer(s_block, theta.n_sq), 1.0)
    phases = np.exp(2j * np.pi * (quad + lin[:, None, :]))
    # axis-major, so the product over the axes multiplies whole rows in
    # axis order, as a loop over the axes does: the same bits for every s
    return (theta.gauss * phases).sum(axis=2).prod(axis=0)


def heat_multiplier_direct(params: HeatParams, xi, tol: float = DEFAULT_TOL) -> HeatValue:
    """Truncated lattice (theta product) form of the heat multiplier."""
    out = heat_direct_batch(params.eps, np.array([params.s]), xi, tol)
    return HeatValue(value=complex(out.value[0]), tail_bound=out.tail_bound, radius=out.radius)


def heat_multiplier_poisson(params: HeatParams, xi, tol: float = DEFAULT_TOL) -> HeatValue:
    """Gauss-sum resummation of the heat multiplier at s = a/q + t.

    Per coordinate the image sum runs over a window of W integers l that
    holds every image with Gaussian factor above tol, d W at most
    DEFAULT_POINT_BUDGET; the complex power uses the principal branch.  A
    tol that is not finite and > 0 is refused first.
    """
    _check_tol(tol)
    if params.q is None:
        raise ValueError("poisson form needs the rational split (a, q, t)")
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[-1]
    if d < 1:
        raise ValueError(f"xi needs dimension d >= 1, got d = {d}")
    a, q, t, eps = params.a, params.q, params.t, params.eps
    z = 2.0 * (eps - 1j * t)
    try:
        prefactor = z ** (-d / 2)  # principal branch, Re z > 0
        decay = 0.5 * math.pi * eps / (eps * eps + t * t)  # |exp(-pi u^2/z)| = exp(-decay u^2)
    except (OverflowError, ZeroDivisionError):  # |z|^{-d/2} overflows, or eps^2 + t^2 is 0
        decay = math.inf
    if not 0.0 < decay < math.inf:
        raise ValueError(f"eps={eps}, t={t}: the prefactor |2 (eps - i t)|^(-d/2) or the "
                         f"decay pi eps / (2 (eps^2 + t^2)) of the Poisson form is past "
                         f"float range")
    inv_z = 1.0 / z
    g1 = gauss_sum_1d_all(a, q)
    g1_max = gauss_row_max(a, q)
    # per-axis reach: beyond it the Gaussian factor alone is below the target
    axis_tol = tol / (d * max(g1_max, 1e-300))
    reach = math.sqrt(max(math.log(1.0 / axis_tol), 0.0) / decay) if axis_tol < 1 else 0.0
    xs = xi.tolist()
    lo, width = _image_window(xs, q, reach)
    l = np.add.outer(lo, np.arange(width, dtype=np.int64))  # (d, W)
    u = xi[:, None] - l / q
    factors = (g1[l % q] * np.exp(-np.pi * u * u * inv_z)).sum(axis=1)
    # on axis i the images left out start one step beyond each end of the
    # window and fall off at least geometrically, by exp(-decay / q^2) a
    # step, so they add t_i at most to F_i; to the product they add at most
    # spread = prod (|F_i| + t_i) - prod |F_i|, summed term by term with no
    # cancellation
    gap = max(1.0 - math.exp(-decay / q**2), 1e-300)
    spread, mass = 0.0, 1.0
    for x, first, f in zip(xs, lo, np.abs(factors).tolist()):
        t_i = g1_max * (math.exp(-decay * (x - (first - 1) / q) ** 2)
                        + math.exp(-decay * (x - (first + width) / q) ** 2)) / gap
        spread, mass = (f + t_i) * spread + t_i * mass, f * mass
    value = complex(prefactor * factors.prod())
    return HeatValue(value=value, tail_bound=abs(prefactor) * spread, radius=int(reach * q) + 1)


def _image_window(xi: list[float], q: int, reach: float) -> tuple[list[int], int]:
    """First image lo_i = floor(q (xi_i - reach)) - 1 of each axis, and one
    width W = ceil(2 q reach) + 4 whose window lo_i..lo_i + W - 1 covers
    lo_i..ceil(q (xi_i + reach)) + 1 on every axis: that end minus lo_i is
    an integer below 2 q reach + 4.  The d W images of the (d, W) arrays
    are checked against DEFAULT_POINT_BUDGET before any is built, on the
    float span 2 q reach, so a reach past float range is refused too."""
    span = 2 * q * reach
    # len(xi) W > budget exactly when span > budget // len(xi) - 4
    if not span <= DEFAULT_POINT_BUDGET // len(xi) - 4:
        width = math.ceil(span) + 4 if math.isfinite(span) else span
        raise BudgetExceededError(f"poisson image window {width} on {len(xi)} "
                                  f"axes exceeds budget {DEFAULT_POINT_BUDGET}")
    return [math.floor(q * (x - reach)) - 1 for x in xi], math.ceil(span) + 4
