"""Fourier transform of normalized surface measure on spheres, and the
closed radial profile of the heat-multiplier main term.

For the unit sphere S^{d-1} in R^d with normalized (probability) surface
measure, the transform depends only on rho = |xi| and equals

    sigma_hat(rho) = Gamma(d/2) (pi rho)^{1 - d/2} J_{d/2 - 1}(2 pi rho),

so sigma_hat(0) = 1.  For d = 3 this is sin(2 pi rho)/(2 pi rho); for d = 5,
with z = 2 pi rho, it is 3 (sin z - z cos z) / z^3.  Two independent
oracles are provided: a deterministic product-angle quadrature over
hyperspherical coordinates, and a stratified Monte-Carlo average over the
projection of uniform sphere samples.  The quadrature is summed folded
over its mirror nodes theta <-> pi - theta (and phi <-> phi + pi for an
even azimuth count): a mirror pair flips one term a of the phase, and
cos(A + a) + cos(A - a) = 2 cos A cos a turns the sum over the pairs into
a product of cosines, so 1/2^(d-1) of the nodes give the same rule.

The main-term profile at integer radius-squared k (lambda = sqrt(k)) is

    j_main(xi) = c_d lambda^{d-2} sigma_hat(lambda |xi|) / r_d(k),
    c_d = pi^{d/2} / Gamma(d/2),

evaluated at one frequency or at every row of a (rows, d) array at once,
and the same quantity is recovered (eps-independently) by the full-line
oscillatory integral

    e^{2 pi eps k} / r_d(k) * Integral over t of
        e^{-2 pi i k t} (2(eps - i t))^{-d/2} exp(-pi |xi|^2 / (2(eps - i t))) dt,

which j_main_integral evaluates with oscillation-aware panel quadrature and
a certified truncation tail of size at most (2/(d-2)) T^{1 - d/2} times the
prefactor.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .lattice import check_budget, rep_count

_SERIES_CUTOFF = 0.1  # switch to the power series when pi*rho is below this
PANEL_NODES = 12      # Gauss-Legendre nodes per panel of panel_quadrature
J_MAIN_T_MAX = 1.0e3  # j_main_integral integrates over |t| <= this
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # math.exp overflows past it


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(n), the n-node Gauss-Legendre nodes and weights on [-1, 1],
    built once per size (the last 64 sizes kept) and read-only, since every
    caller shares them."""
    nodes, weights = leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def radial_constant(d: int) -> float:
    """c_d = pi^{d/2} / Gamma(d/2); for d = 5 this is (4/3) pi^2."""
    return math.pi ** (d / 2) / math.gamma(d / 2)


def _sigma_series(d: int, rho: np.ndarray) -> np.ndarray:
    """Power series around 0: sum_m (-1)^m (pi rho)^{2m} Gamma(d/2)/(m! Gamma(m + d/2))."""
    x = (np.pi * rho) ** 2
    out = np.zeros_like(x)
    term = np.ones_like(x)
    for m in range(0, 24):
        out = out + term
        term = term * (-x) / ((m + 1) * (m + d / 2))
        if np.all(np.abs(term) < 1e-18):
            break
    return out


def unit_sphere_ft(d: int, rho) -> float | np.ndarray:
    """sigma_hat at radial frequency rho >= 0 (scalar or array)."""
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")
    rho = np.asarray(rho, dtype=float)
    scalar = rho.ndim == 0
    rho = np.atleast_1d(rho)
    if np.any(rho < 0):
        raise ValueError("radial frequency must be >= 0")
    out = np.empty_like(rho)
    small = np.pi * rho < _SERIES_CUTOFF
    out[small] = _sigma_series(d, rho[small])
    big = ~small
    z = 2.0 * np.pi * rho[big]
    if d == 3:
        out[big] = np.sin(z) / z
    elif d == 5:
        out[big] = 3.0 * (np.sin(z) - z * np.cos(z)) / z**3
    else:
        # imported here: scipy.special doubles the package's import time
        from scipy.special import gammaln, jv
        nu = d / 2 - 1
        log_pref = gammaln(d / 2) - nu * np.log(z / 2.0)
        out[big] = np.exp(log_pref) * jv(nu, z)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# oracles


def sphere_ft_quadrature(d: int, xi, n_polar: int = 32, n_azimuth: int = 96) -> float:
    """Deterministic product-angle quadrature of the surface integral.

    Hyperspherical coordinates: Gauss-Legendre in each polar angle theta_j
    on [0, pi] with weight sin^{d-2-j}, equispaced points in the azimuth
    phi.  Evaluates at a full vector frequency xi (not just a radius), so
    it also exercises rotational invariance.

    The rule is summed folded over its mirror nodes.  The phase xi.x is
    a_0 + ... + a_{d-3} + b with a_j = s_j xi_j cos theta_j and
    b = s_{d-2} (xi_{d-2} cos phi + xi_{d-1} sin phi), where s_j is the
    product of sin theta_i over i < j.  The Gauss-Legendre nodes pair
    theta with pi - theta at equal weights, which flips cos theta_j and no
    sine, so by cos(A + a) + cos(A - a) = 2 cos A cos a the pairs of every
    level sum to

        2^(levels) cos(2 pi a_0) ... cos(2 pi a_{d-3}) cos(2 pi b);

    with an even n_azimuth, phi and phi + pi flip b, and cos is even.  So
    only the nodes theta <= pi/2 (the middle one, for odd n_polar, at
    weight 1, the others at weight 2) and phi < pi (all phi, at weight 1,
    for odd n_azimuth) are evaluated: 1/2^(d-1) of the grid.  Levels are
    reduced from the inside out, the cosines of b over phi, then each
    level's cosine factor and weights; the outer angle theta_0 is streamed
    in blocks of at most DEFAULT_POINT_BUDGET phases.  The inner grid
    n_polar^(d-3) * n_azimuth of the unfolded rule is checked against
    DEFAULT_POINT_BUDGET before anything is allocated, so a row fits a block.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if n_polar < 1:
        raise ValueError(f"n_polar must be >= 1, got {n_polar}")
    if n_azimuth < 1:
        raise ValueError(f"n_azimuth must be >= 1, got {n_azimuth}")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (d,):
        raise ValueError(f"xi must have shape ({d},)")
    inner = n_polar ** max(d - 3, 0) * n_azimuth
    budget = check_budget(inner, f"inner grid of {inner} nodes")
    # phi < pi, each standing for itself and phi + pi when n_azimuth is even
    folded = n_azimuth % 2 == 0
    phi = 2.0 * np.pi * np.arange(n_azimuth // 2 if folded else n_azimuth) / n_azimuth
    w_phi = np.full(len(phi), 2.0 if folded else 1.0)
    arm = 2.0 * np.pi * (xi[d - 2] * np.cos(phi) + xi[d - 1] * np.sin(phi))
    if d == 2:
        return float(np.cos(arm) @ w_phi) / n_azimuth
    nodes, weights = gauss_legendre(n_polar)
    half = (n_polar + 1) // 2                      # theta <= pi/2
    theta = 0.5 * np.pi * (nodes[:half] + 1.0)
    w_theta = np.pi * weights[:half]               # twice the weight of one node
    if n_polar % 2:
        w_theta[-1] *= 0.5                         # the middle node, theta = pi/2
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    w_level = [w_theta * sin_t ** (d - 2 - j) for j in range(d - 2)]
    rows = budget // (half ** (d - 3) * len(phi))
    total = 0.0
    for lo in range(0, half, rows):
        # s_j over the block, and the cosine factor of each level j >= 1
        s = sin_t[lo:lo + rows]
        factors = []
        for j in range(1, d - 2):
            factors.append(np.cos(np.multiply.outer(s, 2.0 * np.pi * xi[j] * cos_t)))
            s = np.multiply.outer(s, sin_t)
        block = np.multiply.outer(s, arm)
        np.cos(block, out=block)
        reduced = block @ w_phi
        for j in range(d - 3, 0, -1):
            reduced = (factors[j - 1] * reduced) @ w_level[j]
        outer = np.cos(2.0 * np.pi * xi[0] * cos_t[lo:lo + rows])
        total += float((outer * reduced) @ w_level[0][lo:lo + rows])
    return total / (math.prod(float(w.sum()) for w in w_level) * n_azimuth)


def sphere_ft_montecarlo(d: int, rho: float, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Stratified Monte-Carlo oracle over the 1-d projection of sphere samples.

    For x uniform on S^{d-1} and a unit vector e, the projection u = e.x has
    density proportional to (1 - u^2)^{(d-3)/2}, i.e. (1+u)/2 is
    Beta((d-1)/2, (d-1)/2).  Samples are drawn by inverse CDF on a
    stratified uniform grid (one uniform jitter per stratum, PCG64 stream),
    which keeps each sample marginally uniform on the sphere while bringing
    the integration error well below the iid-sampling noise floor.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    check_budget(n_samples, f"{n_samples} Monte Carlo samples")
    from scipy.special import betaincinv
    rng = np.random.default_rng(seed)
    v = (np.arange(n_samples) + rng.random(n_samples)) / n_samples
    half = (d - 1) / 2.0
    u = 2.0 * betaincinv(half, half, v) - 1.0
    return float(np.cos(2.0 * np.pi * rho * u).mean())


# ---------------------------------------------------------------------------
# main-term radial profile


def j_main(d: int, k: int, xi) -> float | np.ndarray:
    """c_d lambda^{d-2} sigma_hat(lambda |xi|) / r_d(k) with lambda = sqrt(k).

    xi is one frequency of shape (d,), which gives a float, or a (rows, d)
    array, which gives one value per row from a single unit_sphere_ft call
    on the radii.  A row's value does not depend on the rows beside it.
    """
    rd = rep_count(d, k)
    if rd == 0:
        raise ValueError(f"k={k} has no representation as {d} squares")
    lam = math.sqrt(k)
    rho = lam * np.linalg.norm(np.asarray(xi, dtype=float), axis=-1)
    return radial_constant(d) * lam ** (d - 2) * unit_sphere_ft(d, rho) / rd


def heat_phase_factor(d: int, eps: float, t: np.ndarray, xi_norm_sq: float) -> np.ndarray:
    """(2(eps - i t))^{-d/2} exp(-pi |xi|^2 / (2(eps - i t))), principal branch,
    the power taken as (z^{-1/2})^d = (1/sqrt z)^d, exact for integer d."""
    z = 2.0 * (eps - 1j * np.asarray(t, dtype=float))
    return (1.0 / np.sqrt(z)) ** d * np.exp(-np.pi * xi_norm_sq / z)


def undamping(k: int, eps: float) -> float:
    """e^{2 pi eps k}, the factor that undoes the heat damping of eps at
    radius-squared k; a ValueError naming k and eps where it overflows a
    float (2 pi eps k above ln(float max) = 709.78)."""
    exponent = 2.0 * math.pi * eps * k
    if exponent > _LOG_FLOAT_MAX:
        raise ValueError(f"k={k}, eps={eps}: e^(2 pi eps k) = e^{exponent:.6g} "
                         f"overflows a float (2 pi eps k <= {_LOG_FLOAT_MAX:.6g})")
    return math.exp(exponent)


def panel_quadrature(lo: float, hi: float, k: int,
                     eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi] for e^{-2 pi i k s} times
    a heat kernel of damping eps.

    Panels span at most a quarter period of the oscillation and at most
    eps/2 (the kernel scale near its center), PANEL_NODES nodes each.  The
    nodes are checked against DEFAULT_POINT_BUDGET before any is built, the
    panel count kept as a float when it is not finite, so a width that
    underflows to 0 or a count past float range is refused by name too.
    """
    width = min(1.0 / (4.0 * max(k, 1)), eps / 2.0)
    panels = (hi - lo) / width if width > 0.0 else math.inf
    n_panels = math.ceil(panels) if math.isfinite(panels) else panels
    check_budget(n_panels * PANEL_NODES, f"{n_panels} panels of {PANEL_NODES} nodes")
    edges = np.linspace(lo, hi, n_panels + 1)
    gl_x, gl_w = gauss_legendre(PANEL_NODES)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    weights = (half[:, None] * gl_w[None, :]).ravel()
    return nodes, weights


def j_main_integral(d: int, k: int, xi, eps: float) -> tuple[float, float]:
    """Full-line oscillatory integral form of j_main; returns (value, tail_bound).

    panel_quadrature over |t| <= t_max = J_MAIN_T_MAX, after undamping
    has checked the prefactor e^{2 pi eps k}, summed folded over t <-> -t:
    z(-t) = conj z(t), so the integrand at -t is the conjugate of the one at
    t, and the panel rule is symmetric about 0 (to the last bit where the
    panel width is a power of 2) with no node at 0, so the real part is
    twice that of the sum over the nodes t > 0.  The omitted
    |t| > t_max tail is bounded by 2 * Integral (2t)^{-d/2} dt
    = (2/(d-2)) (2 t_max)^{1-d/2} * 2^{...}; the exact expression used is
    below and is returned scaled like the value.  An eps that is not a
    positive finite float is refused by name.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if d < 3:
        raise ValueError("the full-line integral needs d >= 3 to converge")
    rd = rep_count(d, k)
    if rd == 0:
        raise ValueError(f"k={k} has no representation as {d} squares")
    prefactor = undamping(k, eps) / rd  # refused before the panels are built
    xi = np.asarray(xi, dtype=float)
    xi_norm_sq = float(xi @ xi)
    t_max = J_MAIN_T_MAX
    t, w = panel_quadrature(-t_max, t_max, k, eps)
    upper = t > 0.0  # half the nodes, each standing for its mirror too
    t, w = t[upper], w[upper]
    # Re(e^{-i theta} h) = cos(theta) Re h + sin(theta) Im h
    theta = 2.0 * np.pi * np.mod(k * t, 1.0)
    h = heat_phase_factor(d, eps, t, xi_norm_sq)
    integral = 2.0 * float(w @ (np.cos(theta) * h.real + np.sin(theta) * h.imag))
    # |heat_phase_factor| <= (2 t)^{-d/2} for |t| >= t_max >> eps
    tail = 2.0 * (2.0 ** (-d / 2)) * t_max ** (1 - d / 2) / (d / 2 - 1)
    return prefactor * integral, prefactor * tail
