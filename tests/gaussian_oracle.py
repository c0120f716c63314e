"""Exact position statistics of a Gaussian packet under a quadratic Hamiltonian.

For psi0 = grids.gaussian(grid, center, width, momentum) and H0 given by a
QuadraticSpec, |exp(-i t H0) psi0|^2 is, in the continuum, a product of one
normal density per axis (Heller, J. Chem. Phys. 62, 1975).  With
g_k = g_k(2t) and h_k = h_k(2t) from mehler.trajectory_factors, the
Heisenberg flow x_k(t) = h_k x_k + g_k p_k - E_k t^2 of H0 = -Laplacian + U
gives axis k the

    mean      h_k c_k + g_k p_k - E_k t^2
    variance  h_k^2 w^2 / 2 + g_k^2 / (2 w^2)

since the packet's |psi0|^2 has variance w^2/2, its |F psi0|^2 variance
1/(2 w^2), and position and momentum are uncorrelated.  Expectations of
functions of one axis, or of |x| when every axis has mean 0 and one variance
(|x|/sigma then follows the chi distribution), are one-dimensional
integrals, done here by scipy's quad.  Test-only: scipy is a test
dependency.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from repscat.mehler import trajectory_factors
from repscat.potentials import QuadraticSpec

_QUAD = {"epsabs": 0.0, "epsrel": 1e-12, "limit": 500}


def _per_axis(value, dims: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), (dims,))


def axis_moments(t: float, spec: QuadraticSpec, center=0.0, width: float = 1.0,
                 momentum=0.0):
    """(means, variances) of the position density at time t, one per axis."""
    fac = trajectory_factors(t, spec)
    c, p = _per_axis(center, spec.dims), _per_axis(momentum, spec.dims)
    means = fac.h * c + fac.g * p - np.asarray(spec.axis_fields) * t**2
    variances = fac.h**2 * width**2 / 2.0 + fac.g**2 / (2.0 * width**2)
    return means, variances


def axis_mean_of(fn, t: float, spec: QuadraticSpec, axis: int = 0, center=0.0,
                 width: float = 1.0, momentum=0.0) -> float:
    """<fn(x_axis)> at time t: the integral against the normal density, split
    at x = 0 and taken on each half-line in u = ln|x|, with break points at
    |x| = 1 and at the density's mean and flanks.  At large t the density is
    far wider than the structure of the presets and of p_alpha near |x| ~ 1
    (sigma ~ 4e6 at t = 8 on a unit saddle); in u both scales are resolved,
    while a quad in x, or in the standardised variable (x - mean)/sigma even
    split at x = 0, can step over the narrow one entirely."""
    means, variances = axis_moments(t, spec, center, width, momentum)
    m, sigma = float(means[axis]), math.sqrt(float(variances[axis]))
    total = 0.0
    for side in (1.0, -1.0):  # x = side e^u
        mid = side * m
        top = mid + 40.0 * sigma
        if top <= 0.0:  # no mass on this half-line
            continue
        lo, hi = min(0.0, math.log(sigma)) - 40.0, math.log(top)
        flanks = [math.log(mid + k * sigma) for k in (-5.0, 0.0, 5.0) if mid + k * sigma > 0.0]
        weighted = lambda u: (float(fn(side * math.exp(u)))
                              * math.exp(u - ((math.exp(u) - mid) / sigma) ** 2 / 2.0))
        points = [u for u in [0.0] + flanks if lo < u < hi]
        total += quad(weighted, lo, hi, points=points, **_QUAD)[0]
    return total / (sigma * math.sqrt(2.0 * math.pi))


def radial_mean_of(fn, t: float, spec: QuadraticSpec, width: float = 1.0) -> float:
    """<fn(|x|)> at time t for a packet centred at 0 with zero momentum, on
    a spec whose axes all have one variance sigma^2: r = |x|/sigma follows
    the chi distribution with spec.dims degrees of freedom.  The integral is
    taken in u = ln r, as in axis_mean_of, with break points at |x| = 1 and
    at the bulk of the distribution, r = 1."""
    means, variances = axis_moments(t, spec, 0.0, width, 0.0)
    if np.any(means != 0.0) or not np.allclose(variances, variances[0], rtol=1e-14, atol=0.0):
        raise ValueError("the chi distribution needs zero means and one variance on every axis")
    d, sigma = spec.dims, math.sqrt(float(variances[0]))
    norm = 2.0 ** (d / 2.0 - 1.0) * math.gamma(d / 2.0)
    # r^(d-1) e^(-r^2/2) dr with r = e^u
    weighted = lambda u: float(fn(sigma * math.exp(u))) * math.exp(d * u - math.exp(2.0 * u) / 2.0)
    lo, hi = min(0.0, -math.log(sigma)) - 40.0, math.log(40.0)
    points = [u for u in (-math.log(sigma), 0.0) if lo < u < hi]
    return quad(weighted, lo, hi, points=points, **_QUAD)[0] / norm
