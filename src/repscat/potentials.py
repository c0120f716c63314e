"""Potential-energy data: the repulsive <x>^alpha family, general quadratic
saddles, perturbation decay classes, and the rescaled position variable."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .grids import Grid

#: Dead zone around the long/short-range boundary used by classify_decay;
#: finite-window log-log fits need it.
BORDERLINE_MARGIN = 0.05


def _check_alpha(alpha: float):
    if not (0.0 < alpha <= 2.0):
        raise ConfigurationError(f"alpha must lie in (0, 2], got {alpha}")


def bracket_x(x):
    """Japanese bracket <x> = sqrt(1 + |x|^2); accepts coordinate arrays."""
    return np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)


def bracket_r(*coords):
    """<x> for a point given per-axis coordinates."""
    r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
    return np.sqrt(1.0 + r2)


def p_alpha(x, alpha: float):
    """Rescaled position variable: ln<x> for alpha = 2, <x>^(1-alpha/2) below.

    ln<x> is evaluated as log1p(x^2)/2, which does not round 1 + x^2 first
    and so keeps full relative accuracy at small |x|."""
    _check_alpha(alpha)
    if alpha == 2.0:
        x = np.asarray(x, dtype=float)
        return 0.5 * np.log1p(x * x)
    return bracket_x(x) ** (1.0 - alpha / 2.0)


def p_alpha_inverse(p, alpha: float):
    """Radius |x| >= 0 such that p_alpha(|x|) = p (clipped at 0)."""
    _check_alpha(alpha)
    p = np.asarray(p, dtype=float)
    if alpha == 2.0:
        bx2 = np.exp(2.0 * p)
    else:
        bx2 = np.maximum(p, 0.0) ** (2.0 / (1.0 - alpha / 2.0))
    return np.sqrt(np.maximum(bx2 - 1.0, 0.0))


def sigma_alpha(alpha: float) -> float:
    """Asymptotic velocity: 2 - alpha for alpha < 2, and 2 at alpha = 2."""
    _check_alpha(alpha)
    return 2.0 if alpha == 2.0 else 2.0 - alpha


@dataclass(frozen=True)
class RepulsiveSpec:
    """The -<x>^alpha (or -|x|^alpha) repulsive potential family.

    Essential self-adjointness fails beyond alpha = 2, so that is a hard cap.
    The regularized form is canonical; the |x|^alpha form is kept for
    classical cross-checks away from the origin.
    """

    alpha: float
    regularized: bool = True

    def __post_init__(self):
        _check_alpha(self.alpha)

    def weight(self, *coords):
        """<x>^alpha (or |x|^alpha) at the given coordinates."""
        if self.regularized:
            return bracket_r(*coords) ** self.alpha
        r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
        return np.sqrt(r2) ** self.alpha

    def potential(self, *coords):
        return -self.weight(*coords)

    def potential_samples(self, grid: Grid) -> np.ndarray:
        return self.potential(*grid.meshgrid())


@dataclass(frozen=True)
class QuadraticSpec:
    """Sector data of the general quadratic Hamiltonian

        H0 = -Laplacian - sum_{k<n-} w_k^2 x_k^2 + sum w_k^2 x_k^2 + sum E_k x_k,

    with n_minus + n_plus + n_E <= dims; remaining coordinates are free.
    """

    dims: int
    n_minus: int = 0
    n_plus: int = 0
    n_E: int = 0
    omegas: Sequence[float] = ()
    fields: Sequence[float] = ()

    def __post_init__(self):
        if min(self.n_minus, self.n_plus, self.n_E) < 0:
            raise ConfigurationError("sector counts must be nonnegative")
        if self.n_minus + self.n_plus + self.n_E > self.dims:
            raise ConfigurationError("n_minus + n_plus + n_E exceeds dims")
        omegas = tuple(float(w) for w in self.omegas)
        fields = tuple(float(e) for e in self.fields)
        if len(omegas) != self.n_minus + self.n_plus:
            raise ConfigurationError("need one omega per quadratic coordinate")
        if len(fields) != self.n_E:
            raise ConfigurationError("need one field strength per Stark coordinate")
        if any(w <= 0 for w in omegas):
            raise ConfigurationError("omega_k must be > 0")
        if any(e == 0 for e in fields):
            raise ConfigurationError("E_k must be nonzero")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "fields", fields)

    def sector(self, axis: int) -> str:
        if axis < 0 or axis >= self.dims:
            raise ConfigurationError(f"axis {axis} out of range for dims {self.dims}")
        if axis < self.n_minus:
            return "hyperbolic"
        if axis < self.n_minus + self.n_plus:
            return "trigonometric"
        if axis < self.n_minus + self.n_plus + self.n_E:
            return "stark"
        return "free"

    def omega(self, axis: int) -> float:
        return self.omegas[axis]

    def field(self, axis: int) -> float:
        return self.fields[axis - self.n_minus - self.n_plus]

    def potential_samples(self, grid: Grid) -> np.ndarray:
        if grid.dims != self.dims:
            raise ConfigurationError("grid dims do not match quadratic spec dims")
        return eval_quadratic(grid.meshgrid(), self)


def eval_quadratic(point, spec: QuadraticSpec):
    """U(x) with the saddle/confining/Stark sector layout of the spec."""
    coords = [np.asarray(c, dtype=float) for c in point]
    if len(coords) != spec.dims:
        raise ConfigurationError(
            f"point has {len(coords)} coordinates, spec has dims {spec.dims}"
        )
    out = 0.0
    for k, c in enumerate(coords):
        sector = spec.sector(k)
        if sector == "hyperbolic":
            out = out - spec.omega(k) ** 2 * c**2
        elif sector == "trigonometric":
            out = out + spec.omega(k) ** 2 * c**2
        elif sector == "stark":
            out = out + spec.field(k) * c
    return out


@dataclass(frozen=True)
class PerturbationSpec:
    """V = V1 (compact) + V2 (short range) + W (per-coordinate product decay).

    v1/v2 are callables of the grid coordinates; W is represented by its
    per-coordinate decay exponents beta_j >= 0 (the canonical product form is
    built against a QuadraticSpec sector layout via w_samples).
    """

    v1: Optional[Callable] = None
    v1_radius: float = 0.0
    v2: Optional[Callable] = None
    v2_epsilon: float = 0.0
    w_betas: Sequence[float] = ()

    def __post_init__(self):
        if self.v1 is not None and not self.v1_radius > 0:
            raise ConfigurationError("v1 requires a positive support radius")
        if self.v2_epsilon < 0:
            raise ConfigurationError("claimed v2 decay exponent must be >= 0")
        if any(b < 0 for b in self.w_betas):
            raise ConfigurationError("W decay exponents beta_j must be >= 0")
        object.__setattr__(self, "w_betas", tuple(float(b) for b in self.w_betas))

    def v1_samples(self, grid: Grid) -> np.ndarray:
        if self.v1 is None:
            return np.zeros(grid.shape)
        coords = grid.meshgrid()
        vals = np.asarray(self.v1(*coords), dtype=float)
        r2 = sum(c**2 for c in coords)
        outside = r2 > self.v1_radius**2
        if np.any(np.abs(vals[outside]) > 0):
            raise ConfigurationError("v1 does not vanish outside its declared radius")
        return vals

    def v2_samples(self, grid: Grid) -> np.ndarray:
        if self.v2 is None:
            return np.zeros(grid.shape)
        vals = np.asarray(self.v2(*grid.meshgrid()), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("v2 must be bounded on the lattice")
        return vals

    def w_samples(self, grid: Grid, quad: Optional[QuadraticSpec] = None) -> np.ndarray:
        if not self.w_betas:
            return np.zeros(grid.shape)
        if len(self.w_betas) != grid.dims:
            raise ConfigurationError("need one beta per coordinate")
        quad = quad or QuadraticSpec(dims=grid.dims)
        return w_product(grid.meshgrid(), self.w_betas, quad)


def w_product(coords, betas, quad: QuadraticSpec):
    """Canonical decay-class product: <ln<x_j>>^-beta on hyperbolic axes,
    <x_j>^(-beta/2) on Stark axes, <x_j>^-beta elsewhere."""
    out = 1.0
    for j, c in enumerate(coords):
        b = betas[j]
        if b == 0:
            continue
        sector = quad.sector(j)
        if sector == "hyperbolic":
            out = out * bracket_x(np.log(bracket_x(c))) ** (-b)
        elif sector == "stark":
            out = out * bracket_x(c) ** (-b / 2.0)
        else:
            out = out * bracket_x(c) ** (-b)
    return out


# ---------------------------------------------------------------------------
# Symbolic perturbation presets for config files.
# ---------------------------------------------------------------------------

def preset_power(height: float, exponent: float) -> Callable:
    """height * <x>^(-exponent)."""
    return lambda *c: height * bracket_r(*c) ** (-exponent)


def preset_log_power(height: float, exponent: float) -> Callable:
    """height * <ln<x>>^(-exponent)."""
    return lambda *c: height * bracket_x(np.log(bracket_r(*c))) ** (-exponent)


def preset_gaussian_bump(height: float, width: float) -> Callable:
    return lambda *c: height * np.exp(-sum(np.asarray(x) ** 2 for x in c) / (2.0 * width**2))


def preset_compact_bump(height: float, radius: float) -> Callable:
    """Smooth bump supported in |x| <= radius (classic exp(-1/(1-u^2)) profile)."""

    def bump(*c):
        u2 = sum(np.asarray(x, dtype=float) ** 2 for x in c) / radius**2
        out = np.zeros(np.shape(u2))
        inside = u2 < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.exp(1.0 - 1.0 / (1.0 - np.where(inside, u2, 0.0)))
        out = np.where(inside, height * vals, 0.0)
        return out

    return bump


def preset_short_range(alpha: float, epsilon: float, height: float = 1.0) -> Callable:
    """height * (1 + p_alpha(x))^(-1-epsilon): a bounded representative of the
    short-range class |V| <~ p_alpha^(-1-epsilon)."""
    _check_alpha(alpha)
    return lambda *c: height * (1.0 + _p_alpha_point(alpha, *c)) ** (-1.0 - epsilon)


def preset_borderline(alpha: float, height: float = 1.0) -> Callable:
    """height * (1 + p_alpha(x))^(-1): bounded, with the exact borderline
    p_alpha^(-1) tail separating long- from short-range behaviour."""
    _check_alpha(alpha)
    return lambda *c: height * (1.0 + _p_alpha_point(alpha, *c)) ** (-1.0)


def _p_alpha_point(alpha, *coords):
    r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
    return p_alpha(np.sqrt(r2), alpha)


PRESETS = {
    "power": preset_power,
    "log-power": preset_log_power,
    "gaussian-bump": preset_gaussian_bump,
    "compact-bump": preset_compact_bump,
    "short-range": preset_short_range,
    "borderline": preset_borderline,
}


def classify_decay(v2_samples, p_values, window=None):
    """Log-log decay fit of |V2| against p_alpha along sampled rays.

    Parameters
    ----------
    v2_samples, p_values : arrays of equal length
        |V2(x)| samples and p_alpha(x) at the same points.
    window : (p_lo, p_hi), optional
        Fit window in p; defaults to the full sampled range.

    Returns
    -------
    dict with slope, exponent_estimate (eps-hat = -slope - 1),
    short_range_verdict, and an infinite_decay flag for identically-zero V2.
    """
    v = np.abs(np.asarray(v2_samples, dtype=float)).ravel()
    p = np.asarray(p_values, dtype=float).ravel()
    if v.shape != p.shape:
        raise ConfigurationError("v2 samples and p values must align")
    keep = (v > 0) & (p > 0)
    if window is not None:
        keep &= (p >= window[0]) & (p <= window[1])
    if not np.any(v > 0):
        return {
            "slope": -np.inf,
            "exponent_estimate": np.inf,
            "short_range_verdict": True,
            "infinite_decay": True,
        }
    p, v = p[keep], v[keep]
    if p.size < 2 or np.max(p) / np.min(p) < 10.0:
        raise ConfigurationError("samples must span at least one decade of p_alpha")
    slope = float(np.polyfit(np.log(p), np.log(v), 1)[0])
    return {
        "slope": slope,
        "exponent_estimate": -slope - 1.0,
        "short_range_verdict": slope <= -1.0 - BORDERLINE_MARGIN,
        "infinite_decay": False,
    }
