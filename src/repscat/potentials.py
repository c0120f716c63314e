"""Potential-energy data: the repulsive <x>^alpha family, general quadratic
saddles, the W decay-class product, perturbation presets, and the rescaled
position variable."""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, check_integer, check_width
from .grids import Grid


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha <= 2.0):
        raise ConfigurationError(f"alpha must lie in (0, 2], got {alpha}")
    return alpha


def radius_sq(*coords):
    """|x|^2 = sum_k x_k^2 for a point given per-axis coordinates (broadcast).
    The sum starts from the first square, so no coordinate pays an add to 0."""
    squares = (np.asarray(c, dtype=float) ** 2 for c in coords)
    return sum(squares, next(squares, 0))


def bracket_x(*coords):
    """Japanese bracket <x> = sqrt(1 + |x|^2) for per-axis coordinates (broadcast).
    An array |x|^2 is radius_sq's own fresh result, so 1 is added and the root
    taken in place; a scalar |x|^2 takes the same two operations by value."""
    r2 = radius_sq(*coords)
    out = r2 if isinstance(r2, np.ndarray) else None
    return np.sqrt(np.add(r2, 1.0, out=out), out=out)


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
        with np.errstate(over="ignore"):  # p > ~354.9: the radius is inf, as it should be
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

    def potential_samples(self, grid: Grid) -> np.ndarray:
        """-<x>^alpha (or -|x|^alpha) at the grid's nodes."""
        coords = grid.meshgrid()
        if self.regularized:
            return -(bracket_x(*coords) ** self.alpha)
        return -(np.sqrt(radius_sq(*coords)) ** self.alpha)


@dataclass(frozen=True)
class QuadraticSpec:
    """Sector data of the general quadratic Hamiltonian

        H0 = -Laplacian - sum_{k<n-} w_k^2 x_k^2 + sum w_k^2 x_k^2 + sum E_k x_k,

    with n_minus + n_plus + n_E <= dims.  Axes come in that order (hyperbolic,
    trigonometric, Stark, then free), and __post_init__ lays them out once as
    per-axis tuples: `sectors`, `axis_omegas` (w_k on hyperbolic and
    trigonometric axes, 0.0 elsewhere) and `axis_fields` (E_k on Stark axes,
    0.0 elsewhere).
    """

    dims: int
    n_minus: int = 0
    n_plus: int = 0
    n_E: int = 0
    omegas: Sequence[float] = ()
    fields: Sequence[float] = ()
    sectors: tuple = dataclasses.field(init=False, repr=False, compare=False)
    axis_omegas: tuple = dataclasses.field(init=False, repr=False, compare=False)
    axis_fields: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in ("dims", "n_minus", "n_plus", "n_E"):
            check_integer(getattr(self, key), key, minimum=0)
        if self.n_minus + self.n_plus + self.n_E > self.dims:
            raise ConfigurationError("n_minus + n_plus + n_E exceeds dims")
        omegas = tuple(float(w) for w in self.omegas)
        fields = tuple(float(e) for e in self.fields)
        if len(omegas) != self.n_minus + self.n_plus:
            raise ConfigurationError("need one omega per quadratic coordinate")
        if len(fields) != self.n_E:
            raise ConfigurationError("need one field strength per Stark coordinate")
        # below the least normal float, w * 2s rounds to 0 or to a few
        # subnormal steps at the times a run takes, so g_k(2s) is 0 or coarse
        if any(not w >= sys.float_info.min for w in omegas):
            raise ConfigurationError(
                f"omega_k must be > 0 and a normal float (at least {sys.float_info.min:.3g}), "
                f"got {omegas!r}; an axis with no quadratic term is a free axis: leave it out "
                "of n_minus and n_plus")
        if any(e == 0 for e in fields):
            raise ConfigurationError("E_k must be nonzero")
        n_free = self.dims - len(omegas) - len(fields)
        sectors = (("hyperbolic",) * self.n_minus + ("trigonometric",) * self.n_plus
                   + ("stark",) * self.n_E + ("free",) * n_free)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "axis_omegas", omegas + (0.0,) * (self.n_E + n_free))
        object.__setattr__(self, "axis_fields", (0.0,) * len(omegas) + fields + (0.0,) * n_free)

    def potential_samples(self, grid: Grid) -> np.ndarray:
        return eval_quadratic(grid.meshgrid(), self)


def eval_quadratic(point, spec: QuadraticSpec):
    """U(x) with the saddle/confining/Stark sector layout of the spec."""
    coords = [np.asarray(c, dtype=float) for c in point]
    if len(coords) != spec.dims:
        raise ConfigurationError(
            f"point has {len(coords)} coordinates, spec has dims {spec.dims}"
        )
    out = 0.0
    for c, sector, w, e in zip(coords, spec.sectors, spec.axis_omegas, spec.axis_fields):
        if sector == "hyperbolic":
            out = out - w**2 * c**2
        elif sector == "trigonometric":
            out = out + w**2 * c**2
        elif sector == "stark":
            out = out + e * c
    return out


def w_product(coords, betas, quad: QuadraticSpec):
    """Canonical decay-class product: <ln<x_j>>^-beta on hyperbolic axes,
    <x_j>^(-beta/2) on Stark axes, <x_j>^-beta elsewhere."""
    if len(coords) != quad.dims:
        raise ConfigurationError(
            f"point has {len(coords)} coordinates, spec has dims {quad.dims}")
    out = 1.0
    for j, (c, sector) in enumerate(zip(coords, quad.sectors)):
        b = betas[j]
        if b == 0:
            continue
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
    return lambda *c: height * bracket_x(*c) ** (-exponent)


def preset_log_power(height: float, exponent: float) -> Callable:
    """height * <ln<x>>^(-exponent)."""
    return lambda *c: height * bracket_x(np.log(bracket_x(*c))) ** (-exponent)


def preset_gaussian_bump(height: float, width: float) -> Callable:
    check_width(width, "width")
    return lambda *c: height * np.exp(-radius_sq(*c) / (2.0 * width**2))


def preset_compact_bump(height: float, radius: float) -> Callable:
    """Smooth bump supported in |x| <= radius (classic exp(-1/(1-u^2)) profile)."""
    check_width(radius, "radius")

    def bump(*c):
        u2 = radius_sq(*c) / radius**2
        inside = u2 < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            vals = np.exp(1.0 - 1.0 / (1.0 - np.where(inside, u2, 0.0)))
        return np.where(inside, height * vals, 0.0)

    return bump


def preset_short_range(alpha: float, epsilon: float, height: float = 1.0) -> Callable:
    """height * (1 + p_alpha(x))^(-1-epsilon): a bounded representative of the
    short-range class |V| <~ p_alpha^(-1-epsilon)."""
    _check_alpha(alpha)
    return lambda *c: height * (1.0 + p_alpha(np.sqrt(radius_sq(*c)), alpha)) ** (-1.0 - epsilon)


def preset_borderline(alpha: float, height: float = 1.0) -> Callable:
    """Short-range at epsilon = 0: bounded, with the exact borderline
    p_alpha^(-1) tail separating long- from short-range behaviour."""
    return preset_short_range(alpha, 0.0, height)


PRESETS = {
    "power": preset_power,
    "log-power": preset_log_power,
    "gaussian-bump": preset_gaussian_bump,
    "compact-bump": preset_compact_bump,
    "short-range": preset_short_range,
    "borderline": preset_borderline,
}
