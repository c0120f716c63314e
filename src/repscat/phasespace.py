"""Symbol-level Mourre machinery: conjugate symbols, Poisson brackets against
h = xi^2 - <x>^alpha, and energy-shell scans for the lower bound sigma - eta."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .csvout import write_rows
from .errors import ConfigurationError
from .potentials import bracket_x, sigma_alpha


@dataclass(frozen=True)
class SymbolFn:
    """Scalar phase-space symbol with its analytic partials.

    fn(x, xi) -> value; grad_x/grad_xi mirror the signature.  All entries
    accept arrays and broadcast.
    """

    fn: Callable
    grad_x: Callable
    grad_xi: Callable

    def value(self, x, xi):
        return self.fn(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))

    def dx(self, x, xi):
        return self.grad_x(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))

    def dxi(self, x, xi):
        return self.grad_xi(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))


def poisson_bracket(h: SymbolFn, a: SymbolFn, x, xi):
    """{h, a} = dh/dxi * da/dx - dh/dx * da/dxi (1-D symbols)."""
    return h.dxi(x, xi) * a.dx(x, xi) - h.dx(x, xi) * a.dxi(x, xi)


# ---------------------------------------------------------------------------
# The fixed smooth cutoff: support [-1/2, 1/2], plateau [-1/4, 1/4].
# ---------------------------------------------------------------------------

class CutoffSpec:
    """C-infinity bump psi: 1 on [-plateau, plateau], 0 outside [-support, support].

    The shoulder is the smooth step S(v) = f(1+v) / (f(1+v) + f(1-v)) with
    f(s) = exp(-1/s) for s > 0 and 0 otherwise (Hormander, The Analysis of
    Linear Partial Differential Operators I, ch. 1), where v runs from 1 at
    |u| = plateau to -1 at |u| = support.  The value and the derivative come
    from the same closed form.
    """

    support = 0.5
    plateau = 0.25

    def _shoulder(self, u):
        """v clipped to [-1, 1], with f(1 + v) and f(1 - v)."""
        v = np.clip((self.support + self.plateau - 2.0 * np.abs(u))
                    / (self.support - self.plateau), -1.0, 1.0)
        with np.errstate(divide="ignore"):
            return v, np.exp(-1.0 / (1.0 + v)), np.exp(-1.0 / (1.0 - v))

    def __call__(self, u):
        _, p, q = self._shoulder(np.asarray(u, dtype=float))
        return p / (p + q)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        v, p, q = self._shoulder(u)
        # f'(s) = f(s)/s^2, so dS/dv = p q (1/(1+v)^2 + 1/(1-v)^2) / (p+q)^2,
        # which is 0 at v = +-1, where one of the 1/s^2 factors is not finite
        inside = np.abs(v) < 1.0
        w = np.where(inside, v, 0.0)
        ds_dv = np.where(inside, p * q * (1.0 / (1.0 + w) ** 2 + 1.0 / (1.0 - w) ** 2)
                         / (p + q) ** 2, 0.0)
        return -np.sign(u) * ds_dv * 2.0 / (self.support - self.plateau)


DEFAULT_CUTOFF = CutoffSpec()


# ---------------------------------------------------------------------------
# Symbols.
# ---------------------------------------------------------------------------

def symbol_a2(x, xi):
    """Conjugate symbol for alpha = 2: ln<xi + x> - ln<xi - x>."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return np.log(bracket_x(xi + x)) - np.log(bracket_x(xi - x))


def a2_symbol() -> SymbolFn:
    def dx(x, xi):
        return (xi + x) / (1.0 + (xi + x) ** 2) + (xi - x) / (1.0 + (xi - x) ** 2)

    def dxi(x, xi):
        return (xi + x) / (1.0 + (xi + x) ** 2) - (xi - x) / (1.0 + (xi - x) ** 2)

    return SymbolFn(fn=symbol_a2, grad_x=dx, grad_xi=dxi)


def a2_bracket_closed_form(x, xi):
    """{xi^2 - x^2, a2} = 2(xi+x)^2/<xi+x>^2 + 2(xi-x)^2/<xi-x>^2."""
    p = np.asarray(xi, dtype=float) + np.asarray(x, dtype=float)
    m = np.asarray(xi, dtype=float) - np.asarray(x, dtype=float)
    return 2.0 * p**2 / (1.0 + p**2) + 2.0 * m**2 / (1.0 + m**2)


def _shell_ratio(x, xi, alpha):
    bx_a = bracket_x(x) ** alpha
    return (xi**2 - bx_a) / (xi**2 + bx_a)


def symbol_a_alpha(x, xi, alpha):
    """Conjugate symbol for alpha < 2:
    x xi <x>^-alpha psi((xi^2 - <x>^alpha)/(xi^2 + <x>^alpha))."""
    if not (0.0 < alpha < 2.0):
        raise ConfigurationError("symbol_a_alpha requires alpha in (0, 2)")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return x * xi * bracket_x(x) ** (-alpha) * DEFAULT_CUTOFF(_shell_ratio(x, xi, alpha))


def a_alpha_symbol(alpha: float) -> SymbolFn:
    def fn(x, xi):
        return symbol_a_alpha(x, xi, alpha)

    def du_dx(x, xi):
        bx = bracket_x(x)
        bx_a = bx**alpha
        dbx_a = alpha * bx ** (alpha - 2.0) * x
        denom = (xi**2 + bx_a) ** 2
        return (-dbx_a * (xi**2 + bx_a) - (xi**2 - bx_a) * dbx_a) / denom

    def du_dxi(x, xi):
        bx_a = bracket_x(x) ** alpha
        denom = (xi**2 + bx_a) ** 2
        return (2 * xi * (xi**2 + bx_a) - (xi**2 - bx_a) * 2 * xi) / denom

    def dx(x, xi):
        bx = bracket_x(x)
        u = _shell_ratio(x, xi, alpha)
        core = x * xi * bx ** (-alpha)
        dcore = xi * bx ** (-alpha) - alpha * x**2 * xi * bx ** (-alpha - 2.0)
        return (dcore * DEFAULT_CUTOFF(u)
                + core * DEFAULT_CUTOFF.derivative(u) * du_dx(x, xi))

    def dxi(x, xi):
        bx = bracket_x(x)
        u = _shell_ratio(x, xi, alpha)
        core = x * xi * bx ** (-alpha)
        return (x * bx ** (-alpha) * DEFAULT_CUTOFF(u)
                + core * DEFAULT_CUTOFF.derivative(u) * du_dxi(x, xi))

    return SymbolFn(fn=fn, grad_x=dx, grad_xi=dxi)


def hamiltonian_symbol(alpha: float) -> SymbolFn:
    """h = xi^2 - <x>^alpha with analytic partials."""

    def fn(x, xi):
        return xi**2 - bracket_x(x) ** alpha

    def dx(x, xi):
        return -alpha * bracket_x(x) ** (alpha - 2.0) * np.asarray(x, dtype=float) \
            + 0.0 * np.asarray(xi, dtype=float)

    def dxi(x, xi):
        return 2.0 * np.asarray(xi, dtype=float) + 0.0 * np.asarray(x, dtype=float)

    return SymbolFn(fn=fn, grad_x=dx, grad_xi=dxi)


def plain_hamiltonian_symbol(alpha: float) -> SymbolFn:
    """Unregularized h = xi^2 - x^alpha on x > 0 (heuristic bracket checks)."""

    def fn(x, xi):
        return xi**2 - np.asarray(x, dtype=float) ** alpha

    def dx(x, xi):
        return -alpha * np.asarray(x, dtype=float) ** (alpha - 1.0) + 0.0 * np.asarray(xi)

    def dxi(x, xi):
        return 2.0 * np.asarray(xi, dtype=float) + 0.0 * np.asarray(x)

    return SymbolFn(fn=fn, grad_x=dx, grad_xi=dxi)


def heuristic_a_symbol(alpha: float) -> SymbolFn:
    """Un-cut a = xi x^{1-alpha} on x > 0."""

    def fn(x, xi):
        return np.asarray(xi, dtype=float) * np.asarray(x, dtype=float) ** (1.0 - alpha)

    def dx(x, xi):
        return (1.0 - alpha) * np.asarray(xi, dtype=float) * np.asarray(x, dtype=float) ** (-alpha)

    def dxi(x, xi):
        return np.asarray(x, dtype=float) ** (1.0 - alpha) + 0.0 * np.asarray(xi)

    return SymbolFn(fn=fn, grad_x=dx, grad_xi=dxi)


def heuristic_bracket_identity(x, E, alpha):
    """2 - alpha + 2 E (1 - alpha) x^-alpha on the shell xi^2 - x^alpha = E."""
    x = np.asarray(x, dtype=float)
    return 2.0 - alpha + 2.0 * E * (1.0 - alpha) * x ** (-alpha)


def symbol_v_alpha(x, xi, alpha):
    """Local-velocity symbol sigma_alpha x.xi / <x>^(1+alpha/2)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return sigma_alpha(alpha) * x * xi * bracket_x(x) ** (-1.0 - alpha / 2.0)


def v_alpha_symbol(alpha: float) -> SymbolFn:
    s = sigma_alpha(alpha)

    def fn(x, xi):
        return symbol_v_alpha(x, xi, alpha)

    def dx(x, xi):
        bx = bracket_x(x)
        return s * xi * (bx ** (-1.0 - alpha / 2.0)
                         - (1.0 + alpha / 2.0) * x**2 * bx ** (-3.0 - alpha / 2.0))

    def dxi(x, xi):
        return s * np.asarray(x, dtype=float) * bracket_x(x) ** (-1.0 - alpha / 2.0) \
            + 0.0 * np.asarray(xi)

    return SymbolFn(fn=fn, grad_x=dx, grad_xi=dxi)


def symbol_accel_alpha(x, xi, alpha):
    """Acceleration symbol sigma_alpha ( 2 xi^2/<x>^(1+a/2)
    - (2+a)(x.xi)^2/<x>^(3+a/2) + a x^2/<x>^(3-a/2) ); equals {h, v_alpha}."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    s = sigma_alpha(alpha)
    bx = bracket_x(x)
    return s * (2.0 * xi**2 * bx ** (-1.0 - alpha / 2.0)
                - (2.0 + alpha) * (x * xi) ** 2 * bx ** (-3.0 - alpha / 2.0)
                + alpha * x**2 * bx ** (-3.0 + alpha / 2.0))


# ---------------------------------------------------------------------------
# Mourre shell scans.
# ---------------------------------------------------------------------------

def mourre_shell_scan(alpha: float, E: float, eta: float,
                      radius_range=(0.5, 50.0), samples: int = 10_000) -> dict:
    """Scan {h, a} over the energy shell xi^2 = <x>^alpha + E.

    The shell is a graph over x for this h, so points are sampled as
    (+-|x|, +-sqrt(<x>^alpha + E)) with |x| log-spaced over radius_range.
    Reports the minimum bracket, any points violating sigma_alpha - eta, and
    the smallest sampled radius beyond which no violation occurs (the scan's
    compact-remainder radius).
    """
    if eta <= 0:
        raise ConfigurationError("eta must be positive")
    if not (0.0 < alpha <= 2.0):
        raise ConfigurationError("alpha must lie in (0, 2]")
    h = hamiltonian_symbol(alpha)
    a = a2_symbol() if alpha == 2.0 else a_alpha_symbol(alpha)
    n_radii = max(samples // 4, 2)
    radii = np.geomspace(max(radius_range[0], 1e-6), radius_range[1], n_radii)
    # shell constraint: xi^2 = <x>^alpha + E >= 0
    wx = bracket_x(radii) ** alpha
    feasible = wx + E >= 0.0
    restricted = not bool(np.all(feasible))
    radii = radii[feasible]
    target = sigma_alpha(alpha) - eta
    if radii.size == 0:
        return {
            "min_bracket": np.inf,
            "violating_points": np.empty((0, 3)),
            "R_threshold": np.inf,
            "constraint_restricted": True,
            "points": np.empty((0, 3)),
            "shell_E": E,
            "target": target,
        }
    xi_mag = np.sqrt(bracket_x(radii) ** alpha + E)
    xs = np.concatenate([radii, radii, -radii, -radii])
    xis = np.concatenate([xi_mag, -xi_mag, xi_mag, -xi_mag])
    br = poisson_bracket(h, a, xs, xis)
    bad = br < target
    pts = np.column_stack([xs, xis, br])
    # smallest radius R with no violation at any sampled |x| >= R
    rads = np.abs(xs)
    order = np.argsort(rads)
    sorted_bad = bad[order]
    sorted_r = rads[order]
    viol_idx = np.nonzero(sorted_bad)[0]
    if viol_idx.size == 0:
        r_threshold = float(sorted_r[0])
    elif viol_idx[-1] == len(sorted_r) - 1:
        r_threshold = np.inf
    else:
        r_threshold = float(sorted_r[viol_idx[-1] + 1])
    return {
        "min_bracket": float(np.min(br)),
        "violating_points": pts[bad],
        "R_threshold": r_threshold,
        "constraint_restricted": restricted,
        "points": pts,
        "shell_E": E,
        "target": target,
    }


def scan_to_csv(result: dict, path):
    """Columns x, xi, bracket, shell_E."""
    write_rows(path, ["x", "xi", "bracket", "shell_E"],
               ((x, xi, br, result["shell_E"]) for x, xi, br in result["points"]))
