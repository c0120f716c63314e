"""Symbol-level Mourre machinery: conjugate symbols, Poisson brackets against
h = xi^2 - <x>^alpha, and energy-shell scans for the lower bound sigma - eta."""

from __future__ import annotations

import numpy as np

from .csvout import write_rows
from .errors import ConfigurationError
from .potentials import _check_alpha, bracket_x, sigma_alpha


def poisson_bracket(h, a, x, xi):
    """{h, a} = dh/dxi * da/dx - dh/dx * da/dxi for 1-D symbols.

    A symbol is one function (x, xi) -> (value, d/dx, d/dxi) built by the
    factories below; x and xi are broadcast to one float shape here, so each
    symbol is called once and every partial it returns has that shape.
    """
    x, xi = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))
    _, h_x, h_xi = h(x, xi)
    _, a_x, a_xi = a(x, xi)
    return h_xi * a_x - h_x * a_xi


# ---------------------------------------------------------------------------
# The fixed smooth cutoff: support [-1/2, 1/2], plateau [-1/4, 1/4].
# ---------------------------------------------------------------------------

CUTOFF_SUPPORT = 0.5
CUTOFF_PLATEAU = 0.25


def cutoff(u):
    """(psi(u), psi'(u)) of the C-infinity bump psi: 1 on [-CUTOFF_PLATEAU,
    CUTOFF_PLATEAU], 0 outside [-CUTOFF_SUPPORT, CUTOFF_SUPPORT].

    The shoulder is the smooth step S(v) = f(1+v) / (f(1+v) + f(1-v)) with
    f(s) = exp(-1/s) for s > 0 and 0 otherwise (Hormander, The Analysis of
    Linear Partial Differential Operators I, ch. 1), where v runs from 1 at
    |u| = plateau to -1 at |u| = support.  The value and the derivative come
    from one evaluation of the same closed form.
    """
    u = np.asarray(u, dtype=float)
    v = np.clip((CUTOFF_SUPPORT + CUTOFF_PLATEAU - 2.0 * np.abs(u))
                / (CUTOFF_SUPPORT - CUTOFF_PLATEAU), -1.0, 1.0)
    with np.errstate(divide="ignore"):
        p, q = np.exp(-1.0 / (1.0 + v)), np.exp(-1.0 / (1.0 - v))
    # f'(s) = f(s)/s^2, so dS/dv = p q (1/(1+v)^2 + 1/(1-v)^2) / (p+q)^2,
    # which is 0 at v = +-1, where one of the 1/s^2 factors is not finite
    inside = np.abs(v) < 1.0
    w = np.where(inside, v, 0.0)
    ds_dv = np.where(inside, p * q * (1.0 / (1.0 + w) ** 2 + 1.0 / (1.0 - w) ** 2)
                     / (p + q) ** 2, 0.0)
    return p / (p + q), -np.sign(u) * ds_dv * 2.0 / (CUTOFF_SUPPORT - CUTOFF_PLATEAU)


# ---------------------------------------------------------------------------
# Symbols.
# ---------------------------------------------------------------------------

def a2_symbol():
    """a_2 as one symbol (x, xi) -> (value, d/dx, d/dxi)."""

    def symbol(x, xi):
        p, m = xi + x, xi - x
        dp, dm = p / (1.0 + p**2), m / (1.0 + m**2)
        return np.log(bracket_x(p)) - np.log(bracket_x(m)), dp + dm, dp - dm

    return symbol


def a2_bracket_closed_form(x, xi):
    """{xi^2 - x^2, a2} = 2(xi+x)^2/<xi+x>^2 + 2(xi-x)^2/<xi-x>^2."""
    p = np.asarray(xi, dtype=float) + np.asarray(x, dtype=float)
    m = np.asarray(xi, dtype=float) - np.asarray(x, dtype=float)
    return 2.0 * p**2 / (1.0 + p**2) + 2.0 * m**2 / (1.0 + m**2)


def a_alpha_symbol(alpha: float):
    """a_alpha as one symbol (x, xi) -> (value, d/dx, d/dxi): <x>^alpha, the
    shell ratio u and psi(u), psi'(u) are evaluated once for all three."""
    if not (0.0 < alpha < 2.0):
        raise ConfigurationError("a_alpha_symbol requires alpha in (0, 2)")

    def symbol(x, xi):
        bx = bracket_x(x)
        bx_a = bx**alpha
        xi2 = xi**2
        u = (xi2 - bx_a) / (xi2 + bx_a)
        psi, dpsi = cutoff(u)
        decay = bx ** (-alpha)
        core = x * xi * decay
        dcore = xi * decay - alpha * x**2 * xi * bx ** (-alpha - 2.0)
        dbx_a = alpha * bx ** (alpha - 2.0) * x
        denom = (xi2 + bx_a) ** 2
        du_dx = (-dbx_a * (xi2 + bx_a) - (xi2 - bx_a) * dbx_a) / denom
        du_dxi = (2 * xi * (xi2 + bx_a) - (xi2 - bx_a) * 2 * xi) / denom
        return (core * psi,
                dcore * psi + core * dpsi * du_dx,
                x * decay * psi + core * dpsi * du_dxi)

    return symbol


def hamiltonian_symbol(alpha: float):
    """h = xi^2 - <x>^alpha as one symbol (x, xi) -> (value, d/dx, d/dxi)."""

    def symbol(x, xi):
        bx = bracket_x(x)
        return xi**2 - bx**alpha, -alpha * bx ** (alpha - 2.0) * x, 2.0 * xi

    return symbol


def plain_hamiltonian_symbol(alpha: float):
    """Unregularized h = xi^2 - x^alpha on x > 0 (heuristic bracket checks)."""

    def symbol(x, xi):
        return xi**2 - x**alpha, -alpha * x ** (alpha - 1.0), 2.0 * xi

    return symbol


def heuristic_a_symbol(alpha: float):
    """Un-cut a = xi x^{1-alpha} on x > 0."""

    def symbol(x, xi):
        x_pow = x ** (1.0 - alpha)
        return xi * x_pow, (1.0 - alpha) * xi * x ** (-alpha), x_pow

    return symbol


def heuristic_bracket_identity(x, E, alpha):
    """2 - alpha + 2 E (1 - alpha) x^-alpha on the shell xi^2 - x^alpha = E."""
    x = np.asarray(x, dtype=float)
    return 2.0 - alpha + 2.0 * E * (1.0 - alpha) * x ** (-alpha)


def v_alpha_symbol(alpha: float):
    """v_alpha as one symbol (x, xi) -> (value, d/dx, d/dxi)."""
    s = sigma_alpha(alpha)

    def symbol(x, xi):
        bx = bracket_x(x)
        decay = bx ** (-1.0 - alpha / 2.0)
        return (s * x * xi * decay,
                s * xi * (decay - (1.0 + alpha / 2.0) * x**2 * bx ** (-3.0 - alpha / 2.0)),
                s * x * decay)

    return symbol


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

def _shell_brackets(alpha: float, E: float, radii: np.ndarray):
    """{h, a} on the energy shell xi^2 = <x>^alpha + E at those of the
    increasing `radii` where the shell is real: (those radii, x, xi, bracket),
    the points (+-|x|, +-sqrt(<x>^alpha + E)) in four sign blocks of the
    radii each."""
    h = hamiltonian_symbol(alpha)
    a = a2_symbol() if alpha == 2.0 else a_alpha_symbol(alpha)
    wx = bracket_x(radii) ** alpha
    feasible = wx + E >= 0.0
    radii = radii[feasible]
    xi_mag = np.sqrt(wx[feasible] + E)
    xs = np.concatenate([radii, radii, -radii, -radii])
    xis = np.concatenate([xi_mag, -xi_mag, xi_mag, -xi_mag])
    return radii, xs, xis, poisson_bracket(h, a, xs, xis)


def check_shell(alpha: float, E: float, radius_range):
    """Refuse a scan whose bracket overflows a float.  {h, a} is evaluated at
    the outermost shell points, both signs of x and xi, where <x>^alpha, xi^2
    and the bracket's denominators are largest; an overflow or invalid
    operation there is refused.  Past that point the scan publishes NaN, or
    violations made by overflow alone."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            _shell_brackets(alpha, E, np.array([float(radius_range[1])]))
    except FloatingPointError as exc:
        raise ConfigurationError(
            f"the Poisson bracket overflows a float on the energy shell at |x| = "
            f"{radius_range[1]:.4g} with E = {E:.4g}; shrink radius_range or |E|") from exc


def mourre_shell_scan(alpha: float, E: float, eta: float, radius_range,
                      samples: int) -> dict:
    """Scan {h, a} over the energy shell xi^2 = <x>^alpha + E.

    The shell is a graph over x for this h, so points are sampled as
    (+-|x|, +-sqrt(<x>^alpha + E)) with |x| log-spaced over radius_range.
    Reports the minimum bracket, any points violating sigma_alpha - eta, and
    the smallest sampled radius beyond which no violation occurs (the scan's
    compact-remainder radius).
    """
    if eta <= 0:
        raise ConfigurationError("eta must be positive")
    _check_alpha(alpha)
    n_radii = max(samples // 4, 2)
    sampled = np.geomspace(max(radius_range[0], 1e-6), radius_range[1], n_radii)
    radii, xs, xis, br = _shell_brackets(alpha, E, sampled)
    restricted = radii.size < sampled.size
    target = sigma_alpha(alpha) - eta
    bad = br < target
    pts = np.column_stack([xs, xis, br])
    # smallest sampled radius R with no violation at any sampled |x| >= R;
    # xs holds four sign copies of the increasing radii, one block each
    bad_radii = np.flatnonzero(bad.reshape(4, -1).any(axis=0))
    first_good = bad_radii[-1] + 1 if bad_radii.size else 0
    r_threshold = float(radii[first_good]) if first_good < len(radii) else np.inf
    return {
        "min_bracket": float(np.min(br, initial=np.inf)),
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
               [*result["points"].T, np.full(len(result["points"]), result["shell_E"])])
