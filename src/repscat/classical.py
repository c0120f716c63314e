"""Classical flow of h(x, xi) = xi^2 - <x>^alpha and its growth laws.

The Hamiltonian normalization matches the quantum symbol (xdot = 2 xi), so
the alpha = 2 closed form x(t) = (x0+xi0)/2 e^{2t} + (x0-xi0)/2 e^{-2t}
holds verbatim; the escape exponent kappa = 2/(2-alpha) is convention-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .csvout import write_rows
from .errors import ConfigurationError, NoEscapeError, check_integer
from .potentials import _check_alpha, p_alpha, radius_sq

#: |x| or |xi| beyond which a run is truncated and flagged.
OVERFLOW_LIMIT = 1e120


@dataclass(frozen=True)
class PhasePoint:
    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        if x.ndim != 1 or x.shape != xi.shape or x.size == 0:
            raise ConfigurationError("x and xi must be nonempty vectors of matching length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
            raise ConfigurationError("phase point entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    xs: np.ndarray       # shape (nt, dims)
    xis: np.ndarray
    energy0: float
    alpha: float
    regularized: bool
    truncated: bool = False

    def energies(self) -> np.ndarray:
        return _energy(self.xs, self.xis, self.alpha, self.regularized)

    def energy_drift(self) -> float:
        h = self.energies()
        return float(np.max(np.abs(h - self.energy0)) / (1.0 + abs(self.energy0)))

    def radius(self) -> np.ndarray:
        return np.sqrt(radius_sq(*self.xs.T))


def _energy(xs, xis, alpha, regularized):
    # a phase point (1-D) or a row per time (2-D): .T lists the axes
    r2 = radius_sq(*np.asarray(xs).T)
    ke = radius_sq(*np.asarray(xis).T)
    if regularized:
        return ke - (1.0 + r2) ** (alpha / 2.0)
    return ke - np.sqrt(r2) ** alpha


def _singular_coefficient(alpha: float, r2: float, expo: float) -> float:
    """alpha |x|^(alpha-2) of the unregularized force, refused where it is
    singular: at the origin, or so near it that the power overflows."""
    try:
        c = alpha * math.sqrt(r2) ** expo if r2 else math.inf
    except OverflowError:
        c = math.inf
    if not math.isfinite(c):
        raise ConfigurationError("|x|^alpha force is singular at the origin")
    return c


def flow(start: PhasePoint, alpha: float, t_final: float, dt: float,
         regularized: bool = True, record_every: int = 1) -> Trajectory:
    """Leapfrog (kick-drift-kick) integration of xdot = 2 xi, xidot = -grad U.

    U = -<x>^alpha, so the force is c x with c = alpha <x>^(alpha-2), <x> read
    as |x| when unregularized.  A step updates two lists of Python floats in
    place, one loop for every dimension: one pass over the coordinates makes
    the opening half-kicks and drifts and sums |x|^2, a second the closing
    half-kicks and overflow tests; a step's closing half-kick and the next
    step's opening one share c.  Rows are copied only when recorded.  Runs
    that overflow the e^{2t}-type growth are truncated and flagged.
    """
    if not dt > 0:
        raise ConfigurationError("dt must be positive")
    _check_alpha(alpha)
    record_every = check_integer(record_every, "record_every", minimum=1)
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ConfigurationError(f"t_final must be finite and >= 0, got {t_final}")
    n = int(round(t_final / dt))
    h = 0.5 * dt
    d2 = dt * 2.0
    expo = alpha / 2.0 - 1.0 if regularized else alpha - 2.0
    x = start.x.tolist()
    xi = start.xi.tolist()
    dims = range(len(x))
    times, xs, xis = [0.0], [x[:]], [xi[:]]
    truncated = False
    r2 = 0.0
    for q in x:  # left to right, as radius_sq adds them
        r2 += q * q
    c = 0.0
    if n:
        c = alpha * (1.0 + r2) ** expo if regularized else _singular_coefficient(alpha, r2, expo)
    for s in range(1, n + 1):
        r2 = 0.0
        for j in dims:
            p = xi[j] + h * (c * x[j])
            xi[j] = p
            q = x[j] + d2 * p
            x[j] = q
            r2 += q * q
        c = alpha * (1.0 + r2) ** expo if regularized else _singular_coefficient(alpha, r2, expo)
        for j in dims:
            p = xi[j] + h * (c * x[j])
            xi[j] = p
            if abs(p) > OVERFLOW_LIMIT or abs(x[j]) > OVERFLOW_LIMIT:
                truncated = True
        if truncated:
            break
        if s % record_every == 0 or s == n:  # _recorded_steps, in step order
            times.append(s * dt)
            xs.append(x[:])
            xis.append(xi[:])
    return Trajectory(times=np.array(times), xs=np.array(xs), xis=np.array(xis),
                      energy0=float(_energy(start.x, start.xi, alpha, regularized)),
                      alpha=alpha, regularized=regularized, truncated=truncated)


def quadratic_closed_form(start: PhasePoint, t) -> PhasePoint:
    """Exact -x^2 flow in one dimension:
    x(t) = (x0+xi0)/2 e^{2t} + (x0-xi0)/2 e^{-2t}, xi = xdot/2."""
    if start.x.size != 1:
        raise ConfigurationError("closed form is one-dimensional")
    x0 = float(start.x[0])
    xi0 = float(start.xi[0])
    ep = np.exp(2.0 * np.asarray(t, dtype=float))
    em = 1.0 / ep
    x = 0.5 * (x0 + xi0) * ep + 0.5 * (x0 - xi0) * em
    xi = 0.5 * (x0 + xi0) * ep - 0.5 * (x0 - xi0) * em
    return PhasePoint(np.atleast_1d(x), np.atleast_1d(xi))


def _recorded_steps(n: int, record_every: int):
    """The steps after which flow records a row of an n-step run, last first:
    step n, then every record_every-th step below it.  Lazy, so a caller can
    stop early; the time of step s is s * dt, as flow records it."""
    below = n - 1 - (n - 1) % record_every
    return chain((n,) if n else (), range(below, 0, -record_every))


def _fit_window(times: np.ndarray, fit_window) -> np.ndarray:
    """Mask of the recorded times with t_lo <= t <= t_hi and t > 0; a
    growth fit needs at least 4 of them."""
    t_lo, t_hi = fit_window
    mask = (times >= t_lo) & (times <= t_hi) & (times > 0)
    if np.sum(mask) < 4:
        raise ConfigurationError("fit window contains fewer than 4 samples")
    return mask


def check_fit_window(t_final: float, dt: float, record_every: int):
    """Refuse a run of flow whose record, untruncated, holds fewer than 4
    samples in the fit window [t_final/2, t_final].  Only the last step can
    land past t_final (n dt <= t_final + dt/2), so the newest five recorded
    times decide."""
    n = int(round(t_final / dt))
    newest = [s * dt for s in islice(_recorded_steps(n, record_every), 5)]
    _fit_window(np.array(newest), (t_final / 2.0, t_final))


def escape_exponent(traj: Trajectory, fit_window) -> float:
    """Least-squares slope of log|x(t)| against log t over the window.

    The trajectory must be escaping (|x| increasing) across the window.
    """
    mask = _fit_window(traj.times, fit_window)
    r = traj.radius()[mask]
    t = traj.times[mask]
    if not np.all(np.diff(r) > 0):
        raise NoEscapeError("trajectory is not escaping over the fit window")
    return float(np.polyfit(np.log(t), np.log(r), 1)[0])


def log_growth_rate(traj: Trajectory, fit_window) -> float:
    """Slope of ln|x(t)| against t (the alpha = 2 exponential rate)."""
    mask = _fit_window(traj.times, fit_window)
    return float(np.polyfit(traj.times[mask], np.log(traj.radius()[mask]), 1)[0])


def p_alpha_rate(traj: Trajectory, fit_window) -> float:
    """Mean d/dt p_alpha(x(t)) over the window (classical shadow of the
    asymptotic velocity; approaches sigma_alpha along escaping trajectories)."""
    mask = _fit_window(traj.times, fit_window)
    p = p_alpha(traj.radius()[mask], traj.alpha)
    return float(np.polyfit(traj.times[mask], p, 1)[0])


def zero_energy_start(alpha: float) -> PhasePoint:
    """Escaping start x0 = 1 with h = 0 exactly: xi0 = <x0>^(alpha/2) = 2^(alpha/4)."""
    return PhasePoint(np.array([1.0]), np.array([2.0 ** (alpha / 4.0)]))


def trajectory_to_csv(traj: Trajectory, path):
    """Columns t, x..., xi..., energy."""
    dims = traj.xs.shape[1]
    write_rows(path, ["t"] + [f"x{k}" for k in range(dims)]
               + [f"xi{k}" for k in range(dims)] + ["energy"],
               ((t, *x, *xi, h) for t, x, xi, h
                in zip(traj.times, traj.xs, traj.xis, traj.energies())))
