"""Scattering laboratory: Cook integrands, finite-time wave operators, the
local-velocity operator, and asymptotic-velocity traces.

Cook integrands and velocity traces are functionals of one density series,
the cell masses of |exp(-i t H0) psi0|^2 at each time.  On the factorized
route they sit on the fixed dual lattice with coordinates scaled by g_k(2t),
so large-time observables never propagate on an enlarged grid; on the
split-step route they sit on the spatial grid.  One rule, _lattice_values,
gives a function at those lattice points: cell averages on a 1-D dual
lattice, where fn(g*u) varies below the lattice resolution near u = 0, and
point samples otherwise (too coarse on an n-D dual lattice, ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .csvout import write_rows
from .errors import ConfigurationError, DomainEscapeError
from .grids import (
    POSITION,
    Grid,
    Observable,
    WaveFunction,
    expectation,
    tail_radii,
    to_position,
)
from .mehler import _chirp_phase, chirped_spectrum, trajectory_factors
from .potentials import (
    QuadraticSpec,
    p_alpha,
    p_alpha_inverse,
    sigma_alpha,
)
from .splitstep import EvolutionConfig, _fourier_step, evolution_config, propagate

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(32)
_FAR_NODES, _FAR_WEIGHTS = np.polynomial.legendre.leggauss(8)

#: Cells whose node lies this many cells or more from 0 take the 8-point rule.
_NEAR_CELLS = 32


def _cell_average(fn: Callable, scale: float, nodes: np.ndarray, spacing: float) -> np.ndarray:
    """Average of fn(scale * v) over each cell [node - h/2, node + h/2].

    Point sampling is wrong whenever fn(scale * v) varies on the 1/scale
    scale inside a cell (the origin cell at large dilation scales); Gauss
    averaging restores the correct cell mass.  Cells within _NEAR_CELLS of
    0 take 32-point Gauss-Legendre and the rest 8-point: features of width
    ~1 near y = 0 (the <y> branch points at +-i, the log-power poles at
    |y| ~ 1.3) lie outside a Bernstein ellipse rho >~ 4k of a cell k cells
    out, so the 8-point error there is ~rho^-16, below roundoff.
    """
    near = np.abs(nodes) < _NEAR_CELLS * spacing
    tiers = ((near, _GAUSS_NODES, _GAUSS_WEIGHTS), (~near, _FAR_NODES, _FAR_WEIGHTS))
    v = np.concatenate([np.add.outer(nodes[mask], (spacing / 2.0) * x).ravel()
                        for mask, x, _ in tiers])
    v *= scale
    out = np.empty(nodes.shape)
    start = 0
    for mask, x, w in tiers:
        stop = start + np.count_nonzero(mask) * x.size
        if stop > start:
            out[mask] = fn(v[start:stop].reshape(-1, x.size)) @ w / 2.0
        start = stop
    return out


class _Lattice(NamedTuple):
    """The points x_k = g_k u_k that carry a density series' cell masses: u on
    the dual lattice of `grid` (dual, the factorized route) or on its spatial
    nodes (g = 1, the split-step route)."""

    grid: Grid
    g: np.ndarray
    dual: bool

    @property
    def nodes(self) -> np.ndarray:
        """Per-axis nodes u (FFT-ordered on the dual lattice)."""
        return self.grid.freq_nodes if self.dual else self.grid.nodes

    @property
    def spacing(self) -> float:
        return self.grid.freq_spacing if self.dual else self.grid.spacing


def _lattice_values(fn: Callable, lattice: _Lattice) -> np.ndarray:
    """fn at the points of `lattice`: cell averages of fn(g u) on a 1-D dual
    lattice, point samples on an n-D one (which miss the sub-cell structure
    near u = 0, ROADMAP item 1) and on the spatial grid."""
    grid, g = lattice.grid, lattice.g
    if not lattice.dual:
        return fn(*grid.meshgrid())
    if grid.dims == 1:
        return _cell_average(fn, float(g[0]), grid.freq_nodes, grid.freq_spacing)
    return fn(*(gk * grid.axis_freqs(k) for k, gk in enumerate(g)))


def _density_series(psi0: WaveFunction, hamiltonian, times: np.ndarray):
    """Yield (t, rho, lattice) for each t in the increasing `times`: the cell
    masses rho of |exp(-i t H0) psi0|^2 and the lattice they sit on.

    A QuadraticSpec takes the factorization identity, rho = |F(M_t psi0)|^2
    on the dual lattice scaled by g_k(2t), so any t is reachable with no grid
    growth; an EvolutionConfig propagates in sequence on the spatial grid.  A
    DomainEscapeError passes through to the consumer.
    """
    if isinstance(hamiltonian, QuadraticSpec):
        for t in times:
            hat, g = chirped_spectrum(psi0, t, hamiltonian)
            yield t, hat.density() * hat.measure, _Lattice(hat.grid, g, True)
    elif isinstance(hamiltonian, EvolutionConfig):
        psi, prev = to_position(psi0), 0.0
        lattice = _Lattice(psi.grid, np.ones(psi.grid.dims), False)
        for t in times:
            psi, _ = propagate(psi, t - prev, hamiltonian)
            prev = t
            yield t, psi.density() * psi.measure, lattice
    else:
        raise ConfigurationError("hamiltonian must be a QuadraticSpec or EvolutionConfig")


@dataclass(frozen=True)
class DensitySnapshot:
    """Weighted point masses representing |psi(t, x)|^2 with x = scale * node.

    For the factorization route the nodes are dual-lattice points and scale
    is g(2t); for direct grid densities the nodes are spatial points with
    scale 1.  Weights sum to 1.
    """

    t: float
    nodes: np.ndarray
    weights: np.ndarray
    scale: float
    spacing: float

    @classmethod
    def from_density(cls, rho: np.ndarray, nodes: np.ndarray, spacing: float, t: float,
                     scale: float = 1.0, axis: int = 0) -> "DensitySnapshot":
        """Snapshot of the `axis` marginal of the cell masses rho, sampled on
        the per-axis lattice `nodes`; normalised, then ordered by node."""
        axes = tuple(k for k in range(rho.ndim) if k != axis)
        marg = rho.sum(axis=axes) if axes else rho
        order = np.argsort(nodes)
        return cls(t=t, nodes=nodes[order], weights=(marg / marg.sum())[order],
                   scale=scale, spacing=spacing)

    def mean_of(self, fn: Callable, cell_averaged: bool = True) -> float:
        if cell_averaged:
            vals = _cell_average(fn, self.scale, self.nodes, self.spacing)
        else:
            vals = fn(self.scale * self.nodes)
        return float(np.sum(vals * self.weights))

    def mass_in_radius_band(self, r_lo: float, r_hi: float) -> float:
        """Exact mass with |x| in [r_lo, r_hi], resolving sub-cell overlap."""
        lo_u, hi_u = r_lo / abs(self.scale), r_hi / abs(self.scale)
        cell_lo = self.nodes - self.spacing / 2.0
        cell_hi = self.nodes + self.spacing / 2.0
        # overlap of each cell with [-hi_u, -lo_u] union [lo_u, hi_u]
        right = np.clip(np.minimum(cell_hi, hi_u) - np.maximum(cell_lo, lo_u), 0.0, None)
        left = np.clip(np.minimum(cell_hi, -lo_u) - np.maximum(cell_lo, -hi_u), 0.0, None)
        frac = (right + left) / self.spacing
        return float(np.sum(self.weights * frac))

    def velocity_mass_below(self, theta: float, alpha: float) -> float:
        """P[ p_alpha(x)/t <= theta ]."""
        r = float(p_alpha_inverse(theta * self.t, alpha))
        return self.mass_in_radius_band(0.0, r)

    def velocity_mass_window(self, theta2: float, theta3: float, alpha: float) -> float:
        r2 = float(p_alpha_inverse(theta2 * self.t, alpha))
        r3 = float(p_alpha_inverse(theta3 * self.t, alpha))
        return self.mass_in_radius_band(r2, r3)

    def velocity_histogram(self, alpha: float, edges: np.ndarray) -> np.ndarray:
        """Masses of p_alpha(x)/t in the given bins (sub-cell exact)."""
        masses = np.empty(len(edges) - 1)
        for i in range(len(edges) - 1):
            masses[i] = self.velocity_mass_window(edges[i], edges[i + 1], alpha)
        return masses


# ---------------------------------------------------------------------------
# Local velocity.
# ---------------------------------------------------------------------------

def _local_velocity(grid: Grid, alpha: float) -> Observable:
    """sigma_alpha/2 (f(x).D + D.f(x)) with f = x/<x>^(1+alpha/2)."""
    s = sigma_alpha(alpha)
    decay = (1.0 + grid.radius_sq()) ** (-(1.0 + alpha / 2.0) / 2.0)
    return Observable.symmetrized_mixed(
        grid, [s * grid.axis_nodes(k) * decay for k in range(grid.dims)])


def local_velocity_expectation(psi: WaveFunction, alpha: float) -> float:
    return expectation(psi, _local_velocity(psi.grid, alpha))


# ---------------------------------------------------------------------------
# Cook's method.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CookRecord:
    times: np.ndarray
    integrand: np.ndarray
    tail_kind: str                # 'power' or 'exponential'
    tail_exponent: float          # power p in t^p, or rate lambda in e^(-lambda t)
    tail_exponent_full: float     # power-law fit over the whole schedule
    integral_estimate: float
    tail_integral: Callable = field(repr=False)
    truncated: bool = False


def _fit_tails(times, vals, tail_start):
    mask = times >= tail_start
    t = times[mask]
    v = vals[mask]
    pos = v > 0
    if np.sum(pos) < 3:
        return "power", -np.inf, None
    t, v = t[pos], v[pos]
    p_slope, p_off = np.polyfit(np.log(t), np.log(v), 1)
    e_slope, e_off = np.polyfit(t, np.log(v), 1)
    p_res = np.sum((np.log(v) - (p_slope * np.log(t) + p_off)) ** 2)
    e_res = np.sum((np.log(v) - (e_slope * t + e_off)) ** 2)
    if e_res < p_res:
        return "exponential", float(-e_slope), (e_slope, e_off)
    return "power", float(p_slope), (p_slope, p_off)


def _divide(num, den):
    """num / den, and 0 where den == 0 (repeated nodes)."""
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule on irregular nodes x (len >= 3), as
    scipy.integrate.simpson(y, x=x) computes it from scipy 1.11 on:
    parabolas over pairs of intervals from the left and, for an even
    number of nodes, Cartwright's correction for the last interval."""
    h = np.diff(x)
    stop = len(y) - 2 if len(y) % 2 else len(y) - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    ratio = _divide(h0, h1)
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - _divide(1.0, ratio))
                                  + y[1:stop + 1:2] * (hsum * _divide(hsum, h0 * h1))
                                  + y[2:stop + 2:2] * (2.0 - ratio)))
    if len(y) % 2 == 0:
        h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])  # array ** rounds as in scipy
        result += (_divide(2 * h1**2 + 3 * h0 * h1, 6 * (h1 + h0)) * y[-1]
                   + _divide(h1**2 + 3.0 * h0 * h1, 6 * h0) * y[-2]
                   - _divide(h1**3, 6 * h0 * (h0 + h1)) * y[-3])
    return float(result)


def cook_scan(phi: WaveFunction, hamiltonian, perturbation: Callable,
              time_schedule: Sequence[float]) -> CookRecord:
    """Sample t -> ||V exp(-i t H0) phi|| and fit/integrate its tail.

    hamiltonian: a QuadraticSpec (factorized route, any t reachable) or an
    EvolutionConfig (split-step route, sequential in t).  perturbation is a
    scalar function of the coordinates.

    The integral estimate is composite Simpson over the schedule plus the
    fitted-tail extrapolation to infinity (NaN when the tail does not decay
    integrably).  The tail is fitted from the geometric midpoint of the
    sampled times on.  Guard violations truncate the record with a flag, or
    raise when they trip at the first time.
    """
    times = np.asarray(sorted(float(t) for t in time_schedule))
    if times.size < 4 or times[0] <= 0:
        raise ConfigurationError("schedule needs >= 4 positive times")
    v2 = lambda *x: perturbation(*x) ** 2
    vals = []
    truncated = False
    try:
        for _, rho, lattice in _density_series(phi, hamiltonian, times):
            vals.append(float(np.sqrt(np.sum(_lattice_values(v2, lattice) * rho))))
    except DomainEscapeError:
        if not vals:  # nothing to fit or integrate
            raise
        truncated = True
    vals = np.asarray(vals)
    times = times[: len(vals)]
    tail_start = float(np.sqrt(times[0] * times[-1]))
    kind, expo, fit = _fit_tails(times, vals, tail_start)
    full_slope = _fit_tails(times, vals, times[0])[1]

    def tail_integral(t_lo, t_hi):
        if fit is None:
            return 0.0
        a, b = fit
        if kind == "power":
            p = a
            c = np.exp(b)
            if t_hi == np.inf:
                if p >= -1.0:
                    return np.inf
                return c * t_lo ** (p + 1.0) / (-p - 1.0)
            if abs(p + 1.0) < 1e-12:
                return c * np.log(t_hi / t_lo)
            return c * (t_hi ** (p + 1.0) - t_lo ** (p + 1.0)) / (p + 1.0)
        lam = -a
        c = np.exp(b)
        if lam <= 0:
            return np.inf
        hi_part = 0.0 if t_hi == np.inf else c * np.exp(-lam * t_hi) / lam
        return c * np.exp(-lam * t_lo) / lam - hi_part

    body = _simpson(vals, times) if len(times) > 2 else 0.0
    tail = tail_integral(float(times[-1]), np.inf)
    integral = body + tail if np.isfinite(tail) else np.nan
    return CookRecord(
        times=times,
        integrand=vals,
        tail_kind=kind,
        tail_exponent=expo,
        tail_exponent_full=full_slope,
        integral_estimate=integral,
        tail_integral=tail_integral,
        truncated=truncated,
    )


def cook_record_to_csv(record: CookRecord, path):
    write_rows(path, ["t", "integrand"], zip(record.times, record.integrand))


# ---------------------------------------------------------------------------
# Wave operators.
# ---------------------------------------------------------------------------

#: Interaction-picture slice width on [s0, T].
_SLICE = 0.025


def wave_operator(phi: WaveFunction, T: float, spec: QuadraticSpec,
                  perturbation: Callable) -> WaveFunction:
    """Omega_T phi = exp(i T H) exp(-i T H0) phi for H0 the quadratic spec
    and H = H0 + V, V the scalar perturbation.

    Interaction picture: the free factorization turns exp(i T H) exp(-i T H0)
    into an ordered product of exact unitary conjugated-potential phases on
    the fixed lattice (slices on the shared slice lattice of _slice_edges,
    down to s0), then split-step with dt = 1e-3 on [0, s0], so T is not
    limited by the e^{2wt} spreading.
    """
    return _wave_operators(phi, [T], spec, perturbation)[T]


def _interaction_phase_slice(grid: Grid, spec: QuadraticSpec, s: float, delta: float,
                             perturbation: Callable):
    """exp(i delta W_s) = M_s^* F^* exp(i delta V(g(2s) .)) F M_s with W_s =
    exp(i s H0) V exp(-i s H0), exactly unitary on the lattice: returns the
    chirp M_s and the dual-lattice multiplier exp(i delta V(g(2s) .))."""
    fac = trajectory_factors(s, spec)
    chirp = _chirp_phase(grid, spec, fac, s)
    vbar = _lattice_values(perturbation, _Lattice(grid, fac.g, True))
    return chirp, np.exp(1j * delta * vbar)


def _chirp_resolution_floor(phi: WaveFunction, spec: QuadraticSpec) -> float:
    """Smallest s at which M_s is resolved: the chirp's instantaneous
    frequency max|x| h(2s)/g(2s) plus the bandwidth of phi (its widest axis
    marginal, cut at a 1e-10 tail) must stay below 80% of Nyquist."""
    grid = phi.grid
    rho = np.abs(np.fft.fftn(to_position(phi).values)) ** 2
    bandwidth = float(np.max(tail_radii(rho, grid.freq_nodes, 1e-10)))
    ximax = float(np.max(np.abs(grid.freq_nodes)))
    budget = 0.8 * ximax - bandwidth
    L = grid.half_width
    if budget <= L:  # coth > 1 always; need budget/L > 1
        raise ConfigurationError("grid cannot resolve the interaction chirp; increase points")
    s_floor = 0.0
    for k in range(spec.dims):
        sector = spec.sector(k)
        if sector == "hyperbolic":
            w = spec.omega(k)
            s_floor = max(s_floor, float(np.arctanh(w * L / budget) / (2.0 * w)))
        else:  # stark or free; the caller rejects trigonometric axes
            s_floor = max(s_floor, L / (2.0 * budget))
    return s_floor


def _slice_edges(s0: float, horizons) -> np.ndarray:
    """Increasing slice edges on [s0, max(horizons)] for horizons above s0:
    s0, the lattice s0 + k _SLICE, and every horizon.  A lattice point
    closer than half a slice to a horizon is dropped, so no slice is a
    sliver; s0 stays, since the anchor ends there."""
    T = np.asarray(sorted(horizons), dtype=float)
    lattice = s0 + _SLICE * np.arange(1, int(np.ceil((T[-1] - s0) / _SLICE)))
    far = np.min(np.abs(lattice[:, None] - T[None, :]), axis=1) >= _SLICE / 2.0
    return np.sort(np.concatenate(([s0], lattice[far], T)))


def _wave_operators(phi: WaveFunction, Ts: Sequence[float], spec: QuadraticSpec,
                    perturbation: Callable) -> dict:
    """{T: Omega_T phi} for every horizon in Ts, in one descent over one
    slice lattice.

    Walking the slices of _slice_edges from the top down, each slice's
    (chirp, multiplier) is built once and applied in place to every chain
    whose horizon is at or above the slice's top edge; a chain starts as a
    copy of phi when the descent reaches its horizon.  Every chain uses the
    same slices below its horizon, so Omega_T2 = Omega_T1 S(T1, T2) holds
    exactly on the lattice, and memory is one state per horizon.  Each chain
    ends with the split-step anchor on [0, s0]; horizons T <= s0 take the
    anchor alone, and T = 0 returns phi.
    """
    phi = to_position(phi)
    out = {T: phi for T in Ts if T == 0.0}
    nonzero = [T for T in Ts if T != 0.0]
    if not nonzero:
        return out
    if spec.n_plus > 0:
        raise ConfigurationError(
            "interaction-picture wave operators cross kernel singular times on "
            "confining axes; use split-step configs for n_plus > 0"
        )
    grid = phi.grid
    s0 = max(2.0 * _chirp_resolution_floor(phi, spec), 0.05)
    anchor = _anchor_configs(grid, spec, perturbation)
    for T in nonzero:
        if T <= s0:
            out[T] = _wave_operator_direct(phi, T, anchor)
    horizons = sorted({T for T in nonzero if T > s0})
    if not horizons:
        return out
    edges = _slice_edges(s0, horizons)
    chains = {}
    work = np.empty_like(phi.values)
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        if horizons and hi == horizons[-1]:
            chains[horizons.pop()] = phi.values.copy()
        chirp, multiplier = _interaction_phase_slice(grid, spec, 0.5 * (lo + hi), hi - lo,
                                                     perturbation)
        conj = np.conj(chirp)
        for u in chains.values():
            np.multiply(chirp, u, out=u)
            _fourier_step(u, work, multiplier, conj)
    for T, u in chains.items():
        out[T] = _wave_operator_direct(WaveFunction(grid, u, POSITION), s0, anchor)
    return out


def _anchor_configs(grid: Grid, spec: QuadraticSpec, perturbation: Callable):
    """The free and perturbed split-step configs of _wave_operator_direct,
    built once per _wave_operators call and shared by its chains."""
    return (evolution_config(grid, 1e-3, quadratic=spec, edge_mass_tol=1e-2),
            evolution_config(grid, 1e-3, quadratic=spec, perturbation=perturbation,
                             edge_mass_tol=1e-2))


def _wave_operator_direct(phi: WaveFunction, T: float, anchor) -> WaveFunction:
    """exp(i T H) exp(-i T H0) phi by split-step on both halves (small T),
    with `anchor` the (free, perturbed) configs of _anchor_configs.

    Matching discretizations make the V = 0 case an exact identity, and the
    shared Strang error cancels to first order in the perturbation.  The
    edge guard is relaxed here: wave-operator states legitimately carry a
    small spread scattered component.
    """
    cfg0, cfg = anchor
    free, _ = propagate(phi, T, cfg0)
    out, _ = propagate(free, -T, cfg)
    return out


def cauchy_differences(phi: WaveFunction, Ts: Sequence[float], spec: QuadraticSpec,
                       perturbation: Callable):
    """||Omega_T2 phi - Omega_T1 phi|| for consecutive T pairs, with the
    wave-operator states themselves (keyed by T, in the order of Ts).  All
    horizons come from one descent over the shared slice lattice, so each
    difference is ||S(T1, T2) phi - phi|| for the slice product S on
    [T1, T2], pushed through the same unitary lower chain."""
    states = _wave_operators(phi, Ts, spec, perturbation)
    omegas = {T: states[T] for T in Ts}
    diffs = []
    for t1, t2 in zip(Ts, Ts[1:]):
        d = omegas[t2].values - omegas[t1].values
        diffs.append(float(np.sqrt(np.sum(np.abs(d) ** 2) * omegas[t2].measure)))
    return diffs, omegas


# ---------------------------------------------------------------------------
# Velocity traces.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityTrace:
    """Time series of <p_alpha(x)>/t with density snapshots per time."""

    alpha: float
    times: np.ndarray
    means: np.ndarray                       # <p_alpha(x)/t>
    snapshots: tuple                        # DensitySnapshot per time (radial route)
    per_direction: dict                     # axis -> ln<x_j>/t series (per_direction)
    histogram_edges: np.ndarray
    histograms: tuple                       # masses per time

    def richardson_limit(self) -> float:
        """Two-point extrapolation in 1/t from the last two times: with
        m(t) = sigma + c/t, (t2 m2 - t1 m1)/(t2 - t1) removes the 1/t term."""
        t1, t2 = self.times[-2:]
        m1, m2 = self.means[-2:]
        return float((t2 * m2 - t1 * m1) / (t2 - t1))


def _histogram_edges(alpha: float) -> np.ndarray:
    """120 equal bins of p_alpha(x)/t over [0, 2 sigma_alpha + 1]."""
    return np.linspace(0.0, 2.0 * sigma_alpha(alpha) + 1.0, 121)


def velocity_trace(psi0: WaveFunction, hamiltonian, alpha: float,
                   time_schedule: Sequence[float],
                   per_direction: bool = False) -> VelocityTrace:
    """Track <p_alpha(x)>/t and its distribution along the evolution.

    The densities come from _density_series: QuadraticSpec hamiltonians use
    the factorization identity (any t, no grid growth), EvolutionConfig
    hamiltonians (1-D only) propagate sequentially.  For multi-axis quadratic
    specs the radial mean uses the product density over the scaled dual
    lattice, and per-direction ln<x_j>/t traces come from the axis marginals.
    """
    times = np.asarray(sorted(float(t) for t in time_schedule))
    if times.size == 0 or times[0] <= 0:
        raise ConfigurationError("schedule must contain positive times")
    dims = psi0.grid.dims
    if isinstance(hamiltonian, EvolutionConfig) and dims != 1:
        raise ConfigurationError("grid snapshots are one-dimensional")
    edges = _histogram_edges(alpha)
    means = []
    snaps = []
    hists = []
    per_dir = {ax: [] for ax in range(dims)} if per_direction else {}
    for t, rho, lat in _density_series(psi0, hamiltonian, times):
        # one density per time serves the radial mean and every marginal
        margs = [DensitySnapshot.from_density(rho, lat.nodes, lat.spacing, t,
                                              scale=float(abs(lat.g[ax])), axis=ax)
                 for ax in range(dims)] if dims == 1 or per_direction else []
        if dims == 1:
            snap = margs[0]
            means.append(snap.mean_of(lambda y: p_alpha(y, alpha), cell_averaged=lat.dual) / t)
            snaps.append(snap)
            hists.append(snap.velocity_histogram(alpha, edges))
        else:
            means.append(_radial_mean_nd(rho, lat.grid, lat.g, alpha) / t)
        for ax in per_dir:
            per_dir[ax].append(margs[ax].mean_of(lambda y: p_alpha(y, 2.0),
                                                 cell_averaged=lat.dual) / t)
    return VelocityTrace(
        alpha=alpha,
        times=times,
        means=np.asarray(means),
        snapshots=tuple(snaps),
        per_direction={ax: np.asarray(series) for ax, series in per_dir.items()},
        histogram_edges=edges,
        histograms=tuple(np.asarray(h) for h in hists),
    )


def _radial_mean_nd(rho: np.ndarray, grid: Grid, g: np.ndarray, alpha: float) -> float:
    """<p_alpha(|x|)> for the scaled n-D density (cell masses rho on the dual
    lattice of grid), with a Gauss-refined origin cell (the only cell where
    p_alpha(g.u) varies below lattice resolution)."""
    rho = rho / rho.sum()
    r2 = np.zeros(grid.shape)
    for k in range(grid.dims):
        r2 = r2 + (g[k] * grid.axis_freqs(k)) ** 2
    vals = p_alpha(np.sqrt(r2), alpha)
    total = float(np.sum(vals * rho))
    # refine the origin cell by a tensor Gauss rule
    idx = tuple([0] * grid.dims)
    w0 = float(rho[idx])
    if w0 > 0:
        h = grid.freq_spacing
        pts = (h / 2.0) * _GAUSS_NODES
        mesh = np.meshgrid(*([pts] * grid.dims), indexing="ij")
        wmesh = np.ones_like(mesh[0])
        for k in range(grid.dims):
            wshape = [1] * grid.dims
            wshape[k] = len(_GAUSS_WEIGHTS)
            wmesh = wmesh * (_GAUSS_WEIGHTS.reshape(wshape) / 2.0)
        rr = np.zeros_like(mesh[0])
        for k in range(grid.dims):
            rr = rr + (g[k] * mesh[k]) ** 2
        refined = float(np.sum(p_alpha(np.sqrt(rr), alpha) * wmesh))
        total += w0 * (refined - float(vals[idx]))
    return total


def minimal_maximal_velocity_mass(trace: VelocityTrace, theta_low: float,
                                  theta_window) -> dict:
    """Mass of p_alpha(x)/t below theta_low and inside [theta2, theta3],
    per snapshot time; both must decay in t for continuum states."""
    if not trace.snapshots:
        raise ConfigurationError("trace carries no density snapshots")
    t2, t3 = theta_window
    below = []
    window = []
    for snap in trace.snapshots:
        below.append(snap.velocity_mass_below(theta_low, trace.alpha))
        window.append(snap.velocity_mass_window(t2, t3, trace.alpha))
    return {
        "times": trace.times[: len(below)],
        "mass_below": np.asarray(below),
        "mass_in_window": np.asarray(window),
        "below_decaying": bool(np.all(np.diff(below) <= 1e-12 + 0.05 * np.abs(below[:-1]))),
        "window_decaying": bool(np.all(np.diff(window) <= 1e-12 + 0.05 * np.abs(window[:-1]))),
    }


def velocity_trace_to_csv(trace: VelocityTrace, path):
    axes = sorted(trace.per_direction)
    write_rows(path, ["t", "mean"] + [f"ln_x{ax}_over_t" for ax in axes],
               zip(trace.times, trace.means, *(trace.per_direction[ax] for ax in axes)))


def histograms_to_csv(trace: VelocityTrace, path):
    edges = trace.histogram_edges
    write_rows(path, ["t", "bin_lo", "bin_hi", "mass"],
               ((t, lo, hi, m) for t, masses in zip(trace.times, trace.histograms)
                for lo, hi, m in zip(edges[:-1], edges[1:], masses)))
