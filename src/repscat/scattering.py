"""Scattering laboratory: Cook integrands, finite-time wave operators, the
local-velocity operator, and asymptotic-velocity traces.

Cook integrands and velocity traces are functionals of one density series,
the cell masses of |exp(-i t H0) psi0|^2 at each time, on a _Lattice: the
fixed dual lattice with coordinates scaled by g_k(2t) on the factorized
route, so large times never need a larger grid, or the spatial grid on the
split-step route.  Every such functional is one weighted sum, _lattice_sum,
of one rule, _lattice_values: cell averages of fn(g*u) on a 1-D dual lattice
(one Gauss table per lattice), point samples otherwise (too coarse on an n-D
dual lattice, ROADMAP item 2, whose one other target is _radial_mean_nd's
origin-cell term).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .csvout import write_rows
from .errors import ConfigurationError, DomainEscapeError
from .grids import (
    EDGE_FRACTION,
    MOMENTUM,
    POSITION,
    Grid,
    WaveFunction,
    _checked_total,
    _guard_edge,
    _marginal,
    _sum_sq,
    l2_distance,
    tail_radii,
    to_momentum,
    to_position,
)
from .mehler import (
    _chirp_factors,
    _on_spec_grid,
    _times_chirp,
    chirped_spectrum,
    trajectory_factors,
)
from .potentials import (
    QuadraticSpec,
    p_alpha,
    p_alpha_inverse,
    radius_sq,
    sigma_alpha,
)
from .splitstep import EvolutionConfig, _evolve, _fourier_step, evolution_config, propagate


def _mirrored(nodes: tuple, weights: tuple):
    """A Gauss-Legendre rule on [-1, 1] from its positive nodes (ascending)
    and their weights: the nodes are odd about 0 and the weights even."""
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


# numpy.polynomial.legendre.leggauss(32) and (8), bit for bit, as literals:
# importing numpy.polynomial would add to every cold start.
_GAUSS_NODES, _GAUSS_WEIGHTS = _mirrored(
    (0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
     0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
     0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
     0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816),
    (0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
     0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
     0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
     0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506))
_FAR_NODES, _FAR_WEIGHTS = _mirrored(
    (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362),
    (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706))

#: Cells whose node lies this many cells or more from 0 take the 8-point rule.
_NEAR_CELLS = 32

#: Entries of one block of DensitySnapshot.velocity_mass's (theta, cell) table:
#: 16 KB per temporary, so a histogram adds nothing measurable to a run's peak
#: memory, even on a grid of 2^24 points.
_MASS_BLOCK = 2**11


@functools.lru_cache(maxsize=16)
def _cell_tiers(nodes: bytes, spacing: float) -> tuple:
    """(mask, node table, weights) of each non-empty Gauss tier of
    _cell_average on the float64 nodes given by their bytes: the cells the
    tier takes, the points node + (h/2) x of its rule x (one row per cell,
    read-only) and its weights w.  These depend on the lattice alone, so a
    lattice builds them once; keyed by value, as grids._band_slabs is, so
    no array outlives its run.  The table holds 8 floats per far cell."""
    nodes = np.frombuffer(nodes)
    near = np.abs(nodes) < _NEAR_CELLS * spacing
    tiers = []
    for mask, x, w in ((near, _GAUSS_NODES, _GAUSS_WEIGHTS), (~near, _FAR_NODES, _FAR_WEIGHTS)):
        if np.any(mask):
            table = np.add.outer(nodes[mask], (spacing / 2.0) * x)
            table.flags.writeable = False
            tiers.append((mask, table, w))
    return tuple(tiers)


def _cell_average(fn: Callable, scale: float, nodes: np.ndarray, spacing: float) -> np.ndarray:
    """Average of fn(scale * v) over each cell [node - h/2, node + h/2] of
    the 1-D `nodes`.

    Point sampling is wrong whenever fn(scale * v) varies on the 1/scale
    scale inside a cell (the origin cell at large dilation scales); Gauss
    averaging restores the correct cell mass.  Cells within _NEAR_CELLS of
    0 take 32-point Gauss-Legendre and the rest 8-point: features of width
    ~1 near y = 0 (the <y> branch points at +-i, the log-power poles at
    |y| ~ 1.3) lie outside a Bernstein ellipse rho >~ 4k of a cell k cells
    out, so the 8-point error there is ~rho^-16, below roundoff.  fn is
    called once per tier, on that tier's (cells, rule points) array.  The
    rule sums run through einsum rather than a matrix-vector product, whose
    BLAS kernel rounds a row by its position in the table, so a cell's
    average does not depend on the order of the nodes.
    """
    nodes = np.ascontiguousarray(nodes, dtype=float)
    out = np.empty(nodes.shape)
    for mask, table, w in _cell_tiers(nodes.tobytes(), spacing):
        out[mask] = np.einsum("ij,j->i", fn(scale * table), w) / 2.0
    return out


class _Lattice(NamedTuple):
    """Where a density's cell masses sit: the cells of axis k are `spacing`
    wide in u and centred on the points x_k = g[k] u for u in nodes[k], in
    the nodes' own order (FFT order on a dual lattice), so masses and values
    pair index by index.  `averaged` marks a dual lattice, where fn(g u)
    varies inside the cells near u = 0: there a 1-D lattice takes cell
    averages, while an n-D one still takes point samples (ROADMAP item 2)."""

    nodes: tuple
    spacing: float
    g: Sequence[float]
    averaged: bool

    def axis(self, k: int) -> "_Lattice":
        """The 1-D lattice of axis k, which carries that axis's marginal."""
        return _Lattice(self.nodes[k:k + 1], self.spacing, self.g[k:k + 1], self.averaged)


def _dual_lattice(grid: Grid, g) -> _Lattice:
    """The dual lattice of `grid` with axis k dilated by g[k]."""
    return _Lattice((grid.freq_nodes,) * grid.dims, grid.freq_spacing, g, True)


def _lattice_values(fn: Callable, lattice: _Lattice) -> np.ndarray:
    """fn at the cells of `lattice`, broadcast to its shape: cell averages of
    fn(g u) on a 1-D averaged lattice, point samples fn(g u) otherwise (which
    miss the sub-cell structure near u = 0 of an n-D dual lattice, item 2)."""
    nodes, spacing, g, averaged = lattice
    dims = len(nodes)
    if averaged and dims == 1:
        return _cell_average(fn, float(g[0]), nodes[0], spacing)
    shapes = ([-1 if j == k else 1 for j in range(dims)] for k in range(dims))
    return fn(*(gk * u.reshape(shape) for gk, u, shape in zip(g, nodes, shapes)))


def _lattice_sum(fn: Callable, lattice: _Lattice, masses: np.ndarray) -> float:
    """Sum over the cells of `lattice` of masses * fn: the one weighted sum
    behind every density functional here (a mean when the masses sum to 1)."""
    return float(np.sum(_lattice_values(fn, lattice) * masses))


def _density_series(psi0: WaveFunction, hamiltonian, times: np.ndarray):
    """Yield (t, rho, lattice) for each t in the increasing `times`: the cell
    masses rho of |exp(-i t H0) psi0|^2 and the lattice they sit on.

    A QuadraticSpec takes the factorization identity, rho = |F(M_t psi0)|^2
    on the dual lattice scaled by g_k(2t), so any t is reachable with no grid
    growth; an EvolutionConfig propagates in sequence on the spatial grid
    (g = 1).  A DomainEscapeError passes through to the consumer.

    A field E_k drags F(M_t psi0) to centre u = p_k - E_k t/2 (p_k: psi0's
    mean momentum on axis k); past the dual lattice's edge band it wraps
    around, unseen by an edge guard the schedule can step over, so such a
    t raises a DomainEscapeError before its spectrum is taken.
    """
    if isinstance(hamiltonian, QuadraticSpec):
        psi0 = _on_spec_grid(psi0, hamiltonian)
        _checked_total(_sum_sq(psi0.values.view(float)))  # before any mean momentum
        nodes = psi0.grid.freq_nodes
        band = (1.0 - EDGE_FRACTION) * float(np.max(np.abs(nodes)))
        drift = []  # (axis, field, mean momentum) of each axis with a field
        for k, field_k in enumerate(hamiltonian.axis_fields):
            if field_k:
                marg = _marginal(psi0.values, k, spectral=True)
                drift.append((k, field_k, float(np.dot(marg, nodes) / marg.sum())))
        for t in times:
            for k, field_k, p in drift:
                centre = p - field_k * t / 2.0
                if abs(centre) >= band:
                    raise DomainEscapeError(
                        f"Stark drift carries the chirped spectrum of axis {k} to u = "
                        f"{centre:.3g} at t={t}, into the edge band of the dual lattice; "
                        "refine the grid")
            hat, g = chirped_spectrum(psi0, t, hamiltonian)
            yield t, hat.density() * hat.measure, _dual_lattice(hat.grid, g)
    elif isinstance(hamiltonian, EvolutionConfig):
        psi, prev = to_position(psi0), 0.0
        grid = psi.grid
        lattice = _Lattice((grid.nodes,) * grid.dims, grid.spacing, np.ones(grid.dims), False)
        for t in times:
            psi, _ = propagate(psi, t - prev, hamiltonian)
            prev = t
            yield t, psi.density() * psi.measure, lattice
    else:
        raise ConfigurationError("hamiltonian must be a QuadraticSpec or EvolutionConfig")


@dataclass(frozen=True)
class DensitySnapshot:
    """Weighted point masses representing |psi(t, x)|^2 on a 1-D lattice,
    x = scale * node: for the factorization route the nodes are dual-lattice
    points in FFT order and scale is g(2t); for direct grid densities the
    nodes are spatial points with scale 1.  Weights sum to 1."""

    t: float
    nodes: np.ndarray
    weights: np.ndarray
    scale: float
    spacing: float

    def mean_of(self, fn: Callable, cell_averaged: bool = True) -> float:
        """The mean of fn(scale * v), cell-averaged or point-sampled."""
        lattice = _Lattice((self.nodes,), self.spacing, (self.scale,), cell_averaged)
        return _lattice_sum(fn, lattice, self.weights)

    def velocity_mass(self, alpha: float, thetas) -> np.ndarray:
        """P[p_alpha(x)/t <= theta] for each theta of the 1-D `thetas`: the
        weight of each cell times its share inside [-r, r], r = p_alpha^-1(theta
        t) (sub-cell exact); non-decreasing in theta.  The (theta, cell) table
        is built a block of _MASS_BLOCK entries at a time."""
        r = p_alpha_inverse(np.asarray(thetas, dtype=float) * self.t, alpha) / abs(self.scale)
        lo, hi = self.nodes - self.spacing / 2.0, self.nodes + self.spacing / 2.0
        rows = max(1, _MASS_BLOCK // self.nodes.size)
        out = np.empty(r.shape)
        for i in range(0, r.size, rows):
            ri = r[i:i + rows, None]
            inside = np.clip(np.minimum(hi, ri) - np.maximum(lo, -ri), 0.0, None)
            out[i:i + rows] = np.sum(self.weights * (inside / self.spacing), axis=-1)
        return out


# ---------------------------------------------------------------------------
# Local velocity.
# ---------------------------------------------------------------------------

def local_velocity_expectation(psi: WaveFunction, alpha: float) -> float:
    """<psi, A psi> / ||psi||^2 for A = sigma_alpha/2 sum_k (f_k D_k + D_k f_k),
    f_k = x_k <x>^-(1 + alpha/2), D = -i grad.  Since f_k is real and
    D_k = F^-1 xi_k F is Hermitian on the lattice, <psi, A psi> =
    sigma_alpha sum_k Re <f_k psi, D_k psi> exactly: one forward transform
    and one inverse per axis."""
    pos = to_position(psi)
    grid = pos.grid
    total = _checked_total(_sum_sq(pos.values.view(float)))
    hat = to_momentum(pos).values
    r2 = radius_sq(*(grid.axis_nodes(k) for k in range(grid.dims)))
    decay = sigma_alpha(alpha) * (1.0 + r2) ** (-(1.0 + alpha / 2.0) / 2.0)
    num = 0.0
    for k in range(grid.dims):
        d_psi = to_position(WaveFunction(grid, hat * grid.axis_freqs(k), MOMENTUM)).values
        num += np.vdot(grid.axis_nodes(k) * decay * pos.values, d_psi).real
    return float(num / total)


# ---------------------------------------------------------------------------
# Cook's method.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CookRecord:
    times: np.ndarray
    integrand: np.ndarray
    tail_kind: str                # 'power' or 'exponential'
    tail_exponent: float          # power p in t^p, or rate lambda in e^(-lambda t)
    tail_exponent_full: float     # power-law slope over the whole schedule
    integral_estimate: float
    tail_integral: Callable = field(repr=False)
    truncated: bool = False


def _fit_tails(times, vals, tail_start):
    mask = (times >= tail_start) & (vals > 0)
    if np.sum(mask) < 3:
        return "power", -np.inf, None
    t, v = times[mask], vals[mask]
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
            vals.append(float(np.sqrt(_lattice_sum(v2, lattice, rho))))
    except DomainEscapeError:
        if not vals:  # nothing to fit or integrate
            raise
        truncated = True
    vals = np.asarray(vals)
    times = times[: len(vals)]
    tail_start = float(np.sqrt(times[0] * times[-1]))
    kind, expo, fit = _fit_tails(times, vals, tail_start)
    # a power law over the whole schedule, whichever model fits the tail
    pos = vals > 0
    full_slope = (float(np.polyfit(np.log(times[pos]), np.log(vals[pos]), 1)[0])
                  if np.sum(pos) >= 3 else -np.inf)

    def tail_integral(t_lo, t_hi):
        if fit is None:
            return 0.0
        a, b = fit
        c = np.exp(b)
        if kind == "power":
            p = a
            if t_hi == np.inf:
                if p >= -1.0:
                    return np.inf
                return c * t_lo ** (p + 1.0) / (-p - 1.0)
            if abs(p + 1.0) < 1e-12:
                return c * np.log(t_hi / t_lo)
            return c * (t_hi ** (p + 1.0) - t_lo ** (p + 1.0)) / (p + 1.0)
        lam = -a
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
    write_rows(path, ["t", "integrand"], [record.times, record.integrand])


# ---------------------------------------------------------------------------
# Wave operators.
# ---------------------------------------------------------------------------

#: Interaction-picture slice width on [s0, T].
_SLICE = 0.025

#: Edge-mass tolerance of the wave operator's input and split-step anchor:
#: wave-operator states legitimately carry a small spread scattered component.
_ANCHOR_EDGE_TOL = 1e-2


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
    per-axis factors of the chirp M_s (mehler._chirp_factors) and the
    dual-lattice multiplier exp(i delta V(g(2s) .))."""
    fac = trajectory_factors(s, spec)
    factors = _chirp_factors(grid, spec, fac)
    vbar = _lattice_values(perturbation, _dual_lattice(grid, fac.g))
    return factors, np.exp(1j * delta * vbar)


def _chirp_resolution_floor(phi: WaveFunction, spec: QuadraticSpec):
    """(floor, ceiling): the smallest s at which M_s is resolved, and the
    largest.  The chirp's instantaneous frequency max|x| h(2s)/g(2s) plus
    the bandwidth of phi (its widest axis marginal, cut at a 1e-10 tail)
    must stay below 80% of Nyquist.  On a Stark axis the field adds |E| s/2,
    which grows with s, so the slices are resolved only up to the ceiling
    where L/(2s) + |E| s/2 meets that budget (0 where it never does; inf
    without Stark fields).  The floor leaves the field term out."""
    grid = phi.grid
    bandwidth = float(np.max(tail_radii(to_position(phi).values, grid.freq_nodes, 1e-10,
                                        spectral=True)))
    ximax = float(np.max(np.abs(grid.freq_nodes)))
    budget = 0.8 * ximax - bandwidth
    L = grid.half_width
    if budget <= L:  # coth > 1 always; need budget/L > 1
        raise ConfigurationError("grid cannot resolve the interaction chirp; increase points")
    s_floor, ceiling = 0.0, math.inf
    for sector, w, field_k in zip(spec.sectors, spec.axis_omegas, spec.axis_fields):
        if sector == "hyperbolic":
            s_floor = max(s_floor, float(np.arctanh(w * L / budget) / (2.0 * w)))
        else:  # stark or free; the caller rejects trigonometric axes
            s_floor = max(s_floor, L / (2.0 * budget))
        if field_k:
            disc = budget**2 - abs(field_k) * L
            top = (budget + math.sqrt(disc)) / abs(field_k) if disc >= 0 else 0.0
            ceiling = min(ceiling, top)
    return s_floor, ceiling


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

    The chains, one state per horizon above s0, are the rows of one stack,
    largest horizon first.  Walking the slices of _slice_edges from the top
    down, each slice's (chirp factors, multiplier) is built once and applied
    in place to every live row at once (the rows whose horizon is at or
    above the slice's top edge); a row starts as a copy of phi when the
    descent reaches its horizon.  Every chain uses the same slices below its
    horizon, so Omega_T2 = Omega_T1 S(T1, T2) holds exactly on the lattice.
    The stack then takes the split-step anchor on [0, s0] in place, in one
    Strang loop, and its rows are the results: memory is one state per
    horizon, as for chains run one at a time, plus the anchor's two
    grid-shaped phase arrays.  Horizons T <= s0, T = 0 included, take the
    anchor alone, one state each.
    """
    phi = _on_spec_grid(phi, spec)
    if spec.n_plus > 0:
        raise ConfigurationError(
            "interaction-picture wave operators cross kernel singular times on "
            "confining axes; use split-step configs for n_plus > 0"
        )
    grid = phi.grid
    # before the chirp floor: a state cut off at the box edge is broadband,
    # and more points could not resolve its chirp
    _guard_edge(phi.values, grid, POSITION, _ANCHOR_EDGE_TOL, "wave-operator input")
    s_floor, ceiling = _chirp_resolution_floor(phi, spec)
    s0 = max(2.0 * s_floor, 0.05)
    anchor = _anchor_configs(grid, spec, perturbation)
    out = {}
    for T in Ts:
        if T <= s0:
            vals = _wave_operator_direct(phi.values.copy(), T, anchor)
            out[T] = WaveFunction(grid, vals, POSITION)
    horizons = sorted({T for T in Ts if T > s0}, reverse=True)
    if not horizons:
        return out
    if horizons[0] > ceiling:
        raise ConfigurationError(
            f"horizon T={horizons[0]} passes s = {ceiling:.3g}, beyond which the Stark "
            "field leaves the interaction chirp unresolved; refine the grid or lower T")
    edges = _slice_edges(s0, horizons)
    stack = np.empty((len(horizons),) + grid.shape, dtype=complex)
    live = 0
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        if live < len(horizons) and hi == horizons[live]:
            stack[live] = phi.values
            live += 1
        factors, multiplier = _interaction_phase_slice(grid, spec, 0.5 * (lo + hi), hi - lo,
                                                       perturbation)
        # conj(a b) = conj(a) conj(b) exactly, so M_s^* is the product of
        # the conjugated factors
        conj = [np.conj(f) for f in factors]
        chains = stack[:live]
        _times_chirp(factors, chains, chains)
        _fourier_step(chains, multiplier, grid.dims)
        _times_chirp(conj, chains, chains)
    for T, u in zip(horizons, _wave_operator_direct(stack, s0, anchor)):
        out[T] = WaveFunction(grid, u, POSITION)
    return out


def _anchor_configs(grid: Grid, spec: QuadraticSpec, perturbation: Callable):
    """The free and perturbed split-step configs of _wave_operator_direct,
    built once per _wave_operators call and shared by its chains."""
    return (evolution_config(grid, 1e-3, quadratic=spec, edge_mass_tol=_ANCHOR_EDGE_TOL),
            evolution_config(grid, 1e-3, quadratic=spec, perturbation=perturbation,
                             edge_mass_tol=_ANCHOR_EDGE_TOL))


def _wave_operator_direct(vals: np.ndarray, T: float, anchor) -> np.ndarray:
    """exp(i T H) exp(-i T H0) by split-step on both halves (small T > 0),
    in place on the position samples vals, which are returned: one state, or
    a stack of them along a leading axis that steps as one in the Strang
    loop (splitstep._evolve).  `anchor` holds the (free, perturbed) configs
    of _anchor_configs.

    Matching discretizations make the V = 0 case an exact identity, and the
    shared Strang error cancels to first order in the perturbation.  The
    edge guard is relaxed here, to _ANCHOR_EDGE_TOL.  Every state is guarded
    on its own, and one with a non-finite sample (an overflowing slice) is
    refused.
    """
    cfg0, cfg = anchor
    _evolve(vals, T, cfg0, "wave-operator anchor", out=vals)
    _evolve(vals, -T, cfg, "wave-operator anchor", out=vals)
    return vals


def cauchy_differences(phi: WaveFunction, Ts: Sequence[float], spec: QuadraticSpec,
                       perturbation: Callable):
    """||Omega_T2 phi - Omega_T1 phi|| for consecutive T pairs, with the
    wave-operator states themselves (keyed by T, in the order of Ts).  All
    horizons come from one descent over the shared slice lattice, so each
    difference is ||S(T1, T2) phi - phi|| for the slice product S on
    [T1, T2], pushed through the same unitary lower chain."""
    states = _wave_operators(phi, Ts, spec, perturbation)
    omegas = {T: states[T] for T in Ts}
    diffs = [l2_distance(omegas[t2], omegas[t1]) for t1, t2 in zip(Ts, Ts[1:])]
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

    def richardson_limit(self) -> float:
        """Two-point extrapolation in 1/t from the last two times: with
        m(t) = sigma + c/t, (t2 m2 - t1 m1)/(t2 - t1) removes the 1/t term."""
        t1, t2 = self.times[-2:]
        m1, m2 = self.means[-2:]
        return float((t2 * m2 - t1 * m1) / (t2 - t1))


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
    means = []
    snaps = []
    per_dir = {ax: [] for ax in range(dims)} if per_direction else {}
    for t, rho, lat in _density_series(psi0, hamiltonian, times):
        # one density per time serves the radial mean and every marginal
        if dims == 1:
            weights = rho / rho.sum()
            means.append(_lattice_sum(lambda y: p_alpha(y, alpha), lat, weights) / t)
            snaps.append(DensitySnapshot(t=t, nodes=lat.nodes[0], weights=weights,
                                         scale=float(lat.g[0]), spacing=lat.spacing))
        else:
            means.append(_radial_mean_nd(rho, lat, alpha) / t)
        for ax in per_dir:
            marg = rho.sum(axis=tuple(k for k in range(dims) if k != ax))
            per_dir[ax].append(_lattice_sum(lambda y: p_alpha(y, 2.0), lat.axis(ax),
                                            marg / marg.sum()) / t)
    return VelocityTrace(
        alpha=alpha,
        times=times,
        means=np.asarray(means),
        snapshots=tuple(snaps),
        per_direction={ax: np.asarray(series) for ax, series in per_dir.items()},
    )


def _radial_mean_nd(rho: np.ndarray, lattice: _Lattice, alpha: float) -> float:
    """<p_alpha(|x|)> for the n-D cell masses rho on the dual `lattice`: the
    lattice sum, plus a tensor-Gauss rule on the origin cell (index 0), where
    p_alpha(|g u|) varies below the lattice resolution.  That term is the one
    rule outside _lattice_values, and ROADMAP item 2 deletes it."""
    rho = rho / rho.sum()
    radial = lambda *x: p_alpha(np.sqrt(radius_sq(*x)), alpha)
    total = _lattice_sum(radial, lattice, rho)
    w0 = float(rho.flat[0])
    if w0 > 0:  # np.ix_ lays rule k along axis k
        pts = np.ix_(*[(lattice.spacing / 2.0) * _GAUSS_NODES] * rho.ndim)
        weights = math.prod(np.ix_(*[_GAUSS_WEIGHTS / 2.0] * rho.ndim))
        refined = float(np.sum(radial(*(gk * p for gk, p in zip(lattice.g, pts))) * weights))
        total += w0 * (refined - float(p_alpha(0.0, alpha)))
    return total


def minimal_maximal_velocity_mass(trace: VelocityTrace, theta_low: float,
                                  theta_window) -> dict:
    """Mass of p_alpha(x)/t below theta_low and inside [theta2, theta3],
    per snapshot time; both must decay in t for continuum states."""
    if not trace.snapshots:
        raise ConfigurationError("trace carries no density snapshots")
    t2, t3 = theta_window
    if not t2 <= t3:
        raise ConfigurationError(f"theta window [{t2}, {t3}] is not increasing")
    masses = np.array([snap.velocity_mass(trace.alpha, (theta_low, t2, t3))
                       for snap in trace.snapshots])
    below, window = masses[:, 0], masses[:, 2] - masses[:, 1]
    return {
        "times": trace.times[: len(below)],
        "mass_below": below,
        "mass_in_window": window,
        "below_decaying": bool(np.all(np.diff(below) <= 1e-12 + 0.05 * np.abs(below[:-1]))),
        "window_decaying": bool(np.all(np.diff(window) <= 1e-12 + 0.05 * np.abs(window[:-1]))),
    }


def velocity_trace_to_csv(trace: VelocityTrace, path):
    axes = sorted(trace.per_direction)
    write_rows(path, ["t", "mean"] + [f"ln_x{ax}_over_t" for ax in axes],
               [trace.times, trace.means, *(trace.per_direction[ax] for ax in axes)])


def histograms_to_csv(trace: VelocityTrace, path):
    """Masses of p_alpha(x)/t in 120 equal bins over [0, 2 sigma_alpha + 1]
    per snapshot time, built here from the snapshots' cumulative masses."""
    edges = np.linspace(0.0, 2.0 * sigma_alpha(trace.alpha) + 1.0, 121)
    times = [snap.t for snap in trace.snapshots]
    masses = np.diff([snap.velocity_mass(trace.alpha, edges) for snap in trace.snapshots])
    write_rows(path, ["t", "bin_lo", "bin_hi", "mass"],
               [np.repeat(times, edges.size - 1), np.tile(edges[:-1], len(times)),
                np.tile(edges[1:], len(times)), masses.ravel()])
