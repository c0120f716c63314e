"""Strang split-step spectral propagator for H = -Laplacian + V_total(x),
with V_total = -<x>^alpha + V or a quadratic saddle plus perturbation, and a
small dense matrix-exponential oracle."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    ConfigurationError,
    NumericalStateError,
    OracleScaleError,
    PhaseWindingError,
)
from .grids import (
    EDGE_MASS_TOL,
    POSITION,
    Grid,
    WaveFunction,
    _guard_edge,
    expectation,
    l2_distance,
    l2_norm,
    to_momentum,
    to_position,
)
from .potentials import (
    QuadraticSpec,
    RepulsiveSpec,
    p_alpha,
    p_alpha_inverse,
    radius_sq,
    sigma_alpha,
)

ORACLE_MAX_POINTS = 128


@dataclass(frozen=True)
class EvolutionConfig:
    """Sampled potential data, the grid's kinetic symbol xi^2 and the
    edge-mass tolerance for split-step runs."""

    grid: Grid
    dt: float
    potential: np.ndarray
    edge_mass_tol: float = EDGE_MASS_TOL
    kinetic: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")
        if np.iscomplexobj(self.potential):
            raise ConfigurationError("potential samples must be real")
        pot = np.asarray(self.potential, dtype=float)
        if pot.shape != self.grid.shape:
            raise ConfigurationError("potential samples do not match the grid")
        if not np.all(np.isfinite(pot)):
            raise ConfigurationError("potential samples must be finite and real")
        object.__setattr__(self, "potential", pot)
        freqs = (self.grid.axis_freqs(k) for k in range(self.grid.dims))
        object.__setattr__(self, "kinetic", radius_sq(*freqs))
        winding = self.dt * float(np.max(np.abs(pot)))
        if winding > np.pi:
            raise PhaseWindingError(
                f"dt*max|V| = {winding:.3f} exceeds pi; shrink dt or the box"
            )


def evolution_config(grid: Grid, dt: float,
                     repulsive: Optional[RepulsiveSpec] = None,
                     quadratic: Optional[QuadraticSpec] = None,
                     perturbation=None,
                     edge_mass_tol: float = EDGE_MASS_TOL) -> EvolutionConfig:
    """Compose -<x>^alpha (or quadratic U) plus perturbation samples."""
    pot = np.zeros(grid.shape)
    if repulsive is not None:
        pot = pot + repulsive.potential_samples(grid)
    if quadratic is not None:
        pot = pot + quadratic.potential_samples(grid)
    if perturbation is not None:
        extra = perturbation(*grid.meshgrid()) if callable(perturbation) else perturbation
        if np.iscomplexobj(extra):
            raise ConfigurationError("perturbation samples must be real")
        pot = pot + np.broadcast_to(np.asarray(extra, dtype=float), grid.shape)
    return EvolutionConfig(grid=grid, dt=dt, potential=pot, edge_mass_tol=edge_mass_tol)


def _fourier_step(buf: np.ndarray, multiplier: np.ndarray, dims: int) -> None:
    """buf <- F^-1(multiplier * F buf) in place over the last `dims` axes of
    buf, which holds one state on a dims-dimensional grid or a stack of them
    along a leading axis: the Fourier half of every Strang step and
    wave-operator slice, whose callers then apply their own position phase.
    The axes are transformed one at a time, the last first as numpy's fftn
    orders them; in-place transforms need only line-sized scratch."""
    axes = range(buf.ndim - 1, buf.ndim - 1 - dims, -1)
    for ax in axes:
        np.fft.fft(buf, axis=ax, out=buf)
    np.multiply(multiplier, buf, out=buf)
    for ax in axes:
        np.fft.ifft(buf, axis=ax, out=buf)


def _phase(coeff: complex, samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- exp(coeff * samples), built in out with no complex temporary."""
    np.multiply(coeff, samples, out=out)
    return np.exp(out, out=out)


def _guard_states(states: np.ndarray, cfg: EvolutionConfig, context: str) -> float:
    """The largest edge mass of the states along the first axis of `states`,
    each guarded by _guard_edge against cfg's tolerance."""
    return max(_guard_edge(state, cfg.grid, POSITION, cfg.edge_mass_tol, context)
               for state in states)


def _strang_steps(vals: np.ndarray, cfg: EvolutionConfig, segments, context: str,
                  conjugate: bool = False, out=None):
    """Strang steps from the position samples vals: n steps of length dt for
    each (dt, n) of segments in turn.  vals is one state on cfg's grid or a
    stack of states along a leading axis (the wave-operator chains), which
    then step together: every multiply broadcasts over the stack and every
    transform runs over the grid axes alone, so each state takes the
    operations of a run of its own, and each is guarded once per step.  The
    states step in `out`, a C-contiguous buffer of vals' shape that may be
    vals itself; by default one is allocated here, so the result never
    aliases vals.  Two grid-shaped phase arrays serve a segment and every
    state: `kin` holds the kinetic phase, and `pot` the half potential phase
    of the opening half step, squared in place into the full phase when
    n > 1; the closing half phase is then rebuilt in `kin` after the last
    Fourier step.  With conjugate, the run starts from conj(vals) and the
    result is conjugated in place.  Returns (samples, max edge mass).
    """
    grid = cfg.grid
    buf = np.empty(vals.shape, dtype=complex) if out is None else out
    states = buf.reshape((-1,) + grid.shape)
    kin = np.empty(grid.shape, dtype=complex)
    pot = np.empty_like(kin)
    if conjugate:
        vals = np.conjugate(vals, out=buf)
    max_edge = 0.0
    for dt, n in segments:
        _phase(-1j * dt, cfg.kinetic, kin)
        _phase(-0.5j * dt, cfg.potential, pot)
        np.multiply(pot, vals, out=buf)
        if n > 1:
            np.multiply(pot, pot, out=pot)
        for k in range(n):
            _fourier_step(buf, kin, grid.dims)
            phase = pot
            if k == n - 1 and n > 1:
                phase = _phase(-0.5j * dt, cfg.potential, kin)
            np.multiply(phase, buf, out=buf)
            max_edge = max(max_edge, _guard_states(states, cfg, context))
        vals = buf
    if conjugate:
        np.conjugate(buf, out=buf)
    return buf, max_edge


def _evolve(vals: np.ndarray, t: float, cfg: EvolutionConfig, context: str, out=None):
    """exp(-i t H) on the position samples vals (one state or a stack, in the
    buffer `out`, as in _strang_steps): whole steps of cfg.dt and a
    fractional remainder (none within 1e-12 dt of a whole step).  Backward
    (t < 0) the conjugate states step forward, the exact time-reversal for
    real potentials, with the remainder first, so that a backward run undoes
    a forward one step for step, since S(-h) is the exact inverse of S(h).
    A t below the step resolution runs no step and guards vals as given.
    Returns (samples, steps, max edge mass)."""
    n_full, rem = divmod(abs(t), cfg.dt)
    n_full = int(round(n_full))
    if rem < 1e-12 * cfg.dt or abs(rem - cfg.dt) < 1e-12 * cfg.dt:
        if abs(rem - cfg.dt) < 1e-12 * cfg.dt:
            n_full += 1
        rem = 0.0
    order = ((rem, 1), (cfg.dt, n_full)) if t < 0 else ((cfg.dt, n_full), (rem, 1))
    segments = [(d, n) for d, n in order if d and n]
    if not segments:
        return vals, 0, _guard_states(vals.reshape((-1,) + cfg.grid.shape), cfg, context)
    vals, max_edge = _strang_steps(vals, cfg, segments, context, conjugate=t < 0, out=out)
    return vals, n_full + (1 if rem else 0), max_edge


def strang_step(psi: WaveFunction, cfg: EvolutionConfig) -> WaveFunction:
    """One Strang step exp(-i dt V/2) F^-1 exp(-i dt xi^2) F exp(-i dt V/2),
    dt = cfg.dt."""
    psi = to_position(psi)
    vals, _ = _strang_steps(psi.values, cfg, [(cfg.dt, 1)], "strang_step")
    return WaveFunction(psi.grid, vals, POSITION)


def propagate(psi0: WaveFunction, t: float, cfg: EvolutionConfig):
    """Repeated Strang steps with a final fractional step.

    Backward evolution (t < 0) runs the conjugate state forward, which is the
    exact time-reversal for real potentials, with the fractional step first,
    so that propagate(propagate(psi, t)[0], -t) returns psi to rounding; the
    conjugations run in the Strang loop's own buffer.  Returns (psi_t,
    telemetry).
    """
    psi0 = to_position(psi0)
    if not l2_norm(psi0) > 0.0:
        raise NumericalStateError("propagate requires a state with positive norm")
    if t == 0.0:
        return psi0, {"steps": 0, "max_edge_mass": 0.0}
    vals, steps, max_edge = _evolve(psi0.values, t, cfg, "propagate")
    out = WaveFunction(cfg.grid, vals, POSITION)
    return out, {"steps": steps, "max_edge_mass": max_edge}


def hamiltonian_matrix(cfg: EvolutionConfig) -> np.ndarray:
    """Dense H = F^-1 diag(xi^2) F + diag(V) on a small 1-D grid."""
    grid = cfg.grid
    if grid.dims != 1 or grid.points_per_dim > ORACLE_MAX_POINTS:
        raise OracleScaleError("dense oracle limited to 1-D grids with <= 128 points")
    n = grid.points_per_dim
    eye = np.eye(n, dtype=complex)
    kin = np.fft.ifft(cfg.kinetic[:, None] * np.fft.fft(eye, axis=0), axis=0)
    return kin + np.diag(cfg.potential.astype(complex))


def dense_oracle(psi0: WaveFunction, t: float, cfg: EvolutionConfig) -> WaveFunction:
    """exp(-i t H) psi0 through the eigendecomposition of the dense H."""
    psi0 = to_position(psi0)
    ham = hamiltonian_matrix(cfg)
    herm_defect = np.max(np.abs(ham - ham.conj().T))
    if herm_defect > 1e-10:
        raise ConfigurationError(f"assembled Hamiltonian not Hermitian ({herm_defect:.2e})")
    w, u = np.linalg.eigh((ham + ham.conj().T) / 2.0)
    vals = u @ (np.exp(-1j * t * w) * (u.conj().T @ psi0.values))
    return WaveFunction(psi0.grid, vals, POSITION)


def convergence_order(psi0: WaveFunction, t: float, cfg: EvolutionConfig, dt_sequence):
    """Least-squares slope of log(error) vs log(dt) for the Strang scheme,
    against the dense matrix exponential.  Points at the roundoff floor are
    dropped and flagged.  Returns dict(slope, errors, dts, floor_flagged).
    """
    dts = sorted(float(d) for d in dt_sequence)
    if len(dts) < 4:
        raise ConfigurationError("need at least 4 dt values in geometric progression")
    ref = dense_oracle(psi0, t, cfg)
    ref_norm = l2_norm(ref)
    errs = []
    for d in dts:
        out, _ = propagate(psi0, t, replace(cfg, dt=d))
        errs.append(l2_distance(out, ref) / ref_norm)
    errs = np.array(errs)
    floor = 1e-11
    keep = errs > floor
    flagged = bool(np.any(~keep))
    if np.sum(keep) < 2:
        return {"slope": float("nan"), "errors": errs, "dts": np.array(dts),
                "floor_flagged": True}
    slope = float(np.polyfit(np.log(np.array(dts)[keep]), np.log(errs[keep]), 1)[0])
    return {"slope": slope, "errors": errs, "dts": np.array(dts), "floor_flagged": flagged}


def energy_expectation(psi: WaveFunction, cfg: EvolutionConfig) -> float:
    """<xi^2> + <V_total> for conservation diagnostics."""
    kin = expectation(to_momentum(psi), cfg.kinetic)
    return kin + expectation(to_position(psi), cfg.potential)


def classical_envelope(alpha: float, t: float, initial_radius: float = 0.0) -> float:
    """Largest classical radius reached by time t: p_alpha grows like
    sigma_alpha * t along escaping trajectories, so invert p_alpha."""
    p_end = float(p_alpha(initial_radius, alpha)) + sigma_alpha(alpha) * t
    return float(p_alpha_inverse(p_end, alpha))


def suggest_grid(alpha: float, t_max: float, initial_radius: float):
    """Box half-width and point count for a split-step run up to t_max.

    The box is 1.5 times the classical envelope; the point count keeps the
    classical momentum sqrt(<L>^alpha) plus a packet bandwidth of 4 below
    80% of Nyquist.
    """
    radius = classical_envelope(alpha, t_max, initial_radius)
    half_width = 1.5 * max(radius, initial_radius + 1.0)
    xi_needed = np.sqrt((1.0 + half_width**2) ** (alpha / 2.0)) + 4.0
    n = int(2 ** np.ceil(np.log2(2.0 * half_width * xi_needed * 1.25 / np.pi)))
    return float(half_width), max(n, 8)
