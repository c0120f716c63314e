"""Strang split-step spectral propagator for H = -Laplacian + V_total(x),
with V_total = -<x>^alpha + V or a quadratic saddle plus perturbation, and a
small dense matrix-exponential oracle.  Every split-step evolution, of one
state or a stack, runs through the one Strang loop, _evolve."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigurationError, OracleScaleError, PhaseWindingError
from .grids import (
    EDGE_MASS_TOL,
    POSITION,
    Grid,
    WaveFunction,
    _guard_edge,
    l2_distance,
    l2_norm,
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


def _evolve(vals: np.ndarray, t: float, cfg: EvolutionConfig, context: str, out=None):
    """exp(-i t H) on the position samples vals by Strang steps: the one
    split-step loop, behind propagate, strang_step and the wave-operator
    anchor.  |t| splits into whole steps of cfg.dt and a fractional
    remainder (none within 1e-12 dt of a whole step).  Backward (t < 0) the
    conjugate states step forward, the exact time-reversal for real
    potentials, with the remainder first, so that a backward run undoes a
    forward one step for step, since S(-h) is the exact inverse of S(h).  A
    t below the step resolution, t = 0 included, runs no step, guards vals
    as given and returns them.

    vals is one state on cfg's grid or a stack of states along a leading
    axis (the wave-operator chains), which then step together: every
    multiply broadcasts over the stack and every transform runs over the
    grid axes alone, so each state takes the operations of a run of its
    own, and each is guarded on its own once per step.  The states step in
    `out`, a C-contiguous buffer of vals' shape that may be vals itself; by
    default one is allocated here, so a stepped result never aliases vals.
    Two grid-shaped phase arrays serve a segment (the whole steps, or the
    remainder) and every state: `kin` holds the kinetic phase, and `pot`
    the half potential phase of the opening half step, squared in place into
    the full phase when the segment has more than one step; the closing
    half phase is then rebuilt in `kin` after the last Fourier step.
    Returns (samples, steps, max edge mass)."""
    grid = cfg.grid
    n_full, rem = divmod(abs(t), cfg.dt)
    n_full = int(round(n_full))
    if rem < 1e-12 * cfg.dt or abs(rem - cfg.dt) < 1e-12 * cfg.dt:
        if abs(rem - cfg.dt) < 1e-12 * cfg.dt:
            n_full += 1
        rem = 0.0
    order = ((rem, 1), (cfg.dt, n_full)) if t < 0 else ((cfg.dt, n_full), (rem, 1))
    segments = [(d, n) for d, n in order if d and n]
    guard = (grid, POSITION, cfg.edge_mass_tol, context)
    if not segments:
        return vals, 0, _guard_edge(vals, *guard)
    buf = np.empty(vals.shape, dtype=complex) if out is None else out
    kin = np.empty(grid.shape, dtype=complex)
    pot = np.empty_like(kin)
    if t < 0:
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
            max_edge = max(max_edge, _guard_edge(buf, *guard))
        vals = buf
    if t < 0:
        np.conjugate(buf, out=buf)
    return buf, n_full + (1 if rem else 0), max_edge


def strang_step(psi: WaveFunction, cfg: EvolutionConfig) -> WaveFunction:
    """One Strang step exp(-i dt V/2) F^-1 exp(-i dt xi^2) F exp(-i dt V/2),
    dt = cfg.dt."""
    psi = to_position(psi)
    vals, _, _ = _evolve(psi.values, cfg.dt, cfg, "strang_step")
    return WaveFunction(psi.grid, vals, POSITION)


def propagate(psi0: WaveFunction, t: float, cfg: EvolutionConfig):
    """exp(-i t H) psi0 by repeated Strang steps with a final fractional
    step (_evolve).  Backward evolution (t < 0) runs the conjugate state
    forward with the fractional step first, so that
    propagate(propagate(psi, t)[0], -t) returns psi to rounding.  t = 0, or
    any |t| below 1e-12 dt, runs no step but still guards psi0 and reports
    its edge mass.  Returns (psi_t, {"steps", "max_edge_mass"}).
    """
    psi0 = to_position(psi0)
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
