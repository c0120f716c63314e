"""Uniform spatial/frequency lattices, wavefunction storage and observables.

The transform convention is the unitary angular-frequency one,

    (F psi)(xi) = (2 pi)^{-n/2} * integral( exp(-i x.xi) psi(x) dx ),

realized at lattice level so that -Laplacian acts as multiplication by xi^2
on the dual lattice.  Dual nodes follow standard FFT ordering with values
2*pi*fftfreq(N, spacing).
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DomainEscapeError,
    NumericalStateError,
    SelfAdjointnessError,
)

POSITION = "position"
MOMENTUM = "momentum"

#: Fraction of the box (per axis, measured from the edge) watched by the
#: domain-escape guard, and the mass allowed there.
EDGE_FRACTION = 0.1
EDGE_MASS_TOL = 1e-6

#: Largest lattice accepted, points_per_dim**dims: 256^3, where one complex
#: state takes 268 MB.  Larger grids are refused before any array exists.
MAX_GRID_POINTS = 2**24


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on [-L, L)^dims with its exact dual lattice.

    Attributes
    ----------
    dims : int
        Number of spatial dimensions.
    points_per_dim : int
        Lattice points per dimension (power of two).
    half_width : float
        Half width L of the box; nodes are -L + spacing*m.
    spacing : float
        2L / points_per_dim.
    freq_nodes : ndarray
        Dual lattice values in FFT ordering, 2*pi*fftfreq(N, spacing).
    """

    dims: int
    points_per_dim: int
    half_width: float
    spacing: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    freq_nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dims < 1:
            raise ConfigurationError(f"dims must be >= 1, got {self.dims}")
        if not _is_power_of_two(self.points_per_dim) or self.points_per_dim < 8:
            raise ConfigurationError(
                f"points_per_dim must be a power of two >= 8, got {self.points_per_dim}"
            )
        # compared as exact log2 (powers of two), so a huge dims costs nothing
        log2_points = self.dims * (int(self.points_per_dim).bit_length() - 1)
        if log2_points > MAX_GRID_POINTS.bit_length() - 1:
            raise ConfigurationError(
                f"grid of points_per_dim**dims = {self.points_per_dim}**{self.dims} points "
                f"exceeds the {MAX_GRID_POINTS} points allowed")
        if not self.half_width > 0:
            raise ConfigurationError(f"half_width must be > 0, got {self.half_width}")
        n = self.points_per_dim
        dx = 2.0 * self.half_width / n
        object.__setattr__(self, "spacing", dx)
        object.__setattr__(self, "nodes", -self.half_width + dx * np.arange(n))
        object.__setattr__(self, "freq_nodes", 2.0 * np.pi * np.fft.fftfreq(n, d=dx))
        self.nodes.flags.writeable = False
        self.freq_nodes.flags.writeable = False

    @property
    def freq_spacing(self) -> float:
        return 2.0 * np.pi / (self.points_per_dim * self.spacing)

    @property
    def shape(self):
        return (self.points_per_dim,) * self.dims

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Spatial nodes broadcast along `axis` of an n-D array."""
        shape = [1] * self.dims
        shape[axis] = self.points_per_dim
        return self.nodes.reshape(shape)

    def axis_freqs(self, axis: int) -> np.ndarray:
        shape = [1] * self.dims
        shape[axis] = self.points_per_dim
        return self.freq_nodes.reshape(shape)

    def meshgrid(self):
        """Tuple of dims coordinate arrays of full shape."""
        return tuple(np.broadcast_to(self.axis_nodes(k), self.shape) for k in range(self.dims))

    def freq_meshgrid(self):
        return tuple(np.broadcast_to(self.axis_freqs(k), self.shape) for k in range(self.dims))

    def radius_sq(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for k in range(self.dims):
            out = out + self.axis_nodes(k) ** 2
        return out

    def kinetic_samples(self) -> np.ndarray:
        """xi^2 summed over axes, on the dual lattice (full shape)."""
        out = np.zeros(self.shape)
        for k in range(self.dims):
            out = out + self.axis_freqs(k) ** 2
        return out


def make_grid(dims: int, points_per_dim: int, half_width: float) -> Grid:
    """Build a Grid; rejects non-power-of-two sizes and non-positive widths."""
    return Grid(dims=dims, points_per_dim=points_per_dim, half_width=float(half_width))


@dataclass(frozen=True)
class WaveFunction:
    """Complex samples on a Grid, in position or momentum representation."""

    grid: Grid
    values: np.ndarray
    representation: str = POSITION

    def __post_init__(self):
        if self.representation not in (POSITION, MOMENTUM):
            raise ConfigurationError(f"unknown representation {self.representation!r}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ConfigurationError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)
        self.values.flags.writeable = False

    @property
    def measure(self) -> float:
        """Quadrature weight of one lattice cell in the current representation."""
        if self.representation == POSITION:
            return self.grid.spacing ** self.grid.dims
        return self.grid.freq_spacing ** self.grid.dims

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def _check_finite(values: np.ndarray):
    if not np.all(np.isfinite(values.view(float))):
        raise NumericalStateError("wavefunction contains NaN or Inf samples")


def l2_norm(psi: WaveFunction) -> float:
    """Discrete L2 norm sqrt(sum |psi|^2 * cell measure)."""
    _check_finite(psi.values)
    return float(np.sqrt(np.sum(psi.density()) * psi.measure))


def inner(a: WaveFunction, b: WaveFunction) -> complex:
    """Sesquilinear <a, b> in the shared representation."""
    if a.representation != b.representation or a.grid is not b.grid and a.grid != b.grid:
        raise ConfigurationError("inner product requires matching grid and representation")
    return complex(np.vdot(a.values, b.values) * a.measure)


def _axis_phases(grid: Grid, axis: int, sign: float) -> np.ndarray:
    # phase exp(sign * i * x0 * xi) broadcast along `axis`
    return np.exp(sign * 1j * (-grid.half_width) * grid.axis_freqs(axis))


def transform(psi: WaveFunction, target_representation: str) -> WaveFunction:
    """Unitary spectral transform between position and momentum lattices.

    Matches the continuum (2 pi)^{-n/2} exp(-i x.xi) convention at lattice
    level; exact Parseval identity between the dx^n and dxi^n measures.
    """
    _check_finite(psi.values)
    if target_representation == psi.representation:
        return psi
    g = psi.grid
    # the scalar normalisation rides on each N-point axis phase, and after the
    # first (allocating) pass every FFT and multiply runs in place: one grid
    # pass per axis besides the FFT
    if psi.representation == POSITION and target_representation == MOMENTUM:
        norm = g.spacing / np.sqrt(2.0 * np.pi)
        vals = np.fft.fft(psi.values, axis=0)
        for ax in range(g.dims):
            if ax:
                np.fft.fft(vals, axis=ax, out=vals)
            vals *= _axis_phases(g, ax, -1.0) * norm
        return WaveFunction(g, vals, MOMENTUM)
    if psi.representation == MOMENTUM and target_representation == POSITION:
        norm = g.points_per_dim * g.freq_spacing / np.sqrt(2.0 * np.pi)
        vals = psi.values * (_axis_phases(g, 0, +1.0) * norm)
        for ax in range(g.dims):
            if ax:
                vals *= _axis_phases(g, ax, +1.0) * norm
            np.fft.ifft(vals, axis=ax, out=vals)
        return WaveFunction(g, vals, POSITION)
    raise ConfigurationError(f"unknown representation {target_representation!r}")


def to_position(psi: WaveFunction) -> WaveFunction:
    return transform(psi, POSITION)


def to_momentum(psi: WaveFunction) -> WaveFunction:
    return transform(psi, MOMENTUM)


MULTIPLICATION = "multiplication"
FOURIER_MULTIPLIER = "fourier_multiplier"
SYMMETRIZED_MIXED = "symmetrized_mixed"


@dataclass(frozen=True)
class Observable:
    """Self-adjoint lattice observable.

    kind 'multiplication': real samples f(x) on the spatial lattice.
    kind 'fourier_multiplier': real samples m(xi) on the dual lattice.
    kind 'symmetrized_mixed': per-axis real samples f_k(x); represents
        (1/2) sum_k ( f_k(x) D_k + D_k f_k(x) ),  D = -i grad.
    """

    kind: str
    samples: object  # ndarray, or tuple of ndarrays for symmetrized_mixed

    def __post_init__(self):
        if self.kind in (MULTIPLICATION, FOURIER_MULTIPLIER):
            if np.iscomplexobj(self.samples):
                raise ConfigurationError("observable samples must be real (self-adjointness)")
            arr = np.asarray(self.samples, dtype=float)
            object.__setattr__(self, "samples", arr)
            arr.flags.writeable = False
        elif self.kind == SYMMETRIZED_MIXED:
            if any(np.iscomplexobj(s) for s in self.samples):
                raise ConfigurationError("observable samples must be real (self-adjointness)")
            arrs = tuple(np.asarray(s, dtype=float) for s in self.samples)
            object.__setattr__(self, "samples", arrs)
        else:
            raise ConfigurationError(f"unknown observable kind {self.kind!r}")

    @staticmethod
    def multiplication(grid: Grid, fn_or_samples) -> "Observable":
        s = fn_or_samples(*grid.meshgrid()) if callable(fn_or_samples) else fn_or_samples
        s = np.broadcast_to(np.asarray(s, dtype=float), grid.shape)
        return Observable(MULTIPLICATION, np.array(s))

    @staticmethod
    def fourier_multiplier(grid: Grid, fn_or_samples) -> "Observable":
        s = fn_or_samples(*grid.freq_meshgrid()) if callable(fn_or_samples) else fn_or_samples
        s = np.broadcast_to(np.asarray(s, dtype=float), grid.shape)
        return Observable(FOURIER_MULTIPLIER, np.array(s))

    @staticmethod
    def symmetrized_mixed(grid: Grid, fns) -> "Observable":
        arrs = []
        for fn in fns:
            s = fn(*grid.meshgrid()) if callable(fn) else fn
            arrs.append(np.array(np.broadcast_to(np.asarray(s, dtype=float), grid.shape)))
        return Observable(SYMMETRIZED_MIXED, tuple(arrs))


def apply_momentum_operator(psi: WaveFunction, axis: int) -> WaveFunction:
    """D_k = -i d/dx_k applied spectrally."""
    hat = to_momentum(psi)
    g = psi.grid
    return to_position(WaveFunction(g, hat.values * g.axis_freqs(axis), MOMENTUM))


def apply_observable(psi: WaveFunction, obs: Observable) -> WaveFunction:
    """Obs psi in the position representation."""
    if obs.kind == MULTIPLICATION:
        pos = to_position(psi)
        return WaveFunction(pos.grid, obs.samples * pos.values, POSITION)
    if obs.kind == FOURIER_MULTIPLIER:
        hat = to_momentum(psi)
        return to_position(WaveFunction(hat.grid, obs.samples * hat.values, MOMENTUM))
    pos = to_position(psi)
    out = np.zeros(pos.grid.shape, dtype=complex)
    for axis, f in enumerate(obs.samples):
        d_psi = apply_momentum_operator(pos, axis)
        f_psi = WaveFunction(pos.grid, f * pos.values, POSITION)
        out = out + 0.5 * (f * d_psi.values + apply_momentum_operator(f_psi, axis).values)
    return WaveFunction(pos.grid, out, POSITION)


def expectation(psi: WaveFunction, obs: Observable) -> float:
    """<psi, Obs psi> / ||psi||^2, asserting the imaginary residue is noise.

    Raises SelfAdjointnessError when |Im| > 1e-8 |Re| + 1e-12.
    """
    _check_finite(psi.values)
    nsq = np.sum(psi.density()) * psi.measure
    if nsq == 0.0:
        raise NumericalStateError("expectation of the zero state")
    if obs.kind == MULTIPLICATION:
        pos = to_position(psi)
        num = complex(np.sum(np.conj(pos.values) * obs.samples * pos.values) * pos.measure)
    elif obs.kind == FOURIER_MULTIPLIER:
        hat = to_momentum(psi)
        num = complex(np.sum(np.conj(hat.values) * obs.samples * hat.values) * hat.measure)
    else:
        pos = to_position(psi)
        num = inner(pos, apply_observable(pos, obs))
    if abs(num.imag) > 1e-8 * abs(num.real) + 1e-12:
        raise SelfAdjointnessError(
            f"imaginary residue {num.imag:.3e} too large against real part {num.real:.3e}"
        )
    return float(num.real / nsq)


@functools.lru_cache(maxsize=64)
def _edge_mask(dims: int, points_per_dim: int, half_width: float,
               representation: str) -> np.ndarray:
    """Read-only mask of the nodes with any |coordinate| in the outer
    EDGE_FRACTION band of the lattice.

    Keyed by the grid's geometry, not the Grid, so no grid outlives its run.
    The mask lives in an anonymous memory map, outside the malloc heap: a
    long-lived heap mask between large FFT buffers keeps freed buffers from
    being reused and raises peak RSS."""
    grid = make_grid(dims, points_per_dim, half_width)
    if representation == POSITION:
        cut = (1.0 - EDGE_FRACTION) * grid.half_width
        nodes = [grid.axis_nodes(k) for k in range(grid.dims)]
    else:
        cut = (1.0 - EDGE_FRACTION) * float(np.max(np.abs(grid.freq_nodes)))
        nodes = [grid.axis_freqs(k) for k in range(grid.dims)]
    mask = np.frombuffer(mmap.mmap(-1, grid.points_per_dim ** grid.dims), dtype=bool)
    mask = mask.reshape(grid.shape)
    for n in nodes:
        mask |= np.abs(n) >= cut
    mask.flags.writeable = False
    return mask


def _edge_mass(values: np.ndarray, grid: Grid, representation: str) -> float:
    rho = np.abs(values) ** 2
    total = rho.sum()
    if total == 0.0:
        return 0.0
    mask = _edge_mask(grid.dims, grid.points_per_dim, grid.half_width, representation)
    return float(rho[mask].sum() / total)


def _guard_edge(values: np.ndarray, grid: Grid, representation: str, tol: float,
                context: str) -> float:
    """Edge mass of raw samples, raising DomainEscapeError at or above tol.

    Hot loops pass their arrays here directly, so no WaveFunction is built
    per step.  Mass at the edge of the position lattice has outrun the box;
    at the edge of the dual lattice it has outrun the grid's resolution."""
    frac = _edge_mass(values, grid, representation)
    if frac >= tol:
        where = f" ({context})" if context else ""
        advice = "enlarge the box" if representation == POSITION else "refine the grid"
        raise DomainEscapeError(
            f"boundary mass fraction {frac:.3e} >= {tol:.1e}{where}; {advice}")
    return frac


def boundary_mass_fraction(psi: WaveFunction) -> float:
    """Fraction of |psi|^2 mass with any |coordinate| in the outer edge band."""
    return _edge_mass(psi.values, psi.grid, psi.representation)


def assert_contained(psi: WaveFunction, context: str = ""):
    """Domain-escape guard: periodic wrap-around silently corrupts scattering
    experiments with accelerating states, so refuse to continue."""
    _guard_edge(psi.values, psi.grid, psi.representation, EDGE_MASS_TOL, context)


def tail_radii(rho: np.ndarray, nodes: np.ndarray, tail: float) -> np.ndarray:
    """Per axis of the density rho, the largest |node| at which the axis
    marginal, as a share of its total, exceeds `tail` (0 where none does)."""
    radii = np.zeros(rho.ndim)
    for k in range(rho.ndim):
        axes = tuple(j for j in range(rho.ndim) if j != k)
        marg = rho.sum(axis=axes) if axes else rho
        total = marg.sum()
        if total == 0.0:
            continue
        mask = marg / total > tail
        if np.any(mask):
            radii[k] = np.max(np.abs(nodes[mask]))
    return radii


def gaussian(grid: Grid, center=0.0, width=1.0, momentum=0.0) -> WaveFunction:
    """Normalized Gaussian packet prod_k exp(i k_j x_j) exp(-(x_j-c_j)^2/(2 w^2))."""
    centers = np.broadcast_to(np.asarray(center, dtype=float), (grid.dims,))
    moms = np.broadcast_to(np.asarray(momentum, dtype=float), (grid.dims,))
    vals = np.ones(grid.shape, dtype=complex)
    for k in range(grid.dims):
        xk = grid.axis_nodes(k)
        vals = vals * np.exp(-((xk - centers[k]) ** 2) / (2.0 * width**2) + 1j * moms[k] * xk)
    vals = vals / np.sqrt(np.sum(np.abs(vals) ** 2) * grid.spacing**grid.dims)
    return WaveFunction(grid, vals, POSITION)


def random_state(grid: Grid, rng: np.random.Generator, bandwidth: float = 0.1,
                 extent: float = 0.2, n_packets: int = 5,
                 width: float = 1.0) -> WaveFunction:
    """Random normalized superposition of Gaussian packets.

    Centers are drawn within `extent` x half_width and momenta within
    `bandwidth` x Nyquist, so position and momentum tails are exactly
    Gaussian and the state is compact in phase space.
    """
    ximax = float(np.max(np.abs(grid.freq_nodes)))
    vals = np.zeros(grid.shape, dtype=complex)
    for _ in range(n_packets):
        c = (rng.standard_normal(2) @ [1, 1j]) / np.sqrt(2)
        centers = rng.uniform(-extent * grid.half_width, extent * grid.half_width,
                              size=grid.dims)
        momenta = rng.uniform(-bandwidth * ximax, bandwidth * ximax, size=grid.dims)
        packet = np.ones(grid.shape, dtype=complex)
        for ax in range(grid.dims):
            x = grid.axis_nodes(ax)
            packet = packet * np.exp(
                -((x - centers[ax]) ** 2) / (2.0 * width**2) + 1j * momenta[ax] * x
            )
        vals = vals + c * packet
    nrm = np.sqrt(np.sum(np.abs(vals) ** 2) * grid.spacing**grid.dims)
    if nrm == 0.0:
        raise NumericalStateError("degenerate random state draw")
    return WaveFunction(grid, vals / nrm, POSITION)
