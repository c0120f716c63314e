"""Uniform spatial/frequency lattices, wavefunction storage and expectations.

The transform convention is the unitary angular-frequency one,

    (F psi)(xi) = (2 pi)^{-n/2} * integral( exp(-i x.xi) psi(x) dx ),

realized at lattice level so that -Laplacian acts as multiplication by xi^2
on the dual lattice.  Dual nodes follow standard FFT ordering with values
2*pi*fftfreq(N, spacing).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainEscapeError, NumericalStateError, check_width

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
        # |x|^2 on the box and xi^2 on the dual lattice (up to dims (pi/dx)^2)
        # must be finite floats
        for reach in (float(self.half_width), math.pi / float(dx) if dx > 0 else math.inf):
            if not math.isfinite(self.dims * reach * reach):
                raise ConfigurationError(
                    f"half_width {self.half_width} on {n} points (spacing {dx}) gives a box "
                    "or dual lattice whose squared coordinates overflow a float")
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
        # C order: the streamed passes read the state through a float view
        vals = np.ascontiguousarray(self.values, dtype=complex)
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


def l2_norm(psi: WaveFunction) -> float:
    """Discrete L2 norm sqrt(sum |psi|^2 * cell measure), summed with no
    temporary: 0 for the zero state; a sum that is not finite is refused."""
    total = _sum_sq(psi.values.view(float))
    if total != 0.0:
        _checked_total(total)
    return float(np.sqrt(total * psi.measure))


def _check_pair(a: WaveFunction, b: WaveFunction) -> None:
    if a.representation != b.representation or a.grid is not b.grid and a.grid != b.grid:
        raise ConfigurationError("two states must share one grid and one representation")


def l2_distance(a: WaveFunction, b: WaveFunction) -> float:
    """Discrete L2 distance sqrt(sum |a - b|^2 * cell measure) between two
    states in one representation on one grid, summed in blocks of
    leading-axis rows so that no grid-sized difference exists (a 1-D state
    of up to LINE_BLOCK points is one block)."""
    _check_pair(a, b)
    rows = max(1, LINE_BLOCK // math.prod(a.values.shape[1:]))
    sq = sum(float(np.sum(np.abs(a.values[i:i + rows] - b.values[i:i + rows]) ** 2))
             for i in range(0, a.values.shape[0], rows))
    return float(np.sqrt(sq * a.measure))


def inner(a: WaveFunction, b: WaveFunction) -> complex:
    """Sesquilinear <a, b> in the shared representation."""
    _check_pair(a, b)
    return complex(np.vdot(a.values, b.values) * a.measure)


def _axis_phases(grid: Grid, axis: int, sign: float) -> np.ndarray:
    # phase exp(sign * i * x0 * xi) broadcast along `axis`
    return np.exp(sign * 1j * (-grid.half_width) * grid.axis_freqs(axis))


@functools.lru_cache(maxsize=64)
def _normalised_phases(dims: int, points_per_dim: int, half_width: float,
                       sign: float) -> tuple:
    """Per axis, _axis_phases(grid, axis, sign) times the transform's scalar
    normalisation (spacing / sqrt(2 pi) forward, sign -1; N freq_spacing /
    sqrt(2 pi) inverse, sign +1): N points each, read-only.  Keyed by the
    grid's geometry, as _band_slabs is."""
    grid = make_grid(dims, points_per_dim, half_width)
    scale = grid.spacing if sign < 0 else points_per_dim * grid.freq_spacing
    norm = scale / np.sqrt(2.0 * np.pi)
    phases = tuple(_axis_phases(grid, ax, sign) * norm for ax in range(dims))
    for phase in phases:
        phase.flags.writeable = False
    return phases


def _momentum_values(values: np.ndarray, grid: Grid, out: np.ndarray) -> np.ndarray:
    """The momentum samples of the position samples `values`, written into
    `out`, which may be `values` itself: every FFT and multiply runs in
    place, and the scalar normalisation rides on each N-point axis phase."""
    phases = _normalised_phases(grid.dims, grid.points_per_dim, grid.half_width, -1.0)
    np.fft.fft(values, axis=0, out=out)
    for ax in range(grid.dims):
        if ax:
            np.fft.fft(out, axis=ax, out=out)
        out *= phases[ax]
    return out


def transform(psi: WaveFunction, target_representation: str) -> WaveFunction:
    """Unitary spectral transform between position and momentum lattices.

    Matches the continuum (2 pi)^{-n/2} exp(-i x.xi) convention at lattice
    level; exact Parseval identity between the dx^n and dxi^n measures.
    """
    l2_norm(psi)  # refuses a state whose sum of |psi|^2 is not finite
    if target_representation == psi.representation:
        return psi
    g = psi.grid
    if psi.representation == POSITION and target_representation == MOMENTUM:
        out = _momentum_values(psi.values, g, np.empty(g.shape, dtype=complex))
        return WaveFunction(g, out, MOMENTUM)
    # as in _momentum_values, the scalar normalisation rides on each N-point
    # axis phase, and after the first (allocating) pass every FFT and
    # multiply runs in place: one grid pass per axis besides the FFT
    if psi.representation == MOMENTUM and target_representation == POSITION:
        phases = _normalised_phases(g.dims, g.points_per_dim, g.half_width, +1.0)
        vals = psi.values * phases[0]
        for ax in range(g.dims):
            if ax:
                vals *= phases[ax]
            np.fft.ifft(vals, axis=ax, out=vals)
        return WaveFunction(g, vals, POSITION)
    raise ConfigurationError(f"unknown representation {target_representation!r}")


def to_position(psi: WaveFunction) -> WaveFunction:
    return transform(psi, POSITION)


def to_momentum(psi: WaveFunction) -> WaveFunction:
    return transform(psi, MOMENTUM)


def expectation(psi: WaveFunction, samples) -> float:
    """sum |psi|^2 f / sum |psi|^2 for real samples f on psi's own lattice:
    a multiplication operator f(x) for a position state, a Fourier
    multiplier m(xi) for a momentum one (pass to_momentum(psi) and samples
    on the dual lattice).  Samples broadcast to the grid shape."""
    if np.iscomplexobj(samples):
        raise ConfigurationError("expectation samples must be real")
    try:
        f = np.broadcast_to(np.asarray(samples, dtype=float), psi.grid.shape)
    except ValueError:
        raise ConfigurationError(
            f"samples of shape {np.shape(samples)} do not fit the grid shape "
            f"{psi.grid.shape}") from None
    total = _checked_total(_sum_sq(psi.values.view(float)))
    return float(np.sum(psi.density() * f) / total)


def _checked_total(total) -> float:
    """total, a state's sum of |psi|^2 (_sum_sq of its float view): the one
    refusal of a state whose total is zero or not finite."""
    if not 0.0 < total < math.inf:
        fault = "zero" if total == 0.0 else "not finite (NaN or Inf samples, or overflow)"
        raise NumericalStateError(f"the state's total |psi|^2 is {fault}")
    return total


#: Complex entries of one work buffer of the streamed grid passes (256 kB):
#: the spectral marginals, the chirp-z lines and the blocks of chirp rows.
LINE_BLOCK = 1 << 14


def _sum_sq(values: np.ndarray):
    """Sum of squares of the real array `values`: numpy's own
    sum-of-products loop, with no temporary the size of its input and no
    BLAS call (whose timing varies with load).  On a float view of complex
    samples this is the sum of |psi|^2."""
    axes = list(range(values.ndim))
    return np.einsum(values, axes, values, axes, [])


def _line_blocks(x: np.ndarray, axis: int, lines_per_block: int):
    """Views (rows, cols, n) of the lines of the C-contiguous x along `axis`,
    at most lines_per_block lines (at least one) to a view.

    x is read as (outer, n, inner): a block takes whole rows of inner lines
    when they fit, else part of one row, so each fills a contiguous buffer
    (numpy's FFT is far slower along a strided axis).  The first block is
    the largest."""
    n = x.shape[axis]
    outer, inner = math.prod(x.shape[:axis]), math.prod(x.shape[axis + 1:])
    lines = x.reshape(outer, n, inner)
    cols = min(inner, max(1, lines_per_block))
    rows = min(outer, max(1, lines_per_block // cols))
    for i in range(0, outer, rows):
        for j in range(0, inner, cols):
            yield np.moveaxis(lines[i:i + rows, :, j:j + cols], 1, -1)


def _marginal(values: np.ndarray, axis: int, spectral: bool) -> np.ndarray:
    """Sum over the other axes of |values|^2, or with spectral of
    |fft(values, axis=axis)|^2, over blocks of lines: the spectral lines are
    copied to one buffer and transformed in place.  A block holds half a
    LINE_BLOCK, so the buffer and the two float squares of a block together
    take no more than one LINE_BLOCK of bytes."""
    marg = np.zeros(values.shape[axis])
    buf = None
    for block in _line_blocks(values, axis, LINE_BLOCK // (2 * values.shape[axis])):
        if spectral:
            if buf is None:
                buf = np.empty(block.shape, dtype=complex)
            y = buf[:block.shape[0], :block.shape[1]]
            y[...] = block
            block = np.fft.fft(y, out=y)
        rho = block.real ** 2
        rho += block.imag ** 2
        marg += rho.sum(axis=(0, 1))
    return marg


def tail_radii(values: np.ndarray, nodes: np.ndarray, tail: float,
               spectral: bool = False) -> np.ndarray:
    """Per axis of the complex samples `values`, the largest |node| at which
    the axis marginal of |values|^2 (of |fftn(values)|^2 on the dual
    lattice with spectral=True), as a share of its total, exceeds `tail`
    (0 where none does).

    No grid-sized temporary is formed.  By Parseval the axis-k marginal of
    |fftn(values)|^2 is N^(d-1) times the marginal of |fft(values, axis=k)|^2,
    whose 1-D FFTs run over blocks of lines; the factor cancels in the
    share."""
    values = np.ascontiguousarray(values, dtype=complex)
    radii = np.zeros(values.ndim)
    for k in range(values.ndim):
        marg = _marginal(values, k, spectral)
        total = marg.sum()
        if total == 0.0:
            continue
        mask = marg / total > tail
        if np.any(mask):
            radii[k] = np.max(np.abs(nodes[mask]))
    return radii


@functools.lru_cache(maxsize=64)
def _band_slabs(dims: int, points_per_dim: int, half_width: float,
                representation: str) -> tuple:
    """Index boxes, into the float view of a state, that tile the nodes with
    any |coordinate| in the outer EDGE_FRACTION band once each.

    Box k has axis k in the band and every earlier axis inside it; the
    later axes are free.  This is inclusion-exclusion over the per-axis band
    slabs with no subtracted term.  Keyed by the grid's geometry, not the
    Grid, so no grid outlives its run; only the index ranges are held."""
    grid = make_grid(dims, points_per_dim, half_width)
    if representation == POSITION:
        nodes, edge = grid.nodes, grid.half_width
    else:
        nodes, edge = grid.freq_nodes, float(np.max(np.abs(grid.freq_nodes)))
    band = np.abs(nodes) >= (1.0 - EDGE_FRACTION) * edge

    def runs(mask):
        # maximal index ranges where mask holds, as slices
        edges = np.flatnonzero(np.diff(np.r_[False, mask, False]))
        return [slice(int(a), int(b)) for a, b in zip(edges[::2], edges[1::2])]

    inside, outside = runs(~band), runs(band)
    boxes = []
    for k in range(dims):
        for box in itertools.product(*([inside] * k + [outside])):
            box = list(box) + [slice(None)] * (dims - k - 1)
            last = box[-1]  # two floats per complex sample on the last axis
            if last.start is not None:
                box[-1] = slice(2 * last.start, 2 * last.stop)
            boxes.append(tuple(box))
    return tuple(boxes)


def _edge_mass(values: np.ndarray, grid: Grid, representation: str) -> float:
    """Share of the sum of |values|^2 in the edge band; a state whose sum is
    zero or not finite is refused (_checked_total)."""
    flat = np.ascontiguousarray(values).view(float)
    total = _checked_total(_sum_sq(flat))
    boxes = _band_slabs(grid.dims, grid.points_per_dim, grid.half_width, representation)
    return float(sum(_sum_sq(flat[box]) for box in boxes) / total)


def _guard_edge(values: np.ndarray, grid: Grid, representation: str, tol: float,
                context: str) -> float:
    """Edge mass of raw samples, raising DomainEscapeError at or above tol.

    values holds one state on grid or a stack of them along leading axes;
    each state is guarded on its own and the largest edge mass is returned.
    Hot loops pass their arrays here directly, so no WaveFunction is built
    per step.  Mass at the edge of the position lattice has outrun the box;
    at the edge of the dual lattice it has outrun the grid's resolution."""
    states = values.reshape((-1,) + grid.shape)
    frac = max(_edge_mass(state, grid, representation) for state in states)
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


def _packet(grid: Grid, centers, width: float, momenta) -> np.ndarray:
    """prod_k exp(i m_k x_k) exp(-(x_k - c_k)^2/(2 w^2)) on the grid, built in place."""
    vals = np.ones(grid.shape, dtype=complex)
    for k in range(grid.dims):
        xk = grid.axis_nodes(k)
        vals *= np.exp(-((xk - centers[k]) ** 2) / (2.0 * width**2) + 1j * momenta[k] * xk)
    return vals


def _normalised(grid: Grid, vals: np.ndarray) -> WaveFunction:
    """The position state of vals divided in place by their L2 norm; zero
    mass on the grid (a packet that underflows there) raises before any NaN."""
    nrm = np.sqrt(np.sum(np.abs(vals) ** 2) * grid.spacing**grid.dims)
    if nrm == 0.0:
        raise NumericalStateError("state has zero norm on the grid (its packets underflow)")
    vals /= nrm
    return WaveFunction(grid, vals, POSITION)


def gaussian(grid: Grid, center=0.0, width=1.0, momentum=0.0) -> WaveFunction:
    """Normalized Gaussian packet prod_k exp(i k_j x_j) exp(-(x_j-c_j)^2/(2 w^2))."""
    check_width(width, "width")
    return _normalised(grid, _packet(grid, _per_axis(center, grid, "center"), width,
                                     _per_axis(momentum, grid, "momentum")))


def _per_axis(value, grid: Grid, name: str) -> np.ndarray:
    """One float per axis of grid from a number or a list of grid.dims numbers."""
    values = np.asarray(value, dtype=float)
    if values.ndim and values.shape != (grid.dims,):
        raise ConfigurationError(f"{name} must be a number or a list of {grid.dims} numbers "
                                 f"(one per axis), got {value!r}")
    return np.broadcast_to(values, (grid.dims,))


def random_state(grid: Grid, rng: np.random.Generator, bandwidth: float = 0.1,
                 extent: float = 0.2) -> WaveFunction:
    """Random normalized superposition of 5 Gaussian packets of width 1.

    Centers are drawn within `extent` x half_width and momenta within
    `bandwidth` x Nyquist, so position and momentum tails are exactly
    Gaussian and the state is compact in phase space.
    """
    ximax = float(np.max(np.abs(grid.freq_nodes)))
    vals = np.zeros(grid.shape, dtype=complex)
    for _ in range(5):
        c = (rng.standard_normal(2) @ [1, 1j]) / np.sqrt(2)
        centers = rng.uniform(-extent * grid.half_width, extent * grid.half_width,
                              size=grid.dims)
        momenta = rng.uniform(-bandwidth * ximax, bandwidth * ximax, size=grid.dims)
        vals += c * _packet(grid, centers, 1.0, momenta)
    return _normalised(grid, vals)
