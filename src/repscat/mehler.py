"""Exact propagator for H0 = -Laplacian + U(x), U quadratic, via the
generalized Mehler kernel and its chirp/dilation/Fourier factorization.

The factored form

    exp(-i t H0) = M_t D_t F M_t exp(-i t^3 |E|^2 / 12)

is applied per axis with a chirp-z transform for the dilation, so cost stays
N log N and the reachable time is not limited by grid blow-up: the e^{2wt}
spreading lives entirely in the dilation scale g_k(2t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainEscapeError, OracleScaleError, SingularTimeError
from .grids import (
    EDGE_MASS_TOL,
    LINE_BLOCK,
    MOMENTUM,
    POSITION,
    Grid,
    WaveFunction,
    _guard_edge,
    _line_blocks,
    _momentum_values,
    assert_contained,
    tail_radii,
    to_momentum,
    to_position,
)
from .potentials import QuadraticSpec

#: Guard distance around kernel singular times.
SINGULAR_GUARD = 1e-3

#: Kernel-quadrature oracle limits and stated time domain.
ORACLE_MAX_POINTS = 256
ORACLE_MIN_TIME = 0.05

#: Share of an axis marginal below which a lattice node counts as outside
#: the state's support.
_SUPPORT_TAIL = 1e-12


@dataclass(frozen=True)
class TrajectoryFactors:
    """Per-coordinate g_k(2t), h_k(2t) driving the Mehler kernel.

    Sector identities: h^2 - (w g)^2 = 1 (hyperbolic), h^2 + (w g)^2 = 1
    (trigonometric), h = 1 and g = 2t (free and Stark).
    """

    t: float
    g: np.ndarray
    h: np.ndarray


def _sector_gh(sector: str, omega: float, targ: float):
    if sector == "hyperbolic":
        return np.sinh(omega * targ) / omega, np.cosh(omega * targ)
    if sector == "trigonometric":
        return np.sin(omega * targ) / omega, np.cos(omega * targ)
    return targ, 1.0


def trajectory_factors(t: float, spec: QuadraticSpec) -> TrajectoryFactors:
    """g_k(2t), h_k(2t) for every coordinate of the spec.  A time at which
    one of them is not a finite float (sinh and cosh overflow once w_k |t|
    passes about 355) is refused."""
    g = np.empty(spec.dims)
    h = np.empty(spec.dims)
    with np.errstate(over="ignore"):
        for k in range(spec.dims):
            g[k], h[k] = _sector_gh(spec.sectors[k], spec.axis_omegas[k], 2.0 * t)
    if not all(math.isfinite(v) for v in (*g, *h)):
        raise ConfigurationError(f"g_k(2t) or h_k(2t) is not a finite float at t={t}")
    return TrajectoryFactors(t=t, g=g, h=h)


def _branch_amplitude(sector: str, omega: float, t: float, g_val: float) -> complex:
    """(i g_k(2t))^{-1/2} with the branch fixed by continuity from t -> 0,
    advancing a quarter turn at each of the m zeros of s -> g_k(2s) strictly
    between 0 and t (the Maslov count; only a trigonometric axis has any)."""
    m = int(np.floor(2.0 * omega * abs(t) / np.pi + 1e-12)) if sector == "trigonometric" else 0
    sign = 1.0 if t >= 0 else -1.0
    phase = np.exp(-1j * sign * (np.pi / 4.0 + np.pi * m / 2.0))
    return phase / np.sqrt(abs(g_val))


def _checked_factors(t: float, spec: QuadraticSpec) -> TrajectoryFactors:
    """trajectory_factors(t, spec), refusing t within SINGULAR_GUARD of a
    singular time m pi/(2 w_k), m >= 1: the one time check of every
    factored-route input.  Elsewhere |g_k(2t)| >= sin(2 w_k min(|t|,
    SINGULAR_GUARD))/w_k."""
    for k, (sector, w) in enumerate(zip(spec.sectors, spec.axis_omegas)):
        if sector != "trigonometric":
            continue
        period = np.pi / (2.0 * w)
        dist = abs(abs(t) / period - round(abs(t) / period)) * period
        if round(abs(t) / period) > 0 and dist < SINGULAR_GUARD:
            raise SingularTimeError(
                f"t={t} is within {SINGULAR_GUARD} of a singular time of coordinate {k}"
            )
    return trajectory_factors(t, spec)


def _chirp_factors(grid: Grid, spec: QuadraticSpec, fac: TrajectoryFactors) -> list:
    """M_t(x) = exp( i sum x_k^2 h_k/(2 g_k) - i (t/2) sum E_k x_k ), t = fac.t.

    The phase is a sum of per-axis terms, so M_t is the broadcast product of
    one N-point factor exp(i phi_k(x_k)) per axis, listed here: d N complex
    exponentials rather than N^d.
    """
    factors = []
    for k in range(grid.dims):
        xk = grid.axis_nodes(k)
        phase = xk**2 * fac.h[k] / (2.0 * fac.g[k])
        if spec.axis_fields[k]:
            phase = phase - (fac.t / 2.0) * spec.axis_fields[k] * xk
        factors.append(np.exp(1j * phase))
    return factors


def _times_chirp(factors: list, values: np.ndarray, out: np.ndarray, amp=None) -> np.ndarray:
    """out <- (amp *) M_t * values for M_t given by its per-axis factors.

    values holds one state, or a stack of states along a leading axis (the
    wave-operator chains); M_t acts on the trailing grid axes, one per
    factor, and broadcasts over the stack.  M_t is formed one block of rows
    of the grid's first axis at a time, multiplying the factors in axis
    order, so the result is bit-identical to the full-grid product of the
    factors and no N^d chirp exists; out may be values itself."""
    lead = values.ndim - len(factors)
    rows = max(1, LINE_BLOCK // math.prod(values.shape[lead + 1:]))
    for i in range(0, values.shape[lead], rows):
        chirp = factors[0][i:i + rows]
        for factor in factors[1:]:
            chirp = chirp * factor
        if amp is not None:
            chirp = amp * chirp
        block = (Ellipsis, slice(i, i + rows)) + (slice(None),) * (len(factors) - 1)
        np.multiply(chirp, values[block], out=out[block])
    return out


def _czt(x: np.ndarray, w: complex, a: complex, axis: int) -> np.ndarray:
    """Chirp-z transform X_k = sum_m x_m a^-m w^(m k), k < n, along `axis`,
    in place: the C-contiguous complex x is overwritten and returned.

    Bluestein's identity m k = (m^2 + k^2 - (k - m)^2)/2 turns the sum into a
    linear convolution with the chirp w^(-j^2/2), done by FFT at the power of
    two >= 2n - 1.  This is scipy.signal.czt(x, n, w, a) step for step; the
    two agree bit for bit whenever scipy's FFT length is that power of two
    too (n = 16, 64, 128, ...) and to roundoff otherwise.  The lines go through
    one zero-padded buffer of at most LINE_BLOCK entries (one line where a
    line is longer), in the blocks of grids._line_blocks, so the work space
    does not grow with the grid.
    """
    if not x.flags.c_contiguous:
        raise ValueError("_czt transforms a C-contiguous array in place")
    n = x.shape[axis]
    k = np.arange(n)
    wk2 = w ** (k**2 / 2.0)
    nfft = 1 << (2 * n - 2).bit_length()
    kernel = np.fft.fft(1.0 / np.concatenate([wk2[n - 1:0:-1], wk2]), nfft)
    pre = a ** -k * wk2
    buf = None
    for block in _line_blocks(x, axis, LINE_BLOCK // nfft):
        if buf is None:
            buf = np.empty(block.shape[:2] + (nfft,), dtype=complex)
        y = buf[:block.shape[0], :block.shape[1]]
        y[..., n:] = 0.0
        np.multiply(block, pre, out=y[..., :n])
        np.fft.fft(y, out=y)
        np.multiply(kernel, y, out=y)
        np.fft.ifft(y, out=y)
        np.multiply(y[..., n - 1:2 * n - 1], wk2, out=block)
    return x


def _semidft_axis(values: np.ndarray, grid: Grid, axis: int, scale: float) -> np.ndarray:
    """Per-axis semidiscrete Fourier transform evaluated at nodes x/scale.

    Computes hat(u_j) = dx (2 pi)^{-1/2} sum_m f(x_m) exp(-i u_j x_m) for
    u_j = x_j / scale via a chirp-z transform (exact, N log N), in place:
    the C-contiguous complex values are overwritten and returned.
    """
    n = grid.points_per_dim
    dx = grid.spacing
    x0 = -grid.half_width
    targets0 = x0 / scale
    du = dx / scale
    a = np.exp(1j * targets0 * dx)
    w = np.exp(-1j * du * dx)
    out = _czt(values, w, a, axis)
    shape = [1] * values.ndim
    shape[axis] = n
    u = (targets0 + du * np.arange(n)).reshape(shape)
    return np.multiply(dx / np.sqrt(2.0 * np.pi) * np.exp(-1j * u * x0), out, out=out)


def _on_spec_grid(psi: WaveFunction, spec: QuadraticSpec) -> WaveFunction:
    """psi in the position representation, on a grid with the spec's dims."""
    psi = to_position(psi)
    if psi.grid.dims != spec.dims:
        raise ConfigurationError(
            f"grid dims {psi.grid.dims} do not match quadratic spec dims {spec.dims}")
    return psi


def chirp_resolution_ok(psi: WaveFunction, t: float, spec: QuadraticSpec):
    """Whether the chirp M_t is resolved on psi's grid.

    The chirp's instantaneous frequency at the edge of the state's support,
    |x| |h_k/g_k| (plus the Stark linear term t E_k / 2), added to the
    state's own bandwidth, must stay below Nyquist; otherwise the sampled
    chirp aliases and the factored application silently corrupts.
    """
    psi = _on_spec_grid(psi, spec)
    grid = psi.grid
    fac = trajectory_factors(t, spec)
    ximax = float(np.max(np.abs(grid.freq_nodes)))
    radii = tail_radii(psi.values, grid.nodes, _SUPPORT_TAIL)
    bandwidths = tail_radii(psi.values, grid.freq_nodes, _SUPPORT_TAIL, spectral=True)
    for k in range(grid.dims):
        needed = (radii[k] * abs(fac.h[k] / fac.g[k]) + bandwidths[k]
                  + abs(t) * abs(spec.axis_fields[k]) / 2.0)
        if needed > ximax:
            return False, k, needed, ximax
    return True, -1, 0.0, ximax


def propagate_factored(psi0: WaveFunction, t: float, spec: QuadraticSpec) -> WaveFunction:
    """Apply exp(-i t H0) through the M_t D_t F M_t factorization.

    The dilation is realized as an exact chirp-z resampling of the
    semidiscrete transform at the rescaled lattice x/g_k(2t); unitarity holds
    to roundoff away from singular times.  Its work space is the output and
    small buffers: the chirp M_t multiplies in blocks of rows from its
    per-axis factors, the chirp-z and the spectral check stream through
    blocks of lines, and the edge guard sums slabs in place.  That is about
    one grid state beyond the input, never the chirp, a spectrum or a padded
    copy of the grid.
    """
    psi0 = _on_spec_grid(psi0, spec)
    grid = psi0.grid
    fac = _checked_factors(t, spec)
    assert_contained(psi0, context="propagate_factored input")
    if t == 0.0:
        return psi0
    ok, axis, needed, ximax = chirp_resolution_ok(psi0, t, spec)
    if not ok:
        raise ConfigurationError(
            f"chirp unresolved on axis {axis} at t={t}: needs frequencies up to "
            f"{needed:.1f} vs Nyquist {ximax:.1f}; refine the grid or move t "
            "away from kernel singularities"
        )
    factors = _chirp_factors(grid, spec, fac)
    vals = _times_chirp(factors, psi0.values, np.empty(grid.shape, dtype=complex))
    amp = 1.0 + 0.0j
    for k in range(grid.dims):
        vals = _semidft_axis(vals, grid, axis=k, scale=fac.g[k])
        amp *= _branch_amplitude(spec.sectors[k], spec.axis_omegas[k], t, fac.g[k])
    _times_chirp(factors, vals, vals, amp)
    e2 = sum(e**2 for e in spec.fields)
    if e2:
        np.multiply(vals, np.exp(-1j * t**3 * e2 / 12.0), out=vals)
    out = WaveFunction(grid, vals, POSITION)
    assert_contained(out, context=f"propagate_factored output at t={t}")
    return out


def _axis_phase(spec: QuadraticSpec, fac: TrajectoryFactors, k: int, x, y):
    """Axis k's term ((x^2 + y^2) h_k/2 - x y)/g_k - E_k (x + y) t/2 - E_k^2 t^3/12
    of the Mehler phase S at t = fac.t, for x, y that broadcast."""
    s = ((x**2 + y**2) / 2.0 * fac.h[k] - x * y) / fac.g[k]
    ek = spec.axis_fields[k]
    if ek:
        s = s - (ek / 2.0 * (x + y) * fac.t + ek**2 / 12.0 * fac.t**3)
    return s


def propagate_kernel(psi0: WaveFunction, t: float, spec: QuadraticSpec) -> WaveFunction:
    """Direct O(N^2)-per-axis quadrature of the Mehler integral.

    Independent oracle for propagate_factored; restricted to small grids in
    one or two dimensions, and to t >= ORACLE_MIN_TIME (the kernel
    degenerates to a delta at t = 0).
    """
    psi0 = _on_spec_grid(psi0, spec)
    grid = psi0.grid
    if grid.dims > 2 or grid.points_per_dim > ORACLE_MAX_POINTS:
        raise OracleScaleError("kernel oracle limited to <= 2 dims and <= 256 points per dim")
    if abs(t) < ORACLE_MIN_TIME:
        raise OracleScaleError(f"kernel oracle domain is |t| >= {ORACLE_MIN_TIME}")
    fac = _checked_factors(t, spec)
    x = grid.nodes
    vals = psi0.values
    for k in range(grid.dims):
        S = _axis_phase(spec, fac, k, x[:, None], x[None, :])
        amp = _branch_amplitude(spec.sectors[k], spec.axis_omegas[k], t, fac.g[k])
        kernel = amp / np.sqrt(2.0 * np.pi) * np.exp(1j * S) * grid.spacing
        vals = np.moveaxis(np.tensordot(kernel, vals, axes=([1], [k])), 0, k)
    return WaveFunction(grid, vals, POSITION)


def avron_herbst(psi0: WaveFunction, t: float, E: float) -> WaveFunction:
    """Pure-Stark evolution exp(-i t (-Laplacian + E x)) in one dimension:

        psi_t(x) = exp(-i (t E x + t^3 E^2 / 3)) (exp(i t Laplacian) psi0)(x + t^2 E)

    The coordinate shift is spectral, so it must stay inside the box.
    """
    psi0 = to_position(psi0)
    grid = psi0.grid
    if grid.dims != 1:
        raise ConfigurationError("avron_herbst is one-dimensional")
    if t == 0.0:
        assert_contained(psi0, context="avron_herbst at t=0.0")
        return psi0
    xi = grid.freq_nodes
    hat = to_momentum(psi0).values
    free = hat * np.exp(-1j * t * xi**2)
    shift = t**2 * E
    moved = np.fft.ifft(free * np.exp(1j * (-grid.half_width) * xi))
    radius = tail_radii(moved, grid.nodes, _SUPPORT_TAIL)[0]
    if radius + abs(shift) > 0.95 * grid.half_width:
        raise DomainEscapeError(
            f"Stark shift t^2 E = {shift:.3g} pushes the state outside the box"
        )
    shifted = free * np.exp(1j * shift * xi)
    psi = to_position(WaveFunction(grid, shifted, "momentum"))
    x = grid.nodes
    vals = np.exp(-1j * (t * E * x + t**3 * E**2 / 3.0)) * psi.values
    out = WaveFunction(grid, vals, POSITION)
    assert_contained(out, context=f"avron_herbst at t={t}")
    return out


def chirped_spectrum(psi0: WaveFunction, t: float, spec: QuadraticSpec):
    """F(M_t psi0) on the dual lattice, plus the dilation scales g_k(2t).

    This is the factorization identity used for large-t observables:

        |psi(t, x)|^2 = prod_k |g_k(2t)|^{-1} |F(M_t psi0)(x_1/g_1, ...)|^2,

    so position-density functionals at time t reduce to fixed-lattice sums
    against |F(M_t psi0)|^2 with coordinates scaled by g_k(2t).  No large
    grid is ever built.  Raises a domain-escape error when the chirped
    spectrum leaks to the edge of the dual lattice.  t = 0 is refused: there
    g_k(0) = 0, so neither M_t nor the dilation D_t exists.
    """
    if t == 0.0:
        raise ConfigurationError(
            "chirped_spectrum is singular at t = 0: the factorization M_t D_t F M_t "
            "divides by g_k(2t) = 0")
    psi0 = _on_spec_grid(psi0, spec)
    grid = psi0.grid
    fac = _checked_factors(t, spec)
    vals = _times_chirp(_chirp_factors(grid, spec, fac), psi0.values,
                        np.empty(grid.shape, dtype=complex))
    phi = WaveFunction(grid, _momentum_values(vals, grid, out=vals), MOMENTUM)
    _guard_edge(phi.values, grid, phi.representation, EDGE_MASS_TOL,
                f"chirped spectrum at t={t}")
    return phi, fac.g.copy()
