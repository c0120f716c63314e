import functools
import math
import os

import numpy as np
import pytest

from repscat import (
    QuadraticSpec,
    RepulsiveSpec,
    WaveFunction,
    cook_scan,
    evolution_config,
    gaussian,
    l2_norm,
    make_grid,
    minimal_maximal_velocity_mass,
    propagate,
    random_state,
    suggest_grid,
    to_momentum,
    to_position,
    velocity_trace,
    wave_operator,
)
from repscat.errors import ConfigurationError, DomainEscapeError, NumericalStateError
from repscat.grids import MOMENTUM, POSITION
from repscat.mehler import _chirp_factors, _times_chirp, chirped_spectrum, trajectory_factors
from repscat.potentials import (
    PRESETS,
    bracket_x,
    p_alpha,
    p_alpha_inverse,
    preset_log_power,
    preset_power,
    sigma_alpha,
)
from repscat.scattering import (
    _FAR_NODES,
    _FAR_WEIGHTS,
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    DensitySnapshot,
    _anchor_configs,
    _cell_average,
    _cell_tiers,
    _chirp_resolution_floor,
    _dual_lattice,
    _interaction_phase_slice,
    _lattice_values,
    _slice_edges,
    _wave_operator_direct,
    _wave_operators,
    cauchy_differences,
    cook_record_to_csv,
    histograms_to_csv,
    _radial_mean_nd,
    _simpson,
    local_velocity_expectation,
    velocity_trace_to_csv,
)
from repscat.splitstep import _fourier_step

HYPER = QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,))
STARK = QuadraticSpec(dims=1, n_E=1, fields=(1.0,))
LOGW = preset_log_power(1.0, 2.0)

# quad oracle: 6 * integral (x/(1+x^2)) pi^{-1/2} exp(-(x-2)^2) dx, epsabs 1e-14
SHIFTED_V2_ORACLE = 2.3631784066189487


def _two_sided_local_velocity(psi, alpha):
    """<psi, A psi> / ||psi||^2 with A = sigma_alpha/2 sum_k (f_k D_k + D_k f_k)
    applied as written, f_k = x_k <x>^-(1+alpha/2): the complex ratio, whose
    imaginary part is roundoff since A is symmetric on the lattice."""
    g = psi.grid
    vals = psi.values

    def d(v, k):
        hat = to_momentum(WaveFunction(g, v)).values * g.axis_freqs(k)
        return to_position(WaveFunction(g, hat, MOMENTUM)).values

    decay = (1.0 + sum(x**2 for x in g.meshgrid())) ** (-(1.0 + alpha / 2.0) / 2.0)
    out = np.zeros(g.shape, dtype=complex)
    for k in range(g.dims):
        f = g.axis_nodes(k) * decay
        out += 0.5 * (f * d(vals, k) + d(f * vals, k))
    return sigma_alpha(alpha) * np.vdot(vals, out) / np.vdot(vals, vals).real


@pytest.mark.parametrize("dims, points, half_width", [(1, 128, 10.0), (1, 512, 20.0),
                                                      (2, 64, 8.0)])
def test_local_velocity_matches_two_sided_formula(rng, dims, points, half_width):
    g = make_grid(dims, points, half_width)
    for alpha in (0.5, 1.0, 2.0):
        for _ in range(10):
            psi = random_state(g, rng, bandwidth=0.2)
            ref = _two_sided_local_velocity(psi, alpha)
            assert abs(ref.imag) <= 1e-13 * (1.0 + abs(ref.real))
            assert local_velocity_expectation(psi, alpha) == pytest.approx(ref.real,
                                                                           rel=1e-12)


def test_local_velocity_refuses_zero_and_nonfinite_states():
    g = make_grid(1, 64, 8.0)
    for vals in (np.zeros(64), np.r_[np.nan, np.ones(63)]):
        with pytest.raises(NumericalStateError):
            local_velocity_expectation(WaveFunction(g, vals), 1.0)


def test_local_velocity_parity_zero():
    g = make_grid(1, 256, 12.0)
    psi = gaussian(g)
    assert abs(local_velocity_expectation(psi, 2.0)) < 1e-10


def test_local_velocity_quadrature_oracle():
    g = make_grid(1, 512, 20.0)
    psi = gaussian(g, center=2.0, momentum=3.0)
    got = local_velocity_expectation(psi, 2.0)
    assert got == pytest.approx(SHIFTED_V2_ORACLE, abs=1e-6)


def test_local_velocity_cauchy_schwarz_bound(rng):
    g = make_grid(1, 128, 10.0)
    for alpha in (1.0, 2.0):
        fmax = float(np.max(np.abs(g.nodes) * bracket_x(g.nodes) ** (-1 - alpha / 2)))
        sigma = 2.0 if alpha == 2.0 else 2.0 - alpha
        for _ in range(100):
            psi = random_state(g, rng)
            hat = to_momentum(psi)
            dnorm = np.sqrt(np.sum(g.freq_nodes**2 * hat.density()) * hat.measure)
            bound = sigma * fmax * dnorm / l2_norm(psi)
            assert abs(local_velocity_expectation(psi, alpha)) <= bound + 1e-12


def test_cook_zero_potential():
    g = make_grid(1, 256, 12.0)
    record = cook_scan(gaussian(g), HYPER, lambda x: 0.0 * x, np.linspace(1, 5, 9))
    assert np.all(record.integrand == 0.0)
    assert record.tail_exponent_full == -np.inf


def test_cook_log_coupling_tail():
    g = make_grid(1, 2048, 12.0)
    record = cook_scan(gaussian(g), HYPER, LOGW, np.geomspace(2.0, 20.0, 25))
    assert record.tail_exponent_full <= -1.5
    assert np.isfinite(record.integral_estimate)


def test_cook_borderline_contrast():
    g = make_grid(1, 2048, 12.0)
    borderline = lambda x: 1.0 / (1.0 + np.log(bracket_x(x)))
    rec_b = cook_scan(gaussian(g), HYPER, borderline, np.geomspace(2.0, 20.0, 25))
    assert rec_b.tail_kind == "power"
    assert rec_b.tail_exponent >= -1.1
    sharp = lambda x: 1.0 / (1.0 + np.log(bracket_x(x))) ** 2
    rec_s = cook_scan(gaussian(g), HYPER, sharp, np.geomspace(2.0, 20.0, 25))
    assert rec_s.tail_exponent <= -1.5


def test_cook_compact_coupling_exponential_tail():
    # compactly supported couplings see the exponential dilation directly:
    # the integrand dies like exp(-c t) and the semilog fit must win
    from repscat.potentials import preset_compact_bump

    g = make_grid(1, 1024, 12.0)
    record = cook_scan(gaussian(g), HYPER, preset_compact_bump(1.0, 2.0),
                       np.linspace(1.0, 6.0, 21))
    assert record.tail_kind == "exponential"
    assert record.tail_exponent > 0.5  # decay rate lambda
    assert np.isfinite(record.integral_estimate)


def test_cook_stark_drift_decay():
    g = make_grid(1, 1024, 14.0)
    record = cook_scan(gaussian(g), STARK, preset_power(1.0, 1.0),
                       np.geomspace(2.0, 16.0, 21))
    assert record.tail_exponent == pytest.approx(-2.0, abs=0.2)


def test_cook_splitstep_route_small():
    alpha = 1.0
    L, n = suggest_grid(alpha, 4.0, 4.0)
    g = make_grid(1, n, L)
    cfg = evolution_config(g, 2e-3, repulsive=RepulsiveSpec(alpha))
    record = cook_scan(gaussian(g), cfg, preset_power(1.0, 2.0), [1.0, 2.0, 3.0, 4.0])
    assert np.all(record.integrand >= 0.0)
    assert record.integrand[-1] < record.integrand[0]


def test_cook_splitstep_integrand_matches_reference_loop():
    # the density-series integrand sqrt(sum V^2 |psi|^2 h) against the norm
    # of V psi(t) propagated step by step on the spatial grid
    alpha = 1.0
    L, n = suggest_grid(alpha, 4.0, 4.0)
    g = make_grid(1, n, L)
    cfg = evolution_config(g, 2e-3, repulsive=RepulsiveSpec(alpha))
    V = preset_power(1.0, 2.0)
    times = [1.0, 2.0, 3.0, 4.0]
    record = cook_scan(gaussian(g), cfg, V, times)
    psi, prev, ref = gaussian(g), 0.0, []
    for t in times:
        psi, _ = propagate(psi, t - prev, cfg)
        prev = t
        ref.append(l2_norm(WaveFunction(g, V(g.nodes) * psi.values, POSITION)))
    np.testing.assert_allclose(record.integrand, ref, rtol=1e-13, atol=0)


def test_cook_truncates_on_escape_and_raises_when_nothing_was_sampled():
    g = make_grid(1, 128, 8.0)
    cfg = evolution_config(g, 1e-2, repulsive=RepulsiveSpec(1.0))
    record = cook_scan(gaussian(g), cfg, preset_power(1.0, 2.0), [0.1, 0.2, 0.3, 6.0])
    assert record.truncated and len(record.integrand) == 3
    with pytest.raises(DomainEscapeError):
        cook_scan(gaussian(g), cfg, preset_power(1.0, 2.0), [3.0, 4.0, 5.0, 6.0])


def test_cook_2d_factorized_integrand_pinned():
    # recorded with the n-D dual lattice point-sampled; ROADMAP item 2 (one
    # exact dilated-lattice quadrature in every dimension) moves these on purpose
    spec = QuadraticSpec(dims=2, n_minus=1, n_E=1, omegas=(1.0,), fields=(0.5,))
    g = make_grid(2, 128, 10.0)
    psi = gaussian(g, center=(0.5, -0.3), momentum=(0.2, -0.1))
    record = cook_scan(psi, spec, preset_power(1.0, 1.0), [0.5, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        record.integrand,
        [0.5741403741206346, 0.36311069928525325, 0.165082819429106, 0.11675172989346576],
        rtol=1e-12, atol=0)


def test_cook_record_csv(tmp_path):
    g = make_grid(1, 256, 12.0)
    record = cook_scan(gaussian(g), HYPER, LOGW, np.linspace(1, 4, 7))
    path = tmp_path / "cook.csv"
    cook_record_to_csv(record, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,integrand"
    assert len(lines) == 8


def test_wave_operator_identity_when_free(l2):
    g = make_grid(1, 512, 12.0)
    psi = gaussian(g)
    out = wave_operator(psi, 3.0, HYPER, lambda x: 0.0 * x)
    assert l2(out, psi) < 1e-10
    out0 = wave_operator(psi, 0.0, HYPER, LOGW)
    assert l2(out0, psi) == 0.0


def test_free_anchor_is_an_exact_identity(l2):
    # the wave-operator config's s0 ends on a fractional step; with V = 0 the
    # backward run undoes the forward one step for step
    psi = gaussian(make_grid(1, 2048, 12.0))
    anchor = _anchor_configs(psi.grid, HYPER, lambda x: 0.0 * x)
    out = _wave_operator_direct(psi.values.copy(), 0.0572, anchor)
    assert l2(WaveFunction(psi.grid, out, POSITION), psi) <= 1e-13


def test_wave_operator_checks_dims_before_the_chirp_floor():
    # on 64 points the chirp floor would refuse the grid first ("increase
    # points"); the dims mismatch is the error to report
    psi = gaussian(make_grid(2, 64, 12.0))
    with pytest.raises(ConfigurationError,
                       match="grid dims 2 do not match quadratic spec dims 1"):
        wave_operator(psi, 1.0, HYPER, LOGW)


def _reference_edges(s0, horizons):
    """Slice edges for the horizons above s0: s0, each horizon, and every
    lattice point s0 + k 0.025 at least half a slice from all horizons."""
    tops = [T for T in horizons if T > s0]
    edges = [s0] + tops
    k = 1
    while s0 + k * 0.025 < max(tops):
        x = s0 + k * 0.025
        if all(abs(x - T) >= 0.0125 for T in tops):
            edges.append(x)
        k += 1
    return sorted(edges)


def _reference_slices(phi_values, grid, spec, perturbation, edges):
    """The slice product over `edges`, top slice first, each slice forming
    M_s^* F^-1 exp(i delta vbar) F M_s u as a new array."""
    u = phi_values
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        s, delta = 0.5 * (lo + hi), hi - lo
        fac = trajectory_factors(s, spec)
        chirp = functools.reduce(np.multiply, _chirp_factors(grid, spec, fac))
        if grid.dims == 1:
            vbar = _cell_average(perturbation, float(fac.g[0]), grid.freq_nodes,
                                 grid.freq_spacing)
        else:
            vbar = perturbation(*(fac.g[j] * grid.axis_freqs(j) for j in range(grid.dims)))
        u = np.conj(chirp) * np.fft.ifftn(np.exp(1j * delta * vbar) * np.fft.fftn(chirp * u))
    return u


def _reference_wave_operator(phi, T, spec, perturbation, horizons):
    """Omega_T phi on the slice lattice of `horizons`: the slices below T,
    then the split-step anchor on [0, s0] with freshly built configs (the
    anchor alone for T <= s0)."""
    grid = phi.grid
    s0 = max(2.0 * _chirp_resolution_floor(phi, spec)[0], 0.05)
    if T > s0:
        edges = [e for e in _reference_edges(s0, horizons) if e <= T]
        phi, T = WaveFunction(grid, _reference_slices(phi.values, grid, spec, perturbation,
                                                      edges), POSITION), s0
    free = evolution_config(grid, 1e-3, quadratic=spec, edge_mass_tol=1e-2)
    full = evolution_config(grid, 1e-3, quadratic=spec, perturbation=perturbation,
                            edge_mass_tol=1e-2)
    return propagate(propagate(phi, T, free)[0], -T, full)[0]


@pytest.mark.parametrize("grid, spec, perturbation, T", [
    (make_grid(1, 512, 12.0), HYPER, LOGW, 3.0),
    (make_grid(2, 64, 4.0), QuadraticSpec(dims=2, n_minus=1, n_E=1, omegas=(1.0,),
                                          fields=(0.5,)), preset_power(1.0, 1.0), 1.0),
])
def test_wave_operator_slices_match_reference_loop(grid, spec, perturbation, T):
    psi = gaussian(grid, width=0.7, momentum=0.3)
    start = psi.values.copy()
    out = wave_operator(psi, T, spec, perturbation)
    ref = _reference_wave_operator(psi, T, spec, perturbation, [T])
    if grid.dims == 1:
        assert np.array_equal(out.values, ref.values)
    else:
        np.testing.assert_allclose(out.values, ref.values, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(ref.values)))
    assert np.array_equal(psi.values, start)


def test_2d_slices_are_bit_identical_to_the_full_grid_chirp_product():
    # the descent applies M_s and M_s^* in blocks of rows from the per-axis
    # factors (and their conjugates); here each slice forms the full-grid
    # product of the factors and its conjugate, in the same operand order
    grid = make_grid(2, 64, 4.0)
    spec = QuadraticSpec(dims=2, n_minus=1, n_E=1, omegas=(1.0,), fields=(0.5,))
    pert = preset_power(1.0, 1.0)
    psi = gaussian(grid, width=0.7, momentum=0.3)
    T = 1.0
    s0 = max(2.0 * _chirp_resolution_floor(psi, spec)[0], 0.05)
    edges = _slice_edges(s0, [T])
    assert len(edges) > 2
    u = psi.values.copy()
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        factors, multiplier = _interaction_phase_slice(grid, spec, 0.5 * (lo + hi), hi - lo,
                                                       pert)
        chirp = factors[0] * factors[1]
        np.multiply(chirp, u, out=u)
        hat = np.fft.fftn(u)
        np.multiply(multiplier, hat, out=hat)
        np.fft.ifftn(hat, out=u)
        np.multiply(np.conj(chirp), u, out=u)
    ref = _wave_operator_direct(u, s0, _anchor_configs(grid, spec, pert))
    assert np.array_equal(wave_operator(psi, T, spec, pert).values, ref)


def test_lockstep_horizons_match_reference_loop():
    # horizons off the 0.025 lattice, the first below s0 (the anchor alone)
    grid = make_grid(1, 512, 12.0)
    psi = gaussian(grid, width=0.7, momentum=0.3)
    start = psi.values.copy()
    Ts = [0.03, 2.01, 3.3]
    outs = _wave_operators(psi, Ts, HYPER, LOGW)
    assert sorted(outs) == Ts
    for T in Ts:
        ref = _reference_wave_operator(psi, T, HYPER, LOGW, Ts)
        assert np.array_equal(outs[T].values, ref.values)
    assert np.array_equal(psi.values, start)


def _per_chain_wave_operators(phi, Ts, spec, perturbation):
    """{T: Omega_T phi values}, each chain run on its own as one state: the
    slices below T on the shared lattice of all horizons, then propagate
    forward and back on [0, s0] (on [0, T] alone for T <= s0)."""
    grid = phi.grid
    s0 = max(2.0 * _chirp_resolution_floor(phi, spec)[0], 0.05)
    free, full = _anchor_configs(grid, spec, perturbation)
    edges = _slice_edges(s0, [T for T in Ts if T > s0]) if max(Ts) > s0 else []
    out = {}
    for T in Ts:
        if T == 0.0:
            out[T] = phi.values
            continue
        u, t = phi.values.copy(), min(T, s0)
        below = [e for e in edges if e <= T] if T > s0 else []
        for lo, hi in zip(below[-2::-1], below[:0:-1]):
            factors, multiplier = _interaction_phase_slice(grid, spec, 0.5 * (lo + hi), hi - lo,
                                                           perturbation)
            _times_chirp(factors, u, u)
            _fourier_step(u, multiplier, grid.dims)
            _times_chirp([np.conj(f) for f in factors], u, u)
        forward = propagate(WaveFunction(grid, u, POSITION), t, free)[0]
        out[T] = propagate(forward, -t, full)[0].values
    return out


@pytest.mark.parametrize("grid, spec, perturbation, state, Ts", [
    # the sample wave_operator config (s0 ~ 0.057), with T = 0 and a horizon below s0
    (make_grid(1, 2048, 12.0), HYPER, LOGW, {}, [0.0, 0.03, 2.0, 4.0, 6.0]),
    # 64^2 saddle and Stark axes, s0 ~ 0.30
    (make_grid(2, 64, 4.0), QuadraticSpec(dims=2, n_minus=1, n_E=1, omegas=(1.0,),
                                          fields=(0.5,)),
     preset_power(1.0, 1.0), {"width": 0.7, "momentum": 0.3}, [0.0, 0.2, 0.6, 1.0]),
], ids=["sample-1d", "saddle-stark-64x64"])
def test_stacked_chains_are_bit_identical_to_chains_run_one_by_one(grid, spec, perturbation,
                                                                  state, Ts):
    psi = gaussian(grid, **state)
    outs = _wave_operators(psi, Ts, spec, perturbation)
    ref = _per_chain_wave_operators(psi, Ts, spec, perturbation)
    assert sorted(outs) == Ts
    for T in Ts:
        assert np.array_equal(outs[T].values, ref[T]), T


def test_anchor_guards_every_state_of_the_stack():
    # a state with most of its mass in the outer tenth of the box crosses the
    # anchor's 1e-2 edge tolerance; contained states beside it do not excuse it
    grid = make_grid(1, 512, 12.0)
    anchor = _anchor_configs(grid, HYPER, LOGW)
    inside, edge = gaussian(grid).values, gaussian(grid, center=11.0).values
    contained = _wave_operator_direct(np.stack([inside, inside]), 0.0572, anchor)
    assert np.array_equal(contained[0], contained[1])
    for rows in ([edge, inside, inside], [inside, inside, edge]):
        with pytest.raises(DomainEscapeError, match="1.0e-02"):
            _wave_operator_direct(np.stack(rows), 0.0572, anchor)


def test_wave_operators_refuse_zero_and_non_finite_states():
    grid = make_grid(1, 256, 12.0)
    for T in (0.03, 3.0):  # the anchor alone, and a chain
        with pytest.raises(NumericalStateError):
            _wave_operators(WaveFunction(grid, np.zeros(256)), [T], HYPER, LOGW)
    # a slice that overflowed leaves NaN in its chain: the anchor refuses it
    stack = np.stack([gaussian(grid).values] * 2)
    stack[1, 7] = np.nan
    with pytest.raises(NumericalStateError):
        _wave_operator_direct(stack, 0.0572, _anchor_configs(grid, HYPER, LOGW))


def test_slice_lattice_has_no_slivers():
    s0 = 0.0578
    for horizons in ([2.0, 4.0, 6.0], [2.01, 3.3], [s0 + 0.01, 1.0]):
        edges = _slice_edges(s0, horizons)
        assert np.array_equal(edges, _reference_edges(s0, horizons))
        widths = np.diff(edges)
        # only a horizon within half a slice of s0 may leave a narrow bottom slice
        assert np.all(widths[1:] >= 0.0125 - 1e-12) and np.all(widths < 0.0375 + 1e-12)


def test_cauchy_difference_is_the_upper_slice_product():
    """||Omega_T2 phi - Omega_T1 phi|| = ||S(T1, T2) phi - phi||: the chains
    share every slice below T1 and the anchor, all unitary."""
    grid = make_grid(1, 512, 12.0)
    psi = gaussian(grid)
    Ts = [0.03, 2.01, 3.3]
    diffs, _ = cauchy_differences(psi, Ts, HYPER, LOGW)
    s0 = max(2.0 * _chirp_resolution_floor(psi, HYPER)[0], 0.05)
    edges = _reference_edges(s0, Ts)
    upper = [e for e in edges if e >= 2.01]
    step = _reference_slices(psi.values, grid, HYPER, LOGW, upper) - psi.values
    assert diffs[1] == pytest.approx(float(np.sqrt(np.sum(np.abs(step) ** 2) * psi.measure)),
                                     rel=1e-12)


def test_wave_operator_config_builds_each_slice_once(tmp_path, monkeypatch):
    from repscat import scattering
    from repscat.cli import main

    calls = []
    build = scattering._interaction_phase_slice
    monkeypatch.setattr(scattering, "_interaction_phase_slice",
                        lambda *a: calls.append(a[2]) or build(*a))
    config = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs", "wave_operator.yaml")
    assert main(["run", config, "--out", str(tmp_path), "--quiet"]) == 0
    # horizons [2, 4, 6] from s0 ~ 0.058 in slices of 0.025: 238, each s once
    assert len(calls) <= 250
    assert len(set(calls)) == len(calls)


def test_wave_operator_isometry_and_cauchy():
    from scipy.integrate import simpson

    g = make_grid(1, 2048, 12.0)
    psi = gaussian(g)
    Ts = [2.0, 4.0, 6.0]
    diffs, omegas = cauchy_differences(psi, Ts, HYPER, LOGW)
    for om in omegas.values():
        assert abs(l2_norm(om) - 1.0) <= 1e-8
    assert diffs[1] < diffs[0]
    for (t1, t2), d in zip(zip(Ts, Ts[1:]), diffs):
        fine = cook_scan(psi, HYPER, LOGW, np.linspace(t1, t2, 65))
        bound = simpson(fine.integrand, x=fine.times)
        # Cook bound with a small quadrature/ordering slack
        assert d <= bound * 1.02 + 1e-8


def test_velocity_trace_alpha2_factorized():
    g = make_grid(1, 512, 12.0)
    psi = gaussian(g)
    trace = velocity_trace(psi, HYPER, 2.0, [2.0, 4.0, 6.0, 8.0, 10.0])
    assert np.all(np.diff(trace.means) > 0)          # monotone approach
    assert abs(trace.means[-1] - 2.0) <= 0.2
    edges = np.linspace(0.0, 5.0, 121)
    for snap in trace.snapshots:
        masses = np.diff(snap.velocity_mass(2.0, edges))
        assert abs(masses.sum() - 1.0) < 1e-10


def test_velocity_trace_alpha1_splitstep():
    alpha = 1.0
    L, n = suggest_grid(alpha, 8.0, 5.0)
    g = make_grid(1, n, L)
    cfg = evolution_config(g, 2e-3, repulsive=RepulsiveSpec(alpha))
    trace = velocity_trace(gaussian(g), cfg, alpha, [2.0, 4.0, 6.0, 8.0])
    assert abs(trace.richardson_limit() - 1.0) <= 0.15


def test_velocity_splitstep_means_are_point_sampled():
    # the split-step route samples p_alpha at the spatial nodes, as a plain
    # propagate loop does
    alpha = 1.0
    g = make_grid(1, 512, 40.0)
    cfg = evolution_config(g, 1e-2, repulsive=RepulsiveSpec(alpha))
    times = [1.0, 2.0, 3.0]
    trace = velocity_trace(gaussian(g), cfg, alpha, times)
    psi, prev, ref = gaussian(g), 0.0, []
    for t in times:
        psi, _ = propagate(psi, t - prev, cfg)
        prev = t
        rho = psi.density()
        ref.append(np.sum(p_alpha(g.nodes, alpha) * rho / rho.sum()) / t)
    np.testing.assert_allclose(trace.means, ref, rtol=1e-13, atol=0)


def _sub_interval_velocity_mass(snap, alpha, theta):
    """P[p_alpha(x)/t <= theta] with each cell split into 64 uniform
    sub-intervals, each carrying 1/64 of the cell's weight and counted by its
    own overlap with [-r, r]."""
    r = float(p_alpha_inverse(theta * snap.t, alpha)) / abs(snap.scale)
    sub = snap.spacing / 64.0
    lo = (snap.nodes - snap.spacing / 2.0)[:, None] + sub * np.arange(64)
    share = np.clip(np.minimum(lo + sub, r) - np.maximum(lo, -r), 0.0, None) / sub
    return float(np.sum(snap.weights * share.mean(axis=1)))


def _random_snapshots(rng, count):
    """1-D snapshots whose lattice lies inside |x| <= 3.6, so the top
    histogram edge 2 sigma_alpha + 1 (r >= 6 for t >= 1) covers every cell."""
    for _ in range(count):
        n = int(rng.integers(8, 200))
        spacing = float(rng.uniform(0.01, 0.05))
        scale = float(rng.uniform(0.5, 2.0)) * (3.2 / (n * spacing))
        weights = rng.random(n) ** 3
        yield DensitySnapshot(t=float(rng.uniform(1.0, 5.0)),
                              nodes=spacing * (np.arange(n) - n // 2),
                              weights=weights / weights.sum(), scale=scale,
                              spacing=spacing)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_velocity_mass_matches_sub_interval_reference(rng, alpha):
    top = 2.0 * sigma_alpha(alpha) + 1.0
    for snap in _random_snapshots(rng, 10):
        thetas = np.concatenate([np.linspace(0.0, top, 121), rng.uniform(0.0, top, 40)])
        got = snap.velocity_mass(alpha, thetas)
        want = [_sub_interval_velocity_mass(snap, alpha, th) for th in thetas]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_velocity_mass_is_a_distribution_function(rng, alpha):
    top = 2.0 * sigma_alpha(alpha) + 1.0
    for snap in _random_snapshots(rng, 10):
        mass = snap.velocity_mass(alpha, np.linspace(0.0, top, 2001))
        assert np.all(np.diff(mass) >= 0.0)
        floor = float(p_alpha(0.0, alpha)) / snap.t
        assert np.all(snap.velocity_mass(alpha, floor - np.array([0.0, 1e-3, 1.0, 10.0]))
                      == 0.0)
        assert snap.velocity_mass(alpha, [top])[0] == pytest.approx(1.0, abs=1e-12)


def test_velocity_mass_memory_stays_linear_in_the_lattice():
    import tracemalloc

    n = 2**16
    weights = np.full(n, 1.0 / n)
    # |x| <= 16.4, inside r = p_1^-1(3 t) ~ 36 at the top theta
    snap = DensitySnapshot(t=2.0, nodes=5e-4 * (np.arange(n) - n // 2), weights=weights,
                           scale=1.0, spacing=5e-4)
    thetas = np.linspace(0.0, 3.0, 121)
    tracemalloc.start()
    try:
        mass = snap.velocity_mass(1.0, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mass[-1] == pytest.approx(1.0, abs=1e-12)
    # one full (theta, cell) table would take 121 * 2^16 * 8 bytes = 62 MB
    assert peak < 8 * n * 8


def test_velocity_mass_on_trace_snapshots_matches_reference():
    # factorized snapshots: the origin cell spans a large radius at scale g(2t)
    g = make_grid(1, 512, 12.0)
    trace = velocity_trace(gaussian(g), HYPER, 2.0, [2.0, 6.0, 10.0])
    thetas = np.linspace(0.0, 5.0, 121)
    for snap in trace.snapshots:
        want = [_sub_interval_velocity_mass(snap, 2.0, th) for th in thetas]
        np.testing.assert_allclose(snap.velocity_mass(2.0, thetas), want, rtol=0, atol=1e-12)


def test_velocity_masses_alpha2():
    g = make_grid(1, 512, 12.0)
    trace = velocity_trace(gaussian(g), HYPER, 2.0, [4.0, 6.0, 8.0, 10.0])
    out = minimal_maximal_velocity_mass(trace, 1.0, (3.0, 4.0))
    assert out["mass_below"][-1] <= 0.05
    assert out["mass_in_window"][-1] <= 0.05
    assert out["below_decaying"]
    # the window mass is a difference of the distribution function
    snap = trace.snapshots[-1]
    below, lo, hi = snap.velocity_mass(2.0, [1.0, 3.0, 4.0])
    assert out["mass_below"][-1] == below and out["mass_in_window"][-1] == hi - lo
    with pytest.raises(ConfigurationError, match="not increasing"):
        minimal_maximal_velocity_mass(trace, 1.0, (4.0, 3.0))


def test_confining_eigenstate_velocity_is_zero():
    # ground state of the n_plus sector is stationary: ln<x>/t -> 0 and the
    # minimal-velocity mass concentrates at the origin
    trig = QuadraticSpec(dims=1, n_plus=1, omegas=(1.0,))
    g = make_grid(1, 512, 12.0)
    x = g.nodes
    phi0 = WaveFunction(g, np.pi**-0.25 * np.exp(-(x**2) / 2) + 0j)
    trace = velocity_trace(phi0, trig, 2.0, [2.0, 4.0, 7.0, 10.0])
    assert trace.means[-1] < 0.05
    out = minimal_maximal_velocity_mass(trace, 1.0, (3.0, 4.0))
    assert out["mass_below"][-1] > 0.999


def test_per_direction_velocities():
    spec = QuadraticSpec(dims=2, n_minus=2, omegas=(1.0, 2.0))
    g = make_grid(2, 256, 8.0)
    psi = gaussian(g)
    trace = velocity_trace(psi, spec, 2.0, [6.0, 8.0, 10.0], per_direction=True)
    assert abs(trace.per_direction[0][-1] - 2.0) <= 0.2
    assert abs(trace.per_direction[1][-1] - 4.0) <= 0.4
    assert abs(trace.means[-1] - 4.0) <= 0.4      # global follows the max rate


def test_velocity_trace_csv(tmp_path):
    g = make_grid(1, 256, 12.0)
    trace = velocity_trace(gaussian(g), HYPER, 2.0, [2.0, 4.0])
    p1 = tmp_path / "v.csv"
    p2 = tmp_path / "h.csv"
    velocity_trace_to_csv(trace, p1)
    histograms_to_csv(trace, p2)
    assert p1.read_text().splitlines()[0] == "t,mean"
    assert p2.read_text().splitlines()[0] == "t,bin_lo,bin_hi,mass"
    rows = np.loadtxt(p2, delimiter=",", skiprows=1)
    assert rows.shape == (2 * 120, 4)
    for t, snap in zip(trace.times, trace.snapshots):
        block = rows[rows[:, 0] == t]
        np.testing.assert_array_equal(block[:, 3], np.diff(snap.velocity_mass(
            2.0, np.r_[block[:, 1], block[-1, 2]])))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_simpson_matches_scipy(rng, n):
    from scipy.integrate import simpson

    for repeat in range(20):
        x = np.sort(rng.uniform(0.1, 10.0, n))
        if repeat == 0:
            x[1] = x[0]  # a repeated node
        y = rng.standard_normal(n)
        assert _simpson(y, x) == simpson(y, x=x)


def test_chirp_resolution_floor_pinned():
    # pinned bit for bit: the bandwidth comes from grids.tail_radii; a 2-D
    # state needs 256 points per axis before the interaction chirp resolves
    phi = gaussian(make_grid(1, 2048, 12.0), center=1.0, momentum=2.0)
    assert _chirp_resolution_floor(phi, HYPER) == (0.028889208274454913, math.inf)
    saddle = QuadraticSpec(dims=2, n_minus=1, n_E=1, omegas=(1.0,), fields=(0.5,))
    phi = gaussian(make_grid(2, 256, 12.0), center=(1.0, -2.0), momentum=(0.5, 1.5))
    assert _chirp_resolution_floor(phi, saddle)[0] == 0.3291923631618562


def test_stark_ceiling_is_where_the_field_term_meets_the_slice_budget():
    # L/(2s) + |E| s/2 = budget at the ceiling, and budget = L/(2 floor) on a
    # Stark axis; a slice horizon past the ceiling is refused
    phi = gaussian(make_grid(1, 256, 12.0))
    spec = QuadraticSpec(dims=1, n_E=1, fields=(10.0,))
    floor, ceiling = _chirp_resolution_floor(phi, spec)
    budget = 12.0 / (2.0 * floor)
    assert 12.0 / (2.0 * ceiling) + 10.0 * ceiling / 2.0 == pytest.approx(budget, rel=1e-12)
    assert 4.1 < ceiling < 4.2
    with pytest.raises(ConfigurationError, match=r"T=4.3 passes s = 4.18"):
        _wave_operators(phi, [1.0, 4.3], spec, preset_power(1.0, 1.0))
    # a field whose term alone exceeds the budget leaves no slice resolved
    strong = QuadraticSpec(dims=1, n_E=1, fields=(100.0,))
    assert _chirp_resolution_floor(phi, strong) == (floor, 0.0)


def test_snapshot_from_density_normalises_then_orders(rng):
    # a 1-D trace's snapshot: the density normalised, then kept in the dual
    # lattice's own (FFT) order
    g = make_grid(1, 64, 8.0)
    psi = random_state(g, rng)
    snap = velocity_trace(psi, HYPER, 2.0, [3.0]).snapshots[0]
    hat, scales = chirped_spectrum(psi, 3.0, HYPER)
    rho = hat.density() * hat.measure
    assert np.array_equal(snap.nodes, g.freq_nodes)
    assert np.allclose(snap.weights, rho / rho.sum(), rtol=1e-14, atol=0.0)
    assert snap.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert (snap.t, snap.scale, snap.spacing) == (3.0, scales[0], g.freq_spacing)


def _ulps(got, want):
    """|got - want| in units in the last place of want."""
    return np.max(np.abs(np.asarray(got) - want) / np.spacing(np.abs(want)))


def _sorted_snapshot(rho, grid, g, axis, t, cell_values=None):
    """The `axis` marginal of the cell masses rho as a snapshot ordered by
    node, with its weights normalised before ordering.  With cell_values,
    a callable fn -> cell averages in the lattice's own order, its mean_of
    reorders those instead of averaging on the sorted nodes."""
    marg = rho.sum(axis=tuple(k for k in range(rho.ndim) if k != axis))
    order = np.argsort(grid.freq_nodes)
    snap = DensitySnapshot(t=t, nodes=grid.freq_nodes[order], weights=(marg / marg.sum())[order],
                           scale=float(abs(g[axis])), spacing=grid.freq_spacing)
    if cell_values is None:
        return snap.mean_of, snap
    return lambda fn: float(np.sum(cell_values(fn)[order] * snap.weights)), snap


# 1-D lattices either side of numpy's 128-entry pairwise-sum block, a 2-D
# one whose marginals are 256 points and a 3-D one whose are 32
SINGLE_RULE_CASES = [(1, 64, 12.0), (1, 128, 12.0), (1, 256, 12.0), (1, 512, 12.0),
                     (1, 2048, 12.0), (2, 256, 10.0), (3, 32, 6.0)]


@pytest.mark.parametrize("dims, points, half_width", SINGLE_RULE_CASES,
                         ids=lambda v: str(v))
def test_velocity_means_on_the_lattice_match_sorted_snapshots(rng, dims, points, half_width):
    # Velocity means, per-direction means and velocity masses, now read in
    # the lattice's FFT order, against snapshots ordered by node.  With the
    # cell values taken in lattice order the sums agree exactly above 128
    # points, where numpy's pairwise sum splits into the same two halves in
    # either order; at 128 points and below it reorders inside its 8-lane
    # block.  Cell averages taken on the sorted nodes may also differ by an
    # ulp per cell: BLAS's matrix-vector product can round a cell by its
    # row in the tier table.
    g = make_grid(dims, points, half_width)
    psi = (random_state(g, rng, extent=0.1) if dims == 1 else
           gaussian(g, center=(0.3, -0.2, 0.1)[:dims], momentum=(0.2, 0.1, -0.3)[:dims]))
    spec = QuadraticSpec(dims=dims, n_minus=dims, omegas=(1.0, 1.5, 0.5)[:dims])
    times = [1.0, 2.0, 3.0]
    exact = points > 128
    for alpha in (1.0, 2.0):
        trace = velocity_trace(psi, spec, alpha, times, per_direction=True)
        for k, t in enumerate(times):
            hat, scales = chirped_spectrum(psi, t, spec)
            rho = hat.density() * hat.measure
            for ax in range(dims):
                lattice = _dual_lattice(g, scales).axis(ax)
                mean_lattice, snap = _sorted_snapshot(
                    rho, g, scales, ax, t, lambda fn: _lattice_values(fn, lattice))
                mean_sorted, _ = _sorted_snapshot(rho, g, scales, ax, t)
                fns = [lambda y: p_alpha(y, 2.0)] + ([lambda y: p_alpha(y, alpha)]
                                                     if dims == 1 else [])
                got = [trace.per_direction[ax][k]] + ([trace.means[k]] if dims == 1 else [])
                for fn, value in zip(fns, got):
                    want = mean_lattice(fn) / t
                    assert value == want if exact else _ulps(value, want) <= 2
                    assert _ulps(value, mean_sorted(fn) / t) <= 4
                if dims == 1:
                    thetas = np.linspace(0.0, 2.0 * sigma_alpha(alpha) + 1.0, 121)
                    mass = trace.snapshots[k].velocity_mass(alpha, thetas)
                    want = snap.velocity_mass(alpha, thetas)
                    if exact:
                        assert np.array_equal(mass, want)
                    else:
                        np.testing.assert_allclose(mass, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dims, points, half_width", [(1, 512, 12.0), (2, 64, 8.0)])
def test_cook_integrands_and_slice_multipliers_follow_the_written_rule(dims, points,
                                                                      half_width):
    # cell averages on a 1-D dual lattice and point samples on an n-D one,
    # in the lattice's own order, for Cook integrands and slice multipliers
    g = make_grid(dims, points, half_width)
    psi = gaussian(g, center=0.3, momentum=0.2)
    spec = QuadraticSpec(dims=dims, n_minus=dims, omegas=(1.0, 0.5)[:dims])
    V = preset_log_power(1.0, 2.0)
    v2 = lambda *x: V(*x) ** 2

    def values(fn, scales):
        if dims == 1:
            return _cell_average(fn, float(scales[0]), g.freq_nodes, g.freq_spacing)
        return fn(*(scales[k] * g.axis_freqs(k) for k in range(dims)))

    times = [0.2, 0.3, 0.4, 0.5]
    record = cook_scan(psi, spec, V, times)
    for t, value in zip(times, record.integrand):
        hat, scales = chirped_spectrum(psi, t, spec)
        assert value == float(np.sqrt(np.sum(values(v2, scales) * (hat.density() * hat.measure))))
    fac = trajectory_factors(0.7, spec)
    _, multiplier = _interaction_phase_slice(g, spec, 0.7, 0.025, V)
    assert np.array_equal(multiplier, np.exp(1j * 0.025 * values(V, fac.g)))


def test_split_step_cook_integrand_is_point_sampled_on_the_grid():
    g = make_grid(2, 64, 12.0)
    cfg = evolution_config(g, 1e-2, repulsive=RepulsiveSpec(1.0))
    V = preset_power(1.0, 2.0)
    times = [0.1, 0.2, 0.3, 0.4]
    record = cook_scan(gaussian(g), cfg, V, times)
    psi, prev = gaussian(g), 0.0
    for t, value in zip(times, record.integrand):
        psi, _ = propagate(psi, t - prev, cfg)
        prev = t
        rho = psi.density() * psi.measure
        assert value == float(np.sqrt(np.sum(V(*g.meshgrid()) ** 2 * rho)))


def test_snapshot_mean_of_is_the_lattice_sum(rng):
    # on a trace's own snapshot mean_of gives the trace's mean; on any
    # snapshot it is the written cell-average or point-sample sum
    g = make_grid(1, 256, 12.0)
    trace = velocity_trace(random_state(g, rng), HYPER, 1.0, [1.0, 2.5])
    fn = lambda y: p_alpha(y, 1.0)
    for t, mean, snap in zip(trace.times, trace.means, trace.snapshots):
        assert snap.mean_of(fn) / t == mean
        for nodes, weights in ((snap.nodes, snap.weights),
                               (np.sort(snap.nodes), snap.weights[np.argsort(snap.nodes)])):
            other = DensitySnapshot(t=snap.t, nodes=nodes, weights=weights, scale=snap.scale,
                                    spacing=snap.spacing)
            cells = _cell_average(LOGW, snap.scale, nodes, snap.spacing)
            assert other.mean_of(LOGW) == float(np.sum(cells * weights))
            assert other.mean_of(LOGW, cell_averaged=False) == float(
                np.sum(LOGW(snap.scale * nodes) * weights))


# from 512 points up: log(sqrt(1+y^2)) rounds 1+y^2 first, and on coarser
# grids at scale 1e-3 that noise alone nears the 1e-13 bound below
CELL_GRIDS = [make_grid(1, n, 12.0) for n in (512, 1024, 2048)]


@pytest.mark.parametrize("grid", CELL_GRIDS, ids=lambda g: str(g.points_per_dim))
def test_cell_average_matches_arctan_closed_form(grid):
    # the mean of 1/(1+y^2) over y in g*[a, b] is arctan(g(b-a)/(1+g^2 ab))/(g(b-a))
    # on same-sign cells; the cell holding u = 0 is left out, because no fixed
    # Gauss rule resolves a width-1 feature in a cell of width g*h >> 1
    # (ROADMAP item 2, the graded origin cell)
    nodes, h = grid.freq_nodes, grid.freq_spacing
    off = nodes != 0.0
    lo, hi = nodes[off] - h / 2.0, nodes[off] + h / 2.0
    for g in np.geomspace(1e-2, 1e17, 39):
        got = _cell_average(lambda y: 1.0 / (1.0 + y * y), g, nodes, h)[off]
        exact = np.arctan(g * h / (1.0 + (g * lo) * (g * hi))) / (g * h)
        assert np.max(np.abs(got / exact - 1.0)) <= 1e-12, g


@pytest.mark.parametrize("n, nodes, weights", [(32, _GAUSS_NODES, _GAUSS_WEIGHTS),
                                               (8, _FAR_NODES, _FAR_WEIGHTS)])
def test_gauss_tables_are_leggauss_bit_for_bit(n, nodes, weights):
    x, w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(nodes, x) and np.array_equal(weights, w)


def _cell_average_32(fn, scale, nodes, spacing):
    """The 32-point Gauss rule on every cell."""
    x, w = np.polynomial.legendre.leggauss(32)
    v = nodes[:, None] + (spacing / 2.0) * x[None, :]
    return (fn(scale * v) * w[None, :]).sum(axis=1) / 2.0


CELL_FNS = {
    "power": PRESETS["power"](1.0, 2.0),
    "log-power": PRESETS["log-power"](1.0, 2.0),
    "gaussian-bump": PRESETS["gaussian-bump"](1.0, 1.0),
    "compact-bump-2": PRESETS["compact-bump"](1.0, 2.0),
    "compact-bump-3": PRESETS["compact-bump"](1.0, 3.0),
    "short-range": PRESETS["short-range"](1.0, 0.5),
    "borderline": PRESETS["borderline"](2.0),
    "p_alpha-2": lambda y: p_alpha(y, 2.0),
    "p_alpha-1": lambda y: p_alpha(y, 1.0),
    "ln-bracket": lambda y: np.log(bracket_x(y)),
}


def _cell_average_formula(fn, scale, nodes, spacing):
    """_cell_average with its mask and node tables rebuilt on every call."""
    near = np.abs(nodes) < 32 * spacing
    out = np.empty(nodes.shape)
    for mask, x, w in ((near, _GAUSS_NODES, _GAUSS_WEIGHTS), (~near, _FAR_NODES, _FAR_WEIGHTS)):
        if np.any(mask):
            out[mask] = np.einsum("ij,j->i", fn(scale * np.add.outer(nodes[mask],
                                                                   (spacing / 2.0) * x)), w) / 2.0
    return out


@pytest.mark.parametrize("name", sorted(CELL_FNS))
def test_cached_cell_tables_give_the_formula_bits(name):
    fn = CELL_FNS[name]
    _cell_tiers.cache_clear()
    for grid in CELL_GRIDS[:2]:
        h = grid.freq_spacing
        # FFT-ordered dual nodes, a snapshot's sorted ones, and spatial nodes
        for nodes in (grid.freq_nodes, np.sort(grid.freq_nodes), grid.nodes):
            for scale in (1e-3, 1.0, 37.5, 1e9):
                expected = _cell_average_formula(fn, scale, nodes, h)
                for _ in range(2):  # the table built, then the table cached
                    assert np.array_equal(_cell_average(fn, scale, nodes, h), expected)
    assert _cell_tiers.cache_info().misses == 6


@pytest.mark.parametrize("points", [64, 256, 512, 1024, 2048])
def test_cell_average_does_not_depend_on_the_node_order(points):
    # permuting the nodes permutes the cell averages bit for bit: a matrix-
    # vector product would round a cell by its row in the tier's table
    grid = make_grid(1, points, 12.0)
    h = grid.freq_spacing
    perm = np.random.default_rng(points).permutation(points)
    for name in ("power", "log-power", "p_alpha-1"):
        for scale in (1e-3, 1.0, 37.5, 1e9):
            got = _cell_average(CELL_FNS[name], scale, grid.freq_nodes[perm], h)
            assert np.array_equal(got, _cell_average(CELL_FNS[name], scale,
                                                     grid.freq_nodes, h)[perm])


@pytest.mark.parametrize("name", sorted(CELL_FNS))
def test_tiered_cell_average_matches_32_point_rule(name):
    fn = CELL_FNS[name]
    for grid in CELL_GRIDS:
        h = grid.freq_spacing
        for nodes in (grid.freq_nodes, np.sort(grid.freq_nodes)):
            for scale in np.geomspace(1e-3, 1e17, 29):
                got = _cell_average(fn, scale, nodes, h)
                ref = _cell_average_32(fn, scale, nodes, h)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), scale


# Means and per-direction ln<x_j>/t traces recorded before the chirp was built
# per axis and the n-D branch shared one density per time.
PER_DIRECTION_PINS = [
    (QuadraticSpec(dims=2, n_minus=2, omegas=(1.0, 2.0)),
     [2.196461737860039, 2.718937304040393, 3.2532695304658357, 3.4582327418372216],
     [1.010789669170034, 1.1479628837448104, 1.4678370137968173, 1.6351679927757268],
     [1.7739272855299804, 2.5847664722088153, 3.2676638414049726, 3.5117319187875764]),
    (QuadraticSpec(dims=2, n_minus=1, n_E=1, omegas=(1.0,), fields=(0.5,)),
     [1.3655369019238128, 1.3302763226345178, 1.503595688477962, 1.6154224672569273],
     [1.010789669170034, 1.1479628837448106, 1.4678370137968175, 1.6351679927757274],
     [0.628447889091009, 0.5538255298884777, 0.5356917480323009, 0.5244973584694482]),
]


@pytest.mark.parametrize("spec, means, dir0, dir1", PER_DIRECTION_PINS,
                         ids=["hyper-hyper", "hyper-stark"])
def test_nd_velocity_trace_pinned(spec, means, dir0, dir1):
    g = make_grid(2, 128, 10.0)
    psi = gaussian(g, center=(0.5, -0.3), momentum=(0.2, -0.1))
    trace = velocity_trace(psi, spec, 2.0, [0.5, 1.0, 2.0, 3.0], per_direction=True)
    np.testing.assert_allclose(trace.means, means, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.per_direction[0], dir0, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.per_direction[1], dir1, rtol=1e-12, atol=0)


def test_1d_per_direction_trace_is_the_log_mean():
    # in 1-D the one marginal is the velocity snapshot itself
    g = make_grid(1, 512, 12.0)
    trace = velocity_trace(gaussian(g), HYPER, 2.0, [2.0, 4.0], per_direction=True)
    np.testing.assert_array_equal(trace.per_direction[0], trace.means)


def test_splitstep_per_direction_trace_is_the_log_mean():
    # the split-step route reads the same marginal, point-sampled on the grid
    g = make_grid(1, 512, 12.0)
    cfg = evolution_config(g, 1e-2, quadratic=HYPER)
    trace = velocity_trace(gaussian(g), cfg, 2.0, [0.25, 0.5], per_direction=True)
    np.testing.assert_array_equal(trace.per_direction[0], trace.means)


def _radial_mean_meshgrid(rho, grid, g, alpha):
    """<p_alpha(|x|)> with the origin-cell tensor rule built on np.meshgrid
    arrays, its weights and radii accumulated axis by axis."""
    rho = rho / rho.sum()
    r2 = sum((g[k] * grid.axis_freqs(k)) ** 2 for k in range(grid.dims))
    vals = p_alpha(np.sqrt(r2), alpha)
    total = float(np.sum(vals * rho))
    idx = (0,) * grid.dims
    pts = (grid.freq_spacing / 2.0) * _GAUSS_NODES
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
    return total + float(rho[idx]) * (refined - float(vals[idx]))


@pytest.mark.parametrize("dims, points", [(2, 32), (3, 16)])
def test_radial_mean_nd_is_bit_identical_to_the_meshgrid_rule(dims, points, rng):
    g = make_grid(dims, points, 6.0)
    rho = to_momentum(random_state(g, rng)).density()
    for scales in ([3.0, 0.5, 7.0], [40.0, 1.0, 0.2]):
        scales = np.array(scales[:dims])
        for alpha in (0.5, 1.0, 2.0):
            assert _radial_mean_nd(rho, _dual_lattice(g, scales), alpha) == (
                _radial_mean_meshgrid(rho, g, scales, alpha))


def test_tail_exponent_full_is_a_power_law_on_an_exponential_tail():
    # the Gaussian bump's integrand falls off exponentially, so the tail
    # takes the exponential model; the full-schedule figure stays the
    # log-log slope, negative for a decaying integrand
    g = make_grid(1, 2048, 12.0)
    record = cook_scan(gaussian(g), HYPER, PRESETS["gaussian-bump"](1.0, 1.0),
                       np.linspace(1.0, 6.0, 21))
    assert record.tail_kind == "exponential"
    pos = record.integrand > 0
    slope = np.polyfit(np.log(record.times[pos]), np.log(record.integrand[pos]), 1)[0]
    assert record.tail_exponent_full == slope
    assert record.tail_exponent_full < -10.0
