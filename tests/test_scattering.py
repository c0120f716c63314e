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
    velocity_trace,
    wave_operator,
)
from repscat.errors import DomainEscapeError
from repscat.grids import POSITION
from repscat.mehler import _chirp_phase, trajectory_factors
from repscat.potentials import PRESETS, bracket_x, p_alpha, preset_log_power, preset_power
from repscat.scattering import (
    DensitySnapshot,
    _cell_average,
    _chirp_resolution_floor,
    _slice_edges,
    _wave_operators,
    cauchy_differences,
    cook_record_to_csv,
    histograms_to_csv,
    _simpson,
    local_velocity_expectation,
    velocity_trace_to_csv,
)

HYPER = QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,))
STARK = QuadraticSpec(dims=1, n_E=1, fields=(1.0,))
LOGW = preset_log_power(1.0, 2.0)

# quad oracle: 6 * integral (x/(1+x^2)) pi^{-1/2} exp(-(x-2)^2) dx, epsabs 1e-14
SHIFTED_V2_ORACLE = 2.3631784066189487


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
    # recorded with the n-D dual lattice point-sampled; ROADMAP item 1 (one
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
        chirp = _chirp_phase(grid, spec, fac, s)
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
    s0 = max(2.0 * _chirp_resolution_floor(phi, spec), 0.05)
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
    s0 = max(2.0 * _chirp_resolution_floor(psi, HYPER), 0.05)
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
    for masses in trace.histograms:
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


def test_velocity_masses_alpha2():
    g = make_grid(1, 512, 12.0)
    trace = velocity_trace(gaussian(g), HYPER, 2.0, [4.0, 6.0, 8.0, 10.0])
    out = minimal_maximal_velocity_mass(trace, 1.0, (3.0, 4.0))
    assert out["mass_below"][-1] <= 0.05
    assert out["mass_in_window"][-1] <= 0.05
    assert out["below_decaying"]


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
    assert _chirp_resolution_floor(phi, HYPER) == 0.028889208274454913
    saddle = QuadraticSpec(dims=2, n_minus=1, n_E=1, omegas=(1.0,), fields=(0.5,))
    phi = gaussian(make_grid(2, 256, 12.0), center=(1.0, -2.0), momentum=(0.5, 1.5))
    assert _chirp_resolution_floor(phi, saddle) == 0.3291923631618562


def test_snapshot_from_density_normalises_then_orders(rng):
    g = make_grid(2, 64, 8.0)
    hat = to_momentum(random_state(g, rng))
    rho = hat.density() * hat.measure
    snap = DensitySnapshot.from_density(rho, g.freq_nodes, g.freq_spacing, 3.0, scale=2.0,
                                        axis=1)
    order = np.argsort(g.freq_nodes)
    marg = rho.sum(axis=0)
    assert np.array_equal(snap.nodes, g.freq_nodes[order])
    assert np.allclose(snap.weights, (marg / marg.sum())[order], rtol=1e-14, atol=0.0)
    assert snap.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert (snap.t, snap.scale, snap.spacing) == (3.0, 2.0, g.freq_spacing)


# from 512 points up: log(sqrt(1+y^2)) rounds 1+y^2 first, and on coarser
# grids at scale 1e-3 that noise alone nears the 1e-13 bound below
CELL_GRIDS = [make_grid(1, n, 12.0) for n in (512, 1024, 2048)]


@pytest.mark.parametrize("grid", CELL_GRIDS, ids=lambda g: str(g.points_per_dim))
def test_cell_average_matches_arctan_closed_form(grid):
    # the mean of 1/(1+y^2) over y in g*[a, b] is arctan(g(b-a)/(1+g^2 ab))/(g(b-a))
    # on same-sign cells; the cell holding u = 0 is left out, because no fixed
    # Gauss rule resolves a width-1 feature in a cell of width g*h >> 1
    # (ROADMAP item 1, the graded origin cell)
    nodes, h = grid.freq_nodes, grid.freq_spacing
    off = nodes != 0.0
    lo, hi = nodes[off] - h / 2.0, nodes[off] + h / 2.0
    for g in np.geomspace(1e-2, 1e17, 39):
        got = _cell_average(lambda y: 1.0 / (1.0 + y * y), g, nodes, h)[off]
        exact = np.arctan(g * h / (1.0 + (g * lo) * (g * hi))) / (g * h)
        assert np.max(np.abs(got / exact - 1.0)) <= 1e-12, g


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
