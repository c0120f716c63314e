from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repscat import (
    ConfigurationError,
    PhaseWindingError,
    OracleScaleError,
    QuadraticSpec,
    RepulsiveSpec,
    WaveFunction,
    boundary_mass_fraction,
    convergence_order,
    dense_oracle,
    evolution_config,
    expectation,
    gaussian,
    l2_norm,
    make_grid,
    propagate,
    propagate_factored,
    strang_step,
    suggest_grid,
    to_momentum,
    to_position,
)
from repscat import grids
from repscat.errors import DomainEscapeError
from repscat.grids import POSITION, _guard_edge
from repscat.potentials import preset_compact_bump
from repscat.splitstep import (
    _evolve,
    hamiltonian_matrix,
)


def _reference_strang_step(vals, cfg, dt):
    """One Strang step on fresh arrays: exp(-i dt V/2) F^-1 exp(-i dt xi^2) F
    exp(-i dt V/2), the formula the buffered kernel replaced."""
    half_v = np.exp(-0.5j * dt * cfg.potential)
    kin = np.exp(-1j * dt * cfg.kinetic)
    return half_v * np.fft.ifftn(kin * np.fft.fftn(half_v * vals))


def _reference_propagate(psi0, t, cfg):
    """Strang loop that allocates fresh arrays every step.  `propagate` runs
    the same arithmetic on two reused buffers; complex multiply is not
    bitwise commutative, so it matches this reference to rounding.  Backward
    (t < 0) runs the conjugate state forward with the fractional step first,
    mirroring the forward run step for step.  t = 0 runs no step and guards
    psi0 as given."""
    psi0 = to_position(psi0)
    if t < 0:
        conj = WaveFunction(psi0.grid, np.conj(psi0.values), POSITION)
        out, tele = _reference_forward(conj, -t, cfg, remainder_first=True)
        return WaveFunction(out.grid, np.conj(out.values), POSITION), tele
    return _reference_forward(psi0, t, cfg, remainder_first=False)


def _reference_forward(psi0, t, cfg, remainder_first):
    n_full, rem = divmod(t, cfg.dt)
    n_full = int(round(n_full))
    if rem < 1e-12 * cfg.dt or abs(rem - cfg.dt) < 1e-12 * cfg.dt:
        if abs(rem - cfg.dt) < 1e-12 * cfg.dt:
            n_full += 1
        rem = 0.0

    grid = cfg.grid
    half_v = np.exp(-0.5j * cfg.dt * cfg.potential)
    full_v = half_v * half_v
    kin = np.exp(-1j * cfg.dt * cfg.kinetic)
    vals = psi0.values
    max_edge = 0.0
    guard_args = (grid, POSITION, cfg.edge_mass_tol, "propagate")
    if rem and remainder_first:
        vals = _reference_strang_step(vals, cfg, rem)
        max_edge = max(max_edge, _guard_edge(vals, *guard_args))
    if n_full:
        vals = half_v * vals
        for k in range(n_full - 1):
            vals = np.fft.ifftn(kin * np.fft.fftn(vals))
            vals = full_v * vals
            max_edge = max(max_edge, _guard_edge(vals, *guard_args))
        vals = np.fft.ifftn(kin * np.fft.fftn(vals))
        vals = half_v * vals
        max_edge = max(max_edge, _guard_edge(vals, *guard_args))
    if rem and not remainder_first:
        vals = _reference_strang_step(vals, cfg, rem)
    if (rem and not remainder_first) or not (n_full or rem):
        max_edge = max(max_edge, _guard_edge(vals, *guard_args))
    return WaveFunction(grid, vals, POSITION), {"steps": n_full + (1 if rem else 0),
                                                "max_edge_mass": max_edge}


@pytest.mark.parametrize("dims, points, half_width", [(1, 256, 10.0), (2, 64, 10.0),
                                                      (3, 16, 8.0)])
@pytest.mark.parametrize("dt", [None, 3e-3])
def test_strang_step_matches_allocating_formula(dims, points, half_width, dt):
    # the step length is cfg.dt; None keeps the config's own
    g = make_grid(dims, points, half_width)
    cfg = evolution_config(g, 1e-2, repulsive=RepulsiveSpec(1.5),
                           perturbation=preset_compact_bump(0.5, 1.0))
    if dt is not None:
        cfg = replace(cfg, dt=dt)
    psi = gaussian(g, center=0.5, momentum=0.7)
    out = strang_step(psi, cfg)
    ref = _reference_strang_step(psi.values, cfg, cfg.dt)
    np.testing.assert_allclose(out.values, ref, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(ref)))
    assert not np.shares_memory(out.values, psi.values)


def test_strang_step_names_itself_when_the_state_escapes():
    g = make_grid(1, 128, 10.0)
    cfg = evolution_config(g, 1e-2, perturbation=lambda x: 0.0 * x)
    with pytest.raises(DomainEscapeError, match=r"\(strang_step\)"):
        strang_step(gaussian(g, center=9.0), cfg)


def test_free_splitting_is_exact(l2):
    g = make_grid(1, 128, 10.0)
    cfg = evolution_config(g, 0.05, perturbation=lambda x: 0.0 * x)
    psi = gaussian(g, momentum=0.5)
    out, _ = propagate(psi, 0.5, cfg)
    hat = to_momentum(psi)
    exact = to_position(WaveFunction(g, hat.values * np.exp(-1j * 0.5 * g.freq_nodes**2),
                                     "momentum"))
    assert l2(out, exact) < 1e-12


def test_norm_preserved_per_step(rng):
    g = make_grid(1, 128, 10.0)
    cfg = evolution_config(g, 1e-3, repulsive=RepulsiveSpec(1.0))
    psi = gaussian(g)
    n0 = l2_norm(psi)
    drift = 0.0
    for _ in range(50):
        psi = strang_step(psi, cfg)
        drift = max(drift, abs(l2_norm(psi) - n0) / n0)
    assert drift < 50 * 1e-12


def test_splitstep_vs_mehler_alpha2(l2):
    g = make_grid(1, 1024, 30.0)
    psi = gaussian(g)
    cfg = evolution_config(g, 1e-4, repulsive=RepulsiveSpec(2.0, regularized=False))
    out, _ = propagate(psi, 0.5, cfg)
    ref = propagate_factored(psi, 0.5, QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,)))
    assert l2(out, ref) <= 1e-6


def test_propagate_roundtrip(l2):
    g = make_grid(1, 256, 20.0)
    psi = gaussian(g)
    cfg = evolution_config(g, 1e-3, repulsive=RepulsiveSpec(1.0))
    fwd, _ = propagate(psi, 0.5, cfg)
    back, _ = propagate(fwd, -0.5, cfg)
    assert l2(back, psi) <= 1e-8


def test_roundtrip_with_a_fractional_step_is_exact(l2):
    # velocity_alpha1's grid and step: t = 1.0005 ends on a half step, and
    # the backward run undoes it first (the forward run last), so the round
    # trip is S(-dt)^n S(-r) S(r) S(dt)^n, the identity to rounding
    g = make_grid(1, 4096, 152.0)
    psi = gaussian(g)
    cfg = evolution_config(g, 2e-3, repulsive=RepulsiveSpec(1.0))
    fwd, _ = propagate(psi, 1.0005, cfg)
    back, _ = propagate(fwd, -1.0005, cfg)
    assert l2(back, psi) <= 1e-12


def test_time_reversal_by_conjugation(l2):
    g = make_grid(1, 256, 20.0)
    psi = gaussian(g, momentum=0.7)
    cfg = evolution_config(g, 1e-3, repulsive=RepulsiveSpec(1.0))
    fwd, _ = propagate(WaveFunction(g, np.conj(psi.values)), 0.4, cfg)
    conj_path = WaveFunction(g, np.conj(fwd.values))
    back, _ = propagate(psi, -0.4, cfg)
    assert l2(conj_path, back) < 1e-10


def test_fractional_final_step(l2):
    g = make_grid(1, 128, 12.0)
    psi = gaussian(g)
    cfg = evolution_config(g, 1e-3, repulsive=RepulsiveSpec(1.0))
    a, tele = propagate(psi, 0.0105, cfg)
    assert tele["steps"] == 11
    fine = evolution_config(g, 5e-5, repulsive=RepulsiveSpec(1.0))
    b, _ = propagate(psi, 0.0105, fine)
    assert l2(a, b) < 1e-7


def test_energy_conservation_alpha1():
    alpha = 1.0
    L, n = suggest_grid(alpha, 8.0, 4.0)
    g = make_grid(1, n, L)
    cfg = evolution_config(g, 1e-3, repulsive=RepulsiveSpec(alpha))
    psi = gaussian(g)
    # <xi^2> + <V_total>
    energy = lambda psi: (expectation(to_momentum(psi), cfg.kinetic)
                          + expectation(psi, cfg.potential))
    e0 = energy(psi)
    out, _ = propagate(psi, 8.0, cfg)
    e1 = energy(out)
    assert abs(e1 - e0) / (1.0 + abs(e0)) <= 1e-6


def test_perturbation_sensitivity(l2):
    g = make_grid(1, 1024, 30.0)
    psi = gaussian(g)
    base = evolution_config(g, 1e-3, repulsive=RepulsiveSpec(2.0))
    bump = evolution_config(g, 1e-3, repulsive=RepulsiveSpec(2.0),
                            perturbation=preset_compact_bump(1.0, 1.0))
    a, _ = propagate(psi, 1.0, base)
    b, _ = propagate(psi, 1.0, bump)
    assert l2(a, b) > 1e-3


def test_dense_oracle_identity_and_hermiticity():
    g = make_grid(1, 64, 8.0)
    cfg = evolution_config(g, 1e-3, repulsive=RepulsiveSpec(1.0))
    ham = hamiltonian_matrix(cfg)
    assert np.max(np.abs(ham - ham.conj().T)) < 1e-12
    psi = gaussian(g)
    out = dense_oracle(psi, 0.0, cfg)
    assert np.allclose(out.values, psi.values, atol=1e-12)


def test_dense_oracle_matches_splitstep(l2):
    g = make_grid(1, 64, 8.0)
    psi = gaussian(g)
    for alpha in (1.0, 2.0):
        cfg = evolution_config(g, 1e-4, repulsive=RepulsiveSpec(alpha))
        num, _ = propagate(psi, 0.1, cfg)
        ref = dense_oracle(psi, 0.1, cfg)
        assert l2(num, ref) <= 1e-6


def test_dense_oracle_size_limit():
    g = make_grid(1, 256, 8.0)
    cfg = evolution_config(g, 1e-3, repulsive=RepulsiveSpec(1.0))
    with pytest.raises(OracleScaleError):
        dense_oracle(gaussian(g), 0.1, cfg)


def test_convergence_order_alpha1():
    g = make_grid(1, 64, 8.0)
    psi = gaussian(g)
    cfg = evolution_config(g, 4e-3, repulsive=RepulsiveSpec(1.0))
    out = convergence_order(psi, 0.1, cfg, [4e-3, 2e-3, 1e-3, 5e-4])
    assert out["slope"] == pytest.approx(2.0, abs=0.1)


def test_convergence_order_flags_exact_splitting():
    g = make_grid(1, 64, 8.0)
    psi = gaussian(g)
    cfg = evolution_config(g, 4e-3, perturbation=lambda x: 0.0 * x)
    out = convergence_order(psi, 0.1, cfg, [4e-3, 2e-3, 1e-3, 5e-4])
    assert out["floor_flagged"]


def test_phase_winding_guard():
    g = make_grid(1, 256, 40.0)
    with pytest.raises(PhaseWindingError):
        evolution_config(g, 0.2, repulsive=RepulsiveSpec(2.0))


def test_rejects_zero_state():
    from repscat import NumericalStateError

    g = make_grid(1, 64, 8.0)
    cfg = evolution_config(g, 1e-3, repulsive=RepulsiveSpec(1.0))
    zero = WaveFunction(g, np.zeros(64, dtype=complex))
    with pytest.raises(NumericalStateError):
        propagate(zero, 0.1, cfg)


def test_rejects_complex_potential():
    g = make_grid(1, 64, 8.0)
    with pytest.raises(ConfigurationError):
        evolution_config(g, 1e-3, perturbation=np.ones(64) * 1j)


def test_suggest_grid_tracks_envelope():
    L, n = suggest_grid(1.0, 8.0, 4.0)
    assert L >= 1.5 * 64.0  # classical reach (sigma t)^2 = 64 at t = 8
    assert n & (n - 1) == 0


def test_propagate_raises_when_state_reaches_box_edge():
    g = make_grid(1, 128, 10.0)
    cfg = evolution_config(g, 1e-2, perturbation=lambda x: 0.0 * x)
    psi = gaussian(g, center=5.0, momentum=4.0)  # group velocity 2k = 8
    with pytest.raises(DomainEscapeError):
        propagate(psi, 1.0, cfg)


def test_one_step_propagate_reports_output_edge_mass():
    g = make_grid(1, 128, 10.0)
    cfg = evolution_config(g, 1e-2, repulsive=RepulsiveSpec(1.0))
    out, tele = propagate(gaussian(g, center=4.0), 1e-2, cfg)
    assert tele["steps"] == 1
    assert 0.0 < tele["max_edge_mass"] == boundary_mass_fraction(out)


@pytest.mark.parametrize("t, calls", [(5e-2, 5), (5.5e-2, 6), (1e-15, 1)])
def test_propagate_guards_each_state_once(monkeypatch, t, calls):
    # one edge-mass evaluation per step, the remainder step included; a time
    # below the step resolution runs no step and guards the input state
    masses = []
    edge_mass = grids._edge_mass

    def counting(*args):
        masses.append(edge_mass(*args))
        return masses[-1]

    monkeypatch.setattr(grids, "_edge_mass", counting)
    g = make_grid(1, 256, 10.0)
    cfg = evolution_config(g, 1e-2, repulsive=RepulsiveSpec(1.0))
    out, tele = propagate(gaussian(g, center=4.0), t, cfg)
    assert len(masses) == calls
    assert tele["max_edge_mass"] == max(masses) > 0.0
    last_guarded = masses[-1]
    assert last_guarded == boundary_mass_fraction(out)


@pytest.mark.parametrize("dims, points, half_width", [
    (1, 64, 8.0), (1, 32768, 40.0), (2, 128, 12.0), (3, 16, 8.0),
])
@pytest.mark.parametrize("steps", [0.0, 1.0, 1.5, 4.0, 4.5, -1.0, -4.5])
def test_propagate_matches_reference_loop(dims, points, half_width, steps):
    g = make_grid(dims, points, half_width)
    dt = 1e-2
    cfg = evolution_config(g, dt, repulsive=RepulsiveSpec(1.5),
                           perturbation=preset_compact_bump(0.5, 1.0))
    psi = gaussian(g, center=0.5, momentum=0.7)
    out, tele = propagate(psi, steps * dt, cfg)
    ref, ref_tele = _reference_propagate(psi, steps * dt, cfg)
    np.testing.assert_allclose(out.values, ref.values, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(ref.values)))
    assert tele["steps"] == ref_tele["steps"]
    assert tele["max_edge_mass"] == pytest.approx(ref_tele["max_edge_mass"], rel=1e-12)
    assert tele["steps"] == int(np.ceil(abs(steps)))


def test_propagate_returns_unaliased_read_only_states():
    g = make_grid(2, 64, 10.0)
    cfg = evolution_config(g, 1e-2, repulsive=RepulsiveSpec(1.0))
    psi = gaussian(g, momentum=0.5)
    start = psi.values.copy()
    first, _ = propagate(psi, 0.05, cfg)
    assert np.array_equal(psi.values, start)
    kept = first.values.copy()
    second, _ = propagate(psi, 0.03, cfg)
    assert np.array_equal(first.values, kept)
    assert not np.shares_memory(first.values, second.values)
    assert np.array_equal(psi.values, start)
    for out in (first, second):
        assert not out.values.flags.writeable
        with pytest.raises(ValueError):
            out.values[0, 0] = 0.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from([(1, 64), (1, 256), (2, 16)]), alpha=st.floats(0.5, 2.0),
       dt=st.floats(1e-3, 5e-3), steps=st.integers(1, 60), frac=st.floats(0.0, 1.0),
       center=st.floats(-1.0, 1.0), momentum=st.floats(-1.0, 1.0),
       width=st.floats(0.8, 1.2))
def test_propagate_is_unitary_and_reversible(shape, alpha, dt, steps, frac, center,
                                             momentum, width):
    """Every Strang step is a product of unitary phases and FFTs, so the
    norm holds to roundoff at any t, and propagate(-t), which runs the
    fractional step first, returns the start state to roundoff.  Both are lattice
    identities that need no containment, so the edge guard is relaxed as in
    the wave-operator anchor: on 16^2 points a unit packet puts more than
    1e-6 of its mass in the edge band within a dozen steps."""
    g = make_grid(*shape, 8.0)
    cfg = evolution_config(g, dt, repulsive=RepulsiveSpec(alpha), edge_mass_tol=1e-2)
    psi = gaussian(g, center=center, width=width, momentum=momentum)
    odd, _ = propagate(psi, (steps + frac) * dt, cfg)
    assert l2_norm(odd) == pytest.approx(l2_norm(psi), rel=1e-12)
    for t in (steps * dt, (steps + frac) * dt):
        fwd, _ = propagate(psi, t, cfg)
        back, _ = propagate(fwd, -t, cfg)
        assert l2_norm(WaveFunction(g, back.values - psi.values)) <= 1e-11


@pytest.mark.parametrize("dims, points", [(1, 64), (2, 32), (3, 16)])
def test_kinetic_symbol_is_bit_identical_to_the_axis_by_axis_sum(dims, points):
    g = make_grid(dims, points, 6.0)
    expected = np.zeros(g.shape)
    for k in range(dims):
        expected = expected + g.axis_freqs(k) ** 2
    kinetic = evolution_config(g, 0.01).kinetic
    assert kinetic.shape == g.shape
    assert np.array_equal(kinetic, expected)


def _spectrum_buffer_loop(vals, cfg, t):
    """The Strang loop on separate state, spectrum and phase arrays, for the
    segments of t as divmod splits |t| (every t here is clear of the
    whole-step rounding rule): buf -> spec by FFT, spec -> buf by inverse
    FFT, and half_v, full_v and kin built afresh for every segment."""
    n_full, rem = divmod(abs(t), cfg.dt)
    segments = [(d, n) for d, n in ((cfg.dt, int(n_full)), (rem, 1)) if d and n]
    if t < 0:
        segments = segments[::-1]
    buf = np.empty(vals.shape, dtype=complex)
    spec = np.empty_like(buf)
    if t < 0:
        vals = np.conjugate(vals, out=buf)
    for dt, n in segments:
        half_v = np.exp(-0.5j * dt * cfg.potential)
        full_v = half_v * half_v if n > 1 else half_v
        kin = np.exp(-1j * dt * cfg.kinetic)
        np.multiply(half_v, vals, out=buf)
        for k in range(n):
            np.fft.fftn(buf, out=spec)
            np.multiply(kin, spec, out=spec)
            np.fft.ifftn(spec, out=buf)
            np.multiply(full_v if k < n - 1 else half_v, buf, out=buf)
        vals = buf
    if t < 0:
        np.conjugate(buf, out=buf)
    return buf


def _strang_case(dims):
    g = make_grid(dims, {1: 256, 2: 64, 3: 16}[dims], 12.0)
    cfg = evolution_config(g, 4e-3, repulsive=RepulsiveSpec(1.0),
                           perturbation=preset_compact_bump(0.3, 2.0))
    return cfg, gaussian(g, center=0.5, momentum=0.7, width=1.1)


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("t", [4e-3, -1.3e-3, 6 * 4e-3, -2 * 4e-3, 5 * 4e-3 + 1.5e-3,
                               -(5 * 4e-3 + 1.5e-3)],
                         ids=["one", "one-conjugate", "six", "two-conjugate",
                              "remainder-last", "remainder-first-conjugate"])
def test_strang_loop_is_bit_identical_to_the_spectrum_buffer_loop(dims, t):
    cfg, psi = _strang_case(dims)
    out, _, _ = _evolve(psi.values, t, cfg, "test")
    assert np.array_equal(out, _spectrum_buffer_loop(psi.values, cfg, t))


@pytest.mark.parametrize("steps", [1.0, 5.0, 5.5, -1.0, -5.0, -5.5])
def test_propagate_is_bit_identical_to_the_spectrum_buffer_loop(steps):
    cfg, psi = _strang_case(2)
    t = steps * cfg.dt
    out, _ = propagate(psi, t, cfg)
    assert np.array_equal(out.values, _spectrum_buffer_loop(psi.values, cfg, t))
    single = strang_step(psi, cfg)
    assert np.array_equal(single.values, _spectrum_buffer_loop(psi.values, cfg, cfg.dt))


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("steps", [5.0, 5.5, -5.5, 1e-14])
def test_propagate_is_a_stack_of_one(dims, steps):
    # a stack steps every state as propagate steps it alone, bit for bit, and
    # reports the step count and the largest edge mass of its states
    cfg, psi = _strang_case(dims)
    other = gaussian(cfg.grid, center=-0.5, momentum=-0.3, width=0.9)
    t = steps * cfg.dt
    out, tel = propagate(psi, t, cfg)
    out_other, tel_other = propagate(other, t, cfg)
    one, n_one, edge_one = _evolve(psi.values[None], t, cfg, "test")
    assert np.array_equal(one[0], out.values)
    assert (n_one, edge_one) == (tel["steps"], tel["max_edge_mass"])
    stack = np.stack([psi.values, other.values, psi.values])
    got, n, edge = _evolve(stack, t, cfg, "test")
    for row, ref in zip(got, (out, out_other, out)):
        assert np.array_equal(row, ref.values)
    # in place, as the wave-operator anchor steps its stack
    buf = stack.copy()
    in_place, _, _ = _evolve(buf, t, cfg, "test", out=buf)
    assert in_place is buf and np.array_equal(buf, got)
    assert n == tel["steps"]
    assert edge == max(tel["max_edge_mass"], tel_other["max_edge_mass"])


def test_propagate_at_zero_takes_the_no_step_path():
    # t = 0 runs no step, as any |t| below 1e-12 dt does: the state comes
    # back as given with its own edge mass, and a state in the edge band raises
    cfg, psi = _strang_case(1)
    zero, tel_zero = propagate(psi, 0.0, cfg)
    tiny, tel_tiny = propagate(psi, 1e-15, cfg)
    assert np.array_equal(zero.values, psi.values) and np.array_equal(tiny.values, psi.values)
    assert tel_zero == tel_tiny == {"steps": 0, "max_edge_mass": boundary_mass_fraction(psi)}
    edge = gaussian(cfg.grid, center=11.5, width=0.5)
    for t in (0.0, 1e-15, -1e-15):
        with pytest.raises(DomainEscapeError, match=r"\(propagate\)"):
            propagate(edge, t, cfg)


def test_propagate_memory_budget():
    import tracemalloc

    g = make_grid(2, 256, 40.0)
    cfg = evolution_config(g, 2e-3, repulsive=RepulsiveSpec(1.0))
    psi = gaussian(g)
    propagate(psi, 4e-3, cfg)  # loads numpy.fft and caches the edge mask
    tracemalloc.start()
    try:
        out, _ = propagate(psi, 0.05, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the state buffer and two phase arrays, plus the edge guard's line blocks;
    # a spectrum buffer or a third phase array would add one more state
    assert peak <= 3.2 * 256**2 * 16
