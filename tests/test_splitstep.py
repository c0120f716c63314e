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
from repscat.splitstep import energy_expectation, hamiltonian_matrix


def _reference_strang_step(vals, cfg, dt):
    """One Strang step on fresh arrays: exp(-i dt V/2) F^-1 exp(-i dt xi^2) F
    exp(-i dt V/2), the formula the buffered kernel replaced."""
    half_v = np.exp(-0.5j * dt * cfg.potential)
    kin = np.exp(-1j * dt * cfg.kinetic)
    return half_v * np.fft.ifftn(kin * np.fft.fftn(half_v * vals))


def _reference_propagate(psi0, t, cfg):
    """Strang loop that allocates fresh arrays every step.  `propagate` runs
    the same arithmetic on two reused buffers; complex multiply is not
    bitwise commutative, so it matches this reference to rounding."""
    psi0 = to_position(psi0)
    if t == 0.0:
        return psi0, {"steps": 0, "max_edge_mass": 0.0}
    if t < 0:
        conj = WaveFunction(psi0.grid, np.conj(psi0.values), POSITION)
        out, tele = _reference_propagate(conj, -t, cfg)
        return WaveFunction(out.grid, np.conj(out.values), POSITION), tele

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
    if n_full:
        vals = half_v * vals
        for k in range(n_full - 1):
            vals = np.fft.ifftn(kin * np.fft.fftn(vals))
            vals = full_v * vals
            max_edge = max(max_edge, _guard_edge(vals, *guard_args))
        vals = np.fft.ifftn(kin * np.fft.fftn(vals))
        vals = half_v * vals
        max_edge = max(max_edge, _guard_edge(vals, *guard_args))
    if rem:
        vals = _reference_strang_step(vals, cfg, rem)
    if rem or not n_full:
        max_edge = max(max_edge, _guard_edge(vals, *guard_args))
    return WaveFunction(grid, vals, POSITION), {"steps": n_full + (1 if rem else 0),
                                                "max_edge_mass": max_edge}


def test_strang_zero_dt_is_identity(l2):
    g = make_grid(1, 64, 8.0)
    cfg = evolution_config(g, 1e-2, repulsive=RepulsiveSpec(1.0))
    psi = gaussian(g)
    assert l2(strang_step(psi, cfg, dt=0.0), psi) < 1e-14


@pytest.mark.parametrize("dims, points, half_width", [(1, 256, 10.0), (2, 64, 10.0),
                                                      (3, 16, 8.0)])
@pytest.mark.parametrize("dt", [None, 3e-3, -2e-3])
def test_strang_step_matches_allocating_formula(dims, points, half_width, dt):
    g = make_grid(dims, points, half_width)
    cfg = evolution_config(g, 1e-2, repulsive=RepulsiveSpec(1.5),
                           perturbation=preset_compact_bump(0.5, 1.0))
    psi = gaussian(g, center=0.5, momentum=0.7)
    out = strang_step(psi, cfg, dt=dt)
    ref = _reference_strang_step(psi.values, cfg, cfg.dt if dt is None else dt)
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
    e0 = energy_expectation(psi, cfg)
    out, _ = propagate(psi, 8.0, cfg)
    e1 = energy_expectation(out, cfg)
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
@pytest.mark.parametrize("steps", [1.0, 1.5, 4.0, 4.5, -1.0, -4.5])
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
    norm holds to roundoff at any t, and a whole number of steps run back
    by propagate(-t) returns the start state to roundoff.  Both are lattice
    identities that need no containment, so the edge guard is relaxed as in
    the wave-operator anchor: on 16^2 points a unit packet puts more than
    1e-6 of its mass in the edge band within a dozen steps."""
    g = make_grid(*shape, 8.0)
    cfg = evolution_config(g, dt, repulsive=RepulsiveSpec(alpha), edge_mass_tol=1e-2)
    psi = gaussian(g, center=center, width=width, momentum=momentum)
    odd, _ = propagate(psi, (steps + frac) * dt, cfg)
    assert l2_norm(odd) == pytest.approx(l2_norm(psi), rel=1e-12)
    fwd, _ = propagate(psi, steps * dt, cfg)
    back, _ = propagate(fwd, -steps * dt, cfg)
    assert l2_norm(WaveFunction(g, back.values - psi.values)) <= 1e-11
