import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repscat import (
    ConfigurationError,
    NumericalStateError,
    Observable,
    SelfAdjointnessError,
    WaveFunction,
    boundary_mass_fraction,
    expectation,
    gaussian,
    l2_norm,
    make_grid,
    random_state,
    to_momentum,
    to_position,
)
from repscat.grids import _axis_phases, _edge_mask, assert_contained, inner, transform
from repscat.errors import DomainEscapeError

# quad oracle: integral sqrt(1+x^2) exp(-x^2) dx / sqrt(pi), epsabs 1e-14
BRACKET_X_GAUSSIAN_MEAN = 1.2003469347909468


def test_make_grid_basic_lattice():
    g = make_grid(1, 8, 4.0)
    assert g.spacing == 1.0
    assert np.array_equal(g.nodes, np.arange(-4.0, 4.0))


def test_make_grid_nyquist():
    g = make_grid(1, 8, 4.0)
    assert np.max(np.abs(g.freq_nodes)) == pytest.approx(np.pi, abs=1e-15)


def test_make_grid_total_points_2d():
    g = make_grid(2, 16, 8.0)
    assert int(np.prod(g.shape)) == 256


def test_make_grid_rejects_bad_sizes():
    with pytest.raises(ConfigurationError):
        make_grid(1, 12, 4.0)
    with pytest.raises(ConfigurationError):
        make_grid(1, 16, -1.0)
    with pytest.raises(ConfigurationError):
        make_grid(0, 16, 1.0)


def test_make_grid_refuses_more_than_max_grid_points():
    assert make_grid(3, 256, 1.0).shape == (256, 256, 256)  # exactly 2^24: accepted
    for dims, points in [(3, 512), (2, 8192), (1, 2**25), (10**9, 8)]:
        with pytest.raises(ConfigurationError, match=r"points_per_dim\*\*dims"):
            make_grid(dims, points, 1.0)


def test_l2_norm_constant():
    g = make_grid(1, 8, 4.0)
    psi = WaveFunction(g, np.ones(8, dtype=complex))
    assert l2_norm(psi) == pytest.approx(np.sqrt(8.0), rel=1e-14)


def test_l2_norm_zero_state():
    g = make_grid(1, 8, 4.0)
    assert l2_norm(WaveFunction(g, np.zeros(8, dtype=complex))) == 0.0


def test_l2_norm_normalized_gaussian():
    g = make_grid(1, 512, 20.0)
    psi = WaveFunction(g, np.pi**-0.25 * np.exp(-g.nodes**2 / 2) + 0j)
    assert abs(l2_norm(psi) - 1.0) < 1e-10


def test_l2_norm_rejects_nan():
    g = make_grid(1, 8, 4.0)
    vals = np.ones(8, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(NumericalStateError):
        l2_norm(WaveFunction(g, vals))


def test_transform_roundtrip(rng, l2):
    g = make_grid(1, 128, 10.0)
    psi = random_state(g, rng)
    back = to_position(to_momentum(psi))
    assert l2(back, psi) < 1e-12


def test_transform_gaussian_pair():
    g = make_grid(1, 512, 20.0)
    psi = WaveFunction(g, np.exp(-g.nodes**2 / 2) + 0j)
    hat = to_momentum(psi)
    exact = np.exp(-g.freq_nodes**2 / 2)
    err = np.sqrt(np.sum(np.abs(hat.values - exact) ** 2) * g.freq_spacing)
    assert err < 1e-8


def test_transform_spike_flat_modulus():
    g = make_grid(1, 64, 8.0)
    vals = np.zeros(64, dtype=complex)
    vals[10] = 1.0
    hat = to_momentum(WaveFunction(g, vals))
    mods = np.abs(hat.values)
    assert np.max(mods) - np.min(mods) < 1e-12 * np.max(mods)


def test_parseval_random_states(rng):
    g = make_grid(1, 128, 10.0)
    for _ in range(100):
        psi = random_state(g, rng)
        n_pos = l2_norm(psi)
        n_mom = l2_norm(to_momentum(psi))
        assert abs(n_pos - n_mom) < 1e-12 * n_pos


def test_transform_linearity(rng, l2):
    g = make_grid(1, 64, 8.0)
    a, b = random_state(g, rng), random_state(g, rng)
    lin = WaveFunction(g, 2.0 * a.values + 1j * b.values)
    lhs = to_momentum(lin)
    rhs = WaveFunction(g, 2.0 * to_momentum(a).values + 1j * to_momentum(b).values, "momentum")
    assert l2(lhs, rhs) < 1e-13


def test_expectation_bracket_x_on_gaussian():
    g = make_grid(1, 512, 20.0)
    psi = WaveFunction(g, np.pi**-0.25 * np.exp(-g.nodes**2 / 2) + 0j)
    obs = Observable.multiplication(g, lambda x: np.sqrt(1.0 + x**2))
    assert expectation(psi, obs) == pytest.approx(BRACKET_X_GAUSSIAN_MEAN, abs=1e-7)


def test_expectation_odd_observable_even_state():
    g = make_grid(1, 256, 12.0)
    psi = gaussian(g)
    obs = Observable.multiplication(g, lambda x: x)
    assert abs(expectation(psi, obs)) < 1e-10


def test_expectation_momentum_squared():
    g = make_grid(1, 512, 20.0)
    psi = gaussian(g)
    obs = Observable.fourier_multiplier(g, lambda xi: xi**2)
    assert expectation(psi, obs) == pytest.approx(0.5, abs=1e-8)


def test_expectation_nonnegative_multiplier(rng):
    g = make_grid(1, 64, 8.0)
    obs = Observable.multiplication(g, lambda x: x**2)
    for _ in range(20):
        assert expectation(random_state(g, rng), obs) >= 0.0


def test_expectation_sesquilinear_numerator(rng):
    g = make_grid(1, 64, 8.0)
    obs = Observable.multiplication(g, lambda x: 1.0 + 0.3 * np.sin(x))
    psi = random_state(g, rng)
    scaled = WaveFunction(g, (2.0 - 1.0j) * psi.values)
    assert expectation(scaled, obs) == pytest.approx(expectation(psi, obs), rel=1e-12)


def test_observable_rejects_complex_samples():
    g = make_grid(1, 16, 4.0)
    with pytest.raises(ConfigurationError):
        Observable(kind="multiplication", samples=np.ones(16) * 1j)


def test_expectation_raises_on_imaginary_residue():
    g = make_grid(1, 64, 8.0)
    psi = gaussian(g, momentum=1.0)
    obs = Observable.multiplication(g, lambda x: 1.0 + 0.0 * x)
    # plant complex samples behind the constructor's back
    object.__setattr__(obs, "samples", np.full(64, 1.0 + 0.5j))
    with pytest.raises(SelfAdjointnessError):
        expectation(psi, obs)


def test_boundary_guard_triggers():
    g = make_grid(1, 64, 8.0)
    psi = gaussian(g, center=7.5, width=0.3)
    assert boundary_mass_fraction(psi) > 1e-3
    with pytest.raises(DomainEscapeError):
        assert_contained(psi)


def test_boundary_guard_passes_centered():
    g = make_grid(1, 64, 8.0)
    assert_contained(gaussian(g))


def _uncached_edge_mass(psi, edge_fraction):
    g = psi.grid
    if psi.representation == "position":
        nodes, edge = g.nodes, g.half_width
    else:
        nodes, edge = g.freq_nodes, np.max(np.abs(g.freq_nodes))
    band = np.abs(nodes) >= (1.0 - edge_fraction) * edge
    mask = band[:, None] | band[None, :]
    rho = np.abs(psi.values) ** 2
    return float(np.sum(rho[mask]) / np.sum(rho))


def test_boundary_mass_fraction_matches_uncached_computation(rng):
    g = make_grid(2, 64, 8.0)
    psi = random_state(g, rng, bandwidth=0.6, extent=0.6)
    got = []
    for state in (psi, to_momentum(psi)):
        got.append(boundary_mass_fraction(state))
        assert got[-1] == _uncached_edge_mass(state, 0.1)
    assert len(set(got)) == 2 and min(got) > 0.0


def test_edge_masks_are_cached_read_only():
    mask = _edge_mask(2, 64, 8.0, "position")
    assert mask is _edge_mask(2, 64, 8.0, "position")
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = False


def test_equal_grids_built_apart_compare_and_hash_equal(rng):
    a, b = make_grid(1, 64, 5.0), make_grid(1, 64, 5.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_grid(1, 64, 6.0)
    psi = random_state(a, rng)
    phi = WaveFunction(b, psi.values.copy(), psi.representation)
    assert inner(psi, phi) == pytest.approx(inner(psi, psi), rel=1e-15)


def _reference_transform(psi, target):
    """The transform before it ran in place: per axis an FFT, then the axis
    phase and the normalisation as two fresh full-grid products."""
    g = psi.grid
    vals = psi.values
    if target == "momentum":
        for ax in range(g.dims):
            vals = np.fft.fft(vals, axis=ax)
            vals = vals * _axis_phases(g, ax, -1.0) * (g.spacing / np.sqrt(2.0 * np.pi))
    else:
        for ax in range(g.dims):
            vals = np.fft.ifft(vals * _axis_phases(g, ax, +1.0), axis=ax)
            vals = vals * (g.points_per_dim * g.freq_spacing / np.sqrt(2.0 * np.pi))
    return vals


@pytest.mark.parametrize("dims, points", [(1, 64), (1, 4096), (2, 128), (3, 16)])
def test_transform_matches_two_pass_reference(rng, dims, points):
    g = make_grid(dims, points, 9.0)
    psi = random_state(g, rng)
    before = psi.values.copy()
    hat = to_momentum(psi)
    ref = _reference_transform(psi, "momentum")
    assert np.max(np.abs(hat.values - ref)) <= 1e-14 * np.max(np.abs(ref))
    back = to_position(hat)
    ref = _reference_transform(hat, "position")
    assert np.max(np.abs(back.values - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the in-place passes work on fresh arrays only
    assert np.array_equal(psi.values, before)
    assert not np.shares_memory(back.values, hat.values)
    assert not hat.values.flags.writeable and not back.values.flags.writeable


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from([(1, 8), (1, 64), (1, 256), (2, 8), (2, 16)]),
       half_width=st.floats(0.5, 50.0), seed=st.integers(0, 2**32 - 1),
       start=st.sampled_from(["position", "momentum"]))
def test_transform_is_parseval_on_any_samples(shape, half_width, seed, start):
    """Norms and inner products survive F and F^-1 on arbitrary samples (at
    most 256 points), and F^-1 F is the identity to roundoff."""
    g = make_grid(*shape, half_width)
    draw = np.random.default_rng(seed).standard_normal((4,) + g.shape)
    a = WaveFunction(g, draw[0] + 1j * draw[1], start)
    b = WaveFunction(g, draw[2] + 1j * draw[3], start)
    other = "momentum" if start == "position" else "position"
    fa, fb = transform(a, other), transform(b, other)
    assert l2_norm(fa) == pytest.approx(l2_norm(a), rel=1e-13)
    assert abs(inner(fa, fb) - inner(a, b)) <= 1e-13 * l2_norm(a) * l2_norm(b)
    back = transform(fa, start)
    assert np.max(np.abs(back.values - a.values)) <= 1e-13 * np.max(np.abs(a.values))
