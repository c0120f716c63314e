import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repscat import (
    ConfigurationError,
    NumericalStateError,
    WaveFunction,
    boundary_mass_fraction,
    expectation,
    gaussian,
    l2_distance,
    l2_norm,
    make_grid,
    random_state,
    to_momentum,
    to_position,
)
from repscat.grids import (
    EDGE_MASS_TOL,
    MOMENTUM,
    POSITION,
    _axis_phases,
    _band_slabs,
    _guard_edge,
    _sum_sq,
    assert_contained,
    inner,
    transform,
)
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
    # a spacing of 0, and squares past the float range: dims (pi/dx)^2 on the
    # dual lattice, dims L^2 on the box, which 1e154 passes in 1-D only
    for dims, half_width in [(1, 5e-324), (1, 1e-310), (1, 1e300), (2, 1e154)]:
        with pytest.raises(ConfigurationError, match="half_width"):
            make_grid(dims, 16, half_width)
    make_grid(1, 16, 1e154)


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


@pytest.mark.parametrize("dims, points", [(1, 512), (1, 2**15), (2, 256), (3, 64)])
def test_l2_distance_matches_the_full_grid_difference(dims, points, rng, l2):
    # blocks of rows: one in 1-D up to LINE_BLOCK points, 2 in the long 1-D
    # case, 4 in 2-D, 16 in 3-D
    g = make_grid(dims, points, 8.0)
    a = random_state(g, rng)
    b = random_state(g, rng)
    if dims == 1 and points <= 2**14:
        # one block: the same sum as the full-grid formula, bit for bit
        assert l2_distance(a, b) == l2(a, b)
    else:
        assert l2_distance(a, b) == pytest.approx(l2(a, b), rel=1e-13)
    assert l2_distance(a, a) == 0.0


@pytest.mark.parametrize("other", [
    lambda g: gaussian(make_grid(2, 64, 12.0)),             # another dimension
    lambda g: gaussian(make_grid(1, 64, 20.0)),             # another box
    lambda g: transform(gaussian(g), MOMENTUM),             # another representation
], ids=["dims", "box", "representation"])
@pytest.mark.parametrize("pair_fn", [l2_distance, inner])
def test_pair_functions_refuse_states_in_different_spaces(other, pair_fn):
    g = make_grid(1, 64, 12.0)
    with pytest.raises(ConfigurationError):
        pair_fn(gaussian(g), other(g))


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
    assert expectation(psi, np.sqrt(1.0 + g.nodes**2)) == pytest.approx(
        BRACKET_X_GAUSSIAN_MEAN, abs=1e-7)


def test_expectation_odd_observable_even_state():
    g = make_grid(1, 256, 12.0)
    psi = gaussian(g)
    assert abs(expectation(psi, g.nodes)) < 1e-10


def test_expectation_momentum_squared():
    g = make_grid(1, 512, 20.0)
    psi = gaussian(g)
    assert expectation(to_momentum(psi), g.freq_nodes**2) == pytest.approx(0.5, abs=1e-8)


def test_expectation_nonnegative_multiplier(rng):
    g = make_grid(1, 64, 8.0)
    for _ in range(20):
        assert expectation(random_state(g, rng), g.nodes**2) >= 0.0


def test_expectation_sesquilinear_numerator(rng):
    g = make_grid(1, 64, 8.0)
    obs = 1.0 + 0.3 * np.sin(g.nodes)
    psi = random_state(g, rng)
    scaled = WaveFunction(g, (2.0 - 1.0j) * psi.values)
    assert expectation(scaled, obs) == pytest.approx(expectation(psi, obs), rel=1e-12)


def test_expectation_rejects_complex_samples():
    g = make_grid(1, 16, 4.0)
    psi = gaussian(g)
    for samples in (np.ones(16) * 1j, np.full(16, 1.0 + 0.0j), [1j] * 16):
        with pytest.raises(ConfigurationError, match="real"):
            expectation(psi, samples)


def test_expectation_rejects_samples_off_the_grid():
    psi = gaussian(make_grid(2, 16, 4.0))
    for samples in (np.ones(8), np.ones((16, 8)), np.ones((2, 16, 16))):
        with pytest.raises(ConfigurationError, match="grid shape"):
            expectation(psi, samples)
    # per-axis samples broadcast over the full lattice
    g = psi.grid
    assert expectation(psi, g.axis_nodes(1)) == pytest.approx(
        expectation(psi, g.meshgrid()[1]), rel=1e-15, abs=1e-15)


def test_expectation_rejects_zero_and_nonfinite_states():
    g = make_grid(1, 16, 4.0)
    for vals in (np.zeros(16), np.full(16, 1e-200), np.r_[np.nan, np.ones(15)],
                 np.r_[np.inf, np.ones(15)]):
        with pytest.raises(NumericalStateError):
            expectation(WaveFunction(g, vals), g.nodes)


@pytest.mark.parametrize("sample, fault", [(0.0, "zero"), (np.inf, "not finite"),
                                           (np.nan, "not finite")])
def test_edge_guard_refuses_a_state_it_cannot_measure(sample, fault):
    # a zero state, and one Inf or NaN sample at the box centre, off the
    # edge band: the guard read an edge mass of 0.0 or nan and let each pass
    g = make_grid(1, 64, 8.0)
    vals = np.zeros(64, dtype=complex) if sample == 0.0 else gaussian(g).values.copy()
    vals[32] = sample
    psi = WaveFunction(g, vals)
    stack = np.stack([gaussian(g).values, vals])
    for check in (lambda: _guard_edge(vals, g, POSITION, EDGE_MASS_TOL, ""),
                  lambda: _guard_edge(stack, g, POSITION, EDGE_MASS_TOL, ""),
                  lambda: assert_contained(psi), lambda: boundary_mass_fraction(psi)):
        with pytest.raises(NumericalStateError, match=fault):
            check()


def test_boundary_guard_triggers():
    g = make_grid(1, 64, 8.0)
    psi = gaussian(g, center=7.5, width=0.3)
    assert boundary_mass_fraction(psi) > 1e-3
    with pytest.raises(DomainEscapeError):
        assert_contained(psi)


def test_boundary_guard_passes_centered():
    g = make_grid(1, 64, 8.0)
    assert_contained(gaussian(g))


@pytest.mark.parametrize("representation", [POSITION, MOMENTUM])
def test_guard_edge_on_a_stack_returns_the_largest_edge_mass(rng, representation):
    # each state of a stack along leading axes is guarded on its own, and the
    # largest of their edge masses comes back bit for bit
    g = make_grid(2, 32, 8.0)
    states = [random_state(g, rng, bandwidth=0.6, extent=0.6) for _ in range(4)]
    states = [state if representation == POSITION else to_momentum(state) for state in states]
    masses = [boundary_mass_fraction(state) for state in states]
    assert len(set(masses)) == 4 and masses.index(max(masses)) > 0
    stack = np.stack([state.values for state in states])
    assert _guard_edge(stack, g, representation, 1.0, "") == max(masses)
    assert _guard_edge(stack.reshape((2, 2) + g.shape), g, representation, 1.0, "") == max(masses)
    assert _guard_edge(stack[1], g, representation, 1.0, "") == masses[1]


def test_guard_edge_on_a_stack_raises_when_any_state_escapes():
    g = make_grid(1, 64, 8.0)
    inside, escaped = gaussian(g).values, gaussian(g, center=7.5, width=0.3).values
    assert _guard_edge(np.stack([inside, inside]), g, POSITION, EDGE_MASS_TOL, "") < EDGE_MASS_TOL
    for stack in ([escaped, inside, inside], [inside, escaped, inside], [inside, inside, escaped]):
        with pytest.raises(DomainEscapeError, match=r"\(stacked chains\); enlarge the box"):
            _guard_edge(np.stack(stack), g, POSITION, EDGE_MASS_TOL, "stacked chains")


def _band_mask(grid, representation):
    if representation == "position":
        nodes, edge = grid.nodes, grid.half_width
    else:
        nodes, edge = grid.freq_nodes, np.max(np.abs(grid.freq_nodes))
    band = np.abs(nodes) >= 0.9 * edge
    mask = np.zeros(grid.shape, dtype=bool)
    for k in range(grid.dims):
        mask |= band.reshape([-1 if j == k else 1 for j in range(grid.dims)])
    return mask


def _exact_edge_mass(values, mask):
    """Edge mass with every sum exactly rounded: math.fsum of re^2 + im^2."""
    def mass(v):
        return math.fsum(np.concatenate([v.real**2, v.imag**2]).tolist())
    return mass(values[mask]) / mass(values.ravel())


def _mass_from_boxes(values, boxes):
    flat = np.ascontiguousarray(values).view(float)
    return sum(_sum_sq(flat[box]) for box in boxes) / _sum_sq(flat)


GUARD_GRIDS = [(1, 64, 8.0), (2, 64, 8.0), (3, 16, 8.0)]


def test_boundary_mass_fraction_matches_uncached_computation(rng):
    # the slab sums run in another order than an exactly rounded sum, so the
    # guard agrees with it to rounding, in every dimension and representation
    for dims, points, half_width in GUARD_GRIDS:
        g = make_grid(dims, points, half_width)
        psi = random_state(g, rng, bandwidth=0.6, extent=0.6)
        got = []
        for state in (psi, to_momentum(psi)):
            exact = _exact_edge_mass(state.values, _band_mask(g, state.representation))
            got.append(boundary_mass_fraction(state))
            assert got[-1] == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert len(set(got)) == 2 and min(got) > 0.0


@pytest.mark.parametrize("dims, points, half_width", GUARD_GRIDS[1:])
def test_a_dropped_slab_or_double_counted_corner_misses_the_exact_sum(rng, dims, points,
                                                                       half_width):
    # the 1e-13 comparison above sees every box: dropping any one of them, or
    # summing each axis band over the whole grid (corners counted per axis),
    # moves the edge mass of a state with mass on every node far beyond it
    g = make_grid(dims, points, half_width)
    psi = WaveFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    for state in (psi, to_momentum(psi)):
        exact = _exact_edge_mass(state.values, _band_mask(g, state.representation))
        boxes = _band_slabs(dims, points, half_width, state.representation)
        assert _mass_from_boxes(state.values, boxes) == pytest.approx(exact, rel=1e-13)
        for j in range(len(boxes)):
            dropped = boxes[:j] + boxes[j + 1:]
            assert abs(_mass_from_boxes(state.values, dropped) / exact - 1.0) > 1e-10
        # each axis band summed over the whole grid counts a corner per axis
        band = _band_mask(make_grid(1, points, half_width), state.representation)
        edges = np.flatnonzero(np.diff(np.r_[False, band, False]))
        overlapping = []
        for k in range(dims):
            for a, b in zip(edges[::2], edges[1::2]):
                box = [slice(None)] * dims
                box[k] = slice(2 * a, 2 * b) if k == dims - 1 else slice(a, b)
                overlapping.append(tuple(box))
        assert abs(_mass_from_boxes(state.values, overlapping) / exact - 1.0) > 1e-10


def test_band_slabs_tile_the_band_once_and_are_cached():
    for dims, points, half_width in GUARD_GRIDS:
        g = make_grid(dims, points, half_width)
        for rep in ("position", "momentum"):
            boxes = _band_slabs(dims, points, half_width, rep)
            assert boxes is _band_slabs(dims, points, half_width, rep)
            assert isinstance(boxes, tuple)
            count = np.zeros(g.shape[:-1] + (2 * points,), dtype=int)
            for box in boxes:
                count[box] += 1
            pairs = count.reshape(g.shape + (2,))
            assert np.array_equal(pairs[..., 0], pairs[..., 1])
            assert np.array_equal(pairs[..., 0], _band_mask(g, rep).astype(int))


def test_edge_mass_holds_no_grid_sized_temporary(rng):
    import tracemalloc

    g = make_grid(2, 512, 20.0)
    psi = random_state(g, rng, bandwidth=0.6, extent=0.6)
    for state in (psi, to_momentum(psi)):
        boundary_mass_fraction(state)  # the band slabs are cached before tracing
        tracemalloc.start()
        try:
            boundary_mass_fraction(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * state.values.nbytes


def test_l2_norm_holds_no_grid_sized_temporary():
    # it summed a |psi|^2 temporary of half the state's size (2 MB here)
    import tracemalloc

    psi = gaussian(make_grid(2, 512, 20.0))
    tracemalloc.start()
    try:
        l2_norm(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * psi.values.nbytes


def test_l2_norm_and_transform_refuse_squares_past_the_float_range():
    # min and max of the samples are finite, but sum |psi|^2 is not: the
    # norm read inf and the transform passed the state on
    g = make_grid(1, 16, 4.0)
    psi = WaveFunction(g, np.full(16, 1e200))
    for check in (lambda: l2_norm(psi), lambda: transform(psi, MOMENTUM)):
        with pytest.raises(NumericalStateError, match="not finite"):
            check()


def test_fortran_ordered_samples_are_stored_in_c_order(rng):
    # the finiteness check and the streamed passes read a float view, which
    # needs the last axis contiguous
    g = make_grid(2, 64, 8.0)
    psi = random_state(g, rng, bandwidth=0.6, extent=0.6)
    f = WaveFunction(g, np.asfortranarray(psi.values))
    assert f.values.flags.c_contiguous
    assert np.array_equal(to_momentum(f).values, to_momentum(psi).values)
    assert boundary_mass_fraction(f) == boundary_mass_fraction(psi)


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


@pytest.mark.parametrize("dims, points", [(1, 64), (2, 32), (3, 16)])
def test_cached_axis_phases_give_the_formula_bits(rng, dims, points):
    # the in-place transforms with each normalised axis phase built afresh
    g = make_grid(dims, points, 9.0)
    psi = random_state(g, rng)
    norm = g.spacing / np.sqrt(2.0 * np.pi)
    hat = np.fft.fft(psi.values, axis=0)
    for ax in range(g.dims):
        if ax:
            np.fft.fft(hat, axis=ax, out=hat)
        hat *= _axis_phases(g, ax, -1.0) * norm
    norm = g.points_per_dim * g.freq_spacing / np.sqrt(2.0 * np.pi)
    back = hat * (_axis_phases(g, 0, +1.0) * norm)
    for ax in range(g.dims):
        if ax:
            back *= _axis_phases(g, ax, +1.0) * norm
        np.fft.ifft(back, axis=ax, out=back)
    for _ in range(2):  # the phases built, then the phases cached
        assert np.array_equal(to_momentum(psi).values, hat)
        assert np.array_equal(to_position(WaveFunction(g, hat, "momentum")).values, back)


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


def _random_state_formula(grid, rng, bandwidth, extent):
    """random_state written out: five packets of width 1, each a new product
    array, summed into a new array and divided into another."""
    width = 1.0
    ximax = float(np.max(np.abs(grid.freq_nodes)))
    vals = np.zeros(grid.shape, dtype=complex)
    for _ in range(5):
        c = (rng.standard_normal(2) @ [1, 1j]) / np.sqrt(2)
        centers = rng.uniform(-extent * grid.half_width, extent * grid.half_width,
                              size=grid.dims)
        momenta = rng.uniform(-bandwidth * ximax, bandwidth * ximax, size=grid.dims)
        packet = np.ones(grid.shape, dtype=complex)
        for ax in range(grid.dims):
            x = grid.axis_nodes(ax)
            packet = packet * np.exp(
                -((x - centers[ax]) ** 2) / (2.0 * width**2) + 1j * momenta[ax] * x)
        vals = vals + c * packet
    return vals / np.sqrt(np.sum(np.abs(vals) ** 2) * grid.spacing**grid.dims)


@pytest.mark.parametrize("dims, points", [(1, 256), (2, 64)])
def test_random_state_is_bit_identical_to_its_formula(dims, points):
    g = make_grid(dims, points, 8.0)
    for bandwidth, extent in ((0.1, 0.2), (0.6, 0.6)):
        psi = random_state(g, np.random.default_rng(3), bandwidth=bandwidth, extent=extent)
        expected = _random_state_formula(g, np.random.default_rng(3), bandwidth, extent)
        assert np.array_equal(psi.values, expected)


def test_gaussian_whose_packet_underflows_raises_before_any_nan():
    # center 100 on a box of half width 5: the packet underflows to 0 at
    # every node, so its norm is 0, and no division may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for g, center in ((make_grid(1, 64, 5.0), 100.0), (make_grid(2, 16, 5.0), (0.0, 100.0))):
            with pytest.raises(NumericalStateError, match="zero norm"):
                gaussian(g, center=center)


def test_gaussian_refuses_a_center_or_momentum_of_another_length():
    g = make_grid(2, 16, 5.0)
    for key, value in (("center", [1.0, 2.0, 3.0]), ("momentum", [1.0, 2.0, 3.0]),
                       ("center", [1.0])):
        with pytest.raises(ConfigurationError, match=f"{key} must be a number or a list of 2"):
            gaussian(g, **{key: value})
    assert np.array_equal(gaussian(g, center=[0.5, 0.5], momentum=(1.0, 1.0)).values,
                          gaussian(g, center=0.5, momentum=1.0).values)


@pytest.mark.parametrize("width", [0.0, -1.0, 1.0e-200, 1.0e+154, 1.0e+200, np.float64(1e200)])
def test_gaussian_refuses_a_width_whose_2_w_squared_is_not_a_nonzero_finite_float(width):
    with pytest.raises(ConfigurationError, match="width"):
        gaussian(make_grid(1, 64, 8.0), width=width)
