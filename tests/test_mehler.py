import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repscat import (
    ConfigurationError,
    OracleScaleError,
    QuadraticSpec,
    SingularTimeError,
    WaveFunction,
    avron_herbst,
    chirped_spectrum,
    expectation,
    gaussian,
    l2_norm,
    make_grid,
    propagate_factored,
    propagate_kernel,
    random_state,
    singular_times,
    to_momentum,
    trajectory_factors,
)
from repscat.errors import DomainEscapeError
from repscat.grids import LINE_BLOCK, assert_contained
from repscat.mehler import (
    _check_guard_time,
    _branch_amplitude,
    _chirp_factors,
    _czt,
    _semidft_axis,
    chirp_resolution_ok,
    mehler_phase,
)

FREE = QuadraticSpec(dims=1)
HYPER = QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,))
TRIG = QuadraticSpec(dims=1, n_plus=1, omegas=(1.0,))
STARK = QuadraticSpec(dims=1, n_E=1, fields=(1.0,))


def test_trajectory_factors_free():
    f = trajectory_factors(0.5, FREE)
    assert f.g[0] == pytest.approx(1.0)
    assert f.h[0] == pytest.approx(1.0)


def test_trajectory_factors_hyperbolic():
    f = trajectory_factors(0.5, HYPER)
    assert f.g[0] == pytest.approx(np.sinh(1.0), rel=1e-14)
    assert f.h[0] == pytest.approx(np.cosh(1.0), rel=1e-14)


def test_trajectory_factors_trig_singular():
    f = trajectory_factors(np.pi / 2.0, TRIG)
    assert abs(f.g[0]) < 1e-14


def test_sector_identities_random(rng):
    for _ in range(1000):
        w = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(-4.0, 4.0))
        fh = trajectory_factors(t, QuadraticSpec(dims=1, n_minus=1, omegas=(w,)))
        assert abs(fh.h[0] ** 2 - (w * fh.g[0]) ** 2 - 1.0) < 1e-12 * max(1.0, fh.h[0] ** 2)
        ft = trajectory_factors(t, QuadraticSpec(dims=1, n_plus=1, omegas=(w,)))
        assert abs(ft.h[0] ** 2 + (w * ft.g[0]) ** 2 - 1.0) < 1e-12
        ff = trajectory_factors(t, FREE)
        assert ff.h[0] == 1.0 and ff.g[0] == 2.0 * t


def test_singular_times_empty_without_trig():
    assert singular_times(HYPER, 10.0) == []
    assert singular_times(STARK, 10.0) == []


def test_singular_times_single_trig():
    ts = singular_times(TRIG, 4.0)
    assert np.allclose(ts, [np.pi / 2, np.pi])


def test_singular_times_merged():
    spec = QuadraticSpec(dims=2, n_plus=2, omegas=(1.0, 2.0))
    assert np.allclose(singular_times(spec, 2.0), [np.pi / 4, np.pi / 2])
    assert np.allclose(singular_times(spec, 2.5), [np.pi / 4, np.pi / 2, 3 * np.pi / 4])


def test_factored_identity_at_t0(l2):
    g = make_grid(1, 128, 10.0)
    psi = gaussian(g)
    assert l2(propagate_factored(psi, 0.0, HYPER), psi) == 0.0


def test_factored_free_gaussian_analytic():
    g = make_grid(1, 512, 20.0)
    psi = gaussian(g)
    t = 1.0
    out = propagate_factored(psi, t, FREE)
    x = g.nodes
    exact = np.pi**-0.25 / np.sqrt(1 + 2j * t) * np.exp(-(x**2) / (2 * (1 + 2j * t)))
    err = np.sqrt(np.sum(np.abs(out.values - exact) ** 2) * g.spacing)
    assert err < 1e-8


def test_factored_vs_kernel_oracle(l2):
    g = make_grid(1, 128, 12.0)
    psi = gaussian(g, momentum=0.5)
    a = propagate_factored(psi, 0.3, HYPER)
    b = propagate_kernel(psi, 0.3, HYPER)
    assert l2(a, b) <= 1e-6 * l2_norm(psi)


def test_factored_unitarity_random(rng):
    # 50 random states x 20 admissible times (chirp resolved, off singular)
    g = make_grid(1, 512, 14.0)
    for _ in range(50):
        psi = random_state(g, rng, bandwidth=0.05)
        n0 = l2_norm(psi)
        for _ in range(10):
            t = float(rng.uniform(0.15, 0.4))
            out = propagate_factored(psi, t, HYPER)
            assert abs(l2_norm(out) - n0) < 1e-10 * n0
            t = float(rng.uniform(0.55, 0.95))
            out = propagate_factored(psi, t, TRIG)
            assert abs(l2_norm(out) - n0) < 1e-10 * n0


def test_chirp_guard_rejects_unresolved_times(rng):
    g = make_grid(1, 128, 10.0)
    psi = random_state(g, rng)
    from repscat.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="chirp"):
        propagate_factored(psi, 0.02, HYPER)


def test_factored_group_law(l2):
    g = make_grid(1, 512, 14.0)
    psi = gaussian(g, momentum=0.3)
    for s, t in [(0.2, 0.3), (0.2, 0.5), (0.4, 0.4)]:
        one = propagate_factored(propagate_factored(psi, t, HYPER), s, HYPER)
        two = propagate_factored(psi, s + t, HYPER)
        assert l2(one, two) < 1e-8


def test_factored_reverse_roundtrip(l2):
    # box sized so the spread state is contained below the 1e-18 mass level:
    # the roundtrip error is the square root of the truncated mass
    g = make_grid(1, 1024, 20.0)
    psi = gaussian(g, momentum=0.3)
    out = propagate_factored(propagate_factored(psi, 0.7, HYPER), -0.7, HYPER)
    assert l2(out, psi) < 1e-8


def test_trig_eigenstate_phase_through_singularities(l2):
    # independent oracle for the branch convention: confining eigenstates
    # pick up exactly exp(-i (2k+1) w t)
    g = make_grid(1, 256, 12.0)
    x = g.nodes
    phi0 = WaveFunction(g, np.pi**-0.25 * np.exp(-(x**2) / 2) + 0j)
    phi1_vals = np.sqrt(2.0) * x * np.pi**-0.25 * np.exp(-(x**2) / 2)
    phi1 = WaveFunction(g, phi1_vals + 0j)
    for t in (0.3, 2.0, 2.5, 4.0):  # crosses pi/2 and pi
        out0 = propagate_factored(phi0, t, TRIG)
        exact0 = WaveFunction(g, np.exp(-1j * t) * phi0.values)
        assert l2(out0, exact0) < 1e-10
        out1 = propagate_factored(phi1, t, TRIG)
        exact1 = WaveFunction(g, np.exp(-3j * t) * phi1.values)
        assert l2(out1, exact1) < 1e-10


def test_singular_time_guard():
    g = make_grid(1, 128, 10.0)
    psi = gaussian(g)
    with pytest.raises(SingularTimeError):
        propagate_factored(psi, np.pi / 2.0, TRIG)
    with pytest.raises(SingularTimeError):
        propagate_factored(psi, np.pi / 2.0 + 5e-4, TRIG)
    # the guard's edge at m pi/(2w) +- SINGULAR_GUARD: just inside raises,
    # just outside passes with |g(2t)| ~ 2e-3, far above roundoff
    for w in (0.5, 1.0, 3.0):
        spec = QuadraticSpec(dims=1, n_plus=1, omegas=(w,))
        for m in (1, 2):
            for sign in (1.0, -1.0):
                for offset in (-1.0, 1.0):
                    t = sign * (m * np.pi / (2.0 * w) + offset * 0.999e-3)
                    with pytest.raises(SingularTimeError):
                        _check_guard_time(spec, t)
                    t = sign * (m * np.pi / (2.0 * w) + offset * 1.001e-3)
                    _check_guard_time(spec, t)
                    assert abs(trajectory_factors(t, spec).g[0]) > 1e-3


def test_kernel_oracle_domain_limits():
    g = make_grid(1, 128, 10.0)
    psi = gaussian(g)
    with pytest.raises(OracleScaleError):
        propagate_kernel(psi, 0.01, FREE)
    big = make_grid(1, 512, 10.0)
    with pytest.raises(OracleScaleError):
        propagate_kernel(gaussian(big), 0.3, FREE)
    # a grid whose dims differ from the spec's is refused either way round
    with pytest.raises(ConfigurationError, match="dims"):
        propagate_kernel(gaussian(make_grid(2, 64, 10.0)), 0.3, HYPER)
    with pytest.raises(ConfigurationError, match="dims"):
        propagate_kernel(psi, 0.3, QuadraticSpec(dims=2, n_minus=2, omegas=(1.0, 1.0)))


def test_free_phase_closed_form(rng):
    S = mehler_phase(0.7, FREE)
    for _ in range(50):
        x, y = rng.uniform(-5, 5, size=2)
        assert S((x,), (y,)) == pytest.approx((x - y) ** 2 / (4 * 0.7), rel=1e-12)


def test_phase_symmetry_in_x_y(rng):
    spec = QuadraticSpec(dims=2, n_minus=1, n_E=1, omegas=(1.3,), fields=(0.7,))
    S = mehler_phase(0.4, spec)
    for _ in range(25):
        x = tuple(rng.uniform(-3, 3, size=2))
        y = tuple(rng.uniform(-3, 3, size=2))
        assert S(x, y) == pytest.approx(S(y, x), rel=1e-12)


def test_avron_herbst_identity_at_t0(l2):
    g = make_grid(1, 256, 16.0)
    psi = gaussian(g)
    assert l2(avron_herbst(psi, 0.0, 1.0), psi) == 0.0


def test_avron_herbst_displacement():
    g = make_grid(1, 512, 16.0)
    psi = gaussian(g)
    out = avron_herbst(psi, 1.0, 1.0)
    xavg = expectation(out, g.nodes)
    assert abs(xavg - 0.0) == pytest.approx(1.0, abs=1e-6)  # displaced by t^2 E


def test_avron_herbst_vs_factored(l2):
    g = make_grid(1, 512, 16.0)
    psi = gaussian(g)
    for t in (0.5, 1.0):
        a = avron_herbst(psi, t, 1.0)
        b = propagate_factored(psi, t, STARK)
        assert l2(a, b) <= 1e-8


def test_avron_herbst_escape_guard():
    g = make_grid(1, 256, 10.0)
    psi = gaussian(g)
    with pytest.raises(DomainEscapeError):
        avron_herbst(psi, 4.0, 1.0)  # shift 16 > box


def test_edge_guard_advice_follows_the_lattice():
    """Mass at the edge of the position lattice asks for a larger box; mass
    at the edge of the dual lattice, as in a chirped spectrum, for a finer
    grid."""
    g = make_grid(1, 32, 8.0)
    with pytest.raises(DomainEscapeError, match=r"enlarge the box$"):
        assert_contained(gaussian(g, center=7.5, width=0.3))
    with pytest.raises(DomainEscapeError,
                       match=r"\(chirped spectrum at t=1.0\); refine the grid$"):
        chirped_spectrum(gaussian(g, momentum=6.0), 1.0, HYPER)


def test_chirped_spectrum_refuses_t_zero():
    # g_k(0) = 0: the chirp divides by zero, and the all-NaN spectrum passed
    # the edge guard (NaN >= tol is False)
    psi = gaussian(make_grid(1, 64, 8.0))
    for spec in (HYPER, QuadraticSpec(dims=1, n_E=1, fields=(1.0,)),
                 QuadraticSpec(dims=1, n_plus=1, omegas=(1.0,))):
        with pytest.raises(ConfigurationError, match=r"singular at t = 0.*M_t D_t F M_t"):
            chirped_spectrum(psi, 0.0, spec)


def test_observable_without_grid_matches_direct():
    # factorization-identity expectations vs direct factored propagation
    g = make_grid(1, 1024, 20.0)
    psi = gaussian(g, momentum=0.4)
    spec = HYPER
    t = 0.8
    direct = propagate_factored(psi, t, spec)
    want = expectation(direct, np.exp(-np.abs(g.nodes) / 4.0))
    hat, gfac = chirped_spectrum(psi, t, spec)
    rho = hat.density() * hat.measure
    rho = rho / rho.sum()
    got = float(np.sum(np.exp(-np.abs(gfac[0] * g.freq_nodes) / 4.0) * rho))
    # routes agree to the dual-lattice quadrature resolution O((g dnu)^2)
    assert got == pytest.approx(want, abs=2e-3)


def test_factored_2d_mixed_sectors(l2):
    spec = QuadraticSpec(dims=2, n_minus=1, omegas=(1.0,))
    g = make_grid(2, 128, 10.0)
    psi = gaussian(g)
    out = propagate_factored(psi, 0.3, spec)
    assert abs(l2_norm(out) - 1.0) < 1e-10
    oracle = propagate_kernel(psi, 0.3, spec)
    assert l2(out, oracle) < 1e-6


@pytest.mark.parametrize("n", [8, 32, 64, 1024])
def test_czt_matches_scipy(rng, n):
    from scipy.signal import czt

    w, a = np.exp(-1j * 0.37 / n), np.exp(0.2j)
    for shape, axis in [((n,), 0), ((n, 6), 0), ((6, n), 1)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = czt(x, m=n, w=w, a=a, axis=axis)
        assert np.max(np.abs(_czt(x.copy(), w, a, axis) - ref)) <= 1e-12 * np.max(np.abs(ref))


def _reference_czt(x, w, a, axis):
    """The chirp-z before it ran on one buffer: a padded FFT, a fresh product
    with the kernel and a fresh inverse FFT.  The product is spelled
    np.multiply(kernel, ...) because for large temporaries numpy evaluates
    `kernel * fft(...)` in place with the operands swapped, and a complex
    product is not bitwise commutative."""
    n = x.shape[axis]
    k = np.arange(n)
    wk2 = w ** (k**2 / 2.0)
    nfft = 1 << (2 * n - 2).bit_length()
    kernel = np.fft.fft(1.0 / np.concatenate([wk2[n - 1:0:-1], wk2]), nfft)
    x = np.multiply(np.moveaxis(x, axis, -1), a ** -k * wk2, order="C")
    y = np.fft.ifft(np.multiply(kernel, np.fft.fft(x, nfft)))
    return np.moveaxis(y[..., n - 1:2 * n - 1] * wk2, -1, axis)


# (100, 1000) and (1000, 100) take 32 lines per buffer block and leave 4
@pytest.mark.parametrize("shape, axis", [
    ((64,), 0), ((100,), 0), ((1024,), 0), ((512, 512), 0), ((512, 512), 1),
    ((33, 17), 1), ((16, 16, 16), 1), ((16, 16, 16), 0), ((16, 16, 16), 2),
    ((3, 40, 5), 1), ((100, 1000), 1), ((1000, 100), 0)])
def test_czt_matches_reference(rng, shape, axis):
    n = shape[axis]
    w, a = np.exp(-1j * 0.37 / n), np.exp(0.2j)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(_czt(x.copy(), w, a, axis), _reference_czt(x, w, a, axis))


def test_czt_transforms_in_place(rng):
    x = rng.standard_normal((40, 24)) + 1j * rng.standard_normal((40, 24))
    assert _czt(x, np.exp(-0.01j), np.exp(0.2j), 0) is x
    # a strided view cannot be written back line by line through a reshape
    with pytest.raises(ValueError, match="C-contiguous"):
        _czt(x.T, np.exp(-0.01j), np.exp(0.2j), 0)


def test_czt_line_longer_than_a_block(rng):
    n = LINE_BLOCK
    w, a = np.exp(-1j * 0.37 / n), np.exp(0.2j)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.array_equal(_czt(x.copy(), w, a, 0), _reference_czt(x, w, a, 0))


def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_propagate_factored_memory_budget():
    g = make_grid(2, 512, 20.0)
    psi = gaussian(g, momentum=0.3)
    spec = QuadraticSpec(dims=2, n_minus=1, omegas=(1.0,))
    peak = _traced_peak(lambda: propagate_factored(psi, 0.5, spec))
    # the output plus 256 kB blocks of rows or lines and numpy's ufunc buffers;
    # the chirp M_t or the spectrum |F psi|^2 would add one more state each
    assert peak <= 1.4 * psi.values.nbytes


def test_chirp_resolution_ok_memory_budget():
    g = make_grid(2, 512, 20.0)
    psi = gaussian(g, momentum=0.3)
    spec = QuadraticSpec(dims=2, n_minus=1, omegas=(1.0,))
    peak = _traced_peak(lambda: chirp_resolution_ok(psi, 0.5, spec))
    # support and bandwidth marginals stream through blocks of lines
    assert peak <= 0.1 * psi.values.nbytes


def _full_grid_chirp(grid, spec, fac, t):
    """M_t on the full grid as the product of the per-axis factors, taken
    axis by axis: the chirp before it was applied in blocks of rows."""
    chirp, *rest = _chirp_factors(grid, spec, fac)
    for factor in rest:
        chirp = chirp * factor
    return chirp


def _full_chirp_factored(psi0, t, spec):
    """propagate_factored with the chirp built on the full grid, as it was
    before the chirp was applied in blocks of rows."""
    grid = psi0.grid
    fac = trajectory_factors(t, spec)
    vals = _full_grid_chirp(grid, spec, fac, t) * psi0.values
    amp = 1.0 + 0.0j
    for k in range(grid.dims):
        vals = _semidft_axis(vals, grid, axis=k, scale=fac.g[k])
        amp *= _branch_amplitude(spec.sectors[k], spec.axis_omegas[k], t, fac.g[k])
    chirp = _full_grid_chirp(grid, spec, fac, t)
    np.multiply(amp, chirp, out=chirp)
    np.multiply(chirp, vals, out=vals)
    e2 = sum(e**2 for e in spec.fields)
    if e2:
        np.multiply(vals, np.exp(-1j * t**3 * e2 / 12.0), out=vals)
    return vals


@pytest.mark.parametrize("spec, points, half_width, t", [
    (HYPER, 2**15, 12.0, 0.4),
    (QuadraticSpec(dims=2, n_minus=1, omegas=(1.0,)), 256, 12.0, 0.5),
    (QuadraticSpec(dims=3, n_minus=2, omegas=(1.0, 0.5)), 64, 8.0, -0.5),
    (QuadraticSpec(dims=2, n_minus=1, n_E=1, omegas=(1.0,), fields=(0.7,)), 256, 12.0, 0.6),
], ids=["1d-long", "2d", "3d", "stark"])
def test_blocked_chirp_is_bit_identical_to_the_full_chirp(spec, points, half_width, t):
    # blocks of rows: 2 in the long 1-D case, 4 in 2-D, 16 in 3-D
    grid = make_grid(spec.dims, points, half_width)
    psi = gaussian(grid, center=0.5, momentum=0.3)
    out = propagate_factored(psi, t, spec)
    assert np.array_equal(out.values, _full_chirp_factored(psi, t, spec))
    fac = trajectory_factors(t, spec)
    hat, _ = chirped_spectrum(psi, t, spec)
    ref = to_momentum(WaveFunction(grid, _full_grid_chirp(grid, spec, fac, t) * psi.values))
    assert np.array_equal(hat.values, ref.values)


def test_chirp_resolution_ok_pinned():
    # pinned bit for bit: support radii and bandwidths come from grids.tail_radii
    psi = gaussian(make_grid(1, 2048, 12.0), center=1.0, momentum=2.0)
    assert chirp_resolution_ok(psi, 1.0, HYPER) == (True, -1, 0.0, 268.082573106329)
    spec = QuadraticSpec(dims=2, n_minus=2, omegas=(0.25, 2.0))
    psi = gaussian(make_grid(2, 128, 12.0), center=(1.0, -2.0), momentum=(0.5, 1.5))
    assert chirp_resolution_ok(psi, 1.0, spec) == (
        False, 1, 20.42929690680208, 16.755160819145562)


def _reference_chirp(grid, spec, fac, t):
    """The chirp before it was built per axis: the summed phase on the full
    grid, then one complex exponential over all N^d points."""
    phase = np.zeros(grid.shape)
    for k in range(grid.dims):
        xk = grid.axis_nodes(k)
        phase = phase + xk**2 * fac.h[k] / (2.0 * fac.g[k])
        if spec.sectors[k] == "stark":
            phase = phase - (t / 2.0) * spec.axis_fields[k] * xk
    return np.exp(1j * phase)


CHIRP_TIMES = [0.05, 0.3, 1.0, 2.5, 5.0]


@pytest.mark.parametrize("spec", [FREE, HYPER, TRIG, STARK], ids=["free", "hyper", "trig", "stark"])
@pytest.mark.parametrize("t", CHIRP_TIMES + [-0.7])
def test_chirp_1d_bit_identical_to_full_grid_formula(spec, t):
    grid = make_grid(1, 1024, 12.0)
    fac = trajectory_factors(t, spec)
    (chirp,) = _chirp_factors(grid, spec, fac)
    assert np.array_equal(chirp, _reference_chirp(grid, spec, fac, t))


@pytest.mark.parametrize("spec, points", [
    (QuadraticSpec(dims=2, n_minus=2, omegas=(1.0, 2.0)), 512),
    (QuadraticSpec(dims=2, n_minus=1, omegas=(0.5,)), 256),
    (QuadraticSpec(dims=2, n_E=2, fields=(1.0, -0.5)), 256),
    (QuadraticSpec(dims=3, n_minus=1, n_E=1, omegas=(1.0,), fields=(0.7,)), 64),
], ids=["hyper-hyper", "hyper-free", "stark-stark", "hyper-stark-free"])
@pytest.mark.parametrize("t", CHIRP_TIMES)
def test_chirp_nd_matches_full_grid_formula(spec, points, t):
    # the per-axis product differs from exp(i sum phi_k) only by the rounding
    # of the summed phase, a few ulps of sum_k max|phi_k|
    grid = make_grid(spec.dims, points, 12.0)
    fac = trajectory_factors(t, spec)
    got = _full_grid_chirp(grid, spec, fac, t)
    ref = _reference_chirp(grid, spec, fac, t)
    assert got.shape == grid.shape
    phi_max = 0.0
    for k in range(grid.dims):
        x = grid.nodes
        phi = x**2 * fac.h[k] / (2.0 * fac.g[k])
        if spec.sectors[k] == "stark":
            phi = phi - (t / 2.0) * spec.axis_fields[k] * x
        phi_max += float(np.max(np.abs(phi)))
    assert np.max(np.abs(got - ref)) <= 8.0 * np.finfo(float).eps * phi_max


@st.composite
def _spec_and_time(draw):
    """A 1-D quadratic spec with a time away from its singular times: free
    and Stark t in [0.3, 0.5], hyperbolic w in [0.25, 0.75] with t in [0.3,
    0.5], trigonometric w in [0.8, 1.25] with t within the middle 40% of one
    of the first three intervals between singular times m pi/(2 w)."""
    sector = draw(st.sampled_from(["free", "stark", "hyperbolic", "trigonometric"]))
    t = draw(st.floats(0.3, 0.5))
    if sector == "free":
        return FREE, t
    if sector == "stark":
        field = draw(st.floats(0.2, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
        return QuadraticSpec(dims=1, n_E=1, fields=(field,)), t
    if sector == "hyperbolic":
        return QuadraticSpec(dims=1, n_minus=1, omegas=(draw(st.floats(0.25, 0.75)),)), t
    w = draw(st.floats(0.8, 1.25))
    m = draw(st.integers(0, 2))
    t = (m + draw(st.floats(0.3, 0.7))) * np.pi / (2.0 * w)
    return QuadraticSpec(dims=1, n_plus=1, omegas=(w,)), t


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_spec_and_time(), center=st.floats(-1.0, 1.0), momentum=st.floats(-1.0, 1.0),
       width=st.floats(0.8, 1.2))
def test_factored_is_unitary_and_reversible(case, center, momentum, width):
    """On a 256-point lattice whose box and band hold the state in and out,
    exp(-itH0) keeps the norm and exp(itH0) undoes it, across every sector
    and past the trigonometric singular times."""
    spec, t = case
    g = make_grid(1, 256, 12.0)
    psi = gaussian(g, center=center, width=width, momentum=momentum)
    out = propagate_factored(psi, t, spec)
    assert l2_norm(out) == pytest.approx(1.0, rel=1e-11)
    back = propagate_factored(out, -t, spec)
    assert l2_norm(WaveFunction(g, back.values - psi.values)) <= 1e-8


@pytest.mark.parametrize("spec, t", [(HYPER, 400.0), (HYPER, -356.0),
                                     (QuadraticSpec(dims=2, n_minus=1, omegas=(4.0,)), 90.0),
                                     (FREE, np.inf)])
def test_trajectory_factors_refuse_a_time_past_the_float_range(spec, t):
    with pytest.raises(ConfigurationError, match="not a finite float"):
        trajectory_factors(t, spec)


def test_trajectory_factors_accept_the_last_finite_times():
    fac = trajectory_factors(354.0, HYPER)
    assert np.all(np.isfinite(fac.g)) and np.all(np.isfinite(fac.h))
