import numpy as np
import pytest

from repscat import (
    ConfigurationError,
    flow,
    mourre_shell_scan,
    poisson_bracket,
    symbol_accel_alpha,
    zero_energy_start,
)
from repscat.phasespace import (
    a2_bracket_closed_form,
    a2_symbol,
    a_alpha_symbol,
    cutoff,
    hamiltonian_symbol,
    heuristic_a_symbol,
    heuristic_bracket_identity,
    plain_hamiltonian_symbol,
    scan_to_csv,
    v_alpha_symbol,
)
from repscat.potentials import bracket_x, sigma_alpha


def test_a2_zero_at_x0():
    for xi in (-2.0, 0.0, 5.0):
        assert a2_symbol()(0.0, xi)[0] == 0.0


def test_a2_substitution_value():
    assert a2_symbol()(1.0, 1.0)[0] == pytest.approx(np.log(np.sqrt(5.0)), rel=1e-14)


def test_a2_antisymmetry(rng):
    x, xi = rng.uniform(-4, 4, size=(2, 100))
    assert np.allclose(a2_symbol()(-x, xi)[0], -a2_symbol()(x, xi)[0], atol=1e-14)


def test_a_alpha_on_shell_plateau():
    # on the shell the cutoff argument vanishes and psi = 1
    x = 3.0
    alpha = 1.2
    xi = bracket_x(x) ** (alpha / 2.0)
    expected = x * xi * bracket_x(x) ** (-alpha)
    assert a_alpha_symbol(alpha)(x, xi)[0] == pytest.approx(expected, rel=1e-14)


def test_a_alpha_vanishes_far_off_shell():
    x = 2.0
    alpha = 1.0
    xi = np.sqrt(3.2 * bracket_x(x))  # xi^2 > 3 <x>^alpha => argument > 1/2
    assert a_alpha_symbol(alpha)(x, xi)[0] == 0.0


def test_a_alpha_example_value():
    x, alpha = 4.0, 1.0
    xi = bracket_x(4.0) ** 0.5
    assert a_alpha_symbol(alpha)(x, xi)[0] == pytest.approx(4.0 / bracket_x(4.0) ** 0.5,
                                                            rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 2.0, 2.5])
def test_a_alpha_refuses_alpha_outside_its_range(alpha):
    # alpha = 2 has its own conjugate symbol a_2
    with pytest.raises(ConfigurationError):
        a_alpha_symbol(alpha)


def test_cutoff_shape():
    assert cutoff(0.0)[0] == 1.0
    u = np.linspace(-1.0, 1.0, 801)
    vals, derivs = cutoff(u)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(vals[np.abs(u) <= 0.25] == 1.0)
    assert np.all(vals[np.abs(u) >= 0.5] == 0.0)
    assert np.all(derivs[(np.abs(u) <= 0.25) | (np.abs(u) >= 0.5)] == 0.0)


def test_cutoff_derivative_consistency():
    # sixth-order central difference; a fourth-order one at this h carries
    # its own truncation error of ~5e-9 on the shoulder near |u| = 0.485
    def psi(u):
        return cutoff(u)[0]

    u = np.linspace(-0.6, 0.6, 501)
    h = 1e-4
    fd = (psi(u + 3 * h) - 9 * psi(u + 2 * h) + 45 * psi(u + h)
          - 45 * psi(u - h) + 9 * psi(u - 2 * h) - psi(u - 3 * h)) / (60 * h)
    assert np.max(np.abs(fd - cutoff(u)[1])) < 1e-9


def test_cutoff_midpoint_is_one_half():
    assert cutoff(0.375)[0] == 0.5
    assert cutoff(-0.375)[0] == 0.5


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_zero_energy_shell_lies_on_the_cutoff_plateau(alpha):
    # the E = 0 scans only see psi = 1 and psi' = 0, whatever the shoulder
    x = np.geomspace(0.2, 60.0, 2500)
    bx_a = bracket_x(x) ** alpha
    xi2 = np.sqrt(bx_a + 0.0) ** 2
    u = (xi2 - bx_a) / (xi2 + bx_a)
    assert np.max(np.abs(u)) <= 1e-12
    psi, dpsi = cutoff(u)
    assert np.all(psi == 1.0)
    assert np.all(dpsi == 0.0)


def test_heuristic_bracket_alpha1_is_exactly_one(rng):
    h = plain_hamiltonian_symbol(1.0)
    a = heuristic_a_symbol(1.0)
    for _ in range(20):
        x = float(rng.uniform(0.5, 20.0))
        xi = float(rng.uniform(-4.0, 4.0))
        assert poisson_bracket(h, a, x, xi) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_heuristic_bracket_identity(alpha, rng):
    h = plain_hamiltonian_symbol(alpha)
    a = heuristic_a_symbol(alpha)
    for _ in range(200):
        x = float(rng.uniform(0.5, 30.0))
        E = float(rng.uniform(-0.5, 2.0))
        if x**alpha + E < 0:
            continue
        xi = np.sqrt(x**alpha + E)
        br = poisson_bracket(h, a, x, xi)
        assert abs(br - heuristic_bracket_identity(x, E, alpha)) < 1e-10


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_a_alpha_bracket_plateau_closed_form(alpha, rng):
    # on the cutoff plateau the bracket has the closed form
    # 2 xi^2 <x>^-a - 2a (x xi)^2 <x>^-a-2 + a x^2 <x>^-2
    h = hamiltonian_symbol(alpha)
    a = a_alpha_symbol(alpha)
    checked = 0
    for _ in range(500):
        x = float(rng.uniform(-20, 20))
        E = float(rng.uniform(-0.3, 0.3))
        w = bracket_x(x) ** alpha
        if w + E < 0:
            continue
        xi = np.sqrt(w + E) * (1 if rng.uniform() < 0.5 else -1)
        u = (xi**2 - w) / (xi**2 + w)
        if abs(u) >= 0.25:
            continue
        br = poisson_bracket(h, a, x, xi)
        bx = bracket_x(x)
        closed = (2 * xi**2 * bx**-alpha
                  - 2 * alpha * (x * xi) ** 2 * bx ** (-alpha - 2)
                  + alpha * x**2 * bx**-2)
        assert br == pytest.approx(closed, abs=1e-10)
        checked += 1
    assert checked > 100


def test_a2_bracket_closed_form(rng):
    h = hamiltonian_symbol(2.0)
    a = a2_symbol()
    x = rng.uniform(-6, 6, size=1000)
    xi = rng.uniform(-6, 6, size=1000)
    br = poisson_bracket(h, a, x, xi)
    closed = a2_bracket_closed_form(x, xi)
    assert np.max(np.abs(br - closed)) < 1e-8
    assert np.all(closed <= 4.0 + 1e-12)


def test_a2_bracket_tends_to_two_along_shell():
    x = np.geomspace(10, 1e4, 50)
    xi = np.sqrt(bracket_x(x) ** 2 + 1.0)  # shell E = 1
    vals = a2_bracket_closed_form(x, xi)
    assert abs(vals[-1] - 2.0) < 1e-6


def test_bracket_antisymmetry(rng):
    h = hamiltonian_symbol(1.3)
    a = v_alpha_symbol(1.3)
    for _ in range(50):
        x = float(rng.uniform(-5, 5))
        xi = float(rng.uniform(-5, 5))
        assert poisson_bracket(h, a, x, xi) == pytest.approx(
            -poisson_bracket(a, h, x, xi), abs=1e-10
        )


def test_bracket_bilinearity(rng):
    h = hamiltonian_symbol(1.0)
    a = v_alpha_symbol(1.0)
    b = a_alpha_symbol(1.0)

    def combo(x, xi):
        return tuple(2.0 * p + 3.0 * q for p, q in zip(a(x, xi), b(x, xi)))

    for _ in range(20):
        x = float(rng.uniform(0.5, 6))
        xi = float(rng.uniform(-4, 4))
        lhs = poisson_bracket(h, combo, x, xi)
        rhs = 2.0 * poisson_bracket(h, a, x, xi) + 3.0 * poisson_bracket(h, b, x, xi)
        assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("make,args", [
    (a2_symbol, ()),
    (a_alpha_symbol, (1.0,)),
    (a_alpha_symbol, (1.5,)),
    (v_alpha_symbol, (0.7,)),
    (hamiltonian_symbol, (1.3,)),
    (plain_hamiltonian_symbol, (1.5,)),
    (heuristic_a_symbol, (1.5,)),
    (heuristic_a_symbol, (0.5,)),
])
def test_gradient_consistency_analytic_vs_fd(make, args, rng):
    sym = make(*args)
    # the unregularized heuristic symbols live on x > 0
    x_range = (0.5, 8) if make in (plain_hamiltonian_symbol, heuristic_a_symbol) else (-8, 8)
    h = 1e-5
    n_checked = 0
    for _ in range(1000):
        x = float(rng.uniform(*x_range))
        xi = float(rng.uniform(-8, 8))
        _, gx_a, gxi_a = sym(x, xi)
        gx_f = (sym(x + h, xi)[0] - sym(x - h, xi)[0]) / (2 * h)
        gxi_f = (sym(x, xi + h)[0] - sym(x, xi - h)[0]) / (2 * h)
        scale = max(abs(gx_a), abs(gxi_a), 1.0)
        assert abs(gx_a - gx_f) < 1e-5 * scale
        assert abs(gxi_a - gxi_f) < 1e-5 * scale
        n_checked += 1
    assert n_checked == 1000


@pytest.mark.parametrize("x, xi", [
    (np.linspace(-3.0, 3.0, 7), np.linspace(-1.0, 2.0, 7)),
    (1.5, np.linspace(-1.0, 2.0, 7)),
    (np.linspace(0.5, 3.0, 4)[:, None], np.linspace(-1.0, 2.0, 5)),
], ids=["arrays", "scalar-x", "outer"])
def test_poisson_bracket_calls_each_symbol_once(x, xi):
    calls = []

    def counted(sym, name):
        def wrapped(x, xi):
            calls.append((name, np.shape(x), np.shape(xi)))
            return sym(x, xi)
        return wrapped

    h, a = hamiltonian_symbol(1.3), a_alpha_symbol(1.3)
    br = poisson_bracket(counted(h, "h"), counted(a, "a"), x, xi)
    shape = np.broadcast_shapes(np.shape(x), np.shape(xi))
    # both symbols see x and xi already broadcast to the bracket's shape
    assert calls == [("h", shape, shape), ("a", shape, shape)]
    assert br.shape == shape
    xb, xib = np.broadcast_arrays(np.asarray(x, dtype=float), xi)
    _, h_x, h_xi = h(xb, xib)
    _, a_x, a_xi = a(xb, xib)
    assert np.array_equal(br, h_xi * a_x - h_x * a_xi)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 2.0])
def test_acceleration_symbol_equals_bracket(alpha, rng):
    h = hamiltonian_symbol(alpha)
    v = v_alpha_symbol(alpha)
    x = rng.uniform(-8, 8, size=1000)
    xi = rng.uniform(-8, 8, size=1000)
    br = poisson_bracket(h, v, x, xi)
    accel = symbol_accel_alpha(x, xi, alpha)
    assert np.max(np.abs(br - accel)) < 1e-8


def test_v_alpha_vanishes_at_zero_momentum():
    assert v_alpha_symbol(1.0)(3.0, 0.0)[0] == 0.0


def test_on_shell_velocity_bound_c11a():
    # |v_alpha| <= sigma + C <x>^((beta-1) alpha / 2) on shells; beta = 0.9,
    # C frozen from a reference scan (measured max 0.29)
    C = 0.5
    beta = 0.9
    for alpha in (0.5, 1.0, 1.5, 2.0):
        s = sigma_alpha(alpha)
        for E in (-1.0, 0.0, 1.0):
            x = np.geomspace(1.0, 200.0, 2000)
            wx = bracket_x(x) ** alpha
            x = x[wx + E >= 0]
            xi = np.sqrt(bracket_x(x) ** alpha + E)
            v = np.abs(v_alpha_symbol(alpha)(x, xi)[0])
            bound = s + C * bracket_x(x) ** ((beta - 1.0) * alpha / 2.0)
            assert np.all(v <= bound)


def test_bracket_matches_time_derivative_along_flow():
    # d/dt a(x(t), xi(t)) = {h, a} along the classical trajectories
    alpha = 1.0
    traj = flow(zero_energy_start(alpha), alpha, 6.0, 1e-4, record_every=10)
    h = hamiltonian_symbol(alpha)
    a = v_alpha_symbol(alpha)
    x = traj.xs[:, 0]
    xi = traj.xis[:, 0]
    vals = a(x, xi)[0]
    dadt = np.gradient(vals, traj.times)
    br = poisson_bracket(h, a, x, xi)
    # central differences on the recorded lattice: compare away from ends
    err = np.abs(dadt[2:-2] - br[2:-2])
    assert np.max(err) < 5e-4


def test_mourre_scan_alpha1_far_field():
    out = mourre_shell_scan(1.0, 0.0, 0.1, radius_range=(5.0, 60.0), samples=4000)
    assert out["min_bracket"] >= 0.9
    assert np.isfinite(out["R_threshold"])


def test_mourre_scan_alpha2():
    out = mourre_shell_scan(2.0, 1.0, 0.2, radius_range=(0.5, 50.0), samples=4000)
    assert np.isfinite(out["R_threshold"])
    pts = out["points"]
    good = np.abs(pts[:, 0]) >= out["R_threshold"]
    assert np.all(pts[good, 2] >= 1.8 - 1e-12)


def test_mourre_scan_constraint_restricted():
    out = mourre_shell_scan(1.5, -2.0, 0.1, radius_range=(0.1, 50.0), samples=4000)
    assert out["constraint_restricted"]
    assert np.isfinite(out["R_threshold"])
    pts = out["points"]
    good = np.abs(pts[:, 0]) >= out["R_threshold"]
    assert np.all(pts[good, 2] >= sigma_alpha(1.5) - 0.1 - 1e-12)


def test_mourre_scan_reflection_invariance():
    out = mourre_shell_scan(1.0, 0.5, 0.1, radius_range=(1.0, 40.0), samples=2000)
    pts = out["points"]
    # (x, xi) -> (-x, -xi) preserves the bracket: minima over both halves agree
    left = pts[pts[:, 0] < 0][:, 2].min()
    right = pts[pts[:, 0] > 0][:, 2].min()
    assert left == pytest.approx(right, abs=1e-12)


def test_mourre_scan_rejects_bad_eta():
    with pytest.raises(ConfigurationError):
        mourre_shell_scan(1.0, 0.0, -0.1, (0.5, 50.0), 10_000)


def test_scan_csv(tmp_path):
    out = mourre_shell_scan(1.0, 0.0, 0.1, radius_range=(1.0, 20.0), samples=400)
    path = tmp_path / "scan.csv"
    scan_to_csv(out, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,xi,bracket,shell_E"
    assert len(lines) == 1 + len(out["points"])


def _sorted_threshold(points, target):
    """R_threshold by sorting every sampled point by |x|: the smallest
    sampled radius past the last violation, inf if none is left."""
    rads = np.abs(points[:, 0])
    order = np.argsort(rads)
    viol_idx = np.nonzero(points[order, 2] < target)[0]
    first_good = viol_idx[-1] + 1 if viol_idx.size else 0
    return float(rads[order][first_good]) if first_good < len(rads) else np.inf


def test_mourre_scan_threshold_matches_sorted_reference(rng):
    # the four sign copies of a radius share its bracket, so a per-radius
    # reduction gives the threshold of a sort over all points
    with_violations = 0
    for _ in range(400):
        alpha = float(rng.choice([2.0, rng.uniform(0.1, 2.0)]))
        lo = float(rng.uniform(0.05, 5.0))
        out = mourre_shell_scan(alpha, float(rng.uniform(-3.0, 3.0)),
                                float(rng.uniform(0.001, 0.3)),
                                (lo, lo * float(rng.uniform(1.5, 40.0))),
                                int(rng.integers(1, 1200)))
        assert out["R_threshold"] == _sorted_threshold(out["points"], out["target"])
        with_violations += len(out["violating_points"]) > 0
    assert with_violations >= 80
