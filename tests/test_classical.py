import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repscat import (
    ConfigurationError,
    NoEscapeError,
    PhasePoint,
    escape_exponent,
    flow,
    log_growth_rate,
    quadratic_closed_form,
    zero_energy_start,
)
from repscat.classical import (
    OVERFLOW_LIMIT,
    _energy,
    _fit_window,
    _recorded_steps,
    check_fit_window,
    p_alpha_rate,
    trajectory_to_csv,
)


def _reference_flow(start, alpha, t_final, dt, regularized=True, record_every=1):
    """Numpy kick-drift-kick loop with two force evaluations per step.
    `flow` takes the same arithmetic steps on Python floats, so it must
    match this reference bit for bit."""
    def force(x):
        r2 = np.sum(x * x)
        if regularized:
            return alpha * (1.0 + r2) ** (alpha / 2.0 - 1.0) * x
        with np.errstate(divide="ignore", over="ignore"):
            c = alpha * np.sqrt(r2) ** (alpha - 2.0)
        if not np.isfinite(c):  # at the origin, or the power overflows near it
            raise ConfigurationError("|x|^alpha force is singular at the origin")
        return c * x

    n = int(round(t_final / dt))
    x = start.x.copy()
    xi = start.xi.copy()
    times, xs, xis = [0.0], [x.copy()], [xi.copy()]
    truncated = False
    for k in range(n):
        xi = xi + 0.5 * dt * force(x)
        x = x + dt * 2.0 * xi
        xi = xi + 0.5 * dt * force(x)
        if np.max(np.abs(x)) > OVERFLOW_LIMIT or np.max(np.abs(xi)) > OVERFLOW_LIMIT:
            truncated = True
            break
        if (k + 1) % record_every == 0 or k == n - 1:
            times.append((k + 1) * dt)
            xs.append(x.copy())
            xis.append(xi.copy())
    return np.array(times), np.array(xs), np.array(xis), truncated


def test_closed_form_growing_branch():
    p = quadratic_closed_form(PhasePoint([1.0], [1.0]), 1.0)
    assert p.x[0] == pytest.approx(np.exp(2.0), rel=1e-14)
    assert p.xi[0] == pytest.approx(np.exp(2.0), rel=1e-14)


def test_closed_form_decaying_branch():
    p = quadratic_closed_form(PhasePoint([1.0], [-1.0]), 2.0)
    assert p.x[0] == pytest.approx(np.exp(-4.0), rel=1e-12)
    assert p.xi[0] == pytest.approx(-np.exp(-4.0), rel=1e-12)


def test_closed_form_identity_at_zero():
    p = quadratic_closed_form(PhasePoint([0.3], [-0.8]), 0.0)
    assert p.x[0] == pytest.approx(0.3, abs=1e-16)
    assert p.xi[0] == pytest.approx(-0.8, abs=1e-16)


def test_flow_alpha2_matches_closed_form():
    traj = flow(PhasePoint([1.0], [1.0]), 2.0, 3.0, 1e-4, regularized=False,
                record_every=100)
    for i, t in enumerate(traj.times):
        exact = quadratic_closed_form(PhasePoint([1.0], [1.0]), t)
        assert abs(traj.xs[i, 0] - exact.x[0]) <= 1e-5 * abs(exact.x[0])


def test_flow_alpha2_example_values():
    traj = flow(PhasePoint([1.0], [1.0]), 2.0, 1.0, 1e-4, regularized=False)
    assert traj.xs[-1, 0] == pytest.approx(np.exp(2.0), rel=1e-6)
    traj = flow(PhasePoint([1.0], [-1.0]), 2.0, 1.0, 1e-4, regularized=False)
    assert traj.xs[-1, 0] == pytest.approx(np.exp(-2.0), rel=1e-6)


def test_origin_is_fixed_point_regularized():
    traj = flow(PhasePoint([0.0], [0.0]), 1.0, 1.0, 1e-3)
    assert np.all(traj.xs == 0.0)
    assert np.all(traj.xis == 0.0)


def test_unregularized_force_singular_at_origin():
    with pytest.raises(ConfigurationError):
        flow(PhasePoint([0.0], [0.0]), 1.0, 0.1, 1e-3, regularized=False)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_escape_exponent_matches_kappa(alpha):
    kappa = 2.0 / (2.0 - alpha)
    T = 160.0
    traj = flow(zero_energy_start(alpha), alpha, T, 1e-3, record_every=50)
    fit = escape_exponent(traj, (T / 2.0, T))
    assert isinstance(fit, float)
    assert abs(fit - kappa) <= 0.03 * kappa


def test_alpha2_log_growth_rate():
    traj = flow(PhasePoint([1.0], [1.0]), 2.0, 3.0, 1e-4, record_every=20)
    rate = log_growth_rate(traj, (1.0, 3.0))
    assert abs(rate - 2.0) <= 0.02 * 2.0


def test_energy_conservation_stated_runs():
    # dt = 1e-4, horizon 10; alpha = 2 on the bounded (stable-manifold) branch
    cases = {0.5: PhasePoint([1.0], [0.0]), 1.0: PhasePoint([1.0], [0.0]),
             1.5: PhasePoint([1.0], [3.0]), 2.0: PhasePoint([1.0], [-1.0])}
    for alpha, start in cases.items():
        traj = flow(start, alpha, 10.0, 1e-4, record_every=100)
        assert traj.energy_drift() <= 1e-6, f"alpha={alpha}"


def test_time_reversal():
    start = PhasePoint([1.0], [0.7])
    fwd = flow(start, 1.0, 2.0, 1e-4)
    flipped = PhasePoint(fwd.xs[-1], -fwd.xis[-1])
    back = flow(flipped, 1.0, 2.0, 1e-4)
    assert abs(back.xs[-1, 0] - 1.0) < 1e-8
    assert abs(back.xis[-1, 0] + 0.7) < 1e-8


def test_asymptotic_speed_law():
    for alpha in (0.5, 1.0, 1.5):
        T = 160.0
        traj = flow(zero_energy_start(alpha), alpha, T, 1e-3, record_every=50)
        rate = p_alpha_rate(traj, (T / 2.0, T))
        assert abs(rate - (2.0 - alpha)) <= 0.05 * (2.0 - alpha)


def test_no_escape_error_for_bounded_run():
    traj = flow(PhasePoint([1.0], [-1.0]), 2.0, 5.0, 1e-3, regularized=False)
    with pytest.raises(NoEscapeError):
        escape_exponent(traj, (2.5, 5.0))


def test_overflow_truncation_flag():
    traj = flow(PhasePoint([1.0], [1.0]), 2.0, 200.0, 1e-2)
    assert traj.truncated
    assert traj.times[-1] < 200.0


def test_trajectory_csv(tmp_path):
    traj = flow(PhasePoint([1.0], [0.5]), 1.0, 1.0, 1e-3, record_every=100)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x0,xi0,energy"


@pytest.mark.parametrize("start, alpha, t_final, dt, regularized, record_every", [
    (PhasePoint([1.0], [0.5]), 1.0, 10.0, 1e-3, True, 50),
    (PhasePoint([1.0], [0.5]), 0.5, 10.0, 1e-3, False, 7),
    (PhasePoint([1.0, -0.3], [0.5, 0.2]), 1.5, 10.0, 1e-3, True, 3),
    (PhasePoint([1.0, -0.3], [0.5, 0.2]), 1.5, 10.0, 1e-3, False, 1),
    (PhasePoint([1.0, -0.3, 0.7], [0.5, 0.2, -0.1]), 0.7, 20.0, 1e-3, True, 13),
    (PhasePoint([1.0, -0.3, 0.7], [0.5, 0.2, -0.1]), 1.2, 20.0, 1e-3, False, 13),
    (PhasePoint([1.0], [1.0]), 2.0, 200.0, 1e-2, True, 1),      # truncates
    (PhasePoint([0.0], [0.0]), 1.0, 0.0, 1e-3, False, 1),       # zero steps
])
def test_flow_matches_reference_loop(start, alpha, t_final, dt, regularized, record_every):
    traj = flow(start, alpha, t_final, dt, regularized=regularized,
                record_every=record_every)
    times, xs, xis, truncated = _reference_flow(start, alpha, t_final, dt,
                                                regularized, record_every)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.xs, xs)
    assert np.array_equal(traj.xis, xis)
    assert traj.truncated == truncated
    assert traj.energy0 == float(_energy(start.x, start.xi, alpha, regularized))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), dims=st.integers(1, 3),
       alpha=st.floats(0.0, 2.0, exclude_min=True), regularized=st.booleans(),
       record_every=st.integers(1, 60), dt=st.floats(1e-3, 1e-2),
       t_final=st.floats(0.0, 2.0))
def test_flow_matches_reference_loop_on_drawn_runs(data, dims, alpha, regularized,
                                                   record_every, dt, t_final):
    coords = st.lists(st.floats(-3.0, 3.0), min_size=dims, max_size=dims)
    start = PhasePoint(data.draw(coords), data.draw(coords))
    x0, xi0 = start.x.copy(), start.xi.copy()
    try:
        times, xs, xis, truncated = _reference_flow(start, alpha, t_final, dt,
                                                    regularized, record_every)
    except ConfigurationError:  # |x|^alpha at the origin
        with pytest.raises(ConfigurationError):
            flow(start, alpha, t_final, dt, regularized=regularized,
                 record_every=record_every)
        return
    traj = flow(start, alpha, t_final, dt, regularized=regularized,
                record_every=record_every)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.xs, xs)
    assert np.array_equal(traj.xis, xis)
    assert traj.truncated == truncated
    # the in-place loop works on copies of the start
    assert np.array_equal(start.x, x0) and np.array_equal(start.xi, xi0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(record_every=st.integers(1, 12), dt=st.floats(1e-3, 1e-2),
       t_final=st.floats(0.0, 0.15) | st.sampled_from([0.0, 0.0045, 0.007, 0.02, 0.0205]))
def test_check_fit_window_counts_what_flow_records(record_every, dt, t_final):
    traj = flow(PhasePoint([1.0], [1.5]), 1.0, t_final, dt, record_every=record_every)
    assert not traj.truncated
    n = int(round(t_final / dt))
    recorded = [s * dt for s in sorted(_recorded_steps(n, record_every))]
    assert traj.times.tolist() == [0.0] + recorded
    window = (t_final / 2.0, t_final)
    try:
        _fit_window(traj.times, window)
    except ConfigurationError:
        with pytest.raises(ConfigurationError, match="fewer than 4 samples"):
            check_fit_window(t_final, dt, record_every)
    else:
        check_fit_window(t_final, dt, record_every)


@pytest.mark.parametrize("kwargs", [
    {"record_every": 0}, {"record_every": -3}, {"record_every": 2.5},
    {"t_final": float("nan")}, {"t_final": float("inf")}, {"t_final": -1.0},
])
def test_flow_rejects_bad_record_every_and_t_final(kwargs):
    args = {"t_final": 1.0, "record_every": 1, **kwargs}
    with pytest.raises(ConfigurationError):
        flow(PhasePoint([1.0], [0.5]), 1.0, dt=1e-3, **args)


@pytest.mark.parametrize("x0", [[0.0], [1.0e-161], [-4.0e-200, 0.0], [5e-324, 0.0, 0.0]])
def test_unregularized_coefficient_refused_where_not_finite(x0):
    # alpha |x|^(alpha-2) overflows a float near the origin, as it is infinite at it
    start = PhasePoint(x0, [0.0] * len(x0))
    for run in (flow, _reference_flow):
        with pytest.raises(ConfigurationError, match="singular at the origin"):
            run(start, 0.01, 1.0, 1e-3, regularized=False)


def test_phase_point_must_be_a_vector():
    with pytest.raises(ConfigurationError):
        PhasePoint([[1.0, 0.0]], [[0.5, 0.0]])


def test_phase_point_must_not_be_empty():
    with pytest.raises(ConfigurationError):
        PhasePoint([], [])


def test_p_alpha_rate_empty_window_raises():
    traj = flow(PhasePoint([1.0], [0.5]), 1.0, 1.0, 1e-3, record_every=100)
    with pytest.raises(ConfigurationError):
        p_alpha_rate(traj, (5.0, 6.0))
