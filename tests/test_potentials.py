import numpy as np
import pytest

from repscat import (
    ConfigurationError,
    PerturbationSpec,
    QuadraticSpec,
    RepulsiveSpec,
    classify_decay,
    eval_quadratic,
    make_grid,
    p_alpha,
    sigma_alpha,
)
from repscat.potentials import (
    bracket_x,
    p_alpha_inverse,
    preset_borderline,
    preset_compact_bump,
    preset_log_power,
    preset_power,
    w_product,
)


def test_p_alpha_at_origin():
    assert p_alpha(0.0, 2.0) == 0.0
    assert p_alpha(0.0, 1.0) == 1.0


def test_p_alpha_log_branch_inversion():
    x = np.sqrt(np.e**2 - 1.0)
    assert p_alpha(x, 2.0) == pytest.approx(1.0, abs=1e-14)


def test_p_alpha_inverse_roundtrip():
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for r in (0.0, 0.7, 3.0, 40.0):
            assert p_alpha_inverse(p_alpha(r, alpha), alpha) == pytest.approx(r, abs=1e-9)


def test_p_alpha_monotone_radially():
    x = np.linspace(0.0, 50.0, 400)
    for alpha in (0.5, 1.0, 1.7, 2.0):
        p = p_alpha(x, alpha)
        assert np.all(np.diff(p) > 0)


def test_sigma_alpha_values():
    assert sigma_alpha(2.0) == 2.0
    assert sigma_alpha(1.0) == 1.0
    assert sigma_alpha(0.5) == 1.5


def test_alpha_range_enforced():
    for bad in (0.0, -1.0, 2.5, 3.0):
        with pytest.raises(ConfigurationError, match=r"\(0, 2\]"):
            sigma_alpha(bad)
        with pytest.raises(ConfigurationError):
            RepulsiveSpec(alpha=bad)


def test_eval_quadratic_examples():
    s1 = QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,))
    assert eval_quadratic((2.0,), s1) == -4.0
    s2 = QuadraticSpec(dims=2, n_minus=1, n_plus=1, omegas=(1.0, 2.0))
    assert eval_quadratic((1.0, 1.0), s2) == 3.0
    s3 = QuadraticSpec(dims=1, n_E=1, fields=(3.0,))
    assert eval_quadratic((2.0,), s3) == 6.0


def test_eval_quadratic_dimension_mismatch():
    s = QuadraticSpec(dims=2, n_minus=1, omegas=(1.0,))
    with pytest.raises(ConfigurationError):
        eval_quadratic((1.0,), s)


def test_quadratic_spec_validation():
    with pytest.raises(ConfigurationError):
        QuadraticSpec(dims=1, n_minus=1, omegas=(0.0,))
    with pytest.raises(ConfigurationError):
        QuadraticSpec(dims=1, n_E=1, fields=(0.0,))
    with pytest.raises(ConfigurationError):
        QuadraticSpec(dims=1, n_minus=1, n_plus=1, omegas=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        QuadraticSpec(dims=2, n_minus=2, omegas=(1.0,))


def test_regularization_difference_bound():
    # |<x>^a - |x|^a| <= C <x>^(a-2) for |x| >= 1; frozen regression C
    C = 1.05
    x = np.geomspace(1.0, 1e6, 4000)
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        diff = np.abs(bracket_x(x) ** alpha - x**alpha)
        assert np.all(diff <= C * bracket_x(x) ** (alpha - 2.0))


def test_classify_decay_log_power():
    x = np.geomspace(5.0, 1e9, 400)
    p = p_alpha(x, 2.0)
    v2 = preset_log_power(1.0, 2.0)(x)
    out = classify_decay(v2, p)
    assert out["short_range_verdict"]
    assert out["exponent_estimate"] == pytest.approx(1.0, abs=0.15)


def test_classify_decay_borderline_not_short_range():
    x = np.geomspace(2.0, 1e6, 400)
    p = p_alpha(x, 1.0)
    out = classify_decay(1.0 / p, p)
    assert not out["short_range_verdict"]
    assert out["exponent_estimate"] == pytest.approx(0.0, abs=0.05)


def test_classify_decay_zero_potential():
    x = np.geomspace(2.0, 1e6, 100)
    out = classify_decay(np.zeros_like(x), p_alpha(x, 1.0))
    assert out["short_range_verdict"]
    assert out["infinite_decay"]
    assert out["exponent_estimate"] == np.inf


def test_classify_decay_scale_invariance():
    x = np.geomspace(2.0, 1e7, 300)
    p = p_alpha(x, 1.5)
    v = (1.0 + p) ** -1.8
    a = classify_decay(v, p)
    b = classify_decay(137.0 * v, p)
    assert a["slope"] == pytest.approx(b["slope"], abs=1e-12)
    assert a["short_range_verdict"] == b["short_range_verdict"]


def test_classify_decay_needs_a_decade():
    x = np.linspace(10.0, 12.0, 50)
    p = p_alpha(x, 1.0)
    with pytest.raises(ConfigurationError):
        classify_decay(1.0 / p, p)


def test_classify_decay_excludes_zeros():
    x = np.geomspace(2.0, 1e6, 300)
    p = p_alpha(x, 1.0)
    v = 1.0 / p**2
    v[::7] = 0.0
    out = classify_decay(v, p)
    assert out["exponent_estimate"] == pytest.approx(1.0, abs=0.1)


def test_perturbation_v1_support_enforced():
    grid = make_grid(1, 64, 8.0)
    good = PerturbationSpec(v1=preset_compact_bump(1.0, 2.0), v1_radius=2.0)
    samples = good.v1_samples(grid)
    assert np.all(samples[np.abs(grid.nodes) > 2.0] == 0.0)
    bad = PerturbationSpec(v1=lambda x: np.exp(-np.abs(x)), v1_radius=2.0)
    with pytest.raises(ConfigurationError):
        bad.v1_samples(grid)


def test_perturbation_beta_validation():
    with pytest.raises(ConfigurationError):
        PerturbationSpec(w_betas=(-0.5,))


def test_w_product_sector_layout():
    quad = QuadraticSpec(dims=3, n_minus=1, n_E=1, omegas=(1.0,), fields=(1.0,))
    x = (np.array([3.0]), np.array([3.0]), np.array([3.0]))
    w = w_product(x, (2.0, 2.0, 2.0), quad)
    bx = bracket_x(3.0)
    expected = bracket_x(np.log(bx)) ** -2.0 * bx ** -1.0 * bx ** -2.0
    assert w[0] == pytest.approx(expected, rel=1e-12)


def test_borderline_preset_bounded_with_unit_tail_slope():
    f = preset_borderline(2.0)
    assert f(0.0) == 1.0
    x = np.geomspace(3.0, 1e9, 200)
    p = p_alpha(x, 2.0)
    out = classify_decay(f(x), p)
    assert not out["short_range_verdict"]


def test_power_preset():
    f = preset_power(2.0, 1.0)
    assert f(0.0) == 2.0
    assert f(np.sqrt(3.0)) == pytest.approx(1.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_p_alpha_log_branch_small_argument_series(sign):
    # ln<y> = y^2/2 - y^4/4 + y^6/6 - ...; five terms leave a truncation
    # below 1e-20 relative on |y| <= 1e-2, where rounding 1 + y^2 first
    # would cost up to 1e-12
    y = sign * np.geomspace(1e-8, 1e-2, 61)
    y2 = y * y
    series = y2 / 2 - y2**2 / 4 + y2**3 / 6 - y2**4 / 8 + y2**5 / 10
    got = p_alpha(y, 2.0)
    assert np.max(np.abs(got - series) / series) <= 1e-15
