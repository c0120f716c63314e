import numpy as np
import pytest

from repscat import (
    ConfigurationError,
    QuadraticSpec,
    RepulsiveSpec,
    eval_quadratic,
    p_alpha,
    sigma_alpha,
)
from repscat.potentials import (
    PRESETS,
    bracket_x,
    p_alpha_inverse,
    preset_borderline,
    preset_power,
    radius_sq,
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


def test_p_alpha_inverse_reaches_an_infinite_radius_without_overflow():
    # exp(2p) passes the float range at p ~ 354.9 (a velocity histogram's top
    # bin at t ~ 71): the radius is inf, and no overflow is signalled
    with np.errstate(over="raise"):
        r = p_alpha_inverse(np.array([300.0, 355.0, 1e4]), 2.0)
    assert np.isfinite(r[0]) and np.all(np.isinf(r[1:]))


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
    # counts lay out the axes, so they must be integers >= 0
    for bad in ({"dims": 1.0}, {"n_minus": 1.0, "omegas": (1.0,)}, {"n_E": -1}):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            QuadraticSpec(**{"dims": 1, **bad})


QUADRATIC_LAYOUTS = [(dims, n_minus, n_plus, n_E)
                     for dims in (1, 2, 3)
                     for n_minus in range(dims + 1)
                     for n_plus in range(dims + 1 - n_minus)
                     for n_E in range(dims + 1 - n_minus - n_plus)]


@pytest.mark.parametrize("dims, n_minus, n_plus, n_E", QUADRATIC_LAYOUTS)
def test_quadratic_spec_axis_layout(dims, n_minus, n_plus, n_E):
    # axes in the documented order: hyperbolic, trigonometric, Stark, free
    omegas = tuple(0.5 + k for k in range(n_minus + n_plus))
    fields = tuple(-1.5 - k for k in range(n_E))
    spec = QuadraticSpec(dims=dims, n_minus=n_minus, n_plus=n_plus, n_E=n_E,
                         omegas=omegas, fields=fields)
    n_free = dims - n_minus - n_plus - n_E
    layout = ([("hyperbolic", w, 0.0) for w in omegas[:n_minus]]
              + [("trigonometric", w, 0.0) for w in omegas[n_minus:]]
              + [("stark", 0.0, e) for e in fields]
              + [("free", 0.0, 0.0)] * n_free)
    assert spec.sectors == tuple(sector for sector, _, _ in layout)
    assert spec.axis_omegas == tuple(w for _, w, _ in layout)
    assert spec.axis_fields == tuple(e for _, _, e in layout)


def test_quadratic_spec_layout_is_derived_not_given():
    with pytest.raises(TypeError):
        QuadraticSpec(dims=1, sectors=("free",))
    a = QuadraticSpec(dims=2, n_minus=1, omegas=(1.0,))
    assert a == QuadraticSpec(dims=2, n_minus=1, omegas=[1]) and "sectors" not in repr(a)


def test_regularization_difference_bound():
    # |<x>^a - |x|^a| <= C <x>^(a-2) for |x| >= 1; frozen regression C
    C = 1.05
    x = np.geomspace(1.0, 1e6, 4000)
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0):
        diff = np.abs(bracket_x(x) ** alpha - x**alpha)
        assert np.all(diff <= C * bracket_x(x) ** (alpha - 2.0))


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
    slope = np.polyfit(np.log(p_alpha(x, 2.0)), np.log(f(x)), 1)[0]
    # a log-log fit over a finite window stays above -1 (it reads -0.85 here),
    # so the p_alpha^-1 tail does not pass for short range
    assert slope > -1.05


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


def test_radius_sq_sums_squares_over_broadcast_axes():
    x, y = np.arange(3.0)[:, None], np.array([[0.5, -2.0]])
    assert np.array_equal(radius_sq(x, y), x**2 + y**2)
    assert radius_sq(3.0, 4.0) == 25.0
    assert radius_sq(-1.5) == 2.25


def _summed_squares(*coords):
    """|x|^2 as a sum that starts from int 0, the form radius_sq replaces."""
    return sum(np.asarray(c, dtype=float) ** 2 for c in coords)


RADIUS_POINTS = [
    (3.0,), (-1.5, 2.0), (0.5, -0.25, 7.0),                      # Python floats
    (np.float64(-0.0),), (np.array(2.5), np.array(-1e-160)),     # 0-d and numpy scalars
    (3,), (np.linspace(-4.0, 4.0, 9),),                          # an int, one axis
    (np.arange(3.0)[:, None], np.array([[0.5, -2.0]])),          # broadcast shapes
    (np.arange(2.0)[:, None, None], np.linspace(-1, 1, 3)[None, :, None],
     np.array([1e200, -0.0, 5e-324])[None, None, :]),            # 3-D, huge and subnormal
]


@pytest.mark.parametrize("coords", RADIUS_POINTS)
def test_radius_sq_and_bracket_x_are_bit_identical_to_the_summed_forms(coords):
    before = [np.array(c, copy=True) for c in coords]
    with np.errstate(over="ignore", under="ignore"):
        r2, ref = radius_sq(*coords), _summed_squares(*coords)
        bx, ref_bx = bracket_x(*coords), np.sqrt(1.0 + _summed_squares(*coords))
    for got, want in ((r2, ref), (bx, ref_bx)):
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    # bracket_x works in place on radius_sq's fresh array, never on its input
    for c, b in zip(coords, before):
        assert np.array_equal(np.asarray(c), b)
    if isinstance(coords[0], np.ndarray) and len(coords) == 1:
        assert bracket_x(coords[0]) is not coords[0]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_borderline_is_bit_identical_to_its_formula(alpha):
    x = np.linspace(-8.0, 8.0, 41)[:, None]
    y = np.linspace(-3.0, 5.0, 17)[None, :]
    expected = 0.7 * (1.0 + p_alpha(np.sqrt(x**2 + y**2), alpha)) ** (-1.0)
    assert np.array_equal(preset_borderline(alpha, 0.7)(x, y), expected)


@pytest.mark.parametrize("n_coords", [2, 4])
def test_w_product_refuses_a_point_of_another_dimension(n_coords):
    quad = QuadraticSpec(dims=3, n_minus=1, n_E=1, omegas=(1.0,), fields=(1.0,))
    with pytest.raises(ConfigurationError, match="spec has dims 3"):
        w_product((np.array([3.0]),) * n_coords, (2.0,) * n_coords, quad)


@pytest.mark.parametrize("preset, arg", [("gaussian-bump", "width"), ("compact-bump", "radius")])
@pytest.mark.parametrize("value", [0.0, -0.5, 1.0e-200, 1.0e+200])
def test_bump_presets_refuse_a_width_they_cannot_divide_by(preset, arg, value):
    with pytest.raises(ConfigurationError, match=arg):
        PRESETS[preset](height=1.0, **{arg: value})
