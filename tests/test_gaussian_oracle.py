"""Self-tests of the Gaussian-packet oracle (tests/gaussian_oracle.py), and
the factored-route numbers it confirms."""

import math
import os

import numpy as np
import pytest
from gaussian_oracle import axis_mean_of, axis_moments, radial_mean_of
from scipy.special import wofz

from repscat import QuadraticSpec, cook_scan, gaussian, make_grid, propagate_factored
from repscat.config import load_config

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")
HYPER = QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,))


@pytest.mark.parametrize("spec", [
    HYPER, QuadraticSpec(dims=1, n_plus=1, omegas=(0.7,)),
    QuadraticSpec(dims=1, n_E=1, fields=(1.0,)), QuadraticSpec(dims=1),
], ids=["hyperbolic", "trigonometric", "stark", "free"])
@pytest.mark.parametrize("t", [0.1, 0.25])
def test_moments_match_factored_densities_at_small_t(spec, t):
    # the second moments of the lattice density of an exact propagator of a
    # well-resolved packet agree with the continuum to roundoff
    grid = make_grid(1, 512, 10.0)
    out = propagate_factored(gaussian(grid, center=1.0, momentum=0.5), t, spec)
    rho = np.abs(out.values) ** 2 / np.sum(np.abs(out.values) ** 2)
    mean = rho @ grid.nodes
    means, variances = axis_moments(t, spec, center=1.0, momentum=0.5)
    assert abs(mean - means[0]) < 1e-10
    assert abs(rho @ (grid.nodes - mean) ** 2 - variances[0]) < 1e-10


def test_moments_match_a_2d_factored_density_axis_by_axis():
    spec = QuadraticSpec(dims=2, n_minus=1, n_E=1, omegas=(1.0,), fields=(-0.5,))
    grid = make_grid(2, 256, 10.0)
    state = dict(center=(0.5, -1.0), width=1.2, momentum=(0.3, 0.2))
    out = propagate_factored(gaussian(grid, **state), 0.25, spec)
    rho = np.abs(out.values) ** 2 / np.sum(np.abs(out.values) ** 2)
    means, variances = axis_moments(0.25, spec, **state)
    for k in range(2):
        marginal = rho.sum(axis=1 - k)
        mean = marginal @ grid.nodes
        assert abs(mean - means[k]) < 1e-10
        assert abs(marginal @ (grid.nodes - mean) ** 2 - variances[k]) < 1e-10


@pytest.mark.parametrize("t, center, momentum", [(0.5, 0.0, 0.0), (2.0, 0.5, 0.0),
                                                 (8.0, 0.0, 0.0), (8.0, 0.5, 0.3)])
def test_axis_mean_resolves_both_scales(t, center, momentum):
    # <1/(1 + x^2)> for x ~ N(m, sigma^2) is sqrt(pi/2)/sigma Re w((m + i)/(sigma sqrt 2)),
    # w the Faddeeva function.  At t = 8 sigma ~ 4e6, and all of the mean
    # comes from |x| ~ 1, a 2e-7 sliver of the standardised variable
    means, variances = axis_moments(t, HYPER, center=center, momentum=momentum)
    m, sigma = float(means[0]), math.sqrt(float(variances[0]))
    exact = math.sqrt(math.pi / 2.0) / sigma * wofz((m + 1j) / (sigma * math.sqrt(2.0))).real
    got = axis_mean_of(lambda x: 1.0 / (1.0 + x * x), t, HYPER, center=center,
                       momentum=momentum)
    assert got == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("t", [0.5, 8.0])
def test_radial_mean_matches_the_chi_moments(dims, t):
    spec = QuadraticSpec(dims=dims, n_minus=dims, omegas=(1.0,) * dims)
    var = float(axis_moments(t, spec)[1][0])
    assert radial_mean_of(lambda r: r**2, t, spec) == pytest.approx(dims * var, rel=1e-12)
    chi_mean = math.sqrt(2.0 * var) * math.gamma((dims + 1) / 2.0) / math.gamma(dims / 2.0)
    assert radial_mean_of(lambda r: r, t, spec) == pytest.approx(chi_mean, rel=1e-12)
    if dims == 1:
        f = lambda x: 1.0 / (1.0 + x * x)
        assert radial_mean_of(f, t, spec) == pytest.approx(axis_mean_of(f, t, spec), rel=1e-12)
    with pytest.raises(ValueError, match="chi distribution"):
        radial_mean_of(lambda r: r, t, QuadraticSpec(dims=dims, n_E=1, fields=(1.0,)))


def test_cook_stark_integrand_matches_the_oracle_at_early_times():
    # ||V e^{-itH0} phi|| = <V^2>^(1/2) on the sample config's grid, field,
    # coupling and state; the cell rule is within 7.2e-4 of it here
    values = load_config(os.path.join(CONFIG_DIR, "cook_stark.yaml")).values
    spec = values["hamiltonian"]["quadratic"]
    coupling = values["hamiltonian"]["perturbation"]
    times = [0.5, 1.0, 1.5, 2.0]
    record = cook_scan(gaussian(values["grid"], **values["state"]), spec, coupling, times)
    exact = [math.sqrt(axis_mean_of(lambda x: coupling(x) ** 2, t, spec, **values["state"]))
             for t in times]
    assert np.allclose(record.integrand, exact, rtol=1e-3, atol=0.0)
