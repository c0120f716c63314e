"""Dimension-lifting identities: a separable Hamiltonian evolves a product
state as the product of the 1-D runs of the same code (the tensor-product
structure of Reed & Simon I, VIII.10).  Here `propagate`, on the factored
and the split-step routes; the state's first factor is two packets, so the
identity is checked on more than a Gaussian."""

from functools import reduce

import numpy as np
import pytest

from repscat import (
    QuadraticSpec,
    WaveFunction,
    evolution_config,
    gaussian,
    make_grid,
    propagate,
    propagate_factored,
)

T = 0.4
HYPERBOLIC = QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,))
TRIGONOMETRIC = QuadraticSpec(dims=1, n_plus=1, omegas=(0.7,))
STARK = QuadraticSpec(dims=1, n_E=1, fields=(0.5,))
FREE = QuadraticSpec(dims=1)


def _axis_factors(grid, dims: int) -> list:
    """One 1-D state per axis: two packets on axis 0, one packet elsewhere."""
    first = (gaussian(grid, center=-1.0, width=0.8, momentum=0.5).values
             + 0.5 * gaussian(grid, center=1.5, width=0.6, momentum=-0.3).values)
    return [first] + [gaussian(grid, center=0.4 * k, momentum=0.2 * k).values
                      for k in range(1, dims)]


def _lifting_error(points: int, spec: QuadraticSpec, axis_specs, evolve) -> float:
    """max |evolve(phi_0 x ... x phi_n-1) - evolve(phi_0) x ... x evolve(phi_n-1)|,
    each axis run with its own 1-D spec on the grid's 1-D factor."""
    line = make_grid(1, points, 12.0)
    factors = _axis_factors(line, spec.dims)
    full = evolve(WaveFunction(make_grid(spec.dims, points, 12.0),
                               reduce(np.multiply.outer, factors)), spec)
    runs = [evolve(WaveFunction(line, f), s).values for f, s in zip(factors, axis_specs)]
    return float(np.max(np.abs(full.values - reduce(np.multiply.outer, runs))))


@pytest.mark.parametrize("points, spec, axis_specs", [
    (256, QuadraticSpec(dims=2, n_minus=1, omegas=(1.0,)), (HYPERBOLIC, FREE)),
    # 64 points per axis leave the chirp unresolved at T = 0.4
    (128, QuadraticSpec(dims=3, n_minus=1, n_E=1, omegas=(1.0,), fields=(0.5,)),
     (HYPERBOLIC, STARK, FREE)),
], ids=["hyperbolic-free-2d", "hyperbolic-stark-free-3d"])
def test_factored_propagate_of_a_product_state_is_the_product_of_1d_runs(points, spec,
                                                                         axis_specs):
    evolve = lambda psi, s: propagate_factored(psi, T, s)
    assert _lifting_error(points, spec, axis_specs, evolve) < 1e-12


def test_split_step_propagate_of_a_product_state_is_the_product_of_1d_runs():
    # the quadratic potential is a sum over the axes, as the kinetic term is,
    # so each Strang factor is a product of per-axis factors
    spec = QuadraticSpec(dims=2, n_minus=1, n_plus=1, omegas=(1.0, 0.7))
    evolve = lambda psi, s: propagate(psi, T, evolution_config(psi.grid, 0.01, quadratic=s))[0]
    assert _lifting_error(256, spec, (HYPERBOLIC, TRIGONOMETRIC), evolve) < 1e-12
