"""Three independent routes to the same quantum evolution.

The quadratic saddle H0 = -Laplacian - x^2 admits an exact propagator built
from chirp multipliers, a Fourier transform, and a dilation.  We check it
against (a) direct quadrature of the closed-form kernel, (b) a split-step
spectral integrator with a tiny step, and (c) the analytic free-particle
Gaussian when the potential is switched off.
"""

import numpy as np

import repscat as rs

HYPER = rs.QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,))


def main():
    grid = rs.make_grid(1, 128, 12.0)
    psi = rs.gaussian(grid, momentum=0.5)
    print("== factored application vs direct kernel quadrature (t = 0.3) ==")
    fast = rs.propagate_factored(psi, 0.3, HYPER)
    slow = rs.propagate_kernel(psi, 0.3, HYPER)
    print(f"   relative L2 difference: {rs.l2_distance(fast, slow):.3e}")
    print(f"   norm after evolution:   {rs.l2_norm(fast):.15f}")

    print("== group law: e(-0.2 H) e(-0.3 H) = e(-0.5 H) ==")
    g2 = rs.make_grid(1, 512, 14.0)
    psi2 = rs.gaussian(g2, momentum=0.3)
    comp = rs.propagate_factored(rs.propagate_factored(psi2, 0.3, HYPER), 0.2, HYPER)
    direct = rs.propagate_factored(psi2, 0.5, HYPER)
    print(f"   composition error: {rs.l2_distance(comp, direct):.3e}")

    print("== free sector vs the analytic dispersive Gaussian (t = 1) ==")
    gf = rs.make_grid(1, 512, 20.0)
    out = rs.propagate_factored(rs.gaussian(gf), 1.0, rs.QuadraticSpec(dims=1))
    x = gf.nodes
    exact = np.pi**-0.25 / np.sqrt(1 + 2j) * np.exp(-(x**2) / (2 * (1 + 2j)))
    err = np.sqrt(np.sum(np.abs(out.values - exact) ** 2) * gf.spacing)
    print(f"   error vs closed form:  {err:.3e}  (width grew to sqrt(1+4t^2))")

    print("== split-step with dt = 1e-4 vs the exact propagator (t = 0.5) ==")
    gs = rs.make_grid(1, 1024, 30.0)
    psis = rs.gaussian(gs)
    cfg = rs.evolution_config(gs, 1e-4, repulsive=rs.RepulsiveSpec(2.0, regularized=False))
    ss, telemetry = rs.propagate(psis, 0.5, cfg)
    mh = rs.propagate_factored(psis, 0.5, HYPER)
    diff = rs.l2_distance(ss, mh)
    print(f"   L2 difference after {telemetry['steps']} Strang steps: {diff:.3e}")

    print("== Strang order check against the dense matrix exponential ==")
    go = rs.make_grid(1, 64, 8.0)
    cfg_o = rs.evolution_config(go, 4e-3, repulsive=rs.RepulsiveSpec(1.0))
    order = rs.convergence_order(rs.gaussian(go), 0.1, cfg_o, [4e-3, 2e-3, 1e-3, 5e-4])
    print(f"   fitted convergence slope: {order['slope']:.3f} (expected 2)")


if __name__ == "__main__":
    main()
