"""Classical trajectories under the repulsive potential -<x>^alpha.

Escaping orbits grow like t^(2/(2-alpha)) for alpha < 2 and exponentially at
alpha = 2; the rescaled radius p_alpha(x(t)) grows linearly with slope
exactly 2 - alpha (or 2).  A leapfrog integrator reproduces all three laws.
"""

import numpy as np

import repscat as rs
from repscat.classical import p_alpha_rate


def main():
    print("== escape exponents: |x(t)| ~ t^kappa, kappa = 2/(2-alpha) ==")
    for alpha in (0.5, 1.0, 1.5):
        kappa = 2.0 / (2.0 - alpha)
        T = 160.0
        traj = rs.flow(rs.zero_energy_start(alpha), alpha, T, 1e-3, record_every=50)
        fit = rs.escape_exponent(traj, (T / 2, T))
        rate = p_alpha_rate(traj, (T / 2, T))
        print(f"   alpha={alpha}: kappa fit {fit:.4f} (exact {kappa:.4f}); "
              f"d/dt p_alpha -> {rate:.4f} (sigma = {2 - alpha})")

    print("== alpha = 2: exponential growth at rate 2 ==")
    traj = rs.flow(rs.PhasePoint([1.0], [1.0]), 2.0, 3.0, 1e-4, record_every=20)
    print(f"   d ln|x| / dt = {rs.log_growth_rate(traj, (1.0, 3.0)):.6f}")
    exact = rs.quadratic_closed_form(rs.PhasePoint([1.0], [1.0]), 3.0)
    print(f"   x(3) = {traj.xs[-1, 0]:.4f} vs closed form {exact.x[0]:.4f}")

    print("== leapfrog energy conservation (dt = 1e-4, t <= 10) ==")
    for alpha, start in [(0.5, rs.PhasePoint([1.0], [0.0])),
                         (1.0, rs.PhasePoint([1.0], [0.0])),
                         (1.5, rs.PhasePoint([1.0], [3.0])),
                         (2.0, rs.PhasePoint([1.0], [-1.0]))]:
        traj = rs.flow(start, alpha, 10.0, 1e-4, record_every=200)
        print(f"   alpha={alpha}: relative drift {traj.energy_drift():.2e}")

    print("== stable manifold at alpha = 2: x0 = -xi0 decays as e^(-2t) ==")
    traj = rs.flow(rs.PhasePoint([1.0], [-1.0]), 2.0, 2.0, 1e-4, regularized=False)
    print(f"   x(2) = {traj.xs[-1, 0]:.6e} vs e^-4 = {np.exp(-4):.6e}")


if __name__ == "__main__":
    main()
