"""The Stark sector: constant-field dynamics as gauged free motion.

exp(-it(-Laplacian + Ex)) equals a phase times the free evolution evaluated
at the drifted point x + t^2 E.  Two independent implementations (the gauge
composition and the chirp/dilation factorization) agree to near machine
precision, and the drift makes any <x>^-1-type coupling decay like t^-2.
"""

import numpy as np

import repscat as rs
from repscat.potentials import preset_power

STARK = rs.QuadraticSpec(dims=1, n_E=1, fields=(1.0,))


def main():
    grid = rs.make_grid(1, 512, 16.0)
    psi = rs.gaussian(grid)
    print("== gauge composition vs factored propagator ==")
    for t in (0.5, 1.0):
        a = rs.avron_herbst(psi, t, 1.0)
        b = rs.propagate_factored(psi, t, STARK)
        err = np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * grid.spacing)
        print(f"   t = {t}: L2 difference {err:.3e}, "
              f"<x> = {rs.expectation(a, grid.nodes):+.4f} (drift -t^2 E = {-t**2:+.2f})")

    print("== drift-induced decay of a <x>^-1 coupling ==")
    gg = rs.make_grid(1, 1024, 14.0)
    rec = rs.cook_scan(rs.gaussian(gg), STARK, preset_power(1.0, 1.0),
                       np.geomspace(2.0, 16.0, 21))
    print(f"   ||<x>^-1 psi(t)|| ~ t^{rec.tail_exponent:+.3f} (drift predicts -2)")
    print(f"   tail integral to infinity: {rec.integral_estimate:.4f}")


if __name__ == "__main__":
    main()
