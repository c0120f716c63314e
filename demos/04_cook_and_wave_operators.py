"""Cook's method at desk scale.

The wave operator exists when t -> ||V exp(-itH0) phi|| is integrable.  The
dilation inside the exact propagator makes this quantity computable on a
fixed lattice for arbitrarily large t, so we can watch the decay class of V
decide the outcome: log-squared couplings decay like t^-2 (integrable),
borderline p_alpha^-1 couplings decay like t^-1 (not integrable), and
compactly supported couplings die exponentially.  Finite-time wave operators
then converge with Cauchy increments controlled by the integrand's tail.
"""

import numpy as np

import repscat as rs
from repscat.potentials import bracket_x, preset_compact_bump, preset_log_power
from repscat.scattering import _simpson, cauchy_differences

HYPER = rs.QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,))


def main():
    grid = rs.make_grid(1, 2048, 12.0)
    phi = rs.gaussian(grid)
    schedule = np.geomspace(2.0, 20.0, 25)

    print("== integrand tails ==")
    couplings = {
        "W = <ln<x>>^-2 (short range)": (preset_log_power(1.0, 2.0), schedule),
        "V = (1 + ln<x>)^-1 (borderline)": (lambda x: 1.0 / (1.0 + np.log(bracket_x(x))),
                                            schedule),
        "V = compact bump": (preset_compact_bump(1.0, 2.0), np.linspace(1.0, 6.0, 21)),
    }
    for name, (fn, sched) in couplings.items():
        rec = rs.cook_scan(phi, HYPER, fn, sched)
        integral = rec.integral_estimate
        print(f"   {name}: tail ~ "
              + (f"t^{rec.tail_exponent:+.2f}" if rec.tail_kind == "power"
                 else f"exp(-{rec.tail_exponent:.2f} t)")
              + f", integral estimate {integral if np.isfinite(integral) else 'divergent'}")

    print("== finite-time wave operators Omega_T, W = <ln<x>>^-2 ==")
    Ts = [2.0, 4.0, 6.0, 8.0]
    diffs, omegas = cauchy_differences(phi, Ts, HYPER, preset_log_power(1.0, 2.0))
    for om in omegas.values():
        assert abs(rs.l2_norm(om) - 1.0) < 1e-8
    print("   isometry holds to 1e-8 at every horizon")
    for (t1, t2), d in zip(zip(Ts, Ts[1:]), diffs):
        fine = rs.cook_scan(phi, HYPER, preset_log_power(1.0, 2.0),
                            np.linspace(t1, t2, 65))
        bound = _simpson(fine.integrand, fine.times)
        print(f"   ||Omega_{t2:g} - Omega_{t1:g}|| = {d:.4e}  <=  "
              f"integral bound {bound:.4e}")


if __name__ == "__main__":
    main()
