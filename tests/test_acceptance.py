"""Acceptance suite: one test per quantitative criterion, each printing a
pass/fail line.  Tolerances are pinned here and nowhere else."""

import numpy as np

import repscat as rs
from repscat.phasespace import (
    a2_bracket_closed_form,
    a2_symbol,
    hamiltonian_symbol,
    heuristic_a_symbol,
    heuristic_bracket_identity,
    plain_hamiltonian_symbol,
    poisson_bracket,
    v_alpha_symbol,
)
from repscat.potentials import bracket_x, preset_log_power, preset_power
from repscat.scattering import cauchy_differences

HYPER = rs.QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,))
STARK = rs.QuadraticSpec(dims=1, n_E=1, fields=(1.0,))
LOGW2 = preset_log_power(1.0, 2.0)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _l2(a, b):
    return float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.measure))


def test_criterion_1_unitarity_and_reversibility():
    results = []

    g = rs.make_grid(1, 1024, 20.0)
    psi = rs.gaussian(g, momentum=0.3)
    out = rs.propagate_factored(psi, 0.7, HYPER)
    drift_m = abs(rs.l2_norm(out) - 1.0)
    back = rs.propagate_factored(out, -0.7, HYPER)
    rt_m = _l2(back, psi)
    results.append(("mehler", drift_m, rt_m))

    cfg = rs.evolution_config(rs.make_grid(1, 512, 20.0), 1e-3,
                              repulsive=rs.RepulsiveSpec(1.0))
    psi_s = rs.gaussian(cfg.grid)
    fwd, _ = rs.propagate(psi_s, 1.0, cfg)
    drift_s = abs(rs.l2_norm(fwd) - 1.0)
    back_s, _ = rs.propagate(fwd, -1.0, cfg)
    rt_s = _l2(back_s, psi_s)
    results.append(("splitstep", drift_s, rt_s))

    g_a = rs.make_grid(1, 512, 16.0)
    psi_a = rs.gaussian(g_a)
    fwd_a = rs.avron_herbst(psi_a, 1.0, 1.0)
    drift_a = abs(rs.l2_norm(fwd_a) - 1.0)
    rt_a = _l2(rs.avron_herbst(fwd_a, -1.0, 1.0), psi_a)
    results.append(("avron_herbst", drift_a, rt_a))

    worst_drift = max(r[1] for r in results)
    worst_rt = max(r[2] for r in results)
    _report("criterion-1 unitarity/reversibility",
            worst_drift <= 1e-10 and worst_rt <= 1e-8,
            f"norm drift {worst_drift:.2e} (tol 1e-10), roundtrip {worst_rt:.2e} (tol 1e-8)")


def test_criterion_2_splitstep_oracle_and_order():
    g = rs.make_grid(1, 64, 8.0)
    psi = rs.gaussian(g)
    errs = {}
    for alpha in (1.0, 2.0):
        cfg = rs.evolution_config(g, 1e-4, repulsive=rs.RepulsiveSpec(alpha))
        num, _ = rs.propagate(psi, 0.1, cfg)
        ref = rs.dense_oracle(psi, 0.1, cfg)
        errs[alpha] = _l2(num, ref)
    cfg1 = rs.evolution_config(g, 4e-3, repulsive=rs.RepulsiveSpec(1.0))
    order = rs.convergence_order(psi, 0.1, cfg1, [4e-3, 2e-3, 1e-3, 5e-4])
    ok = max(errs.values()) <= 1e-6 and abs(order["slope"] - 2.0) <= 0.1
    _report("criterion-2 split-step oracle",
            ok,
            f"L2 err alpha=1: {errs[1.0]:.2e}, alpha=2: {errs[2.0]:.2e} (tol 1e-6); "
            f"Strang slope {order['slope']:.3f} (2.0 +- 0.1)")


def test_criterion_3_mehler_oracle():
    g = rs.make_grid(1, 128, 12.0)
    psi = rs.gaussian(g, momentum=0.5)
    kerr = _l2(rs.propagate_factored(psi, 0.3, HYPER),
               rs.propagate_kernel(psi, 0.3, HYPER))

    gf = rs.make_grid(1, 512, 20.0)
    psif = rs.gaussian(gf)
    free = rs.QuadraticSpec(dims=1)
    out = rs.propagate_factored(psif, 1.0, free)
    x = gf.nodes
    exact = np.pi**-0.25 / np.sqrt(1 + 2j) * np.exp(-(x**2) / (2 * (1 + 2j)))
    ferr = float(np.sqrt(np.sum(np.abs(out.values - exact) ** 2) * gf.spacing))

    gg = rs.make_grid(1, 512, 14.0)
    psig = rs.gaussian(gg, momentum=0.3)
    one = rs.propagate_factored(rs.propagate_factored(psig, 0.3, HYPER), 0.2, HYPER)
    two = rs.propagate_factored(psig, 0.5, HYPER)
    gerr = _l2(one, two)

    ok = kerr <= 1e-6 and ferr <= 1e-8 and gerr <= 1e-8
    _report("criterion-3 Mehler oracle",
            ok,
            f"kernel {kerr:.2e} (1e-6), free-Gaussian {ferr:.2e} (1e-8), "
            f"group law {gerr:.2e} (1e-8)")


def test_criterion_4_cross_propagator():
    g = rs.make_grid(1, 1024, 30.0)
    psi = rs.gaussian(g)
    cfg = rs.evolution_config(g, 1e-4, repulsive=rs.RepulsiveSpec(2.0, regularized=False))
    ss, _ = rs.propagate(psi, 0.5, cfg)
    mh = rs.propagate_factored(psi, 0.5, HYPER)
    err = _l2(ss, mh)
    _report("criterion-4 cross-propagator", err <= 1e-6,
            f"split-step vs Mehler at t=0.5: {err:.2e} (tol 1e-6)")


def test_criterion_5_classical_growth():
    details = []
    ok = True
    for alpha in (0.5, 1.0, 1.5):
        kappa = 2.0 / (2.0 - alpha)
        T = 160.0
        traj = rs.flow(rs.zero_energy_start(alpha), alpha, T, 1e-3, record_every=50)
        fit = rs.escape_exponent(traj, (T / 2, T))
        rel = abs(fit - kappa) / kappa
        ok &= rel <= 0.03
        details.append(f"kappa({alpha})={fit:.3f} vs {kappa:.3f} ({100*rel:.1f}%)")
    traj2 = rs.flow(rs.PhasePoint([1.0], [1.0]), 2.0, 3.0, 1e-4, record_every=20)
    rate = rs.log_growth_rate(traj2, (1.0, 3.0))
    ok &= abs(rate - 2.0) <= 0.04
    details.append(f"alpha=2 rate {rate:.4f} (2 +- 2%)")
    drifts = []
    for alpha, start in [(0.5, rs.PhasePoint([1.0], [0.0])),
                         (1.0, rs.PhasePoint([1.0], [0.0])),
                         (1.5, rs.PhasePoint([1.0], [3.0])),
                         (2.0, rs.PhasePoint([1.0], [-1.0]))]:
        tr = rs.flow(start, alpha, 10.0, 1e-4, record_every=100)
        drifts.append(tr.energy_drift())
    ok &= max(drifts) <= 1e-6
    details.append(f"max energy drift {max(drifts):.1e} (tol 1e-6)")
    _report("criterion-5 classical growth", ok, "; ".join(details))


def test_criterion_6_asymptotic_velocity():
    g = rs.make_grid(1, 512, 12.0)
    trace2 = rs.velocity_trace(rs.gaussian(g), HYPER, 2.0, [2.0, 4.0, 6.0, 8.0, 10.0])
    dist2 = abs(trace2.means[-1] - 2.0)
    monotone = bool(np.all(np.diff(trace2.means) > 0))

    alpha = 1.0
    L, n = rs.suggest_grid(alpha, 8.0, 5.0)
    cfg = rs.evolution_config(rs.make_grid(1, n, L), 2e-3, repulsive=rs.RepulsiveSpec(alpha))
    trace1 = rs.velocity_trace(rs.gaussian(cfg.grid), cfg, alpha, [2.0, 4.0, 6.0, 8.0])
    rich = trace1.richardson_limit()
    rel1 = abs(rich - 1.0)

    masses = rs.minimal_maximal_velocity_mass(trace2, 1.0, (3.0, 4.0))
    below = masses["mass_below"][-1]
    window = masses["mass_in_window"][-1]

    ok = dist2 <= 0.2 and monotone and rel1 <= 0.15 and below <= 0.05 and window <= 0.05
    _report("criterion-6 asymptotic velocity",
            ok,
            f"alpha=2: |<ln<x>>/t - 2| = {dist2:.3f} (0.2), monotone={monotone}; "
            f"alpha=1 extrapolated {rich:.3f} (1 +- 15%); masses below/window "
            f"{below:.1e}/{window:.1e} (0.05)")


def test_criterion_7_per_direction_velocity():
    spec = rs.QuadraticSpec(dims=2, n_minus=2, omegas=(1.0, 2.0))
    g = rs.make_grid(2, 256, 8.0)
    trace = rs.velocity_trace(rs.gaussian(g), spec, 2.0, [6.0, 8.0, 10.0],
                              per_direction=True)
    d0 = abs(trace.per_direction[0][-1] - 2.0) / 2.0
    d1 = abs(trace.per_direction[1][-1] - 4.0) / 4.0
    dg = abs(trace.means[-1] - 4.0) / 4.0
    ok = d0 <= 0.10 and d1 <= 0.10 and dg <= 0.10
    _report("criterion-7 per-direction velocities",
            ok,
            f"ln<x_1>/t: {trace.per_direction[0][-1]:.3f} vs 2 ({100*d0:.1f}%); "
            f"ln<x_2>/t: {trace.per_direction[1][-1]:.3f} vs 4 ({100*d1:.1f}%); "
            f"global: {trace.means[-1]:.3f} vs 4 ({100*dg:.1f}%)")


def test_criterion_8_cook_integrability():
    g = rs.make_grid(1, 2048, 12.0)
    psi = rs.gaussian(g)
    rec = rs.cook_scan(psi, HYPER, LOGW2, np.geomspace(2.0, 20.0, 25))
    slope_w = rec.tail_exponent_full

    Ts = [2.0, 4.0, 6.0, 8.0]
    diffs, omegas = cauchy_differences(psi, Ts, HYPER, LOGW2)
    defect = max(abs(rs.l2_norm(om) - 1.0) for om in omegas.values())
    decreasing = bool(np.all(np.diff(diffs) <= 1e-8))
    bounded = True
    for (t1, t2), d in zip(zip(Ts, Ts[1:]), diffs):
        fine = rs.cook_scan(psi, HYPER, LOGW2, np.linspace(t1, t2, 65))
        from scipy.integrate import simpson

        bound = simpson(fine.integrand, x=fine.times)
        bounded &= d <= bound * 1.02 + 1e-8

    borderline = lambda x: 1.0 / (1.0 + np.log(bracket_x(x)))
    rec_b = rs.cook_scan(psi, HYPER, borderline, np.geomspace(2.0, 20.0, 25))
    ok = (slope_w <= -1.5 and decreasing and bounded and defect <= 1e-8
          and rec_b.tail_exponent >= -1.1)
    _report("criterion-8 Cook integrability",
            ok,
            f"W tail slope {slope_w:.2f} (<= -1.5); Cauchy {['%.3e' % d for d in diffs]} "
            f"decreasing={decreasing} bounded={bounded}; isometry defect {defect:.1e} "
            f"(1e-8); borderline tail {rec_b.tail_exponent:.2f} (>= -1.1)")


def test_criterion_9_stark_sector():
    g = rs.make_grid(1, 512, 16.0)
    psi = rs.gaussian(g)
    worst = 0.0
    for t in (0.5, 1.0):
        worst = max(worst, _l2(rs.avron_herbst(psi, t, 1.0),
                               rs.propagate_factored(psi, t, STARK)))
    gg = rs.make_grid(1, 1024, 14.0)
    rec = rs.cook_scan(rs.gaussian(gg), STARK, preset_power(1.0, 1.0),
                       np.geomspace(2.0, 16.0, 21))
    dev = abs(rec.tail_exponent - (-2.0))
    ok = worst <= 1e-8 and dev <= 0.2
    _report("criterion-9 Stark sector",
            ok,
            f"AH vs factored {worst:.2e} (1e-8); <x>^-1 coupling exponent "
            f"{rec.tail_exponent:.3f} (-2 +- 0.2)")


def test_criterion_10_mourre_scans():
    ok = True
    worst_r = 0.0
    for alpha in (1.0, 1.5, 2.0):
        for E in (-1.0, 0.0, 1.0):
            for eta in (0.1, 0.2):
                out = rs.mourre_shell_scan(alpha, E, eta, radius_range=(0.2, 60.0),
                                           samples=10_000)
                finite = np.isfinite(out["R_threshold"])
                ok &= finite
                if finite:
                    worst_r = max(worst_r, out["R_threshold"])
                    pts = out["points"]
                    beyond = np.abs(pts[:, 0]) >= out["R_threshold"] - 1e-12
                    ok &= bool(np.all(pts[beyond, 2] >= out["target"] - 1e-12))
    dev = 0.0
    rng = np.random.default_rng(7)
    for alpha in (0.5, 1.0, 1.5, 2.0):
        h = plain_hamiltonian_symbol(alpha)
        a = heuristic_a_symbol(alpha)
        x = rng.uniform(1.0, 30.0, size=2000)
        E = rng.uniform(-0.5, 1.5, size=2000)
        keep = x**alpha + E > 0
        x, E = x[keep], E[keep]
        xi = np.sqrt(x**alpha + E)
        br = poisson_bracket(h, a, x, xi)
        dev = max(dev, float(np.max(np.abs(br - heuristic_bracket_identity(x, E, alpha)))))
    ok &= dev <= 1e-10
    _report("criterion-10 Mourre shell scans",
            ok,
            f"finite good-radius up to R={worst_r:.2f} for all 18 (alpha, E, eta); "
            f"heuristic identity dev {dev:.1e} (1e-10)")


def test_criterion_11_symbol_consistency():
    rng = np.random.default_rng(11)
    worst_accel = 0.0
    for alpha in (0.5, 1.0, 1.5, 2.0):
        h = hamiltonian_symbol(alpha)
        v = v_alpha_symbol(alpha)
        x = rng.uniform(-8, 8, size=1000)
        xi = rng.uniform(-8, 8, size=1000)
        br = poisson_bracket(h, v, x, xi)
        worst_accel = max(worst_accel,
                          float(np.max(np.abs(br - rs.symbol_accel_alpha(x, xi, alpha)))))

    h2 = hamiltonian_symbol(2.0)
    a2 = a2_symbol()
    x = rng.uniform(-6, 6, size=1000)
    xi = rng.uniform(-6, 6, size=1000)
    worst_a2 = float(np.max(np.abs(poisson_bracket(h2, a2, x, xi)
                                   - a2_bracket_closed_form(x, xi))))

    alpha = 1.0
    traj = rs.flow(rs.zero_energy_start(alpha), alpha, 6.0, 1e-4, record_every=10)
    hsym = hamiltonian_symbol(alpha)
    vsym = v_alpha_symbol(alpha)
    vals = vsym(traj.xs[:, 0], traj.xis[:, 0])[0]
    dadt = np.gradient(vals, traj.times)
    br = poisson_bracket(hsym, vsym, traj.xs[:, 0], traj.xis[:, 0])
    flow_dev = float(np.max(np.abs(dadt[2:-2] - br[2:-2])))

    ok = worst_accel <= 1e-8 and worst_a2 <= 1e-8 and flow_dev <= 5e-4
    _report("criterion-11 symbol consistency",
            ok,
            f"accel vs bracket {worst_accel:.1e} (1e-8); a2 closed form {worst_a2:.1e} "
            f"(1e-8); flow derivative {flow_dev:.1e} (integrator tol 5e-4)")
