"""Experiment runners: dispatch a validated config to the library modules and
collect metrics, pass/fail checks, and CSV artifacts."""

from __future__ import annotations

import os
import numpy as np

from . import classical as cl
from . import scattering as sc
from .config import (
    ExperimentConfig,
    _axis_reals,
    _boolean,
    _mapping,
    _real,
    _reals,
    build_grid,
    build_perturbation,
    build_quadratic,
    build_repulsive,
    build_schedule,
    build_state,
    require,
)
from .errors import ConfigurationError, check_integer
from .grids import l2_norm, to_position
from .mehler import propagate_factored
from .phasespace import (
    heuristic_a_symbol,
    heuristic_bracket_identity,
    mourre_shell_scan,
    plain_hamiltonian_symbol,
    poisson_bracket,
    scan_to_csv,
)
from .potentials import sigma_alpha
from .splitstep import convergence_order, evolution_config, propagate


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Execute one experiment; returns the JSON-ready summary dict."""
    os.makedirs(out_dir, exist_ok=True)
    runner = _RUNNERS.get(cfg.kind)
    metrics, checks = runner(cfg.raw, out_dir)
    return {
        "experiment": cfg.kind,
        "inputs_digest": cfg.digest(),
        "seed": cfg.seed,
        "metrics": metrics,
        "checks": checks,
    }


def _check(name, expected, measured, tol) -> dict:
    ok = bool(abs(measured - expected) <= tol)
    return {"name": name, "expected": expected, "measured": measured, "tol": tol,
            "pass": ok}


def _bound_check(name, measured, bound) -> dict:
    return {"name": name, "expected": bound, "measured": measured, "tol": 0.0,
            "pass": bool(measured <= bound)}


def _hamiltonian_blocks(raw, grid):
    block = _mapping(require(raw, "hamiltonian", raw.get("experiment", "experiment")),
                     "hamiltonian")
    quad = build_quadratic(block["quadratic"], grid.dims) if "quadratic" in block else None
    rep = build_repulsive(block["repulsive"]) if "repulsive" in block else None
    pert = build_perturbation(block.get("perturbation"))
    if pert is not None and not callable(pert):
        if quad is not None:
            raise ConfigurationError(
                "quadratic-route experiments need a symbolic perturbation preset; "
                "raw sample tables cannot be evaluated at dilated coordinates"
            )
        if pert.size != grid.points_per_dim ** grid.dims:
            raise ConfigurationError(
                f"hamiltonian.perturbation.table must hold one value per grid point "
                f"({grid.points_per_dim ** grid.dims}), got {pert.size}")
        pert = pert.reshape(grid.shape)
    return quad, rep, pert


def _refuse_on_quadratic_route(quad, **blocks):
    """The quadratic route evolves the factorized saddle alone: a Hamiltonian
    block it would not use is refused rather than silently dropped."""
    if quad is None:
        return
    for key, value in blocks.items():
        if value is not None:
            raise ConfigurationError(
                f"hamiltonian.{key}: the quadratic (factorized) route of this experiment "
                f"cannot include it; drop hamiltonian.{key} or hamiltonian.quadratic")


def run_propagate(raw, out_dir):
    grid = build_grid(require(raw, "grid", "propagate"))
    psi0 = build_state(raw.get("state", {}), grid)
    quad, rep, pert = _hamiltonian_blocks(raw, grid)
    t = _real(require(raw, "t", "propagate"), "t")
    norm_tol = _real(raw.get("norm_tol", 1e-10), "norm_tol")
    roundtrip_tol = _real(raw.get("roundtrip_tol", 1e-8), "roundtrip_tol")
    norm0 = l2_norm(psi0)
    if quad is not None and rep is None and pert is None:
        out = propagate_factored(psi0, t, quad)
        back = propagate_factored(out, -t, quad)
    else:
        dt = _real(require(raw, "dt", "propagate"), "dt")
        cfg = evolution_config(grid, dt, repulsive=rep, quadratic=quad, perturbation=pert)
        out, _ = propagate(psi0, t, cfg)
        back, _ = propagate(out, -t, cfg)
    drift = abs(l2_norm(out) - norm0) / norm0
    rt = np.sqrt(np.sum(np.abs(back.values - to_position(psi0).values) ** 2) * out.measure)
    metrics = {"norm_drift": drift, "roundtrip_error": float(rt), "t": t}
    checks = [
        _bound_check("unitarity", drift, norm_tol),
        _bound_check("reversibility", float(rt), roundtrip_tol),
    ]
    return metrics, checks


def run_velocity(raw, out_dir):
    grid = build_grid(require(raw, "grid", "velocity"))
    psi0 = build_state(raw.get("state", {}), grid)
    quad, rep, pert = _hamiltonian_blocks(raw, grid)
    alpha = _real(require(raw, "alpha", "velocity"), "alpha")
    sigma = sigma_alpha(alpha)
    tol = _real(raw.get("tol", 0.2 * sigma), "tol")
    times = build_schedule(require(raw, "schedule", "velocity"))
    if raw.get("histogram_csv") and grid.dims > 1:
        raise ConfigurationError("histogram_csv: velocity histograms are one-dimensional; "
                                 "drop it for an n-D grid")
    _refuse_on_quadratic_route(quad, repulsive=rep, perturbation=pert)
    per_direction = _boolean(raw.get("per_direction", False), "per_direction")
    hamiltonian = quad
    if quad is None:
        dt = _real(require(raw, "dt", "velocity"), "dt")
        hamiltonian = evolution_config(grid, dt, repulsive=rep, perturbation=pert)
    trace = sc.velocity_trace(psi0, hamiltonian, alpha, times, per_direction=per_direction)
    final = float(trace.means[-1])
    rich = trace.richardson_limit() if len(trace.means) >= 2 else final
    metrics = {
        "sigma_alpha": sigma,
        "final_mean_over_t": final,
        "richardson_limit": rich,
        "distance_to_sigma": abs(final - sigma),
        "means": [float(m) for m in trace.means],
        "times": [float(t) for t in trace.times],
    }
    for ax, series in sorted(trace.per_direction.items()):
        metrics[f"direction_{ax}_final"] = float(series[-1])
    checks = [_bound_check("velocity_limit", abs(final - sigma), tol)]
    if raw.get("csv"):
        sc.velocity_trace_to_csv(trace, os.path.join(out_dir, raw["csv"]))
    if raw.get("histogram_csv"):
        sc.histograms_to_csv(trace, os.path.join(out_dir, raw["histogram_csv"]))
    return metrics, checks


def run_cook(raw, out_dir):
    grid = build_grid(require(raw, "grid", "cook"))
    psi0 = build_state(raw.get("state", {}), grid)
    quad, rep, pert = _hamiltonian_blocks(raw, grid)
    times = build_schedule(require(raw, "schedule", "cook"))
    expected = (_real(raw["expected_exponent"], "expected_exponent")
                if "expected_exponent" in raw else None)
    tol = _real(raw.get("tol", 0.3), "tol")
    _refuse_on_quadratic_route(quad, repulsive=rep)
    if pert is None:
        pert = lambda *c: 0.0 * sum(np.asarray(x) for x in c)
    elif not callable(pert):
        # a table lists V at the spatial nodes, where the split-step route samples it
        table = pert
        pert = lambda *c: table
    hamiltonian = quad
    if quad is None:
        dt = _real(require(raw, "dt", "cook"), "dt")
        hamiltonian = evolution_config(grid, dt, repulsive=rep)
    record = sc.cook_scan(psi0, hamiltonian, pert, times)
    metrics = {
        "tail_kind": record.tail_kind,
        "tail_exponent": record.tail_exponent,
        "tail_exponent_full": record.tail_exponent_full,
        "integral_estimate": record.integral_estimate,
        "truncated": record.truncated,
        "max_integrand": float(np.max(record.integrand)) if record.integrand.size else 0.0,
    }
    checks = []
    if expected is not None:
        checks.append(_check("tail_exponent", expected, record.tail_exponent, tol))
    if raw.get("csv"):
        sc.cook_record_to_csv(record, os.path.join(out_dir, raw["csv"]))
    return metrics, checks


def run_wave_operator(raw, out_dir):
    grid = build_grid(require(raw, "grid", "wave-operator"))
    psi0 = build_state(raw.get("state", {}), grid)
    quad, rep, pert = _hamiltonian_blocks(raw, grid)
    Ts = _reals(require(raw, "horizons", "wave-operator"), "horizons")
    if len(Ts) < 2:
        raise ConfigurationError(f"horizons must be a list of at least 2 times, got {Ts!r}")
    isometry_tol = _real(raw.get("isometry_tol", 1e-8), "isometry_tol")
    if quad is None:
        raise ConfigurationError("wave-operator experiment requires a quadratic block")
    if pert is None:
        raise ConfigurationError("wave-operator experiment requires a perturbation")
    _refuse_on_quadratic_route(quad, repulsive=rep)
    diffs, omegas = sc.cauchy_differences(psi0, Ts, quad, pert)
    defects = [abs(l2_norm(om) - l2_norm(psi0)) for om in omegas.values()]
    record = sc.cook_scan(psi0, quad, pert, np.geomspace(min(Ts), max(Ts), 33))
    bounds = [record.tail_integral(t1, t2) for t1, t2 in zip(Ts, Ts[1:])]
    metrics = {
        "horizons": Ts,
        "cauchy_differences": diffs,
        "cook_bounds": bounds,
        "isometry_defect": max(defects),
    }
    checks = [
        _bound_check("isometry", max(defects), isometry_tol),
        {"name": "cauchy_decreasing",
         "expected": True,
         "measured": bool(np.all(np.diff(diffs) <= 1e-8)),
         "tol": 0.0,
         "pass": bool(np.all(np.diff(diffs) <= 1e-8))},
    ]
    return metrics, checks


def run_classical(raw, out_dir):
    alpha = _real(require(raw, "alpha", "classical"), "alpha")
    dt = _real(raw.get("dt", 1e-3), "dt")
    t_final = _real(require(raw, "t_final", "classical"), "t_final")
    tol = _real(raw.get("tol", 0.03 if alpha < 2.0 else 0.02), "tol")
    start = raw.get("start")
    if start is None:
        point = cl.zero_energy_start(alpha)
    else:
        _mapping(start, "start")
        x = require(start, "x", "start")
        # x sets the dimension: one number, or a nonempty list of them
        dims = len(x) if isinstance(x, (list, tuple)) and x else 1
        point = cl.PhasePoint(_axis_reals(x, "start.x", dims),
                              _axis_reals(require(start, "xi", "start"), "start.xi", dims))
    traj = cl.flow(point, alpha, t_final, dt,
                   regularized=_boolean(raw.get("regularized", True), "regularized"),
                   record_every=raw.get("record_every", 10))
    metrics = {"energy_drift": traj.energy_drift(), "truncated": traj.truncated}
    checks = []
    window = (t_final / 2.0, t_final)
    if alpha < 2.0:
        kappa = 2.0 / (2.0 - alpha)
        fit = cl.escape_exponent(traj, window)
        metrics["kappa_estimate"] = fit["kappa_estimate"]
        metrics["kappa_expected"] = kappa
        checks.append(_check("kappa", kappa, fit["kappa_estimate"], tol * kappa))
    else:
        rate = cl.log_growth_rate(traj, window)
        metrics["log_growth_rate"] = rate
        checks.append(_check("log_growth_rate", 2.0, rate, tol * 2.0))
    if raw.get("csv"):
        cl.trajectory_to_csv(traj, os.path.join(out_dir, raw["csv"]))
    return metrics, checks


def run_mourre_scan(raw, out_dir):
    alpha = _real(require(raw, "alpha", "mourre-scan"), "alpha")
    E = _real(require(raw, "E", "mourre-scan"), "E")
    eta = _real(require(raw, "eta", "mourre-scan"), "eta")
    radius_range = tuple(_reals(raw.get("radius_range", (0.5, 50.0)), "radius_range"))
    if len(radius_range) != 2:
        raise ConfigurationError(f"radius_range must be [r_min, r_max], got {radius_range!r}")
    samples = check_integer(raw.get("samples", 10_000), "samples", minimum=1)
    check_heuristic = _boolean(raw.get("check_heuristic", True), "check_heuristic")
    result = mourre_shell_scan(alpha, E, eta, radius_range, samples)
    metrics = {
        "min_bracket": result["min_bracket"],
        "R_threshold": result["R_threshold"],
        "n_violations": int(len(result["violating_points"])),
        "target": result["target"],
        "constraint_restricted": result["constraint_restricted"],
    }
    finite = bool(np.isfinite(result["R_threshold"]))
    checks = [{"name": "finite_good_radius", "expected": True, "measured": finite,
               "tol": 0.0, "pass": finite}]
    if alpha < 2.0 and check_heuristic:
        xs = np.geomspace(max(radius_range[0], 1.0), radius_range[1], 64)
        h = plain_hamiltonian_symbol(alpha)
        a = heuristic_a_symbol(alpha)
        xi = np.sqrt(xs**alpha + E) if np.all(xs**alpha + E >= 0) else None
        if xi is not None:
            br = poisson_bracket(h, a, xs, xi)
            ident = heuristic_bracket_identity(xs, E, alpha)
            dev = float(np.max(np.abs(br - ident)))
            metrics["heuristic_identity_dev"] = dev
            checks.append(_bound_check("heuristic_identity", dev, 1e-10))
    if raw.get("csv"):
        scan_to_csv(result, os.path.join(out_dir, raw["csv"]))
    return metrics, checks


def run_convergence(raw, out_dir):
    grid = build_grid(require(raw, "grid", "convergence"))
    psi0 = build_state(raw.get("state", {}), grid)
    quad, rep, pert = _hamiltonian_blocks(raw, grid)
    t = _real(require(raw, "t", "convergence"), "t")
    dts = _reals(require(raw, "dt_sequence", "convergence"), "dt_sequence")
    if len(dts) < 4:
        raise ConfigurationError(f"dt_sequence must be a list of at least 4 steps, got {dts!r}")
    tol = _real(raw.get("tol", 0.1), "tol")
    cfg = evolution_config(grid, max(dts), repulsive=rep, quadratic=quad, perturbation=pert)
    result = convergence_order(psi0, t, cfg, dts)
    metrics = {
        "slope": result["slope"],
        "errors": [float(e) for e in result["errors"]],
        "dts": [float(d) for d in result["dts"]],
        "floor_flagged": result["floor_flagged"],
    }
    checks = [_check("strang_order", 2.0, result["slope"], tol)]
    return metrics, checks


_RUNNERS = {
    "propagate": run_propagate,
    "velocity": run_velocity,
    "cook": run_cook,
    "wave-operator": run_wave_operator,
    "classical": run_classical,
    "mourre-scan": run_mourre_scan,
    "convergence": run_convergence,
}
