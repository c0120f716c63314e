"""Experiment runners: dispatch a config to the library modules and collect
metrics, pass/fail checks, and CSV tables.  The runners receive the values
that config.read_config has checked (ExperimentConfig.values, read once per
config), so they only build the state and run; they write no file."""

from __future__ import annotations

import os

import numpy as np

from . import classical as cl
from . import scattering as sc
from .config import KINDS, ExperimentConfig
from .errors import ConfigurationError
from .grids import gaussian, l2_distance, l2_norm
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


#: Bounds of the roundoff-level checks of propagate and wave-operator runs.
NORM_TOL = 1e-10
ROUNDTRIP_TOL = 1e-8
ISOMETRY_TOL = 1e-8


def make_output_dir(path: str):
    """Create the directory `path` (and its parents) unless it exists."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"{path}: cannot create output directory: {exc.strerror or exc}") from exc


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Execute one experiment, then create out_dir and write its named
    (file name, writer, data) tables there; returns the summary dict.  A run
    refused before it returns leaves no out_dir."""
    metrics, checks, tables = _RUNNERS[cfg.kind](cfg.values)
    make_output_dir(out_dir)
    for name, writer, data in tables:
        if name:
            writer(data, os.path.join(out_dir, name))
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


def _flag_check(name, ok) -> dict:
    return {"name": name, "expected": True, "measured": ok, "tol": 0.0, "pass": ok}


def _on_grid(v):
    """Grid, initial state and Hamiltonian blocks of a checked config."""
    grid, state, ham = v["grid"], v["state"], v["hamiltonian"]
    psi0 = gaussian(grid, **state)
    return grid, psi0, ham["quadratic"], ham["repulsive"], ham["perturbation"]


def run_propagate(v):
    grid, psi0, quad, rep, pert = _on_grid(v)
    t = v["t"]
    norm0 = l2_norm(psi0)
    if quad is not None and rep is None and pert is None:
        evolve = lambda psi, s: propagate_factored(psi, s, quad)
    else:
        cfg = evolution_config(grid, v["dt"], repulsive=rep, quadratic=quad, perturbation=pert)
        evolve = lambda psi, s: propagate(psi, s, cfg)[0]
    out = evolve(psi0, t)
    # at most two states live at once: psi0 is dropped for the way back and
    # rebuilt (deterministically) for the round-trip difference
    del psi0
    drift = abs(l2_norm(out) - norm0) / norm0
    back = evolve(out, -t)
    del out
    rt = l2_distance(back, gaussian(grid, **v["state"]))
    metrics = {"norm_drift": drift, "roundtrip_error": rt, "t": t}
    checks = [
        _bound_check("unitarity", drift, NORM_TOL),
        _bound_check("reversibility", rt, ROUNDTRIP_TOL),
    ]
    return metrics, checks, []


def run_velocity(v):
    grid, psi0, quad, rep, pert = _on_grid(v)
    alpha = v["alpha"]
    sigma = sigma_alpha(alpha)
    tol = 0.2 * sigma if v["tol"] is None else v["tol"]
    hamiltonian = (quad if quad is not None
                   else evolution_config(grid, v["dt"], repulsive=rep, perturbation=pert))
    trace = sc.velocity_trace(psi0, hamiltonian, alpha, v["schedule"],
                              per_direction=v["per_direction"])
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
    return metrics, checks, [(v["csv"], sc.velocity_trace_to_csv, trace),
                             (v["histogram_csv"], sc.histograms_to_csv, trace)]


def run_cook(v):
    grid, psi0, quad, rep, pert = _on_grid(v)
    if pert is None:
        pert = lambda *c: 0.0 * sum(np.asarray(x) for x in c)
    elif not callable(pert):
        # a table lists V at the spatial nodes, where the split-step route samples it
        table = pert
        pert = lambda *c: table
    hamiltonian = quad if quad is not None else evolution_config(grid, v["dt"], repulsive=rep)
    record = sc.cook_scan(psi0, hamiltonian, pert, v["schedule"])
    metrics = {
        "tail_kind": record.tail_kind,
        "tail_exponent": record.tail_exponent,
        "tail_exponent_full": record.tail_exponent_full,
        "integral_estimate": record.integral_estimate,
        "truncated": record.truncated,
        "max_integrand": float(np.max(record.integrand)) if record.integrand.size else 0.0,
    }
    checks = []
    if v["expected_exponent"] is not None:
        checks.append(_check("tail_exponent", v["expected_exponent"], record.tail_exponent,
                             v["tol"]))
    return metrics, checks, [(v["csv"], sc.cook_record_to_csv, record)]


def run_wave_operator(v):
    grid, psi0, quad, rep, pert = _on_grid(v)
    Ts = v["horizons"]
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
        _bound_check("isometry", max(defects), ISOMETRY_TOL),
        _flag_check("cauchy_decreasing", bool(np.all(np.diff(diffs) <= 1e-8))),
        # ||Omega(T2) phi - Omega(T1) phi|| <= int_T1^T2 ||V e^{-itH0} phi|| dt
        _flag_check("cook_inequality", all(d <= b + 1e-8 for d, b in zip(diffs, bounds))),
    ]
    return metrics, checks, []


def run_classical(v):
    alpha, t_final, start = v["alpha"], v["t_final"], v["start"]
    tol = (0.03 if alpha < 2.0 else 0.02) if v["tol"] is None else v["tol"]
    point = cl.zero_energy_start(alpha) if start is None else start
    traj = cl.flow(point, alpha, t_final, v["dt"], regularized=v["regularized"],
                   record_every=v["record_every"])
    metrics = {"energy_drift": traj.energy_drift(), "truncated": traj.truncated}
    checks = []
    window = (t_final / 2.0, t_final)
    if alpha < 2.0:
        kappa = 2.0 / (2.0 - alpha)
        estimate = cl.escape_exponent(traj, window)
        metrics["kappa_estimate"] = estimate
        metrics["kappa_expected"] = kappa
        checks.append(_check("kappa", kappa, estimate, tol * kappa))
    else:
        rate = cl.log_growth_rate(traj, window)
        metrics["log_growth_rate"] = rate
        checks.append(_check("log_growth_rate", 2.0, rate, tol * 2.0))
    return metrics, checks, [(v["csv"], cl.trajectory_to_csv, traj)]


def run_mourre_scan(v):
    alpha, E = v["alpha"], v["E"]
    radius_range = v["radius_range"]
    result = mourre_shell_scan(alpha, E, v["eta"], radius_range, v["samples"])
    metrics = {
        "min_bracket": result["min_bracket"],
        "R_threshold": result["R_threshold"],
        "n_violations": int(len(result["violating_points"])),
        "target": result["target"],
        "constraint_restricted": result["constraint_restricted"],
    }
    checks = [_flag_check("finite_good_radius", bool(np.isfinite(result["R_threshold"])))]
    # the un-cut bracket on the shell xi^2 = x^alpha + E, wherever that shell is real
    xs = np.geomspace(max(radius_range[0], 1.0), radius_range[1], 64)
    if alpha < 2.0 and np.all(xs**alpha + E >= 0):
        br = poisson_bracket(plain_hamiltonian_symbol(alpha), heuristic_a_symbol(alpha), xs,
                             np.sqrt(xs**alpha + E))
        dev = float(np.max(np.abs(br - heuristic_bracket_identity(xs, E, alpha))))
        metrics["heuristic_identity_dev"] = dev
        checks.append(_bound_check("heuristic_identity", dev, 1e-10))
    return metrics, checks, [(v["csv"], scan_to_csv, result)]


def run_convergence(v):
    grid, psi0, quad, rep, pert = _on_grid(v)
    dts = v["dt_sequence"]
    cfg = evolution_config(grid, max(dts), repulsive=rep, quadratic=quad, perturbation=pert)
    result = convergence_order(psi0, v["t"], cfg, dts)
    metrics = {
        "slope": result["slope"],
        "errors": [float(e) for e in result["errors"]],
        "dts": [float(d) for d in result["dts"]],
        "floor_flagged": result["floor_flagged"],
    }
    checks = [_check("strang_order", 2.0, result["slope"], v["tol"])]
    return metrics, checks, []


#: One runner per kind in config.KINDS, named after it; a missing one fails at import.
_RUNNERS = {kind: globals()["run_" + kind.replace("-", "_")] for kind in KINDS}
