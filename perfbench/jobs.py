"""The three workloads: which jobs each runs in its round-robin pass, how
each job's inputs are drawn from the seed, and the checks on its outputs.

In-process jobs keep the sample configs' grids, dt, schedules and horizons,
so the work per job is fixed; only the state (Gaussian width in [0.9, 1.1],
the propagation time of the factored jobs, the classical start on the
zero-energy shell) is drawn anew on every repetition.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIG_DIR = os.path.join(ROOT, "configs")
REFERENCE = os.path.join(HERE, "reference", "cold_start.json")

#: Sample configs a cold-start client cycles through, in order.
COLD_CONFIGS = ("propagate_mehler", "velocity_alpha2", "cook_stark", "mourre_scan")

#: Relative tolerance of every reference comparison.
REFERENCE_RTOL = 1e-10
#: Roundoff-level error metrics: an error against a unit norm, compared on an
#: absolute scale of 1 (relative to their own ~1e-11 size they are noise).
ROUNDOFF_METRICS = ("norm_drift", "roundtrip_error", "heuristic_identity_dev")


def _sample(name: str) -> dict:
    from repscat.config import load_config

    return load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")).raw


def _with_width(raw: dict, rng) -> dict:
    out = copy.deepcopy(raw)
    out.setdefault("state", {})["width"] = float(rng.uniform(0.9, 1.1))
    return out


def _factored(dims: int, points: int, rng) -> dict:
    return {
        "experiment": "propagate",
        "grid": {"dims": dims, "points": points, "half_width": 20.0},
        "hamiltonian": {"quadratic": {"n_minus": 1, "omegas": [1.0]}},
        "state": {"momentum": 0.3, "width": float(rng.uniform(0.9, 1.1))},
        "t": float(rng.uniform(0.3, 0.7)),
    }


def _velocity_saddle_2d(rng) -> dict:
    return {
        "experiment": "velocity",
        "alpha": 2.0,
        "grid": {"dims": 2, "points": 256, "half_width": 12.0},
        "hamiltonian": {"quadratic": {"n_minus": 2, "omegas": [1.0, 1.0]}},
        "state": {"width": float(rng.uniform(0.9, 1.1))},
        "schedule": {"start": 0.25, "stop": 10.0, "count": 40, "spacing": "linear"},
        "per_direction": True,
    }


def _strang_2d(rng) -> dict:
    return {
        "experiment": "propagate",
        "grid": {"dims": 2, "points": 256, "half_width": 40.0},
        "hamiltonian": {"repulsive": {"alpha": 1.0}},
        "state": {"width": float(rng.uniform(0.9, 1.1))},
        "t": 0.5,
        "dt": 2.0e-3,
    }


def _classical(raw: dict, rng) -> dict:
    out = copy.deepcopy(raw)
    x0 = float(rng.uniform(0.8, 1.2))
    xi0 = (1.0 + x0**2) ** (float(out["alpha"]) / 4.0)  # h(x0, xi0) = 0
    out["start"] = {"x": [x0], "xi": [xi0]}
    return out


def _unitary_roundtrip(summaries) -> list:
    m = summaries[0]["metrics"]
    bad = []
    if not m["norm_drift"] <= 1e-10:
        bad.append(f"norm drift {m['norm_drift']:.3e} > 1e-10")
    if not m["roundtrip_error"] <= 1e-8:
        bad.append(f"round trip {m['roundtrip_error']:.3e} > 1e-8")
    return bad


def _saddle_velocity(summaries) -> list:
    m = summaries[0]["metrics"]
    bad = []
    if not abs(m["final_mean_over_t"] - 2.0) <= 0.2:
        bad.append(f"|final - 2| = {abs(m['final_mean_over_t'] - 2.0):.3g} > 0.2")
    d0, d1 = m["direction_0_final"], m["direction_1_final"]
    if not abs(d0 - d1) <= 1e-10 * max(abs(d0), 1.0):
        bad.append(f"direction traces differ: {d0!r} vs {d1!r}")
    return bad


@dataclass(frozen=True)
class Job:
    """One unit of a round-robin pass: draw(rng, samples) -> raw configs,
    and invariants(summaries) -> failure messages beyond the configs' own
    checks."""

    name: str
    draw: Callable
    invariants: Callable = lambda summaries: []


DILATION = (
    Job("wave_operator", lambda rng, s: [_with_width(s["wave_operator"], rng)]),
    Job("factored_1d", lambda rng, s: [_factored(1, 1024, rng)], _unitary_roundtrip),
    Job("factored_2d", lambda rng, s: [_factored(2, 512, rng)], _unitary_roundtrip),
    Job("velocity_saddle_2d", lambda rng, s: [_velocity_saddle_2d(rng)], _saddle_velocity),
    Job("sample_1d", lambda rng, s: [_with_width(s[n], rng) for n in
                                     ("cook_log_coupling", "cook_stark",
                                      "velocity_alpha2", "propagate_mehler")]),
)

TIME_STEPPING = (
    Job("velocity_alpha1", lambda rng, s: [_with_width(s["velocity_alpha1"], rng)]),
    Job("strang_2d", lambda rng, s: [_strang_2d(rng)], _unitary_roundtrip),
    Job("convergence", lambda rng, s: [_with_width(s["convergence"], rng)]),
    Job("classical_kappa", lambda rng, s: [_classical(s["classical_kappa"], rng)]),
)

IN_PROCESS = {"dilation": DILATION, "time-stepping": TIME_STEPPING}
WORKLOADS = ("cold-start", "dilation", "time-stepping")


def dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class InProcessRunner:
    """Runs one in-process workload's jobs through experiments.run_experiment."""

    def __init__(self, workload: str, seed: int, rng, run_dir: str):
        from repscat import experiments
        from repscat.config import ExperimentConfig

        self.jobs = IN_PROCESS[workload]
        self.seed = seed
        self.rng = rng
        self.run_dir = run_dir
        self._config = ExperimentConfig
        self._experiments = experiments
        names = ("wave_operator", "cook_log_coupling", "cook_stark", "velocity_alpha2",
                 "propagate_mehler", "velocity_alpha1", "convergence", "classical_kappa")
        self.samples = {n: _sample(n) for n in names}

    def run(self, job: Job):
        """(wall seconds, failure messages, bytes written); inputs are drawn
        before the clock starts."""
        raws = job.draw(self.rng, self.samples)
        out_dir = os.path.join(self.run_dir, job.name)
        os.makedirs(out_dir, exist_ok=True)
        t0 = perf_counter()
        try:
            summaries = [self._experiments.run_experiment(
                self._config(raw["experiment"], raw, self.seed), out_dir) for raw in raws]
        except Exception as exc:  # a failed job is reported, not fatal
            return math.inf, [f"{job.name}: {type(exc).__name__}: {exc}"], 0
        elapsed = perf_counter() - t0
        failures = [f"{job.name}: check {c['name']} failed (measured {c['measured']})"
                    for s in summaries for c in s["checks"] if not c["pass"]]
        failures += [f"{job.name}: {msg}" for msg in job.invariants(summaries)]
        return elapsed, failures, dir_bytes(out_dir)


def _close(ref, got, path: str, key: str = "") -> list:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys differ"]
        return [m for k in ref for m in _close(ref[k], got[k], f"{path}.{k}", k)]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: length differs"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in _close(r, g, f"{path}[{i}]", key)]
    if isinstance(ref, (bool, str)) or ref is None or isinstance(got, (bool, str)):
        return [] if ref == got else [f"{path}: {got!r} != reference {ref!r}"]
    scale = max(abs(ref), 1.0) if key in ROUNDOFF_METRICS else abs(ref)
    if abs(got - ref) <= REFERENCE_RTOL * scale:
        return []
    return [f"{path}: {got!r} differs from reference {ref!r}"]


class ColdStartRunner:
    """Runs `python -m repscat.cli run <config> --quiet` as fresh processes."""

    def __init__(self, seed: int, run_dir: str, python: str, env: dict):
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)
        self.seed = seed
        self.run_dir = run_dir
        self.python = python
        self.env = env

    def run(self, name: str, spans_path: str = None):
        """(wall seconds, failure messages, bytes written) of one request."""
        out_dir = os.path.join(self.run_dir, name)
        os.makedirs(out_dir, exist_ok=True)
        argv = ["run", os.path.join(CONFIG_DIR, f"{name}.yaml"), "--quiet",
                "--out", out_dir, "--seed", str(self.seed)]
        if spans_path:
            cmd = [self.python, os.path.join(HERE, "cli_traced.py"), spans_path, *argv]
        else:
            cmd = [self.python, "-m", "repscat.cli", *argv]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            return math.inf, [f"{name}: timed out"], 0
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            return math.inf, [f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"], 0
        try:
            with open(os.path.join(out_dir, f"{name}.summary.json")) as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            return math.inf, [f"{name}: no summary: {exc}"], 0
        failures = [f"{name}: {m}" for m in
                    _close(self.reference[name], summary["metrics"], "metrics")]
        failures += [f"{name}: check {c['name']} failed" for c in summary["checks"]
                     if not c["pass"]]
        return elapsed, failures, dir_bytes(out_dir)


#: BLAS thread pools are pinned to one thread: with two threads on a
#: two-core machine, the 64 x 64 eigendecomposition in the convergence job
#: flips between 0.02 s and 0.2 s as other load comes and goes, which would
#: swamp every other change in time-stepping.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def python_env() -> dict:
    """Environment for child interpreters: repscat from this checkout's src/,
    single-threaded BLAS, and bytecode cached as in a default install (the
    warm-up request compiles it once; later cold starts load it)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in BLAS_THREADS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env

