"""Per-layer view of repscat: which public functions are recorded as spans,
the counts computed at those boundaries, and the per-layer metric table.

Only module-boundary functions are wrapped (never inner helpers such as the
classical force), and every binding of a wrapped function in every loaded
repscat module is replaced, so `from .mehler import propagate_factored`
style imports are recorded too.
"""

from __future__ import annotations

import functools
import subprocess
import sys
from time import perf_counter

import numpy as np

# (module, attribute, span name); a dotted attribute is a method of a class.
SPANS = [
    ("config", "load_config", "config.load_config"),
    ("cli", "write_summary", "cli.write_summary"),
    ("scattering", "cook_record_to_csv", "cli.csv_write"),
    ("scattering", "velocity_trace_to_csv", "cli.csv_write"),
    ("scattering", "histograms_to_csv", "cli.csv_write"),
    ("classical", "trajectory_to_csv", "cli.csv_write"),
    ("phasespace", "scan_to_csv", "cli.csv_write"),
    ("experiments", "run_experiment", "experiments.run_experiment"),
    ("mehler", "propagate_factored", "mehler.propagate_factored"),
    ("mehler", "chirp_resolution_ok", "mehler.chirp_resolution_ok"),
    ("mehler", "chirped_spectrum", "mehler.chirped_spectrum"),
    ("mehler", "trajectory_factors", "mehler.trajectory_factors"),
    ("scattering", "wave_operator", "scattering.wave_operator"),
    ("scattering", "cauchy_differences", "scattering.cauchy_differences"),
    ("scattering", "cook_scan", "scattering.cook_scan"),
    ("scattering", "velocity_trace", "scattering.velocity_trace"),
    ("scattering", "DensitySnapshot.mean_of", "scattering.DensitySnapshot.mean_of"),
    ("potentials", "p_alpha", "potentials.p_alpha"),
    ("splitstep", "propagate", "splitstep.propagate"),
    ("splitstep", "strang_step", "splitstep.strang_step"),
    ("splitstep", "evolution_config", "splitstep.evolution_config"),
    ("splitstep", "dense_oracle", "splitstep.dense_oracle"),
    ("splitstep", "convergence_order", "splitstep.convergence_order"),
    ("grids", "assert_contained", "grids.assert_contained"),
    ("grids", "boundary_mass_fraction", "grids.boundary_mass_fraction"),
    ("grids", "transform", "grids.transform"),
    ("classical", "flow", "classical.flow"),
    ("phasespace", "mourre_shell_scan", "phasespace.mourre_shell_scan"),
]
PRESET_SPAN = "potentials.perturbation"

_CALLS_AND_SELF = [
    "experiments.run_experiment",
    "mehler.propagate_factored", "mehler.chirp_resolution_ok", "mehler.chirped_spectrum",
    "scattering.wave_operator", "scattering.cauchy_differences", "scattering.cook_scan",
    "scattering.velocity_trace", "scattering.DensitySnapshot.mean_of",
    PRESET_SPAN, "potentials.p_alpha",
    "splitstep.propagate", "splitstep.strang_step", "splitstep.evolution_config",
    "splitstep.dense_oracle", "splitstep.convergence_order",
    "grids.assert_contained", "grids.boundary_mass_fraction", "grids.transform",
    "classical.flow",
]

#: Per-layer metrics of a traced run: (name, unit, better).  Span and count
#: metrics are per round-robin pass; "computed" counts are derived from the
#: inputs and returned telemetry, so they repeat exactly for a given seed.
LAYER_METRICS = (
    [("import.repscat_s", "s", "lower"), ("import.scipy_s", "s", "lower"),
     ("import.modules", "count", "lower"),
     ("config.load_config.self_s", "s", "lower"),
     ("cli.write_summary.self_s", "s", "lower"),
     ("cli.csv_write.self_s", "s", "lower"),
     ("cli.bytes_written", "bytes", "lower")]
    + [(f"{n}.{k}", u, "lower") for n in _CALLS_AND_SELF
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("mehler.trajectory_factors.calls", "count", "lower"),
       ("mehler.czt_points", "count", "lower"),
       ("scattering.cook_scan.truncated", "count", "lower"),
       ("scattering.cell_average.useful_ratio", "ratio", "higher"),
       ("potentials.perturbation.points", "count", "lower"),
       ("splitstep.steps", "count", "lower"),
       ("splitstep.fft_points", "count", "lower"),
       ("classical.steps", "count", "lower"),
       ("classical.steps_per_s", "1/s", "higher"),
       ("phasespace.mourre_shell_scan.self_s", "s", "lower"),
       ("phasespace.mourre_shell_scan.points", "count", "lower"),
       ("probe.strang_step_1d_us", "us", "lower"),
       ("probe.strang_step_2d_us", "us", "lower"),
       ("probe.propagate_factored_1d_ms", "ms", "lower"),
       ("probe.mean_of_cell_avg_ms", "ms", "lower"),
       ("probe.mean_of_point_ms", "ms", "lower"),
       ("probe.flow_steps_per_s", "1/s", "higher"),
       ("probe.mourre_scan_10k_ms", "ms", "lower"),
       ("probe.csv_10k_rows_ms", "ms", "lower"),
       ("machine.ref_fft_s", "s", "lower"),
       ("machine.ref_py_s", "s", "lower"),
       ("trace.overhead_frac", "frac", "lower")]
)


def _grid_points(grid) -> int:
    return int(grid.points_per_dim) ** int(grid.dims)


def _count_propagate(tracer, args, kwargs, result):
    # t < 0 delegates to a nested propagate call; count the outermost only.
    if tracer.inside("splitstep.propagate"):
        return
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    steps = int(result[1]["steps"])
    tracer.counters["splitstep.steps"] += steps
    tracer.counters["splitstep.fft_points"] += 2 * steps * _grid_points(cfg.grid)


def _count_strang_step(tracer, args, kwargs, result):
    if not tracer.inside("splitstep.propagate"):
        tracer.counters["splitstep.steps"] += 1
        tracer.counters["splitstep.fft_points"] += 2 * _grid_points(result.grid)


def _count_factored(tracer, args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    if t != 0.0:
        grid = result.grid
        tracer.counters["mehler.czt_points"] += grid.dims * _grid_points(grid)


def _count_cook(tracer, args, kwargs, result):
    tracer.counters["scattering.cook_scan.truncated"] += int(bool(result.truncated))


def _count_flow(tracer, args, kwargs, result):
    t_final = args[2] if len(args) > 2 else kwargs["t_final"]
    dt = args[3] if len(args) > 3 else kwargs["dt"]
    tracer.counters["classical.steps"] += int(round(t_final / dt))


def _count_scan(tracer, args, kwargs, result):
    tracer.counters["phasespace.mourre_shell_scan.points"] += len(result["points"])


def _wrap_preset(tracer, factory):
    """Preset factories build closures; record each closure call as a span,
    count the points it evaluates, and, for Gauss cell-average arrays
    (one (cells, nodes) argument), count the cells whose Gauss mean differs
    from the midpoint sample by more than 1e-12 relative."""

    def make(*a, **k):
        fn = factory(*a, **k)

        def on_result(tr, args, kwargs, result):
            tr.counters["potentials.perturbation.points"] += int(np.broadcast(*args).size)
            if len(args) == 1 and np.ndim(args[0]) == 2 and np.shape(args[0])[1] > 1:
                # every 8th cell-average call is checked, to keep overhead low
                tr.counters["cell_average.calls"] += 1
                if tr.counters["cell_average.calls"] % 8 == 1:
                    t0 = perf_counter()
                    _count_useful_cells(tr, fn, args[0], result)
                    tr.extra_s += perf_counter() - t0

        return tracer.wrap(PRESET_SPAN, fn, on_result)

    return make


@functools.lru_cache(maxsize=None)
def _half_gauss_weights(n: int) -> np.ndarray:
    return np.polynomial.legendre.leggauss(n)[1] / 2.0


def _count_useful_cells(tracer, fn, y, vals):
    gauss = np.asarray(vals) @ _half_gauss_weights(y.shape[1])
    mid = np.asarray(fn(y.mean(axis=1)), dtype=float)
    useful = np.abs(gauss - mid) > 1e-12 * np.abs(mid)
    tracer.counters["cell_average.useful"] += int(np.count_nonzero(useful))
    tracer.counters["cell_average.cells"] += int(y.shape[0])


_HOOKS = {
    "splitstep.propagate": _count_propagate,
    "splitstep.strang_step": _count_strang_step,
    "mehler.propagate_factored": _count_factored,
    "scattering.cook_scan": _count_cook,
    "classical.flow": _count_flow,
    "phasespace.mourre_shell_scan": _count_scan,
}


def install(tracer):
    """Wrap every function in SPANS and every perturbation preset of repscat.

    repscat must already be imported; the tracer records only while
    tracer.enabled is set."""
    import repscat
    import repscat.cli  # noqa: F401  (the CLI module is not imported by the package)
    from repscat import potentials

    modules = [m for name, m in sys.modules.items()
               if name == "repscat" or name.startswith("repscat.")]
    for mod_name, attr, span in SPANS:
        owner = sys.modules[f"repscat.{mod_name}"]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name)
        wrapped = tracer.wrap(span, original, _HOOKS.get(span))
        setattr(owner, fn_name, wrapped)
        if cls_path:
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for key, factory in list(potentials.PRESETS.items()):
        potentials.PRESETS[key] = _wrap_preset(tracer, factory)


def span_metrics(summary: dict, counters: dict, passes: int) -> dict:
    """Per-pass calls, self times and computed counts from a traced run;
    summary is Tracer.summary() and counters Tracer.counters, or their sums
    over several traced processes."""
    per = 1.0 / max(passes, 1)
    zero = {"calls": 0, "self_s": 0.0}
    out = {}
    for name in _CALLS_AND_SELF:
        row = summary.get(name, zero)
        out[f"{name}.calls"] = row["calls"] * per
        out[f"{name}.self_s"] = row["self_s"] * per
    for name in ("config.load_config", "cli.write_summary", "cli.csv_write",
                 "phasespace.mourre_shell_scan"):
        out[f"{name}.self_s"] = summary.get(name, zero)["self_s"] * per
    out["mehler.trajectory_factors.calls"] = (
        summary.get("mehler.trajectory_factors", zero)["calls"] * per)
    for name in ("mehler.czt_points", "scattering.cook_scan.truncated",
                 "potentials.perturbation.points", "splitstep.steps",
                 "splitstep.fft_points", "classical.steps",
                 "phasespace.mourre_shell_scan.points"):
        out[name] = counters.get(name, 0) * per
    cells = counters.get("cell_average.cells", 0)
    out["scattering.cell_average.useful_ratio"] = (
        counters.get("cell_average.useful", 0) / cells if cells else 0.0)
    flow_s = summary.get("classical.flow", zero)["self_s"]
    out["classical.steps_per_s"] = counters.get("classical.steps", 0) / flow_s if flow_s else 0.0
    return out


def import_profile(python: str, env: dict, cwd: str, repeats: int = 3) -> dict:
    """Median import cost of `repscat.cli` in fresh interpreters, read from
    `-X importtime`: the cumulative time of the repscat imports, the self
    time of every scipy module, and the number of modules they load."""
    rows = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import repscat.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        rows.append(_parse_importtime(proc.stderr))
    return {key: float(np.median([r[key] for r in rows])) for key in rows[0]}


def _parse_importtime(text: str) -> dict:
    repscat_us = scipy_us = 0
    modules = pending = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        stripped = name.strip()
        if stripped.startswith("scipy"):
            scipy_us += int(self_us)
        pending += 1
        if name[1:] == stripped:  # depth 0: an import statement of its own
            if stripped == "repscat" or stripped.startswith("repscat."):
                repscat_us += int(cumulative_us)
                modules += pending
            pending = 0
    return {"import.repscat_s": repscat_us * 1e-6, "import.scipy_s": scipy_us * 1e-6,
            "import.modules": float(modules)}
