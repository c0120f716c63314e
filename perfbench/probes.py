"""Layer probes: fixed small inputs timed through repscat's public functions,
one per layer named in the benchmark README.  Each probe reports the median
over a few batches, so one slow batch does not move it."""

from __future__ import annotations

import os
from statistics import median
from time import perf_counter

import numpy as np


def _per_call(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the wall time of one call, in seconds."""
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return median(times)


def run_probes(scratch_dir: str) -> dict:
    from repscat import classical, mehler, phasespace, splitstep
    from repscat.grids import gaussian, make_grid
    from repscat.potentials import PRESETS, QuadraticSpec, RepulsiveSpec
    from repscat.scattering import DensitySnapshot

    out = {}
    rep = RepulsiveSpec(alpha=1.0)
    grid_1d = make_grid(1, 4096, 152.0)
    cfg_1d = splitstep.evolution_config(grid_1d, 2e-3, repulsive=rep)
    psi_1d = gaussian(grid_1d, width=1.0)
    out["probe.strang_step_1d_us"] = 1e6 * _per_call(
        lambda: splitstep.strang_step(psi_1d, cfg_1d), 40)
    grid_2d = make_grid(2, 256, 40.0)
    cfg_2d = splitstep.evolution_config(grid_2d, 2e-3, repulsive=rep)
    psi_2d = gaussian(grid_2d, width=1.0)
    out["probe.strang_step_2d_us"] = 1e6 * _per_call(
        lambda: splitstep.strang_step(psi_2d, cfg_2d), 8)

    saddle = QuadraticSpec(dims=1, n_minus=1, omegas=(1.0,))
    grid_f = make_grid(1, 1024, 20.0)
    psi_f = gaussian(grid_f, width=1.0, momentum=0.3)
    out["probe.propagate_factored_1d_ms"] = 1e3 * _per_call(
        lambda: mehler.propagate_factored(psi_f, 0.5, saddle), 10)

    grid_c = make_grid(1, 2048, 12.0)
    order = np.argsort(grid_c.freq_nodes)
    nodes = grid_c.freq_nodes[order]
    weights = np.exp(-nodes**2)
    snap = DensitySnapshot(t=4.0, nodes=nodes, weights=weights / weights.sum(),
                           scale=float(np.sinh(8.0)), spacing=grid_c.freq_spacing)
    log_power = PRESETS["log-power"](height=1.0, exponent=2.0)
    out["probe.mean_of_cell_avg_ms"] = 1e3 * _per_call(
        lambda: snap.mean_of(log_power, cell_averaged=True), 4)
    out["probe.mean_of_point_ms"] = 1e3 * _per_call(
        lambda: snap.mean_of(log_power, cell_averaged=False), 40)

    start = classical.zero_energy_start(1.0)
    steps = 4000
    flow_s = _per_call(lambda: classical.flow(start, 1.0, steps * 1e-3, 1e-3,
                                              record_every=50), 1, batches=3)
    out["probe.flow_steps_per_s"] = steps / flow_s

    def scan():
        return phasespace.mourre_shell_scan(1.0, 0.0, 0.1, (0.2, 60.0), 10_000)

    out["probe.mourre_scan_10k_ms"] = 1e3 * _per_call(scan, 1, batches=3)
    result = scan()
    path = os.path.join(scratch_dir, "probe_scan.csv")
    out["probe.csv_10k_rows_ms"] = 1e3 * _per_call(
        lambda: phasespace.scan_to_csv(result, path), 1, batches=3)
    os.remove(path)
    return out
