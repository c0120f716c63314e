import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import repscat
from repscat.cli import main
from repscat.config import MAX_SCAN_SAMPLES, MAX_SCHEDULE_COUNT, load_config, read_config
from repscat.errors import ConfigurationError

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")
SAMPLE_CONFIGS = sorted(name[:-5] for name in os.listdir(CONFIG_DIR)
                        if name.endswith(".yaml") and name != "suite.yaml")

VELOCITY_CFG = """
experiment: velocity
alpha: 2.0
grid: {dims: 1, points: 512, half_width: 12.0}
hamiltonian:
  quadratic: {n_minus: 1, omegas: [1.0]}
state: {width: 1.0}
schedule: {times: [2.0, 4.0, 6.0, 8.0, 10.0]}
csv: velocity.csv
"""

COOK_ZERO_CFG = """
experiment: cook
grid: {dims: 1, points: 256, half_width: 12.0}
hamiltonian:
  quadratic: {n_minus: 1, omegas: [1.0]}
schedule: {start: 1.0, stop: 5.0, count: 9, spacing: linear}
csv: cook.csv
"""

BAD_ALPHA_CFG = """
experiment: velocity
alpha: 3.0
grid: {dims: 1, points: 256, half_width: 12.0}
hamiltonian:
  repulsive: {alpha: 3.0}
schedule: {times: [1.0, 2.0]}
dt: 0.001
"""

VELOCITY_SPLIT_CFG = """
experiment: velocity
alpha: 1.0
grid: {dims: 1, points: 256, half_width: 40.0}
hamiltonian:
  repulsive: {alpha: 1.0}
schedule: {times: [1.0, 2.0]}
dt: 0.01
"""

CLASSICAL_CFG = """
experiment: classical
alpha: 1.0
t_final: 160.0
dt: 0.001
record_every: 50
csv: traj.csv
"""

MOURRE_CFG = """
experiment: mourre-scan
alpha: 1.0
E: 0.0
eta: 0.1
radius_range: [1.0, 40.0]
samples: 2000
csv: scan.csv
"""

CONVERGENCE_CFG = """
experiment: convergence
grid: {dims: 1, points: 64, half_width: 8.0}
hamiltonian:
  repulsive: {alpha: 1.0}
t: 0.1
dt_sequence: [4.0e-3, 2.0e-3, 1.0e-3, 5.0e-4]
"""

PROPAGATE_CFG = """
experiment: propagate
grid: {dims: 1, points: 512, half_width: 14.0}
hamiltonian:
  quadratic: {n_minus: 1, omegas: [1.0]}
t: 0.4
"""

WAVE_CFG = """
experiment: wave-operator
grid: {dims: 1, points: 2048, half_width: 12.0}
hamiltonian:
  quadratic: {n_minus: 1, omegas: [1.0]}
  perturbation: {preset: log-power, args: {height: 1.0, exponent: 2.0}}
horizons: [2.0, 4.0, 6.0]
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_velocity_run_reports_distance_to_sigma(tmp_path, capsys):
    cfg = _write(tmp_path, "vel.yaml", VELOCITY_CFG)
    out = str(tmp_path / "out")
    rc = main(["run", cfg, "--out", out, "--quiet"])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "vel.summary.json").read_text())
    assert summary["experiment"] == "velocity"
    assert summary["metrics"]["sigma_alpha"] == 2.0
    assert summary["metrics"]["distance_to_sigma"] <= 0.2
    assert (tmp_path / "out" / "velocity.csv").exists()


def test_malformed_alpha_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.yaml", BAD_ALPHA_CFG)
    rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "(0, 2]" in err


@pytest.mark.parametrize("line, bad_line", [
    ("record_every: 50", "record_every: 0"),
    ("t_final: 160.0", "t_final: .nan"),
    ("record_every: 50", "record_every: 2.5"),
    ("record_every: 50", "record_every: true"),
    ("csv: traj.csv", "start: {x: abc, xi: 1.0}"),
    ("csv: traj.csv", "start: {x: [1.0], xi: [1.0, 2.0]}"),
    ("csv: traj.csv", "start: {xi: 1.0}"),
    ("csv: traj.csv", "start: [1, 2]"),
    ("csv: traj.csv", 'regularized: "no"'),
])
def test_bad_classical_inputs_exit_2(tmp_path, capsys, line, bad_line):
    cfg = _write(tmp_path, "cls.yaml", CLASSICAL_CFG.replace(line, bad_line))
    rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert bad_line.split(":")[0] in capsys.readouterr().err


@pytest.mark.parametrize("bad_grid, key", [
    ("grid: [1, 2]", "grid"),
    ("grid: {dims: 1, points: abc, half_width: 8.0}", "grid.points"),
    ("grid: {dims: 1, points: 256.7, half_width: 8.0}", "grid.points"),
    ("grid: {dims: 1, points: true, half_width: 8.0}", "grid.points"),
    ("grid: {dims: 1.0, points: 64, half_width: 8.0}", "grid.dims"),
    ("grid: {dims: 1, points: 64, half_width: wide}", "grid.half_width"),
    ("grid: {dims: 1, points: 64, half_width: true}", "grid.half_width"),
    # a spacing of 0, a dual lattice whose (pi/dx)^2 overflows, and a box
    # whose L^2 overflows: each used to end in a traceback or a warning
    ("grid: {dims: 1, points: 64, half_width: 5.0e-324}", "grid: half_width"),
    ("grid: {dims: 1, points: 64, half_width: 1.0e-310}", "grid: half_width"),
    ("grid: {dims: 1, points: 64, half_width: 1.0e+300}", "grid: half_width"),
])
def test_bad_grid_block_exits_2(tmp_path, capsys, bad_grid, key):
    text = CONVERGENCE_CFG.replace("grid: {dims: 1, points: 64, half_width: 8.0}", bad_grid)
    cfg = _write(tmp_path, "conv.yaml", text)
    rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert key in capsys.readouterr().err


QUAD_LINE = "  quadratic: {n_minus: 1, omegas: [1.0]}"
REPULSIVE_LINE = "  repulsive: {alpha: 1.0}"
N_PLUS_LINE = "  quadratic: {n_plus: 1, omegas: [1.0]}"


BAD_INPUTS = [
    pytest.param(COOK_ZERO_CFG, QUAD_LINE,
                 QUAD_LINE + "\n  perturbation: {preset: power, args: {bogus: 2}}",
                 "hamiltonian.perturbation.args", id="preset-unknown-arg"),
    pytest.param(COOK_ZERO_CFG, QUAD_LINE,
                 QUAD_LINE + "\n  perturbation: {preset: power, args: {height: 1.0}}",
                 "hamiltonian.perturbation.args", id="preset-missing-arg"),
    pytest.param(VELOCITY_CFG, "omegas: [1.0]", "omegas: abc",
                 "hamiltonian.quadratic.omegas", id="omegas"),
    pytest.param(VELOCITY_CFG, "{n_minus: 1, omegas: [1.0]}", "{n_E: 1, fields: [x]}",
                 "hamiltonian.quadratic.fields[0]", id="fields"),
    pytest.param(VELOCITY_CFG, "times: [2.0, 4.0, 6.0, 8.0, 10.0]", "times: [2.0, x]",
                 "schedule.times[1]", id="times"),
    pytest.param(VELOCITY_CFG, "schedule: {times: [2.0, 4.0, 6.0, 8.0, 10.0]}",
                 "schedule: [2.0, 4.0]", "schedule", id="schedule"),
    pytest.param(COOK_ZERO_CFG, "start: 1.0", "start: one", "schedule.start", id="start"),
    pytest.param(COOK_ZERO_CFG, "stop: 5.0", "stop: [5.0]", "schedule.stop", id="stop"),
    pytest.param(COOK_ZERO_CFG, "count: 9", "count: 9.5", "schedule.count", id="count"),
    pytest.param(VELOCITY_CFG, "state: {width: 1.0}", "state: {width: abc}", "state.width",
                 id="state-width"),
    pytest.param(VELOCITY_CFG, "state: {width: 1.0}", "state: {momentum: [1, 2, 3]}",
                 "state.momentum", id="state-momentum-length"),
    pytest.param(VELOCITY_CFG, "state: {width: 1.0}", "state: {center: [x]}",
                 "state.center[0]", id="state-center"),
    pytest.param(COOK_ZERO_CFG, QUAD_LINE,
                 QUAD_LINE + "\n  perturbation: {preset: power, args: {height: abc, exponent: 2.0}}",
                 "hamiltonian.perturbation.args.height", id="preset-value"),
    pytest.param(CONVERGENCE_CFG, "repulsive: {alpha: 1.0}", "repulsive: {alpha: one}",
                 "hamiltonian.repulsive.alpha", id="repulsive-alpha"),
    pytest.param(VELOCITY_CFG, "{n_minus: 1, omegas: [1.0]}", "{n_minus: 1.0, omegas: [1.0]}",
                 "hamiltonian.quadratic.n_minus", id="n_minus"),
    pytest.param(VELOCITY_CFG, QUAD_LINE, QUAD_LINE + "\n  repulsive: {alpha: 1.0}",
                 "hamiltonian.repulsive", id="velocity-quadratic-repulsive"),
    pytest.param(VELOCITY_CFG, QUAD_LINE,
                 QUAD_LINE + "\n  perturbation: {preset: power, args: {height: 100.0, exponent: 0.5}}",
                 "hamiltonian.perturbation", id="velocity-quadratic-perturbation"),
    pytest.param(COOK_ZERO_CFG, QUAD_LINE, QUAD_LINE + "\n  repulsive: {alpha: 1.0}",
                 "hamiltonian.repulsive", id="cook-quadratic-repulsive"),
    pytest.param(WAVE_CFG, QUAD_LINE, QUAD_LINE + "\n  repulsive: {alpha: 1.0}",
                 "hamiltonian.repulsive", id="wave-quadratic-repulsive"),
    pytest.param(VELOCITY_SPLIT_CFG, REPULSIVE_LINE,
                 REPULSIVE_LINE + "\n  perturbation: {table: [a, b]}",
                 "hamiltonian.perturbation.table[0]", id="table-entry"),
    pytest.param(VELOCITY_SPLIT_CFG, REPULSIVE_LINE,
                 REPULSIVE_LINE + "\n  perturbation: {table: [1.0, 2.0]}",
                 "hamiltonian.perturbation.table", id="table-length"),
    pytest.param(CONVERGENCE_CFG, REPULSIVE_LINE,
                 '  repulsive: {alpha: 1.0, regularized: "no"}',
                 "hamiltonian.repulsive.regularized", id="repulsive-regularized"),
    # unknown keys exit 2 and name their full path
    pytest.param(CONVERGENCE_CFG, "t: 0.1", "t: 0.1\ntypo_tol: 1", "unknown key typo_tol",
                 id="unknown-top-level"),
    pytest.param(VELOCITY_CFG, "state: {width: 1.0}", "state: {widht: 2.0}",
                 "unknown key state.widht", id="unknown-state-key"),
    pytest.param(CONVERGENCE_CFG, REPULSIVE_LINE, "  repulsive: {alpha: 1.0, typo: 3}",
                 "unknown key hamiltonian.repulsive.typo", id="unknown-repulsive-key"),
    pytest.param(CONVERGENCE_CFG, "half_width: 8.0}", "half_width: 8.0, extra: 1}",
                 "unknown key grid.extra", id="unknown-grid-key"),
    pytest.param(CLASSICAL_CFG, "csv: traj.csv", "start: {x: 1.0, xi: 1.0, p: 2.0}",
                 "unknown key start.p", id="unknown-classical-start-key"),
    pytest.param(COOK_ZERO_CFG, QUAD_LINE,
                 QUAD_LINE + "\n  perturbation: {preset: power, table: [1.0]}",
                 "hamiltonian.perturbation", id="preset-and-table"),
]


@pytest.mark.parametrize("base, line, bad_line, key", BAD_INPUTS)
def test_bad_hamiltonian_and_schedule_inputs_exit_2(tmp_path, capsys, base, line, bad_line,
                                                    key):
    assert line in base
    cfg = _write(tmp_path, "bad.yaml", base.replace(line, bad_line))
    rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert key in capsys.readouterr().err


REPULSIVE_DT_LINE = "  repulsive: {alpha: 1.0}\ndt: abc"

# Top-level experiment keys: each error must name its key ("t must be ...").
BAD_TOP_LEVEL = [
    pytest.param(PROPAGATE_CFG, "t: 0.4", "t: abc", "t", id="propagate-t"),
    pytest.param(PROPAGATE_CFG, QUAD_LINE, REPULSIVE_DT_LINE, "dt", id="propagate-dt"),
    pytest.param(VELOCITY_CFG, "alpha: 2.0", "alpha: abc", "alpha", id="velocity-alpha"),
    pytest.param(VELOCITY_CFG, "csv: velocity.csv", "csv: velocity.csv\ntol: x", "tol",
                 id="velocity-tol"),
    pytest.param(VELOCITY_CFG, QUAD_LINE, REPULSIVE_DT_LINE, "dt", id="velocity-dt"),
    pytest.param(VELOCITY_CFG, "csv: velocity.csv", 'csv: velocity.csv\nper_direction: "no"',
                 "per_direction", id="velocity-per_direction"),
    pytest.param(COOK_ZERO_CFG, "csv: cook.csv", "csv: cook.csv\nexpected_exponent: steep",
                 "expected_exponent", id="cook-expected_exponent"),
    pytest.param(COOK_ZERO_CFG, "csv: cook.csv", "csv: cook.csv\ntol: true", "tol",
                 id="cook-tol"),
    pytest.param(COOK_ZERO_CFG, QUAD_LINE, REPULSIVE_DT_LINE, "dt", id="cook-dt"),
    pytest.param(WAVE_CFG, "horizons: [2.0, 4.0, 6.0]", "horizons: [2.0, x]", "horizons[1]",
                 id="wave-horizons-item"),
    pytest.param(WAVE_CFG, "horizons: [2.0, 4.0, 6.0]", "horizons: 2.0", "horizons",
                 id="wave-horizons-scalar"),
    pytest.param(WAVE_CFG, "horizons: [2.0, 4.0, 6.0]", "horizons: []", "horizons",
                 id="wave-horizons-empty"),
    pytest.param(CLASSICAL_CFG, "alpha: 1.0", "alpha: abc", "alpha", id="classical-alpha"),
    pytest.param(CLASSICAL_CFG, "dt: 0.001", "dt: abc", "dt", id="classical-dt"),
    pytest.param(CLASSICAL_CFG, "t_final: 160.0", "t_final: abc", "t_final",
                 id="classical-t_final"),
    pytest.param(CLASSICAL_CFG, "csv: traj.csv", "csv: traj.csv\ntol: x", "tol",
                 id="classical-tol"),
    pytest.param(MOURRE_CFG, "alpha: 1.0", "alpha: abc", "alpha", id="mourre-alpha"),
    pytest.param(MOURRE_CFG, "E: 0.0", "E: abc", "E", id="mourre-E"),
    pytest.param(MOURRE_CFG, "eta: 0.1", "eta: []", "eta", id="mourre-eta"),
    pytest.param(MOURRE_CFG, "radius_range: [1.0, 40.0]", "radius_range: [1.0, x]",
                 "radius_range[1]", id="mourre-radius_range-item"),
    pytest.param(MOURRE_CFG, "radius_range: [1.0, 40.0]", "radius_range: [1.0]",
                 "radius_range", id="mourre-radius_range-length"),
    pytest.param(MOURRE_CFG, "radius_range: [1.0, 40.0]", "radius_range: [1.0, 0.0]",
                 "radius_range", id="mourre-radius_range-order"),
    pytest.param(MOURRE_CFG, "samples: 2000", "samples: 2000.5", "samples",
                 id="mourre-samples-float"),
    pytest.param(MOURRE_CFG, "samples: 2000", "samples: 0", "samples", id="mourre-samples-zero"),
    pytest.param(CONVERGENCE_CFG, "t: 0.1", "t: abc", "t", id="convergence-t"),
    pytest.param(CONVERGENCE_CFG, "dt_sequence: [4.0e-3, 2.0e-3, 1.0e-3, 5.0e-4]",
                 "dt_sequence: 4.0e-3", "dt_sequence", id="convergence-dt_sequence"),
    pytest.param(CONVERGENCE_CFG, "dt_sequence: [4.0e-3, 2.0e-3, 1.0e-3, 5.0e-4]",
                 "dt_sequence: []", "dt_sequence", id="convergence-dt_sequence-empty"),
    pytest.param(CONVERGENCE_CFG, "t: 0.1", "t: 0.1\ntol: x", "tol", id="convergence-tol"),
    pytest.param(MOURRE_CFG, "samples: 2000", "samples: 2000\nseed: abc", "seed",
                 id="seed-string"),
    pytest.param(MOURRE_CFG, "samples: 2000", "samples: 2000\nseed: 1.7", "seed",
                 id="seed-float"),
    pytest.param(MOURRE_CFG, "csv: scan.csv", "csv: 3", "csv", id="csv-number"),
    pytest.param(MOURRE_CFG, "csv: scan.csv", "csv: /nonexistent/scan.csv", "csv", id="csv-path"),
    pytest.param(VELOCITY_CFG, "csv: velocity.csv", "histogram_csv: ../hist.csv",
                 "histogram_csv", id="histogram_csv-path"),
    pytest.param(WAVE_CFG, "horizons: [2.0, 4.0, 6.0]", "horizons: [4.0, 2.0]", "horizons",
                 id="wave-horizons-decreasing"),
    pytest.param(COOK_ZERO_CFG, "start: 1.0", "start: 0.0", "schedule.start",
                 id="cook-schedule-start-zero"),
    pytest.param(VELOCITY_CFG, "times: [2.0, 4.0, 6.0, 8.0, 10.0]",
                 "times: [2.0, 4.0], count: 3", "schedule", id="schedule-times-and-count"),
]


@pytest.mark.parametrize("base, line, bad_line, key", BAD_TOP_LEVEL)
def test_bad_top_level_inputs_exit_2(tmp_path, capsys, base, line, bad_line, key):
    assert line in base
    cfg = _write(tmp_path, "bad.yaml", base.replace(line, bad_line))
    rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert f"{key} must be" in capsys.readouterr().err


COOK_SPLIT_CFG = """
experiment: cook
grid: {dims: 1, points: 256, half_width: 40.0}
hamiltonian:
  repulsive: {alpha: 1.0}
schedule: {times: [0.5, 1.0, 1.5, 2.0]}
dt: 0.01
"""

QUAD_2D_LINE = "  quadratic: {n_minus: 2, omegas: [1.0, 1.0]}"
VELOCITY_2D_CFG = (VELOCITY_CFG
                   .replace("{dims: 1, points: 512, half_width: 12.0}",
                            "{dims: 2, points: 64, half_width: 12.0}")
                   .replace(QUAD_LINE, QUAD_2D_LINE))
WAVE_PERTURBATION_LINE = (
    "\n  perturbation: {preset: log-power, args: {height: 1.0, exponent: 2.0}}")

# One config per rule that combines blocks or bounds one value: each is
# refused by read_config, before --out or any state exists.
GATE = [
    pytest.param(VELOCITY_CFG, "state: {width: 1.0}", "state: {center: [0.5, 0.5]}",
                 "state.center", id="state-center-length"),
    pytest.param(VELOCITY_CFG, "state: {width: 1.0}", "state: {momentum: [0.1, 0.1]}",
                 "state.momentum", id="state-momentum-length"),
    pytest.param(CLASSICAL_CFG, "csv: traj.csv", "start: {x: [1.0, 2.0], xi: [1.0]}",
                 "start", id="start-xi-length"),
    pytest.param(CLASSICAL_CFG, "csv: traj.csv", "start: {x: [1.0, 2.0], xi: 1.0}",
                 "start", id="start-phase-point"),
    pytest.param(VELOCITY_SPLIT_CFG, REPULSIVE_LINE,
                 REPULSIVE_LINE + "\n  perturbation: {table: [1.0, 2.0]}",
                 "hamiltonian.perturbation.table", id="table-size"),
    pytest.param(VELOCITY_CFG, QUAD_LINE, QUAD_2D_LINE, "hamiltonian.quadratic",
                 id="quadratic-sectors"),
    pytest.param(VELOCITY_CFG, QUAD_LINE, QUAD_LINE + "\n" + REPULSIVE_LINE,
                 "hamiltonian.repulsive", id="velocity-quadratic-repulsive"),
    pytest.param(VELOCITY_CFG, QUAD_LINE, QUAD_LINE + WAVE_PERTURBATION_LINE,
                 "hamiltonian.perturbation", id="velocity-quadratic-perturbation"),
    pytest.param(COOK_ZERO_CFG, QUAD_LINE, QUAD_LINE + "\n" + REPULSIVE_LINE,
                 "hamiltonian.repulsive", id="cook-quadratic-repulsive"),
    pytest.param(WAVE_CFG, QUAD_LINE, QUAD_LINE + "\n" + REPULSIVE_LINE,
                 "hamiltonian.repulsive", id="wave-quadratic-repulsive"),
    pytest.param(COOK_ZERO_CFG, QUAD_LINE,
                 QUAD_LINE + "\n  perturbation: {table: %s}" % ([0.1] * 256),
                 "hamiltonian.perturbation", id="cook-quadratic-table"),
    pytest.param(WAVE_CFG, WAVE_PERTURBATION_LINE,
                 "\n  perturbation: {table: %s}" % ([0.1] * 2048),
                 "hamiltonian.perturbation", id="wave-table"),
    pytest.param(WAVE_CFG, QUAD_LINE + "\n", "", "hamiltonian.quadratic",
                 id="wave-no-quadratic"),
    pytest.param(WAVE_CFG, "{n_minus: 1, omegas: [1.0]}", "{n_plus: 1, omegas: [1.0]}",
                 "hamiltonian.quadratic", id="wave-confining"),
    pytest.param(WAVE_CFG, WAVE_PERTURBATION_LINE, "", "hamiltonian.perturbation",
                 id="wave-no-perturbation"),
    pytest.param(PROPAGATE_CFG, QUAD_LINE, REPULSIVE_LINE, "dt", id="propagate-no-dt"),
    pytest.param(VELOCITY_SPLIT_CFG, "dt: 0.01\n", "", "dt", id="velocity-no-dt"),
    pytest.param(COOK_SPLIT_CFG, "dt: 0.01\n", "", "dt", id="cook-no-dt"),
    pytest.param(VELOCITY_2D_CFG, QUAD_2D_LINE, REPULSIVE_LINE + "\ndt: 0.01",
                 "hamiltonian.quadratic", id="velocity-nd-split-step"),
    pytest.param(VELOCITY_2D_CFG, "csv: velocity.csv", "histogram_csv: hist.csv",
                 "histogram_csv", id="velocity-nd-histogram"),
    pytest.param(VELOCITY_CFG, "alpha: 2.0", "alpha: 3.0", "alpha", id="velocity-alpha"),
    pytest.param(CLASSICAL_CFG, "alpha: 1.0", "alpha: 2.5", "alpha", id="classical-alpha"),
    pytest.param(MOURRE_CFG, "alpha: 1.0", "alpha: 0.0", "alpha", id="mourre-alpha"),
    pytest.param(PROPAGATE_CFG, "t: 0.4", "t: 0.4\ndt: -0.001", "dt", id="propagate-dt"),
    pytest.param(VELOCITY_SPLIT_CFG, "dt: 0.01", "dt: -0.001", "dt", id="velocity-dt"),
    pytest.param(COOK_SPLIT_CFG, "dt: 0.01", "dt: 0.0", "dt", id="cook-dt"),
    pytest.param(CLASSICAL_CFG, "dt: 0.001", "dt: -0.001", "dt", id="classical-dt"),
    pytest.param(CONVERGENCE_CFG, "1.0e-3, 5.0e-4", "-1.0e-3, 5.0e-4", "dt_sequence[2]",
                 id="dt_sequence-entry"),
    pytest.param(MOURRE_CFG, "eta: 0.1", "eta: -0.1", "eta", id="eta"),
    pytest.param(CLASSICAL_CFG, "t_final: 160.0", "t_final: -1.0", "t_final", id="t_final"),
    pytest.param(COOK_ZERO_CFG, "count: 9", "count: 3", "schedule", id="cook-schedule-count"),
    pytest.param(CLASSICAL_CFG, "t_final: 160.0", "t_final: 0.02", "t_final",
                 id="classical-fit-window"),
    pytest.param(CLASSICAL_CFG, "t_final: 160.0", "t_final: 0.0", "t_final",
                 id="classical-fit-window-empty"),
    # 2 w^2, the packet's denominator, overflows a float
    pytest.param(PROPAGATE_CFG, "t: 0.4", "t: 0.4\nstate: {width: 1.0e+200}", "state.width",
                 id="state-width-overflow"),
    # g(2t) = sinh(2t) and h(2t) = cosh(2t) overflow at t = 400 on a unit saddle
    pytest.param(VELOCITY_CFG, "times: [2.0, 4.0, 6.0, 8.0, 10.0]", "times: [2.0, 400.0]",
                 "schedule", id="velocity-factors-overflow"),
    pytest.param(COOK_ZERO_CFG, QUAD_LINE + "\nschedule: {start: 1.0, stop: 5.0, count: 9, "
                 "spacing: linear}", QUAD_LINE + "\n  perturbation: {preset: power, args: "
                 "{height: 1.0, exponent: 1.0}}\nschedule: {times: [2.0, 4.0, 8.0, 400.0]}",
                 "schedule", id="cook-factors-overflow"),
    pytest.param(WAVE_CFG, "horizons: [2.0, 4.0, 6.0]", "horizons: [2.0, 400.0]", "horizons",
                 id="wave-factors-overflow"),
    pytest.param(PROPAGATE_CFG, "t: 0.4", "t: -400.0", "t", id="propagate-factors-overflow"),
    # a time within SINGULAR_GUARD of pi/2, where the kernel of a unit
    # oscillator focuses; the cook run used to compute two times before it
    pytest.param(VELOCITY_CFG, QUAD_LINE + "\nstate: {width: 1.0}\nschedule: {times: [2.0, 4.0, "
                 "6.0, 8.0, 10.0]}", N_PLUS_LINE + "\nschedule: {times: [0.5, 1.5707963]}",
                 "schedule", id="velocity-singular-time"),
    pytest.param(COOK_ZERO_CFG, QUAD_LINE + "\nschedule: {start: 1.0, stop: 5.0, count: 9, "
                 "spacing: linear}", N_PLUS_LINE + "\nschedule: {times: [0.5, 1.0, 1.5707963, "
                 "2.0]}", "schedule", id="cook-singular-time"),
    pytest.param(PROPAGATE_CFG, QUAD_LINE + "\nt: 0.4", N_PLUS_LINE + "\nt: -1.5707963", "t",
                 id="propagate-singular-time"),
    # at t = 354 g(2t) = sinh(708) is finite, but g(2t) (max|xi| + h/2) squared,
    # the largest |x|^2 of the cell rule, is not: the run published NaN means
    pytest.param(VELOCITY_CFG, "times: [2.0, 4.0, 6.0, 8.0, 10.0]", "times: [2.0, 354.0]",
                 "schedule", id="velocity-lattice-overflow"),
    pytest.param(COOK_ZERO_CFG, QUAD_LINE + "\nschedule: {start: 1.0, stop: 5.0, count: 9, "
                 "spacing: linear}", QUAD_LINE + "\n  perturbation: {preset: log-power, args: "
                 "{height: 1.0, exponent: 2.0}}\nschedule: {times: [2.0, 4.0, 8.0, 354.0]}",
                 "schedule", id="cook-lattice-overflow"),
    pytest.param(WAVE_CFG, "horizons: [2.0, 4.0, 6.0]", "horizons: [2.0, 354.0]", "horizons",
                 id="wave-lattice-overflow"),
    # the scan's outermost shell points overflow a float: at alpha = 1 the
    # run published min_bracket NaN, at alpha = 2 violations made by
    # overflow alone, and with a huge E xi^2 squared overflows at radius 40
    pytest.param(MOURRE_CFG, "radius_range: [1.0, 40.0]", "radius_range: [0.5, 1.0e+200]",
                 "radius_range", id="mourre-shell-overflow-nan"),
    pytest.param(MOURRE_CFG, "alpha: 1.0\nE: 0.0\neta: 0.1\nradius_range: [1.0, 40.0]",
                 "alpha: 2.0\nE: 0.0\neta: 0.1\nradius_range: [0.5, 1.0e+154]",
                 "radius_range", id="mourre-shell-overflow-violations"),
    pytest.param(MOURRE_CFG, "E: 0.0", "E: 1.0e+160", "radius_range", id="mourre-shell-huge-E"),
    # a box whose L^2 overflows, and step counts |t|/dt past the float range
    pytest.param(VELOCITY_CFG, "half_width: 12.0", "half_width: 1.0e+300", "grid: half_width",
                 id="grid-box-overflow"),
    pytest.param(VELOCITY_SPLIT_CFG, "dt: 0.01", "dt: 1.0e-310", "dt", id="velocity-step-count"),
    pytest.param(VELOCITY_SPLIT_CFG, "dt: 0.01", "dt: 5.0e-324", "dt",
                 id="velocity-step-count-subnormal"),
    pytest.param(CONVERGENCE_CFG, "[4.0e-3,", "[4.0e-3, 1.0e-310,", "dt_sequence",
                 id="convergence-step-count"),
    pytest.param(CLASSICAL_CFG, "dt: 0.001", "dt: 1.0e-310", "dt", id="classical-step-count"),
    # a bump of zero width divides by zero
    pytest.param(COOK_SPLIT_CFG, REPULSIVE_LINE, REPULSIVE_LINE + "\n  perturbation: "
                 "{preset: compact-bump, args: {height: 1.0, radius: 0}}",
                 "hamiltonian.perturbation.args", id="compact-bump-radius"),
    pytest.param(COOK_SPLIT_CFG, REPULSIVE_LINE, REPULSIVE_LINE + "\n  perturbation: "
                 "{preset: gaussian-bump, args: {height: 1.0, width: 0}}",
                 "hamiltonian.perturbation.args", id="gaussian-bump-width"),
    # V^2, which a Cook scan forms wherever it evaluates V, past the float
    # range: at the box corner of the split-step route (V itself is 1.6e160
    # there), and in a table
    pytest.param(COOK_SPLIT_CFG, REPULSIVE_LINE, REPULSIVE_LINE + "\n  perturbation: "
                 "{preset: power, args: {height: 1.0, exponent: -100.0}}",
                 "hamiltonian.perturbation", id="cook-split-step-v2-overflow"),
    pytest.param(COOK_SPLIT_CFG, REPULSIVE_LINE, REPULSIVE_LINE + "\n  perturbation: "
                 "{table: [" + ", ".join(["1.0e+200"] * 256) + "]}",
                 "hamiltonian.perturbation", id="cook-table-v2-overflow"),
]


# Extreme values that passed read_config: a step count that exhausted memory
# in classical.flow or ran without end, and first times whose chirp phase or
# mean p_alpha(x)/t overflowed at run time.  Checked through read_config
# alone, since a run of one that slipped through would not end.
@pytest.mark.parametrize("name, key, value, message", [
    ("classical_kappa", "t_final", 1.0e+12, "dt"),
    ("velocity_alpha1", "dt", 1.0e-12, "dt"),
    ("wave_operator", "horizons", [1.0e-310, 2.0], "horizons"),
    ("velocity_alpha1", "schedule", {"times": [1.0e-310, 4.0, 6.0, 8.0]}, "schedule"),
    ("velocity_alpha2", "schedule", {"start": 2.0, "stop": 10.0, "count": 10**9},
     "schedule.count"),
    ("cook_log_coupling", "schedule",
     {"start": 2.0, "stop": 20.0, "count": 10**9, "spacing": "geometric"}, "schedule.count"),
    ("mourre_scan", "samples", 10**9, "samples"),
])
def test_read_config_refuses_unbounded_and_overflowing_runs(name, key, value, message):
    with open(os.path.join(CONFIG_DIR, f"{name}.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw[key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigurationError, match=message):
            read_config(raw)


@pytest.mark.parametrize("name, key, value", [
    ("velocity_alpha2", "schedule", {"start": 2.0, "stop": 10.0, "count": MAX_SCHEDULE_COUNT}),
    ("mourre_scan", "samples", MAX_SCAN_SAMPLES),
])
def test_counts_at_their_ceiling_are_read(name, key, value):
    with open(os.path.join(CONFIG_DIR, f"{name}.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw[key] = value
    read = read_config(raw)
    if key == "schedule":
        assert len(read["schedule"]) == MAX_SCHEDULE_COUNT
    else:
        assert read["samples"] == MAX_SCAN_SAMPLES
    raw[key] = {**value, "count": MAX_SCHEDULE_COUNT + 1} if key == "schedule" else value + 1
    with pytest.raises(ConfigurationError, match="past the"):
        read_config(raw)


def test_extreme_one_leaf_configs_are_refused_or_read_without_a_warning():
    # every numeric leaf of every sample config, one at a time, set to each
    # extreme value; .github/scripts/extreme_configs.py also runs each config
    # that read_config reads, in a capped child process
    read = refused = 0
    for *_, raw in _script(".github/scripts", "extreme_configs").extreme_configs(CONFIG_DIR):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                read_config(raw)
                read += 1
            except ConfigurationError:
                refused += 1
    # the decisions of read_config on the whole matrix; a change that reads
    # a config it refused, or refuses one it read, moves these counts
    assert (refused, read) == (511, 193)


# One-leaf extreme configs that read_config used to pass: presets whose V^2
# overflows where a Cook scan forms it (a traceback), a negative tol that no
# run can meet (exit 1), and subnormal omegas, whose g(2s) rounds to 0 at
# early slice times (a traceback) or runs on coarse subnormal steps (exit 0).
PASSED_EXTREMES = [
    *[(name, ("hamiltonian", "perturbation", "args", arg), value, "hamiltonian.perturbation")
      for name in ("cook_log_coupling", "cook_stark")
      for arg, value in (("height", 1e300), ("height", -1e300), ("exponent", -1e300))],
    ("wave_operator", ("hamiltonian", "perturbation", "args", "exponent"), -1e300,
     "hamiltonian.perturbation"),
    *[(name, ("tol",), -1e300, "tol") for name in (
        "classical_kappa", "convergence", "cook_log_coupling", "cook_stark", "velocity_alpha1",
        "velocity_alpha2")],
    ("wave_operator", ("hamiltonian", "quadratic", "omegas", 0), 5e-324,
     "hamiltonian.quadratic"),
    ("propagate_mehler", ("hamiltonian", "quadratic", "omegas", 0), 1e-310,
     "hamiltonian.quadratic"),
]


@pytest.mark.parametrize("name, path, value, key", PASSED_EXTREMES, ids=[
    f"{name}-{'.'.join(map(str, path))}={value}" for name, path, value, _ in PASSED_EXTREMES])
def test_extreme_leaf_that_read_config_passed_exits_2(tmp_path, capsys, name, path, value,
                                                      key):
    configs = _script(".github/scripts", "extreme_configs").extreme_configs(CONFIG_DIR)
    raw = next(raw for n, p, v, raw in configs if (n, p, v) == (name, path, value))
    cfg = _write_config(str(tmp_path), name, raw)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}")
    assert not out.exists()


@pytest.mark.parametrize("base, line, bad_line, key", GATE)
def test_read_config_refuses_before_output_or_state(tmp_path, monkeypatch, capsys, base,
                                                      line, bad_line, key):
    import repscat.experiments
    import repscat.grids

    def no_state(*args, **kwargs):
        raise AssertionError("a refused config reached grids.gaussian")

    monkeypatch.setattr(repscat.grids, "gaussian", no_state)
    monkeypatch.setattr(repscat.experiments, "gaussian", no_state)
    assert line in base
    cfg = _write(tmp_path, "bad.yaml", base.replace(line, bad_line))
    with pytest.raises(ConfigurationError, match=re.escape(key)):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, files", [
    (COOK_ZERO_CFG, ["cook.csv"]),
    (VELOCITY_CFG + "histogram_csv: hist.csv\n", ["velocity.csv", "hist.csv"]),
    (CLASSICAL_CFG, ["traj.csv"]),
    (MOURRE_CFG, ["scan.csv"]),
], ids=["cook", "velocity", "classical", "mourre-scan"])
def test_runners_write_nothing_and_return_their_tables(tmp_path, monkeypatch, text, files):
    from repscat.experiments import _RUNNERS

    cfg = load_config(_write(tmp_path, "c.yaml", text))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    metrics, checks, tables = _RUNNERS[cfg.kind](cfg.values)
    assert list(work.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml", "work"]
    assert [name for name, writer, data in tables] == files


@pytest.mark.parametrize("text, message", [
    # dt max|V| = 16.0 > pi: PhaseWindingError
    (PROPAGATE_CFG.replace("points: 512, half_width: 14.0", "points: 256, half_width: 40.0")
     .replace(QUAD_LINE, "  repulsive: {alpha: 2.0}").replace("t: 0.4", "t: 0.1\ndt: 0.01"),
     "exceeds pi"),
    # most of the packet lies in the outer tenth of the box: DomainEscapeError
    (PROPAGATE_CFG.replace("points: 512, half_width: 14.0", "points: 256, half_width: 12.0")
     .replace("t: 0.4", "state: {center: 11.5, width: 0.5}\nt: 0.001"), "boundary mass"),
], ids=["phase-winding", "domain-escape"])
def test_run_time_refusal_leaves_no_output_dir(tmp_path, capsys, text, message):
    cfg = _write(tmp_path, "c.yaml", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["cook_stark", "classical_kappa"])
def test_run_reads_its_config_once(tmp_path, monkeypatch, name):
    import repscat.config
    from repscat.config import ExperimentConfig
    from repscat.experiments import run_experiment

    reads = []
    read_config = repscat.config.read_config
    monkeypatch.setattr(repscat.config, "read_config",
                        lambda raw: reads.append(raw) or read_config(raw))
    path = os.path.join(CONFIG_DIR, f"{name}.yaml")
    assert main(["run", path, "--out", str(tmp_path / "cli"), "--quiet"]) == 0
    assert len(reads) == 1
    # a config built from its raw mapping and a seed is read when it runs
    raw = load_config(path).raw
    reads.clear()
    cfg = ExperimentConfig(raw["experiment"], raw, 3)
    assert reads == []
    summary = run_experiment(cfg, str(tmp_path))
    assert len(reads) == 1 and summary["seed"] == 3


def test_experiment_config_refuses_a_kind_its_raw_config_does_not_name():
    from repscat.config import ExperimentConfig

    raw = load_config(os.path.join(CONFIG_DIR, "propagate_mehler.yaml")).raw
    with pytest.raises(ConfigurationError, match="'velocity' does not match .*'propagate'"):
        ExperimentConfig("velocity", raw, 1)


@pytest.mark.parametrize("name", SAMPLE_CONFIGS)
def test_experiment_config_with_a_seed_is_not_read_when_built(monkeypatch, name):
    # the benchmark's traced runs count config reading inside run_experiment
    import repscat.config
    from repscat.config import ExperimentConfig

    raw = load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")).raw
    reads = []
    monkeypatch.setattr(repscat.config, "read_config", lambda raw: reads.append(raw))
    cfg = ExperimentConfig(raw["experiment"], raw, 7)
    assert reads == [] and cfg.seed == 7


def _script(directory, name):
    """<directory>/<name>.py of the repository, loaded by path (perfbench and
    .github/scripts are not packages)."""
    import importlib.util

    path = os.path.join(os.path.dirname(CONFIG_DIR), directory, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_names_a_callable_of_repscat():
    import importlib

    layers = _script("perfbench", "layers")
    assert layers.SPANS
    for module, attr, _ in layers.SPANS:
        owner = importlib.import_module(f"repscat.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"repscat.{module}.{attr}"


def test_benchmark_probes_run_on_the_package(tmp_path):
    # the probes build DensitySnapshot from its five fields and call
    # mean_of(fn, cell_averaged=...) and strang_step(psi, cfg) directly
    out = _script("perfbench", "probes").run_probes(str(tmp_path))
    assert out
    for name, value in out.items():
        assert np.isfinite(value) and value > 0, name


def test_nd_velocity_histogram_rejected(tmp_path, capsys):
    text = (VELOCITY_CFG
            .replace("{dims: 1, points: 512, half_width: 12.0}",
                     "{dims: 2, points: 64, half_width: 12.0}")
            .replace("{n_minus: 1, omegas: [1.0]}", "{n_minus: 2, omegas: [1.0, 1.0]}")
            + "histogram_csv: hist.csv\n")
    cfg = _write(tmp_path, "vel2d.yaml", text)
    rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "histogram_csv" in capsys.readouterr().err
    assert not (tmp_path / "out" / "hist.csv").exists()


def test_state_center_and_momentum_take_a_scalar_or_one_value_per_axis(tmp_path):
    text = (VELOCITY_CFG
            .replace("{dims: 1, points: 512, half_width: 12.0}",
                     "{dims: 2, points: 64, half_width: 12.0}")
            .replace("{n_minus: 1, omegas: [1.0]}", "{n_minus: 2, omegas: [1.0, 1.0]}")
            .replace("times: [2.0, 4.0, 6.0, 8.0, 10.0]", "times: [0.5]"))
    cfgs = [text.replace("state: {width: 1.0}", state) for state in (
        "state: {center: [0.5, 0.5], momentum: [0.2, 0.2]}",
        "state: {center: 0.5, momentum: 0.2}")]
    summaries = []
    for i, cfg_text in enumerate(cfgs):
        cfg = _write(tmp_path, f"v{i}.yaml", cfg_text)
        assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) in (0, 1)
        summaries.append(json.loads((tmp_path / "out" / f"v{i}.summary.json").read_text()))
    assert summaries[0]["metrics"] == summaries[1]["metrics"]


def test_mourre_scan_with_an_empty_shell_fails_its_check(tmp_path):
    # <x>^alpha + E < 0 at every sampled radius: no shell point, R_threshold = inf
    text = (MOURRE_CFG.replace("E: 0.0", "E: -4.0")
            .replace("radius_range: [1.0, 40.0]", "radius_range: [0.2, 1.0]"))
    cfg = _write(tmp_path, "mou.yaml", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    summary = json.loads((tmp_path / "out" / "mou.summary.json").read_text())
    assert summary["metrics"]["constraint_restricted"] is True
    assert (tmp_path / "out" / "scan.csv").read_text().splitlines() == ["x,xi,bracket,shell_E"]


def test_sample_mourre_scan_numbers_pinned(tmp_path):
    # E = 0 keeps every shell point on the cutoff plateau, so the published
    # numbers do not depend on the cutoff's shoulder
    from repscat.experiments import run_experiment

    cfg = load_config(os.path.join(CONFIG_DIR, "mourre_scan.yaml"))
    metrics = run_experiment(cfg, str(tmp_path))["metrics"]
    assert metrics["min_bracket"] == pytest.approx(1.0002777006387116, rel=1e-12)
    assert metrics["R_threshold"] == 0.2


def test_mourre_scan_just_inside_the_float_range_runs_clean(tmp_path):
    # at alpha = 2 the shell's (xi + x)^2 stays finite out to |x| = 1e150
    text = (MOURRE_CFG.replace("alpha: 1.0", "alpha: 2.0")
            .replace("radius_range: [1.0, 40.0]", "radius_range: [0.5, 1.0e+150]"))
    cfg = _write(tmp_path, "mou.yaml", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    metrics = json.loads((tmp_path / "out" / "mou.summary.json").read_text())["metrics"]
    assert np.isfinite(metrics["min_bracket"]) and metrics["n_violations"] == 0


def test_cook_zero_potential_writes_zero_column(tmp_path):
    cfg = _write(tmp_path, "cook.yaml", COOK_ZERO_CFG)
    rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    rows = (tmp_path / "out" / "cook.csv").read_text().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert all(v == 0.0 for v in vals)


def test_cook_table_perturbation_is_sampled_on_the_grid(tmp_path):
    # a constant table V = 2 on the split-step route: ||V psi(t)|| = 2 ||psi||
    # (cook takes no top-level alpha, so the velocity config's line goes)
    text = VELOCITY_SPLIT_CFG.replace("experiment: velocity", "experiment: cook").replace(
        "\nalpha: 1.0\n", "\n").replace(
        REPULSIVE_LINE, REPULSIVE_LINE + "\n  perturbation: {table: %s}" % ([2.0] * 256)
    ).replace("times: [1.0, 2.0]", "times: [0.5, 1.0, 1.5, 2.0]") + "csv: cook.csv\n"
    cfg = _write(tmp_path, "cook.yaml", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    rows = (tmp_path / "out" / "cook.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == pytest.approx([2.0] * 4, rel=1e-12)


# a quadratic saddle plus a sampled perturbation: a Gaussian bump at the
# nodes of a 64-point grid on [-8, 8)
QUAD_TABLE_LINES = "  quadratic: {n_minus: 1, omegas: [0.5]}\n  perturbation: {table: %s}" % (
    (0.5 * np.exp(-repscat.make_grid(1, 64, 8.0).nodes ** 2)).tolist())


@pytest.mark.parametrize("text", [
    CONVERGENCE_CFG.replace(REPULSIVE_LINE, QUAD_TABLE_LINES),
    PROPAGATE_CFG.replace("points: 512, half_width: 14.0", "points: 64, half_width: 8.0")
    .replace(QUAD_LINE, QUAD_TABLE_LINES) + "dt: 1.0e-3\n",
], ids=["convergence", "propagate"])
def test_quadratic_plus_table_runs_on_the_split_step_route(tmp_path, text):
    # the split-step route samples V on the grid, so a table is all it needs
    cfg = _write(tmp_path, "quad_table.yaml", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0


@pytest.mark.parametrize("text", [
    COOK_ZERO_CFG.replace(QUAD_LINE, QUAD_LINE + "\n  perturbation: {table: %s}" % ([0.1] * 256)),
    WAVE_CFG.replace("{preset: log-power, args: {height: 1.0, exponent: 2.0}}",
                     "{table: %s}" % ([0.1] * 2048)),
], ids=["cook", "wave-operator"])
def test_quadratic_plus_table_exits_2_where_v_is_dilated(tmp_path, capsys, text):
    cfg = _write(tmp_path, "quad_table.yaml", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "need a symbolic perturbation preset" in err and "Traceback" not in err


# A unit Gaussian under a field E = 10 on a 256-point grid: on the dual
# lattice its chirped spectrum sits at u = -E t/2, which reaches the edge band
# (|u| >= 0.9 max|xi| = 30.2) after t = 6 and wraps around the lattice.
STARK_LINES = ("grid: {dims: 1, points: 256, half_width: 12.0}\nhamiltonian:\n"
               "  quadratic: {n_E: 1, fields: [10.0]}\n")
STARK_POWER_LINE = "  perturbation: {preset: power, args: {height: 1.0, exponent: 1.0}}\n"


def test_cook_truncates_where_the_stark_drift_leaves_the_dual_lattice(tmp_path):
    # t = 12 published 8.7 times the exact integrand; the run now stops at 4
    from scipy.integrate import quad

    cfg = _write(tmp_path, "cook.yaml", "experiment: cook\n" + STARK_LINES + STARK_POWER_LINE
                 + "schedule: {times: [2.0, 3.0, 4.0, 12.0]}\ncsv: cook.csv\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert json.loads((tmp_path / "out" / "cook.summary.json").read_text())["metrics"][
        "truncated"] is True
    rows = [r.split(",") for r in (tmp_path / "out" / "cook.csv").read_text().splitlines()[1:]]
    assert [float(t) for t, _ in rows] == [2.0, 3.0, 4.0]
    for t, value in rows:
        # |psi_t|^2 is the Gaussian of mean -E t^2 and variance (1 + 4 t^2)/2
        t = float(t)
        mean, var = -10.0 * t * t, (1.0 + 4.0 * t * t) / 2.0
        dens = lambda x: np.exp(-(x - mean) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        exact, _ = quad(lambda x: dens(x) / (1.0 + x * x), mean - 40 * np.sqrt(var),
                        mean + 40 * np.sqrt(var), points=[0.0], limit=200, epsabs=1e-14)
        assert float(value) == pytest.approx(np.sqrt(exact), rel=2e-4)


@pytest.mark.parametrize("text, message", [
    ("experiment: velocity\nalpha: 2.0\n" + STARK_LINES
     + "state: {width: 1.0}\nschedule: {times: [2.0, 12.0]}\n", "Stark drift"),
    ("experiment: wave-operator\n" + STARK_LINES + STARK_POWER_LINE
     + "horizons: [2.0, 4.0, 8.0, 12.0]\n", "Stark field"),
], ids=["velocity", "wave-operator"])
def test_stark_drift_past_the_dual_lattice_exits_2(tmp_path, capsys, text, message):
    # both runs used to alias and fail their checks (exit 1)
    cfg = _write(tmp_path, "stark.yaml", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_oversized_grid_exits_2_before_any_allocation(tmp_path, capsys):
    import tracemalloc

    with open(os.path.join(CONFIG_DIR, "propagate_mehler.yaml")) as fh:
        text = fh.read().replace("grid: {dims: 1, points: 1024", "grid: {dims: 3, points: 1024")
    cfg = _write(tmp_path, "big.yaml", text)
    tracemalloc.start()
    try:
        rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert "points_per_dim" in err and "dims" in err and "Traceback" not in err
    # one 1024^3 complex state would take 16 GiB
    assert peak < 16 * 2**20


def test_factored_propagate_memory_budget(tmp_path):
    import tracemalloc

    with open(os.path.join(CONFIG_DIR, "propagate_mehler.yaml")) as fh:
        text = fh.read().replace("grid: {dims: 1, points: 1024", "grid: {dims: 2, points: 512")
    cfg = _write(tmp_path, "prop2d.yaml", text)
    tracemalloc.start()
    try:
        rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    # two states at a time (psi0 and the forward state, the forward state and
    # the state coming back, that one and the rebuilt psi0), plus small
    # buffers; a full-grid chirp or round-trip difference would add one more
    assert peak <= 2.6 * 512**2 * 16


def test_split_step_round_trip_memory_budget(tmp_path):
    import tracemalloc

    cfg = _write(tmp_path, "strang.yaml", """
experiment: propagate
grid: {dims: 2, points: 256, half_width: 40.0}
hamiltonian:
  repulsive: {alpha: 1.0}
t: 0.05
dt: 2.0e-3
""")
    # an untraced run first loads numpy.fft and caches the edge mask
    assert main(["run", cfg, "--out", str(tmp_path / "warm"), "--quiet"]) == 0
    tracemalloc.start()
    try:
        rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    # the potential and kinetic samples (one state together), the state the
    # run starts from, and the Strang loop's buffer and two phase arrays, plus
    # the edge guard's line blocks
    assert peak <= 5.3 * 256**2 * 16


def test_summary_is_bit_identical_across_runs(tmp_path):
    cfg = _write(tmp_path, "vel.yaml", VELOCITY_CFG)
    main(["run", cfg, "--out", str(tmp_path / "a"), "--seed", "7", "--quiet"])
    main(["run", cfg, "--out", str(tmp_path / "b"), "--seed", "7", "--quiet"])
    a = (tmp_path / "a" / "vel.summary.json").read_bytes()
    b = (tmp_path / "b" / "vel.summary.json").read_bytes()
    assert a == b


def test_propagate_classical_mourre_convergence_kinds(tmp_path):
    for name, text in [
        ("prop.yaml", PROPAGATE_CFG),
        ("cls.yaml", CLASSICAL_CFG),
        ("mou.yaml", MOURRE_CFG),
        ("conv.yaml", CONVERGENCE_CFG),
    ]:
        cfg = _write(tmp_path, name, text)
        rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == 0, name


def test_classical_2d_diagonal_start_escapes_like_1d_sample(tmp_path):
    # zero energy at alpha = 1: |xi| = <x>^(1/2) = 2^(1/4) at |x| = 1; the
    # motion stays on the diagonal, so |x(t)| is the 1-D sample's x(t)
    xi = [2.0 ** 0.25 * 0.6, 2.0 ** 0.25 * 0.8]
    cfg = _write(tmp_path, "cls2d.yaml",
                 CLASSICAL_CFG + f"start: {{x: [0.6, 0.8], xi: [{xi[0]!r}, {xi[1]!r}]}}\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "traj.csv").read_text().splitlines()[0] == "t,x0,x1,xi0,xi1,energy"
    summary = json.loads((out / "cls2d.summary.json").read_text())
    assert summary["metrics"]["truncated"] is False
    assert [c["name"] for c in summary["checks"] if c["pass"]] == ["kappa"]
    sample = os.path.join(CONFIG_DIR, "classical_kappa.yaml")
    assert main(["run", sample, "--out", str(tmp_path / "sample"), "--quiet"]) == 0
    kappa_1d = json.loads((tmp_path / "sample" / "classical_kappa.summary.json")
                          .read_text())["metrics"]["kappa_estimate"]
    assert summary["metrics"]["kappa_estimate"] == pytest.approx(kappa_1d, rel=1e-6)


def test_classical_start_where_the_force_overflows_exits_2(tmp_path, capsys):
    # alpha |x|^(alpha-2) at |x| = 1e-161 overflows a float
    cfg = _write(tmp_path, "near_origin.yaml", """
experiment: classical
alpha: 0.01
regularized: false
t_final: 1.0
start: {x: 1.0e-161, xi: 0.0}
""")
    rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "singular at the origin" in err and "Traceback" not in err


def test_suite_empty_manifest(tmp_path):
    manifest = _write(tmp_path, "m.yaml", "experiments: []\n")
    rc = main(["suite", manifest, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "suite_report.json").read_text())
    assert report["results"] == []


def test_suite_duplicate_ids_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", MOURRE_CFG)
    manifest = _write(
        tmp_path, "m.yaml",
        yaml.safe_dump({"experiments": [
            {"id": "one", "config": "c.yaml"},
            {"id": "one", "config": "c.yaml"},
        ]}),
    )
    rc = main(["suite", manifest, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("manifest, message", [
    pytest.param("experiments: 5\n", "experiments must be a list", id="not-a-list"),
    pytest.param("- {id: one, config: c.yaml}\n", "manifest must be a mapping", id="a-list"),
    pytest.param("experiments:\n  - {id: ../../escape, config: c.yaml}\n",
                 "experiments[0].id", id="escaping-id"),
    pytest.param("experiments:\n  - {id: sub/one, config: c.yaml}\n", "experiments[0].id",
                 id="nested-id"),
    pytest.param("experiments:\n  - {id: one, config: c.yaml}\n  - {id: 2, config: c.yaml}\n",
                 "experiments[1].id", id="integer-id"),
    pytest.param("experiments:\n  - {id: one, config: 5}\n", "'id' and 'config'",
                 id="config-not-a-path"),
])
def test_suite_bad_manifest_exits_2_before_any_entry_runs(tmp_path, capsys, manifest, message):
    _write(tmp_path, "c.yaml", MOURRE_CFG)
    path = _write(tmp_path, "m.yaml", manifest)
    out = tmp_path / "a" / "b" / "out"
    assert main(["suite", path, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml", "m.yaml"]


def _unreadable_config(tmp_path, kind):
    """A config path that cannot be read: missing, a directory, or not UTF-8."""
    path = tmp_path / "c.yaml"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"experiment: mourre-scan\nalpha: 1.0 # \xff\xfe\n")
    return str(path)


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8", "out-is-a-file"])
def test_run_file_errors_exit_2(tmp_path, capsys, kind):
    out = tmp_path / "out"
    if kind == "out-is-a-file":
        config = _write(tmp_path, "c.yaml", MOURRE_CFG)
        out.write_text("")
    else:
        config = _unreadable_config(tmp_path, kind)
    assert main(["run", config, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert (str(out) if kind == "out-is-a-file" else config) in err


@pytest.mark.parametrize("name", ["cook.csv", "cook_stark.summary.json"])
def test_directory_at_an_output_path_exits_2_naming_it(tmp_path, capsys, name):
    # the table writer and the summary writer open their files one way
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    config = os.path.join(CONFIG_DIR, "cook_stark.yaml")
    assert main(["run", config, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(out / name) in err


def test_rerun_into_the_same_out_rewrites_every_file(tmp_path):
    # each file is replaced, not truncated, and a symlink at an output path
    # is replaced too, so its target keeps its bytes
    config = _write(tmp_path, "scan.yaml", MOURRE_CFG)
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out), "--quiet"]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    target = tmp_path / "target.csv"
    target.write_bytes(b"kept")
    (out / "scan.csv").unlink()
    (out / "scan.csv").symlink_to(target)
    (out / "scan.summary.json").write_bytes(b"x" * 10**6)
    assert main(["run", config, "--out", str(out), "--quiet"]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    assert not (out / "scan.csv").is_symlink() and target.read_bytes() == b"kept"


def test_suite_missing_config_is_an_error_row(tmp_path, capsys):
    _write(tmp_path, "good.yaml", MOURRE_CFG)
    manifest = _write(tmp_path, "m.yaml", yaml.safe_dump({"experiments": [
        {"id": "gone", "config": "missing.yaml"}, {"id": "good", "config": "good.yaml"}]}))
    assert main(["suite", manifest, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    report = json.loads((tmp_path / "out" / "suite_report.json").read_text())
    gone, good = report["results"]
    assert gone["error"].startswith("ConfigurationError: ") and "missing.yaml" in gone["error"]
    assert good["pass"] and "Traceback" not in capsys.readouterr().err


def test_suite_aggregates_and_continues(tmp_path):
    _write(tmp_path, "good.yaml", MOURRE_CFG)
    _write(tmp_path, "bad.yaml", BAD_ALPHA_CFG)
    manifest = _write(
        tmp_path, "m.yaml",
        yaml.safe_dump({"experiments": [
            {"id": "bad", "config": "bad.yaml"},
            {"id": "good", "config": "good.yaml"},
        ]}),
    )
    rc = main(["suite", manifest, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "suite_report.json").read_text())
    by_id = {r["id"]: r for r in report["results"]}
    assert not by_id["bad"]["pass"]
    assert by_id["good"]["pass"]


def test_suite_records_any_exception_and_continues(tmp_path, monkeypatch, capsys):
    import repscat.cli as cli

    _write(tmp_path, "good.yaml", MOURRE_CFG)
    manifest = _write(
        tmp_path, "m.yaml",
        yaml.safe_dump({"experiments": [
            {"id": "first", "config": "good.yaml"},
            {"id": "boom", "config": "good.yaml"},
            {"id": "last", "config": "good.yaml"},
        ]}),
    )
    real = cli._run_one

    def run_one(config_path, out_dir, seed, quiet):
        if os.path.basename(out_dir) == "boom":
            raise RuntimeError("injected failure")
        return real(config_path, out_dir, seed, quiet)

    monkeypatch.setattr(cli, "_run_one", run_one)
    rc = main(["suite", manifest, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "suite_report.json").read_text())
    by_id = {r["id"]: r for r in report["results"]}
    assert [r["id"] for r in report["results"]] == ["first", "boom", "last"]
    assert by_id["boom"]["pass"] is False
    assert by_id["boom"]["error"] == "RuntimeError: injected failure"
    assert by_id["first"]["pass"] and by_id["last"]["pass"]
    err = capsys.readouterr().err
    assert "Traceback" in err and "error: boom: RuntimeError: injected failure" in err


#: The sample configs a cold-start benchmark client runs as fresh processes.
COLD_START_CONFIGS = ("propagate_mehler", "velocity_alpha2", "cook_stark", "mourre_scan")


def test_cli_import_loads_no_scipy(tmp_path):
    # nor hashlib (OpenSSL's libcrypto) nor numpy.polynomial, after running
    # each cold-start config: every cold process would pay for them
    src = os.path.dirname(os.path.dirname(repscat.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = f"""
import sys
from repscat.cli import main
heavy = ("scipy", "hashlib", "_hashlib", "numpy.polynomial")
for name in {COLD_START_CONFIGS!r}:
    assert main(["run", f"{CONFIG_DIR}/{{name}}.yaml", "--out", {str(tmp_path)!r}, "--quiet"]) == 0
    print(name, sorted(m for m in sys.modules for h in heavy if (m + ".").startswith(h + ".")))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines() == [f"{name} []" for name in COLD_START_CONFIGS]


@pytest.mark.parametrize("name", SAMPLE_CONFIGS)
def test_digest_is_the_sha256_prefix(name):
    cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.yaml"))
    canon = json.dumps({"config": cfg.raw, "seed": cfg.seed}, sort_keys=True, default=str)
    assert cfg.digest() == hashlib.sha256(canon.encode()).hexdigest()[:16]


def test_convergence_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(repscat.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["run", os.path.join(CONFIG_DIR, "convergence.yaml"), "--out", str(tmp_path),
            "--quiet"]
    code = ("import sys; sys.modules['scipy'] = None; from repscat.cli import main; "
            f"sys.exit(main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


# Property tests: one key of a sample config is replaced, deleted or added.
SMALL_NUMBERS = st.integers(-1, 1) | st.floats(-2.0, 2.0)
SCALARS = st.text(max_size=6) | st.booleans() | st.none() | SMALL_NUMBERS
VALUES = (SCALARS | st.lists(SCALARS, max_size=4)
          | st.dictionaries(st.text(max_size=6), SCALARS, max_size=3))


def _key_paths(block, prefix=()):
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw, names):
    name = draw(st.sampled_from(names))
    with open(os.path.join(CONFIG_DIR, f"{name}.yaml")) as fh:
        raw = yaml.safe_load(fh)
    path = draw(st.sampled_from(sorted(_key_paths(raw))))
    block = raw = copy.deepcopy(raw)
    for key in path[:-1]:
        block = block[key]
    how = draw(st.sampled_from(["replace", "delete", "add"]))
    if how == "replace":
        block[path[-1]] = draw(VALUES)
    elif how == "delete":
        del block[path[-1]]
    else:
        block[draw(st.text(min_size=1, max_size=6))] = draw(VALUES)
    return name, raw


def _write_config(directory, name, raw):
    path = os.path.join(directory, f"{name}.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    return path


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutated_configs(SAMPLE_CONFIGS))
def test_mutated_config_loads_or_raises_configuration_error(case):
    name, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        try:
            load_config(_write_config(tmp, name, raw))
        except ConfigurationError:
            pass


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mutated_configs(["mourre_scan", "convergence", "propagate_mehler"]))
def test_mutated_config_run_exits_0_1_or_2(case):
    name, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(tmp, name, raw)
        assert main(["run", path, "--out", os.path.join(tmp, "out"), "--quiet"]) in (0, 1, 2)


@pytest.mark.parametrize("t, code", [(175.6, 0), (175.8, 2)])
def test_velocity_time_at_the_lattice_overflow_bound(tmp_path, t, code):
    # the sample velocity_alpha2 config (512 points, half width 12): the cell
    # rule's largest |x| = sinh(2t) (max|xi| + h/2) squares past the float
    # range between t = 175.6 and 175.8; inside, the run (histograms
    # included) completes with warnings as errors and finite means
    with open(os.path.join(CONFIG_DIR, "velocity_alpha2.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["schedule"] = {"times": [2.0, t]}
    cfg = _write_config(str(tmp_path), "velocity_alpha2", raw)
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(repscat.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repscat.cli", "run", cfg,
         "--out", str(out), "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    if code == 2:
        assert "overflows a float" in proc.stderr and not out.exists()
    else:
        with open(out / "velocity_alpha2.summary.json") as fh:
            means = json.load(fh)["metrics"]["means"]
        assert all(isinstance(m, float) and np.isfinite(m) for m in means)


def test_wave_operator_whose_chirped_spectrum_is_not_finite_exits_2(tmp_path, capsys):
    # the Cook scan starts at T = 1e-310, where g(2T) ~ 2e-310 and the chirp
    # phase x^2 h/(2 g) overflows: read_config refuses the time.  The run
    # used to pass it, publish cook_bounds [0.0] and exit 1
    text = WAVE_CFG.replace("horizons: [2.0, 4.0, 6.0]", "horizons: [1.0e-310, 2.0]")
    cfg = _write(tmp_path, "wave.yaml", text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_state_whose_packet_underflows_exits_2_without_a_warning(tmp_path):
    # center 100 on a box of half width 5: the packet underflows at every
    # node; the run must refuse it before any NaN, with warnings as errors
    cfg = _write(tmp_path, "far.yaml", """
experiment: propagate
grid: {dims: 1, points: 64, half_width: 5.0}
hamiltonian:
  quadratic: {n_minus: 1, omegas: [1.0]}
state: {center: 100}
t: 0.5
""")
    src = os.path.dirname(os.path.dirname(repscat.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repscat.cli", "run", cfg,
         "--out", str(tmp_path / "out"), "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "zero norm" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
