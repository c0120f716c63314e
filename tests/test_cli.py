import copy
import json
import os
import subprocess
import sys
import tempfile

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import repscat
from repscat.cli import main
from repscat.config import load_config
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
])
def test_bad_grid_block_exits_2(tmp_path, capsys, bad_grid, key):
    text = CONVERGENCE_CFG.replace("grid: {dims: 1, points: 64, half_width: 8.0}", bad_grid)
    cfg = _write(tmp_path, "conv.yaml", text)
    rc = main(["run", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert key in capsys.readouterr().err


QUAD_LINE = "  quadratic: {n_minus: 1, omegas: [1.0]}"
REPULSIVE_LINE = "  repulsive: {alpha: 1.0}"


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
    pytest.param(PROPAGATE_CFG, "t: 0.4", "t: 0.4\nnorm_tol: loose", "norm_tol",
                 id="propagate-norm_tol"),
    pytest.param(PROPAGATE_CFG, "t: 0.4", "t: 0.4\nroundtrip_tol: [1]", "roundtrip_tol",
                 id="propagate-roundtrip_tol"),
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
    pytest.param(WAVE_CFG, "horizons: [2.0, 4.0, 6.0]",
                 "horizons: [2.0, 4.0, 6.0]\nisometry_tol: tight", "isometry_tol",
                 id="wave-isometry_tol"),
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
    pytest.param(MOURRE_CFG, "samples: 2000", 'samples: 2000\ncheck_heuristic: "yes"',
                 "check_heuristic", id="mourre-check_heuristic"),
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


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(repscat.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, repscat.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


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
