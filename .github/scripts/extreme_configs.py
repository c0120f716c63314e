"""Run every one-leaf extreme config of the sample configs, and fail on a
traceback, a timeout or an exit code outside {0, 1, 2}.

    PYTHONPATH=src python .github/scripts/extreme_configs.py

Each numeric leaf of each sample config in CONFIG_DIR (run it from the
repository's root), list entries included, is set in turn to each value of
EXTREMES: 704 configs for the nine sample configs.  read_config reads each one with RuntimeWarnings
as errors and must either refuse it with a ConfigurationError or read it.
Each config it reads then runs as `repscat run` in a child process capped at
1 GiB of address space and TIMEOUT_S seconds, under -W error::RuntimeWarning;
a run that exits 2 must leave its --out uncreated.  The tallies go to
stdout, with one FAULT line for each config that fails.
"""

import copy
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import yaml

from repscat.config import read_config
from repscat.errors import ConfigurationError

CONFIG_DIR = "configs"
#: 1.8e308 reads as inf.
EXTREMES = (5e-324, 1e-310, 1e-300, 1e-12, 1e12, 1e300, 1.8e308, -1e300)
TIMEOUT_S = 30
#: The outcomes that pass: refused by read_config, or a run that exits 0, 1 or 2.
CLEAN = ("refused", "exit 0", "exit 1", "exit 2")
#: The child sets its own address-space cap before it imports repscat, so the
#: parent can run two at a time from threads.
CHILD = ("import resource, runpy; "
         "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
         "runpy.run_module('repscat.cli', run_name='__main__')")


def numeric_leaves(block, path=()):
    """The key path of every int or float (not bool) in a nested config."""
    items = block.items() if isinstance(block, dict) else enumerate(block)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


def extreme_configs(config_dir):
    """(sample name, leaf path, value, raw config) for every one-leaf change."""
    for file_name in sorted(os.listdir(config_dir)):
        if not file_name.endswith(".yaml"):
            continue
        with open(os.path.join(config_dir, file_name)) as fh:
            raw = yaml.safe_load(fh)
        if "experiment" not in raw:  # the suite manifest
            continue
        for path in numeric_leaves(raw):
            for value in EXTREMES:
                changed = copy.deepcopy(raw)
                block = changed
                for key in path[:-1]:
                    block = block[key]
                block[path[-1]] = value
                yield file_name[:-5], path, value, changed


def run_child(config_path, out_dir) -> tuple:
    """(outcome, detail) of one capped `repscat run`: outcome "exit 0",
    "exit 1" or "exit 2", or a fault."""
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-c", CHILD, "run", config_path,
           "--out", out_dir, "--quiet"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", f"past {TIMEOUT_S} s"
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    if "Traceback" in proc.stderr:
        return "traceback", f"exit {proc.returncode}: {last}"
    if proc.returncode not in (0, 1, 2):
        return "exit outside (0, 1, 2)", f"exit {proc.returncode}: {last}"
    if proc.returncode == 2 and os.path.exists(out_dir):
        return "output left by a refused run", f"exit {proc.returncode}: {last}"
    return f"exit {proc.returncode}", last


def main() -> int:
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for i, (name, path, value, raw) in enumerate(extreme_configs(CONFIG_DIR)):
            label = f"{name} {'.'.join(map(str, path))}={value!r}"
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    read_config(copy.deepcopy(raw))
            except ConfigurationError as exc:
                outcomes[label] = "refused", str(exc)
                continue
            except Exception as exc:  # any other fault of read_config fails the scan
                outcomes[label] = "read_config crash", f"{type(exc).__name__}: {exc}"
                continue
            config_path = os.path.join(tmp, f"{i}-{name}.yaml")
            with open(config_path, "w") as fh:
                yaml.safe_dump(raw, fh)
            runs[label] = (config_path, os.path.join(tmp, f"{i}-out"))
        with ThreadPoolExecutor(max_workers=2) as pool:
            for label, outcome in zip(runs, pool.map(lambda r: run_child(*r), runs.values())):
                outcomes[label] = outcome
    tally = Counter(outcome for outcome, _ in outcomes.values())
    print(f"{len(outcomes)} configs: " + ", ".join(f"{n} {k}" for k, n in sorted(tally.items())))
    faults = {label: o for label, o in outcomes.items() if o[0] not in CLEAN}
    for label, (outcome, detail) in faults.items():
        print(f"FAULT {label}: {outcome}: {detail}")
    return int(bool(faults))


if __name__ == "__main__":
    sys.exit(main())
