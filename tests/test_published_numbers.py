"""The suite's published numbers: the output of `repscat suite
configs/suite.yaml`, checked against the committed tree `configs/expected/`.

The tree holds every summary JSON, `suite_report.json` and each CSV under
WHOLE_CSV_BYTES; a larger CSV is committed as `<name>.csv.stats.json`, its row
count and each column's min, max and sum.  Strings and booleans must match
exactly, numbers to RTOL, with an absolute ROUNDOFF_ATOL floor only for the
roundoff-level keys and the `measured` copies of the checks on them:
roundoff may differ across CPUs and numpy builds, so bytes are not compared.

After a deliberate change to a published number, regenerate the tree with

    PYTHONPATH=src python tests/test_published_numbers.py

and list each old -> new value in CHANGES.md.
"""

import csv
import json
import math
import os
import shutil
import sys
import tempfile

from repscat.cli import main, write_summary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "configs", "suite.yaml")
EXPECTED = os.path.join(ROOT, "configs", "expected")

#: CSVs of this size or more are committed as statistics, not whole.
WHOLE_CSV_BYTES = 30 * 1024
STATS = ".stats.json"
RTOL = 1e-10
ROUNDOFF_KEYS = ("norm_drift", "roundtrip_error", "isometry_defect", "heuristic_identity_dev")
#: The checks whose `measured` value is one of the roundoff-level metrics.
ROUNDOFF_CHECKS = ("unitarity", "reversibility", "isometry", "heuristic_identity")
ROUNDOFF_ATOL = 1e-12


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return [[_cell(text) for text in row] for row in csv.reader(fh)]


def _csv_stats(path: str) -> dict:
    header, *rows = _csv_rows(path)
    columns = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    return {"rows": len(rows),
            "columns": {name: {"min": min(v), "max": max(v), "sum": math.fsum(v)}
                        for name, v in columns.items()}}


def _files(top: str) -> list:
    """Paths of the files under `top`, relative to it, with / separators."""
    return sorted(os.path.relpath(os.path.join(d, name), top).replace(os.sep, "/")
                  for d, _, names in os.walk(top) for name in names)


def published(out_dir: str) -> dict:
    """{committed path: content} of a suite output tree, as it is committed."""
    tree = {}
    for rel in _files(out_dir):
        path = os.path.join(out_dir, rel)
        if rel.endswith(".csv") and os.path.getsize(path) >= WHOLE_CSV_BYTES:
            tree[rel + STATS] = _csv_stats(path)
        else:
            tree[rel] = _read(path)
    return tree


def _read(path: str):
    if path.endswith(".csv"):
        return _csv_rows(path)
    with open(path) as fh:
        return json.load(fh)


def mismatches(ref, got, path: str, key: str = "") -> list:
    """Where `got` differs from the reference `ref`, one message per value."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys differ"]
        # a check's measured value is compared under the check's name
        name = lambda k: ref["name"] if k == "measured" and "name" in ref else k
        return [m for k in ref for m in mismatches(ref[k], got[k], f"{path}.{k}", name(k))]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: length differs"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in mismatches(r, g, f"{path}[{i}]", key)]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (ref, got))
    if not numbers:
        same = type(ref) is type(got) and ref == got
    elif math.isnan(ref) or math.isnan(got):
        same = math.isnan(ref) and math.isnan(got)
    else:
        floor = ROUNDOFF_ATOL if key in ROUNDOFF_KEYS + ROUNDOFF_CHECKS else 0.0
        same = ref == got or abs(got - ref) <= max(RTOL * abs(ref), floor)
    return [] if same else [f"{path}: {got!r} != expected {ref!r}"]


def test_suite_output_matches_committed_tree(tmp_path):
    assert main(["suite", MANIFEST, "--out", str(tmp_path), "--quiet"]) == 0
    got = published(str(tmp_path))
    expected = {rel: _read(os.path.join(EXPECTED, rel)) for rel in _files(EXPECTED)}
    assert sorted(got) == sorted(expected)
    bad = [m for rel in expected for m in mismatches(expected[rel], got[rel], rel)]
    assert not bad, "\n".join(bad)


def test_mismatches_rule():
    assert mismatches({"a": [1.0, "x", True]}, {"a": [1.0 + 1e-11, "x", True]}, "t") == []
    assert mismatches({"a": 1.0}, {"a": 1.0 + 1e-9}, "t") == ["t.a: 1.000000001 != expected 1.0"]
    assert mismatches({"a": True}, {"a": 1}, "t") and mismatches({"a": "1"}, {"a": 1.0}, "t")
    assert mismatches({"norm_drift": 1e-14}, {"norm_drift": 9e-13}, "t") == []
    assert mismatches({"other": 1e-14}, {"other": 9e-13}, "t")
    assert mismatches([float("nan")], [float("nan")], "t") == []
    assert mismatches({"a": 1}, {"b": 1}, "t") == ["t: keys differ"]


def test_roundoff_checks_measured_copies_get_the_floor():
    # the wave-operator isometry defect moved by roundoff alone, in the metric
    # and in the check's copy of it; a non-roundoff check still fails at 1e-9
    def summary(defect, velocity):
        return {"metrics": {"isometry_defect": defect},
                "checks": [{"name": "isometry", "expected": 1e-8, "measured": defect,
                            "tol": 0.0, "pass": True},
                           {"name": "velocity_limit", "expected": 0.2, "measured": velocity,
                            "tol": 0.0, "pass": True}]}
    assert mismatches(summary(1.887e-14, 0.1), summary(1.932e-14, 0.1), "t") == []
    assert mismatches(summary(1.887e-14, 0.1), summary(1.887e-14, 0.1 * (1 + 1e-9)), "t") == [
        f"t.checks[1].measured: {0.1 * (1 + 1e-9)!r} != expected 0.1"]


def _regenerate():
    """Rewrite configs/expected/ from a fresh suite run."""
    with tempfile.TemporaryDirectory() as out:
        status = main(["suite", MANIFEST, "--out", out, "--quiet"])
        if status != 0:
            sys.exit(f"suite exited {status}; configs/expected/ left as it was")
        shutil.rmtree(EXPECTED, ignore_errors=True)
        for rel, content in published(out).items():
            target = os.path.join(EXPECTED, rel)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            if rel.endswith(STATS):
                write_summary(content, target)
            else:
                shutil.copyfile(os.path.join(out, rel), target)
    print(f"wrote {EXPECTED}")


if __name__ == "__main__":
    _regenerate()
