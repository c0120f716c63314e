"""Experiment runner CLI: `repscat run <config>` and `repscat suite <manifest>`."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import yaml

from .config import _file_name, load_config
from .csvout import open_output
from .errors import ConfigurationError, RepscatError
from .experiments import make_output_dir, run_experiment


def _jsonable(obj):
    """None, bools, ints and strings as they are; any other leaf a float,
    which json writes as its shortest round-trip text, or "nan", "inf", "-inf"."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    x = float(obj)
    return x if math.isfinite(x) else str(x)


def write_summary(summary: dict, path: str):
    with open_output(path) as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_one(config_path: str, out_dir: str, seed, quiet: bool):
    cfg = load_config(config_path, seed_override=seed)
    summary = run_experiment(cfg, out_dir)
    name = os.path.splitext(os.path.basename(config_path))[0]
    summary_path = os.path.join(out_dir, f"{name}.summary.json")
    write_summary(summary, summary_path)
    failed = [c for c in summary["checks"] if not c["pass"]]
    if not quiet:
        for c in summary["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            print(f"[{status}] {summary['experiment']}:{c['name']} "
                  f"measured={c['measured']} expected={c['expected']} tol={c['tol']}")
        print(f"summary: {summary_path}")
    return summary, len(failed)


def cmd_run(args) -> int:
    try:
        _, n_failed = _run_one(args.config, args.out, args.seed, args.quiet)
    except RepscatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if n_failed else 0


def _manifest_entries(manifest) -> list:
    """The manifest's `experiments` list, checked before any entry runs: each
    entry has a config path and an id that names one directory inside --out."""
    if not isinstance(manifest, dict):
        raise ConfigurationError(f"manifest must be a mapping, got {manifest!r}")
    entries = manifest.get("experiments")
    if entries is None:
        return []
    if not isinstance(entries, list):
        raise ConfigurationError(f"experiments must be a list, got {entries!r}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or not isinstance(
                entry.get("config"), str):
            raise ConfigurationError("manifest entries need 'id' and 'config' fields")
        _file_name(entry["id"], f"experiments[{i}].id")
    ids = [e["id"] for e in entries]
    if len(ids) != len(set(ids)):
        raise ConfigurationError("duplicate experiment ids in manifest")
    return entries


def cmd_suite(args) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = yaml.safe_load(fh) or {}
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    try:
        entries = _manifest_entries(manifest)
        make_output_dir(args.out)
    except RepscatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = os.path.dirname(os.path.abspath(args.manifest))
    rows = []
    any_failed = False
    for entry in entries:
        exp_id = entry["id"]
        path = entry["config"]
        if not os.path.isabs(path):
            path = os.path.join(base, path)
        out_dir = os.path.join(args.out, exp_id)
        # one entry's failure, of whatever kind, must not cost the others
        # their rows or the report; an unexpected one also leaves its traceback
        try:
            summary, n_failed = _run_one(path, out_dir, args.seed, args.quiet)
            ok = n_failed == 0
            rows.append({"id": exp_id, "experiment": summary["experiment"],
                         "pass": ok, "failed_checks": n_failed})
        except Exception as exc:
            if not isinstance(exc, RepscatError):
                import traceback  # only on this path: it adds to every cold start

                traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
            print(f"error: {exp_id}: {error}", file=sys.stderr)
            rows.append({"id": exp_id, "experiment": "?", "pass": False, "error": error})
            ok = False
        any_failed = any_failed or not ok
    report = {"manifest": os.path.basename(args.manifest), "results": rows}
    report_path = os.path.join(args.out, "suite_report.json")
    write_summary(report, report_path)
    if not args.quiet:
        for row in rows:
            status = "PASS" if row["pass"] else "FAIL"
            print(f"[{status}] {row['id']}")
        print(f"report: {report_path}")
    return 1 if any_failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repscat",
        description="Run repulsive-potential dynamics experiments from configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_suite = sub.add_parser("suite", help="run every experiment in a manifest")
    p_suite.add_argument("manifest")
    for p in (p_run, p_suite):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_suite(args)


if __name__ == "__main__":
    sys.exit(main())
