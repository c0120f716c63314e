"""repscat benchmark: three workloads, end-to-end metrics untraced and
per-layer metrics from a separate traced run.  See perfbench/README.md.

    python3 perfbench/run.py --workload dilation --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20   # every workload
    python3 perfbench/run.py --quick                       # smoke check

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(HERE, "runs")

#: Untraced runs pool this many fresh worker processes, each set up once.
WORKERS = 3
#: Every run must end well inside 180 s.
DEADLINE_S = 170.0

END_TO_END = [("setup_s", "s"), ("sweep_s", "s"), ("peak_rss_mb", "MB")]


def high_percentile(values):
    """(p, value) for the highest of p99/p95/p90/p75/p50 with at least ten
    samples above it (nearest rank), or None when there are too few."""
    xs = sorted(values)
    n = len(xs)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def _geomean(values):
    if any(not math.isfinite(v) or v <= 0 for v in values):
        return math.inf
    return math.exp(sum(math.log(v) for v in values) / len(values))


def start_worker(workload, seed, index, budget, trace, run_dir, timeout):
    import jobs

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(index),
           repr(budget), str(trace), os.path.join(run_dir, f"w{index}")]
    # A session of its own, so a worker that overruns is killed with its children.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=jobs.python_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    import jobs
    import layers
    import machine

    t_begin = perf_counter()
    tag = f"{workload}-seed{seed}-trace{trace}"
    run_dir = os.path.join(RUNS_DIR, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    n_workers = 1 if trace else WORKERS
    workers = []
    measured = 0.0
    try:
        for k in range(n_workers):
            budget = max(seconds - measured, 0.0) / (n_workers - k)
            timeout = DEADLINE_S - (perf_counter() - t_begin)
            workers.append(start_worker(workload, seed, k, budget, trace, run_dir, timeout))
            measured += workers[-1]["measured_s"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": max(sum(w["attempted"] for w in workers), 1),
                "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    names = list(workers[0]["jobs"])
    jobs_s = {n: [t for w in workers for t in w["jobs"][n]] for n in names}
    passes = [t for w in workers for t in w["passes"]]
    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    samples = {"setup_s": [w["setup_s"] for w in workers], "sweep_s": passes}
    samples.update({f"job_s.{n}": v for n, v in jobs_s.items()})
    if workload == "cold-start":
        samples["cold_run_s"] = [t for v in jobs_s.values() for t in v]
    job_geomean_s = _geomean([median(v) for v in jobs_s.values()])
    e2e = {
        "setup_s": median(samples["setup_s"]),
        "sweep_s": median(passes),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    sentinels = {"machine.ref_fft_s": median(t for w in workers for t in w["ref_fft_s"]),
                 "machine.ref_py_s": median(t for w in workers for t in w["ref_py_s"])}
    record = machine.record(ROOT, seed, jobs.python_env())

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}  "
          f"workers {n_workers}  passes {len(passes)}")
    print(f"{'metric':<34}{'median':>14}{'high pct':>22}{'n':>5}  unit")
    for name, values in samples.items():
        hp = high_percentile(values)
        hp_text = f"p{hp[0]}={hp[1]:.6g}" if hp else "-"
        print(f"{name:<34}{median(values):>14.6g}{hp_text:>22}{len(values):>5}  s")
    print(f"{'job_geomean_s':<34}{job_geomean_s:>14.6g}{'-':>22}{len(names):>5}  s")
    print(f"{'peak_rss_mb':<34}{e2e['peak_rss_mb']:>14.6g}{'-':>22}{n_workers:>5}  MB")
    print(f"{'failed_frac':<34}{len(failures) / attempted:>14.6g}{'-':>22}{attempted:>5}  frac")
    for name, value in sentinels.items():
        print(f"{name:<34}{value:>14.6g}{'-':>22}{'':>5}  s")
    for failure in failures:
        print(f"FAILED {failure}")
    print("machine " + json.dumps(record, sort_keys=True))

    correct = not failures
    if trace:
        w = workers[0]
        metrics = dict(w["layers"])
        metrics.update(layers.import_profile(sys.executable, jobs.python_env(), ROOT))
        metrics.update(sentinels)
        units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
        if "max_root_gap_s" in w:
            print(f"largest job wall time not covered by its root spans: "
                  f"{w['max_root_gap_s']:.2e} s")
        for name, _, _ in layers.LAYER_METRICS:
            print(f"layer {name:<46}{metrics[name]:>16.6g}  {units[name]}")
    else:
        metrics = e2e
        units = dict(END_TO_END)
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(os.path.join(RUNS_DIR, f"{tag}.json"), "w") as fh:
        json.dump({"result": result, "machine": record, "samples": samples,
                   "sentinels": sentinels, "failures": failures}, fh, indent=1)
    return result


def quick() -> int:
    """Each job once, the cold-start requests once, and the self-time
    arithmetic of the tracer on a synthetic nested call."""
    import tempfile

    import numpy as np

    import jobs
    import layers
    from spans import Tracer

    sys.path.insert(0, os.path.join(ROOT, "src"))
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end does not match run.py")
    if [m["name"] for m in spec["per_layer"]] != [n for n, _, _ in layers.LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer does not match layers.py")

    tracer = Tracer()

    def busy(seconds):
        t0 = perf_counter()
        while perf_counter() - t0 < seconds:
            pass

    inner = tracer.wrap("inner", lambda: busy(0.02))

    def outer_body():
        busy(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    tracer.enabled = True
    t0 = perf_counter()
    outer()
    wall = perf_counter() - t0
    tracer.enabled = False
    s = tracer.summary()
    root = tracer.duration(0)
    if not (s["inner"]["calls"] == 2 and 0.009 <= s["outer"]["self_s"] <= 0.02
            and 0.039 <= s["inner"]["self_s"] <= 0.05
            and abs(s["outer"]["self_s"] + s["inner"]["self_s"] - root) <= 1e-9 * root
            and 0.0 <= wall - root <= 1e-3 and not tracer.nesting_errors(window=(t0, t0 + wall))):
        problems.append(f"self-time arithmetic is off: {s}, root {root}, wall {wall}")
    # the nesting check must catch a child that outlives its parent
    tracer.ends[1] = tracer.ends[0] + 1.0
    if not tracer.nesting_errors():
        problems.append("nesting check missed a child span outside its parent")
    print(f"synthetic spans: outer self {s['outer']['self_s']:.4f} s, inner self "
          f"{s['inner']['self_s']:.4f} s over 2 calls, root {root:.4f} s of {wall:.4f} s wall")

    os.makedirs(RUNS_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        cold = jobs.ColdStartRunner(1, tmp, sys.executable, jobs.python_env())
        for name in jobs.COLD_CONFIGS:
            elapsed, failures, _ = cold.run(name)
            problems += failures
            print(f"cold-start {name:<22}{elapsed:8.3f} s {'ok' if not failures else 'FAILED'}")
        for workload, job_list in jobs.IN_PROCESS.items():
            runner = jobs.InProcessRunner(workload, 1, np.random.default_rng(1), tmp)
            for job in job_list:
                elapsed, failures, _ = runner.run(job)
                problems += failures
                print(f"{workload} {job.name:<22}{elapsed:8.3f} s "
                      f"{'ok' if not failures else 'FAILED'}")
    for p in problems:
        print(f"FAILED {p}")
    print("quick check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    import jobs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--quick", action="store_true", help="smoke check, no timing")
    args = parser.parse_args(argv)
    for needed in (os.path.join("src", "repscat", "__init__.py"), "configs"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a repscat checkout",
                  file=sys.stderr)
            return 2
    if args.quick:
        return quick()
    if args.all:
        status = 0
        for workload in jobs.WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
        return status
    if not args.workload:
        parser.error("--workload is required (or --all / --quick)")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
