"""One workload process: set up (imports, inputs, one warm-up pass), then run
round-robin passes until its time budget is spent.  Prints one JSON line
with every sample it took; run.py starts it and pools the workers.

    python perfbench/worker.py <workload> <seed> <index> <budget_s> <trace> <run_dir>
"""

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import machine  # noqa: E402

#: Most a traced job's wall time may exceed the summed durations of its root
#: run_experiment spans: the runner builds one ExperimentConfig per call and
#: the wrapper does its bookkeeping outside the span, each a few microseconds.
ROOT_GAP_S = 1e-3


class ColdStartClient:
    """Cold-start pass: one fresh CLI process per sample config.  Traced
    requests run under cli_traced.py and their span files are summed here."""

    def __init__(self, seed, run_dir):
        self.runner = jobs.ColdStartRunner(seed, run_dir, sys.executable, jobs.python_env())
        self.names = jobs.COLD_CONFIGS
        self.run_dir = run_dir
        self.recording = False
        self.summary = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        self.counters = Counter()
        self.spans = 0
        self.extra_s = 0.0

    def run(self, name):
        if not self.recording:
            return self.runner.run(name)
        path = os.path.join(self.run_dir, "spans.json")
        result = self.runner.run(name, spans_path=path)
        if not os.path.exists(path):  # the request failed before writing spans
            return result
        with open(path) as fh:
            data = json.load(fh)
        os.remove(path)
        for span, row in data["summary"].items():
            self.summary[span]["calls"] += row["calls"]
            self.summary[span]["self_s"] += row["self_s"]
        self.counters.update(data["counters"])
        self.spans += data["spans"]
        self.extra_s += data["extra_s"]
        elapsed, failures, nbytes = result
        return elapsed, failures + [f"{name}: trace: {m}" for m in data["errors"]], nbytes

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class InProcessClient:
    """In-process pass: every job through experiments.run_experiment."""

    def __init__(self, workload, seed, index, run_dir, trace):
        rng = np.random.default_rng([seed, index])
        self.runner = jobs.InProcessRunner(workload, seed, rng, run_dir)
        self.by_name = {j.name: j for j in self.runner.jobs}
        self.names = tuple(self.by_name)
        self.tracer = None
        self.max_root_gap_s = 0.0
        if trace:
            import layers
            from spans import Tracer

            self.tracer = Tracer()
            layers.install(self.tracer)

    @property
    def recording(self):
        return bool(self.tracer and self.tracer.enabled)

    @recording.setter
    def recording(self, on):
        if self.tracer:
            self.tracer.enabled = on

    def run(self, name):
        if not self.recording:
            return self.runner.run(self.by_name[name])
        first = len(self.tracer.names)
        elapsed, failures, nbytes = self.runner.run(self.by_name[name])
        if math.isfinite(elapsed):
            failures = failures + [f"{name}: trace: {m}"
                                   for m in self.trace_errors(first, elapsed)]
        return elapsed, failures, nbytes

    def trace_errors(self, first, elapsed):
        """Check the spans of one job against the wall time the runner took
        for it on its own clock: the job's spans nest, its roots are
        run_experiment calls, and their self times, which add up to the roots'
        durations, account for the job's wall time up to ROOT_GAP_S."""
        tr = self.tracer
        errors = tr.nesting_errors(first)
        roots = tr.roots_since(first)
        errors += [f"root span {tr.names[i]} is not experiments.run_experiment"
                   for i in roots if tr.names[i] != "experiments.run_experiment"]
        gap = elapsed - sum(tr.duration(i) for i in roots)
        self.max_root_gap_s = max(self.max_root_gap_s, gap)
        if not 0.0 <= gap <= ROOT_GAP_S:
            errors.append(f"root spans cover {elapsed - gap:.6f} s of a {elapsed:.6f} s job")
        return errors

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(client, out, names=None):
    """One round-robin pass over names (default: every job); returns its
    wall time and its sample (inf if a job failed)."""
    t0 = perf_counter()
    failed = False
    written = 0
    for name in names or client.names:
        elapsed, failures, nbytes = client.run(name)
        out["attempted"] += 1
        out["jobs"][name].append(elapsed)
        out["failures"] += failures
        failed = failed or bool(failures)
        written += nbytes
    out["bytes_per_pass"].append(written)
    wall = perf_counter() - t0
    return wall, (float("inf") if failed else wall)


def main():
    workload, seed, index, budget, trace, run_dir = sys.argv[1:7]
    seed, index, budget, trace = int(seed), int(index), float(budget), trace == "1"
    os.makedirs(run_dir, exist_ok=True)
    if workload == "cold-start":
        client = ColdStartClient(seed, run_dir)
    else:
        client = InProcessClient(workload, seed, index, run_dir, trace)
    out = {"attempted": 0, "failures": [], "jobs": {n: [] for n in client.names},
           "bytes_per_pass": [], "passes": [], "ref_fft_s": [], "ref_py_s": []}
    # Warm-up fills caches; its timings are discarded.  A cold-start client
    # keeps no state, so one request (which compiles the bytecode) suffices.
    run_pass(client, out, client.names[:1] if workload == "cold-start" else None)
    out["jobs"] = {n: [] for n in client.names}
    out["bytes_per_pass"] = []
    out["setup_s"] = perf_counter() - T_START

    measured = 0.0
    while True:
        out["ref_fft_s"].append(machine.ref_fft_s())
        out["ref_py_s"].append(machine.ref_py_s())
        client.recording = trace
        wall, sample = run_pass(client, out)
        client.recording = False
        out["passes"].append(sample)
        measured += wall
        if measured + wall > budget:
            break
    out["measured_s"] = measured
    out["peak_rss_mb"] = client.peak_rss_mb()

    if trace:
        import layers
        import probes
        from spans import Tracer

        if isinstance(client, ColdStartClient):
            summary, counters = client.summary, client.counters
            spans, extra_s = client.spans, client.extra_s
        else:
            tr = client.tracer
            summary, counters = tr.summary(), tr.counters
            spans, extra_s = len(tr.names), tr.extra_s
            out["max_root_gap_s"] = client.max_root_gap_s
        metrics = layers.span_metrics(summary, counters, len(out["passes"]))
        metrics["cli.bytes_written"] = float(np.mean(out["bytes_per_pass"]))
        metrics["trace.overhead_frac"] = (spans * Tracer().span_cost_s() + extra_s) / measured
        metrics.update(probes.run_probes(run_dir))
        out["layers"] = metrics
    print(json.dumps(out))


if __name__ == "__main__":
    main()
