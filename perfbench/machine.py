"""Machine record written with every result, and the drift sentinels timed
between passes: a fixed numpy FFT loop and a fixed pure-Python loop.  They
do not touch repscat, so when they slow down together with the workload the
machine, not the program, got slower."""

from __future__ import annotations

import glob
import os
import platform
import subprocess
import sys
from time import perf_counter


def ref_fft_s() -> float:
    """Wall time of 40 complex FFT round trips of length 16384 (about 20 ms)."""
    import numpy as np

    x = np.exp(1j * np.linspace(0.0, 100.0, 16384))
    for _ in range(4):  # plan cache and CPU caches, untimed
        np.fft.ifft(np.fft.fft(x))
    t0 = perf_counter()
    for _ in range(40):
        np.fft.ifft(np.fft.fft(x))
    return perf_counter() - t0


def ref_py_s() -> float:
    """Wall time of a fixed pure-Python integer loop (about 20 ms)."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def _cache_sizes() -> dict:
    out = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(idx, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(idx, "size")) as fh:
                out[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    return out


def git_commit(root: str):
    """The checkout's git commit, or None when it is not a repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(root: str, seed: int, env: dict) -> dict:
    """Versions, machine and thread settings of the worker environment env."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": _cache_sizes(),
        "threads": {v: env.get(v) for v in env if v.endswith("_NUM_THREADS")},
        "fft": "numpy.fft (pocketfft, single-threaded)",
        "seed": seed,
        "executable": sys.executable,
        "git_commit": git_commit(root),
    }
