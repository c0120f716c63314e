"""Run one `repscat run` in a child process and fail unless it exits with the
expected code (0 by default) and a peak resident set size under a limit.
A run that exits nonzero must also leave OUT_DIR uncreated, so OUT_DIR may
not exist beforehand.

    PYTHONPATH=src python .github/scripts/peak_rss.py CONFIG OUT_DIR LIMIT_MB \
        [--exit CODE] [--above-numpy]

With --above-numpy the limit is counted above the peak of a bare
`python -c "import numpy"`, measured first.  Each child's peak comes from its
own rusage (os.wait4): RUSAGE_CHILDREN would keep the largest of them.
"""

import argparse
import os
import sys


def peak_mb(*args) -> tuple:
    """(exit code, peak RSS in MB) of `python *args`."""
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("limit_mb", type=float)
    parser.add_argument("--exit", type=int, default=0, dest="expected")
    parser.add_argument("--above-numpy", action="store_true")
    args = parser.parse_args(argv)
    if os.path.exists(args.out_dir):
        sys.exit(f"{args.out_dir} exists before the run")
    base = 0.0
    if args.above_numpy:
        rc, base = peak_mb("-c", "import numpy")
        if rc:
            sys.exit(f"import numpy: exit {rc}")
        print(f"import numpy: peak RSS {base:.1f} MB")
    rc, mb = peak_mb("-m", "repscat.cli", "run", args.config, "--out", args.out_dir, "--quiet")
    limit = base + args.limit_mb
    print(f"repscat run {args.config}: exit {rc} (expected {args.expected}), "
          f"peak RSS {mb:.1f} MB (limit {limit:.1f})")
    if rc != args.expected:
        return 1
    if rc and os.path.exists(args.out_dir):
        print(f"a refused run left {args.out_dir} behind")
        return 1
    return int(mb >= limit)


if __name__ == "__main__":
    sys.exit(main())
