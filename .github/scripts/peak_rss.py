"""Run one `repscat run` in a child process and fail unless it exits 0 with
a peak resident set size under a limit.

    PYTHONPATH=src python .github/scripts/peak_rss.py CONFIG OUT_DIR LIMIT_MB
"""

import resource
import subprocess
import sys


def main(config: str, out_dir: str, limit_mb: str) -> int:
    limit = float(limit_mb)
    rc = subprocess.call([sys.executable, "-m", "repscat.cli", "run", config,
                          "--out", out_dir, "--quiet"])
    mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"repscat run: exit {rc}, peak RSS {mb:.0f} MB (limit {limit:g})")
    return rc or int(mb >= limit)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
