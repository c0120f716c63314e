"""`repscat` CLI with spans recorded: the traced form of one cold-start request.

    python perfbench/cli_traced.py <spans.json> run <config> [cli options]

Runs repscat.cli.main on the remaining arguments with every layer wrapped,
then writes the span summary, computed counts and any nesting errors (every
span inside its parent, roots inside the CLI call and in sequence) to
<spans.json>.  Exits with the CLI's own status.
"""

import json
import sys
from time import perf_counter

from layers import install
from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import repscat.cli

    tracer = Tracer()
    install(tracer)
    tracer.enabled = True
    t0 = perf_counter()
    status = repscat.cli.main(argv)
    t1 = perf_counter()
    tracer.enabled = False
    with open(spans_path, "w") as fh:
        json.dump({"summary": tracer.summary(), "counters": dict(tracer.counters),
                   "spans": len(tracer.names), "extra_s": tracer.extra_s,
                   "errors": tracer.nesting_errors(window=(t0, t1))}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
