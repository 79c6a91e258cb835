"""One pass of one workload in a fresh interpreter.

Run by run.py, never by hand: it imports nimspec from the checkout's src/,
builds the workload's inputs, reports how long that took since run.py
spawned it, runs the pass and prints one JSON line with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)   # time.monotonic()
    args = ap.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import numpy
    import nimspec

    if not os.path.abspath(nimspec.__file__).startswith(src + os.sep):
        print(f"nimspec imported from {nimspec.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    work = workloads.build(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned_at

    result = work.run(tracer)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.metrics(result["wall_s"])
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["repeat_share"] = work.repeat_share
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
