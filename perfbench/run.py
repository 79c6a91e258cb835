"""Run one benchmark workload against the nimspec checkout in the current
directory and print its metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh interpreter (perfbench/worker.py), one at a time,
until --seconds have gone by (at least three passes, or two
untraced/traced pairs with --trace 1).  With --trace 0 the last line holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
the traced pass with the median wall time, plus the tracing overhead.  The
line before it is the full report: environment, per-pass figures, the
digest of the exact outputs and the first failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import metric_names          # noqa: E402
from workloads import NAMES               # noqa: E402

END_TO_END = {"wall_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms", "setup_s": "s",
              "peak_rss_mb": "MB", "pass_ratio": "ratio"}
MIN_PASSES = 3          # untraced: wall_s, setup_s and peak_rss_mb are medians of >= 3
MIN_PAIRS = 2           # traced: untraced/traced pairs
DEADLINE_S = 165.0      # no pass may run past this, so the run ends within 180 s


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repo."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_pass(args, trace: bool, timeout: float):
    """One worker process; returns its result, or None if it failed."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--trace", str(int(trace)), "--spawned-at", repr(t0)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _passes(args):
    """Alternate untraced (and, with --trace 1, traced) passes until the time
    is up; returns the untraced and traced results and the lost passes."""
    plan = (False, True) if args.trace else (False,)
    min_rounds = MIN_PAIRS if args.trace else MIN_PASSES
    untraced, traced, lost, round_s = [], [], 0, []
    start = time.monotonic()
    while True:
        t_round = time.monotonic()
        for trace in plan:
            timeout = DEADLINE_S - (time.monotonic() - start)
            result = _run_pass(args, trace, timeout)
            if result is None:
                lost += 1
            else:
                (traced if trace else untraced).append(result)
        round_s.append(time.monotonic() - t_round)
        elapsed = time.monotonic() - start
        next_round = statistics.median(round_s)
        if elapsed + next_round > DEADLINE_S:
            break
        if len(round_s) >= min_rounds and elapsed + next_round / 2 > args.seconds:
            break                   # stop at the round whose end lies nearest --seconds
    return untraced, traced, lost


def _quantile(values, q: int) -> float:
    """q-th percentile (q a multiple of 10), inclusive method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nimspec benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: each workload at its smallest size, for the smoke test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nimspec", "__init__.py")):
        print("error: no src/nimspec here; run from the root of a nimspec checkout",
              file=sys.stderr)
        return 2

    untraced, traced, lost = _passes(args)
    done = untraced + traced
    attempted = sum(len(p["ok"]) for p in done) + lost
    failed = sum(not ok for p in done for ok in p["ok"]) + lost
    digests = sorted({p["digest"] for p in done})
    correct = failed == 0 and len(digests) == 1 and bool(untraced)

    if args.trace:
        by_wall = sorted(traced, key=lambda p: p["wall_s"])
        values = dict(by_wall[(len(by_wall) - 1) // 2]["trace"]) if by_wall else {}
        if traced and untraced:
            values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                          - statistics.median(p["wall_s"] for p in untraced))
        units = metric_names()
    else:
        lat = [x for p in untraced for x in p["lat_ms"]]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "op_ms.p50": _quantile(lat, 50),
            "op_ms.p90": _quantile(lat, 90),
            "setup_s": statistics.median(p["setup_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "pass_ratio": (attempted - failed) / attempted,
        } if untraced else {}
        units = END_TO_END
    if set(values) != set(units):
        print("error: some metrics were not measured", file=sys.stderr)
        return 1

    report = {
        "environment": {
            "python": platform.python_version(),
            "numpy": done[0]["numpy"] if done else None,
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "git_commit": _git_commit(root),
            "trace": bool(args.trace),
        },
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "passes": {"untraced": len(untraced), "traced": len(traced), "lost": lost},
        "ops_per_pass": len(done[0]["ok"]) if done else 0,
        "input_repeat_share": done[0]["repeat_share"] if done else None,
        "pass_wall_s": {"untraced": [p["wall_s"] for p in untraced],
                        "traced": [p["wall_s"] for p in traced]},
        "pass_setup_s": [p["setup_s"] for p in untraced],
        "fail_ratio": failed / attempted,
        "digest": digests,
        "failures": [f for p in done for f in p["failures"]][:10],
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
