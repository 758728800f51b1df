"""Benchmark of the kolkin solver and verifier.

    python3 perfbench/run.py --workload solve-frozen --seed 0 --seconds 12 --trace 0

Runs from the root of a checkout.  Untraced (--trace 0) it starts the
workload process SETUP_REPEATS times, reports the median set-up time over
them, and takes the end-to-end metrics from the last one, which goes on to
run items in a closed loop for --seconds.  Traced (--trace 1) it starts one
process that records per-layer spans instead.  The last line of standard
output is the result object; a copy with the per-item records and the
machine description goes to perfbench-out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"

WORKLOADS = ("solve-rough", "solve-frozen", "solve-damped", "verify")
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole command, all processes included
BLAS_THREADS = "1"  # one thread: the closed loop is serial, nproc is small

# Percentile reported as item_tail_s, per workload: the highest one with at
# least ten completed items beyond it at a run's usual item count.  Where a
# run completes too few items for that, the slowest item is reported.
TAIL_PERCENTILE = {
    "solve-rough": 100.0,
    "solve-frozen": 90.0,
    "solve-damped": 95.0,
    "verify": 100.0,
}


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Worker:
    """A workload process whose set-up time is taken from spawn to SETUP."""

    def __init__(self, args, deadline: float, setup_only: bool):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--setup-only"] if setup_only else [])
        env = dict(os.environ)
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[k] = BLAS_THREADS
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        self.ready = line.strip() == "SETUP"

    def finish(self) -> dict | None:
        """Wait for the process; the parsed last line if it exited cleanly."""
        lines = self.proc.stdout.read().splitlines()
        code = self.proc.wait()
        self.timer.cancel()
        if code != 0 or not self.ready:
            return None
        return json.loads(lines[-1]) if lines else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "kolkin" / "__init__.py").is_file():
        print(f"error: no kolkin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setup_samples = []
    for _ in range(SETUP_REPEATS - 1 if not args.trace else 0):
        w = Worker(args, deadline, setup_only=True)
        if w.finish() is None:
            print("error: set-up process failed", file=sys.stderr)
            return 1
        setup_samples.append(w.setup_s)
    w = Worker(args, deadline, setup_only=False)
    res = w.finish()
    if not res:
        print("error: workload process failed", file=sys.stderr)
        return 1
    setup_samples.append(w.setup_s)

    items = res["items"]
    attempted = len(items)
    done = [it["latency_s"] for it in items if it["raised"] is None]
    if not done:
        print("error: no item completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "items_per_s": {"value": len(done) / res["wall_s"], "unit": "1/s"},
            "item_p50_s": {"value": statistics.median(done), "unit": "s"},
            "item_tail_s": {
                "value": percentile(done, TAIL_PERCENTILE[args.workload]), "unit": "s",
            },
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
            "solved_frac": {"value": res["solved"] / attempted, "unit": "1"},
        }
    result = {"correct": res["failed"] == 0, "attempted": attempted,
              "failed": res["failed"], "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    detail = {
        "args": vars(args),
        "result": result,
        "setup_samples_s": setup_samples,
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "completed": len(done),
        "statuses": {s: sum(it["status"] == s for it in items)
                     for s in sorted({it["status"] for it in items})},
        "env": res["env"],
        "items": items,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
