"""One workload process: set up, warm up, then run items in a closed loop.

Started by run.py, never by hand.  Protocol on standard output:

    SETUP                 printed once set-up and the warm-up have finished,
                          right before the first timed item
    {json}                the last line: per-item records and layer metrics

With --setup-only the process exits after the SETUP line; run.py times
several such processes to take a median set-up time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

SCRATCH = ROOT / "perfbench-out" / "tmp"
THREAD_COMPARE_SEED = 0  # suite seed of the threads=1 vs threads=2 comparison


def environment() -> dict:
    """What the numbers depend on besides the code: machine and libraries."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_item(item) -> tuple[float, object, str | None]:
    start = time.perf_counter()
    try:
        result, raised = item.call(), None
    except Exception as e:  # an item's failure is data; the loop goes on
        result, raised = None, type(e).__name__
    return time.perf_counter() - start, result, raised


def timed_loop(seconds: float, cycles, tracer=None):
    """Run whole cycles until `seconds` have passed; returns (records, wall)."""
    records = []
    start = time.perf_counter()
    for items in cycles:
        for item in items:
            if tracer:
                tracer.item = len(records)
            latency, result, raised = run_item(item)
            records.append((item.key, latency, result, raised))
        if time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.build(args.workload, args.seed, SCRATCH)
    try:
        wl.warm_up()
        print("SETUP", flush=True)
        if args.setup_only:
            return 0

        if tracer:
            # A fixed item set (the first cycle), repeated while time is
            # left, so per-item counts repeat exactly from run to run.
            first = wl.cycle(0)
            tracer.spans.clear()

            def repeat():
                spent, n = 0.0, 0
                while n == 0 or spent * (n + 1) / n <= args.seconds:
                    t0 = time.perf_counter()
                    yield first
                    spent += time.perf_counter() - t0
                    n += 1

            records, wall = timed_loop(float("inf"), repeat(), tracer)
            tracer.item = None
            tracer.uninstall()
        else:
            records, wall = timed_loop(args.seconds, map(wl.cycle, itertools.count()))

        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        items = []
        for key, latency, result, raised in records:
            record = None if raised else wl.record(result)
            status = workloads.classify(record, raised, wl.refs.get(key))
            items.append({"key": key, "latency_s": latency, "status": status,
                          "raised": raised})
        out = {
            "wall_s": wall,
            "peak_rss_mb": rss_mb,
            "solved": sum(it["status"] in workloads.SOLVED for it in items),
            "failed": sum(it["status"] in workloads.FAILED for it in items),
            "items": items,
            "env": environment(),
        }
        if tracer:
            speedup = 0.0
            if isinstance(wl, workloads.Verify):
                t1 = wl.solver_stage_time(THREAD_COMPARE_SEED, threads=1)
                t2 = wl.solver_stage_time(THREAD_COMPARE_SEED, threads=2)
                speedup = t1 / t2
            out["layers"] = tracer.metrics(len(items), wall, speedup)
        print(json.dumps(out), flush=True)
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
