"""Record the reference outcome of every item a workload can run.

    python3 perfbench/record_refs.py [workload ...]

Runs each item of each pool once (probe points, or suite seeds for verify)
and writes perfbench/refs/<workload>.json: the item's values, or the name of
the exception it raised.  The benchmark compares every run against these
within workloads.REL_TOL.  Recording is part of defining the benchmark; a
change that claims a speed-up leaves these files alone.
"""

from __future__ import annotations

import os
import sys

for _k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_k] = "1"  # the same BLAS threading as the benchmark runs

import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import SCRATCH, environment, run_item  # noqa: E402


def record(name: str) -> dict:
    wl = workloads.build(name, 0, SCRATCH)
    try:
        items = {}
        for item in wl.all_items():
            _, result, raised = run_item(item)
            items[item.key] = {"raises": raised} if raised else wl.record(result)
        return {"tolerance": f"|value - recorded| <= {workloads.REL_TOL} * max(1, |recorded|)",
                "env": environment(), "items": items}
    finally:
        wl.close()


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    workloads.REFS.mkdir(exist_ok=True)
    for name in names:
        if name not in workloads.WORKLOADS:
            print(f"unknown workload {name!r}; choose from {workloads.WORKLOADS}",
                  file=sys.stderr)
            return 2
        refs = record(name)
        (workloads.REFS / f"{name}.json").write_text(json.dumps(refs, indent=1) + "\n")
        raised = sum("raises" in v for v in refs["items"].values())
        print(f"{name}: {len(refs['items'])} items, {raised} raised")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
