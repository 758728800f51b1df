"""Workload definitions: the items each workload runs and how they are checked.

A workload is an endless sequence of cycles; a cycle is a short list of
items, and every cycle of a workload has the same mix of problem kinds, so a
run that stops at a cycle boundary always measures the same mix whatever
its length.  The seed only chooses which probe points (or, for ``verify``,
which suite seeds) the items use, from a fixed pool whose every entry has a
recorded reference outcome; seed 0 takes the pool in order, which starts
with the presets' own probes.

Everything the program computes is reached through module attributes at
call time (``cauchy.solve_point``, ``suites.run_verification_suite``), so
the tracer's rebinding of those attributes applies.
"""

from __future__ import annotations

import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from kolkin import cauchy, suites
from kolkin.cauchy import SolverConfig
from kolkin.errors import KolkinError
from kolkin.levi import LeviConfig
from kolkin.sde import SdeConfig

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

WORKLOADS = ("solve-rough", "solve-frozen", "solve-damped", "verify")

POOL = 16  # probe points (or suite seeds) with a recorded reference each
REL_TOL = 1e-6  # |value - recorded| <= REL_TOL * max(1, |recorded|)

CHAIN3_DRIFT = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
CHAIN3_BOX = ((-0.8, 0.8), (-0.4, 0.4), (-0.2, 0.2))
DAMPED_DRIFT = (-1.0, 0.0, 1.0, 0.0)  # Langevin with friction: not nilpotent
N2_KINDS = ("langevin-constant", "langevin-constant-source", "langevin-piecewise")

# The verify items run every stage of langevin-piecewise at a reduced Monte
# Carlo size: the default (100k paths, 10 probes) takes ~36 s per item,
# longer than a whole run may last.
# Suite seed 12 is left out: its kernel stage draws a Chapman-Kolmogorov
# triple whose direct kernel underflows to 0, and run_verification_suite
# raises ZeroDivisionError (1 of the first 48 seeds).  A run completes only
# two or three verify items, so a pool entry that crashes would swing every
# verify metric between seeds; README.md records the defect.
VERIFY_SEEDS = tuple(s for s in range(POOL + 1) if s != 12)
VERIFY_PROBES = 4
VERIFY_PATHS = 25_000
VERIFY_STEPS = 400

# Warm-up size: every code path of a full item, at a fraction of its cost.
WARM_SOLVER = SolverConfig(
    levi=LeviConfig(depth=2, cov_nodes=4),
    terminal_nodes=3,
    time_nodes=4,
    space_nodes=3,
    smoothing_nodes=3,
)


@dataclass(frozen=True)
class Item:
    key: str  # reference key
    call: Callable[[], object]


def pool_order(seed: int) -> np.ndarray:
    if seed == 0:
        return np.arange(POOL)
    return np.random.default_rng(seed).permutation(POOL)


def _suite(kind: str, **overrides):
    if kind.startswith("chain3"):
        src = {"family": "coordinate", "axis": 1} if kind == "chain3-source" else None
        return suites.named_suite(
            "langevin-constant", drift=CHAIN3_DRIFT, probe_box=CHAIN3_BOX, source=src,
            **overrides,
        )
    if kind.startswith("damped:"):
        return suites.named_suite(kind.split(":", 1)[1], drift=DAMPED_DRIFT, **overrides)
    return suites.named_suite(kind, **overrides)


class SolveProblem:
    """One problem kind with its probe pool and evaluation times."""

    def __init__(self, kind: str, with_t_solve: bool):
        self.kind = kind
        self.cfg = _suite(kind, n_probes=POOL)
        self.pb = self.cfg.problem()
        self.pool = self.cfg.probes()
        gaps = self.cfg.t_ladder
        self.times = ([self.cfg.t_solve] if with_t_solve else []) + [
            self.cfg.T - g for g in gaps
        ]

    def item(self, ti: int, pi: int) -> Item:
        pb, cfg, t, x = self.pb, self.cfg.solver, self.times[ti], self.pool[pi]
        return Item(f"{self.kind}|t{ti}|p{pi}", lambda: cauchy.solve_point(pb, cfg, t, x))

    def warm_up(self):
        try:
            cauchy.solve_point(self.pb, WARM_SOLVER, self.times[0], self.pool[0])
        except KolkinError:
            pass  # chain-3 with a source raises SingularCovariance today

    def all_items(self):
        return [self.item(ti, pi) for ti in range(len(self.times)) for pi in range(POOL)]


class Workload:
    """Base: ``cycle(k)`` gives the k-th cycle's items for this seed."""

    def __init__(self, seed: int):
        self.order = pool_order(seed)
        self.refs = load_refs(self.name)

    def cycle(self, k: int) -> list:
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def all_items(self) -> list:
        raise NotImplementedError

    def record(self, result) -> dict:
        return {
            "u": float(result.u),
            "grad_d": np.asarray(result.grad_d, dtype=float).tolist(),
            "hess_d": np.asarray(result.hess_d, dtype=float).tolist(),
        }

    def close(self):
        pass


class SolveRough(Workload):
    """Space-dependent a2: the only workload where the correction series runs."""

    name = "solve-rough"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.p = SolveProblem("langevin-sinusoidal", with_t_solve=True)

    def cycle(self, k):
        n_t = len(self.p.times)
        return [self.p.item(k % n_t, int(self.order[(k // n_t) % POOL]))]

    def warm_up(self):
        self.p.warm_up()

    def all_items(self):
        return self.p.all_items()


class SolveFrozen(Workload):
    """Space-independent a2 (no correction series), with a chain-3 minority.

    A cycle is two N=2 probes x five ladder times x three presets, then one
    chain-3 item without and one with the coordinate source at a rotating
    ladder time.  The chain-3 source items raise SingularCovariance at the
    commit the references were recorded at; they stay in the mix so that
    defect keeps showing in solved_frac.
    """

    name = "solve-frozen"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.n2 = [SolveProblem(k, with_t_solve=False) for k in N2_KINDS]
        self.c3 = [SolveProblem(k, with_t_solve=False) for k in ("chain3", "chain3-source")]

    def cycle(self, k):
        items = []
        for j in (2 * k, 2 * k + 1):
            pi = int(self.order[j % POOL])
            for ti in range(len(self.n2[0].times)):
                items += [p.item(ti, pi) for p in self.n2]
        ti = k % len(self.c3[0].times)
        pi = int(self.order[k % POOL])
        items += [p.item(ti, pi) for p in self.c3]
        return items

    def warm_up(self):
        for p in self.n2 + self.c3:
            p.warm_up()

    def all_items(self):
        return [it for p in self.n2 + self.c3 for it in p.all_items()]


class SolveDamped(Workload):
    """The N=2 mix of solve-frozen on the damped drift [[-1, 0], [1, 0]]."""

    name = "solve-damped"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.n2 = [SolveProblem("damped:" + k, with_t_solve=False) for k in N2_KINDS]

    def cycle(self, k):
        pi = int(self.order[k % POOL])
        return [p.item(ti, pi) for ti in range(len(self.n2[0].times)) for p in self.n2]

    def warm_up(self):
        for p in self.n2:
            p.warm_up()

    def all_items(self):
        return [it for p in self.n2 for it in p.all_items()]


class Verify(Workload):
    """The staged verification suite, as ``kolkin verify`` runs it."""

    name = "verify"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed)
        scratch.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=scratch)

    def config(self, suite_seed: int, **overrides):
        out = tempfile.mkdtemp(dir=self.tmp.name)
        kw = dict(
            n_probes=VERIFY_PROBES,
            sde=SdeConfig(n_paths=VERIFY_PATHS, n_steps=VERIFY_STEPS, seed=suite_seed),
            out_dir=out,
        )
        kw.update(overrides)
        return suites.named_suite("langevin-piecewise", seed=suite_seed, **kw)

    def item_for(self, suite_seed: int) -> Item:
        cfg = self.config(suite_seed)
        return Item(f"seed{suite_seed}", lambda: suites.run_verification_suite(cfg))

    def cycle(self, k):
        return [self.item_for(VERIFY_SEEDS[self.order[k % POOL]])]

    def warm_up(self):
        # one stage per call, so a check failing at warm-up size gates nothing
        for stage in suites.STAGES:
            cfg = self.config(
                0, n_probes=1, sde=SdeConfig(n_paths=64, n_steps=8),
                solver=WARM_SOLVER, sampler={"n_base": 4, "n_directions": 1},
                stages=(stage,),
            )
            suites.run_verification_suite(cfg)

    def all_items(self):
        return [self.item_for(s) for s in VERIFY_SEEDS]

    def solver_stage_time(self, suite_seed: int, threads: int) -> float:
        """Wall time of one solver stage (the Monte Carlo oracle) at `threads`."""
        cfg = self.config(suite_seed)
        report = suites.VerificationReport(suite=cfg.suite, seed=cfg.seed, config={})
        start = time.perf_counter()
        suites.solver_stage(cfg, report, threads=threads)
        return time.perf_counter() - start

    def record(self, report) -> dict:
        return {
            "overall_pass": bool(report.overall_pass),
            "checks": {c.name: c.value for c in report.checks},
        }

    def close(self):
        self.tmp.cleanup()


def build(name: str, seed: int, scratch: Path) -> Workload:
    if name == "verify":
        return Verify(seed, scratch)
    return {"solve-rough": SolveRough, "solve-frozen": SolveFrozen,
            "solve-damped": SolveDamped}[name](seed)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def load_refs(name: str) -> dict:
    path = REFS / f"{name}.json"
    return json.loads(path.read_text())["items"] if path.exists() else {}


def _values(rec) -> list:
    """Every number in a record, flattened, in a fixed order."""
    out = []
    if isinstance(rec, dict):
        for k in sorted(rec):
            out += _values(rec[k])
    elif isinstance(rec, (list, tuple)):
        for v in rec:
            out += _values(v)
    elif isinstance(rec, bool) or rec is None:
        out.append(rec)
    else:
        out.append(float(rec))
    return out


def _shape(rec):
    if isinstance(rec, dict):
        return {k: _shape(v) for k, v in rec.items()}
    if isinstance(rec, (list, tuple)):
        return [_shape(v) for v in rec]
    return type(rec) is bool or rec is None


def classify(record: dict | None, raised: str | None, ref: dict | None) -> str:
    """Status of one item, given its record or the name of the exception it
    raised, against its recorded reference.

    ok        returned finite values matching the record
    fixed     returned finite values where the record holds only an exception
    known     raised the same exception the record holds
    raised    raised where the record holds values, or another exception
    nonfinite returned a NaN or infinity
    mismatch  returned values outside REL_TOL of the record, or no record
    """
    if raised is not None:
        return "known" if ref is not None and ref.get("raises") == raised else "raised"
    vals = _values(record)
    if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
        return "nonfinite"
    if ref is None:
        return "mismatch"
    if "raises" in ref:
        return "fixed"
    if _shape(record) != _shape(ref):
        return "mismatch"
    for got, want in zip(vals, _values(ref)):
        if isinstance(want, float):
            if abs(got - want) > REL_TOL * max(1.0, abs(want)):
                return "mismatch"
        elif got != want:
            return "mismatch"
    return "ok"


SOLVED = ("ok", "fixed")  # counted in solved_frac
FAILED = ("raised", "nonfinite", "mismatch")  # the benchmark's `failed`
