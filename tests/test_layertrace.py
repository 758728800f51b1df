"""The benchmark's layer tracer still binds the kernel, lattice, oracle and
Taylor-check layers.

perfbench/layertrace.py rebinds kolkin's layer functions by name and counts
from their parameter lists.  A renamed function, or a changed parameter
list, fails here instead of only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from kolkin import (
    CauchyProblem, SdeConfig, cauchy, make_datum, make_source, named_suite,
    run_verification_suite, sde,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_bound_layers(S2, cf_sin, cf_const):
    tracer = _load("layertrace").Tracer()
    solver = _load("workloads").WARM_SOLVER
    x = np.array([0.3, 0.1])
    rough = CauchyProblem(cf=cf_sin, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=0.3)
    frozen = CauchyProblem(
        cf=cf_const, S=S2, T=1.0, g=make_datum("sine", phase=0.37),
        f=make_source("constant"), alpha=0.5,
    )
    tracer.install()
    try:
        cauchy.solve_point(rough, solver, 0.3, x)
        cauchy.solve_point(frozen, solver, 0.3, x)
        sde.simulate_paths(cf_sin, S2, SdeConfig(n_paths=1024, n_steps=4), 0.3, x, 1.0)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for layer in (
        "kernels.frozen_covariance_stack",
        "kernels._gauss_eval",
        "kernels.parametrix_stack",
        "levi._pair_tensor",
        "levi.terminal_smoothing",
        "sde._em_chunk",
    ):
        assert layer in names


def test_tracer_records_the_taylor_stage_and_its_check():
    tracer = _load("layertrace").Tracer()
    cfg = named_suite(
        "langevin-constant", stages=("structure", "taylor"),
        sampler={"n_base": 4, "n_directions": 2, "levels": 4},
    )
    tracer.install()
    try:
        run_verification_suite(cfg)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"holder.taylor_remainder_check", "suites.taylor_stage"} <= names
