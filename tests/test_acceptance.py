"""Acceptance gate: twelve end-to-end criteria, one printed line each.

Each test computes its criterion from the public API at the stated
tolerance and prints a single [PASS]/[FAIL] line on the live terminal
(bypassing capture) before asserting.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from kolkin import (
    CauchyProblem,
    LeviConfig,
    SamplerSpec,
    SdeConfig,
    SolverConfig,
    controllability_gramian_rank,
    fit_blowup_exponent,
    kalman_rank,
    make_datum,
    make_source,
    named_suite,
    random_canonical_drift,
    run_verification_suite,
    solve_point,
    taylor_remainder_check,
)
from kolkin.suites import (
    NOISE_FLOOR,
    blowup_probes,
    boundary_attainment_pairs,
    chapman_kolmogorov_error,
    gaussian_bound_constants,
    hessian_blowup_pairs,
    kernel_mass,
    phi_smallness_pairs,
    source_weight_pairs,
)

LADDER = (0.4, 0.2, 0.1, 0.05, 0.025)
BOX = ((-0.8, 0.8), (-0.4, 0.4))
EXP_TOL = 0.15


@pytest.fixture
def announce(capsys):
    def _announce(num: int, name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion-{num:02d} {name}: {detail}")

    return _announce


def _coeffs(cf_const, cf_sin, cf_piecewise):
    return (("constant", cf_const, 1e-8), ("sinusoidal", cf_sin, 1e-4), ("piecewise", cf_piecewise, 1e-4))


# --------------------------------------------------------------------------


def test_criterion_01_rank_agreement(announce):
    rng = np.random.default_rng(0)
    agree = 0
    for _ in range(100):
        B, d = random_canonical_drift(rng)
        assert B.shape[0] <= 6
        agree += kalman_rank(B, d)[1] == controllability_gramian_rank(B, d)
    ok = agree == 100
    announce(1, "rank-cross-check", ok, f"algebraic vs integral rank agree on {agree}/100 drifts")
    assert ok


def test_criterion_02_kernel_mass(announce, S2, cf_const, cf_sin, cf_piecewise):
    rng = np.random.default_rng(0)
    worsts = {}
    ok = True
    for name, cf, tol in _coeffs(cf_const, cf_sin, cf_piecewise):
        worst = 0.0
        for _ in range(10):
            t = rng.uniform(0.0, 0.7)
            s = rng.uniform(t + 0.05, 1.0)
            x = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4)])
            worst = max(worst, abs(kernel_mass(cf, S2, t, x, s) - 1.0))
        worsts[name] = worst
        ok = ok and worst <= tol
    announce(
        2,
        "kernel-mass",
        ok,
        "|mass - 1| worst over 10 triples: "
        + ", ".join(f"{k} {v:.2e}" for k, v in worsts.items()),
    )
    assert ok


def test_criterion_03_chapman_kolmogorov(announce, S2, cf_const):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        t = rng.uniform(0.0, 0.5)
        s = rng.uniform(t + 0.05, 0.75)
        tau = rng.uniform(s + 0.05, 1.0)
        x = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4)])
        y = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4)])
        worst = max(worst, chapman_kolmogorov_error(cf_const, S2, t, x, s, tau, y))
    ok = worst <= 1e-4
    announce(3, "two-step-composition", ok, f"worst relative error {worst:.2e} <= 1e-4 (10 triples)")
    assert ok


def test_criterion_04_gaussian_bounds(announce, S2, cf_const, cf_sin):
    spec = SamplerSpec(box=BOX, n_base=16, n_directions=4)
    ok = True
    details = []
    for name, cf in (("constant", cf_const), ("sinusoidal", cf_sin)):
        consts = gaussian_bound_constants(cf, S2, LADDER, np.array([0.2, -0.1]), spec)
        finite = bool(np.all(np.isfinite(consts)) and np.all(consts > 0))
        ratios = consts.max(axis=1) / consts.min(axis=1)
        ok = ok and finite and bool(np.all(ratios < 2.0))
        details.append(f"{name} max drift {ratios.max():.3f}x")
    announce(4, "gaussian-bound-constants", ok, "finite, " + ", ".join(details) + " < 2x across ladder")
    assert ok


def test_criterion_05_correction_smallness(announce, S2, cf_sin):
    pairs = phi_smallness_pairs(cf_sin, S2, LeviConfig(), LADDER, np.array([0.2, -0.1]), seed=0)
    fit = fit_blowup_exponent(pairs)
    floor = cf_sin.alpha_bar / 2.0 - 0.1
    ok = fit.slope >= floor
    announce(
        5,
        "correction-kernel-decay",
        ok,
        f"fitted gap exponent {fit.slope:.3f} >= {floor:.4f}",
    )
    assert ok


def test_criterion_06_solver_vs_sampling_oracle(announce):
    names = (
        "langevin-constant",
        "langevin-sinusoidal",
        "langevin-piecewise",
        "langevin-constant-source",
    )
    worst = {}
    start = time.perf_counter()
    with_f = without_f = 0
    for name in names:
        cfg = named_suite(name)
        assert cfg.sde.n_paths == 100_000 and cfg.sde.n_steps == 400
        with_f += cfg.source is not None
        without_f += cfg.source is None
        cfg.stages = ("structure", "solver")
        report = run_verification_suite(cfg)
        rec = next(c for c in report.checks if c.name == "solver.oracle-agreement")
        worst[name] = rec.value
    assert with_f >= 1 and without_f >= 1
    ok = all(v is not None and v <= 3.0 for v in worst.values())
    announce(
        6,
        "solver-oracle-agreement",
        ok,
        "max |dev| in std errors: "
        + ", ".join(f"{k.removeprefix('langevin-')} {v:.2f}" for k, v in worst.items())
        + f" <= 3 ({time.perf_counter() - start:.0f}s)",
    )
    assert ok


def test_criterion_07_closed_forms(announce, S2, cf_const):
    cfg = SolverConfig()
    x = np.array([0.3, 0.1])
    pb1 = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=make_datum("constant", value=1.0), alpha=0.5)
    e1 = abs(solve_point(pb1, cfg, 0.3, x).u - 1.0)
    pb2 = CauchyProblem(cf=cf_const, S=S2, T=1.0, f=make_source("constant"), alpha=0.5)
    e2 = abs(solve_point(pb2, cfg, 0.3, x).u + 0.7)
    pb3 = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=make_datum("linear", c=(0.0, 1.0)), alpha=0.5)
    e3 = abs(solve_point(pb3, cfg, 0.3, x).u - (x[1] + x[0] * 0.7))
    ok = e1 <= 1e-6 and e2 <= 1e-4 and e3 <= 1e-5
    announce(
        7,
        "closed-form-solutions",
        ok,
        f"errors: preserved datum {e1:.1e}, linear-in-time {e2:.1e}, flowed datum {e3:.1e}",
    )
    assert ok


def test_criterion_08_hessian_blowup_ladder(announce, S2, cf_const):
    cfg = SolverConfig()
    probes = blowup_probes(BOX)
    cases = [
        ("kink-power", make_datum("kink-power", beta=0.5), -(2.0 - 0.5) / 2.0),
        ("abs", make_datum("abs"), -0.5),
        ("signed-square", make_datum("signed-square"), 0.0),
        ("smooth", make_datum("sine", phase=0.37), 0.0),
    ]
    ok = True
    details = []
    for name, g, target in cases:
        pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=g, alpha=0.5)
        fit = fit_blowup_exponent(hessian_blowup_pairs(pb, cfg, LADDER, probes))
        ok = ok and abs(fit.slope - target) <= EXP_TOL
        details.append(f"{name} {fit.slope:+.3f} (target {target:+.2f})")
    announce(8, "second-derivative-blowup", ok, "; ".join(details) + f" +-{EXP_TOL}")
    assert ok


def test_criterion_09_singular_source_growth(announce, S2, cf_const):
    cfg = SolverConfig()
    probes = blowup_probes(BOX)
    ok = True
    details = []
    for gamma, f in (
        (0.0, make_source("constant")),
        (0.5, make_source("weighted-time", gamma=0.5, T=1.0)),
    ):
        pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, f=f, alpha=0.5)
        fit = fit_blowup_exponent(source_weight_pairs(pb, cfg, LADDER, probes))
        target = 1.0 - gamma
        ok = ok and abs(fit.slope - target) <= EXP_TOL
        details.append(f"gamma={gamma:g}: {fit.slope:.3f} (target {target:g})")
    announce(9, "source-weight-exponent", ok, "; ".join(details) + f" +-{EXP_TOL}")
    assert ok


def test_criterion_10_boundary_attainment(announce, S2, cf_const):
    cfg = SolverConfig()
    probes = blowup_probes(BOX)
    ok = True
    details = []
    for name, g, beta in (("abs", make_datum("abs"), 1.0), ("signed-square", make_datum("signed-square"), 2.0)):
        pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=g, alpha=0.5)
        pairs = boundary_attainment_pairs(pb, cfg, LADDER, probes)
        fit = fit_blowup_exponent(pairs)
        target = beta / 2.0
        ok = (
            ok
            and max(sup for _, sup in pairs) >= NOISE_FLOOR
            and not fit.unreliable
            and abs(fit.slope - target) <= EXP_TOL
        )
        details.append(f"{name} {fit.slope:.3f} (target {target:g})")
    announce(10, "terminal-attainment-rate", ok, "; ".join(details) + f" +-{EXP_TOL}")
    assert ok


def test_criterion_11_taylor_remainder_control(announce, S2):
    class Smooth:
        def __call__(self, t, y):
            return np.sin(y[:, 0] + 0.37) * np.exp(-t / 2.0)

        def grad_d(self, t, y):
            return (np.cos(y[:, 0] + 0.37) * np.exp(-t / 2.0))[:, None]

        def hess_d(self, t, y):
            return (-np.sin(y[:, 0] + 0.37) * np.exp(-t / 2.0))[:, None, None]

    class Kink:
        def __call__(self, t, y):
            return np.abs(y[:, 0])

        def grad_d(self, t, y):
            return np.sign(y[:, 0])[:, None]

        def hess_d(self, t, y):
            return np.zeros((len(y), 1, 1))

    spec = SamplerSpec(box=BOX, n_base=16, n_directions=4, levels=8)
    smooth = taylor_remainder_check(Smooth(), 0.5, S2, spec)
    kink = taylor_remainder_check(Kink(), 0.5, S2, spec)
    ok = smooth.bounded_factor < 2.0 and kink.bounded_factor >= 10.0
    announce(
        11,
        "taylor-remainder-separation",
        ok,
        f"smooth ladder drift {smooth.bounded_factor:.2f}x < 2, kink {kink.bounded_factor:.1f}x >= 10",
    )
    assert ok


def test_criterion_12_report_determinism(announce, tmp_path):
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        cfg = named_suite("langevin-constant")
        cfg.n_probes = 3
        cfg.sde = SdeConfig(n_paths=4000, n_steps=50, seed=cfg.seed)
        cfg.stages = ("structure", "kernel", "solver")
        cfg.out_dir = str(out)
        report = run_verification_suite(cfg)
        assert report.overall_pass
        runs.append((out / "report.json").read_bytes())
    ok = runs[0] == runs[1]
    announce(
        12,
        "report-byte-determinism",
        ok,
        f"two identical runs, report.json {len(runs[0])} bytes, byte-identical: {ok}",
    )
    assert ok
    json.loads(runs[0])  # canonical JSON stays parseable
