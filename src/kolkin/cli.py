"""Command-line entry point.

Subcommands map onto the verification stages and the two evaluation
front-ends: `structure`, `kernel`, `holder` and `verify` run staged checks
and emit report.json / tables.csv / report.md; `solve` evaluates the
configured Cauchy problem on probe points and writes a samples CSV; `sde`
runs the sampling oracle and writes terminal states.  Exit code 0 iff all
executed checks pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .cauchy import residual_check, samples_to_csv, solve_point
from .errors import KolkinError
from .holder import anisotropic_norm_est
from .sde import estimate_from_paths, simulate_paths, terminal_to_csv
from .suites import (
    SUITE_NAMES,
    SuiteConfig,
    load_suite_config,
    map_probes,
    named_suite,
    run_verification_suite,
)

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kolkin",
        description=(
            "Degenerate-diffusion kernel construction, Cauchy solver and "
            "verification suites."
        ),
    )
    p.add_argument("--config", help="JSON suite configuration file")
    p.add_argument("--seed", type=int, help="override the suite seed")
    p.add_argument("--threads", type=int, default=1, help="worker threads for probe loops")
    p.add_argument("--out", help="output directory (reports, CSV files)")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument(
            "--suite",
            default="default",
            help=f"named suite preset (one of {', '.join(SUITE_NAMES)})",
        )
        return sp

    add("structure", "validate the drift structure and rank cross-checks")
    add("kernel", "kernel normalization, composition and bound checks")
    sp_solve = add("solve", "solve the configured problem on probe points")
    sp_solve.add_argument("--t", type=float, help="evaluation time (default: suite's)")
    sp_sde = add("sde", "sampling oracle at one probe point")
    sp_sde.add_argument("--x", type=float, nargs="+", help="initial point (default: first probe)")
    add("holder", "norm estimates and Taylor remainder checks")
    add("verify", "run the full staged verification suite")
    return p


def _load_config(args) -> SuiteConfig:
    if args.config:
        cfg = load_suite_config(args.config)
    else:
        cfg = named_suite(args.suite)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.sde = replace(cfg.sde, seed=args.seed)
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _print_report(report) -> None:
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        val = "" if c.value is None else f" value={c.value:.6g}"
        tgt = "" if c.target is None else f" target={c.target:.6g}"
        tol = "" if c.tolerance is None else f" tol={c.tolerance:.6g}"
        print(f"[{mark}] {c.name}{val}{tgt}{tol}")
    print(f"OVERALL: {'PASS' if report.overall_pass else 'FAIL'}")


def _staged_command(args, cfg: SuiteConfig, stages=None) -> int:
    """Run the given stages, or the suite's own stage list when None."""
    if stages is not None:
        cfg.stages = stages
    report = run_verification_suite(cfg, threads=args.threads)
    _print_report(report)
    return 0 if report.overall_pass else 1


def _out_dir(cfg: SuiteConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solve_command(args, cfg: SuiteConfig) -> int:
    pb = cfg.problem()
    t = args.t if args.t is not None else cfg.t_solve
    samples = map_probes(lambda x: solve_point(pb, cfg.solver, t, x), cfg.probes(), args.threads)
    residuals = residual_check(pb, cfg.solver, [(s.t, s.x) for s in samples])
    for s, r in zip(samples, residuals):
        coords = " ".join(f"{v:+.4f}" for v in s.x)
        print(f"t={s.t:.4f} x=({coords}) u={s.u:+.8f} residual={r:+.3e}")
    if cfg.out_dir is not None:
        path = _out_dir(cfg) / "samples.csv"
        samples_to_csv(samples, path, residuals=residuals)
        print(f"wrote {path}")
    return 0


def _sde_command(args, cfg: SuiteConfig) -> int:
    pb = cfg.problem()
    x0 = np.asarray(args.x, dtype=float) if args.x else cfg.probes()[0]
    bundle = simulate_paths(pb.cf, pb.S, cfg.sde, cfg.t_solve, x0, pb.T, f=pb.f)
    est = estimate_from_paths(pb, cfg.sde, bundle)
    lo, hi = est.interval()
    coords = " ".join(f"{v:+.4f}" for v in x0)
    print(
        f"x0=({coords}) t={cfg.t_solve:.4f}: estimate {est.mean:+.8f} "
        f"+- {est.std_error:.2e} (3-sigma [{lo:+.8f}, {hi:+.8f}], {est.n_paths} paths)"
    )
    if cfg.out_dir is not None:
        path = _out_dir(cfg) / "terminal.csv"
        terminal_to_csv(bundle, path)
        print(f"wrote {path}")
    return 0


def _holder_command(args, cfg: SuiteConfig) -> int:
    code = _staged_command(args, cfg, ("structure", "taylor"))
    if cfg.datum is not None:
        pb = cfg.problem()
        alpha = min(pb.g.beta, 1.0) if pb.g.beta > 0 else cfg.alpha
        est = anisotropic_norm_est(pb.g, alpha, cfg.structure(), cfg.sampler_spec())
        print(
            f"datum anisotropic norm estimate (order {alpha:g}): "
            f"{est.value:.6g} over {est.n_pairs} pairs"
        )
        if cfg.out_dir is not None:
            path = _out_dir(cfg) / "holder.json"
            path.write_text(json.dumps(est.to_json(), sort_keys=True, indent=2) + "\n")
            print(f"wrote {path}")
    return code


COMMANDS = {
    "structure": partial(_staged_command, stages=("structure",)),
    "kernel": partial(_staged_command, stages=("structure", "kernel")),
    "verify": _staged_command,
    "holder": _holder_command,
    "solve": _solve_command,
    "sde": _sde_command,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, _load_config(args))
    except KolkinError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
