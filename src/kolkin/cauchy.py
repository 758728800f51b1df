"""Terminal-value solver via the Duhamel representation

    u(t,x) = V_g(t,x) - V_{Z,f}(t,x) - V_{Phi,f}(t,x),

where V_g integrates the fundamental solution p = Z + Phi against the
terminal datum and the V-potentials integrate Z and the correction term
against the source over (t,T) x R^N.

All potentials at one evaluation point share a single space-time lattice:
graded time slices in (t,T) with per-slice Gauss-Hermite clouds following
the forward tube from (t,x), plus one terminal cloud at T.  On that lattice
the correction series reduces to powers of the causal first-kernel matrix,
so the g- and f-parts of the correction reuse the same tensors.  Spatial
derivatives always fall on the explicit kernel factor, never on finite
differences of u.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DatumEvaluationError,
    EmptyInterval,
    InsufficientData,
    InvalidData,
    NumericalDivergence,
)
from .kernels import (
    KernelEvaluation,
    _combine,
    _contract,
    _zero_eval,
    factor_covariance,
    parametrix_stack,
    reference_covariance,
)
from .levi import LeviConfig, _build_lattice, _neumann_sums, _pair_tensor, terminal_smoothing
from .problems import CauchyProblem
from .quadrature import proposal_nodes
from .structure import matrix_exp


@dataclass(frozen=True)
class SolverConfig:
    """Quadrature sizes for the potential evaluations.

    The interior lattice takes its depth, covariance nodes, grading and
    min_gap from levi and its sizes from time_nodes / space_nodes.  The
    time grading exponent defaults to 2/alpha of the problem, matching the
    substitution that tames the endpoint singularities of the source
    potentials; min_gap keeps the closest slice a positive distance from
    both endpoints.
    """

    levi: LeviConfig = field(default_factory=LeviConfig)
    terminal_nodes: int = 13
    time_nodes: int = 14
    space_nodes: int = 9
    smoothing_nodes: int = 9

    def lattice_config(self, alpha: float) -> LeviConfig:
        grading = self.levi.grading
        return replace(
            self.levi,
            time_nodes=self.time_nodes,
            space_nodes=self.space_nodes,
            grading=max(1.0, 2.0 / alpha) if grading is None else grading,
        )


@dataclass
class SolutionSample:
    """Pointwise solution record; Yu is assembled as f - A u."""

    t: float
    x: np.ndarray
    u: float
    grad_d: np.ndarray
    hess_d: np.ndarray
    Yu: float


def _finite_or_raise(arr, what: str):
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DatumEvaluationError(f"{what} evaluated to a non-finite value")
    return arr


class _PointAssembly:
    """All potentials of one problem at one evaluation point (t, x)."""

    def __init__(self, pb: CauchyProblem, cfg: SolverConfig, t: float, x, order: int):
        cf, S, T = pb.cf, pb.S, pb.T
        if not 0.0 < t < T:
            raise EmptyInterval(f"evaluation time must lie in (0, {T}), got {t}")
        x = np.asarray(x, dtype=float)
        self.order = order
        self.d = S.d
        corrected = not cf.levi_trivial and cfg.levi.depth > 0

        # terminal cloud and the Z-part of V_g
        mean_T = matrix_exp(S.B, T - t) @ x
        C_T = cf.mu * reference_covariance(S, T - t)[0]
        y_pts, w_y = proposal_nodes(mean_T, factor_covariance(C_T).chol, cfg.terminal_nodes)
        self.V_Zg = _zero_eval(S.d, order)
        gv = None
        if pb.g is not None:
            gv = _finite_or_raise(pb.g(y_pts), f"terminal datum '{pb.g.name}'")
            zg = parametrix_stack(
                cf, S, t, x, T, y_pts[None], order=order, cov_nodes=cfg.levi.cov_nodes
            )
            self.V_Zg = _contract(zg, w_y * gv, order)

        # interior lattice, shared by V_{Z,f} and both correction parts
        need_lattice = pb.f is not None or (corrected and pb.g is not None)
        self.V_Zf = _zero_eval(S.d, order)
        self.V_Pg = _zero_eval(S.d, order)
        self.V_Pf = _zero_eval(S.d, order)
        if not need_lattice:
            return
        lat_cfg = cfg.lattice_config(pb.alpha)
        lat = _build_lattice(cf, S, lat_cfg, t, x, T)
        zx = parametrix_stack(
            cf, S, t, x, lat.times, lat.points, order=order, cov_nodes=lat_cfg.cov_nodes
        )
        fv = None
        if pb.f is not None:
            fv = _finite_or_raise(pb.f(lat.flat_t, lat.flat_x), f"source '{pb.f.name}'")
            self.V_Zf = _contract(zx, lat.omega * fv, order)
        if not corrected:
            return
        pair = _pair_tensor(cf, S, lat_cfg, lat)
        depth = cfg.levi.depth
        if pb.g is not None:
            g_fn = lambda y: _finite_or_raise(pb.g(y), f"terminal datum '{pb.g.name}'")
            w1 = terminal_smoothing(
                cf, S, lat_cfg.cov_nodes, cfg.smoothing_nodes, lat, T, g_fn
            )
            G = _neumann_sums(pair, lat.omega, w1, depth)[-1]
            self.V_Pg = _contract(zx, lat.omega * G, order)
        if pb.f is not None:
            s1 = pair @ (lat.omega * fv)
            G = _neumann_sums(pair, lat.omega, s1, depth)[-1]
            self.V_Pf = _contract(zx, lat.omega * G, order)

    def solution(self) -> KernelEvaluation:
        return _combine(
            [(1.0, self.V_Zg), (1.0, self.V_Pg), (-1.0, self.V_Zf), (-1.0, self.V_Pf)],
            self.d,
            self.order,
        )


def potential_source(
    pb: CauchyProblem, cfg: SolverConfig, t: float, x, order: int = 0
) -> KernelEvaluation:
    """V_{p,f}(t,x) = int_t^T int p(t,x;tau,y) f(tau,y) dy dtau, p = Z + Phi."""
    asm = _PointAssembly(pb, cfg, t, x, order)
    return _combine([(1.0, asm.V_Zf), (1.0, asm.V_Pf)], asm.d, asm.order)


def solve_point(pb: CauchyProblem, cfg: SolverConfig, t: float, x) -> SolutionSample:
    """Solution record u, grad, hess and Yu = f - A u at a single point."""
    asm = _PointAssembly(pb, cfg, t, x, order=2)
    ev = asm.solution()
    x = np.asarray(x, dtype=float)
    bad = not np.isfinite(ev.value) or not np.all(np.isfinite(ev.grad_d)) or not np.all(
        np.isfinite(ev.hess_d)
    )
    if bad:
        raise NumericalDivergence(
            "solution evaluation diverged", point=(float(t), x.copy())
        )
    Au = _apply_elliptic(pb, t, x, ev)
    fval = float(pb.f([t], [x])[0]) if pb.f is not None else 0.0
    return SolutionSample(
        t=float(t), x=x, u=ev.value, grad_d=ev.grad_d, hess_d=ev.hess_d,
        Yu=fval - Au,
    )


def _apply_elliptic(pb: CauchyProblem, t, x, ev: KernelEvaluation) -> float:
    cf = pb.cf
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    xv = np.atleast_2d(np.asarray(x, dtype=float))
    a2 = cf.a2(tv, xv)[0]
    val = 0.5 * float(np.sum(a2 * ev.hess_d))
    if cf.a1 is not None:
        val += float(cf.a1(tv, xv)[0] @ ev.grad_d)
    if cf.a0 is not None:
        val += float(cf.a0(tv, xv)[0]) * ev.value
    return val


def solve_cauchy(pb: CauchyProblem, cfg: SolverConfig, points: Iterable) -> list:
    """Evaluate the Duhamel representation at each (t, x) point."""
    return [solve_point(pb, cfg, t, x) for t, x in points]


def residual_check(pb: CauchyProblem, cfg: SolverConfig, points: Iterable) -> np.ndarray:
    """Flow-differenced equation residual at each point.

    r = [u(t+dt, e^(dt B) x) - u(t, x)] / dt + (A u)(t, x) - f(t, x);
    small residuals certify the strong Lie form of the equation, with dt =
    (T - t)/1000 clamped to [1e-6, 1e-3].
    """
    res = []
    for t, x in points:
        x = np.asarray(x, dtype=float)
        dt = np.clip((pb.T - t) / 1000.0, 1e-6, 1e-3)
        if not t + dt < pb.T:
            raise EmptyInterval(f"probe time {t + dt} reaches the horizon {pb.T}")
        sample = solve_point(pb, cfg, t, x)
        x_flow = matrix_exp(pb.S.B, dt) @ x
        u_next = _PointAssembly(pb, cfg, t + dt, x_flow, order=0).solution().value
        fval = float(pb.f([t], [x])[0]) if pb.f is not None else 0.0
        Au = fval - sample.Yu
        res.append((u_next - sample.u) / dt + Au - fval)
    return np.asarray(res)


@dataclass
class BoundaryFit:
    """Fitted short-time boundary attainment along the flow."""

    slope: float
    gaps: np.ndarray
    sups: np.ndarray
    degenerate: bool


NOISE_FLOOR = 1e-8


def boundary_regY_check(
    pb: CauchyProblem, cfg: SolverConfig, x_grid: Sequence, t_grid: Sequence
) -> BoundaryFit:
    """Fit sup_x |u(t, e^((T-t)B) x) - g(x)| against (T - t) in log-log.

    Measures how fast the solution attains its terminal datum along the
    drift flow; the expected slope is beta/2 for a datum of regularity
    beta.  Sup levels at the quadrature noise floor are flagged degenerate.
    """
    if pb.g is None:
        raise InvalidData("boundary check needs a terminal datum")
    t_grid = np.asarray(list(t_grid), dtype=float)
    if t_grid.size < 3:
        raise InsufficientData("boundary fit needs at least 3 time levels")
    xs = np.atleast_2d(np.asarray(list(x_grid), dtype=float))
    g_ref = np.asarray(pb.g(xs), dtype=float)
    sups = []
    for t in t_grid:
        flow = matrix_exp(pb.S.B, pb.T - t)
        diffs = [
            _PointAssembly(pb, cfg, t, flow @ x, order=0).solution().value - g
            for x, g in zip(xs, g_ref)
        ]
        sups.append(np.max(np.abs(diffs)))
    sups = np.asarray(sups)
    gaps = pb.T - t_grid
    degenerate = bool(np.max(sups) < NOISE_FLOOR)
    if degenerate:
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(gaps), np.log(np.maximum(sups, 1e-300)), 1)[0])
    return BoundaryFit(slope=slope, gaps=gaps, sups=sups, degenerate=degenerate)


def samples_to_csv(samples: Sequence[SolutionSample], path: str, residuals=None) -> None:
    """Write solution records to CSV.

    Columns: t, x1..xN, u, du_1..du_d, d2u_11..d2u_dd (row-major), Yu,
    residual (empty when not supplied).
    """
    if not samples:
        raise InvalidData("no samples to write")
    N = samples[0].x.size
    d = samples[0].grad_d.size
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(N)]
        + ["u"]
        + [f"du_{i + 1}" for i in range(d)]
        + [f"d2u_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
        + ["Yu", "residual"]
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, smp in enumerate(samples):
            row = (
                [f"{smp.t:.17g}"]
                + [f"{v:.17g}" for v in smp.x]
                + [f"{smp.u:.17g}"]
                + [f"{v:.17g}" for v in smp.grad_d]
                + [f"{v:.17g}" for v in smp.hess_d.reshape(-1)]
                + [f"{smp.Yu:.17g}"]
            )
            row.append("" if residuals is None else f"{residuals[k]:.17g}")
            w.writerow(row)
