"""Terminal-value solver via the Duhamel representation

    u(t,x) = int p(t,x;T,y) g(y) dy - int_t^T int p(t,x;r,z) f(r,z) dz dr

with the fundamental solution p = Z + Phi, Phi = Z * F and F the correction
series of the first kernel H.  By linearity every interior contribution is
one density integrated against Z: u = int Z g + int int Z rho with
rho = F*g - f - F*f.

At one evaluation point rho lives on a single space-time lattice: graded
time slices in (t,T) with per-slice Gauss-Hermite clouds following the
forward tube from (t,x), plus one terminal cloud at T for the Z g term.  On
that lattice the correction series reduces to powers of the causal
first-kernel matrix, so the datum and the source share one Neumann sum.
Spatial derivatives always fall on the explicit kernel factor, never on
finite differences of u.
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


def _represent(pb: CauchyProblem, cfg: SolverConfig, t: float, x, order: int) -> KernelEvaluation:
    """u(t, x) = int Z(t,x;T,y) g(y) dy + int_t^T int Z(t,x;r,z) rho(r,z) dz dr.

    The lattice density rho = F*g - f - F*f collects the correction series
    F = sum_k H^{*k} of both parts, so it takes one Neumann sum over the
    causal first-kernel matrix P and one contraction of the left Z factor:
    rho = sum_{k<depth} (P omega)^k (W_g - P(omega f)) - f, with W_g the
    terminal datum smoothed once by H.  Absent g or f drop their terms.
    """
    cf, S, T = pb.cf, pb.S, pb.T
    if not 0.0 < t < T:
        raise EmptyInterval(f"evaluation time must lie in (0, {T}), got {t}")
    x = np.asarray(x, dtype=float)
    corrected = not cf.levi_trivial and cfg.levi.depth > 0
    parts = []
    if pb.g is not None:
        mean_T = matrix_exp(S.B, T - t) @ x
        C_T = cf.mu * reference_covariance(S, T - t)[0]
        y_pts, w_y = proposal_nodes(mean_T, factor_covariance(C_T).chol, cfg.terminal_nodes)
        gv = _finite_or_raise(pb.g(y_pts), f"terminal datum '{pb.g.name}'")
        zg = parametrix_stack(
            cf, S, t, x, T, y_pts[None], order=order, cov_nodes=cfg.levi.cov_nodes
        )
        parts.append((1.0, _contract(zg, w_y * gv, order)))
    if pb.f is not None or (corrected and pb.g is not None):
        lat_cfg = cfg.lattice_config(pb.alpha)
        lat = _build_lattice(cf, S, lat_cfg, t, x, T)
        fv = None
        if pb.f is not None:
            fv = _finite_or_raise(pb.f(lat.flat_t, lat.flat_x), f"source '{pb.f.name}'")
        rho = 0.0
        if corrected:
            pair = _pair_tensor(cf, S, lat_cfg, lat)
            w1 = 0.0
            if pb.g is not None:
                g_fn = lambda y: _finite_or_raise(pb.g(y), f"terminal datum '{pb.g.name}'")
                w1 = terminal_smoothing(
                    cf, S, lat_cfg.cov_nodes, cfg.smoothing_nodes, lat, T, g_fn
                )
            if fv is not None:
                w1 = w1 - pair @ (lat.omega * fv)
            rho = _neumann_sums(pair, lat.omega, w1, cfg.levi.depth)
        if fv is not None:
            rho = rho - fv
        zx = parametrix_stack(
            cf, S, t, x, lat.times, lat.points, order=order, cov_nodes=lat_cfg.cov_nodes
        )
        parts.append((1.0, _contract(zx, lat.omega * rho, order)))
    return _combine(parts, S.d, order)


def potential_source(
    pb: CauchyProblem, cfg: SolverConfig, t: float, x, order: int = 0
) -> KernelEvaluation:
    """V_{p,f}(t,x) = int_t^T int p(t,x;tau,y) f(tau,y) dy dtau, p = Z + Phi.

    With g = 0 the solution is u = -V_{p,f}.
    """
    return _combine([(-1.0, _represent(replace(pb, g=None), cfg, t, x, order))], pb.S.d, order)


def solve_point(pb: CauchyProblem, cfg: SolverConfig, t: float, x) -> SolutionSample:
    """Solution record u, grad, hess and Yu = f - A u at a single point."""
    ev = _represent(pb, cfg, t, x, order=2)
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
        u_next = _represent(pb, cfg, t + dt, x_flow, order=0).value
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
            _represent(pb, cfg, t, flow @ x, order=0).value - g
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
