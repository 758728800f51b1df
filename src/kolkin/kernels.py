"""Frozen-coefficient Gaussian kernels and the correction's first kernel.

The building block is the Gaussian in the intrinsic geometry: for a frozen
space-time point (tau, v) the covariance is the flow-twisted integral

    C^(tau,v)(t, s) = int_t^s  e^((s-r)B) A(r, e^((r-tau)B) v) e^((s-r)B^T) dr,

where A embeds the d x d diffusion block a2 into N x N, and the kernel is

    Z(t, x; s, y) = Gauss( C^(s,y)(t, s), y - e^((s-t)B) x ),

i.e. the freezing point is the kernel's own terminal point.  Constant-in-x
coefficients make Z the exact fundamental solution; otherwise a correction
series (see levi.py) is driven by the first kernel returned by
:func:`levi_first_kernel`.

Everything is evaluated in log space and vectorized over stacks of points;
the scalar entry points wrap stacks of size one.  Every covariance is
factored by :func:`factor_stack`, in its own diagonal scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import CoefficientField
from .errors import EmptyInterval, InvalidScale, SingularCovariance
from .quadrature import LOG_2PI, _leggauss
from .structure import DriftStructure, expm_stack

DEFAULT_COV_NODES = 32


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetrized positive-definite covariance with its Cholesky factor."""

    C: np.ndarray
    chol: np.ndarray
    logdet: float


@dataclass
class KernelEvaluation:
    """Kernel value with optional first/second derivatives in x_1..x_d."""

    value: float
    grad_d: Optional[np.ndarray] = None
    hess_d: Optional[np.ndarray] = None


def _zero_eval(d: int, order: int) -> KernelEvaluation:
    return KernelEvaluation(
        value=0.0,
        grad_d=np.zeros(d) if order >= 1 else None,
        hess_d=np.zeros((d, d)) if order >= 2 else None,
    )


def _contract(zx, weights, order: int) -> KernelEvaluation:
    """Weighted sum of a batched kernel result (value and derivatives)."""
    ev = KernelEvaluation(value=float(zx["value"] @ weights))
    if order >= 1:
        ev.grad_d = zx["grad_d"].T @ weights
    if order >= 2:
        ev.hess_d = np.einsum("mij,m->ij", zx["hess_d"], weights)
    return ev


def _combine(parts, d: int, order: int) -> KernelEvaluation:
    """Linear combination sum_k c_k ev_k of (c_k, ev_k) pairs."""
    ev = _zero_eval(d, order)
    for c, p in parts:
        ev.value += c * p.value
        if order >= 1:
            ev.grad_d = ev.grad_d + c * p.grad_d
        if order >= 2:
            ev.hess_d = ev.hess_d + c * p.hess_d
    return ev


def factor_stack(Cs: np.ndarray):
    """Factor a stack of covariances in each matrix's own diagonal scaling.

    With D = sqrt(diag C), L = D Ls for Ls the Cholesky factor of D^-1 C D^-1.
    The intrinsic dilations give C(h) = D(sqrt h) C(1) D(sqrt h), so the
    scaled matrix stays well conditioned at every time gap.  Nothing is
    floored or perturbed: SingularCovariance names the first stack index that
    is non-finite, has a non-positive variance or is not positive definite.
    Returns (chol, chol_inv, logdet).
    """
    Cs = 0.5 * (Cs + np.swapaxes(Cs, -1, -2))
    diag = np.diagonal(Cs, axis1=-2, axis2=-1)
    ok = np.all(np.isfinite(Cs), axis=(-2, -1)) & np.all(diag > 0, axis=-1)
    D = np.sqrt(np.where(ok[..., None], diag, 1.0))  # unit scale for rejected matrices
    scaled = Cs / (D[..., :, None] * D[..., None, :])
    Ls = _cholesky(scaled) if ok.all() else None
    if Ls is None:
        idx = next(i for i in np.ndindex(ok.shape) if not ok[i] or _cholesky(scaled[i]) is None)
        raise SingularCovariance(f"covariance at stack index {idx} is not positive definite")
    logdet = 2.0 * np.sum(np.log(D) + np.log(np.diagonal(Ls, axis1=-2, axis2=-1)), axis=-1)
    L_inv = _tril_inverse(Ls) / D[..., None, :]
    return D[..., :, None] * Ls, L_inv, logdet


def _tril_inverse(L):
    """Inverse of a stack of lower-triangular matrices by forward substitution."""
    n = L.shape[-1]
    M = np.zeros_like(L)
    for i in range(n):
        row = np.zeros(L.shape[:-1])
        row[..., i] = 1.0
        for k in range(i):
            row -= L[..., i, k, None] * M[..., k, :]
        M[..., i, :] = row / L[..., i, i, None]
    return M


def _cholesky(C):
    """Lower Cholesky factor of a stack, or None if any matrix has none."""
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        return None


def factor_covariance(C: np.ndarray) -> CovarianceMatrix:
    """Factor a single covariance matrix (see :func:`factor_stack`)."""
    C = np.asarray(C, dtype=float)
    L, _, logdet = factor_stack(C[None])
    return CovarianceMatrix(C=0.5 * (C + C.T), chol=L[0], logdet=float(logdet[0]))


def _gauss_eval(L_inv, logdet, z, flow, d: int, order: int):
    """Batched Gaussian value/derivatives.

    z is the centered argument y - e^((s-t)B) x, flow the stack of flow
    matrices e^((s-t)B); derivatives are taken in the first d coordinates
    of x, so each d/dx_i inserts a factor <flow e_i, C^-1 z>.
    """
    N = z.shape[-1]
    a = np.einsum("mij,mj->mi", L_inv, z)
    quad = np.sum(a * a, axis=-1)
    logval = -0.5 * (N * LOG_2PI + logdet + quad)
    val = np.exp(logval)
    out = {"value": val, "log_abs": logval}
    if order >= 1:
        w2 = np.einsum("mji,mj->mi", L_inv, a)  # C^{-1} z
        G = np.einsum("mji,mj->mi", flow, w2)[:, :d]
        out["grad_d"] = val[:, None] * G
        if order >= 2:
            Wd = np.einsum("mij,mjk->mik", L_inv, flow[:, :, :d])
            H0 = np.einsum("mki,mkj->mij", Wd, Wd)
            out["hess_d"] = val[:, None, None] * (
                G[:, :, None] * G[:, None, :] - H0
            )
    return out


def reference_covariance(S: DriftStructure, dt, nodes: int = DEFAULT_COV_NODES):
    """Constant-unit-coefficient covariance C(dt), batched over dt.

    C(dt) = int_0^dt e^(uB) E e^(uB^T) du with E the embedding of I_d.
    """
    dt = np.atleast_1d(np.asarray(dt, dtype=float))
    if np.any(dt <= 0):
        raise EmptyInterval("reference covariance needs dt > 0")
    xi, w = _leggauss(nodes)
    g = 0.5 * (xi + 1.0)
    gw = 0.5 * w
    u = dt[:, None] * g[None, :]
    F = expm_stack(S.B, u.reshape(-1))[:, :, : S.d].reshape(
        dt.size, nodes, S.N, S.d
    )
    C = np.einsum("q,mqik,mqjk->mij", gw, F, F) * dt[:, None, None]
    return C


def frozen_covariance_stack(
    cf: CoefficientField,
    S: DriftStructure,
    tau,
    v,
    t,
    s,
    nodes: int = DEFAULT_COV_NODES,
):
    """Stack of frozen covariances C^(tau,v)(t, s).

    All arguments are stacks: tau, t, s of shape (M,), v of shape (M, N).
    Panels align with the coefficient field's time breakpoints.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if np.any(s <= t):
        raise EmptyInterval("frozen covariance needs s > t for every stack entry")
    M, N, d = t.size, S.N, S.d

    lo_all = float(t.min())
    hi_all = float(s.max())
    inner = [b for b in cf.t_breaks if lo_all < b < hi_all]
    edges = np.array([lo_all] + inner + [hi_all])
    n_panels = len(edges) - 1
    per_panel = max(6, int(np.ceil(nodes / n_panels))) if n_panels > 1 else nodes
    xi, w = _leggauss(per_panel)
    g = 0.5 * (xi + 1.0)
    gw = 0.5 * w

    C = np.zeros((M, N, N))
    for j in range(n_panels):
        lo = np.clip(edges[j], t, s)
        hi = np.clip(edges[j + 1], t, s)
        length = hi - lo  # (M,), possibly zero
        rho = lo[:, None] + length[:, None] * g[None, :]  # (M, q)
        wq = length[:, None] * gw[None, :]
        flat_rho = rho.reshape(-1)
        back = expm_stack(S.B, (rho - tau[:, None]).reshape(-1))
        pts = np.einsum("pij,pj->pi", back, np.repeat(v, per_panel, axis=0))
        a2 = cf.a2(flat_rho, pts).reshape(M, per_panel, d, d)
        left = expm_stack(S.B, (s[:, None] - rho).reshape(-1))[:, :, :d].reshape(
            M, per_panel, N, d
        )
        C += np.einsum("mq,mqik,mqkl,mqjl->mij", wq, left, a2, left)
    return C


def frozen_covariance(
    cf: CoefficientField,
    S: DriftStructure,
    tau: float,
    v,
    t: float,
    s: float,
    nodes: int = DEFAULT_COV_NODES,
) -> CovarianceMatrix:
    """Frozen covariance C^(tau,v)(t, s) for a single frozen point."""
    C = frozen_covariance_stack(cf, S, [tau], [np.asarray(v, dtype=float)], [t], [s], nodes)
    return factor_covariance(C[0])


def parametrix_stack(cf, S, t, x, s, y, order: int = 0, cov_nodes: int = DEFAULT_COV_NODES):
    """Batched frozen-coefficient kernel Z(t, x; s, y) with derivatives.

    Returns a dict with 'value', 'log_abs' and, per order, 'grad_d' (M, d)
    and 'hess_d' (M, d, d); the hessian is symmetric by construction.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if np.any(s <= t):
        raise EmptyInterval("parametrix needs s > t")
    flow = expm_stack(S.B, s - t)
    z = y - np.einsum("mij,mj->mi", flow, x)
    C = frozen_covariance_stack(cf, S, s, y, t, s, nodes=cov_nodes)
    _, L_inv, logdet = factor_stack(C)
    return _gauss_eval(L_inv, logdet, z, flow, S.d, order)


def parametrix(cf, S, t: float, x, s: float, y, order: int = 0) -> KernelEvaluation:
    """Frozen-coefficient kernel at a single space-time pair."""
    out = parametrix_stack(cf, S, [t], [x], [s], [y], order=order)
    return KernelEvaluation(
        value=float(out["value"][0]),
        grad_d=out["grad_d"][0] if order >= 1 else None,
        hess_d=out["hess_d"][0] if order >= 2 else None,
    )


def reference_gaussian_log_stack(delta: float, S: DriftStructure, t, x, s, y):
    """Log of the scale-delta reference Gaussian, batched."""
    if not delta > 0:
        raise InvalidScale(f"scale delta must be positive, got {delta}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if np.any(s <= t):
        raise EmptyInterval("reference Gaussian needs s > t")
    flow = expm_stack(S.B, s - t)
    z = y - np.einsum("mij,mj->mi", flow, x)
    C = delta * reference_covariance(S, s - t)
    _, L_inv, logdet = factor_stack(C)
    return _gauss_eval(L_inv, logdet, z, flow, S.d, 0)["log_abs"]


def reference_gaussian(delta: float, S: DriftStructure, t: float, x, s: float, y) -> float:
    """Reference Gaussian with covariance delta * C(s - t)."""
    return float(np.exp(reference_gaussian_log_stack(delta, S, [t], [x], [s], [y])[0]))


def _first_kernel(cf, out, t_src, x_src, a2_back) -> np.ndarray:
    """First kernel from a _gauss_eval result of Z over source-target pairs:

        H = 1/2 (a2(src) - a2_back) : d^2 Z + a1(src) . grad Z + a0(src) Z.

    t_src (source-shaped) and x_src (t_src.shape + (N,)) are evaluated once
    per source point; a2_back holds a2 at the back-flowed targets, shaped
    (target-shaped) + (d, d).  Both broadcast to the pair shape of out.
    """
    src_shape = np.shape(t_src)
    d = a2_back.shape[-1]
    shape = np.broadcast_shapes(src_shape, a2_back.shape[:-2])
    src = (np.reshape(t_src, -1), np.reshape(x_src, (-1, np.shape(x_src)[-1])))
    dA = cf.a2(*src).reshape(*src_shape, d, d) - a2_back
    H = 0.5 * np.einsum("...ij,...ij->...", dA, out["hess_d"].reshape(*shape, d, d))
    if cf.a1 is not None:
        a1 = cf.a1(*src).reshape(*src_shape, d)
        H = H + np.einsum("...i,...i->...", a1, out["grad_d"].reshape(*shape, d))
    if cf.a0 is not None:
        H = H + cf.a0(*src).reshape(src_shape) * out["value"].reshape(shape)
    return H


def levi_first_kernel_stack(cf, S, t, x, s, y, cov_nodes: int = DEFAULT_COV_NODES):
    """Batched first kernel of the correction series: (L Z)(t, x; s, y).

    The frozen operator annihilates Z exactly, so applying the full operator
    leaves the coefficient increment against the hessian plus the
    lower-order terms:

        H = 1/2 sum_ij (a2_ij(t,x) - a2_ij(t, e^((t-s)B) y)) d_ij Z
            + sum_i a1_i(t,x) d_i Z + a0(t,x) Z.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    out = parametrix_stack(cf, S, t, x, s, y, order=2, cov_nodes=cov_nodes)
    back = expm_stack(S.B, t - s)
    a2_back = cf.a2(t, np.einsum("mij,mj->mi", back, y))
    return _first_kernel(cf, out, t, x, a2_back)


def levi_first_kernel(cf, S, t: float, x, s: float, y) -> float:
    """First kernel of the correction series at a single pair."""
    return float(levi_first_kernel_stack(cf, S, [t], [x], [s], [y])[0])
