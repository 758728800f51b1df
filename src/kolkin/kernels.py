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

Everything is evaluated in log space on time groups.  The stack functions
take times t, s (and tau) of shape (G,), scalars broadcasting, and points
x, y (and v) of shape (G, ..., N): each group holds one pair of times and
any number of points, whose point axes broadcast between x and y, and whose
group axis may have size 1.  Flows are exponentiated and quadrature nodes
placed once per group.  The covariance depends on the point only through a2
along the flow, so when a2 does not depend on space each group has one
covariance, carried with size-1 point axes that broadcast over its points.
One pair per group -- t of shape (M,), x of shape (M, N) -- is the flat
special case, and the scalar entry points wrap stacks of size one.  Every
covariance is factored by :func:`factor_stack`, in its own diagonal scaling.
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
    """Weighted sum of a batched kernel result (value and derivatives) over
    its flattened points."""
    n = weights.size
    ev = KernelEvaluation(value=float(zx["value"].reshape(n) @ weights))
    if order >= 1:
        ev.grad_d = zx["grad_d"].reshape(n, -1).T @ weights
    if order >= 2:
        d = ev.grad_d.size
        ev.hess_d = np.einsum("mij,m->ij", zx["hess_d"].reshape(n, d, d), weights)
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


def _rows(a, shape, tail=()):
    """a broadcast to shape + tail, laid out as flat rows of shape tail."""
    return np.broadcast_to(a, shape + tail).reshape((-1,) + tail)


def _gauss_eval(L_inv, logdet, z, flow, d: int, order: int):
    """Gaussian value/derivatives over broadcast leading axes.

    z is the centered argument y - e^((s-t)B) x, flow the flow matrices
    e^((s-t)B); z (..., N), L_inv (..., N, N), logdet (...) and flow
    (..., N, N) broadcast against each other, and every output has their
    common leading shape.  Derivatives are taken in the first d coordinates
    of x, so each d/dx_i inserts a factor <flow e_i, C^-1 z>.
    """
    N = z.shape[-1]
    shape = np.broadcast_shapes(z.shape[:-1], np.shape(logdet), L_inv.shape[:-2], flow.shape[:-2])
    # L^-1 z on flat rows, formed once: an einsum over broadcast operands runs
    # several times slower, and summing its columns one at a time changes the
    # last bit for N >= 3 (einsum's contiguous reduction pairs its lanes)
    a = np.einsum("mij,mj->mi", _rows(L_inv, shape, (N, N)), _rows(z, shape, (N,)))
    a = a.reshape(shape + (N,))
    quad = np.sum(a * a, axis=-1)
    logval = -0.5 * (N * LOG_2PI + logdet + quad)
    val = np.exp(logval)
    out = {"value": val, "log_abs": logval}
    if order >= 1:
        # products of broadcast operands run one column at a time, in
        # einsum's order for these strided reductions
        w2 = sum(L_inv[..., k, :] * a[..., k, None] for k in range(N))  # C^{-1} z
        G = sum(flow[..., k, :d] * w2[..., k, None] for k in range(N))
        out["grad_d"] = val[..., None] * G
        if order >= 2:
            Wd = sum(L_inv[..., :, k, None] * flow[..., k, None, :d] for k in range(N))
            H0 = np.einsum("...ki,...kj->...ij", Wd, Wd)
            out["hess_d"] = val[..., None, None] * (G[..., :, None] * G[..., None, :] - H0)
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


def _groups(t, x, s, y, what: str):
    """Grouped kernel arguments: t and s broadcast to (G,), and x and y get
    a common number of axes by prepending size-1 ones.  x and y are made
    contiguous: einsum's summation order, so the last bit, depends on the
    memory layout."""
    t, s = np.broadcast_arrays(
        np.atleast_1d(np.asarray(t, dtype=float)), np.atleast_1d(np.asarray(s, dtype=float))
    )
    if np.any(s <= t):
        raise EmptyInterval(f"{what} needs s > t")
    x, y = np.ascontiguousarray(x, dtype=float), np.ascontiguousarray(y, dtype=float)
    nd = max(x.ndim, y.ndim, 2)
    return t, x.reshape((1,) * (nd - x.ndim) + x.shape), s, y.reshape((1,) * (nd - y.ndim) + y.shape)


def _per_group(a, ndim: int):
    """A per-group stack (G, ...) with size-1 point axes, for arguments of
    ndim axes (G, ..., N)."""
    return a.reshape(a.shape[:1] + (1,) * (ndim - 2) + a.shape[1:])


def _at(fn, t, x):
    """A coefficient callable at the points x (G, ..., N) and times t, whose
    axes lead x's; the callable takes flat rows, the result keeps x's axes."""
    t = t.reshape(t.shape + (1,) * (x.ndim - 1 - t.ndim))
    shape = np.broadcast_shapes(t.shape, x.shape[:-1])
    out = fn(_rows(t, shape), _rows(x, shape, x.shape[-1:]))
    return out.reshape(shape + out.shape[1:])


def frozen_covariance_stack(
    cf: CoefficientField,
    S: DriftStructure,
    tau,
    v,
    t,
    s,
    nodes: int = DEFAULT_COV_NODES,
):
    """Frozen covariances C^(tau,v)(t, s) on time groups.

    tau, t and s have shape (G,), scalars broadcasting; v has shape
    (G, ..., N), its group axis possibly of size 1.  The flows are
    exponentiated and the quadrature nodes placed once per group, and a2 is
    evaluated along each point's flow: the result has shape (G, ..., N, N)
    over v's point axes.  When a2 does not depend on space the covariance
    depends on (t, s) alone, so each group gets one, with size-1 point axes
    that broadcast.  Panels align with the coefficient field's time
    breakpoints.
    """
    tau, t, s = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (tau, t, s))
    )
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if np.any(s <= t):
        raise EmptyInterval("frozen covariance needs s > t for every stack entry")
    G, N, d = t.size, S.N, S.d
    ones = (1,) * (v.ndim - 2)

    lo_all = float(t.min())
    hi_all = float(s.max())
    inner = [b for b in cf.t_breaks if lo_all < b < hi_all]
    edges = np.array([lo_all] + inner + [hi_all])
    n_panels = len(edges) - 1
    per_panel = max(6, int(np.ceil(nodes / n_panels))) if n_panels > 1 else nodes
    xi, w = _leggauss(per_panel)
    g = 0.5 * (xi + 1.0)
    gw = 0.5 * w

    C = 0.0
    for j in range(n_panels):
        lo = np.clip(edges[j], t, s)
        hi = np.clip(edges[j + 1], t, s)
        length = hi - lo  # (G,), possibly zero
        rho = lo[:, None] + length[:, None] * g[None, :]  # (G, q)
        wq = length[:, None] * gw[None, :]
        left = expm_stack(S.B, (s[:, None] - rho).reshape(-1))[:, :, :d].reshape(
            G, per_panel, N, d
        )
        if cf.space_dependent_a2:
            back = expm_stack(S.B, (rho - tau[:, None]).reshape(-1))
            back = back.reshape(G, per_panel, *ones, N, N)
            # one column at a time: an einsum over these broadcast operands
            # runs several times slower
            pts = sum(back[..., k] * v[:, None, ..., None, k] for k in range(N))
            a2 = _at(cf.a2, rho, pts)
        else:
            a2 = cf.a2(rho.reshape(-1), np.zeros((rho.size, N))).reshape(G, per_panel, *ones, d, d)
        C = C + np.einsum("gq,gqik,gq...kl,gqjl->g...ij", wq, left, a2, left)
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


def _gauss_stack(S, C, t, x, s, y, order: int, z=None):
    """The kernels' shared tail on grouped arguments: factor the covariances
    C (G, ..., N, N), flow, offset and _gauss_eval.  z, when given, is the
    exact offset y - e^((s-t)B) x (forming it by subtraction cancels at
    small gaps)."""
    _, L_inv, logdet = factor_stack(C)
    flow = _per_group(expm_stack(S.B, s - t), y.ndim)
    if z is None:
        z = y - np.einsum("...ij,...j->...i", flow, x)
    return _gauss_eval(L_inv, logdet, z, flow, S.d, order)


def parametrix_stack(cf, S, t, x, s, y, order: int = 0, cov_nodes: int = DEFAULT_COV_NODES):
    """Frozen-coefficient kernel Z(t, x; s, y) with derivatives, on time groups.

    t and s have shape (G,), x and y shape (G, ..., N), as described in the
    module docstring.  The covariance is frozen at (s, y): one per point of
    y, or one per group when a2 does not depend on space.  Returns a dict
    with 'value' and 'log_abs' over the broadcast shape (G, ...) of x and y
    and, per order, 'grad_d' (G, ..., d) and 'hess_d' (G, ..., d, d); the
    hessian is symmetric by construction.
    """
    t, x, s, y = _groups(t, x, s, y, "parametrix")
    C = frozen_covariance_stack(cf, S, s, y, t, s, nodes=cov_nodes)
    return _gauss_stack(S, C, t, x, s, y, order)


def parametrix(cf, S, t: float, x, s: float, y, order: int = 0) -> KernelEvaluation:
    """Frozen-coefficient kernel at a single space-time pair."""
    out = parametrix_stack(cf, S, [t], [x], [s], [y], order=order)
    return KernelEvaluation(
        value=float(out["value"][0]),
        grad_d=out["grad_d"][0] if order >= 1 else None,
        hess_d=out["hess_d"][0] if order >= 2 else None,
    )


def reference_gaussian_log_stack(delta: float, S: DriftStructure, t, x, s, y):
    """Log of the scale-delta reference Gaussian, on time groups (see
    :func:`parametrix_stack`); its covariance depends on the group alone."""
    if not delta > 0:
        raise InvalidScale(f"scale delta must be positive, got {delta}")
    t, x, s, y = _groups(t, x, s, y, "reference Gaussian")
    C = delta * reference_covariance(S, s - t)
    return _gauss_stack(S, _per_group(C, y.ndim), t, x, s, y, 0)["log_abs"]


def reference_gaussian(delta: float, S: DriftStructure, t: float, x, s: float, y) -> float:
    """Reference Gaussian with covariance delta * C(s - t)."""
    return float(np.exp(reference_gaussian_log_stack(delta, S, [t], [x], [s], [y])[0]))


def _first_kernel(cf, S, t, x, s, y, cov_nodes: int, z=None) -> np.ndarray:
    """First kernel on time groups (see :func:`levi_first_kernel_stack`);
    z, when given, is the exact offset y - e^((s-t)B) x.

    a2, a1 and a0 are evaluated once per point of x, and a2 once per point of
    y at its back-flowed image; both broadcast to the pair shape.
    """
    t, x, s, y = _groups(t, x, s, y, "first kernel")
    C = frozen_covariance_stack(cf, S, s, y, t, s, nodes=cov_nodes)
    out = _gauss_stack(S, C, t, x, s, y, 2, z)
    back = _per_group(expm_stack(S.B, t - s), y.ndim)
    dA = _at(cf.a2, t, x) - _at(cf.a2, t, np.einsum("...ij,...j->...i", back, y))
    H = 0.5 * np.einsum("...ij,...ij->...", dA, out["hess_d"])
    if cf.a1 is not None:
        H = H + np.einsum("...i,...i->...", _at(cf.a1, t, x), out["grad_d"])
    if cf.a0 is not None:
        H = H + _at(cf.a0, t, x) * out["value"]
    return H


def levi_first_kernel_stack(cf, S, t, x, s, y, cov_nodes: int = DEFAULT_COV_NODES):
    """First kernel of the correction series, (L Z)(t, x; s, y), on time
    groups: t and s of shape (G,), x and y of shape (G, ..., N), as for
    :func:`parametrix_stack`, whose covariance rule it shares.

    The frozen operator annihilates Z exactly, so applying the full operator
    leaves the coefficient increment against the hessian plus the
    lower-order terms:

        H = 1/2 sum_ij (a2_ij(t,x) - a2_ij(t, e^((t-s)B) y)) d_ij Z
            + sum_i a1_i(t,x) d_i Z + a0(t,x) Z.
    """
    return _first_kernel(cf, S, t, x, s, y, cov_nodes)


def levi_first_kernel(cf, S, t: float, x, s: float, y) -> float:
    """First kernel of the correction series at a single pair."""
    return float(levi_first_kernel_stack(cf, S, [t], [x], [s], [y])[0])
