"""Correction series turning the frozen-coefficient kernel into the
fundamental solution.

With H the first kernel (kernels.levi_first_kernel) and * the space-time
convolution  (Z * F)(t,x;s,y) = int_t^s int Z(t,x;r,z) F(r,z;s,y) dz dr,
the fundamental solution is p = Z + Phi where Phi = Z * F and F solves the
Volterra equation F = H + H * F.  The truncation used here is the K-term
partial sum  Phi_K = sum_{k=1..K} Z * H^{*k}.

Numerically this runs on a "bridge lattice": graded time nodes in (t, s),
each carrying an importance-weighted Gauss-Hermite cloud drawn from a
Gaussian proposal that tracks where the integrand mass lives (the product
of the two flow-pinned reference Gaussians for a pointwise evaluation, or
the forward tube alone when the terminal end is spread out).  On the
lattice, H-composition is a causal Nystrom matrix, so the K-term sum costs
one kernel-pair tensor and K - 1 matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyInterval, InvalidData, NumericalDivergence
from .kernels import (
    KernelEvaluation,
    _combine,
    _contract,
    _first_kernel,
    _zero_eval,
    factor_stack,
    levi_first_kernel_stack,
    parametrix,
    parametrix_stack,
    reference_covariance,
)
from .quadrature import gaussian_product, graded_nodes, proposal_nodes
from .structure import expm_stack

GRADING_CAP = 6.0


@dataclass(frozen=True)
class LeviConfig:
    """Tuning knobs for the correction series.

    depth: number of series terms kept (0 disables the correction).
    time_nodes / space_nodes: lattice sizes (space_nodes is per axis).
    grading: power of the two-sided graded time map; defaults to
        min(2/alpha_bar, GRADING_CAP), and to max(1, 2/alpha) on the
        solver's lattice (SolverConfig.lattice_config).
    cov_nodes: quadrature nodes for each frozen covariance inside the
        lattice machinery (the public kernel API keeps its own default).
    min_gap: smallest time gap evaluated; graded nodes closer than this to
        an interval endpoint are dropped, which leaves out an endpoint
        contribution of order min_gap^beta (see quadrature.graded_nodes).
    """

    depth: int = 2
    time_nodes: int = 12
    space_nodes: int = 9
    grading: Optional[float] = None
    cov_nodes: int = 16
    min_gap: float = 1e-5

    def __post_init__(self):
        if self.depth < 0:
            raise InvalidData("depth must be >= 0")
        if self.time_nodes < 2 or self.space_nodes < 2:
            raise InvalidData("need at least 2 time and 2 space nodes")
        if self.grading is not None and self.grading < 1:
            raise InvalidData("grading power must be >= 1")

    def grading_power(self, alpha_bar: float) -> float:
        if self.grading is not None:
            return float(self.grading)
        return float(min(2.0 / alpha_bar, GRADING_CAP))


@dataclass
class _Lattice:
    times: np.ndarray  # (n_t,)
    points: np.ndarray  # (n_t, n_z, N)
    omega: np.ndarray  # (n_nodes,) combined space-time weights

    @property
    def shape(self):
        return self.points.shape[:2]

    @property
    def flat_t(self):
        """(n_nodes,) node times, for callables that take flat rows."""
        return np.repeat(self.times, self.points.shape[1])

    @property
    def flat_x(self):
        """(n_nodes, N) node points."""
        return self.points.reshape(-1, self.points.shape[-1])


def _build_lattice(cf, S, cfg, t, x, s, y=None) -> _Lattice:
    """Graded time slices in (t, s), each with the Gauss-Hermite cloud of the
    forward tube N(e^((r-t)B) x, mu C(r-t)), multiplied by the backward tube
    from (s, y) when y is given."""
    if not s > t:
        raise EmptyInterval(f"lattice needs s > t, got ({t}, {s})")
    p = cfg.grading_power(cf.alpha_bar)
    times, tw = graded_nodes(t, s, cfg.time_nodes, p, min_gap=cfg.min_gap)
    if times.size == 0:
        raise EmptyInterval("graded time grid is empty; interval too short")
    means = expm_stack(S.B, times - t) @ np.asarray(x, dtype=float)
    C = cf.mu * reference_covariance(S, times - t)
    if y is not None:
        back = expm_stack(S.B, times - s)
        C_b = cf.mu * reference_covariance(S, s - times)
        C_back = np.einsum("mik,mkl,mjl->mij", back, C_b, back)
        means, C = gaussian_product(means, C, back @ np.asarray(y, dtype=float), C_back)
    points, w_z = proposal_nodes(means, factor_stack(C)[0], cfg.space_nodes)  # (n_t, n_z, N)
    return _Lattice(times, points, (tw[:, None] * w_z).reshape(-1))


def terminal_smoothing(cf, S, cov_nodes, eta_nodes, lat: _Lattice, T, g_fn) -> np.ndarray:
    """Terminal datum smoothed once by the first kernel, on the lattice.

    W_1(r, z) = int H(r, z; T, y) g(y) dy for every lattice node, each with
    its own Gauss-Hermite cloud centered at the node's flowed image
    e^((T-r)B) z with covariance mu C(T-r) — the kernel bump narrows as the
    slice approaches the horizon, so a shared terminal cloud would miss it.
    Returns the flattened (n_nodes,) vector.
    """
    n_t, n_z = lat.shape
    flowT = expm_stack(S.B, T - lat.times)  # (n_t, N, N)
    centers = np.einsum("tij,taj->tai", flowT, lat.points)  # (n_t, n_z, N)
    covs = cf.mu * reference_covariance(S, T - lat.times)
    # zero-mean clouds: the exact offsets y - centre, which the first kernel
    # takes directly (forming them by subtraction cancels at small gaps)
    offs, w_eta = proposal_nodes(np.zeros((n_t, S.N)), factor_stack(covs)[0], eta_nodes)
    y = centers[:, :, None, :] + offs[:, None, :, :]  # (n_t, n_z, n_c, N)
    # one group per slice: its nodes (as sources) x their clouds (as targets)
    H = _first_kernel(cf, S, lat.times, lat.points[:, :, None], T, y, cov_nodes, offs[:, None])
    gv = np.asarray(g_fn(y.reshape(-1, S.N)), dtype=float).reshape(H.shape)
    return np.einsum("tc,tac->ta", w_eta, H * gv).reshape(n_t * n_z)


def _pair_tensor(cf, S, cfg, lat: _Lattice) -> np.ndarray:
    """Causal Nystrom matrix H[alpha, beta] = H(node_alpha; node_beta),
    zero unless node_beta sits strictly later in time.

    Each slice pair (r_src < r_tgt) is one group of the first kernel, its
    source points against its target points; the frozen covariances are
    computed once per target point (once per pair when a2 does not depend
    on space) rather than per node pair.
    """
    n_t, n_z = lat.shape
    H = np.zeros((n_t, n_z, n_t, n_z))
    if n_t > 1:
        ii, jj = np.triu_indices(n_t, k=1)
        H[ii, :, jj, :] = levi_first_kernel_stack(
            cf, S, lat.times[ii], lat.points[ii, :, None], lat.times[jj], lat.points[jj, None],
            cov_nodes=cfg.cov_nodes,
        )
    return H.reshape(n_t * n_z, n_t * n_z)


def _neumann_sums(pair, omega, w1, depth: int) -> np.ndarray:
    """sum_{k<depth} (causal Nystrom power k) applied to w1."""
    total = term = w1
    for _ in range(depth - 1):
        term = pair @ (omega * term)
        total = total + term
    return total


def _check_finite(arr, lat: _Lattice, what: str):
    bad = ~np.isfinite(arr)
    if np.any(bad):
        flat = bad.reshape(bad.shape[0], -1).any(axis=-1) if arr.ndim > 1 else bad
        idx = int(np.argmax(flat))
        point = (float(lat.flat_t[idx]), lat.flat_x[idx].copy())
        raise NumericalDivergence(f"non-finite {what} on the lattice", point=point)


def phi_eval(cf, S, cfg: LeviConfig, t: float, x, s: float, y, order: int = 0) -> KernelEvaluation:
    """Correction term Phi_K(t, x; s, y), optionally with derivatives in x.

    Derivatives are taken by differentiating the left Z factor inside the
    convolution.
    """
    if cfg.depth == 0 or cf.levi_trivial:
        return _zero_eval(S.d, order)
    lat = _build_lattice(cf, S, cfg, t, x, s, y=y)
    target = levi_first_kernel_stack(
        cf, S, lat.times, lat.points, s, y, cov_nodes=cfg.cov_nodes
    ).reshape(-1)
    _check_finite(target, lat, "first kernel")
    pair = None
    if cfg.depth > 1:
        pair = _pair_tensor(cf, S, cfg, lat)
        _check_finite(pair, lat, "kernel pair tensor")
    zx = parametrix_stack(
        cf, S, t, x, lat.times, lat.points, order=order, cov_nodes=cfg.cov_nodes
    )
    return _contract(zx, lat.omega * _neumann_sums(pair, lat.omega, target, cfg.depth), order)


def fundamental_solution(cf, S, cfg: LeviConfig, t: float, x, s: float, y, order: int = 0) -> KernelEvaluation:
    """p = Z + Phi_K with matching derivative orders.

    Public API only: the solver never evaluates p pointwise, it integrates
    Z against the lattice density of cauchy._represent instead.
    """
    base = parametrix(cf, S, t, x, s, y, order=order)
    corr = phi_eval(cf, S, cfg, t, x, s, y, order=order)
    return _combine([(1.0, base), (1.0, corr)], S.d, order)
