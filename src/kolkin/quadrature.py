"""Quadrature helpers: Gauss rules, graded time maps, Hermite lattices,
and the seeded point sources (keyed Philox streams, Halton boxes).

Conventions.  Smooth time integrals use Gauss-Legendre rules, which their
callers split into panels at the coefficient breakpoints; integrals with
endpoint singularities run through a two-sided power grading (split at
the midpoint, substitute a power map toward each endpoint).  Space
integrals are importance-weighted Gauss-Hermite lattices: nodes of a
Gaussian proposal N(m, Sigma) carry weights W_a so that
integral phi(z) dz  ~=  sum_a W_a phi(z_a)  for any integrand that lives
where the proposal does.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.stats import qmc

from .errors import EmptyInterval, SingularCovariance

LOG_2PI = float(np.log(2.0 * np.pi))


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(int(n))


@lru_cache(maxsize=64)
def _hermgauss(n: int):
    return np.polynomial.hermite.hermgauss(int(n))


def graded_nodes(a: float, b: float, n: int, p: float, min_gap: float = 0.0):
    """Two-sided power-graded nodes for integrands singular at the endpoints.

    Splits [a, b] at the midpoint and maps Gauss-Legendre nodes through
    u -> u^p toward each endpoint, so integrable singularities like
    (r - a)^(beta-1) or (b - r)^(beta-1) with beta ~ 1/p are resolved.
    Nodes closer than min_gap to either endpoint are dropped (their exact
    contribution is O(min_gap^beta)).
    """
    if not b > a:
        raise EmptyInterval(f"need b > a, got [{a}, {b}]")
    p = max(1.0, float(p))
    half = 0.5 * (b - a)
    m = max(2, n // 2)
    xi, w = _leggauss(m)
    u = 0.5 * (xi + 1.0)
    uw = 0.5 * w
    # du-weighted power map on [0, 1]: r = u^p, dr = p u^(p-1) du
    r = u**p
    rw = p * u ** (p - 1.0) * uw
    left = a + half * r
    left_w = half * rw
    right = b - half * r
    right_w = half * rw
    nodes = np.concatenate([left, right])
    weights = np.concatenate([left_w, right_w])
    keep = (nodes - a >= min_gap) & (b - nodes >= min_gap)
    nodes, weights = nodes[keep], weights[keep]
    order = np.argsort(nodes)
    return nodes[order], weights[order]


def hermite_lattice(dim: int, n: int):
    """Tensor Gauss-Hermite lattice for Gaussian proposals.

    Returns (xi, log_w0) with xi of shape (n^dim, dim) the raw Hermite nodes
    and log_w0 the log of  prod_i w_i * exp(|xi|^2) * 2^(dim/2) ; the full
    Lebesgue weight of node a for proposal N(m, L L^T) is
    exp(log_w0[a] + log|det L|), at the point  z_a = m + sqrt(2) L xi_a.
    """
    x, w = _hermgauss(n)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    xi = np.stack([g.reshape(-1) for g in grids], axis=-1)
    logw = np.log(w)
    lw = np.meshgrid(*([logw] * dim), indexing="ij")
    log_prod = np.add.reduce([g.reshape(-1) for g in lw])
    log_w0 = log_prod + np.sum(xi**2, axis=-1) + 0.5 * dim * np.log(2.0)
    return xi, log_w0


def proposal_nodes(mean, chol, n: int):
    """Nodes (..., n^N, N) and Lebesgue weights (..., n^N) for Gaussian
    proposals N(mean, chol chol^T), batched over leading axes of mean/chol."""
    mean = np.asarray(mean, dtype=float)
    chol = np.asarray(chol, dtype=float)
    dim = mean.shape[-1]
    xi, log_w0 = hermite_lattice(dim, n)
    pts = mean[..., None, :] + np.sqrt(2.0) * xi @ np.swapaxes(chol, -1, -2)
    logdet_l = np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return pts, np.exp(log_w0 + logdet_l[..., None])


def gaussian_product(m1, C1, m2, C2):
    """Mean and covariance of the normalized product of two Gaussians,
    batched over leading axes."""
    C1 = np.asarray(C1, dtype=float)
    C2 = np.asarray(C2, dtype=float)
    try:
        P1 = np.linalg.inv(C1)
        P2 = np.linalg.inv(C2)
        C = np.linalg.inv(P1 + P2)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"singular factor in Gaussian product: {exc}")
    C = 0.5 * (C + np.swapaxes(C, -1, -2))
    m1 = np.asarray(m1, dtype=float)[..., None]
    m2 = np.asarray(m2, dtype=float)[..., None]
    m = (C @ (P1 @ m1 + P2 @ m2))[..., 0]
    return m, C


def keyed_rng(seed: int, key: int) -> np.random.Generator:
    """Independent Philox stream keyed by the pair (seed, key)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))


def halton_box(box, n: int) -> np.ndarray:
    """First n unscrambled Halton points in the (dim, 2) box; prefixes nest."""
    box = np.asarray(box, dtype=float)
    h = qmc.Halton(d=box.shape[0], scramble=False)
    return box[:, 0] + h.random(n) * (box[:, 1] - box[:, 0])
