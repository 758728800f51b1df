"""Drift-matrix geometry for degenerate Kolmogorov operators.

The operator's first-order part is Y = d/dt + <B x, grad>.  Everything
geometric follows from the drift matrix B together with the number d of
diffusive coordinates: whether the parabolic Hormander (Kalman) condition
holds, the sizes of the canonical-form blocks, the per-coordinate scaling
weights 2j+1, the anisotropic quasi-norm and the homogeneous dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HormanderViolation, NotCanonicalForm, StructuralError

# Numerical rank threshold: singular values below RANK_RTOL * sigma_max count
# as zero.
RANK_RTOL = 1e-10
# Entries below ZERO_RTOL * max|B| are treated as structural zeros.
ZERO_RTOL = 1e-12


def _as_square(B) -> np.ndarray:
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise StructuralError(f"drift matrix must be square, got shape {B.shape}")
    if not np.all(np.isfinite(B)):
        raise StructuralError("drift matrix has non-finite entries")
    return B


def kalman_rank(B, d: int) -> tuple[bool, int]:
    """Rank of the controllability matrix [R, BR, ..., B^(N-1)R].

    R injects the first d coordinates.  Returns (condition holds, rank);
    the condition holds iff the rank equals N.
    """
    B = _as_square(B)
    N = B.shape[0]
    if not 1 <= int(d) <= N:
        raise StructuralError(f"d must be in [1, {N}], got {d}")
    R = np.eye(N)[:, : int(d)]
    cols = [R]
    M = R
    for _ in range(N - 1):
        M = B @ M
        cols.append(M)
    K = np.hstack(cols)
    sv = np.linalg.svd(K, compute_uv=False)
    tol = RANK_RTOL * sv[0] if sv[0] > 0 else np.inf
    rank = int(np.count_nonzero(sv > tol))
    return rank == N, rank


def controllability_gramian_rank(B, d: int, horizon: float = 1.0, nodes: int = 64) -> int:
    """Rank of the finite-horizon controllability Gramian.

    Independent cross-check for :func:`kalman_rank`: the Gramian is
    W = int_0^horizon e^(uB) R R^T e^(uB^T) du = V^T V with V the stack of
    weighted rows sqrt(w_q) R^T e^(u_q B^T); ranking the factor V instead
    of W itself avoids squaring the condition number, which matters for
    long chains whose Gramian spectra span many orders of magnitude.
    Deliberately avoids the Kalman matrix-power construction.
    """
    B = _as_square(B)
    xi, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * horizon * (xi + 1.0)
    wu = 0.5 * horizon * w
    E = expm_stack(B, u)[:, :, : int(d)]  # (nodes, N, d)
    V = (np.sqrt(wu)[:, None, None] * E).transpose(0, 2, 1).reshape(-1, B.shape[0])
    sv = np.linalg.svd(V, compute_uv=False)
    tol = RANK_RTOL * sv[0] if sv[0] > 0 else np.inf
    return int(np.count_nonzero(sv > tol))


@dataclass(frozen=True, eq=False)
class DriftStructure:
    """Validated canonical drift matrix with its block decomposition.

    blocks = (d_0, ..., d_q) with d_0 = d; coordinate i in block j scales
    with weight 2j+1 under the intrinsic dilations.
    """

    N: int
    d: int
    B: np.ndarray
    blocks: tuple[int, ...]
    weights: np.ndarray = field(init=False, repr=False)
    cumulative: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.blocks[0] != self.d:
            raise StructuralError("first block must have size d")
        if any(b <= 0 for b in self.blocks):
            raise StructuralError("block sizes must be positive")
        if any(a < b for a, b in zip(self.blocks, self.blocks[1:])):
            raise StructuralError("block sizes must be non-increasing")
        if sum(self.blocks) != self.N:
            raise StructuralError("block sizes must sum to N")
        w = np.concatenate(
            [np.full(b, 2 * j + 1, dtype=float) for j, b in enumerate(self.blocks)]
        )
        cum = (0,) + tuple(np.cumsum(self.blocks).tolist())
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cumulative", cum)

    @property
    def Q(self) -> int:
        """Homogeneous dimension: sum over blocks of (2j+1) d_j."""
        return int(sum((2 * j + 1) * b for j, b in enumerate(self.blocks)))

    @property
    def drift_terms(self) -> tuple[tuple[int, int, float], ...]:
        """(i, j, B_ij) for every nonzero entry of B, in row-major order."""
        return tuple((int(i), int(j), float(self.B[i, j])) for i, j in zip(*np.nonzero(self.B)))


def block_structure(B, d: int) -> DriftStructure:
    """Extract and validate the canonical block decomposition of B.

    Requires: entries below the first sub-diagonal band vanish, sub-diagonal
    blocks have full row rank, block sizes are non-increasing, and the Kalman
    condition holds.
    """
    B = _as_square(B)
    N = B.shape[0]
    ok, rank = kalman_rank(B, d)
    if not ok:
        raise HormanderViolation(f"controllability rank {rank} < N = {N}")
    tol = ZERO_RTOL * max(1.0, float(np.abs(B).max()))
    blocks = [int(d)]
    prev_start, prev = 0, int(d)
    p = int(d)
    while p < N:
        sub = B[p:, prev_start : prev_start + prev]
        nz = np.where(np.any(np.abs(sub) > tol, axis=1))[0]
        if nz.size == 0:
            raise HormanderViolation(
                f"rows {p}.. are decoupled from block starting at {prev_start}"
            )
        d_next = int(nz.max()) + 1
        if d_next > prev:
            raise NotCanonicalForm(
                "sub-diagonal coupling extends past the admissible band "
                f"(would need block of size {d_next} after size {prev})"
            )
        blk = B[p : p + d_next, prev_start : prev_start + prev]
        sv = np.linalg.svd(blk, compute_uv=False)
        blk_rank = int(np.count_nonzero(sv > RANK_RTOL * sv[0])) if sv[0] > 0 else 0
        if blk_rank < d_next:
            raise HormanderViolation(
                f"sub-diagonal block at rows {p}:{p + d_next} has rank "
                f"{blk_rank} < {d_next}"
            )
        blocks.append(d_next)
        prev_start, prev = p, d_next
        p += d_next
    cum = np.concatenate([[0], np.cumsum(blocks)])
    for i in range(len(blocks)):
        for j in range(len(blocks)):
            if i > j + 1:
                patch = B[cum[i] : cum[i + 1], cum[j] : cum[j + 1]]
                if patch.size and np.abs(patch).max() > tol:
                    raise NotCanonicalForm(
                        f"nonzero entries below the sub-diagonal band at "
                        f"block ({i},{j})"
                    )
    return DriftStructure(N=N, d=int(d), B=B, blocks=tuple(blocks))


def expm_stack(B, times) -> np.ndarray:
    """e^(u B) for a stack of scalars u, shape (len(times), N, N).

    Scaling-and-squaring on a truncated exponential series; relative error
    is far below 1e-12 for the matrix sizes used here.  Every row is its own
    array slice, so equal times give equal but separately writable rows.
    The squaring count depends on the stack's largest |u|, so a row's bits
    depend on the stack it is in: merging separately made calls into one
    stack can move bits in the last place.
    """
    B = _as_square(B)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise StructuralError("times must be finite")
    N = B.shape[0]
    if times.size == 0:
        return np.zeros((0, N, N))
    bnorm = float(np.linalg.norm(B, 1))
    umax = float(np.abs(times).max())
    scale = bnorm * umax
    m = 0
    while scale > 0.5 and m < 60:
        scale *= 0.5
        m += 1
    u = times / (2.0**m)
    # Truncated series sum_k (u B)^k / k! with ||u B|| <= 1/2.
    n_terms = 18
    P = np.empty((n_terms, N, N))
    P[0] = np.eye(N)
    for k in range(1, n_terms):
        P[k] = P[k - 1] @ B
    coeffs = 1.0 / np.cumprod(np.concatenate([[1.0], np.arange(1, n_terms)]))
    U = u[:, None] ** np.arange(n_terms)[None, :]  # (M, n_terms)
    E = np.einsum("mk,k,kij->mij", U, coeffs, P)
    for _ in range(m):
        E = E @ E
    return E


def matrix_exp(B, t: float) -> np.ndarray:
    """e^(t B) for a single scalar t."""
    return expm_stack(B, [float(t)])[0]


def anisotropic_norm(x, S: DriftStructure):
    """Anisotropic quasi-norm |x|_B = sum_i |x_i|^(1/w_i), w_i = 2j+1.

    Accepts a single point (N,) or a stack (..., N); returns matching shape.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != S.N:
        raise StructuralError(f"point dimension {x.shape[-1]} != N = {S.N}")
    return np.sum(np.abs(x) ** (1.0 / S.weights), axis=-1)


def dilation(S: DriftStructure, lam: float, x):
    """Intrinsic dilation: coordinate i scales by lam^(2j+1)."""
    x = np.asarray(x, dtype=float)
    return x * lam**S.weights
