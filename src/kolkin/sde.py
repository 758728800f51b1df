"""Monte Carlo ground truth: the linear-drift diffusion and its
probabilistic representation of the terminal-value problem.

The process is dX = B X dt + E sigma(t, X) dW with E the injection of the
first d coordinates and sigma any matrix square root of a2 (the principal
PSD root here).  The candidate solution is estimated as

    u(t0, x0) = E[ exp(I_a0(T)) g(X_T) - int_t0^T exp(I_a0(tau)) f(tau, X_tau) dtau ],

with I_a0(tau) = int_t0^tau a0(r, X_r) dr; the a0 integral is accumulated by
the left-endpoint rule and the weighted f integral by the trapezoidal rule
along the simulated paths.

Randomness is counter-based in fixed blocks of BLOCK paths: block b of seed
s draws from the Philox stream keyed by (s, b), and reductions run in block
order, so a path's draw depends on the seed and its index alone.
Antithetic pairs (xi, -xi) fill the two halves of one block.

simulate_paths also takes a stack of P start points (the probe axis).  All
probes and all blocks advance as one state array, and each step's normals
are drawn once and shared across the probes: path i of every probe sees the
same noise, so probe p's paths equal those of a single-probe run from its
start point, bit for bit.

The state is held as N contiguous columns of shape (P, n).  The drift step
adds (X_j * B_ij) * dt for each nonzero entry B_ij of B, with every
increment read from the start-of-step state; for one nonzero per row this
is bit for bit the dense product (X @ B^T) * dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientField
from .errors import InvalidData
from .kernels import frozen_covariance
from .quadrature import keyed_rng
from .structure import DriftStructure, matrix_exp

SCHEMES = ("euler-maruyama", "exact-gaussian")
BLOCK = 1024  # paths per Philox stream


@dataclass(frozen=True)
class SdeConfig:
    """Simulation parameters for the Monte Carlo oracle."""

    n_paths: int = 100_000
    n_steps: int = 400
    scheme: str = "euler-maruyama"
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise InvalidData("n_paths and n_steps must be >= 1")
        if self.scheme not in SCHEMES:
            raise InvalidData(f"unknown scheme '{self.scheme}'; choose from {SCHEMES}")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    n_paths: int

    def interval(self, n_sigma: float = 3.0):
        h = n_sigma * self.std_error
        return (self.mean - h, self.mean + h)


@dataclass
class PathBundle:
    """Terminal states plus the path integrals needed by the representation.

    A bundle simulated from a stack of start points leads every array with
    the probe axis P.
    """

    terminal: np.ndarray  # ([P,] n, N)
    log_weight: np.ndarray  # ([P,] n) accumulated integral of a0
    source_integral: np.ndarray  # ([P,] n) accumulated weighted integral of f

    def probe(self, p: int) -> "PathBundle":
        """The paths of probe p of a stacked bundle."""
        return PathBundle(self.terminal[p], self.log_weight[p], self.source_integral[p])


def principal_sqrt_psd(mats: np.ndarray, t) -> np.ndarray:
    """Principal square root of a stack of PSD matrices sampled at times t.

    t broadcasts against the stack's leading axes.  A negative (or NaN)
    eigenvalue raises InvalidData naming the first offending time: a2 must be
    uniformly elliptic, so nothing is clipped.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-1] == 1:
        ev = mats[..., 0]
    else:
        ev, V = np.linalg.eigh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
    bad = ~np.all(ev >= 0.0, axis=-1)
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        t_bad = float(np.broadcast_to(np.asarray(t, dtype=float), bad.shape)[idx])
        raise InvalidData(
            f"a2 is not positive semi-definite at t = {t_bad}: eigenvalues {ev[idx]}"
        )
    if mats.shape[-1] == 1:
        return np.sqrt(mats)
    return np.einsum("...ik,...k,...jk->...ij", V, np.sqrt(ev), V)


def _block_sizes(n_paths: int, antithetic: bool) -> list:
    """Path counts of the consecutive blocks; antithetic runs round n_paths
    up to even, so every block splits into two halves."""
    n = n_paths + n_paths % 2 if antithetic else n_paths
    return [min(BLOCK, n - start) for start in range(0, n, BLOCK)]


def _normals(rng, m: int, dim: int, antithetic: bool) -> np.ndarray:
    """m standard normal rows; antithetic draws stack (xi, -xi)."""
    if not antithetic:
        return rng.standard_normal((m, dim))
    xi = rng.standard_normal((m // 2, dim))
    return np.concatenate([xi, -xi])


def _em_chunk(cf, S, t0, x0, T, n_steps, m, rng, antithetic, f):
    """Euler-Maruyama for the (P, N) start points x0 over the block
    generators rng, advancing m = P * n paths as one (N, P, n) array of
    contiguous coordinate columns.

    Each step draws every block's normals once, in block order, and adds
    them to all P copies of the block.  The drift adds (X_j * B_ij) * dt for
    each of S.drift_terms, all read from the start-of-step state before any
    is added.  a0, a1, a2 and f see the state as an (m, N) view.  Returns
    the (P, n, N) terminal states and the a0 and f path integrals with the
    probe axis leading.
    """
    P, N = x0.shape
    n = m // P
    sizes = _block_sizes(n, antithetic)
    d = S.d
    dt = (T - t0) / n_steps
    sdt = np.sqrt(dt)
    times = t0 + np.arange(n_steps + 1) * dt
    X = np.repeat(x0.T[:, :, None], n, axis=2)
    rows = X.reshape(N, m).T  # a view: callables see (m, N) rows
    Ia = np.zeros(m)
    If = np.zeros(m)
    terms = S.drift_terms

    def at(k):
        return np.broadcast_to(times[k], (m,))

    if not cf.space_dependent_a2:
        # a2 depends on time alone: one root per step, shared by every row
        sigs = principal_sqrt_psd(cf.a2(times[:-1], np.broadcast_to(x0[0], (n_steps, N))),
                                  times[:-1])
    if f is not None:
        fw = np.array(f(at(0), rows), dtype=float)
    for k in range(n_steps):
        tv = at(k)
        if cf.a0 is not None:
            Ia += np.asarray(cf.a0(tv, rows), dtype=float) * dt
        if cf.space_dependent_a2:
            sig = principal_sqrt_psd(cf.a2(tv, rows), times[k]).reshape(P, n, d, d)
        else:
            sig = sigs[k]
        xi = np.concatenate([_normals(r, b, d, antithetic) for r, b in zip(rng, sizes)])
        if cf.a1 is not None:
            a1_dt = np.asarray(cf.a1(tv, rows), dtype=float) * dt  # at the step's start
        drift = [(i, X[j] * b * dt) for i, j, b in terms]
        for i, inc in drift:
            X[i] += inc
        if cf.a1 is not None:
            rows[:, :d] += a1_dt
        noise = np.einsum("...ij,...j->...i", sig, xi)
        X[:d] += sdt * np.moveaxis(noise, -1, 0).reshape(d, -1, n)
        if f is not None:
            fw_next = np.array(f(at(k + 1), rows), dtype=float)  # a copy: summed into in place
            if cf.a0 is not None:
                fw_next *= np.exp(Ia)
            fw += fw_next
            fw *= 0.5
            fw *= dt
            If += fw
            fw = fw_next
    # a row-major copy: a datum's y @ c on the strided view moves last bits
    return np.ascontiguousarray(X.transpose(1, 2, 0)), Ia.reshape(P, n), If.reshape(P, n)


def simulate_paths(
    cf: CoefficientField,
    S: DriftStructure,
    cfg: SdeConfig,
    t0: float,
    x0,
    T: float,
    f=None,
) -> PathBundle:
    """Simulate terminal states with the configured scheme.

    x0 is one start point (N,) or a stack of them (P, N); a stack returns a
    bundle with the probe axis leading, and probe p's paths equal a
    single-probe call at x0[p] bit for bit.  Accumulates the a0 path
    integral (left-endpoint rule) and the weighted f path integral
    (trapezoidal rule) when the coefficient field, respectively the f
    argument, provides them.
    """
    if not T > t0:
        raise InvalidData(f"need T > t0, got ({t0}, {T})")
    x0 = np.asarray(x0, dtype=float)
    starts = np.atleast_2d(x0)
    sizes = _block_sizes(cfg.n_paths, cfg.antithetic)
    rngs = [keyed_rng(cfg.seed, b) for b in range(len(sizes))]
    if cfg.scheme == "exact-gaussian":
        if cf.constant_a2 is None or cf.a1 is not None or cf.a0 is not None:
            raise InvalidData("exact-gaussian sampling needs constant a2 with a1 = a0 = 0")
        if f is not None:
            raise InvalidData("exact-gaussian sampling cannot accumulate a source integral")
        flow = matrix_exp(S.B, T - t0)
        chol_t = frozen_covariance(cf, S, T, np.zeros(S.N), t0, T).chol.T
        noise = np.concatenate(
            [_normals(r, m, S.N, cfg.antithetic) @ chol_t for r, m in zip(rngs, sizes)]
        )
        X = np.stack([flow @ x + noise for x in starts])
        zeros = np.zeros(X.shape[:2])
        out = PathBundle(X, zeros, zeros.copy())
    else:
        m = starts.shape[0] * sum(sizes)
        out = PathBundle(*_em_chunk(cf, S, t0, starts, T, cfg.n_steps, m, rngs,
                                    cfg.antithetic, f))
    return out.probe(0) if x0.ndim == 1 else out


def feynman_kac_estimate(pb, cfg: SdeConfig, t0: float, x0) -> McEstimate:
    """Estimate u(t0, x0) for a terminal-value problem by simulation.

    pb supplies cf, S, T and the optional g / f callables.  Antithetic pairs
    are averaged before the variance estimate, so std_error reflects the
    paired samples.
    """
    return estimate_from_paths(pb, cfg, simulate_paths(pb.cf, pb.S, cfg, t0, x0, pb.T, f=pb.f))


def estimate_from_paths(pb, cfg: SdeConfig, bundle: PathBundle) -> McEstimate:
    """The Feynman-Kac estimate from paths simulate_paths drew with cfg."""
    vals = -bundle.source_integral
    if pb.g is not None:
        vals = vals + np.exp(bundle.log_weight) * np.asarray(
            pb.g(bundle.terminal), dtype=float
        )
    if cfg.antithetic:
        blocks = np.split(vals, np.cumsum(_block_sizes(cfg.n_paths, True))[:-1])
        vals = np.concatenate([0.5 * (v[: v.size // 2] + v[v.size // 2 :]) for v in blocks])
    n = vals.size
    mean = float(np.mean(vals))
    std_error = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return McEstimate(mean=mean, std_error=std_error, n_paths=n)


def terminal_to_csv(bundle: PathBundle, path: str) -> None:
    """Dump terminal states (one row per path) for external analysis."""
    header = ",".join(f"x{i + 1}" for i in range(bundle.terminal.shape[1]))
    np.savetxt(path, bundle.terminal, delimiter=",", header=header, comments="")
