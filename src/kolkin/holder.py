"""Sampled estimation of anisotropic, weighted, Lie-directional, and
intrinsic Holder norms, plus the second-order intrinsic Taylor polynomial
and its remainder check.

All (semi)norms are sups over deterministic samples: low-discrepancy base
points inside a box, a geometric increment ladder with anisotropically
dilated directions, and flow-shifted time pairs.  Estimates are therefore
lower bounds of the true sups, non-decreasing under sample refinement
(unscrambled Halton prefixes are nested and levels only add pairs), and
reproducible given the seed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidData, MissingDerivative
from .quadrature import halton_box, keyed_rng
from .structure import DriftStructure, anisotropic_norm, dilation, expm_stack


@dataclass(frozen=True)
class SamplerSpec:
    """Deterministic sampling plan for norm estimation.

    box: (N, 2) array of per-coordinate bounds for the spatial domain.
    t_box: (lo, hi) time window for space-time estimators.
    n_base: number of low-discrepancy base points.
    n_directions: increment directions per base point.
    levels: dyadic scale ladder h_k = 2^-k, k = 0..levels-1.
    """

    box: tuple
    t_box: tuple = (1e-4, 1.0)
    n_base: int = 48
    n_directions: int = 6
    levels: int = 13
    seed: int = 0

    def __post_init__(self):
        if self.n_base < 1 or self.n_directions < 1 or self.levels < 1:
            raise InvalidData("sampler sizes must be >= 1")

    @property
    def box_array(self) -> np.ndarray:
        return np.asarray(self.box, dtype=float)

    def scales(self) -> np.ndarray:
        return 2.0 ** (-np.arange(self.levels, dtype=float))


@dataclass
class NormEstimate:
    """Sampled (semi)norm value with its provenance."""

    value: float
    n_pairs: int
    argmax_pair: tuple
    components: dict

    def to_json(self) -> dict:
        def clean(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return float(v)
            if isinstance(v, tuple):
                return [clean(u) for u in v]
            return v

        return {
            "value": float(self.value),
            "n_pairs": int(self.n_pairs),
            "argmax_pair": clean(self.argmax_pair),
            "components": {k: clean(v) for k, v in self.components.items()},
        }


def _base_points(spec: SamplerSpec, N: int) -> np.ndarray:
    """Nested low-discrepancy bases plus deterministic corner/kink probes."""
    box = spec.box_array
    if box.shape != (N, 2):
        raise InvalidData(f"sampler box must have shape ({N}, 2), got {box.shape}")
    lo, hi = box[:, 0], box[:, 1]
    pts = halton_box(box, spec.n_base)
    extras = [0.5 * (lo + hi)]
    if np.all((lo <= 0) & (hi >= 0)):
        extras.append(np.zeros(N))
    # first-coordinate kink probes: project a few bases onto {x_1 = 0}
    if lo[0] <= 0 <= hi[0]:
        proj = pts[: min(8, len(pts))].copy()
        proj[:, 0] = 0.0
        extras.extend(proj)
    return np.vstack([pts] + [np.atleast_2d(e) for e in extras])


def _directions(spec: SamplerSpec, S: DriftStructure, degenerate_only: bool) -> np.ndarray:
    rng = keyed_rng(spec.seed, 77)
    v = rng.standard_normal((spec.n_directions, S.N))
    if degenerate_only:
        v[:, : S.d] = 0.0
        if S.N == S.d:
            return np.zeros((0, S.N))
    # anisotropic normalization: dilating by 1/|v| gives unit anisotropic norm
    return np.stack([dilation(S, 1.0 / anisotropic_norm(u, S), u) for u in v])


def _increment_pairs(spec: SamplerSpec, S: DriftStructure, degenerate_only: bool):
    """Bases and the (x, y) pairs at positive distance with that distance:
    ladder-dilated directions plus all base-base pairs."""
    bases = _base_points(spec, S.N)
    dirs = _directions(spec, S, degenerate_only)
    deltas = np.array([dilation(S, hk, v) for hk in spec.scales() for v in dirs])
    px = np.tile(bases, (len(deltas), 1))
    py = (bases + deltas.reshape(-1, 1, S.N)).reshape(-1, S.N)
    if not degenerate_only:
        i, j = np.triu_indices(len(bases), k=1)
        px, py = np.vstack([px, bases[i]]), np.vstack([py, bases[j]])
    dist = anisotropic_norm(px - py, S)
    ok = dist > 0
    return bases, px[ok], py[ok], dist[ok]


class _Static:
    """g(y) as the time-independent F(t, y), carrying g's derivatives."""

    def __init__(self, g):
        self._g = g
        if getattr(g, "grad_d", None) is not None:
            self.grad_d = lambda t, y: g.grad_d(y)
        if getattr(g, "hess_d", None) is not None:
            self.hess_d = lambda t, y: g.hess_d(y)

    def __call__(self, t, y):
        return self._g(y)


class _Partial:
    """Gradient component i of F, with row i of F's Hessian as its gradient."""

    def __init__(self, F, i: int):
        self._grad = F.grad_d
        self._i = i
        hess = getattr(F, "hess_d", None)
        if hess is not None:
            self.grad_d = lambda t, y: np.asarray(hess(t, y))[:, i, :]

    def __call__(self, t, y):
        return np.asarray(self._grad(t, y))[:, self._i]


_SliceNorms = namedtuple("_SliceNorms", "value components argmax n_pairs grads")


def _slices(F, alpha: float, S: DriftStructure, spec: SamplerSpec, times: np.ndarray):
    """Anisotropic norm of every slice F(t, .) at the given times at once.

    Recursive in alpha: full-increment quotients up to order 1; above it,
    the gradient components at order alpha-1 plus degenerate-direction
    increment quotients at order alpha.  The bases and each side of the
    pairs are evaluated in one call of F each.  Returns the per-slice values
    and components, the per-slice argmax pairs as two (times, N) stacks
    (None without pairs), the number of pairs per slice and, above order 1,
    the same result for each gradient component.
    """
    if not 0.0 < alpha <= 3.0:
        raise InvalidData(f"order must be in (0, 3], got {alpha}")
    grads = []
    if alpha > 1.0:
        if getattr(F, "grad_d", None) is None:
            raise MissingDerivative(f"order {alpha} requires an analytic gradient in x_1..x_d")
        grads = [_slices(_Partial(F, i), alpha - 1.0, S, spec, times) for i in range(S.d)]
    bases, px, py, dist = _increment_pairs(spec, S, degenerate_only=alpha > 1.0)
    comps = {"sup": np.max(np.abs(_rows(F, times, bases)), axis=1)}
    if grads:
        comps["gradient"] = np.max([g.value for g in grads], axis=0)
    semi, arg = np.zeros(len(times)), None
    if len(px):
        quot = np.abs(_rows(F, times, px) - _rows(F, times, py)) / dist**alpha
        k = np.argmax(quot, axis=1)
        semi = quot[np.arange(len(times)), k]
        arg = (px[k], py[k])
    comps["increment"] = semi
    n_pairs = sum(g.n_pairs for g in grads) + len(px)
    return _SliceNorms(sum(comps.values()), comps, arg, n_pairs, grads)


def anisotropic_norm_est(g, alpha: float, S: DriftStructure, spec: SamplerSpec) -> NormEstimate:
    """Sampled anisotropic Holder norm of a spatial function: the slice
    engine on g lifted to a time-independent F, at one slice."""
    sl = _slices(_Static(g), alpha, S, spec, np.zeros(1))
    return NormEstimate(
        value=float(sl.value[0]),
        n_pairs=sl.n_pairs,
        argmax_pair=(None, None) if sl.argmax is None else (sl.argmax[0][0], sl.argmax[1][0]),
        components={k: float(v[0]) for k, v in sl.components.items()},
    )


def _time_bases(spec: SamplerSpec) -> np.ndarray:
    lo, hi = spec.t_box
    if not hi > lo:
        raise InvalidData(f"empty time window {spec.t_box}")
    ts = halton_box([(lo, hi)], spec.n_base)[:, 0]
    return np.concatenate([[lo, 0.5 * (lo + hi), hi], ts])


def _eval_st(F: Callable, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    vals = np.asarray(F(t, x), dtype=float)
    if vals.shape != (t.shape[0],):
        raise InvalidData("space-time function must map stacks to (M,) values")
    return vals


def _rows(F: Callable, times: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """F at every (time, point) row, shaped (len(times), len(pts))."""
    vals = _eval_st(F, np.repeat(times, len(pts)), np.tile(pts, (len(times), 1)))
    return vals.reshape(len(times), len(pts))


def lie_seminorm_est(F, alpha: float, S: DriftStructure, spec: SamplerSpec) -> NormEstimate:
    """Sampled sup of the flow-increment quotient along the drift.

    Compares F(s, e^((s-tau)B) x) with F(tau, x) over a time-gap ladder at
    every sampled (tau, x), both orderings of s and tau.  Every (tau, s)
    pair inside the time window is formed at once, in ladder order, and the
    first maximal quotient is reported.
    """
    if not 0.0 < alpha <= 2.0:
        raise InvalidData(f"Lie order must be in (0, 2], got {alpha}")
    lo, hi = spec.t_box
    x = _base_points(spec, S.N)
    bases_t = _time_bases(spec)
    hk = spec.scales()
    s_all = bases_t + np.stack([hk, -hk], axis=1)[:, :, None]  # (level, sign, tau)
    ok = (s_all >= lo) & (s_all <= hi)
    taus, ss = np.broadcast_to(bases_t, s_all.shape)[ok], s_all[ok]
    xf = x @ expm_stack(S.B, ss - taus).transpose(0, 2, 1)  # (pair, point, N)
    after = _eval_st(F, np.repeat(ss, len(x)), xf.reshape(-1, S.N)).reshape(xf.shape[:2])
    # scalar pow, element by element, as in taylor_remainder_check; the
    # flows come from one stack, so on a drift that is not nilpotent a
    # quotient can still move in the last bit with the sampling plan
    gap = np.asarray([g ** (0.5 * alpha) for g in np.abs(ss - taus).tolist()])
    quot = np.abs(after - _rows(F, taus, x)) / gap[:, None]
    best, arg = 0.0, (None, None)
    if quot.size:
        k, i = np.unravel_index(np.argmax(quot), quot.shape)
        if quot[k, i] > 0:
            best = float(quot[k, i])
            arg = ((taus[k], x[i].copy()), (ss[k], xf[k, i].copy()))
    return NormEstimate(
        value=best, n_pairs=quot.size, argmax_pair=arg, components={"flow": best}
    )


def sliced_anisotropic_sup(
    F, alpha: float, S: DriftStructure, spec: SamplerSpec, weight=None
) -> NormEstimate:
    """sup over sampled time slices of (optional weight) * ||F(s,.)||_anis."""
    times = _time_bases(spec)
    return _slice_sup(_slices(F, alpha, S, spec, times), times, weight)


def _slice_sup(sl: _SliceNorms, times: np.ndarray, weight=None) -> NormEstimate:
    value = sl.value
    if weight is not None:
        value = np.asarray([float(weight(s)) for s in times]) * value
    best, at = 0.0, (None, None)
    j = int(np.argmax(value))
    if value[j] > 0:
        best = float(value[j])
        at = (times[j], (None, None) if sl.argmax is None else (sl.argmax[0][j], sl.argmax[1][j]))
    return NormEstimate(
        value=best, n_pairs=len(times) * sl.n_pairs, argmax_pair=at, components={"sliced": best}
    )


def intrinsic_norm_est(
    F, alpha: float, S: DriftStructure, spec: SamplerSpec, Yf: Optional[Callable] = None
) -> NormEstimate:
    """Sampled intrinsic Holder norm of a space-time function.

    Branches: up to order 1 the sliced anisotropic norm plus the flow
    quotient; in (1, 2] the gradient recursion replaces nothing but adds its
    own intrinsic norm; in (2, 3] the flow quotient gives way to the sliced
    anisotropic norm of the Lie derivative Yf, which must be supplied.
    """
    times = _time_bases(spec)
    return _intrinsic(F, alpha, S, spec, Yf, times, _slices(F, alpha, S, spec, times))


def _intrinsic(F, alpha, S, spec, Yf, times, sl: _SliceNorms) -> NormEstimate:
    """intrinsic_norm_est from F's slice norms sl, reusing the gradient ones sl holds."""
    sliced = _slice_sup(sl, times)
    parts = [("sliced", sliced.value, sliced.n_pairs)]
    if alpha > 1.0:
        sub = [
            _intrinsic(_Partial(F, i), alpha - 1.0, S, spec, None, times, g)
            for i, g in enumerate(sl.grads)
        ]
        parts.append(("gradient", max(e.value for e in sub), sum(e.n_pairs for e in sub)))
    if alpha <= 2.0:
        name, est = "flow", lie_seminorm_est(F, alpha, S, spec)
    elif Yf is None:
        raise MissingDerivative("intrinsic order > 2 requires the Lie derivative Yf")
    else:
        name, est = "drift", sliced_anisotropic_sup(Yf, alpha - 2.0, S, spec)
    parts.append((name, est.value, est.n_pairs))
    comps = {k: v for k, v, _ in parts}
    n_pairs = sum(n for *_, n in parts)
    return NormEstimate(sum(comps.values()), n_pairs, sliced.argmax_pair, comps)


def weighted_sup_norm(
    F, gamma: float, alpha: float, T: float, S: DriftStructure, spec: SamplerSpec
) -> float:
    """sup over sampled slices of (T - s)^gamma * ||F(s,.)||_anis."""
    if not 0.0 <= gamma < 1.0:
        raise InvalidData(f"weight exponent must be in [0,1), got {gamma}")
    est = sliced_anisotropic_sup(F, alpha, S, spec, weight=lambda s: (T - s) ** gamma)
    return est.value


def _taylor_t2_stack(F, s, y, z) -> np.ndarray:
    """Second-order intrinsic Taylor polynomials at the points (s_k, y_k),
    each evaluated on its offset z_k.

    T2 = F + sum_{i<=d} z_i dF_i + 1/2 sum_{i,j<=d} z_i z_j ddF_ij, with the
    derivative range set by the width of F's gradient.
    """
    grad = np.asarray(F.grad_d(s, y))
    hess = np.asarray(F.hess_d(s, y))
    zd = z[:, : grad.shape[1]]
    return (
        _eval_st(F, s, y)
        + np.einsum("ki,ki->k", grad, zd)
        + 0.5 * np.einsum("ki,kij,kj->k", zd, hess, zd)
    )


@dataclass
class TaylorCheck:
    """Remainder-quotient ladder for the intrinsic Taylor formula."""

    scales: np.ndarray
    ratios: np.ndarray  # cumulative sup per ladder level
    exponent: float
    bounded_factor: float  # max over ladder / median


def taylor_remainder_check(F, alpha: float, S: DriftStructure, spec: SamplerSpec) -> TaylorCheck:
    """Ladder of remainder quotients |F - T2| / (|tau - s| + |offset|^(2+alpha)).

    Per level the sup is cumulative over all coarser-or-equal scales (the
    running max from h = 1 downward), so the ladder is monotone by
    construction; a bounded ladder certifies the Taylor formula at the
    sampled points, a diverging one flags a function outside the class.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidData(f"Taylor check order must be in (0, 1], got {alpha}")
    bases_x = _base_points(spec, S.N)
    bases_t = _time_bases(spec)
    m = min(len(bases_x), len(bases_t))
    lo, hi = spec.t_box
    dirs = _directions(spec, S, degenerate_only=False)
    # each base point once per sign of the time step, then once per direction
    s = np.tile(bases_t[:m], 2)
    y = np.tile(bases_x[:m], (2, 1))
    sgn_t = np.repeat([1.0, -1.0], m)
    n = len(dirs)
    s_all, y_all = np.tile(s, n), np.tile(y, (n, 1))
    scales = spec.scales()
    level_sup = np.zeros(len(scales))
    for k, hk in enumerate(scales):
        tau = np.clip(s + sgn_t * hk * hk, lo, hi)
        flow_y = (expm_stack(S.B, tau - s) @ y[:, :, None])[:, :, 0]
        x = flow_y + dilation(S, hk, dirs)[:, None, :]  # (direction, sign x base, N)
        z = (x - flow_y).reshape(-1, S.N)
        tau_all = np.tile(tau, n)
        # scalar pow, element by element: numpy's SIMD array power can differ
        # from it in the last bit, and the quotients should not depend on
        # how the sample points are batched
        offset = [r ** (2.0 + alpha) for r in anisotropic_norm(z, S).tolist()]
        denom = np.abs(tau_all - s_all) + np.asarray(offset)
        rem = np.abs(
            _eval_st(F, tau_all, x.reshape(-1, S.N)) - _taylor_t2_stack(F, s_all, y_all, z)
        )
        ok = denom != 0
        level_sup[k] = np.max(rem[ok] / denom[ok], initial=0.0)
    ratios = np.maximum.accumulate(level_sup)
    pos = ratios > 0
    if pos.sum() >= 2:
        exponent = float(
            np.polyfit(np.log(scales[pos]), np.log(ratios[pos]), 1)[0]
        )
    else:
        exponent = 0.0
    med = float(np.median(ratios[pos])) if pos.any() else 0.0
    factor = float(ratios.max() / med) if med > 0 else float("inf") if ratios.max() > 0 else 1.0
    return TaylorCheck(
        scales=scales, ratios=ratios, exponent=exponent, bounded_factor=factor
    )
