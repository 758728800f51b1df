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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidData, MissingDerivative
from .quadrature import halton_box, keyed_rng
from .structure import DriftStructure, anisotropic_norm, dilation, expm_stack, matrix_exp


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


def _eval(g: Callable, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(g(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise InvalidData("function must map (M, N) points to (M,) values")
    return vals


def _increment_sup(g, alpha: float, S: DriftStructure, px, py):
    """sup of |g(x) - g(y)| / |x - y|_B^alpha over the sampled pairs.

    Returns (sup, argmax pair, number of pairs at positive distance).
    """
    dist = anisotropic_norm(px - py, S)
    ok = dist > 0
    if not ok.any():
        return 0.0, (None, None), 0
    quot = np.abs(_eval(g, px) - _eval(g, py))[ok] / dist[ok] ** alpha
    k = int(np.argmax(quot))
    return float(quot[k]), (px[ok][k], py[ok][k]), int(ok.sum())


def _increment_pairs(spec: SamplerSpec, S: DriftStructure, degenerate_only: bool):
    """(x, y) pairs: ladder-dilated directions plus all base-base pairs."""
    bases = _base_points(spec, S.N)
    dirs = _directions(spec, S, degenerate_only)
    pair_x = []
    pair_y = []
    for hk in spec.scales():
        for v in dirs:
            delta = dilation(S, hk, v)
            pair_x.append(bases)
            pair_y.append(bases + delta)
    if not degenerate_only:
        i, j = np.triu_indices(len(bases), k=1)
        pair_x.append(bases[i])
        pair_y.append(bases[j])
    if not pair_x:
        return bases, np.zeros((0, S.N)), np.zeros((0, S.N))
    return bases, np.vstack(pair_x), np.vstack(pair_y)


def _grad_callable(g, what: str):
    fn = getattr(g, "grad_d", None)
    if fn is None:
        raise MissingDerivative(f"{what} requires an analytic gradient in x_1..x_d")
    return fn


class _Component:
    """Scalar view of one gradient component, carrying its own derivatives."""

    def __init__(self, grad_fn, idx, hess_fn=None):
        self._g = grad_fn
        self._h = hess_fn
        self._i = idx
        if hess_fn is not None:
            self.grad_d = lambda y: np.asarray(hess_fn(y))[:, self._i, :]

    def __call__(self, y):
        return np.asarray(self._g(y))[:, self._i]


def anisotropic_norm_est(g, alpha: float, S: DriftStructure, spec: SamplerSpec) -> NormEstimate:
    """Sampled anisotropic Holder norm of a spatial function.

    Recursive in alpha: full-increment quotients up to order 1; above it,
    the gradient components at order alpha-1 plus degenerate-direction
    increment quotients at order alpha.
    """
    if not 0.0 < alpha <= 3.0:
        raise InvalidData(f"order must be in (0, 3], got {alpha}")
    if alpha <= 1.0:
        bases, px, py = _increment_pairs(spec, S, degenerate_only=False)
        sup = float(np.max(np.abs(_eval(g, bases))))
        semi, arg, n_pairs = _increment_sup(g, alpha, S, px, py)
        return NormEstimate(
            value=sup + semi,
            n_pairs=n_pairs,
            argmax_pair=arg,
            components={"sup": sup, "increment": semi},
        )
    grad_fn = _grad_callable(g, f"order {alpha} estimation")
    hess_fn = getattr(g, "hess_d", None)
    sub = [
        anisotropic_norm_est(
            _Component(grad_fn, i, hess_fn if alpha - 1.0 > 1.0 else None),
            alpha - 1.0,
            S,
            spec,
        )
        for i in range(S.d)
    ]
    grad_part = max(e.value for e in sub)
    bases, px, py = _increment_pairs(spec, S, degenerate_only=True)
    sup = float(np.max(np.abs(_eval(g, bases))))
    semi, arg, n_pairs = _increment_sup(g, alpha, S, px, py)
    return NormEstimate(
        value=sup + grad_part + semi,
        n_pairs=n_pairs + sum(e.n_pairs for e in sub),
        argmax_pair=arg,
        components={"sup": sup, "gradient": grad_part, "increment": semi},
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


def lie_seminorm_est(F, alpha: float, S: DriftStructure, spec: SamplerSpec) -> NormEstimate:
    """Sampled sup of the flow-increment quotient along the drift.

    Compares F(s, e^((s-tau)B) x) with F(tau, x) over a time-gap ladder at
    every sampled (tau, x), both orderings of s and tau.
    """
    if not 0.0 < alpha <= 2.0:
        raise InvalidData(f"Lie order must be in (0, 2], got {alpha}")
    lo, hi = spec.t_box
    bases_x = _base_points(spec, S.N)
    bases_t = _time_bases(spec)
    n_pairs = 0
    best, arg = 0.0, (None, None)
    for hk in spec.scales():
        for sgn in (+1.0, -1.0):
            s_all = bases_t + sgn * hk
            ok = (s_all > lo - 1e-300) & (s_all <= hi) & (s_all >= lo)
            taus = bases_t[ok]
            ss = s_all[ok]
            if taus.size == 0:
                continue
            flows = [matrix_exp(S.B, s - tau) for tau, s in zip(taus, ss)]
            for tau, s, fl in zip(taus, ss, flows):
                xf = bases_x @ fl.T
                tv = np.full(len(bases_x), tau)
                sv = np.full(len(bases_x), s)
                quot = np.abs(_eval_st(F, sv, xf) - _eval_st(F, tv, bases_x)) / abs(
                    s - tau
                ) ** (0.5 * alpha)
                n_pairs += len(quot)
                k = int(np.argmax(quot))
                if quot[k] > best:
                    best = float(quot[k])
                    arg = ((tau, bases_x[k].copy()), (s, xf[k].copy()))
    return NormEstimate(
        value=best, n_pairs=n_pairs, argmax_pair=arg, components={"flow": best}
    )


def sliced_anisotropic_sup(
    F, alpha: float, S: DriftStructure, spec: SamplerSpec, weight=None
) -> NormEstimate:
    """sup over sampled time slices of (optional weight) * ||F(s,.)||_anis."""
    best, arg, n_pairs = 0.0, (None, None), 0
    for s in _time_bases(spec):
        g = _Slice(F, s)
        est = anisotropic_norm_est(g, alpha, S, spec)
        w = 1.0 if weight is None else float(weight(s))
        n_pairs += est.n_pairs
        if w * est.value > best:
            best = w * est.value
            arg = (s, est.argmax_pair)
    return NormEstimate(
        value=best, n_pairs=n_pairs, argmax_pair=arg, components={"sliced": best}
    )


class _Slice:
    """Freeze the time argument of a space-time function."""

    def __init__(self, F, s: float):
        self._F = F
        self._s = float(s)
        gfn = getattr(F, "grad_d", None)
        if gfn is not None:
            self.grad_d = lambda y: np.asarray(gfn(np.full(len(y), self._s), y))
        hfn = getattr(F, "hess_d", None)
        if hfn is not None:
            self.hess_d = lambda y: np.asarray(hfn(np.full(len(y), self._s), y))

    def __call__(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return _eval_st(self._F, np.full(len(y), self._s), y)


class _GradComponent:
    """Scalar view of one space-time gradient component."""

    def __init__(self, F, idx):
        self._F = F
        self._i = idx
        gfn = getattr(F, "grad_d", None)
        self._gfn = gfn
        hfn = getattr(F, "hess_d", None)
        if hfn is not None:
            self.grad_d = lambda t, y: np.asarray(hfn(t, y))[:, self._i, :]

    def __call__(self, t, y):
        return np.asarray(self._gfn(t, y))[:, self._i]


def intrinsic_norm_est(
    F,
    alpha: float,
    S: DriftStructure,
    spec: SamplerSpec,
    Yf: Optional[Callable] = None,
) -> NormEstimate:
    """Sampled intrinsic Holder norm of a space-time function.

    Branches: up to order 1 the sliced anisotropic norm plus the flow
    quotient; in (1, 2] the gradient recursion replaces nothing but adds its
    own intrinsic norm; in (2, 3] the flow quotient gives way to the sliced
    anisotropic norm of the Lie derivative Yf, which must be supplied.
    """
    if not 0.0 < alpha <= 3.0:
        raise InvalidData(f"order must be in (0, 3], got {alpha}")
    sliced = sliced_anisotropic_sup(F, alpha, S, spec)
    comps = {"sliced": sliced.value}
    total = sliced.value
    n_pairs = sliced.n_pairs
    arg = sliced.argmax_pair
    if alpha > 1.0:
        if getattr(F, "grad_d", None) is None:
            raise MissingDerivative("intrinsic order > 1 requires grad_d")
        sub = [
            intrinsic_norm_est(_GradComponent(F, i), alpha - 1.0, S, spec, Yf=None)
            for i in range(S.d)
        ]
        gpart = max(e.value for e in sub)
        comps["gradient"] = gpart
        total += gpart
        n_pairs += sum(e.n_pairs for e in sub)
    if alpha <= 2.0:
        lie = lie_seminorm_est(F, alpha, S, spec)
        comps["flow"] = lie.value
        total += lie.value
        n_pairs += lie.n_pairs
    else:
        if Yf is None:
            raise MissingDerivative("intrinsic order > 2 requires the Lie derivative Yf")
        drift = sliced_anisotropic_sup(Yf, alpha - 2.0, S, spec)
        comps["drift"] = drift.value
        total += drift.value
        n_pairs += drift.n_pairs
    return NormEstimate(value=total, n_pairs=n_pairs, argmax_pair=arg, components=comps)


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
