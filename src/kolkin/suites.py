"""Named verification suites: configuration, exponent fits, staged checks.

A suite runs ordered stages (structure, kernel, potential, solver, blowup,
taylor); each stage appends check records to the report, any module error
inside a stage becomes a failed check rather than a crash, and a stage
failure gates all downstream stages.  Reports serialize deterministically
for a fixed configuration and seed.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .cauchy import SolverConfig, _represent, potential_source, solve_point
from .coefficients import CoefficientField, make_coefficients
from .errors import InvalidData, IoError, KolkinError
from .holder import SamplerSpec, taylor_remainder_check
from .kernels import (
    factor_covariance,
    frozen_covariance,
    parametrix_stack,
    reference_covariance,
    reference_gaussian_log_stack,
)
from .levi import LeviConfig, phi_eval
from .problems import CauchyProblem, make_datum, make_source
from .quadrature import gaussian_product, halton_box, keyed_rng, proposal_nodes
from .report import CheckRecord, VerificationReport, emit_report
from .sde import SdeConfig, estimate_from_paths, simulate_paths
from .structure import (
    DriftStructure,
    block_structure,
    controllability_gramian_rank,
    dilation,
    kalman_rank,
    matrix_exp,
)

DEFAULT_T_LADDER = (0.4, 0.2, 0.1, 0.05, 0.025)
EXPONENT_TOL = 0.15
UNRELIABLE_RESIDUAL = 0.3
NOISE_FLOOR = 1e-8  # boundary sups below this are quadrature noise: an exact datum
STRUCTURE_DRIFTS = 25  # random drifts in the Kalman-vs-Gramian rank cross-check
STAGES = ("structure", "kernel", "potential", "solver", "blowup", "taylor")

# Every preset starts from this problem and lists only what it changes.  The
# sine datum carries a phase so it is not odd around any probe: an odd datum
# at x1 = 0 lets antithetic pairing cancel the payoff exactly, collapsing the
# sampled std error to roundoff and making the solver-vs-oracle deviation
# test meaningless there.
_PRESET_BASE = dict(
    coefficients={"family": "constant", "sigma2": 1.0},
    datum={"family": "sine", "amplitude": 1.0, "axis": 0, "phase": 0.37},
    source=None,
    alpha=0.5,
)
_COORDINATE_SOURCE = {"family": "coordinate", "axis": 1}
_PRESETS = {
    "langevin-constant": {},
    "langevin-constant-source": dict(source=_COORDINATE_SOURCE),
    "langevin-sinusoidal": dict(
        coefficients={"family": "space-sinusoidal", "base": 1.0, "amplitude": 0.3},
        alpha=0.3,
    ),
    "langevin-piecewise": dict(
        coefficients={"family": "time-piecewise", "values": [1.0, 2.0], "breaks": [0.5]},
        source=_COORDINATE_SOURCE,
    ),
    "langevin-holder-beta1": dict(
        datum={"family": "abs", "axis": 0}, stages=("structure", "blowup")
    ),
}
SUITE_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class FitResult:
    """Least-squares exponent fit in log-log coordinates."""

    slope: float
    residual: float  # max absolute log-deviation from the fit
    n_points: int

    @property
    def unreliable(self) -> bool:
        return self.residual > UNRELIABLE_RESIDUAL


def fit_blowup_exponent(pairs) -> FitResult:
    """Fit value ~ C * gap^slope from (gap, value) pairs.

    Requires at least 4 pairs with positive gaps and values; the residual
    is the max absolute deviation of log(value) from the fitted line.
    """
    arr = np.asarray([(float(a), float(b)) for a, b in pairs], dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 4:
        raise InvalidData("exponent fit needs at least 4 (gap, value) pairs")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise InvalidData("exponent fit needs positive finite gaps and values")
    lg, lv = np.log(arr[:, 0]), np.log(arr[:, 1])
    slope, intercept = np.polyfit(lg, lv, 1)
    residual = float(np.max(np.abs(lv - (slope * lg + intercept))))
    return FitResult(slope=float(slope), residual=residual, n_points=arr.shape[0])


def kinetic_drift(d: int) -> np.ndarray:
    """Canonical two-block drift [[0, 0], [I_d, 0]] of size 2d."""
    B = np.zeros((2 * d, 2 * d))
    B[d:, :d] = np.eye(d)
    return B


def random_canonical_drift(rng: np.random.Generator, max_n: int = 6):
    """Random near-canonical drift for structure cross-checks.

    Returns (B, d).  Block sizes form a random non-increasing partition;
    sub-diagonal blocks are dense Gaussian, blocks on/above the diagonal
    are optionally filled, and with probability ~1/2 one sub-diagonal
    block is made rank-deficient so that both satisfying and violating
    drifts occur.  Violating drifts zero the on/above-diagonal blocks so
    the rank deficiency is exact (no borderline feedback paths whose
    near-zero singular values would sit at the rank threshold).
    """
    N = int(rng.integers(2, max_n + 1))
    d0 = int(rng.integers(1, N + 1))
    blocks = [d0]
    rem = N - d0
    while rem > 0:
        nxt = int(rng.integers(1, min(blocks[-1], rem) + 1))
        blocks.append(nxt)
        rem -= nxt
    cum = np.concatenate([[0], np.cumsum(blocks)])
    B = np.zeros((N, N))
    violate = len(blocks) > 1 and rng.random() < 0.5
    if not violate and rng.random() < 0.7:
        for i in range(len(blocks)):
            for j in range(i, len(blocks)):
                B[cum[i] : cum[i + 1], cum[j] : cum[j + 1]] = 0.5 * rng.standard_normal(
                    (blocks[i], blocks[j])
                )
    for j in range(1, len(blocks)):
        B[cum[j] : cum[j + 1], cum[j - 1] : cum[j]] = rng.standard_normal(
            (blocks[j], blocks[j - 1])
        )
    if violate:
        j = int(rng.integers(1, len(blocks)))
        blk = B[cum[j] : cum[j + 1], cum[j - 1] : cum[j]]
        if blk.shape[0] >= 2 and rng.random() < 0.5:
            blk[0] = blk[1]  # duplicated row: difference never reachable
        else:
            blk[0] = 0.0  # zeroed row: coordinate decoupled from the chain
    return B, d0


@dataclass
class SuiteConfig:
    """Complete description of one verification run.

    The time ladder lists gaps T - t, strictly decreasing (so the probe
    times increase toward the horizon), with at least 4 levels for any
    exponent fit.
    """

    suite: str = "langevin-constant"
    seed: int = 0
    d: int = 1
    drift: Optional[tuple] = None  # row-major B entries; default kinetic
    coefficients: dict = field(default_factory=lambda: {"family": "constant"})
    datum: Optional[dict] = field(
        default_factory=lambda: {"family": "sine", "amplitude": 1.0, "axis": 0}
    )
    source: Optional[dict] = None
    alpha: float = 0.5
    T: float = 1.0
    t_ladder: tuple = DEFAULT_T_LADDER
    probe_box: tuple = ((-0.8, 0.8), (-0.4, 0.4))
    n_probes: int = 10
    t_solve: float = 0.3
    stages: tuple = STAGES
    levi: LeviConfig = field(default_factory=LeviConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sde: SdeConfig = field(default_factory=lambda: SdeConfig(n_paths=100_000, n_steps=400))
    sampler: dict = field(default_factory=dict)
    out_dir: Optional[str] = None

    def __post_init__(self):
        gaps = np.asarray(self.t_ladder, dtype=float)
        if gaps.size < 4:
            raise InvalidData("time ladder needs at least 4 levels for exponent fits")
        if np.any(gaps <= 0) or np.any(np.diff(gaps) >= 0) or np.any(gaps >= self.T):
            raise InvalidData(
                "time ladder gaps must be strictly decreasing in (0, T)"
            )
        unknown = set(self.stages) - set(STAGES)
        if unknown:
            raise InvalidData(f"unknown stages {sorted(unknown)}; expected {STAGES}")
        if not 0 < self.t_solve < self.T:
            raise InvalidData("solver probe time must lie inside (0, T)")
        n = 2 * self.d if self.drift is None else math.isqrt(len(self.drift))
        if self.drift is not None and (n * n != len(self.drift) or n < self.d):
            raise InvalidData("bad value for key 'drift' in config section 'structure': "
                              f"{len(self.drift)} entries are not n * n with n >= d = {self.d}")
        if len(self.probe_box) != n:
            raise InvalidData("bad value for key 'probe_box' in config section 'grids': "
                              f"{len(self.probe_box)} rows, expected one per coordinate (N = {n})")
        try:
            self.sampler_spec()
        except TypeError as e:
            raise InvalidData(f"bad value in config section 'modules.sampler': {e}") from e

    # -- constructed objects -------------------------------------------------
    def drift_matrix(self) -> np.ndarray:
        if self.drift is None:
            return kinetic_drift(self.d)
        n = math.isqrt(len(self.drift))
        return np.asarray(self.drift, dtype=float).reshape(n, n)

    def structure(self) -> DriftStructure:
        return block_structure(self.drift_matrix(), self.d)

    def coefficient_field(self) -> CoefficientField:
        params = dict(self.coefficients)
        family = params.pop("family")
        return make_coefficients(family, d=self.d, T=self.T, **params)

    def problem(self) -> CauchyProblem:
        g = None
        if self.datum is not None:
            params = dict(self.datum)
            g = make_datum(params.pop("family"), **params)
        return CauchyProblem(
            cf=self.coefficient_field(),
            S=self.structure(),
            T=self.T,
            g=g,
            f=self.source_term(),
            alpha=self.alpha,
        )

    def source_term(self):
        """The configured source, or None; weighted-time defaults to T."""
        if self.source is None:
            return None
        params = dict(self.source)
        fam = params.pop("family")
        if fam == "weighted-time":
            params.setdefault("T", self.T)
        return make_source(fam, **params)

    def probes(self) -> np.ndarray:
        return halton_box(self.probe_box, self.n_probes)

    def sampler_spec(self) -> SamplerSpec:
        params = dict(self.sampler)
        params.setdefault("box", self.probe_box)
        params.setdefault("seed", self.seed)
        params.setdefault("n_base", 16)
        params.setdefault("n_directions", 4)
        # the time window is fixed, so a configured t_box is a TypeError
        return SamplerSpec(**params, t_box=(0.05 * self.T, 0.9 * self.T))

    # -- serialization: one _SCHEMA row per field ------------------------------
    def to_json(self) -> dict:
        obj = {}
        for section, key, name, dump, _ in _SCHEMA:
            (obj.setdefault(section, {}) if section else obj)[key] = dump(getattr(self, name))
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SuiteConfig":
        """Inverse of to_json; absent keys keep their defaults.  An unknown
        key or a bad value at any level raises InvalidData naming it."""
        _check_keys(obj, {s or k for s, k, *_ in _SCHEMA}, "top level")
        kw = {}
        for section, key, name, _, load in _SCHEMA:
            src = obj
            if section:
                src = obj.get(section, {})
                _check_keys(src, {k for s, k, *_ in _SCHEMA if s == section}, section)
            if key in src:
                try:
                    kw[name] = load(src[key])
                except InvalidData:
                    raise
                except (TypeError, ValueError) as e:
                    where = f"'{key}' in config section '{section or 'top level'}'"
                    raise InvalidData(f"bad value for key {where}: {e}") from e
        return cls(**kw)


def _check_keys(obj, allowed, section: str) -> None:
    if not isinstance(obj, dict):
        raise InvalidData(f"config section '{section}' must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InvalidData(f"unknown key '{unknown[0]}' in config section '{section}'; "
                          f"expected one of {sorted(allowed)}")


def _fields_of(cls, section: str, build=None):
    """Loader of a JSON object whose keys must be fields of cls."""

    def load(obj):
        _check_keys(obj, [f.name for f in fields(cls)], section)
        return (build or cls)(**obj)

    return load


def _solver(**kw) -> SolverConfig:
    if isinstance(kw.get("levi"), dict):
        kw["levi"] = _fields_of(LeviConfig, "modules.solver.levi")(kw["levi"])
    return SolverConfig(**kw)


def _same(v):
    return v


def _floats(v) -> tuple:
    return tuple(float(x) for x in v)


# (section, JSON key, field, dump, load); section None is the top level
_SCHEMA = (
    (None, "suite", "suite", _same, _same),
    (None, "seed", "seed", _same, int),
    ("structure", "d", "d", _same, int),
    ("structure", "drift", "drift",
     lambda B: None if B is None else [float(v) for v in np.asarray(B).reshape(-1)],
     lambda B: None if B is None else _floats(B)),
    ("problem", "coefficients", "coefficients", _same, _same),
    ("problem", "datum", "datum", _same, _same),
    ("problem", "source", "source", _same, _same),
    ("problem", "alpha", "alpha", _same, float),
    ("problem", "T", "T", _same, float),
    ("grids", "t_ladder", "t_ladder", list, _floats),
    ("grids", "probe_box", "probe_box",
     lambda box: [list(r) for r in box], lambda box: tuple(_floats(r) for r in box)),
    ("grids", "n_probes", "n_probes", _same, int),
    ("grids", "t_solve", "t_solve", _same, float),
    ("modules", "levi", "levi", asdict, _fields_of(LeviConfig, "modules.levi")),
    ("modules", "solver", "solver", asdict, _fields_of(SolverConfig, "modules.solver", _solver)),
    ("modules", "sde", "sde", asdict, _fields_of(SdeConfig, "modules.sde")),
    ("modules", "sampler", "sampler", _same, _fields_of(SamplerSpec, "modules.sampler", dict)),
    (None, "stages", "stages", list, tuple),
    (None, "out", "out_dir", _same, _same),
)


def load_suite_config(path) -> SuiteConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise IoError(f"cannot read config {p}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidData(f"config {p} is not valid JSON: {e}") from e
    return SuiteConfig.from_json(obj)


def named_suite(name: str, seed: int = 0, **overrides) -> SuiteConfig:
    """Preset suite configurations by name ("default" aliases the first)."""
    if name == "default":
        name = "langevin-constant"
    if name not in _PRESETS:
        raise InvalidData(f"unknown suite '{name}'; expected one of {SUITE_NAMES}")
    kw = copy.deepcopy({**_PRESET_BASE, **_PRESETS[name]})
    kw.update(overrides)
    return SuiteConfig(suite=name, seed=seed, **kw)


# --------------------------------------------------------------------------
# stage implementations
# --------------------------------------------------------------------------


def _add_check(report: VerificationReport, name: str, passed: bool, **values):
    """Append a check record; its stage is the prefix of its name."""
    report.add(CheckRecord(name=name, stage=name.split(".")[0], passed=passed, **values))


def structure_stage(cfg: SuiteConfig, report: VerificationReport):
    S = cfg.structure()  # raises on non-canonical / non-controllable drifts
    _add_check(
        report, "structure.canonical", True, value=float(S.N),
        note=f"blocks={S.blocks}, Q={S.Q}",
    )
    rng = keyed_rng(cfg.seed, 11)
    agree = 0
    for _ in range(STRUCTURE_DRIFTS):
        B, d0 = random_canonical_drift(rng)
        _, k_rank = kalman_rank(B, d0)
        g_rank = controllability_gramian_rank(B, d0)
        agree += int(k_rank == g_rank)
    _add_check(
        report, "structure.kalman-gramian-agreement", agree == STRUCTURE_DRIFTS,
        value=float(agree), target=float(STRUCTURE_DRIFTS), tolerance=0.0,
        note="algebraic rank vs integrated-Gramian rank on random drifts",
    )


def kernel_mass(cf, S, t: float, x, s: float, nodes: int = 24) -> float:
    """Integral of the frozen-coefficient kernel over its forward variable."""
    mean = matrix_exp(S.B, s - t) @ np.asarray(x, dtype=float)
    C = cf.mu * reference_covariance(S, [s - t])[0]
    pts, w = proposal_nodes(mean, factor_covariance(C).chol, nodes)
    vals = parametrix_stack(cf, S, t, x, s, pts[None])["value"][0]
    return float(np.sum(w * vals))


def chapman_kolmogorov_error(cf, S, t: float, x, s: float, tau: float, y, nodes: int = 12) -> float:
    """Relative error of the two-step composition against the direct kernel.

    Both sides are compared in log space, so kernels that underflow in
    double precision still give a finite error.
    """
    from scipy.special import logsumexp

    m1 = matrix_exp(S.B, s - t) @ np.asarray(x, dtype=float)
    C1 = frozen_covariance(cf, S, s, np.asarray(y, dtype=float), t, s).C
    back = matrix_exp(S.B, -(tau - s))
    m2 = back @ np.asarray(y, dtype=float)
    C2 = back @ frozen_covariance(cf, S, tau, np.asarray(y, dtype=float), s, tau).C @ back.T
    m, C = gaussian_product(m1, C1, m2, C2)
    pts, w = proposal_nodes(m, factor_covariance(C).chol, nodes)
    z1 = parametrix_stack(cf, S, t, x, s, pts[None])["log_abs"][0]
    z2 = parametrix_stack(cf, S, s, pts[None], tau, y)["log_abs"][0]
    log_composed = logsumexp(np.log(w) + z1 + z2)
    log_direct = parametrix_stack(cf, S, [t], [x], [tau], [y])["log_abs"][0]
    return abs(float(np.expm1(log_composed - log_direct)))


def gaussian_bound_constants(cf, S, gaps, x, spec: SamplerSpec) -> np.ndarray:
    """Fitted constants of the kernel bounds against the reference Gaussian.

    Returns shape (3, len(gaps)): per gap, the sup over probe offsets of
    |Z| / G, |grad Z| * gap^(1/2) / G and |hess Z| * gap / G with G the
    doubled-scale reference Gaussian.
    """
    x = np.asarray(x, dtype=float)
    rng = keyed_rng(spec.seed, 23)
    dirs = rng.standard_normal((spec.n_directions, S.N))
    radii = (0.25, 0.75, 1.5)
    out = np.zeros((3, len(gaps)))
    t = 0.0
    for gi, gap in enumerate(gaps):
        s = t + gap
        flow_x = matrix_exp(S.B, gap) @ x
        offs = [np.zeros(S.N)] + [
            dilation(S, r * np.sqrt(gap), v / np.linalg.norm(v)) for r in radii for v in dirs
        ]
        ys = flow_x + np.asarray(offs)
        ev = {k: v[0] for k, v in parametrix_stack(cf, S, t, x, s, ys[None], order=2).items()}
        ref = np.exp(reference_gaussian_log_stack(2.0 * cf.mu, S, t, x, s, ys[None])[0])
        out[0, gi] = np.max(np.abs(ev["value"]) / ref)
        out[1, gi] = np.max(
            np.max(np.abs(ev["grad_d"]), axis=(1,)) * np.sqrt(gap) / ref
        )
        out[2, gi] = np.max(np.max(np.abs(ev["hess_d"]), axis=(1, 2)) * gap / ref)
    return out


def phi_smallness_pairs(cf, S, cfg: LeviConfig, gaps, x, seed: int = 0) -> list:
    """(gap, sup |Phi| / G) pairs for the correction-kernel decay fit.

    Probes sit at dilated offsets from the drift flow of x, scaled with
    the kernel width sqrt(gap), so the reference Gaussian stays well away
    from underflow at every ladder level.
    """
    x = np.asarray(x, dtype=float)
    rng = keyed_rng(seed, 29)
    dirs = rng.standard_normal((2, S.N))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pairs = []
    for gap in gaps:
        t, s = 0.1, 0.1 + gap
        flow_x = matrix_exp(S.B, gap) @ x
        offs = [np.zeros(S.N)] + [dilation(S, r * np.sqrt(gap), v) for r in (0.7, 1.5) for v in dirs]
        sup = 0.0
        for off in offs:
            y = flow_x + off
            ev = phi_eval(cf, S, cfg, t, x, s, y)
            ref = np.exp(
                reference_gaussian_log_stack(2.0 * cf.mu, S, [t], [x], [s], [y])[0]
            )
            sup = max(sup, abs(ev.value) / ref)
        pairs.append((gap, sup))
    return pairs


def kernel_stage(cfg: SuiteConfig, report: VerificationReport):
    S = cfg.structure()
    cf = cfg.coefficient_field()
    rng = keyed_rng(cfg.seed, 13)
    box = np.asarray(cfg.probe_box, dtype=float)

    def rand_x():
        return box[:, 0] + rng.random(S.N) * (box[:, 1] - box[:, 0])

    # normalization
    tol = 1e-8 if not cf.space_dependent_a2 else 1e-4
    worst = 0.0
    for _ in range(10):
        t = 0.1 + 0.4 * rng.random() * cfg.T
        gap = (0.02 + 0.1 * rng.random()) * cfg.T
        worst = max(worst, abs(kernel_mass(cf, S, t, rand_x(), t + gap) - 1.0))
    _add_check(
        report, "kernel.mass", worst <= tol, value=worst, target=0.0, tolerance=tol,
        note="max |integral - 1| over 10 random (t, x, s)",
    )

    # two-step composition (exact semigroup property for frozen coefficients)
    if not cf.space_dependent_a2:
        worst_ck = 0.0
        for _ in range(10):
            t = 0.05 + 0.3 * rng.random()
            s = t + 0.05 + 0.2 * rng.random()
            tau = s + 0.05 + 0.2 * rng.random()
            worst_ck = max(
                worst_ck, chapman_kolmogorov_error(cf, S, t, rand_x(), s, tau, rand_x())
            )
        _add_check(
            report, "kernel.chapman-kolmogorov", worst_ck <= 1e-4, value=worst_ck, target=0.0,
            tolerance=1e-4, note="max relative composition error over 10 probe triples",
        )

    # derivative bounds: constants finite and stable across the gap ladder
    consts = gaussian_bound_constants(cf, S, cfg.t_ladder, rand_x(), cfg.sampler_spec())
    for order, label in enumerate(("value", "gradient", "hessian")):
        c = consts[order]
        ratio = float(np.max(c) / np.min(c)) if np.min(c) > 0 else float("inf")
        _add_check(
            report, f"kernel.bound-constant-{label}",
            bool(np.all(np.isfinite(c)) and ratio < 2.0), value=ratio, target=1.0,
            tolerance=1.0, note=f"max/min fitted constant across gaps = {ratio:.3f}",
        )

    # correction-kernel smallness (only meaningful with rough coefficients)
    if cf.space_dependent_a2:
        floor = cf.alpha_bar / 2.0 - 0.1
        _exponent_check(
            report, "kernel.correction-exponent",
            phi_smallness_pairs(cf, S, cfg.levi, cfg.t_ladder, rand_x(), seed=cfg.seed),
            target=cf.alpha_bar / 2.0, tolerance=0.1, floor=floor,
            note=lambda fit: f"one-sided: slope >= {floor:.4f}; residual {fit.residual:.3f}",
        )


def _exponent_check(report, name, pairs, target, note, tolerance=EXPONENT_TOL, floor=None):
    """Fit the (gap, value) ladder and record its slope against the target.

    The check is two-sided within tolerance, or one-sided (slope >= floor)
    when a floor is given; an unreliable fit fails either way.  note maps
    the fit to the record's note.
    """
    fit = fit_blowup_exponent(pairs)
    ok = fit.slope >= floor if floor is not None else abs(fit.slope - target) <= tolerance
    _add_check(
        report, name, ok and not fit.unreliable, value=fit.slope, target=target,
        tolerance=tolerance, note=note(fit),
    )


def _ladder_sups(T: float, gaps, probes, value) -> list:
    """(gap, max over probes x of value(T - gap, x)) for each ladder gap."""
    return [(gap, max(value(T - gap, x) for x in probes)) for gap in gaps]


def map_probes(fn, probes, threads: int = 1) -> list:
    """fn over the probe points, on `threads` worker threads when above 1."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, probes))
    return [fn(x) for x in probes]


def potential_stage(cfg: SuiteConfig, report: VerificationReport):
    f = cfg.source_term() or make_source("constant", value=1.0)
    pb = CauchyProblem(
        cf=cfg.coefficient_field(), S=cfg.structure(), T=cfg.T, g=None, f=f, alpha=cfg.alpha
    )
    _exponent_check(
        report, "potential.source-weight-exponent",
        source_weight_pairs(pb, cfg.solver, cfg.t_ladder, cfg.probes()),
        target=1.0 - pb.gamma,
        note=lambda fit: f"residual {fit.residual:.3f}" + (" UNRELIABLE" if fit.unreliable else ""),
    )


def solver_stage(cfg: SuiteConfig, report: VerificationReport, threads: int = 1):
    pb = cfg.problem()
    probes = cfg.probes()
    t0 = cfg.t_solve
    us = map_probes(lambda x: solve_point(pb, cfg.solver, t0, x).u, probes, threads)
    paths = simulate_paths(pb.cf, pb.S, cfg.sde, t0, probes, pb.T, f=pb.f)
    devs = []
    for p, u in enumerate(us):
        fk = estimate_from_paths(pb, cfg.sde, paths.probe(p))
        devs.append((u - fk.mean) / max(fk.std_error, 1e-12))
    worst = float(np.max(np.abs(devs)))
    _add_check(
        report, "solver.oracle-agreement", worst <= 3.0, value=worst, target=0.0, tolerance=3.0,
        note=f"max |solver - sampled| in standard errors over {len(probes)} probes",
    )


def hessian_blowup_pairs(pb: CauchyProblem, scfg: SolverConfig, gaps, probes) -> list:
    return _ladder_sups(
        pb.T, gaps, probes, lambda t, x: float(np.max(np.abs(solve_point(pb, scfg, t, x).hess_d)))
    )


def boundary_attainment_pairs(pb: CauchyProblem, scfg: SolverConfig, gaps, probes) -> list:
    """(gap, sup_x |u(T - gap, e^(gap B) x) - g(x)|): how fast the solution
    attains its datum along the drift flow; the rate is beta/2 for a datum
    of regularity beta."""

    def value(t, x):
        flow_x = matrix_exp(pb.S.B, pb.T - t) @ x
        return abs(_represent(pb, scfg, t, flow_x, order=0).value - pb.g(x)[0])

    return _ladder_sups(pb.T, gaps, probes, value)


def source_weight_pairs(pb: CauchyProblem, scfg: SolverConfig, gaps, probes) -> list:
    """(gap, sup_x |V_{p,f}(T - gap, x)|), the growth of the source potential."""
    return _ladder_sups(
        pb.T, gaps, probes, lambda t, x: abs(potential_source(pb, scfg, t, x).value)
    )


def blowup_probes(box) -> np.ndarray:
    """Probes straddling a first-coordinate kink plus far-field points.

    Kink-centered points catch blow-up concentrated where a datum loses
    regularity; far points carry the sup when it stays bounded and lives
    away from the kink.
    """
    box = np.asarray(box, dtype=float)
    N = box.shape[0]
    pts = [np.zeros(N)]
    for c in (0.3, -0.25):
        p = np.zeros(N)
        p[-1] = c
        pts.append(p)
    g = np.full(N, 0.2)
    g[0] = 0.1
    pts.append(g)
    for edge in (box[0, 1], box[0, 0]):
        p = np.zeros(N)
        p[0] = 0.85 * edge
        pts.append(p)
    return np.asarray(pts)


def blowup_stage(cfg: SuiteConfig, report: VerificationReport):
    pb = cfg.problem()
    probes = blowup_probes(cfg.probe_box)
    if pb.g is not None and pb.f is None:
        _exponent_check(
            report, "blowup.hessian-exponent",
            hessian_blowup_pairs(pb, cfg.solver, cfg.t_ladder, probes),
            target=-max(2.0 - pb.beta, 0.0) / 2.0,
            note=lambda fit: f"datum regularity beta={pb.beta}; residual {fit.residual:.3f}",
        )
    if pb.g is not None:
        pairs = boundary_attainment_pairs(pb, cfg.solver, cfg.t_ladder, probes)
        target = min(pb.beta, 2.0) / 2.0
        if max(sup for _, sup in pairs) < NOISE_FLOOR:
            _add_check(
                report, "blowup.boundary-exponent", True, value=None, target=target,
                note="boundary increments at quadrature noise floor (exact datum)",
            )
        else:
            # With a source, the datum and source parts both vanish at the
            # terminal time and their leading coefficients can interfere, so
            # the attainment can only be asserted one-sided (at least as
            # fast as the rate the datum regularity guarantees).
            note = "datum attainment rate along the drift flow"
            if pb.f is not None:
                note += " (one-sided: source term present)"
            _exponent_check(
                report, "blowup.boundary-exponent", pairs, target=target,
                floor=None if pb.f is None else target - EXPONENT_TOL, note=lambda fit: note,
            )
    if pb.f is not None and pb.g is None:
        _exponent_check(
            report, "blowup.source-weight-exponent",
            source_weight_pairs(pb, cfg.solver, cfg.t_ladder, cfg.probes()),
            target=1.0 - pb.gamma,
            note=lambda fit: f"source weight gamma={pb.gamma}; residual {fit.residual:.3f}",
        )


class ClosedFormSolution:
    """u(t, x) = x_2 + x_1 (T - t): kinetic solution with linear datum."""

    def __init__(self, T: float):
        self.T = float(T)

    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x[:, 1] + x[:, 0] * (self.T - t)

    def grad_d(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (self.T - t).reshape(-1, 1) * np.ones((len(x), 1))

    def hess_d(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.zeros((len(x), 1, 1))


class KinkFunction:
    """F(t, x) = |x_1|: time-independent negative control with a kink."""

    def __call__(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.abs(x[:, 0])

    def grad_d(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.sign(x[:, 0]).reshape(-1, 1)

    def hess_d(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.zeros((len(x), 1, 1))


def taylor_stage(cfg: SuiteConfig, report: VerificationReport):
    S = cfg.structure()
    spec = cfg.sampler_spec()
    alpha = min(cfg.alpha, 1.0)
    smooth = taylor_remainder_check(ClosedFormSolution(cfg.T), alpha, S, spec)
    _add_check(
        report, "taylor.bounded", smooth.bounded_factor < 2.0, value=smooth.bounded_factor,
        target=1.0, tolerance=1.0,
        note="ladder max / median of remainder quotients, closed-form solution",
    )
    kink = taylor_remainder_check(KinkFunction(), alpha, S, spec)
    growth = (
        float(kink.ratios[-1] / kink.ratios[0]) if kink.ratios[0] > 0 else float("inf")
    )
    _add_check(
        report, "taylor.kink-control", growth >= 10.0, value=growth, target=10.0,
        note="negative control: quotient growth across the ladder",
    )


_STAGE_FNS = {
    "structure": structure_stage,
    "kernel": kernel_stage,
    "potential": potential_stage,
    "solver": solver_stage,
    "blowup": blowup_stage,
    "taylor": taylor_stage,
}


def run_verification_suite(cfg: SuiteConfig, threads: int = 1) -> VerificationReport:
    """Run the configured stages in order with failure gating.

    A failed check (including a module error captured as one) skips all
    later stages; the report is emitted to cfg.out_dir when set.
    """
    report = VerificationReport(suite=cfg.suite, seed=cfg.seed, config=cfg.to_json())
    start = time.perf_counter()
    for stage in (s for s in STAGES if s in cfg.stages):
        before = len(report.checks)
        try:
            if stage == "solver":
                _STAGE_FNS[stage](cfg, report, threads=threads)
            else:
                _STAGE_FNS[stage](cfg, report)
        except (KolkinError, FloatingPointError, np.linalg.LinAlgError) as e:
            _add_check(
                report, f"{stage}.error", False, note=f"{type(e).__name__}: {e}",
            )
        if any(not c.passed for c in report.checks[before:]):
            break
    report.wall_time_s = time.perf_counter() - start
    if cfg.out_dir is not None:
        emit_report(report, cfg.out_dir)
    return report
