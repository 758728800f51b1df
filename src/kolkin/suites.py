"""Named verification suites: configuration, exponent fits, staged checks.

A suite runs ordered stages (structure, kernel, potential, solver, blowup,
taylor); each stage appends check records to the report, any module error
inside a stage becomes a failed check rather than a crash, and a stage
failure gates all downstream stages.  Reports serialize deterministically
for a fixed configuration and seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .cauchy import SolverConfig, boundary_regY_check, potential_source, solve_point
from .coefficients import CoefficientField, make_coefficients
from .errors import InvalidData, IoError, KolkinError
from .holder import SamplerSpec, taylor_remainder_check
from .kernels import (
    frozen_covariance,
    parametrix_stack,
    reference_covariance,
    reference_gaussian_log_stack,
)
from .levi import LeviConfig, phi_eval
from .problems import CauchyProblem, make_datum, make_source
from .quadrature import gaussian_product, proposal_nodes
from .report import CheckRecord, VerificationReport, emit_report
from .sde import SdeConfig, feynman_kac_estimate
from .structure import (
    DriftStructure,
    block_structure,
    controllability_gramian_rank,
    kalman_rank,
)

DEFAULT_T_LADDER = (0.4, 0.2, 0.1, 0.05, 0.025)
EXPONENT_TOL = 0.15
UNRELIABLE_RESIDUAL = 0.3
STAGES = ("structure", "kernel", "potential", "solver", "blowup", "taylor")
SUITE_NAMES = (
    "langevin-constant",
    "langevin-constant-source",
    "langevin-sinusoidal",
    "langevin-piecewise",
    "langevin-holder-beta1",
)


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

    # -- constructed objects -------------------------------------------------
    def drift_matrix(self) -> np.ndarray:
        if self.drift is None:
            return kinetic_drift(self.d)
        B = np.asarray(self.drift, dtype=float)
        n = int(round(np.sqrt(B.size)))
        return B.reshape(n, n)

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
        from scipy.stats import qmc

        box = np.asarray(self.probe_box, dtype=float)
        h = qmc.Halton(d=box.shape[0], scramble=False)
        pts = box[:, 0] + h.random(self.n_probes) * (box[:, 1] - box[:, 0])
        return pts

    def sampler_spec(self) -> SamplerSpec:
        params = dict(self.sampler)
        params.setdefault("box", self.probe_box)
        params.setdefault("seed", self.seed)
        params.setdefault("n_base", 16)
        params.setdefault("n_directions", 4)
        return SamplerSpec(**params)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        def dc(obj):
            return {f.name: getattr(obj, f.name) for f in fields(obj)}

        return {
            "suite": self.suite,
            "seed": self.seed,
            "structure": {
                "d": self.d,
                "drift": None
                if self.drift is None
                else [float(v) for v in np.asarray(self.drift).reshape(-1)],
            },
            "problem": {
                "coefficients": self.coefficients,
                "datum": self.datum,
                "source": self.source,
                "alpha": self.alpha,
                "T": self.T,
            },
            "grids": {
                "t_ladder": list(self.t_ladder),
                "probe_box": [list(r) for r in self.probe_box],
                "n_probes": self.n_probes,
                "t_solve": self.t_solve,
            },
            "modules": {
                "levi": dc(self.levi),
                "solver": {
                    k: (v if k != "levi" else dc(v)) for k, v in dc(self.solver).items()
                },
                "sde": dc(self.sde),
                "sampler": self.sampler,
            },
            "stages": list(self.stages),
            "out": self.out_dir,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SuiteConfig":
        prob = obj.get("problem", {})
        grids = obj.get("grids", {})
        mods = obj.get("modules", {})
        struct = obj.get("structure", {})
        kw = {}
        if "suite" in obj:
            kw["suite"] = obj["suite"]
        if "seed" in obj:
            kw["seed"] = int(obj["seed"])
        if "d" in struct:
            kw["d"] = int(struct["d"])
        if struct.get("drift") is not None:
            kw["drift"] = tuple(float(v) for v in struct["drift"])
        for k in ("coefficients", "datum", "source"):
            if k in prob:
                kw[k] = prob[k]
        for src, dst in (("alpha", "alpha"), ("T", "T")):
            if src in prob:
                kw[dst] = float(prob[src])
        if "t_ladder" in grids:
            kw["t_ladder"] = tuple(float(v) for v in grids["t_ladder"])
        if "probe_box" in grids:
            kw["probe_box"] = tuple(tuple(float(v) for v in r) for r in grids["probe_box"])
        if "n_probes" in grids:
            kw["n_probes"] = int(grids["n_probes"])
        if "t_solve" in grids:
            kw["t_solve"] = float(grids["t_solve"])
        if "levi" in mods:
            kw["levi"] = LeviConfig(**mods["levi"])
        if "solver" in mods:
            sv = dict(mods["solver"])
            if "levi" in sv and isinstance(sv["levi"], dict):
                sv["levi"] = LeviConfig(**sv["levi"])
            kw["solver"] = SolverConfig(**sv)
        if "sde" in mods:
            kw["sde"] = SdeConfig(**mods["sde"])
        if "sampler" in mods:
            kw["sampler"] = dict(mods["sampler"])
        if "stages" in obj:
            kw["stages"] = tuple(obj["stages"])
        if obj.get("out") is not None:
            kw["out_dir"] = obj["out"]
        return cls(**kw)


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
    presets = {
        # The sine data carry a phase so the datum is not odd around any
        # probe: an odd datum at x1 = 0 lets antithetic pairing cancel the
        # payoff exactly, collapsing the sampled std error to roundoff and
        # making the solver-vs-oracle deviation test meaningless there.
        "langevin-constant": dict(
            coefficients={"family": "constant", "sigma2": 1.0},
            datum={"family": "sine", "amplitude": 1.0, "axis": 0, "phase": 0.37},
            source=None,
            alpha=0.5,
        ),
        "langevin-constant-source": dict(
            coefficients={"family": "constant", "sigma2": 1.0},
            datum={"family": "sine", "amplitude": 1.0, "axis": 0, "phase": 0.37},
            source={"family": "coordinate", "axis": 1},
            alpha=0.5,
        ),
        "langevin-sinusoidal": dict(
            coefficients={"family": "space-sinusoidal", "base": 1.0, "amplitude": 0.3},
            datum={"family": "sine", "amplitude": 1.0, "axis": 0, "phase": 0.37},
            source=None,
            alpha=0.3,
        ),
        "langevin-piecewise": dict(
            coefficients={"family": "time-piecewise", "values": [1.0, 2.0], "breaks": [0.5]},
            datum={"family": "sine", "amplitude": 1.0, "axis": 0, "phase": 0.37},
            source={"family": "coordinate", "axis": 1},
            alpha=0.5,
        ),
        "langevin-holder-beta1": dict(
            coefficients={"family": "constant", "sigma2": 1.0},
            datum={"family": "abs", "axis": 0},
            source=None,
            alpha=0.5,
            stages=("structure", "blowup"),
        ),
    }
    if name not in presets:
        raise InvalidData(f"unknown suite '{name}'; expected one of {SUITE_NAMES}")
    kw = presets[name]
    kw.update(overrides)
    return SuiteConfig(suite=name, seed=seed, **kw)


# --------------------------------------------------------------------------
# stage implementations
# --------------------------------------------------------------------------


def structure_stage(cfg: SuiteConfig, report: VerificationReport, n_drifts: int = 25):
    S = cfg.structure()  # raises on non-canonical / non-controllable drifts
    report.add(
        CheckRecord(
            name="structure.canonical",
            stage="structure",
            passed=True,
            value=float(S.N),
            note=f"blocks={S.blocks}, Q={S.Q}",
        )
    )
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, 11], dtype=np.uint64)))
    agree = 0
    for _ in range(n_drifts):
        B, d0 = random_canonical_drift(rng)
        _, k_rank = kalman_rank(B, d0)
        g_rank = controllability_gramian_rank(B, d0)
        agree += int(k_rank == g_rank)
    report.add(
        CheckRecord(
            name="structure.kalman-gramian-agreement",
            stage="structure",
            passed=agree == n_drifts,
            value=float(agree),
            target=float(n_drifts),
            tolerance=0.0,
            note="algebraic rank vs integrated-Gramian rank on random drifts",
        )
    )


def kernel_mass(cf, S, t: float, x, s: float, nodes: int = 24) -> float:
    """Integral of the frozen-coefficient kernel over its forward variable."""
    from scipy.linalg import cholesky, expm

    mean = expm((s - t) * S.B) @ np.asarray(x, dtype=float)
    C = cf.mu * reference_covariance(S, [s - t])[0]
    pts, w = proposal_nodes(mean, cholesky(C, lower=True), nodes)
    vals = parametrix_stack(
        cf, S, np.full(len(pts), t), np.tile(x, (len(pts), 1)), np.full(len(pts), s), pts
    )["value"]
    return float(np.sum(w * vals))


def chapman_kolmogorov_error(cf, S, t: float, x, s: float, tau: float, y, nodes: int = 12) -> float:
    """Relative error of the two-step composition against the direct kernel.

    Both sides are compared in log space, so kernels that underflow in
    double precision still give a finite error.
    """
    from scipy.linalg import cholesky, expm
    from scipy.special import logsumexp

    m1 = expm((s - t) * S.B) @ np.asarray(x, dtype=float)
    C1 = frozen_covariance(cf, S, s, np.asarray(y, dtype=float), t, s).C
    back = expm(-(tau - s) * S.B)
    m2 = back @ np.asarray(y, dtype=float)
    C2 = back @ frozen_covariance(cf, S, tau, np.asarray(y, dtype=float), s, tau).C @ back.T
    m, C = gaussian_product(m1, C1, m2, C2)
    pts, w = proposal_nodes(m, cholesky(C, lower=True), nodes)
    n = len(pts)
    z1 = parametrix_stack(cf, S, np.full(n, t), np.tile(x, (n, 1)), np.full(n, s), pts)
    z2 = parametrix_stack(cf, S, np.full(n, s), pts, np.full(n, tau), np.tile(y, (n, 1)))
    log_composed = logsumexp(np.log(w) + z1["log_abs"] + z2["log_abs"])
    log_direct = parametrix_stack(cf, S, [t], [x], [tau], [y])["log_abs"][0]
    return abs(float(np.expm1(log_composed - log_direct)))


def gaussian_bound_constants(cf, S, gaps, x, spec: SamplerSpec) -> np.ndarray:
    """Fitted constants of the kernel bounds against the reference Gaussian.

    Returns shape (3, len(gaps)): per gap, the sup over probe offsets of
    |Z| / G, |grad Z| * gap^(1/2) / G and |hess Z| * gap / G with G the
    doubled-scale reference Gaussian.
    """
    from .structure import dilation, matrix_exp

    x = np.asarray(x, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=np.array([spec.seed, 23], dtype=np.uint64)))
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
        n = len(ys)
        ev = parametrix_stack(
            cf, S, np.full(n, t), np.tile(x, (n, 1)), np.full(n, s), ys, order=2
        )
        ref = np.exp(
            reference_gaussian_log_stack(
                2.0 * cf.mu, S, np.full(n, t), np.tile(x, (n, 1)), np.full(n, s), ys
            )
        )
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
    from .structure import dilation, matrix_exp

    x = np.asarray(x, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 29], dtype=np.uint64)))
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
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, 13], dtype=np.uint64)))
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
    report.add(
        CheckRecord(
            name="kernel.mass",
            stage="kernel",
            passed=worst <= tol,
            value=worst,
            target=0.0,
            tolerance=tol,
            note="max |integral - 1| over 10 random (t, x, s)",
        )
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
        report.add(
            CheckRecord(
                name="kernel.chapman-kolmogorov",
                stage="kernel",
                passed=worst_ck <= 1e-4,
                value=worst_ck,
                target=0.0,
                tolerance=1e-4,
                note="max relative composition error over 10 probe triples",
            )
        )

    # derivative bounds: constants finite and stable across the gap ladder
    consts = gaussian_bound_constants(cf, S, cfg.t_ladder, rand_x(), cfg.sampler_spec())
    for order, label in enumerate(("value", "gradient", "hessian")):
        c = consts[order]
        ratio = float(np.max(c) / np.min(c)) if np.min(c) > 0 else float("inf")
        report.add(
            CheckRecord(
                name=f"kernel.bound-constant-{label}",
                stage="kernel",
                passed=bool(np.all(np.isfinite(c)) and ratio < 2.0),
                value=ratio,
                target=1.0,
                tolerance=1.0,
                note=f"max/min fitted constant across gaps = {ratio:.3f}",
            )
        )

    # correction-kernel smallness (only meaningful with rough coefficients)
    if cf.space_dependent_a2:
        fit = fit_blowup_exponent(
            phi_smallness_pairs(cf, S, cfg.levi, cfg.t_ladder, rand_x(), seed=cfg.seed)
        )
        floor = cf.alpha_bar / 2.0 - 0.1
        report.add(
            CheckRecord(
                name="kernel.correction-exponent",
                stage="kernel",
                passed=fit.slope >= floor and not fit.unreliable,
                value=fit.slope,
                target=cf.alpha_bar / 2.0,
                tolerance=0.1,
                note=f"one-sided: slope >= {floor:.4f}; residual {fit.residual:.3f}",
            )
        )


def potential_stage(cfg: SuiteConfig, report: VerificationReport):
    cf = cfg.coefficient_field()
    S = cfg.structure()
    f = cfg.source_term() or make_source("constant", value=1.0)
    pb = CauchyProblem(cf=cf, S=S, T=cfg.T, g=None, f=f, alpha=cfg.alpha)
    probes = cfg.probes()
    pairs = []
    for gap in cfg.t_ladder:
        t = cfg.T - gap
        sup = max(abs(potential_source(pb, cfg.solver, t, x).value) for x in probes)
        pairs.append((gap, sup))
    fit = fit_blowup_exponent(pairs)
    target = 1.0 - pb.gamma
    report.add(
        CheckRecord(
            name="potential.source-weight-exponent",
            stage="potential",
            passed=abs(fit.slope - target) <= EXPONENT_TOL and not fit.unreliable,
            value=fit.slope,
            target=target,
            tolerance=EXPONENT_TOL,
            note=f"residual {fit.residual:.3f}" + (" UNRELIABLE" if fit.unreliable else ""),
        )
    )


def solver_stage(cfg: SuiteConfig, report: VerificationReport, threads: int = 1):
    pb = cfg.problem()
    probes = cfg.probes()
    t0 = cfg.t_solve

    def one(x):
        u = solve_point(pb, cfg.solver, t0, x).u
        fk = feynman_kac_estimate(pb, cfg.sde, t0, x)
        se = max(fk.std_error, 1e-12)
        return (u - fk.mean) / se

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            devs = list(ex.map(one, probes))
    else:
        devs = [one(x) for x in probes]
    worst = float(np.max(np.abs(devs)))
    report.add(
        CheckRecord(
            name="solver.oracle-agreement",
            stage="solver",
            passed=worst <= 3.0,
            value=worst,
            target=0.0,
            tolerance=3.0,
            note=f"max |solver - sampled| in standard errors over {len(probes)} probes",
        )
    )


def hessian_blowup_pairs(pb: CauchyProblem, scfg: SolverConfig, gaps, probes) -> list:
    pairs = []
    for gap in gaps:
        t = pb.T - gap
        sup = 0.0
        for x in probes:
            s = solve_point(pb, scfg, t, x)
            sup = max(sup, float(np.max(np.abs(s.hess_d))))
        pairs.append((gap, sup))
    return pairs


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
        fit = fit_blowup_exponent(
            hessian_blowup_pairs(pb, cfg.solver, cfg.t_ladder, probes)
        )
        target = -max(2.0 - pb.beta, 0.0) / 2.0
        report.add(
            CheckRecord(
                name="blowup.hessian-exponent",
                stage="blowup",
                passed=abs(fit.slope - target) <= EXPONENT_TOL and not fit.unreliable,
                value=fit.slope,
                target=target,
                tolerance=EXPONENT_TOL,
                note=f"datum regularity beta={pb.beta}; residual {fit.residual:.3f}",
            )
        )
    if pb.g is not None:
        bnd = boundary_regY_check(
            pb, cfg.solver, probes, [pb.T - gap for gap in cfg.t_ladder]
        )
        target = min(pb.beta, 2.0) / 2.0
        if bnd.degenerate:
            report.add(
                CheckRecord(
                    name="blowup.boundary-exponent",
                    stage="blowup",
                    passed=True,
                    value=None,
                    target=target,
                    note="boundary increments at quadrature noise floor (exact datum)",
                )
            )
        else:
            # With a source, the datum and source parts both vanish at the
            # terminal time and their leading coefficients can interfere, so
            # the attainment can only be asserted one-sided (at least as
            # fast as the rate the datum regularity guarantees).
            if pb.f is None:
                ok = abs(bnd.slope - target) <= EXPONENT_TOL
            else:
                ok = bnd.slope >= target - EXPONENT_TOL
            report.add(
                CheckRecord(
                    name="blowup.boundary-exponent",
                    stage="blowup",
                    passed=ok,
                    value=bnd.slope,
                    target=target,
                    tolerance=EXPONENT_TOL,
                    note="datum attainment rate along the drift flow"
                    + ("" if pb.f is None else " (one-sided: source term present)"),
                )
            )
    if pb.f is not None and pb.g is None:
        pairs = []
        for gap in cfg.t_ladder:
            t = pb.T - gap
            sup = max(abs(solve_point(pb, cfg.solver, t, x).u) for x in cfg.probes())
            pairs.append((gap, sup))
        fit = fit_blowup_exponent(pairs)
        target = 1.0 - pb.gamma
        report.add(
            CheckRecord(
                name="blowup.source-weight-exponent",
                stage="blowup",
                passed=abs(fit.slope - target) <= EXPONENT_TOL and not fit.unreliable,
                value=fit.slope,
                target=target,
                tolerance=EXPONENT_TOL,
                note=f"source weight gamma={pb.gamma}; residual {fit.residual:.3f}",
            )
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
    spec = replace(spec, t_box=(0.05 * cfg.T, 0.9 * cfg.T))
    alpha = min(cfg.alpha, 1.0)
    smooth = taylor_remainder_check(ClosedFormSolution(cfg.T), alpha, S, spec)
    report.add(
        CheckRecord(
            name="taylor.bounded",
            stage="taylor",
            passed=smooth.bounded_factor < 2.0,
            value=smooth.bounded_factor,
            target=1.0,
            tolerance=1.0,
            note="ladder max / median of remainder quotients, closed-form solution",
        )
    )
    kink = taylor_remainder_check(KinkFunction(), alpha, S, spec)
    growth = (
        float(kink.ratios[-1] / kink.ratios[0]) if kink.ratios[0] > 0 else float("inf")
    )
    report.add(
        CheckRecord(
            name="taylor.kink-control",
            stage="taylor",
            passed=growth >= 10.0,
            value=growth,
            target=10.0,
            note="negative control: quotient growth across the ladder",
        )
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
            report.add(
                CheckRecord(
                    name=f"{stage}.error",
                    stage=stage,
                    passed=False,
                    note=f"{type(e).__name__}: {e}",
                )
            )
        if any(not c.passed for c in report.checks[before:]):
            break
    report.wall_time_s = time.perf_counter() - start
    if cfg.out_dir is not None:
        emit_report(report, cfg.out_dir)
    return report
