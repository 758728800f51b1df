"""Terminal-value solver: closed forms, residuals, boundary fits, CSV output."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from kolkin import (
    CauchyProblem,
    Datum,
    EmptyInterval,
    LeviConfig,
    SdeConfig,
    SolverConfig,
    block_structure,
    boundary_regY_check,
    feynman_kac_estimate,
    make_coefficients,
    make_datum,
    make_source,
    matrix_exp,
    potential_source,
    residual_check,
    samples_to_csv,
    solve_point,
)
from kolkin.kernels import (
    _combine,
    _contract,
    factor_covariance,
    parametrix_stack,
    reference_covariance,
)
from kolkin.levi import _build_lattice, _pair_tensor, terminal_smoothing
from kolkin.quadrature import proposal_nodes
from kolkin.suites import kinetic_drift

X0 = np.array([0.3, 0.1])
CFG = SolverConfig()


def test_lattice_config_honours_the_levi_grading_and_min_gap():
    cfg = SolverConfig(levi=LeviConfig(grading=1.5, min_gap=1e-3), time_nodes=6)
    lat = cfg.lattice_config(alpha=0.5)
    assert (lat.grading, lat.min_gap, lat.time_nodes) == (1.5, 1e-3, 6)
    default = SolverConfig().lattice_config(alpha=0.5)
    assert (default.grading, default.min_gap) == (4.0, 1e-5)
    assert SolverConfig().lattice_config(alpha=4.0).grading == 1.0


# ---------------------------------------------------------------------------
# Closed forms on the constant-coefficient Langevin operator
# ---------------------------------------------------------------------------


def test_constant_datum_is_preserved(S2, cf_const):
    # With g == 1 and no source, u == 1 for all (t, x): mass conservation.
    pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=make_datum("constant", value=1.0), alpha=0.5)
    for t, x in [(0.3, X0), (0.7, np.array([-1.2, 0.4])), (0.05, np.zeros(2))]:
        assert abs(solve_point(pb, CFG, t, x).u - 1.0) <= 1e-6


def test_constant_source_gives_linear_time_profile(S2, cf_const):
    # With f == 1 and g == 0 the Duhamel integral gives u(t, x) = -(T - t).
    pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, f=make_source("constant"), alpha=0.5)
    for t in (0.3, 0.6, 0.9):
        assert abs(solve_point(pb, CFG, t, X0).u + (1.0 - t)) <= 1e-4


def test_linear_datum_follows_the_flow(S2, cf_const):
    # g = y2 is harmonic for the operator, so u(t, x) = x2 + x1 (T - t):
    # the datum evaluated at the forward flow of x.
    pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=make_datum("linear", c=(0.0, 1.0)), alpha=0.5)
    s = solve_point(pb, CFG, 0.3, X0)
    assert abs(s.u - (X0[1] + X0[0] * 0.7)) <= 1e-5
    # Derivatives of the closed form: du/dx1 = T - t, zero curvature,
    # and the drift derivative cancels exactly (Yu = 0 because Lu = 0, Au = 0).
    assert abs(s.grad_d[0] - 0.7) <= 1e-5
    assert abs(s.hess_d[0, 0]) <= 1e-8
    assert abs(s.Yu) <= 1e-8


def test_sine_datum_heat_decay(S2, cf_const):
    # g = sin(y1 + phi): u(t, x) = exp(-(T - t)/2) sin(x1 + phi) since the
    # velocity marginal is a translated Gaussian with variance T - t.
    pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=0.5)
    s = solve_point(pb, CFG, 0.3, X0)
    exact = np.sin(X0[0] + 0.37) * np.exp(-0.35)
    assert abs(s.u - exact) <= 1e-8
    # Second derivative equals -u and the drift derivative equals +u/2
    # (transport balances diffusion pointwise for this eigenfunction).
    assert abs(s.hess_d[0, 0] + s.u) <= 1e-6
    assert abs(s.Yu - 0.5 * s.u) <= 1e-6


def test_sine_datum_piecewise_coefficient(S2, cf_piecewise):
    # For a(t) piecewise the decay exponent is half the integrated diffusion:
    # int_{0.2}^{1} a = 0.3 * 1 + 0.5 * 2 = 1.3.
    pb = CauchyProblem(cf=cf_piecewise, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=0.5)
    u = solve_point(pb, CFG, 0.2, X0).u
    exact = np.sin(X0[0] + 0.37) * np.exp(-1.3 / 2.0)
    assert abs(u - exact) <= 1e-7


def _flowed_sine(S, x, h, axis, variance):
    # E sin(X_axis(T) + 0.37) for X(T) ~ N(e^(hB) x, C(h)), C(h)[axis, axis] = variance
    return np.sin((matrix_exp(S.B, h) @ x)[axis] + 0.37) * np.exp(-variance / 2.0)


@pytest.mark.parametrize("with_source", [False, True], ids=["datum", "datum+source"])
def test_chain3_closed_form(S3, cf_const, with_source):
    # dX0 = dW, dX1 = X0 dt, dX2 = X1 dt: Var X2(T) = h^5/20, and the
    # source f = y1 contributes -int_t^T E X1(r) dr = -(x1 h + x0 h^2/2).
    t, x = 0.3, np.array([0.3, 0.1, -0.2])
    h = 1.0 - t
    f = make_source("coordinate", axis=1) if with_source else None
    g = make_datum("sine", axis=2, phase=0.37)
    pb = CauchyProblem(cf=cf_const, S=S3, T=1.0, g=g, f=f, alpha=0.5)
    exact = _flowed_sine(S3, x, h, 2, h**5 / 20)
    if with_source:
        exact -= x[1] * h + x[0] * h**2 / 2
    assert abs(solve_point(pb, CFG, t, x).u - exact) <= (1e-4 if with_source else 1e-6)


@pytest.mark.parametrize("with_source", [False, True], ids=["datum", "datum+source"])
def test_two_dimensional_kinetic_closed_form(with_source):
    # d = 2, a2 = I_2: position X2 = x2 + h x0 + int W0 has variance h^3/3,
    # and the source f = y3 contributes -(x3 h + x1 h^2/2).
    S = block_structure(kinetic_drift(2), d=2)
    cf = make_coefficients("constant", d=2, sigma2=1.0)
    t, x = 0.3, np.array([0.3, 0.1, -0.2, 0.4])
    h = 1.0 - t
    f = make_source("coordinate", axis=3) if with_source else None
    g = make_datum("sine", axis=2, phase=0.37)
    pb = CauchyProblem(cf=cf, S=S, T=1.0, g=g, f=f, alpha=0.5)
    exact = _flowed_sine(S, x, h, 2, h**3 / 3)
    if with_source:
        exact -= x[3] * h + x[1] * h**2 / 2
    assert abs(solve_point(pb, CFG, t, x).u - exact) <= (1e-4 if with_source else 1e-6)


def test_langevin_phase_space_closed_form():
    # the Langevin phase space R^3 x R^3 (N = 6), a2 = I_3: every terminal
    # node shares one covariance, so 7^6 nodes fit; criterion 7's datum bound
    S = block_structure(kinetic_drift(3), d=3)
    cf = make_coefficients("constant", d=3, sigma2=1.0)
    t, x = 0.3, np.array([0.3, 0.1, -0.2, 0.4, -0.1, 0.2])
    h = 1.0 - t
    pb = CauchyProblem(cf=cf, S=S, T=1.0, g=make_datum("sine", axis=4, phase=0.37), alpha=0.5)
    exact = _flowed_sine(S, x, h, 4, h**3 / 3)
    assert abs(solve_point(pb, SolverConfig(terminal_nodes=7), t, x).u - exact) <= 1e-6


def test_solver_is_linear_in_the_datum(S2, cf_sin):
    pb_a = CauchyProblem(cf=cf_sin, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=0.3)
    pb_b = CauchyProblem(cf=cf_sin, S=S2, T=1.0, g=make_datum("linear", c=(0.0, 1.0)), alpha=0.3)
    combo = Datum(
        fn=lambda y: np.sin(y[:, 0] + 0.37) + 2.0 * y[:, 1],
        beta=2.0,
        name="combo",
    )
    pb_c = CauchyProblem(cf=cf_sin, S=S2, T=1.0, g=combo, alpha=0.3)
    u_a = solve_point(pb_a, CFG, 0.3, X0).u
    u_b = solve_point(pb_b, CFG, 0.3, X0).u
    u_c = solve_point(pb_c, CFG, 0.3, X0).u
    assert abs(u_c - (u_a + 2.0 * u_b)) <= 1e-10


# ---------------------------------------------------------------------------
# The source half of the correction series
# ---------------------------------------------------------------------------


def _three_part_assembly(pb, cfg, t, x):
    """u = V_Zg + V_Pg - V_Zf - V_Pf with each potential contracted on its
    own: the datum and the source each run their own correction series."""
    cf, S, T = pb.cf, pb.S, pb.T
    depth = cfg.levi.depth
    C_T = cf.mu * reference_covariance(S, T - t)[0]
    y_pts, w_y = proposal_nodes(
        matrix_exp(S.B, T - t) @ x, factor_covariance(C_T).chol, cfg.terminal_nodes
    )
    zg = parametrix_stack(cf, S, t, x, T, y_pts[None], order=2, cov_nodes=cfg.levi.cov_nodes)
    lat_cfg = cfg.lattice_config(pb.alpha)
    lat = _build_lattice(cf, S, lat_cfg, t, x, T)
    zx = parametrix_stack(
        cf, S, t, x, lat.times, lat.points, order=2, cov_nodes=lat_cfg.cov_nodes
    )
    pair = _pair_tensor(cf, S, lat_cfg, lat)

    def series(w1):
        total = term = w1
        for _ in range(depth - 1):
            term = pair @ (lat.omega * term)
            total = total + term
        return total

    fv = pb.f(lat.flat_t, lat.flat_x)
    w_g = terminal_smoothing(cf, S, lat_cfg.cov_nodes, cfg.smoothing_nodes, lat, T, pb.g)
    parts = [
        (1.0, _contract(zg, w_y * pb.g(y_pts), 2)),
        (1.0, _contract(zx, lat.omega * series(w_g), 2)),
        (-1.0, _contract(zx, lat.omega * fv, 2)),
        (-1.0, _contract(zx, lat.omega * series(pair @ (lat.omega * fv)), 2)),
    ]
    return _combine(parts, S.d, 2)


def _corrected_source_problems(S2, cf_sin):
    cf_lower = make_coefficients("constant", a1=[0.3], a0=0.2)
    g = make_datum("sine", phase=0.37)
    f = make_source("coordinate", axis=1)
    return [
        CauchyProblem(cf=cf_sin, S=S2, T=1.0, g=g, f=f, alpha=0.3),
        CauchyProblem(cf=cf_lower, S=S2, T=1.0, g=g, f=f, alpha=0.5),
    ]


SOURCE_POINTS = [(t, x) for t in (0.3, 0.9) for x in (X0, np.array([-0.2, 0.4]))]


def _assert_close(got, want, rel):
    # |got - want| <= rel * max(1, |want|), entry by entry
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


def test_one_density_matches_the_three_part_assembly(S2, cf_sin):
    # Both a correction series and a source: a space-dependent a2, and a
    # constant a2 with lower-order terms.  One Neumann sum of W_g - P(omega f)
    # against separate series for the datum and the source moves roundoff only.
    for pb in _corrected_source_problems(S2, cf_sin):
        assert not pb.cf.levi_trivial
        for t, x in SOURCE_POINTS:
            s = solve_point(pb, CFG, t, x)
            ref = _three_part_assembly(pb, CFG, t, x)
            _assert_close(s.u, ref.value, 1e-12)
            _assert_close(s.grad_d, ref.grad_d, 1e-12)
            _assert_close(s.hess_d, ref.hess_d, 1e-12)


def test_solution_is_datum_part_minus_source_potential(S2, cf_sin):
    # u(g, f) = u(g, 0) - V_{p,f}: the source enters the Duhamel formula linearly
    for pb in _corrected_source_problems(S2, cf_sin):
        datum_only = CauchyProblem(cf=pb.cf, S=pb.S, T=pb.T, g=pb.g, alpha=pb.alpha)
        for t, x in SOURCE_POINTS:
            s = solve_point(pb, CFG, t, x)
            s_g = solve_point(datum_only, CFG, t, x)
            v_f = potential_source(pb, CFG, t, x, order=2)
            _assert_close(s.u, s_g.u - v_f.value, 1e-12)
            _assert_close(s.grad_d, s_g.grad_d - v_f.grad_d, 1e-12)
            _assert_close(s.hess_d, s_g.hess_d - v_f.hess_d, 1e-12)


# ---------------------------------------------------------------------------
# Agreement with the Monte Carlo oracle on a variable-coefficient problem
# ---------------------------------------------------------------------------


def test_variable_coefficient_solution_matches_monte_carlo(S2, cf_sin):
    pb = CauchyProblem(cf=cf_sin, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=0.3)
    u = solve_point(pb, CFG, 0.3, X0).u
    fk = feynman_kac_estimate(pb, SdeConfig(n_paths=400_000, n_steps=200, seed=8), 0.3, X0)
    # Frozen reference run: solve = 0.423955, mc = 0.424422 +- 0.000513.
    assert abs(u - fk.mean) <= 3.0 * fk.std_error
    assert abs(u - 0.42395494481470497) <= 1e-9


# ---------------------------------------------------------------------------
# Interior-equation residuals
# ---------------------------------------------------------------------------


def test_residuals_small_for_all_coefficient_families(S2, cf_const, cf_piecewise, cf_sin):
    points = [(0.3, X0), (0.6, np.array([-0.2, 0.4]))]
    for cf, alpha in ((cf_const, 0.5), (cf_piecewise, 0.5), (cf_sin, 0.3)):
        pb = CauchyProblem(cf=cf, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=alpha)
        res = residual_check(pb, CFG, points)
        assert res.shape == (2,)
        assert np.max(np.abs(res)) <= 5e-4


def test_residual_with_source_term(S2, cf_const):
    pb = CauchyProblem(
        cf=cf_const,
        S=S2,
        T=1.0,
        g=make_datum("sine", phase=0.37),
        f=make_source("coordinate", axis=1),
        alpha=0.5,
    )
    res = residual_check(pb, CFG, [(0.3, X0)])
    assert abs(res[0]) <= 5e-4


def test_residual_straddling_a_coefficient_break(S2, cf_piecewise):
    # The finite-difference probe crosses t = 0.5 where a(t) jumps 1 -> 2;
    # the covariance splitting must keep the residual at quadrature level.
    pb = CauchyProblem(cf=cf_piecewise, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=0.5)
    res = residual_check(pb, CFG, [(0.45, X0)])
    assert abs(res[0]) <= 5e-4


def test_residual_probe_beyond_horizon_raises(S2, cf_const):
    pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=0.5)
    with pytest.raises(EmptyInterval):
        residual_check(pb, CFG, [(1.0 - 1e-9, X0)])


# ---------------------------------------------------------------------------
# Boundary attainment fits
# ---------------------------------------------------------------------------


def test_boundary_fit_for_lipschitz_kink(S2, cf_const):
    # g = |y1| has box exponent beta = 1, so sup |u - g| over gap tau decays
    # like tau^(1/2); the fitted slope is exact for this self-similar datum.
    pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=make_datum("abs"), alpha=0.5)
    gaps = [0.4, 0.2, 0.1, 0.05, 0.025]
    probes = [np.zeros(2), X0, np.array([-0.25, 0.0])]
    fit = boundary_regY_check(pb, CFG, probes, [1.0 - g for g in gaps])
    assert not fit.degenerate
    assert abs(fit.slope - 0.5) <= 1e-6
    assert len(fit.gaps) == len(fit.sups) == len(gaps)


def test_boundary_fit_degenerates_for_preserved_datum(S2, cf_const):
    # u == g == 1 identically, so sup |u - g| sits at the noise floor and the
    # fit must flag itself as degenerate rather than report a junk slope.
    pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=make_datum("constant", value=1.0), alpha=0.5)
    fit = boundary_regY_check(pb, CFG, [X0], [0.4, 0.2, 0.1])
    assert fit.degenerate


# ---------------------------------------------------------------------------
# Sample batches and CSV export
# ---------------------------------------------------------------------------


def test_samples_to_csv_layout(tmp_path, S2, cf_const):
    pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=0.5)
    samples = [solve_point(pb, CFG, t, x) for t, x in [(0.3, X0), (0.6, np.array([-0.2, 0.4]))]]
    path = tmp_path / "samples.csv"
    samples_to_csv(samples, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[0] == "t"
    assert "u" in header
    # One coordinate column per state dimension, one row per sample.
    assert sum(1 for h in header if h.startswith("x")) == 2
    assert len(rows) == 1 + len(samples)
    first = dict(zip(header, rows[1]))
    assert float(first["t"]) == 0.3
    assert abs(float(first["u"]) - samples[0].u) <= 1e-12
