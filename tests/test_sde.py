"""Monte Carlo oracle: schemes, path integrals, weak order, density."""

import dataclasses

import numpy as np
import pytest
from scipy.stats import gaussian_kde

from kolkin import (
    CauchyProblem,
    Datum,
    InvalidData,
    SdeConfig,
    feynman_kac_estimate,
    make_coefficients,
    make_datum,
    make_source,
    matrix_exp,
    parametrix,
    reference_covariance,
    simulate_paths,
    terminal_to_csv,
)
from kolkin.kernels import factor_covariance
from kolkin.quadrature import keyed_rng
from kolkin.sde import BLOCK, _block_sizes, _normals, principal_sqrt_psd
from kolkin.structure import block_structure
from kolkin.suites import kinetic_drift

X0 = np.array([0.3, 0.1])


def _square_datum():
    return Datum(fn=lambda y: y[:, 1] ** 2, beta=2.0, name="square-x2")


# ----------------------------------------------------------------------
# exact-in-distribution facts (antithetic pairing cancels linear noise)
# ----------------------------------------------------------------------


def test_em_linear_statistics_exact(S2, S3, cf_const):
    # antithetic pairing zeroes every noise-linear average, so the mean
    # follows the drift recursion (I + B dt)^n x0 exactly; that equals
    # e^B x0 for the kinetic drift only, so on chain-3 and the damped drift
    # a step that read an already-updated coordinate would miss it by O(dt)
    cfg = SdeConfig(n_paths=2000, n_steps=16, seed=0)
    b = simulate_paths(cf_const, S2, cfg, 0.0, X0, 1.0)
    m = b.terminal.mean(axis=0)
    np.testing.assert_allclose(m, matrix_exp(S2.B, 1.0) @ X0, atol=1e-13)
    damped = block_structure(np.array([[-1.0, 0.0], [1.0, 0.0]]), d=1)
    for S, x0 in ((S3, np.array([0.3, 0.1, -0.2])), (damped, X0)):
        step = np.eye(S.N) + S.B / cfg.n_steps
        want = np.linalg.matrix_power(step, cfg.n_steps) @ x0
        assert np.abs(want - matrix_exp(S.B, 1.0) @ x0).max() > 1e-3
        m = simulate_paths(cf_const, S, cfg, 0.0, x0, 1.0).terminal.mean(axis=0)
        np.testing.assert_allclose(m, want, rtol=0, atol=1e-13)


def test_exact_scheme_matches_reference_gaussian(S2, cf_const):
    cfg = SdeConfig(n_paths=100_000, n_steps=1, seed=4, scheme="exact-gaussian")
    b = simulate_paths(cf_const, S2, cfg, 0.0, X0, 0.6)
    mean = matrix_exp(S2.B, 0.6) @ X0
    C = reference_covariance(S2, [0.6])[0]
    np.testing.assert_allclose(b.terminal.mean(axis=0), mean, atol=1e-12)
    np.testing.assert_allclose(np.cov(b.terminal.T), C, rtol=2e-2)


def test_em_second_moment_tracks_its_discretization(S2):
    # E[X2^2] under the left-endpoint recursion has a closed form; the
    # sampled moment must sit within noise of it, and the discretization's
    # deviation from the continuous moment must shrink linearly in the step
    cf = make_coefficients("constant", d=1, sigma2=2.0)
    pb = CauchyProblem(cf=cf, S=S2, T=1.0, g=_square_datum(), alpha=0.5)
    exact = (X0[1] + X0[0]) ** 2 + 2.0 / 3.0
    weak_errs = []
    for n in (50, 200):
        dt = 1.0 / n
        var_em = 2.0 * dt**3 * sum(min(j, k) for j in range(n) for k in range(n))
        em_moment = (X0[1] + X0[0]) ** 2 + var_em
        fk = feynman_kac_estimate(
            pb, SdeConfig(n_paths=200_000, n_steps=n, seed=2), 0.0, X0
        )
        assert abs(fk.mean - em_moment) <= 3.0 * fk.std_error
        weak_errs.append(abs(em_moment - exact))
    assert weak_errs[0] == pytest.approx(4.0 * weak_errs[1], rel=0.02)


def test_weak_order_one_fitted(S2, cf_const):
    # time-affine zero-order coefficient: the path weight exp(int a0) is
    # deterministic, its left-endpoint error is exactly first order, and the
    # closed form exp(0.4) makes the fit noise-free
    cf = dataclasses.replace(cf_const, a0=lambda t, x: 0.8 * t, name="ramp-weight")
    pb = CauchyProblem(
        cf=cf, S=S2, T=1.0, g=make_datum("constant", value=1.0), alpha=0.5
    )
    steps = np.array([50, 100, 200, 400])
    errs = []
    for n in steps:
        fk = feynman_kac_estimate(
            pb, SdeConfig(n_paths=2000, n_steps=int(n), seed=1), 0.0, X0
        )
        errs.append(abs(fk.mean - np.exp(0.4)))
    order = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert order >= 0.8
    assert order == pytest.approx(1.0, abs=0.05)


def test_feynman_kac_matches_heat_closed_form(S2, cf_const):
    # u(t, x) = exp(-(T-t)/2) sin(x1 + phase): X1 is exactly Brownian under
    # the recursion, so the only deviation is statistical
    pb = CauchyProblem(
        cf=cf_const, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=0.5
    )
    fk = feynman_kac_estimate(pb, SdeConfig(n_paths=100_000, n_steps=50, seed=6), 0.3, X0)
    closed = np.exp(-0.35) * np.sin(X0[0] + 0.37)
    assert abs(fk.mean - closed) <= 3.0 * fk.std_error
    lo, hi = fk.interval()
    assert lo <= closed <= hi


# ----------------------------------------------------------------------
# path integrals
# ----------------------------------------------------------------------


def test_constant_source_integral_exact(S2, cf_const):
    # trapezoidal accumulation of f = 1 gives exactly T - t0 on every path
    f = make_source("constant")
    b = simulate_paths(
        cf_const, S2, SdeConfig(n_paths=64, n_steps=7, seed=0), 0.2, X0, 1.0, f=f
    )
    np.testing.assert_allclose(b.source_integral, 0.8, rtol=1e-13)
    pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, f=f, alpha=0.5)
    fk = feynman_kac_estimate(pb, SdeConfig(n_paths=64, n_steps=7, seed=0), 0.2, X0)
    assert fk.mean == pytest.approx(-0.8, rel=1e-13)
    assert fk.std_error <= 1e-15


def test_linear_source_integral_trapezoid_is_unbiased(S2, cf_const):
    # f = x2 is linear in both time and noise: the trapezoid rule integrates
    # its path mean exactly and antithetic pairing removes the randomness
    pb = CauchyProblem(
        cf=cf_const, S=S2, T=1.0, f=make_source("coordinate", axis=1), alpha=0.5
    )
    t0 = 0.5
    fk = feynman_kac_estimate(pb, SdeConfig(n_paths=2000, n_steps=40, seed=3), t0, X0)
    closed = -(X0[1] * 0.5 + X0[0] * 0.125)
    assert fk.mean == pytest.approx(closed, abs=1e-12)


def test_constant_weight_integral_exact(S2, cf_const):
    cf = dataclasses.replace(cf_const, a0=lambda t, x: np.full(t.shape, 0.4))
    pb = CauchyProblem(
        cf=cf, S=S2, T=1.0, g=make_datum("constant", value=1.0), alpha=0.5
    )
    fk = feynman_kac_estimate(pb, SdeConfig(n_paths=64, n_steps=9, seed=0), 0.0, X0)
    assert fk.mean == pytest.approx(np.exp(0.4), rel=1e-13)


def test_first_order_term_sees_the_start_of_step_state(S2, cf_const):
    # a1 = -x2 is read at X, like a0, a2 and the noise, not at X + B X dt:
    # one antithetic step has mean x0 + B x0 dt + a1(x0) dt exactly
    cf = dataclasses.replace(cf_const, a1=lambda t, x: -x[:, 1:2])
    dt = 0.5
    b = simulate_paths(cf, S2, SdeConfig(n_paths=64, n_steps=1, seed=0), 0.0, X0, dt)
    want = X0 + S2.B @ X0 * dt + np.array([-X0[1], 0.0]) * dt
    np.testing.assert_allclose(b.terminal.mean(axis=0), want, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# reproducibility, path blocks, antithetics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["euler-maruyama", "exact-gaussian"])
def test_path_draw_does_not_depend_on_the_path_count(S2, cf_const, scheme):
    # each 1024-path block draws from its own (seed, block) stream, so the
    # first block of a long run is the first block of a shorter one
    runs = [
        simulate_paths(
            cf_const, S2, SdeConfig(n_paths=n, n_steps=13, seed=42, scheme=scheme),
            0.2, X0, 1.0,
        ).terminal
        for n in (5000, 1500)
    ]
    assert np.array_equal(runs[0][:1024], runs[1][:1024])


def test_seed_changes_the_draw(S2, cf_sin):
    pb = CauchyProblem(cf=cf_sin, S=S2, T=1.0, g=make_datum("sine"), alpha=0.3)
    a = feynman_kac_estimate(pb, SdeConfig(n_paths=5000, n_steps=13, seed=1), 0.2, X0)
    b = feynman_kac_estimate(pb, SdeConfig(n_paths=5000, n_steps=13, seed=2), 0.2, X0)
    assert a.mean != b.mean


def test_odd_path_count_rounds_up_for_antithetic(S2, cf_const):
    b = simulate_paths(
        cf_const, S2, SdeConfig(n_paths=777, n_steps=3, seed=0), 0.0, X0, 1.0
    )
    assert b.terminal.shape[0] == 778


def test_antithetic_reduces_standard_error(S2, cf_const):
    pb = CauchyProblem(cf=cf_const, S=S2, T=1.0, g=make_datum("sine", phase=0.37), alpha=0.5)
    se = {}
    for anti in (True, False):
        fk = feynman_kac_estimate(
            pb, SdeConfig(n_paths=40_000, n_steps=10, seed=5, antithetic=anti), 0.3, X0
        )
        se[anti] = fk.std_error
    # pairing cancels the noise-linear part of the payoff (measured ~0.6x)
    assert se[True] < 0.75 * se[False]


# ----------------------------------------------------------------------
# probe bundles: one draw per step, shared by every start point
# ----------------------------------------------------------------------

PROBES = np.array([[0.3, 0.1], [-0.5, 0.2], [0.0, -0.4]])
ODD_PATHS = 2 * BLOCK + 77  # odd, and the last block is short
ANTITHETIC = pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])


def _assert_bundle_equals_single_runs(cf, S, cfg, probes, t0=0.2, T=1.0, f=None):
    bundle = simulate_paths(cf, S, cfg, t0, probes, T, f=f)
    n = ODD_PATHS + cfg.antithetic
    assert bundle.terminal.shape == (len(probes), n, S.N)
    assert bundle.log_weight.shape == bundle.source_integral.shape == (len(probes), n)
    for p, x in enumerate(probes):
        one = simulate_paths(cf, S, cfg, t0, x, T, f=f)
        got = bundle.probe(p)
        assert np.array_equal(got.terminal, one.terminal)
        assert np.array_equal(got.log_weight, one.log_weight)
        assert np.array_equal(got.source_integral, one.source_integral)


@ANTITHETIC
def test_bundle_equals_single_runs_with_space_dependent_a2(S2, cf_sin, antithetic):
    cfg = SdeConfig(n_paths=ODD_PATHS, n_steps=9, seed=5, antithetic=antithetic)
    _assert_bundle_equals_single_runs(cf_sin, S2, cfg, PROBES)


@ANTITHETIC
@pytest.mark.parametrize("family", ["space-sinusoidal", "time-piecewise"])
def test_bundle_equals_single_runs_with_lower_order_terms_and_source(S2, family, antithetic):
    cf = make_coefficients(family, d=1, a1=0.3, a0=-0.2)
    cfg = SdeConfig(n_paths=ODD_PATHS, n_steps=11, seed=2, antithetic=antithetic)
    _assert_bundle_equals_single_runs(
        cf, S2, cfg, PROBES, f=make_source("coordinate", axis=1)
    )


def test_bundle_equals_single_runs_for_two_dimensional_kinetic_drift():
    # d = 2: the noise contracts a 2 x 2 root against each row's draw
    S = block_structure(kinetic_drift(2), d=2)
    cf = make_coefficients("space-sinusoidal", d=2, axis=2)
    cfg = SdeConfig(n_paths=ODD_PATHS, n_steps=7, seed=4)
    probes = np.array([[0.3, 0.1, -0.2, 0.4], [0.0, -0.5, 0.6, 0.1]])
    _assert_bundle_equals_single_runs(cf, S, cfg, probes, f=make_source("sine", axis=3))


@ANTITHETIC
def test_bundle_equals_single_runs_exact_gaussian(S2, cf_const, antithetic):
    cfg = SdeConfig(
        n_paths=ODD_PATHS, n_steps=1, seed=7, scheme="exact-gaussian", antithetic=antithetic
    )
    _assert_bundle_equals_single_runs(cf_const, S2, cfg, PROBES)


# ----------------------------------------------------------------------
# the drift step against the dense product it replaces
# ----------------------------------------------------------------------


def _dense_em_chunk(cf, S, t0, x0, T, n_steps, m, rng, antithetic, f):
    """The Euler-Maruyama loop in (P, n, N) row layout with the dense drift
    product rows @ B^T, an unconditional exp(I_a0) and the noise einsum."""
    P, N = x0.shape
    n = m // P
    sizes = _block_sizes(n, antithetic)
    d = S.d
    dt = (T - t0) / n_steps
    sdt = np.sqrt(dt)
    times = t0 + np.arange(n_steps + 1) * dt
    X = np.repeat(x0[:, None, :], n, axis=1)
    rows = X.reshape(m, N)
    Ia = np.zeros(m)
    If = np.zeros(m)
    Bt = S.B.T

    def at(k):
        return np.broadcast_to(times[k], (m,))

    if not cf.space_dependent_a2:
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
            a1_dt = np.asarray(cf.a1(tv, rows), dtype=float) * dt
        rows += (rows @ Bt) * dt
        if cf.a1 is not None:
            rows[:, :d] += a1_dt
        X[..., :d] += sdt * np.einsum("...ij,...j->...i", sig, xi)
        if f is not None:
            fw_next = np.exp(Ia) * np.asarray(f(at(k + 1), rows), dtype=float)
            If += 0.5 * (fw + fw_next) * dt
            fw = fw_next
    return X, Ia.reshape(P, n), If.reshape(P, n)


def _dense_reference(cf, S, cfg, probes, t0=0.2, T=1.0, f=None):
    sizes = _block_sizes(cfg.n_paths, cfg.antithetic)
    rngs = [keyed_rng(cfg.seed, b) for b in range(len(sizes))]
    return _dense_em_chunk(cf, S, t0, probes, T, cfg.n_steps, len(probes) * sum(sizes),
                           rngs, cfg.antithetic, f)


PROBES3 = np.array([[0.3, 0.1, -0.2], [-0.5, 0.2, 0.4]])
PROBES4 = np.array([[0.3, 0.1, -0.2, 0.4], [0.0, -0.5, 0.6, 0.1]])
KINETIC = ((0.0, 0.0), (1.0, 0.0))
DAMPED = ((-1.0, 0.0), (1.0, 0.0))
DENSE_CASES = {
    # name: (family, coefficient parameters, drift, d, probes, source)
    "constant": ("constant", {}, KINETIC, 1, PROBES, None),
    "piecewise-source": ("time-piecewise", {}, KINETIC, 1, PROBES, ("coordinate", {"axis": 1})),
    "sinusoidal": ("space-sinusoidal", {}, KINETIC, 1, PROBES, None),
    "constant-a1-a0-source": ("constant", {"sigma2": 1.5, "a1": 0.3, "a0": -0.2}, KINETIC, 1,
                              PROBES, ("sine", {"axis": 1})),
    "chain3-source": ("constant", {}, ((0, 0, 0), (1, 0, 0), (0, 1, 0)), 1, PROBES3,
                      ("coordinate", {"axis": 2})),
    "damped": ("time-piecewise", {}, DAMPED, 1, PROBES, None),
    "kinetic-d2": ("space-sinusoidal", {"axis": 2}, tuple(map(tuple, kinetic_drift(2))), 2,
                   PROBES4, ("sine", {"axis": 3})),
}


@ANTITHETIC
@pytest.mark.parametrize("case", list(DENSE_CASES))
def test_column_drift_step_equals_the_dense_product_bitwise(case, antithetic):
    # one nonzero per row of B: (X_j * B_ij) * dt is what rows @ B^T gives,
    # so the column-layout loop reproduces the dense loop bit for bit
    family, params, B, d, probes, source = DENSE_CASES[case]
    cf = make_coefficients(family, d=d, **params)
    S = block_structure(np.array(B, dtype=float), d=d)
    f = make_source(source[0], **source[1]) if source else None
    cfg = SdeConfig(n_paths=ODD_PATHS, n_steps=9, seed=6, antithetic=antithetic)
    got = simulate_paths(cf, S, cfg, 0.2, probes, 1.0, f=f)
    want = _dense_reference(cf, S, cfg, probes, f=f)
    assert got.terminal.shape == want[0].shape
    assert np.array_equal(got.terminal, want[0])
    assert np.array_equal(got.log_weight, want[1])
    assert np.array_equal(got.source_integral, want[2])
    # a linear datum reads each probe's terminal states as rows; a strided
    # terminal would take another BLAS kernel here and move last bits
    g = make_datum("linear", c=0.37 * np.arange(1, S.N + 1))
    for p in range(len(probes)):
        assert np.array_equal(g(got.probe(p).terminal), g(want[0][p]))


def test_dense_drift_rows_stay_within_roundoff_of_the_dense_product(cf_const):
    # rows with several nonzeros add their terms one by one, while BLAS sums
    # them (with fused multiply-add) before the step, so bits move: after 9
    # steps the largest move relative to max(1, |x|) measured 1.0e-15
    S = block_structure(np.array([[0.3, 0.2], [1.0, -0.5]]), d=1)
    cf = make_coefficients("constant", d=1, sigma2=1.0, a0=-0.2)
    f = make_source("coordinate", axis=1)
    cfg = SdeConfig(n_paths=ODD_PATHS, n_steps=9, seed=6)
    got = simulate_paths(cf, S, cfg, 0.2, PROBES, 1.0, f=f)
    want = _dense_reference(cf, S, cfg, PROBES, f=f)
    for a, b in zip((got.terminal, got.log_weight, got.source_integral), want):
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= 1e-14


# ----------------------------------------------------------------------
# scheme admissibility and validation
# ----------------------------------------------------------------------


def test_exact_scheme_admissibility(S2, cf_sin, cf_const):
    cfg = SdeConfig(n_paths=100, n_steps=1, scheme="exact-gaussian")
    with pytest.raises(InvalidData):
        simulate_paths(cf_sin, S2, cfg, 0.0, X0, 1.0)  # state-dependent a2
    with pytest.raises(InvalidData):
        simulate_paths(cf_const, S2, cfg, 0.0, X0, 1.0, f=make_source("constant"))
    cf_a0 = dataclasses.replace(cf_const, a0=lambda t, x: np.ones(t.shape))
    with pytest.raises(InvalidData):
        simulate_paths(cf_a0, S2, cfg, 0.0, X0, 1.0)


def test_time_interval_validated(S2, cf_const):
    with pytest.raises(InvalidData):
        simulate_paths(cf_const, S2, SdeConfig(n_paths=10, n_steps=2), 1.0, X0, 1.0)


def test_principal_sqrt_rejects_an_indefinite_stack():
    mats = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.eye(2)])
    with pytest.raises(InvalidData, match="t = 0.7"):
        principal_sqrt_psd(mats, np.array([0.2, 0.7, 0.9]))
    with pytest.raises(InvalidData, match="t = 0.3"):
        principal_sqrt_psd(-np.ones((2, 1, 1)), 0.3)


@pytest.mark.parametrize("space_dependent", [False, True], ids=["time-only", "space"])
def test_non_elliptic_field_fails_loudly(S2, cf_const, space_dependent):
    # a2 turns negative from t = 0.5: the oracle names that time, nothing is clipped
    def a2(t, x):
        return np.where(np.asarray(t) < 0.5, 1.0, -1.0)[:, None, None]

    cf = dataclasses.replace(
        cf_const, a2=a2, constant_a2=None, space_dependent_a2=space_dependent, name="sign-flip"
    )
    with pytest.raises(InvalidData, match="t = 0.5"):
        simulate_paths(cf, S2, SdeConfig(n_paths=64, n_steps=4, seed=0), 0.0, X0, 1.0)


def test_config_validated():
    with pytest.raises(InvalidData):
        SdeConfig(n_paths=0)
    with pytest.raises(InvalidData):
        SdeConfig(scheme="milstein")


# ----------------------------------------------------------------------
# empirical density against the kernel
# ----------------------------------------------------------------------


def test_terminal_density_matches_kernel(S2, cf_const):
    # Scott-bandwidth density estimate in whitened coordinates at 10 probe
    # points: within 5% of the transition kernel
    cfg = SdeConfig(n_paths=1_000_000, n_steps=1, seed=4, scheme="exact-gaussian")
    b = simulate_paths(cf_const, S2, cfg, 0.0, X0, 0.6)
    mean = matrix_exp(S2.B, 0.6) @ X0
    L = factor_covariance(reference_covariance(S2, [0.6])[0]).chol
    white = np.linalg.solve(L, (b.terminal - mean).T)
    kde = gaussian_kde(white)
    rng = np.random.default_rng(9)
    for u in rng.normal(size=(10, 2)) * 0.7:
        pt = mean + L @ u
        est = kde(u[:, None])[0] / np.linalg.det(L)
        z = parametrix(cf_const, S2, 0.0, X0, 0.6, pt).value
        assert abs(est - z) / z <= 0.05


def test_terminal_to_csv(S2, cf_const, tmp_path):
    b = simulate_paths(
        cf_const, S2, SdeConfig(n_paths=50, n_steps=2, seed=0), 0.0, X0, 1.0
    )
    path = tmp_path / "terminal.csv"
    terminal_to_csv(b, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "x1,x2"
    assert len(rows) == 51
