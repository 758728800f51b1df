"""Frozen-coefficient Gaussian kernel: normalization, derivatives, bounds."""

import numpy as np
import pytest
from scipy.integrate import quad

from kolkin import (
    EmptyInterval,
    SingularCovariance,
    frozen_covariance,
    levi_first_kernel,
    make_coefficients,
    matrix_exp,
    parametrix,
    reference_covariance,
    reference_gaussian,
)
from kolkin.kernels import factor_covariance, factor_stack
from kolkin.quadrature import (
    _hermgauss,
    _leggauss,
    gaussian_product,
    hermite_lattice,
    proposal_nodes,
)


def _mass(cf, S, t, x, s, nodes=24):
    """Integrate the kernel over its forward variable with a matched proposal."""
    mean = matrix_exp(S.B, s - t) @ x
    C = factor_covariance(reference_covariance(S, [s - t])[0])
    pts, w = proposal_nodes(mean, C.chol, nodes)
    vals = [parametrix(cf, S, t, x, s, y).value for y in pts]
    return float(np.dot(w, vals))


# ----------------------------------------------------------------------
# reference covariance
# ----------------------------------------------------------------------


def test_reference_covariance_closed_form(S2):
    # C(dt) = [[dt, dt^2/2], [dt^2/2, dt^3/3]] for the kinetic structure
    dt = 0.7
    C = reference_covariance(S2, [dt])[0]
    want = np.array([[dt, dt**2 / 2], [dt**2 / 2, dt**3 / 3]])
    np.testing.assert_allclose(C, want, rtol=1e-13)


def test_reference_covariance_determinant_scales_like_homogeneous_dim(S2):
    # det C(dt) = dt^Q / 12 with Q = 4: the anisotropic volume growth
    for dt in (0.1, 0.5, 1.0):
        C = reference_covariance(S2, [dt])[0]
        assert np.linalg.det(C) == pytest.approx(dt**S2.Q / 12, rel=1e-12)


def test_reference_covariance_rejects_empty_interval(S2):
    with pytest.raises(EmptyInterval):
        reference_covariance(S2, [0.0])


def test_frozen_covariance_constant_equals_reference(S2, cf_const):
    t, s = 0.2, 0.9
    got = frozen_covariance(cf_const, S2, s, np.zeros(2), t, s).C
    want = reference_covariance(S2, [s - t])[0]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_frozen_covariance_piecewise_vs_adaptive_quadrature(S2, cf_piecewise):
    # independent oracle: entrywise adaptive integration split at the break
    t, s, v = 0.2, 0.9, np.zeros(2)

    def entry(u, i, j):
        E = matrix_exp(S2.B, s - u)[:, :1]
        a = cf_piecewise.a2(np.array([u]), v[None, :])[0]
        return (E @ a @ E.T)[i, j]

    want = np.array(
        [
            [quad(entry, t, s, args=(i, j), points=[0.5], limit=200)[0] for j in range(2)]
            for i in range(2)
        ]
    )
    got = frozen_covariance(cf_piecewise, S2, s, v, t, s).C
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_factor_covariance_rejects_indefinite():
    # indefinite, zero variance, NaN covariance: never a bare LinAlgError
    for C in ([[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]):
        with pytest.raises(SingularCovariance):
            factor_covariance(np.array(C))


def test_factor_stack_names_the_failing_index():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 3, 3))
    Cs = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(3)
    Cs[3] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(SingularCovariance, match=r"stack index \(3,\)"):
        factor_stack(Cs)


def test_chain3_covariance_factors_at_a_tiny_gap(S3, cf_const):
    # condition number ~7e30 at gap 1e-7; the Jacobi-scaled residual stays at
    # rounding level because C(h) = D(sqrt h) C(1) D(sqrt h)
    s = 0.9
    cov = frozen_covariance(cf_const, S3, s, np.zeros(3), s - 1e-7, s)
    D = np.sqrt(np.diag(cov.C))
    resid = (cov.chol @ cov.chol.T - cov.C) / np.outer(D, D)
    assert np.max(np.abs(resid)) <= 1e-12


def test_frozen_covariance_rejects_empty_interval(S2, cf_const):
    with pytest.raises(EmptyInterval):
        frozen_covariance(cf_const, S2, 0.8, np.zeros(2), 0.8, 0.8)


# ----------------------------------------------------------------------
# kernel normalization (mass) and composition
# ----------------------------------------------------------------------


def test_mass_constant_coefficients(S2, cf_const):
    assert abs(_mass(cf_const, S2, 0.3, np.array([0.4, -0.2]), 0.8)) == pytest.approx(
        1.0, abs=1e-10
    )


def test_mass_variable_coefficients(S2, cf_sin):
    assert _mass(cf_sin, S2, 0.3, np.array([0.4, -0.2]), 0.8) == pytest.approx(
        1.0, abs=1e-4
    )


def test_chapman_kolmogorov_constant(S2, cf_const):
    # two-step composition reproduces the one-step kernel (semigroup law)
    from kolkin.suites import chapman_kolmogorov_error

    x = np.array([0.4, -0.2])
    y = np.array([-0.1, 0.3])
    err = chapman_kolmogorov_error(cf_const, S2, 0.1, x, 0.45, 0.9, y, nodes=12)
    assert err <= 1e-6


def test_gaussian_product_precision_weighted_mean():
    rng = np.random.default_rng(2)
    m1, m2 = rng.normal(size=2), rng.normal(size=2)
    A = rng.normal(size=(2, 2))
    C1 = A @ A.T + 0.5 * np.eye(2)
    B = rng.normal(size=(2, 2))
    C2 = B @ B.T + 0.5 * np.eye(2)
    mean, cov = gaussian_product(m1, C1, m2, C2)
    P1, P2 = np.linalg.inv(C1), np.linalg.inv(C2)
    np.testing.assert_allclose(cov, np.linalg.inv(P1 + P2), rtol=1e-10)
    np.testing.assert_allclose(mean, cov @ (P1 @ m1 + P2 @ m2), rtol=1e-10)


# ----------------------------------------------------------------------
# derivatives and pointwise bounds
# ----------------------------------------------------------------------


def test_kernel_derivatives_match_finite_differences(S2, cf_sin):
    t, s = 0.3, 0.8
    x = np.array([0.4, -0.2])
    y = np.array([0.9, 0.1])
    ev = parametrix(cf_sin, S2, t, x, s, y, order=2)

    def val(x1):
        return parametrix(cf_sin, S2, t, np.array([x1, x[1]]), s, y).value

    h = 1e-5
    fd_g = (val(x[0] + h) - val(x[0] - h)) / (2 * h)
    fd_h = (val(x[0] + h) - 2 * val(x[0]) + val(x[0] - h)) / h**2
    assert ev.grad_d[0] == pytest.approx(fd_g, rel=1e-7)
    assert ev.hess_d[0, 0] == pytest.approx(fd_h, rel=1e-5)


def test_kernel_dominated_by_widened_reference(S2, cf_sin):
    # Z <= C * reference kernel with diffusion 2 mu, with a modest constant.
    # Probe around the flowed center so the reference stays representable.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        t = rng.uniform(0.0, 0.5)
        s = rng.uniform(t + 0.05, 1.0)
        x = rng.normal(size=2)
        C = reference_covariance(S2, [s - t])[0]
        offset = factor_covariance(C).chol @ rng.normal(size=2)
        y = matrix_exp(S2.B, s - t) @ x + 1.5 * offset
        num = parametrix(cf_sin, S2, t, x, s, y).value
        den = reference_gaussian(2 * cf_sin.mu, S2, t, x, s, y)
        assert den > 0
        worst = max(worst, num / den)
    assert np.isfinite(worst)
    assert worst < 50.0


def test_parametrix_rejects_empty_interval(S2, cf_const):
    with pytest.raises(EmptyInterval):
        parametrix(cf_const, S2, 0.9, np.zeros(2), 0.3, np.zeros(2))


# ----------------------------------------------------------------------
# first correction kernel
# ----------------------------------------------------------------------


def test_first_kernel_vanishes_for_constant_coefficients(S2, cf_const):
    assert (
        levi_first_kernel(cf_const, S2, 0.3, np.array([0.4, -0.2]), 0.8, np.array([0.9, 0.1]))
        == 0.0
    )


def test_first_kernel_matches_increment_formula(S2, cf_sin):
    # H = 1/2 (a2(t,x) - a2(t, e^((t-s)B) y)) d^2_11 Z for pure second-order
    t, s = 0.3, 0.8
    x = np.array([0.4, -0.2])
    y = np.array([0.9, 0.1])
    got = levi_first_kernel(cf_sin, S2, t, x, s, y)
    v = matrix_exp(S2.B, t - s) @ y
    a_x = cf_sin.a2(np.array([t]), x[None, :])[0, 0, 0]
    a_v = cf_sin.a2(np.array([t]), v[None, :])[0, 0, 0]
    hess = parametrix(cf_sin, S2, t, x, s, y, order=2).hess_d[0, 0]
    assert got == pytest.approx(0.5 * (a_x - a_v) * hess, rel=1e-12)


# ----------------------------------------------------------------------
# quadrature lattice sanity
# ----------------------------------------------------------------------


def test_hermite_lattice_normalization():
    # weights integrate a standard Gaussian's polynomials exactly
    pts, log_w = hermite_lattice(2, 8)
    w = np.exp(log_w)
    z = np.sqrt(2.0) * pts  # standard-normal nodes
    dens = np.exp(-0.5 * np.sum(z**2, axis=1)) / (2 * np.pi)
    assert float(np.dot(w / dens * dens, dens)) == pytest.approx(
        float(np.dot(w, dens)), rel=1e-12
    )
    assert float(np.dot(w, dens)) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("N", [2, 3])
def test_stacked_proposal_helpers_equal_per_row_calls(N):
    rng = np.random.default_rng(N)
    A = rng.standard_normal((2, 4, N, N))
    C = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(N)
    m1, m2 = rng.standard_normal((2, 4, N))
    m, P = gaussian_product(m1, C[0], m2, C[1])
    chol = np.linalg.cholesky(P)
    pts, w = proposal_nodes(m, chol, 4)
    assert pts.shape == (4, 4**N, N) and w.shape == (4, 4**N)
    for k in range(4):
        mk, Pk = gaussian_product(m1[k], C[0, k], m2[k], C[1, k])
        assert np.array_equal(mk, m[k]) and np.array_equal(Pk, P[k])
        pk, wk = proposal_nodes(m[k], chol[k], 4)
        assert np.array_equal(pk, pts[k]) and np.array_equal(wk, w[k])


@pytest.mark.parametrize("rule", [_leggauss, _hermgauss], ids=["legendre", "hermite"])
def test_cached_gauss_rules_are_read_only(rule):
    nodes, weights = rule(5)
    kept = (nodes.copy(), weights.copy())
    for a in (nodes, weights):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0
    again = rule(5)
    assert again[0] is nodes and again[1] is weights
    assert np.array_equal(nodes, kept[0]) and np.array_equal(weights, kept[1])
