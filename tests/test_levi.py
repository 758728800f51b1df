"""Correction series on the bridge lattice: values, stabilization, errors."""

import numpy as np
import pytest

from kolkin import (
    EmptyInterval,
    InvalidData,
    LeviConfig,
    fundamental_solution,
    make_coefficients,
    matrix_exp,
    parametrix,
    phi_eval,
    reference_covariance,
)
from kolkin.kernels import (
    factor_covariance,
    levi_first_kernel_stack,
    parametrix_stack,
)
from kolkin.levi import _build_lattice, _pair_tensor, terminal_smoothing
from kolkin.quadrature import gaussian_product, proposal_nodes

T0, S0 = 0.3, 0.8
X0 = np.array([0.4, -0.2])
Y0 = np.array([0.9, 0.1])


def independent_depth1(cf, S, t, x, s, y, time_nodes=24, space_nodes=16):
    """Plain tensor-quadrature composition of kernel and first correction.

    Gauss-Legendre in the intermediate time, Gaussian bridge proposal in the
    intermediate state; shares no code with the production Volterra lattice.
    """
    xi, wl = np.polynomial.legendre.leggauss(time_nodes)
    r_nodes = t + 0.5 * (xi + 1) * (s - t)
    r_w = 0.5 * (s - t) * wl
    total = 0.0
    for r, wr in zip(r_nodes, r_w):
        m1 = matrix_exp(S.B, r - t) @ x
        C1 = reference_covariance(S, [r - t])[0]
        back = matrix_exp(S.B, r - s)
        m2 = back @ y
        C2 = back @ reference_covariance(S, [s - r])[0] @ back.T
        m, C = gaussian_product(m1, C1, m2, C2)
        pts, w = proposal_nodes(m, factor_covariance(C).chol, space_nodes)
        n = len(pts)
        z1 = parametrix_stack(
            cf, S, np.full(n, t), np.tile(x, (n, 1)), np.full(n, r), pts
        )["value"]
        h2 = levi_first_kernel_stack(
            cf, S, np.full(n, r), pts, np.full(n, s), np.tile(y, (n, 1))
        )
        total += wr * float(np.sum(w * z1 * h2))
    return total


def test_correction_vanishes_for_constant_coefficients(S2, cf_const):
    assert phi_eval(cf_const, S2, LeviConfig(), T0, X0, S0, Y0).value == 0.0


def test_fundamental_solution_reduces_to_kernel_for_constant(S2, cf_const):
    fs = fundamental_solution(cf_const, S2, LeviConfig(), T0, X0, S0, Y0)
    pz = parametrix(cf_const, S2, T0, X0, S0, Y0)
    assert fs.value == pz.value


def test_depth1_term_against_independent_composition(S2, cf_sin):
    # frozen from the oracle below; both quadratures agree to ~4e-4 relative
    oracle = independent_depth1(cf_sin, S2, T0, X0, S0, Y0)
    assert oracle == pytest.approx(-0.03533656362347814, rel=1e-12)
    phi_1 = phi_eval(cf_sin, S2, LeviConfig(depth=1), T0, X0, S0, Y0).value
    assert phi_1 == pytest.approx(oracle, rel=2e-3)


def test_partial_sums_stabilize(S2, cf_sin):
    ps = [phi_eval(cf_sin, S2, LeviConfig(depth=k), T0, X0, S0, Y0).value for k in (1, 2)]
    np.testing.assert_allclose(
        ps, [-0.03532233, -0.03527333], rtol=0, atol=5e-7
    )
    # the second term is a small correction of the first: geometric decay
    assert abs(ps[1] - ps[0]) < 0.5 * abs(ps[0])


def test_full_correction_frozen_value_and_refinement(S2, cf_sin):
    base = phi_eval(cf_sin, S2, LeviConfig(), T0, X0, S0, Y0).value
    assert base == pytest.approx(-0.03527333225762869, rel=1e-9)
    fine = phi_eval(
        cf_sin, S2, LeviConfig(time_nodes=24, space_nodes=18), T0, X0, S0, Y0
    ).value
    assert fine == pytest.approx(base, rel=2e-3)


def test_fundamental_solution_is_kernel_plus_correction(S2, cf_sin):
    cfg = LeviConfig()
    fs = fundamental_solution(cf_sin, S2, cfg, T0, X0, S0, Y0)
    pz = parametrix(cf_sin, S2, T0, X0, S0, Y0)
    corr = phi_eval(cf_sin, S2, cfg, T0, X0, S0, Y0)
    assert fs.value == pytest.approx(pz.value + corr.value, rel=1e-12)


def test_correction_is_relatively_small(S2, cf_sin):
    # the whole point of the construction: the correction is a few percent
    fs = fundamental_solution(cf_sin, S2, LeviConfig(), T0, X0, S0, Y0)
    pz = parametrix(cf_sin, S2, T0, X0, S0, Y0)
    assert abs(fs.value - pz.value) / pz.value < 0.1


def test_correction_shrinks_with_the_gap(S2, cf_sin):
    # |correction| / kernel ~ gap^(alpha_bar/2) -> smaller gaps, smaller ratio
    ratios = []
    for gap in (0.5, 0.25, 0.125):
        s = T0 + gap
        y = matrix_exp(S2.B, gap) @ X0
        fs = fundamental_solution(cf_sin, S2, LeviConfig(), T0, X0, s, y)
        pz = parametrix(cf_sin, S2, T0, X0, s, y)
        ratios.append(abs(fs.value - pz.value) / pz.value)
    assert ratios[0] > ratios[1] > ratios[2]


def test_empty_interval_rejected(S2, cf_sin):
    with pytest.raises(EmptyInterval):
        phi_eval(cf_sin, S2, LeviConfig(), S0, X0, T0, Y0)
    with pytest.raises(EmptyInterval):
        phi_eval(cf_sin, S2, LeviConfig(), T0, X0, T0 + 1e-7, Y0)


def test_depth_zero_gives_zero_correction(S2, cf_sin):
    assert phi_eval(cf_sin, S2, LeviConfig(depth=0), T0, X0, S0, Y0).value == 0.0


def test_config_validation(S2, cf_sin):
    with pytest.raises(InvalidData):
        phi_eval(cf_sin, S2, LeviConfig(time_nodes=0), T0, X0, S0, Y0)


# The first kernel has one formula; the pair tensor and the terminal
# smoothing must reproduce the public per-pair kernel.  The constant field
# with a1/a0 sends the lower-order terms through the correction series.
FIRST_KERNEL_FIELDS = {
    "sin": lambda: make_coefficients("space-sinusoidal", d=1, base=1.0, amplitude=0.3),
    "const-a1-a0": lambda: make_coefficients("constant", a1=[0.3], a0=0.2),
}


@pytest.mark.parametrize("field", sorted(FIRST_KERNEL_FIELDS))
def test_pair_tensor_entries_equal_the_first_kernel(S2, field):
    cf = FIRST_KERNEL_FIELDS[field]()
    cfg = LeviConfig(time_nodes=4, space_nodes=3)
    lat = _build_lattice(cf, S2, cfg, T0, X0, S0)
    pair = _pair_tensor(cf, S2, cfg, lat)
    later = lat.flat_t[:, None] < lat.flat_t[None, :]
    assert np.all(pair[~later] == 0.0)
    a, b = np.nonzero(later)
    ref = levi_first_kernel_stack(
        cf, S2, lat.flat_t[a], lat.flat_x[a], lat.flat_t[b], lat.flat_x[b],
        cov_nodes=cfg.cov_nodes,
    )
    # far pairs underflow to 0 in both; most pairs carry a value
    assert np.count_nonzero(ref) > a.size // 2
    np.testing.assert_allclose(pair[a, b], ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("field", sorted(FIRST_KERNEL_FIELDS))
def test_terminal_smoothing_is_the_first_kernel_cloud_sum(S2, field):
    # The horizon sits 0.2 past the lattice: at gaps ~2e-5 the position
    # variance is ~4e-15, and the public kernel's y - e^(gap B) x loses
    # ~5e-9 relative against the exact cloud offsets the smoothing uses.
    cf = FIRST_KERNEL_FIELDS[field]()
    cfg = LeviConfig(time_nodes=4, space_nodes=3)
    lat = _build_lattice(cf, S2, cfg, T0, X0, S0)
    horizon, eta = 1.0, 3

    def g(y):
        return np.cos(y[:, 0]) + 0.5 * y[:, 1]

    got = terminal_smoothing(cf, S2, cfg.cov_nodes, eta, lat, horizon, g)
    ref = []
    for r, z in zip(lat.flat_t, lat.flat_x):
        C = cf.mu * reference_covariance(S2, [horizon - r])[0]
        pts, w = proposal_nodes(
            matrix_exp(S2.B, horizon - r) @ z, np.linalg.cholesky(0.5 * (C + C.T)), eta
        )
        n = len(pts)
        h = levi_first_kernel_stack(
            cf, S2, np.full(n, r), np.tile(z, (n, 1)), np.full(n, horizon), pts,
            cov_nodes=cfg.cov_nodes,
        )
        ref.append(np.sum(w * h * g(pts)))
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
