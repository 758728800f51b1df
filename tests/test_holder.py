"""Sampled Holder-norm estimators: frozen values, invariances, Taylor ladder."""

from __future__ import annotations

import numpy as np
import pytest

from kolkin import (
    InvalidData,
    MissingDerivative,
    SamplerSpec,
    anisotropic_norm,
    anisotropic_norm_est,
    block_structure,
    intrinsic_norm_est,
    lie_seminorm_est,
    make_datum,
    matrix_exp,
    taylor_remainder_check,
    weighted_sup_norm,
)
from kolkin.holder import _taylor_t2_stack, sliced_anisotropic_sup
from kolkin.structure import DriftStructure
from kolkin.suites import kinetic_drift

BOX = ((-1.0, 1.0), (-1.0, 1.0))
SPEC = SamplerSpec(box=BOX)


def sine(y):
    return np.sin(y[:, 0] + 0.37)


class SmoothF:
    """Solution-like space-time function sin(x1 + 0.37) exp(-t/2)."""

    def __call__(self, t, y):
        return np.sin(y[:, 0] + 0.37) * np.exp(-t / 2.0)

    def grad_d(self, t, y):
        return (np.cos(y[:, 0] + 0.37) * np.exp(-t / 2.0))[:, None]

    def hess_d(self, t, y):
        return (-np.sin(y[:, 0] + 0.37) * np.exp(-t / 2.0))[:, None, None]

    @staticmethod
    def lie(t, y):
        # d_t F + x1 d_{x2} F: the x2 derivative vanishes, so Yf = -F/2.
        return -0.5 * np.sin(y[:, 0] + 0.37) * np.exp(-t / 2.0)


# ---------------------------------------------------------------------------
# Anisotropic spatial norm
# ---------------------------------------------------------------------------


def test_square_root_kink_has_unit_seminorm(S2):
    # |x1|^(1/2) is exactly 1/2-Holder in the anisotropic distance with
    # seminorm 1 (attained on pairs straddling the kink); sup over the box is 1.
    est = anisotropic_norm_est(lambda y: np.sqrt(np.abs(y[:, 0])), 0.5, S2, SPEC)
    assert est.value == pytest.approx(2.0, abs=1e-12)
    assert est.components["sup"] == pytest.approx(1.0, abs=1e-12)
    assert est.components["increment"] == pytest.approx(1.0, abs=1e-12)


def test_linear_in_slow_coordinate_at_order_three(S2):
    # g = y2 has unit quotient at order 3 because y2 carries weight 3:
    # |y2| / (|y2|^(1/3))^3 == 1 along the degenerate direction.
    class Lin:
        def __call__(self, y):
            return y[:, 1]

        def grad_d(self, y):
            return np.zeros((len(y), 1))

        def hess_d(self, y):
            return np.zeros((len(y), 1, 1))

    est = anisotropic_norm_est(Lin(), 3.0, S2, SPEC)
    assert est.components["increment"] == pytest.approx(1.0, abs=1e-12)
    assert est.components["gradient"] == 0.0
    assert est.value == pytest.approx(2.0, abs=1e-12)


def test_sine_norm_frozen_and_argmax_is_honest(S2):
    est = anisotropic_norm_est(sine, 0.5, S2, SPEC)
    assert est.value == pytest.approx(2.0036523586351285, rel=1e-12)
    # The reported argmax pair must reproduce the reported quotient.
    xa, xb = est.argmax_pair
    quot = abs(sine(np.atleast_2d(xa))[0] - sine(np.atleast_2d(xb))[0])
    quot /= anisotropic_norm(np.asarray(xa) - np.asarray(xb), S2) ** 0.5
    assert quot == pytest.approx(est.components["increment"], rel=1e-12)
    assert est.n_pairs > 1000


def test_estimate_scales_linearly_with_the_function(S2):
    one = anisotropic_norm_est(sine, 0.5, S2, SPEC)
    three = anisotropic_norm_est(lambda y: 3.0 * sine(y), 0.5, S2, SPEC)
    assert three.value == pytest.approx(3.0 * one.value, rel=1e-12)


def test_refinement_never_decreases_the_estimate(S2):
    # Ladder levels only add pairs, so the sampled sup is monotone; at an
    # order above the true regularity (0.55 > 0.5) refinement keeps pushing
    # the estimate up, exposing the mismatch.
    g = lambda y: np.sqrt(np.abs(y[:, 0]))
    vals = [
        anisotropic_norm_est(g, 0.55, S2, SamplerSpec(box=BOX, levels=lv)).value
        for lv in (6, 9, 13)
    ]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[2] > vals[0]


def test_order_out_of_range_rejected(S2):
    with pytest.raises(InvalidData):
        anisotropic_norm_est(sine, 0.0, S2, SPEC)
    with pytest.raises(InvalidData):
        anisotropic_norm_est(sine, 3.5, S2, SPEC)


def test_gradient_orders_require_analytic_gradient(S2):
    # neither a plain function nor a datum family carries a gradient
    for g in (sine, make_datum("abs")):
        with pytest.raises(MissingDerivative):
            anisotropic_norm_est(g, 1.5, S2, SPEC)


# ---------------------------------------------------------------------------
# Flow-increment (Lie) seminorm
# ---------------------------------------------------------------------------


def test_sqrt_time_flow_quotient_approaches_one(S2):
    # F = sqrt(t): |sqrt(s) - sqrt(tau)| / |s - tau|^(1/2) -> 1 as tau -> 0.
    spec = SamplerSpec(box=BOX, t_box=(1e-9, 1.0))
    est = lie_seminorm_est(lambda t, x: np.sqrt(t), 1.0, S2, spec)
    assert est.value == pytest.approx(0.99995527964045, rel=1e-10)
    assert est.value <= 1.0 + 1e-12


def test_linear_time_flow_quotient_is_exactly_one(S2):
    est = lie_seminorm_est(lambda t, x: t, 2.0, S2, SPEC)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_flow_invariant_function_has_zero_seminorm():
    # For antisymmetric B the flow is a rotation, so |x|^2 is constant along
    # it and the flow-increment quotient vanishes to roundoff.
    S_rot = DriftStructure(N=2, d=2, B=np.array([[0.0, -1.0], [1.0, 0.0]]), blocks=(2,))
    est = lie_seminorm_est(
        lambda t, x: x[:, 0] ** 2 + x[:, 1] ** 2, 1.0, S_rot, SamplerSpec(box=BOX)
    )
    assert est.value <= 1e-10


def test_lie_order_out_of_range_rejected(S2):
    with pytest.raises(InvalidData):
        lie_seminorm_est(lambda t, x: t, 2.5, S2, SPEC)


# ---------------------------------------------------------------------------
# Intrinsic space-time norm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.7, 1.5, 2.5])
def test_intrinsic_branches_assemble_their_components(S2, alpha):
    spec = SamplerSpec(box=BOX, n_base=24, levels=8)
    f = SmoothF()
    est = intrinsic_norm_est(f, alpha, S2, spec, Yf=SmoothF.lie if alpha > 2.0 else None)
    comps = est.components
    assert "sliced" in comps
    if alpha > 1.0:
        assert "gradient" in comps
    if alpha <= 2.0:
        assert "flow" in comps
    else:
        assert "drift" in comps
    assert est.value == pytest.approx(sum(comps.values()), rel=1e-12)
    assert all(v >= 0.0 for v in comps.values())
    assert np.isfinite(est.value)


def test_intrinsic_dominates_the_sliced_spatial_norm(S2):
    spec = SamplerSpec(box=BOX, n_base=24, levels=8)
    f = SmoothF()
    est = intrinsic_norm_est(f, 0.7, S2, spec)
    frozen = anisotropic_norm_est(lambda y: f(np.full(len(y), 0.0), y), 0.7, S2, spec)
    assert est.value >= est.components["sliced"] >= 0.0
    # The time-zero slice is one of many competing slices.
    assert est.components["sliced"] >= frozen.value * np.exp(-0.5) - 1e-12


def test_intrinsic_high_order_requires_lie_derivative(S2):
    spec = SamplerSpec(box=BOX, n_base=24, levels=8)
    with pytest.raises(MissingDerivative):
        intrinsic_norm_est(SmoothF(), 2.5, S2, spec)
    with pytest.raises(MissingDerivative):
        intrinsic_norm_est(lambda t, y: sine(y), 1.5, S2, spec)


# ---------------------------------------------------------------------------
# Weighted sup norm
# ---------------------------------------------------------------------------


def test_weight_factor_applies_at_the_earliest_slice(S2):
    # For a time-independent F every slice has the same spatial norm, so the
    # weighted sup picks the earliest sampled time: value * (T - lo)^gamma.
    v0 = weighted_sup_norm(lambda t, y: sine(y), 0.0, 0.5, 1.0, S2, SPEC)
    v5 = weighted_sup_norm(lambda t, y: sine(y), 0.5, 0.5, 1.0, S2, SPEC)
    assert v0 == pytest.approx(2.0036523586351285, rel=1e-12)
    assert v5 == pytest.approx(v0 * (1.0 - 1e-4) ** 0.5, rel=1e-12)


def test_weight_tames_a_blowing_up_profile(S2):
    # F = (T - s)^(-1/2) sin: unweighted slices diverge as s -> T but the
    # gamma = 1/2 weight renders every slice equal to the time-free norm.
    F = lambda t, y: (1.0 - t) ** -0.5 * sine(y)
    spec = SamplerSpec(box=BOX, t_box=(1e-4, 1.0 - 1e-6))
    v = weighted_sup_norm(F, 0.5, 0.5, 1.0, S2, spec)
    assert v == pytest.approx(2.0036523586351285, rel=1e-10)


def test_weight_exponent_range_enforced(S2):
    with pytest.raises(InvalidData):
        weighted_sup_norm(lambda t, y: sine(y), 1.0, 0.5, 1.0, S2, SPEC)


# ---------------------------------------------------------------------------
# Pinned estimates (recorded before the estimators were batched)
# ---------------------------------------------------------------------------

PIN_SPEC = SamplerSpec(box=BOX, n_base=24, levels=8)


class SmoothF2:
    """d = 2 on the kinetic drift: sin(v1 + 0.37) cos(v2) e^(-t/2) + cos(p1 - p2) / 2."""

    def __call__(self, t, y):
        e = np.exp(-t / 2.0)
        return np.sin(y[:, 0] + 0.37) * np.cos(y[:, 1]) * e + 0.5 * np.cos(y[:, 2] - y[:, 3])

    def grad_d(self, t, y):
        e = np.exp(-t / 2.0)
        return np.stack([np.cos(y[:, 0] + 0.37) * np.cos(y[:, 1]) * e,
                         -np.sin(y[:, 0] + 0.37) * np.sin(y[:, 1]) * e], axis=1)

    def hess_d(self, t, y):
        e = np.exp(-t / 2.0)
        a, b = y[:, 0] + 0.37, y[:, 1]
        h = np.empty((len(y), 2, 2))
        h[:, 0, 0] = h[:, 1, 1] = -np.sin(a) * np.cos(b) * e
        h[:, 0, 1] = h[:, 1, 0] = -np.cos(a) * np.sin(b) * e
        return h


@pytest.mark.parametrize(
    "alpha, value, n_pairs",
    [(0.7, 2.1651491959926266, 69663), (1.5, 4.709578360275813, 183390),
     (2.5, 10.349995572883584, 389832)],
)
def test_intrinsic_estimates_are_pinned(S2, alpha, value, n_pairs):
    est = intrinsic_norm_est(
        SmoothF(), alpha, S2, PIN_SPEC, Yf=SmoothF.lie if alpha > 2.0 else None
    )
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.n_pairs == n_pairs
    # the decaying factor puts every slice sup at the earliest time
    assert est.argmax_pair[0] == pytest.approx(1e-4, rel=1e-12)


@pytest.mark.parametrize(
    "alpha, value", [(0.5, 0.24920169143579005), (1.0, 0.2963524245261541), (2.0, 0.4727504497479203)]
)
def test_lie_estimates_are_pinned_and_their_argmax_is_honest(S2, alpha, value):
    f = SmoothF()
    est = lie_seminorm_est(f, alpha, S2, PIN_SPEC)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.n_pairs == 10506
    (tau, x), (s, xf) = est.argmax_pair
    assert xf == pytest.approx(matrix_exp(S2.B, s - tau) @ x, rel=1e-14)
    quot = abs(f(np.array([s]), xf[None])[0] - f(np.array([tau]), x[None])[0])
    assert quot / abs(s - tau) ** (0.5 * alpha) == pytest.approx(est.value, rel=1e-12)


@pytest.mark.parametrize(
    "alpha, value", [(0.5, 0.4818233999643857), (1.0, 0.5729878154124493), (2.0, 0.8103271396308174)]
)
def test_lie_estimates_on_a_drift_that_is_not_nilpotent_are_pinned(alpha, value):
    # e^(uB) is not a finite series here, so the flows are rounded
    S = block_structure(np.array([[0.3, 0.2], [1.0, -0.5]]), 1)
    f = lambda t, y: np.sin(y[:, 0] + 0.37) * np.exp(-t / 2.0) + 0.5 * np.cos(y[:, 1])
    est = lie_seminorm_est(f, alpha, S, PIN_SPEC)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.n_pairs == 10506
    (tau, x), (s, xf) = est.argmax_pair
    assert xf == pytest.approx(matrix_exp(S.B, s - tau) @ x, rel=1e-14)


def test_weighted_slice_argmax_time_is_pinned(S2):
    # the slice norms grow like e^(2s) and the weight (1 - s)^(1/2) falls,
    # so the weighted sup sits inside the window, near s = 3/4
    grow = lambda t, y: np.sin(y[:, 0] + 0.37) * np.exp(2.0 * t)
    est = sliced_anisotropic_sup(grow, 0.7, S2, PIN_SPEC, weight=lambda s: (1.0 - s) ** 0.5)
    assert est.argmax_pair[0] == pytest.approx(0.7500249999999999, rel=1e-12)
    assert est.value == pytest.approx(4.253473254643453, rel=1e-12)
    assert est.n_pairs == 59157
    assert weighted_sup_norm(grow, 0.5, 0.7, 1.0, S2, PIN_SPEC) == est.value


def test_weighted_norm_is_pinned(S2):
    v = weighted_sup_norm(SmoothF(), 0.5, 0.7, 1.0, S2, PIN_SPEC)
    assert v == pytest.approx(1.897966530848079, rel=1e-12)


@pytest.mark.parametrize(
    "alpha, value, n_pairs", [(0.6, 2.7757985692652247, 27639), (1.4, 5.522522983968059, 124622)]
)
def test_intrinsic_estimate_on_the_two_dimensional_kinetic_drift(alpha, value, n_pairs):
    S4 = block_structure(kinetic_drift(2), 2)
    spec = SamplerSpec(box=((-1.0, 1.0),) * 4, n_base=16, levels=6)
    est = intrinsic_norm_est(SmoothF2(), alpha, S4, spec)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.n_pairs == n_pairs
    assert est.value == pytest.approx(sum(est.components.values()), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_abs_datum_norm_is_pinned(S2, alpha):
    # |x1| on the box: sup 1 and unit quotient across the kink at every order <= 1
    est = anisotropic_norm_est(make_datum("abs"), alpha, S2, SPEC)
    assert est.components == {"sup": 1.0, "increment": 1.0}
    assert est.n_pairs == 6175


def test_intrinsic_estimate_evaluates_F_in_a_handful_of_calls(S2):
    class Counted(SmoothF):
        calls = grad_calls = 0

        def __call__(self, t, y):
            self.calls += 1
            return super().__call__(t, y)

        def grad_d(self, t, y):
            self.grad_calls += 1
            return super().grad_d(t, y)

    f = Counted()
    intrinsic_norm_est(f, 1.5, S2, SamplerSpec(box=BOX))
    assert f.calls <= 8
    # the gradient's slice norms are computed once, for the sliced part and
    # the gradient part alike
    assert f.grad_calls <= 5


# ---------------------------------------------------------------------------
# Second-order Taylor polynomial and remainder ladder
# ---------------------------------------------------------------------------


def test_taylor_polynomial_exact_on_quadratics():
    class Quad:
        def __call__(self, t, y):
            return y[:, 1] + y[:, 0] ** 2

        def grad_d(self, t, y):
            return (2.0 * y[:, 0])[:, None]

        def hess_d(self, t, y):
            return np.full((len(y), 1, 1), 2.0)

    q = Quad()
    y = np.array([0.2, -0.1])
    z = np.array([0.05, 0.3])
    # Offsets act only on the first d coordinates of the polynomial.
    expected = (-0.1 + 0.2**2) + 0.05 * 2.0 * 0.2 + 0.05**2
    got = _taylor_t2_stack(q, np.full(1, 0.3), y[None], z[None])
    assert got.shape == (1,)
    assert got[0] == pytest.approx(expected, abs=1e-15)


def test_taylor_ladder_bounded_for_smooth_function(S2):
    spec = SamplerSpec(box=BOX, n_base=16, n_directions=4, levels=8)
    tc = taylor_remainder_check(SmoothF(), 0.5, S2, spec)
    assert tc.ratios.shape == (8,)
    assert np.all(np.diff(tc.ratios) >= 0.0)  # cumulative by construction
    assert tc.bounded_factor < 2.0
    assert abs(tc.exponent) < 0.5


def test_taylor_ladder_diverges_on_a_kink(S2):
    # |x1| with its a.e. derivatives: the remainder quotient grows like 1/h
    # at the kink, so the ladder diverges with exponent near -1.
    class Kink:
        def __call__(self, t, y):
            return np.abs(y[:, 0])

        def grad_d(self, t, y):
            return np.sign(y[:, 0])[:, None]

        def hess_d(self, t, y):
            return np.zeros((len(y), 1, 1))

    spec = SamplerSpec(box=BOX, n_base=16, n_directions=4, levels=8)
    tc = taylor_remainder_check(Kink(), 0.5, S2, spec)
    assert tc.bounded_factor > 10.0
    assert tc.exponent < -0.8


def test_sampler_spec_validation(S2):
    with pytest.raises(InvalidData):
        SamplerSpec(box=BOX, n_base=0)
    with pytest.raises(InvalidData):
        anisotropic_norm_est(sine, 0.5, S2, SamplerSpec(box=((0.0, 1.0),)))
