"""Coefficient fields, datum/source families and problem validation."""

import numpy as np
import pytest

from kolkin import (
    CauchyProblem,
    InvalidData,
    make_coefficients,
    make_datum,
    make_source,
)
from kolkin.coefficients import ellipticity_check


# ----------------------------------------------------------------------
# coefficient fields
# ----------------------------------------------------------------------


def test_constant_field(cf_const):
    t = np.array([0.2, 0.9])
    x = np.zeros((2, 2))
    np.testing.assert_allclose(cf_const.a2(t, x), np.ones((2, 1, 1)))
    assert cf_const.space_dependent_a2 is False
    assert cf_const.constant_a2 is not None


def test_sinusoidal_field_bounds(cf_sin):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 2))
    t = np.zeros(50)
    vals = cf_sin.a2(t, x)[:, 0, 0]
    assert np.all(vals >= 0.7 - 1e-12) and np.all(vals <= 1.3 + 1e-12)
    # a2 = base + amplitude * sin(x_axis), default axis 1
    np.testing.assert_allclose(vals, 1.0 + 0.3 * np.sin(x[:, 1]), rtol=1e-12)
    assert cf_sin.space_dependent_a2 is True


def test_piecewise_field_panels(cf_piecewise):
    x = np.zeros((3, 2))
    vals = cf_piecewise.a2(np.array([0.2, 0.5, 0.8]), x)[:, 0, 0]
    np.testing.assert_allclose(vals, [1.0, 2.0, 2.0])
    assert cf_piecewise.t_breaks == (0.5,)


def test_ellipticity_check(cf_sin):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 2))
    ok, lo, hi = ellipticity_check(cf_sin, np.zeros(200), x)
    assert ok
    assert 0.7 - 1e-9 <= lo <= hi <= 1.3 + 1e-9


def test_sinusoidal_requires_ellipticity():
    with pytest.raises(InvalidData):
        make_coefficients("space-sinusoidal", d=1, base=1.0, amplitude=1.0)


def test_unknown_family_rejected():
    with pytest.raises(InvalidData):
        make_coefficients("turbulent", d=1)


def test_unused_coefficient_params_rejected():
    with pytest.raises(InvalidData):
        make_coefficients("constant", d=1, sigma2=1.0, bogus=3)


# ----------------------------------------------------------------------
# datum families (hand-computable point values)
# ----------------------------------------------------------------------


def test_datum_values():
    y = np.array([[0.3, -0.2], [0.0, 0.5]])
    assert make_datum("constant", value=2.5)(y) == pytest.approx([2.5, 2.5])
    assert make_datum("linear", c=(0.0, 1.0))(y) == pytest.approx([-0.2, 0.5])
    assert make_datum("abs")(y) == pytest.approx([0.3, 0.0])
    assert make_datum("kink-power", beta=0.5)(y) == pytest.approx(
        [np.sin(0.3) ** 0.5, 0.0]
    )
    assert make_datum("kink-power", beta=2.0)(y) == pytest.approx(
        [np.sin(0.3) ** 2, 0.0]
    )
    assert make_datum("signed-square")(y) == pytest.approx([0.045, 0.0])
    assert make_datum("sine", phase=0.37)(y) == pytest.approx(
        [np.sin(0.67), np.sin(0.37)]
    )


def test_datum_declared_regularity():
    assert make_datum("abs").beta == 1.0
    assert make_datum("kink-power", beta=0.5).beta == 0.5
    assert make_datum("signed-square").beta == 2.0
    assert make_datum("sine").beta == 2.0
    assert make_datum("linear", c=(1.0, 0.0)).beta == 1.0


def test_signed_square_is_odd_with_bounded_second_derivative():
    g = make_datum("signed-square")
    y = np.linspace(-1, 1, 201)
    pts = np.stack([y, np.zeros_like(y)], axis=1)
    vals = g(pts)
    np.testing.assert_allclose(vals, -g(-pts), atol=1e-15)
    # second difference jumps from -1 to +1 across 0 but stays bounded
    h = y[1] - y[0]
    second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
    assert np.max(np.abs(second)) <= 1.0 + 1e-6


def test_unused_datum_params_rejected():
    with pytest.raises(InvalidData):
        make_datum("sine", wavelength=2.0)


def test_unknown_datum_rejected():
    with pytest.raises(InvalidData):
        make_datum("chirp")


def test_kink_power_range_validated():
    with pytest.raises(InvalidData):
        make_datum("kink-power", beta=0.0)
    with pytest.raises(InvalidData):
        make_datum("kink-power", beta=2.5)


# ----------------------------------------------------------------------
# source families
# ----------------------------------------------------------------------


def test_source_values():
    y = np.array([[0.3, -0.2], [0.0, 0.5]])
    t = np.array([0.5, 0.5])
    assert make_source("constant")(t, y) == pytest.approx([1.0, 1.0])
    assert make_source("coordinate", axis=1)(t, y) == pytest.approx([-0.2, 0.5])
    assert make_source("sine")(t, y) == pytest.approx([np.sin(0.3), 0.0])


def test_coordinate_source_value_is_not_a_view_of_the_state():
    # the oracle advances its state in place after evaluating f
    y = np.array([[0.3, -0.2], [0.0, 0.5]])
    val = make_source("coordinate", axis=1)(np.array([0.5, 0.5]), y)
    y += 1.0
    np.testing.assert_array_equal(val, [-0.2, 0.5])


def test_weighted_time_source_scaling():
    f = make_source("weighted-time", gamma=0.5, T=1.0)
    y = np.array([[0.3, 0.0]])
    # (T - t)^gamma * f is independent of t
    v1 = f(np.array([0.5]), y)[0] * 0.5**0.5
    v2 = f(np.array([0.9]), y)[0] * 0.1**0.5
    assert v1 == pytest.approx(v2)
    assert f.gamma == 0.5


def test_weighted_time_needs_horizon():
    with pytest.raises(InvalidData):
        make_source("weighted-time", gamma=0.5)


def test_unused_source_params_rejected():
    with pytest.raises(InvalidData):
        make_source("constant", magnitude=2.0)


# ----------------------------------------------------------------------
# problem assembly and validation
# ----------------------------------------------------------------------


def test_problem_exposes_beta_gamma(S2, cf_const):
    pb = CauchyProblem(
        cf=cf_const,
        S=S2,
        T=1.0,
        g=make_datum("abs"),
        f=make_source("weighted-time", gamma=0.25, T=1.0),
        alpha=0.5,
    )
    assert pb.beta == 1.0
    assert pb.gamma == 0.25


def test_alpha_must_sit_below_coefficient_smoothness(S2, cf_sin):
    # the sinusoidal family declares smoothness index 1/3
    assert cf_sin.alpha_bar == pytest.approx(1.0 / 3.0)
    with pytest.raises(InvalidData):
        CauchyProblem(cf=cf_sin, S=S2, T=1.0, g=make_datum("sine"), alpha=0.5)
    CauchyProblem(cf=cf_sin, S=S2, T=1.0, g=make_datum("sine"), alpha=0.3)


def test_horizon_validated(S2, cf_const):
    with pytest.raises(InvalidData):
        CauchyProblem(cf=cf_const, S=S2, T=-1.0, g=make_datum("sine"))
    with pytest.raises(InvalidData):
        CauchyProblem(cf=cf_const, S=S2, T=5.0, g=make_datum("sine"))


def test_source_weight_validated(S2, cf_const):
    with pytest.raises(InvalidData):
        CauchyProblem(
            cf=cf_const,
            S=S2,
            T=1.0,
            f=make_source("weighted-time", gamma=1.0, T=1.0),
        )
