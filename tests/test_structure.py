"""Drift-structure validation, ranks, dilations and the anisotropic norm."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kolkin import (
    HormanderViolation,
    NotCanonicalForm,
    StructuralError,
    anisotropic_norm,
    block_structure,
    controllability_gramian_rank,
    dilation,
    kalman_rank,
    matrix_exp,
)
from kolkin.structure import expm_stack
from kolkin.suites import random_canonical_drift


def langevin():
    return np.array([[0.0, 0.0], [1.0, 0.0]])


def chain(n):
    B = np.zeros((n, n))
    for i in range(1, n):
        B[i, i - 1] = 1.0
    return B


# ----------------------------------------------------------------------
# block decomposition
# ----------------------------------------------------------------------


def test_langevin_blocks(S2):
    assert S2.N == 2 and S2.d == 1
    assert S2.blocks == (1, 1)
    assert S2.Q == 4
    np.testing.assert_array_equal(S2.weights, [1.0, 3.0])


def test_chain3_blocks(S3):
    assert S3.blocks == (1, 1, 1)
    assert S3.Q == 1 + 3 + 5
    np.testing.assert_array_equal(S3.weights, [1.0, 3.0, 5.0])


def test_two_one_block_structure():
    # d = 2 diffusive coordinates feeding one degenerate coordinate:
    # blocks (2, 1), homogeneous dimension 1*2 + 3*1.
    B = np.zeros((3, 3))
    B[2, 0] = 1.0
    S = block_structure(B, d=2)
    assert S.blocks == (2, 1)
    assert S.Q == 5
    np.testing.assert_array_equal(S.weights, [1.0, 1.0, 3.0])


def test_rank_deficient_drift_rejected():
    with pytest.raises(HormanderViolation):
        block_structure(np.zeros((2, 2)), d=1)


def test_non_canonical_forms_rejected():
    # entry below the first sub-diagonal band
    B = np.zeros((3, 3))
    B[1, 0] = 1.0
    B[2, 1] = 1.0
    B[2, 0] = 0.5
    with pytest.raises(NotCanonicalForm):
        block_structure(B, d=1)
    # increasing block sizes cannot occur in the canonical form: a single
    # diffusive coordinate cannot feed two independent ones
    B2 = np.zeros((3, 3))
    B2[1, 0] = 1.0
    B2[2, 0] = 1.0
    with pytest.raises((NotCanonicalForm, HormanderViolation)):
        block_structure(B2, d=1)


def test_bad_d_rejected():
    with pytest.raises(StructuralError):
        kalman_rank(langevin(), 0)
    with pytest.raises(StructuralError):
        kalman_rank(langevin(), 3)


# ----------------------------------------------------------------------
# controllability ranks
# ----------------------------------------------------------------------


def test_kalman_rank_langevin():
    ok, rank = kalman_rank(langevin(), 1)
    assert ok and rank == 2


def test_kalman_rank_chain6():
    ok, rank = kalman_rank(chain(6), 1)
    assert ok and rank == 6


def test_kalman_rank_deficient():
    ok, rank = kalman_rank(np.zeros((3, 3)), 1)
    assert not ok and rank == 1


def test_gramian_rank_matches_kalman_on_random_drifts():
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    for _ in range(30):
        B, d = random_canonical_drift(rng)
        _, k = kalman_rank(B, d)
        g = controllability_gramian_rank(B, d)
        assert g == k, f"Gramian rank {g} != Kalman rank {k} for\n{B} (d={d})"


def test_gramian_rank_long_chain():
    # worst conditioning: Gramian spectrum of the chain spans ~16 orders
    assert controllability_gramian_rank(chain(6), 1) == 6
    B = chain(6)
    B[3, 2] = 0.0  # break the chain: coordinates 4..6 become unreachable
    _, k = kalman_rank(B, 1)
    assert controllability_gramian_rank(B, 1) == k == 3


# ----------------------------------------------------------------------
# matrix exponentials
# ----------------------------------------------------------------------


def test_matrix_exp_nilpotent_exact():
    # chain drift: e^(tB) has entries t^k / k! on the k-th sub-diagonal
    t = 2.0
    E = matrix_exp(chain(3), t)
    expected = np.array([[1.0, 0.0, 0.0], [t, 1.0, 0.0], [t * t / 2, t, 1.0]])
    np.testing.assert_allclose(E, expected, rtol=0, atol=1e-14)


def test_expm_stack_matches_scipy():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(4, 4))
    times = np.array([-1.3, 0.0, 0.2, 2.5])
    got = expm_stack(B, times)
    want = np.stack([scipy.linalg.expm(u * B) for u in times])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_expm_stack_rejects_nonfinite():
    with pytest.raises(StructuralError):
        expm_stack(langevin(), [np.nan])


def _expm_stack_every_row(B, times):
    """Reference: the same scaling and squaring on every row, repeats included."""
    B = np.asarray(B, dtype=float)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    N = B.shape[0]
    if times.size == 0:
        return np.zeros((0, N, N))
    scale = float(np.linalg.norm(B, 1)) * float(np.abs(times).max())
    m = 0
    while scale > 0.5 and m < 60:
        scale *= 0.5
        m += 1
    u = times / (2.0**m)
    n_terms = 18
    P = np.empty((n_terms, N, N))
    P[0] = np.eye(N)
    for k in range(1, n_terms):
        P[k] = P[k - 1] @ B
    coeffs = 1.0 / np.cumprod(np.concatenate([[1.0], np.arange(1, n_terms)]))
    U = u[:, None] ** np.arange(n_terms)[None, :]
    E = np.einsum("mk,k,kij->mij", U, coeffs, P)
    for _ in range(m):
        E = E @ E
    return E


def _repeated_stacks():
    rng = np.random.default_rng(11)
    pool = np.concatenate([rng.normal(scale=2.0, size=40), [0.0, -0.0, 1e-7, -3e-5]])
    heavy = rng.choice(pool, size=5000)
    yield heavy
    # a negative time holds the largest |u|, twice, amid signed zeros
    yield np.array([0.0, -0.0, -2.5, 0.3, 2.5, -2.5, 0.0, 0.3, -0.0])
    yield np.array([0.7])
    yield np.array([-0.0])
    yield np.array([])
    yield np.full(300, 0.125)


@pytest.mark.parametrize(
    "B",
    [
        langevin(),
        chain(3),
        np.array([[-1.0, 0.0], [1.0, 0.0]]),
        np.kron(np.eye(2, k=-1), np.eye(2)),
    ],
    ids=["kinetic", "chain3", "damped", "kinetic-d2"],
)
def test_expm_stack_equals_the_every_row_reference_bitwise(B):
    for times in _repeated_stacks():
        got = expm_stack(B, times)
        want = _expm_stack_every_row(B, times)
        assert got.shape == want.shape == (times.size,) + B.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("times", [[0.4, -1.0, 0.4, 0.4], [0.4, 0.4, 0.4]])
def test_expm_stack_rows_with_equal_times_do_not_alias(times):
    E = expm_stack(langevin(), times)
    twin = E[2].copy()
    E[0] += 1.0
    assert np.array_equal(E[2], twin)
    assert np.array_equal(E[-1], twin)


# ----------------------------------------------------------------------
# anisotropic norm, dilations, weighted lengths
# ----------------------------------------------------------------------


def test_anisotropic_norm_hand_value(S2):
    # |0.09|^(1/1) + |-0.008|^(1/3) = 0.09 + 0.2
    assert anisotropic_norm(np.array([0.09, -0.008]), S2) == pytest.approx(0.29)


def test_anisotropic_norm_batched(S2):
    pts = np.array([[0.09, -0.008], [1.0, 1.0]])
    np.testing.assert_allclose(anisotropic_norm(pts, S2), [0.29, 2.0])


def test_dilation_weights(S2):
    np.testing.assert_allclose(
        dilation(S2, 0.5, np.array([1.0, 1.0])), [0.5, 0.125]
    )


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(min_value=1e-3, max_value=1e3),
    x1=st.floats(min_value=-10, max_value=10),
    x2=st.floats(min_value=-10, max_value=10),
)
def test_dilation_scales_norm_exactly(S2, lam, x1, x2):
    x = np.array([x1, x2])
    scaled = anisotropic_norm(dilation(S2, lam, x), S2)
    assert scaled == pytest.approx(lam * anisotropic_norm(x, S2), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    x=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    y=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
)
def test_anisotropic_norm_triangle_inequality(S2, x, y):
    # |a + b|^(1/w) <= |a|^(1/w) + |b|^(1/w) holds per coordinate for w >= 1
    x, y = np.asarray(x), np.asarray(y)
    assert anisotropic_norm(x + y, S2) <= anisotropic_norm(x, S2) + anisotropic_norm(
        y, S2
    ) + 1e-12


def test_dimension_mismatch_rejected(S2):
    with pytest.raises(StructuralError):
        anisotropic_norm(np.array([1.0, 2.0, 3.0]), S2)


# ----------------------------------------------------------------------
# random drift generator used by the verification suites
# ----------------------------------------------------------------------


def test_drift_terms_list_exactly_the_nonzero_entries():
    dense = np.array([[0.3, 0.2], [1.0, -0.5]])
    assert block_structure(dense, 1).drift_terms == (
        (0, 0, 0.3), (0, 1, 0.2), (1, 0, 1.0), (1, 1, -0.5)
    )
    assert block_structure(chain(3), 1).drift_terms == ((1, 0, 1.0), (2, 1, 1.0))
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    for _ in range(30):
        B, d = random_canonical_drift(rng)
        if not kalman_rank(B, d)[0]:
            continue
        terms = block_structure(B, d).drift_terms
        rebuilt = np.zeros_like(B)
        for i, j, b in terms:
            assert b != 0.0
            rebuilt[i, j] = b
        assert len(terms) == np.count_nonzero(B)
        assert np.array_equal(rebuilt, B)


def test_random_canonical_drift_properties():
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    seen_violation = False
    seen_valid = False
    for _ in range(50):
        B, d = random_canonical_drift(rng)
        N = B.shape[0]
        assert 1 <= d <= N <= 6
        ok, _ = kalman_rank(B, d)
        seen_violation |= not ok
        seen_valid |= ok
    assert seen_violation and seen_valid
