"""Tests for dense linear algebra helpers."""

import numpy as np
import pytest
import scipy.linalg

from qrf_lab import Z3
from qrf_lab.dynamics import split_hamiltonian
from qrf_lab.operators import (
    ID2,
    NumericalRankError,
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    assert_hermitian,
    assert_unitary,
    conjugation_superop,
    dagger,
    degenerate_blocks,
    embed_operator,
    fixed_space_projector,
    haar_state,
    haar_unitary,
    hs_inner,
    hs_norm,
    kron,
    matrix_exp_scaled,
    matrix_log,
    matrix_power,
    monomial_gather,
    partial_trace,
    polar_unitary,
    random_hermitian,
    unvec,
    vec,
)

from property_suites import haar_conjugated_z3_setup


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_X, ID2)
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert np.allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X)
    assert set(PAULI) == {"I", "X", "Y", "Z"}


def test_kron_and_dagger():
    a = np.array([[0, 1j], [0, 0]])
    assert np.allclose(dagger(a), np.array([[0, 0], [-1j, 0]]))
    assert np.allclose(kron(ID2, SIGMA_X, SIGMA_Z),
                       np.kron(ID2, np.kron(SIGMA_X, SIGMA_Z)))


def test_partial_trace_of_product():
    rng = np.random.default_rng(0)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    ab = kron(a, b)
    assert np.allclose(partial_trace(ab, (2, 3), drop=1), a * np.trace(b))
    assert np.allclose(partial_trace(ab, (2, 3), drop=0), b * np.trace(a))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(1)
    m = random_hermitian(rng, 6)
    reduced = partial_trace(m, (2, 3), drop=1)
    assert np.isclose(np.trace(reduced), np.trace(m))


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(2)
    m = random_hermitian(rng, 3)
    assert np.allclose(unvec(vec(m), 3), m)


def test_hs_inner_and_norm():
    assert np.isclose(hs_inner(SIGMA_X, SIGMA_X), 2.0)
    assert np.isclose(hs_inner(SIGMA_X, SIGMA_Z), 0.0)
    assert np.isclose(hs_norm(SIGMA_Y), np.sqrt(2.0))


def test_assert_unitary_reports_residual():
    with pytest.raises(ValueError, match="max|"):
        assert_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert_unitary(SIGMA_Y)


def test_assert_hermitian():
    with pytest.raises(ValueError):
        assert_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert_hermitian(SIGMA_Y)
    assert_hermitian(np.zeros((3, 3)))


def test_assert_hermitian_is_relative_to_the_largest_entry():
    """A tiny non-Hermitian matrix raises; a huge Hermitian one with round-off passes."""
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_hermitian(1e-12 * np.array([[0.0, 1.0], [0.0, 0.0]]))
    # The perspective change of a dense rep leaves an anti-Hermitian round-off of order eps ||H||.
    setup = haar_conjugated_z3_setup()
    h = random_hermitian(np.random.default_rng(0), 9)
    for scale in (1e6, 1e8):
        big = h * (scale / np.linalg.norm(h, 2))
        for g_i in Z3.elements:
            for g_j in Z3.elements:
                moved = setup.perspective_change(g_i, g_j).conjugate(big)
                split = split_hamiltonian(moved, 3, 3)
                assert np.abs(split.total - moved).max() <= 1e-14 * scale


def test_matrix_exp_scaled_matches_scipy():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    assert np.allclose(matrix_exp_scaled(h, -1j * 0.7),
                       scipy.linalg.expm(-1j * 0.7 * h), atol=1e-12)


def test_matrix_log_and_power():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 3)
    rho = scipy.linalg.expm(h)
    rho = rho / np.trace(rho)
    assert np.allclose(scipy.linalg.expm(matrix_log(rho)), rho, atol=1e-10)
    assert np.allclose(matrix_power(rho, 2.0), rho @ rho, atol=1e-12)


def test_polar_unitary():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = polar_unitary(m)
    assert np.allclose(u @ dagger(u), np.eye(3), atol=1e-10)


def test_embed_operator():
    full = embed_operator({1: SIGMA_X}, (2, 2, 2))
    assert np.allclose(full, kron(ID2, SIGMA_X, ID2))


def test_degenerate_blocks():
    blocks = degenerate_blocks([3.0, 3.0 - 1e-12, 1.0, 0.0], gap=1e-6)
    assert blocks == [slice(0, 2), slice(2, 3), slice(3, 4)]


def test_conjugation_superop():
    rng = np.random.default_rng(6)
    u = haar_unitary(rng, 3)
    f = random_hermitian(rng, 3)
    k = conjugation_superop(u)
    assert np.allclose(unvec(k @ vec(f), 3), u @ f @ dagger(u), atol=1e-12)


def test_fixed_space_projector_of_conjugation():
    # Fixed operators of conjugation by sigma_z are the diagonal ones.
    k = conjugation_superop(SIGMA_Z)
    space = fixed_space_projector(k)
    assert space.basis.shape[1] == 2
    f = np.array([[0.3, 0.4], [0.4, 0.7]])
    projected = unvec(space.projector @ vec(f), 2)
    assert np.allclose(projected, np.diag([0.3, 0.7]), atol=1e-12)


def test_fixed_space_projector_guard_band():
    # Eigenvalues crowding the threshold leave no clean rank gap.
    k = np.diag([1.0, 1.0 - 5e-9, 0.0])
    with pytest.raises(NumericalRankError):
        fixed_space_projector(k, tol=1e-9)


def test_haar_state_normalized():
    rng = np.random.default_rng(7)
    psi = haar_state(rng, 5)
    assert np.isclose(np.linalg.norm(psi), 1.0)


def test_monomial_gather_accepts_only_one_nonzero_per_row_and_column():
    y = kron(SIGMA_Y, SIGMA_X)
    flat, phases = monomial_gather([0], y[None])
    assert np.array_equal(phases, [-1j, -1j, 1j, 1j])
    f = np.arange(16.0).reshape(4, 4) + 1j
    assert np.array_equal(((phases[:, None] * f.reshape(-1)[flat].reshape(4, 4)) * phases.conj()),
                          y @ f @ dagger(y))
    # Two blocks placed by perm: a permutation has no phases.
    flat, phases = monomial_gather([1, 0], np.array([SIGMA_X, ID2]))
    assert phases is None
    w = np.zeros((4, 4))
    w[0:2, 2:4], w[2:4, 0:2] = SIGMA_X.real, np.eye(2)
    assert np.array_equal(f.reshape(-1)[flat].reshape(4, 4), w @ f @ w.T)
    for not_monomial in ([[1, 0], [1, 0]], [[1, 1], [0, 1]], [[0, 0], [0, 1]], [[1, 0], [0, 0]]):
        assert monomial_gather([0], np.array([not_monomial], dtype=complex)) == (None, None)
    assert monomial_gather([0], haar_unitary(np.random.default_rng(2), 3)[None]) == (None, None)
