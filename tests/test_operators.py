"""Tests for dense linear algebra helpers."""

import numpy as np
import pytest

from qrf_lab import Z3
from qrf_lab.dynamics import split_hamiltonian
from qrf_lab.operators import (
    ID2,
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    NumericalRankError,
    align_clusters,
    assert_hermitian,
    assert_unitary,
    clusters,
    dagger,
    eigenspaces,
    hs_inner,
    hs_norm,
    kron,
    monomial_gather,
    partial_trace,
    stack_times,
    trace_product,
    unvec,
    vec,
)
from qrf_lab.states import purity

from property_suites import (
    conjugation_superop,
    haar_conjugated_z3_setup,
    haar_state,
    haar_unitary,
    random_hermitian,
)


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


@pytest.mark.parametrize("drop", [2, -1, (0,)])
def test_partial_trace_refuses_a_factor_outside_the_bipartition(drop):
    """The one bipartition has factors 0 and 1, and drop names one of them, not a tuple of them."""
    with pytest.raises(ValueError, match="factor index out of range"):
        partial_trace(np.eye(6), (2, 3), drop)


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(2)
    m = random_hermitian(rng, 3)
    assert np.allclose(unvec(vec(m), 3), m)


def test_hs_inner_and_norm():
    assert np.isclose(hs_inner(SIGMA_X, SIGMA_X), 2.0)
    assert np.isclose(hs_inner(SIGMA_X, SIGMA_Z), 0.0)
    assert np.isclose(hs_norm(SIGMA_Y), np.sqrt(2.0))


def test_stack_hs_norm_matches_the_norm_of_each_matrix():
    """One norm per matrix, within a few ulps of np.linalg.norm, for complex and real
    stacks, non-square matrices, a non-contiguous view, extra leading axes and zeros."""
    rng = np.random.default_rng(17)
    complex_stack = rng.normal(size=(5, 3, 7)) + 1j * rng.normal(size=(5, 3, 7))
    stacks = [
        complex_stack,
        rng.normal(size=(4, 6, 6)),
        complex_stack.swapaxes(-1, -2),
        1e150 * rng.normal(size=(2, 3, 4, 4)),
        np.zeros((3, 4, 4), dtype=complex),
        np.zeros((2, 5, 3)),
    ]
    for stack in stacks:
        norms = hs_norm(stack)
        assert norms.shape == stack.shape[:-2]
        expected = np.array([np.linalg.norm(m) for m in stack.reshape((-1,) + stack.shape[-2:])])
        assert np.all(np.abs(norms.ravel() - expected) <= 4 * np.spacing(expected)), stack.shape
    assert np.array_equal(hs_norm(np.zeros((3, 4, 4), dtype=complex)), np.zeros(3))


def _layouts(stack):
    """stack's values in C order, in Fortran order, and as the conjugate-transposed view of a C array that
    the dense branch of StructuredUnitary.conjugate returns."""
    return {"C": np.ascontiguousarray(stack), "F": np.asfortranarray(stack),
            "dagger view": dagger(np.ascontiguousarray(dagger(stack)))}


def _bits(value):
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_reductions_depend_on_the_values_alone(kind):
    """hs_norm, trace_product, hs_inner and purity give each matrix of a stack the bits it gets alone
    in C order, for d from 2 to 27 and every layout of each operand, mixed ones too."""
    rng = np.random.default_rng(83)
    for d in range(2, 28):
        a, b = (rng.normal(size=(3, d, d)) + (1j * rng.normal(size=(3, d, d)) if kind == "complex" else 0)
                for _ in range(2))
        layouts_a, layouts_b = _layouts(a), _layouts(b)
        for name, stack in layouts_a.items():
            norms = hs_norm(stack)
            assert norms.shape == (3,) and isinstance(hs_norm(a[0]), float)
            for n in range(3):
                assert _bits(norms[n]) == _bits(hs_norm(a[n])) == _bits(hs_norm(stack[n])), (d, name)
            assert _bits(purity(stack)) == _bits([purity(m) for m in a]), (d, name)
            for other, stack_b in layouts_b.items():
                products, inner = trace_product(stack, stack_b), hs_inner(stack, stack_b)
                for n in range(3):
                    assert _bits(products[n]) == _bits(trace_product(a[n], b[n])), (d, name, other)
                    assert _bits(inner[n]) == _bits(hs_inner(a[n], b[n])), (d, name, other)


@pytest.mark.parametrize("k", [1, 2, 50, 512])
@pytest.mark.parametrize("d", [2, 4, 16, 64])
def test_stack_times_equals_the_broadcast_matmul_bit_for_bit(k, d):
    """One GEMM over the stack's rows gives the bits of stack @ mat, for a contiguous stack,
    a transposed view of it and every other matrix of it."""
    rng = np.random.default_rng(k * 100 + d)
    stack = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for view in (stack, stack.swapaxes(-1, -2), stack[::2]):
        assert np.array_equal(stack_times(view, mat), view @ mat)
    assert np.array_equal(stack_times(stack[0], mat), stack[0] @ mat)


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


def test_align_clusters():
    """A target basis that differs from its source by a unitary within each cluster is rotated onto it,
    in place and by a unitary: per cluster of the values, or over all columns for values None."""
    rng = np.random.default_rng(5)
    source = haar_unitary(rng, 5)
    values = np.array([0.1, 0.1, 0.3, 0.6, 0.6 + 1e-12])
    within = np.zeros((5, 5), dtype=complex)
    for blk in (slice(0, 2), slice(2, 3), slice(3, 5)):
        within[blk, blk] = haar_unitary(rng, blk.stop - blk.start)
    for clustered, rotation in ((values, within), (None, haar_unitary(rng, 5))):
        target = source @ rotation
        align_clusters([(target, source)], clustered, "the distance")
        assert np.abs(target - source).max() <= 1e-12
    before = haar_unitary(rng, 5)
    target = before.copy()
    align_clusters([(target, source)])
    u, _, vh = np.linalg.svd(dagger(before) @ source)
    assert np.allclose(target, before @ u @ vh, atol=1e-12)  # the polar factor, U V', of the overlap
    with pytest.raises(NumericalRankError, match="the distance 5.000e-08 is inside the guard band"):
        align_clusters([(target, source)], [0.0, 5e-8, 1.0, 1.0, 1.0], "the distance")


def test_clusters():
    same = clusters([3.0, 3.0 - 1e-12, 1.0, 0.0], 1e-6, "the distance")
    assert same.tolist() == [[True, True, False, False], [True, True, False, False],
                             [False, False, True, False], [False, False, False, True]]


def test_an_eigenvalue_chain_longer_than_the_gap_raises():
    """Neighbours 0.6 apart at the gap 1.0 would chain into one eigenspace of span 1.2; the span is
    inside the guard band, so the clustering is not an equivalence and raises."""
    with pytest.raises(NumericalRankError, match="eigenvalues 1.200e\\+00 is inside the guard band"):
        eigenspaces(np.diag([0.0, 0.6, 1.2]), 1.0)


def test_conjugation_superop():
    rng = np.random.default_rng(6)
    u = haar_unitary(rng, 3)
    f = random_hermitian(rng, 3)
    k = conjugation_superop(u)
    assert np.allclose(unvec(k @ vec(f), 3), u @ f @ dagger(u), atol=1e-12)


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
