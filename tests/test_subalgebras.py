"""Tests for invariant-subalgebra projectors, membership, and witnesses."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from qrf_lab import FrameSetup, Z2, Z3, Z4
from qrf_lab.operators import (
    ID2,
    PAULI,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    haar_unitary,
    hs_inner,
    hs_norm,
    kron,
    random_hermitian,
)
from qrf_lab.subalgebras import (
    BilocalUnitary,
    LocalityViolationError,
    classify_local_operator,
    four_component_decomposition,
    intersect_projectors,
    invariant_projector,
    membership_scan,
    membership_test,
    pi_d,
    pi_t,
    pure_state_bilocal_witness,
    transport_bilocal,
)

E = (0,)
FLIP = (1,)


def qubit_setup():
    return FrameSetup.from_rep_config(Z2, "regular")


def ising_chain(a, b, c):
    return (a * kron(SIGMA_Z, ID2) + b * kron(ID2, SIGMA_Z)
            + c * kron(SIGMA_Z, SIGMA_Z))


def test_pi_t_examples():
    setup = qubit_setup()
    rng = np.random.default_rng(0)
    assert np.allclose(pi_t(setup, kron(ID2, SIGMA_Z)), 0.0, atol=1e-12)
    a = random_hermitian(rng, 2)
    fixed = kron(a, SIGMA_X)
    assert np.allclose(pi_t(setup, fixed), fixed, atol=1e-12)
    f = random_hermitian(rng, 4)
    assert np.allclose(pi_t(setup, pi_t(setup, f)), pi_t(setup, f), atol=1e-12)


def test_pi_d_examples():
    setup = qubit_setup()
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 2)
    fixed = kron(SIGMA_Z, a)
    assert np.allclose(pi_d(setup, fixed), fixed, atol=1e-12)
    assert np.allclose(pi_d(setup, kron(SIGMA_X, ID2)), 0.0, atol=1e-12)
    f = random_hermitian(rng, 4)
    comm = pi_d(setup, pi_t(setup, f)) - pi_t(setup, pi_d(setup, f))
    assert hs_norm(comm) < 1e-12


def test_four_component_decomposition():
    setup = FrameSetup.from_rep_config(Z3, "regular")
    rng = np.random.default_rng(2)
    f = random_hermitian(rng, setup.d_perspective)
    parts = four_component_decomposition(setup, f)
    pieces = [parts.dt, parts.dtp, parts.dpt, parts.dptp]
    assert np.allclose(sum(pieces), f, atol=1e-10)
    for x, y in itertools.combinations(pieces, 2):
        assert abs(hs_inner(x, y)) < 1e-10


def test_invariant_projector_dimensions():
    setup = qubit_setup()
    identity_x = BilocalUnitary(ID2, ID2)
    flip_x = BilocalUnitary(ID2, SIGMA_X)
    proj_identity = invariant_projector(setup, identity_x, E, E)
    proj_flip = invariant_projector(setup, flip_x, E, E)
    assert proj_identity.dimension == 10
    assert proj_flip.dimension == 10
    both = intersect_projectors(proj_identity, proj_flip)
    assert both.dimension == 6


def test_invariant_projector_contains_members():
    setup = qubit_setup()
    proj = invariant_projector(setup, BilocalUnitary(ID2, ID2), E, E)
    assert proj.contains(ising_chain(1.0, 1.0, 1.0))
    assert not proj.contains(kron(SIGMA_X, ID2))


def test_ising_membership_follows_transported_witness():
    setup = qubit_setup()
    h = ising_chain(1.0, 1.0, 1.0)
    base = BilocalUnitary(ID2, ID2)
    expected = {
        (E, E): kron(ID2, ID2),
        (E, FLIP): kron(SIGMA_X, SIGMA_X),
        (FLIP, E): kron(SIGMA_X, ID2),
        (FLIP, FLIP): kron(ID2, SIGMA_X),
    }
    for (g1, g2), x_matrix in expected.items():
        x = transport_bilocal(setup, base, (E, E), (g1, g2))
        assert np.allclose(kron(x.y, x.z), x_matrix, atol=1e-12)
        result = membership_test(setup, h, x, g1, g2)
        assert result.is_member
        assert result.residual < 1e-12


def test_ising_with_strong_coupling_has_no_pauli_witness():
    setup = qubit_setup()
    h = ising_chain(1.0, 1.0, 2.0)
    candidates = [BilocalUnitary(PAULI[a], PAULI[b])
                  for a in "IXYZ" for b in "IXYZ"]
    results = membership_scan(setup, h, candidates, FLIP, FLIP)
    assert all(not r.is_member for _, r in results)
    best = min(r.residual for _, r in results)
    assert np.isclose(best, 2.8284271247461903, atol=1e-9)


def test_bilocal_unitary_caches_a_read_only_matrix():
    y = np.array(SIGMA_X.real)
    x = BilocalUnitary(y, SIGMA_Z)
    mat = x.matrix
    assert np.array_equal(mat, kron(SIGMA_X, SIGMA_Z))
    assert x.matrix is mat
    assert not mat.flags.writeable
    assert not x.y.flags.writeable and not x.z.flags.writeable
    assert x.y.dtype == complex
    y[0, 0] = 5.0  # the instance holds a copy
    assert np.array_equal(x.y, SIGMA_X)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.y = ID2
    with pytest.raises(ValueError):
        mat[0, 0] = 2.0


def test_bilocal_conjugate_matches_the_dense_product():
    rng = np.random.default_rng(19)
    phases = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    cases = [
        (Z3.regular_representation((1,)), kron(Z3.regular_representation((2,)), np.eye(3)), True),
        (phases @ Z3.regular_representation((1,)), np.eye(2), False),
        (haar_unitary(rng, 3), haar_unitary(rng, 4), False),
        (np.eye(2), haar_unitary(rng, 3), False),
    ]
    for y, z, permutation in cases:
        x = BilocalUnitary(y, z)
        d = x.matrix.shape[0]
        stack = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
        stack[:, 1, 0] = -0.0
        for ops in (stack, stack[2]):
            moved = x.conjugate(ops)
            dense = x.matrix @ ops @ dagger(x.matrix)
            assert moved.shape == dense.shape
            if permutation:
                assert moved.tobytes() == (dense + 0.0).tobytes()
            else:
                assert np.abs(moved - dense).max() <= 1e-14 * np.abs(dense).max()


def test_membership_test_reuses_the_transformed_stack():
    setup = FrameSetup.from_rep_config(Z3, "regular")
    rng = np.random.default_rng(23)
    x = BilocalUnitary(haar_unitary(rng, 3), haar_unitary(rng, 3))
    proj = invariant_projector(setup, x, (1,), (2,))
    stack = np.array([proj.apply(random_hermitian(rng, 9)), random_hermitian(rng, 9)])
    plain = membership_test(setup, stack, x, (1,), (2,))
    assert plain.is_member.tolist() == [True, False]
    moved = setup.perspective_change((1,), (2,)).conjugate(stack)
    reused = membership_test(setup, stack, x, (1,), (2,), transformed=moved)
    assert np.array_equal(reused.residual, plain.residual)
    assert reused.is_member.tolist() == [True, False]
    # The supplied stack is what the residual compares with x f x'.
    wrong = membership_test(setup, stack, x, (1,), (2,), transformed=stack)
    assert not wrong.is_member[0]


def test_membership_respects_tolerance_scaling():
    setup = qubit_setup()
    h = ising_chain(1.0, 1.0, 1.0) + 1e-12 * kron(SIGMA_X, ID2)
    result = membership_test(setup, h, BilocalUnitary(ID2, ID2), E, E)
    assert result.is_member


def test_transport_round_trip():
    setup = qubit_setup()
    x = BilocalUnitary(SIGMA_X, SIGMA_Z)
    moved = transport_bilocal(setup, x, (E, E), (FLIP, E))
    back = transport_bilocal(setup, moved, (FLIP, E), (E, E))
    assert np.allclose(back.y, x.y, atol=1e-12)
    assert np.allclose(back.z, x.z, atol=1e-12)


def test_pure_state_witness_found_for_member_state():
    setup = qubit_setup()
    amps = np.array([1.0, np.sqrt(2.0)]) / np.sqrt(3.0)
    psi = np.kron(np.array([0.0, 1.0]), amps)
    witness = pure_state_bilocal_witness(setup, psi, E, E)
    assert witness is not None
    rho = np.outer(psi, psi.conj())
    assert membership_test(setup, rho, witness, E, E).is_member


def test_pure_state_witness_absent_for_generic_state():
    setup = qubit_setup()
    rng = np.random.default_rng(3)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = psi / np.linalg.norm(psi)
    assert pure_state_bilocal_witness(setup, psi, E, E) is None


def test_classify_local_operators():
    setup = qubit_setup()
    s_flip = classify_local_operator(setup, kron(ID2, SIGMA_X), "s_local", E, E)
    assert s_flip.tps_invariant
    assert s_flip.unitary_invariant_all_orientations
    s_z = classify_local_operator(setup, kron(ID2, SIGMA_Z), "s_local", E, E)
    assert not s_z.tps_invariant
    f_z = classify_local_operator(setup, kron(SIGMA_Z, ID2), "frame_local", E, E)
    assert f_z.tps_invariant
    f_x = classify_local_operator(setup, kron(SIGMA_X, ID2), "frame_local", E, E)
    assert not f_x.tps_invariant


def test_classify_rejects_nonlocal_operator():
    setup = qubit_setup()
    with pytest.raises(LocalityViolationError):
        classify_local_operator(setup, kron(SIGMA_Z, SIGMA_Z), "s_local", E, E)


def test_invariant_projector_refuses_oversized_superoperator():
    """d_p = 64 would need 4096 x 4096 superoperators; the guard fires first."""
    setup = FrameSetup.from_rep_config(Z4, {"tensor_power": 2})
    e = Z4.identity
    x = BilocalUnitary(np.eye(setup.d_frame), np.eye(setup.d_s))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"d_p = 64 .* estimated \d+ bytes"):
            invariant_projector(setup, x, e, e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_size_guard_admits_d27():
    """The largest ladder setup, Z3 with tensor_power 2 (d_p = 27), passes the guard."""
    setup = FrameSetup.from_rep_config(Z3, {"tensor_power": 2})
    e = Z3.identity
    x = BilocalUnitary(np.eye(setup.d_frame), np.eye(setup.d_s))
    projector = invariant_projector(setup, x, e, e)
    assert projector.contains(np.eye(setup.d_perspective))
