"""Tests for the perspective change, checked against the kinematical construction."""

import tracemalloc

import numpy as np
import pytest

from qrf_lab import FiniteAbelianGroup, FrameSetup, Z2, Z2xZ2, Z3, Z4, frames
from qrf_lab.frames import parity_swap
from qrf_lab.operators import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    kron,
)
from qrf_lab.scenarios import parse_config

from kinematics import (
    d_kin,
    g_twirl,
    physical_basis,
    pi_phys,
    qrf_transform,
    reduction_map,
    relational_observable,
    u_kin,
)
from property_suites import haar_conjugated_z3_setup, haar_state, random_hermitian, setup_pool

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def qubit_setup():
    return FrameSetup.from_rep_config(Z2, "regular")


def test_setup_dimensions():
    setup = FrameSetup.from_rep_config(Z3, "regular")
    assert setup.d_frame == 3
    assert setup.d_s == 3
    assert d_kin(setup) == 27
    assert setup.d_perspective == 9


def test_setup_rejects_non_unitary_rep():
    with pytest.raises(ValueError, match="unitary"):
        FrameSetup(Z2, {(0,): np.eye(2), (1,): 2 * SIGMA_X})


def test_setup_rejects_non_homomorphism():
    rep = {(0,): np.eye(2), (1,): np.diag([1.0, 1j])}
    with pytest.raises(ValueError):
        FrameSetup(Z2, rep)


def test_setup_rejects_two_keys_for_one_element():
    """(1,) and 1 name one element of Z2, so the map does not cover each element exactly once;
    the later matrix used to replace the earlier one silently."""
    with pytest.raises(ValueError, match=r"keys \(1,\) and 1 name the same group element"):
        FrameSetup(Z2, {(0,): ID2, (1,): SIGMA_X, 1: SIGMA_Z})


@pytest.mark.parametrize("group, rep", [
    # Characters i^g of Z4, wrong only at the non-generator element (2,).
    (Z4, {(0,): [[1.0]], (1,): [[1j]], (2,): [[1.0]], (3,): [[-1j]]}),
    # U(1, 0) = X and U(0, 1) = Z do not commute, so no U(1, 1) makes a homomorphism.
    (Z2xZ2, {(0, 0): ID2, (1, 0): SIGMA_X, (0, 1): SIGMA_Z, (1, 1): SIGMA_X @ SIGMA_Z}),
])
def test_setup_rejects_a_rep_wrong_away_from_the_generators(group, rep):
    """The homomorphism is checked on generator steps U(g + e_k) = U(g) U(e_k); these reps
    are unitary and send the identity to 1, and each fails some step."""
    with pytest.raises(ValueError, match="not a homomorphism at pair"):
        FrameSetup(group, rep)


def test_a_setup_over_z2048_builds_no_group_table():
    """Validation and the perspective change read each element's translates as one index array,
    so a 1 x 1 rep over Z2048 (d_p = 2048, inside the budget) peaks far below the 32 MiB that a
    |G| x |G| index table takes."""
    group = FiniteAbelianGroup((2048,))
    rep = {g: [[np.exp(2j * np.pi * g[0] / 2048)]] for g in group.elements}
    tracemalloc.start()
    try:
        change = FrameSetup(group, rep).perspective_change((5,), (2047,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    # Row a = 5 + g holds U_S(g) in column 2047 - g.
    assert np.array_equal(change.perm, (2052 - np.arange(2048)) % 2048)
    assert np.allclose(change.blocks[:, 0, 0], np.exp(2j * np.pi * (np.arange(2048) - 5) / 2048), atol=1e-12)


def test_regular_and_tensor_power_setups_are_built_once_per_group_and_power():
    """An equal group and power give the shared setup, however the config spells them."""
    setup = FrameSetup.from_rep_config(Z2, "regular")
    assert FrameSetup.from_rep_config(FiniteAbelianGroup((2,)), {"tensor_power": 1}) is setup
    assert FrameSetup.from_rep_config(Z2, {"tensor_power": 2}) is not setup
    assert FrameSetup.from_rep_config(Z3, "regular") is not setup
    assert FrameSetup(Z2, {(0,): np.eye(2), (1,): SIGMA_X}) is not setup


@pytest.mark.parametrize("group, m, d_p", [(Z2, 5, 64), (Z4, 2, 64), (FiniteAbelianGroup((8,)), 1, 64),
                                           (Z2, 6, 128), (FiniteAbelianGroup((9,)), 1, 81),
                                           (FiniteAbelianGroup((5,)), 2, 125)])
def test_only_setups_up_to_d_p_64_are_shared(group, m, d_p):
    first = FrameSetup.from_rep_config(group, {"tensor_power": m})
    assert first.d_perspective == d_p
    assert (FrameSetup.from_rep_config(group, {"tensor_power": m}) is first) == (d_p <= 64)


def test_parse_config_shares_a_regular_setup_and_never_an_explicit_one():
    """A config holds its setup's group, so a shared setup brings one group object too."""
    first, second = (parse_config({"scenario": "zz-oscillation"}) for _ in range(2))
    assert second.setup is first.setup
    assert first.group is first.setup.group and second.group is first.group
    rep = {"matrices": {"0": [[1, 0], [0, 1]], "1": [[0, 1], [1, 0]]}}
    first, second = (parse_config({"scenario": "zz-oscillation", "rep": rep}) for _ in range(2))
    assert second.setup is not first.setup
    assert first.setup.translations.tobytes() == FrameSetup.from_rep_config(Z2, "regular").translations.tobytes()


def test_at_most_eight_setups_are_kept():
    frames._tensor_power_setup.cache_clear()
    small = [(Z2, 1), (Z2, 2), (Z2, 3), (Z2, 4), (Z3, 1), (Z3, 2), (Z4, 1), (Z2xZ2, 1),
             (FiniteAbelianGroup((5,)), 1)]
    for group, m in small:
        FrameSetup.from_rep_config(group, {"tensor_power": m})
    assert frames._tensor_power_setup.cache_info().currsize == 8


def test_pi_phys_is_a_projector():
    for group in (Z2, Z3, Z2xZ2):
        setup = FrameSetup.from_rep_config(group, "regular")
        pi = pi_phys(setup)
        assert np.allclose(pi @ pi, pi, atol=1e-12)
        assert np.allclose(pi, dagger(pi), atol=1e-12)
        rank = int(round(np.trace(pi).real))
        assert rank == group.order * setup.d_s


def test_reduction_map_is_a_coisometry():
    setup = FrameSetup.from_rep_config(Z3, "regular")
    r1 = reduction_map(setup, 1, (1,))
    assert np.allclose(r1 @ dagger(r1), np.eye(setup.d_perspective), atol=1e-12)
    assert np.allclose(dagger(r1) @ r1, pi_phys(setup), atol=1e-12)


def test_qrf_transform_unitary_and_composed_from_reductions():
    setup = FrameSetup.from_rep_config(Z3, "regular")
    g1, g2 = (1,), (2,)
    v = qrf_transform(setup, 1, 2, g1, g2)
    assert np.allclose(v @ dagger(v), np.eye(setup.d_perspective), atol=1e-12)
    direct = reduction_map(setup, 2, g2) @ dagger(reduction_map(setup, 1, g1))
    assert np.allclose(v, direct, atol=1e-12)
    back = qrf_transform(setup, 2, 1, g2, g1)
    assert np.allclose(back @ v, np.eye(setup.d_perspective), atol=1e-12)


def test_qubit_frame_change_is_cnot_like():
    setup = qubit_setup()
    v = qrf_transform(setup, 1, 2, (0,), (0,))
    expected = kron(np.diag([1.0, 0.0]), ID2) + kron(np.diag([0.0, 1.0]), SIGMA_X)
    assert np.allclose(v, expected, atol=1e-12)


def dense_perspective_unitary(setup, g_i, g_j):
    """sum_g |g_i g><g_j g^-1| (x) U_S(g), summed term by term as a dense matrix."""
    group = setup.group
    mat = np.zeros((setup.d_perspective, setup.d_perspective), dtype=complex)
    for g in group.elements:
        ket = np.zeros((setup.d_frame, 1))
        ket[group.index(group.compose(g_i, g)), 0] = 1.0
        bra = np.zeros((1, setup.d_frame))
        bra[0, group.index(group.compose(g_j, group.inverse(g)))] = 1.0
        mat += kron(ket @ bra, setup.u_s(g))
    return mat


def is_permutation_rep(setup):
    return bool(np.isin(setup.translations, (0.0, 1.0)).all())


def orientation_pairs(setup):
    return [(g_i, g_j) for g_i in setup.group.elements for g_j in setup.group.elements]


def test_perspective_unitary_is_cached_read_only():
    for setup in (qubit_setup(), FrameSetup.from_rep_config(Z2xZ2, "regular"),
                  FrameSetup.from_rep_config(Z3, {"tensor_power": 2}), haar_conjugated_z3_setup()):
        for g_i, g_j in orientation_pairs(setup):
            change = setup.perspective_change(g_i, g_j)
            u = change.matrix
            assert u.tobytes() == dense_perspective_unitary(setup, g_i, g_j).tobytes()
            assert not u.flags.writeable
            assert change.matrix is u
            assert setup.perspective_change(list(g_i), list(g_j)) is change
    with pytest.raises(ValueError):
        u[0, 0] = 2.0
    with pytest.raises(ValueError):
        change.blocks[0, 0, 0] = 2.0


def test_perspective_change_is_cnot_for_qubits():
    setup = qubit_setup()
    change = setup.perspective_change((0,), (0,))
    assert np.array_equal(change.matrix, CNOT)
    assert np.array_equal(change.blocks, [ID2, SIGMA_X])
    parity = parity_swap(setup, (0,), (0,))
    assert np.array_equal(parity[np.arange(setup.d_frame), change.perm], np.ones(setup.d_frame))


def test_perspective_change_conjugates_like_the_dense_unitary():
    rng = np.random.default_rng(13)
    for setup in setup_pool() + [haar_conjugated_z3_setup()]:
        d = setup.d_perspective
        exact = is_permutation_rep(setup)
        for g_i, g_j in orientation_pairs(setup):
            u = setup.perspective_change(g_i, g_j)
            stack = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
            stack[:, 0, 1] = -0.0
            for ops in (stack, stack[1], random_hermitian(rng, d)):
                moved = u.conjugate(ops)
                dense = u.matrix @ ops @ dagger(u.matrix)
                assert moved.shape == dense.shape
                if exact:
                    # Bit for bit once -0.0 is written as +0.0.
                    assert moved.tobytes() == (dense + 0.0).tobytes()
                else:
                    assert np.abs(moved - dense).max() <= 1e-14 * np.abs(dense).max()


def test_qrf_transform_agrees_with_perspective_change():
    for setup in setup_pool():
        for g_i, g_j in orientation_pairs(setup):
            v = qrf_transform(setup, 1, 2, g_i, g_j)
            assert np.abs(v - setup.perspective_change(g_i, g_j).matrix).max() <= 1e-14


def test_parity_swap_matches_sigma_x():
    setup = qubit_setup()
    assert np.allclose(parity_swap(setup, (0,), (1,)), SIGMA_X, atol=1e-12)


def test_physical_basis_is_orthonormal_and_spans():
    setup = FrameSetup.from_rep_config(Z2, {"tensor_power": 2})
    basis = physical_basis(setup)
    n = basis.shape[1]
    assert n == setup.group.order * setup.d_s
    assert np.allclose(dagger(basis) @ basis, np.eye(n), atol=1e-12)
    assert np.allclose(basis @ dagger(basis), pi_phys(setup), atol=1e-12)


def test_relational_observable_reduces_back():
    rng = np.random.default_rng(8)
    setup = FrameSetup.from_rep_config(Z3, "regular")
    f = random_hermitian(rng, setup.d_perspective)
    g = (2,)
    obs = relational_observable(setup, 1, g, f)
    r = reduction_map(setup, 1, g)
    assert np.allclose(r @ obs @ dagger(r), f, atol=1e-10)


def test_relational_observable_preserves_expectations():
    rng = np.random.default_rng(9)
    setup = qubit_setup()
    pi = pi_phys(setup)
    psi = pi @ haar_state(rng, d_kin(setup))
    psi = psi / np.linalg.norm(psi)
    f = random_hermitian(rng, setup.d_perspective)
    g = (1,)
    obs = relational_observable(setup, 2, g, f)
    reduced = reduction_map(setup, 2, g) @ psi
    lhs = np.vdot(psi, obs @ psi)
    rhs = np.vdot(reduced, f @ reduced)
    assert np.isclose(lhs, rhs, atol=1e-10)


def test_g_twirl_projects_onto_invariants():
    rng = np.random.default_rng(10)
    setup = qubit_setup()
    op = random_hermitian(rng, d_kin(setup))
    twirled = g_twirl(setup, op)
    assert np.allclose(g_twirl(setup, twirled), twirled, atol=1e-12)
    for g in setup.group.elements:
        u = u_kin(setup, g)
        assert np.allclose(u @ twirled @ dagger(u), twirled, atol=1e-12)
    assert np.allclose(g_twirl(setup, pi_phys(setup)), pi_phys(setup), atol=1e-12)
