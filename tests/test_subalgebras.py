"""Tests for invariant-subalgebra projectors, membership, and witnesses."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qrf_lab import FiniteAbelianGroup, FrameSetup, Z2, Z3, Z4
from qrf_lab.operators import (
    ID2,
    PAULI,
    NumericalRankError,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    haar_unitary,
    hs_inner,
    hs_norm,
    kron,
    random_hermitian,
    unvec,
    vec,
)
from qrf_lab.subalgebras import (
    BilocalUnitary,
    LocalityViolationError,
    SubalgebraProjector,
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
from qrf_lab.scenarios import run_scenario

from property_suites import conjugation_superop, fixed_space_projector, monomial_commutant_dimension

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


def clock_chain(a, b, c):
    """Z3 clock-model chain on the frame and the two system sites of Z3 with tensor_power 2.

    Z is the clock diag(1, w, w^2); each term comes with its adjoint.  Every
    term commutes with the perspective change at g_i = g_j = e.
    """
    z = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    i3 = np.eye(3)
    terms = (a * kron(z, i3, i3), b * kron(i3, z, dagger(z)), c * kron(z, z, i3))
    return sum(t + dagger(t) for t in terms)


def test_projector_membership_does_not_depend_on_the_scale_of_f():
    """contains compares with tol * ||f||: a chain stays a member and a frame flip a non-member at every scale."""
    z3 = FrameSetup.from_rep_config(Z3, {"tensor_power": 2})
    flip3 = kron(Z3.regular_representation((1,)), np.eye(9))
    cases = ((qubit_setup(), ising_chain(1.0, 1.0, 1.0), kron(SIGMA_X, ID2)),
             (z3, clock_chain(1.0, 1.0, 1.0), flip3 + dagger(flip3)))
    for setup, member, non_member in cases:
        e = setup.group.identity
        proj = invariant_projector(setup, BilocalUnitary(np.eye(setup.d_frame), np.eye(setup.d_s)), e, e)
        for s in 10.0 ** np.arange(-10, 9):
            assert proj.contains(s * member), s
            assert not proj.contains(s * non_member), s
        assert proj.contains(np.zeros_like(member))


def test_invariant_projector_guard_band():
    """With x = 1 (x) diag(1, e^{i eps}), W = X'u has the eigenvalues 1, e^{-i eps} and
    +-e^{-i eps/2}: within tol of each other they share a cluster, 20 tol apart they do
    not, and 5 tol apart the dimension is ambiguous."""
    setup = qubit_setup()
    tol = 1e-9
    for eps, dimension in ((0.5, 10), (40.0, 4), (10.0, None)):
        x = BilocalUnitary(ID2, np.diag([1.0, np.exp(1j * eps * tol)]))
        if dimension is None:
            with pytest.raises(NumericalRankError, match="guard band"):
                invariant_projector(setup, x, E, E, tol=tol)
        else:
            assert invariant_projector(setup, x, E, E, tol=tol).dimension == dimension


@pytest.mark.parametrize("order", [4, 5])
def test_label_projector_dimension_matches_the_cycle_oracle(order):
    """Z4 and Z5 with tensor_power 2 (d_p = 64 and 125): W is a permutation, so
    sum m_k^2 follows exactly from its index-pair orbits, over every orientation pair."""
    group = FiniteAbelianGroup((order,))
    setup = FrameSetup.from_rep_config(group, {"tensor_power": 2})
    d_f, d_s = setup.d_frame, setup.d_s
    rng = np.random.default_rng(order)
    elements = group.elements
    for g_i, g_j in itertools.product(elements, repeat=2):
        g, a, b = (elements[int(rng.integers(order))] for _ in range(3))
        u = setup.perspective_change(g_i, g_j).matrix
        for x in (BilocalUnitary(np.eye(d_f), np.eye(d_s)), BilocalUnitary(np.eye(d_f), setup.u_s(g)),
                  BilocalUnitary(setup.u_frame(a), setup.u_s(b))):
            expected = monomial_commutant_dimension([dagger(x.matrix) @ u], order)
            assert invariant_projector(setup, x, g_i, g_j).dimension == expected


def test_intersection_guard_band():
    """The diagonal commutant of d = 2 against a copy rotated by theta: the two meet in
    the identity, and sigma_z meets its image at 1 - cos^2 = sin^2 2 theta, selected
    within tol and ambiguous in (tol, 10 tol]."""
    diagonal = np.eye(2, dtype=bool)
    fixed = SubalgebraProjector(operand_dim=2, schur_vectors=np.eye(2, dtype=complex), mask=diagonal)
    tol = 1e-9
    for sin2, dimension in ((1e-10, 2), (5e-9, None), (1e-7, 1)):
        theta = math.asin(math.sqrt(sin2)) / 2
        c, s = math.cos(theta), math.sin(theta)
        rotated = SubalgebraProjector(operand_dim=2, schur_vectors=np.array([[c, -s], [s, c]], dtype=complex),
                                      mask=diagonal)
        if dimension is None:
            with pytest.raises(NumericalRankError, match="guard band"):
                intersect_projectors(fixed, rotated, tol=tol)
        else:
            assert intersect_projectors(fixed, rotated, tol=tol).dimension == dimension


def test_ladder_intersections_match_the_orbit_oracle():
    """The labels 1 and 1 (x) U_S(g1) on the benchmark ladder's rungs, d_p = 4 to 27: the
    intersection's dimension is the commutant of both W, counted exactly over index-pair orbits."""
    rungs = (((2,), "regular"), ((3,), "regular"), ((4,), "regular"), ((2, 2), "regular"),
             ((2,), {"tensor_power": 3}), ((3,), {"tensor_power": 2}))
    dimensions = []
    for moduli, rep in rungs:
        group = FiniteAbelianGroup(moduli)
        setup = FrameSetup.from_rep_config(group, rep)
        e = group.identity
        labels = (BilocalUnitary(np.eye(setup.d_frame), np.eye(setup.d_s)),
                  BilocalUnitary(np.eye(setup.d_frame), setup.u_s(group.elements[1])))
        u = setup.perspective_change(e, e).matrix
        both = intersect_projectors(*(invariant_projector(setup, x, e, e) for x in labels))
        expected = monomial_commutant_dimension([dagger(x.matrix) @ u for x in labels], math.lcm(*moduli))
        assert both.dimension == expected, setup.d_perspective
        dimensions.append(expected)
    assert dimensions == [6, 15, 36, 72, 96, 135]


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


def test_membership_verdicts_do_not_depend_on_the_scale_of_f():
    """The threshold is tol * ||f||: rescaling f leaves every scan verdict unchanged."""
    setup = qubit_setup()
    candidates = [BilocalUnitary(PAULI[a], PAULI[b]) for a in "IXYZ" for b in "IXYZ"]
    for coefficients in ((1.0, 1.0, 2.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0)):
        h = ising_chain(*coefficients)
        expected = [r.is_member for _, r in membership_scan(setup, h, candidates, FLIP, FLIP)]
        assert any(expected) or coefficients == (1.0, 1.0, 2.0)
        for s in 10.0 ** np.arange(-10, 9):
            verdicts = [r.is_member for _, r in membership_scan(setup, s * h, candidates, FLIP, FLIP)]
            assert verdicts == expected, (coefficients, s)
    zero = membership_test(setup, np.zeros((4, 4)), BilocalUnitary(SIGMA_X, SIGMA_Z), E, FLIP)
    assert zero.is_member and zero.residual == 0.0


def test_scan_scenario_verdict_does_not_depend_on_the_scale():
    """The scan at [s, s, 2s] finds no Pauli witness for any s, as at s = 1."""
    for s in 10.0 ** np.arange(-10, 9, 3):
        scan = run_scenario({"scenario": "three-qubit-subalgebras",
                             "params": {"scan_coefficients": [s, s, 2.0 * s]}}).summary["scan"]
        assert scan["member_found"] is False, s
        assert np.isclose(scan["min_residual"], 2.8284271247461903 * s, rtol=1e-12)


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


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_superoperator_budget_refuses_d64_but_not_the_label_projector():
    """At d_p = 64 the label projector is one 64 x 64 Schur form; its dense
    .matrix and intersections would need 4096 x 4096 superoperators, and the
    budget refuses those before allocating."""
    setup = FrameSetup.from_rep_config(Z4, {"tensor_power": 2})
    e = Z4.identity
    x = BilocalUnitary(np.eye(setup.d_frame), np.eye(setup.d_s))
    made = []
    assert _peak_bytes(lambda: made.append(invariant_projector(setup, x, e, e))) < 16 * 2 ** 20
    proj = made[0]
    assert proj.contains(np.eye(64))
    for oversized in (lambda: proj.matrix, lambda: intersect_projectors(proj, proj)):
        def refused():
            with pytest.raises(ValueError, match=r"d_p = 64 .* estimated \d+ bytes"):
                oversized()
        assert _peak_bytes(refused) < 16 * 2 ** 20


def test_size_guard_admits_d27():
    """The largest ladder setup, Z3 with tensor_power 2 (d_p = 27), passes the guard."""
    setup = FrameSetup.from_rep_config(Z3, {"tensor_power": 2})
    e = Z3.identity
    x = BilocalUnitary(np.eye(setup.d_frame), np.eye(setup.d_s))
    projector = invariant_projector(setup, x, e, e)
    assert projector.contains(np.eye(setup.d_perspective))
