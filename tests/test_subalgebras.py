"""Tests for invariant-subalgebra projectors, membership, and witnesses."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from qrf_lab import FiniteAbelianGroup, FrameSetup, Z2, Z3, Z4, subalgebras
from qrf_lab.dynamics import split_hamiltonian
from qrf_lab.operators import (
    ID2,
    PAULI,
    NumericalRankError,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    hs_inner,
    hs_norm,
    kron,
    unvec,
    vec,
)
from qrf_lab.subalgebras import (
    BilocalUnitary,
    LocalityViolationError,
    SubalgebraProjector,
    _hermitian_superoperator,
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

from kinematics import dense_perspective_unitary
from property_suites import (
    conjugation_superop,
    fixed_space_projector,
    haar_conjugated_z3_setup,
    haar_unitary,
    is_permutation_rep,
    label_superoperator,
    monomial_commutant_dimension,
    random_hermitian,
    setup_pool,
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
    assert np.allclose(pi_t(setup, SIGMA_Z), 0.0, atol=1e-12)
    assert np.allclose(pi_t(setup, SIGMA_X), SIGMA_X, atol=1e-12)
    # Only a d_s x d_s or a d_p x d_p operand is twirled, not any multiple of d_s.
    for shape in ((6, 6), (8, 8), (2, 4), (4, 2)):
        with pytest.raises(ValueError, match="d_s x d_s or a d_p x d_p"):
            pi_t(setup, np.zeros(shape))


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
        u = dense_perspective_unitary(setup, g_i, g_j)
        for x in (BilocalUnitary(np.eye(d_f), np.eye(d_s)), BilocalUnitary(np.eye(d_f), setup.u_s(g)),
                  BilocalUnitary(setup.u_frame(a), setup.u_s(b))):
            expected = monomial_commutant_dimension([dagger(kron(x.y, x.z)) @ u], order)
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
        u = dense_perspective_unitary(setup, e, e)
        both = intersect_projectors(*(invariant_projector(setup, x, e, e) for x in labels))
        expected = monomial_commutant_dimension([dagger(kron(x.y, x.z)) @ u for x in labels], math.lcm(*moduli))
        assert both.dimension == expected, setup.d_perspective
        dimensions.append(expected)
    assert dimensions == [6, 15, 36, 72, 96, 135]


def _ladder_labels(moduli, rep):
    """The projectors of the labels 1 and 1 (x) U_S(g1) at g_i = g_j = e, as the benchmark ladder builds them."""
    group = FiniteAbelianGroup(moduli)
    setup = FrameSetup.from_rep_config(group, rep)
    e = group.identity
    labels = (BilocalUnitary(np.eye(setup.d_frame), np.eye(setup.d_s)),
              BilocalUnitary(np.eye(setup.d_frame), setup.u_s(group.elements[1])))
    return [invariant_projector(setup, x, e, e) for x in labels]


@pytest.mark.parametrize("moduli, rep", [((4,), "regular"), ((3,), {"tensor_power": 2})])
def test_intersection_peak_is_one_superoperator_and_its_kept_eigenvectors(moduli, rep, monkeypatch):
    """At d_p = 16 and 27 intersect_projectors holds at most 2.25 real d_p^2 x d_p^2 matrices
    under tracemalloc (2.16 and 2.05 measured): S in its real form and the d_p^2 x d_p^2
    eigenvectors that eigh's value range allocates, besides smaller temporaries.  The budget's
    estimate is at least that peak and within 5% of it."""
    first, second = _ladder_labels(moduli, rep)
    d = first.operand_dim
    made = []
    peak = _peak_bytes(lambda: made.append(intersect_projectors(first, second)))
    assert peak <= 2.25 * d ** 4 * np.dtype(float).itemsize, peak / (d ** 4 * 8)
    eye = np.eye(d)
    assert np.abs(made[0].apply(eye) - eye).max() <= 1e-12
    monkeypatch.setattr(subalgebras, "SUPEROPERATOR_BUDGET_BYTES", peak - 1)
    with pytest.raises(ValueError, match=f"d_p = {d} .* estimated"):
        intersect_projectors(first, second)
    monkeypatch.setattr(subalgebras, "SUPEROPERATOR_BUDGET_BYTES", int(1.05 * peak))
    assert intersect_projectors(first, second).dimension == made[0].dimension


def test_intersection_selects_by_value_on_a_degenerate_spectrum():
    """Z2 regular at g_i = g_j = 1: the labels 1 and X (x) X have dimensions 10 and 4 and meet in
    3.  S's spectrum is exactly degenerate there, with eigenvalue 1 eight times across the index
    range of the top min(dim) = 4 eigenpairs.  Under every relabeling of the 4 basis states the
    intersection keeps dimension 3.  A real eigh over that index range came back short under some
    relabelings, with only 2 eigenvalues at 2 (1 or 2 of the 24, as round-off in S fell); the value
    range returns all 3."""
    setup = qubit_setup()
    labels = [invariant_projector(setup, x, FLIP, FLIP) for x in (BilocalUnitary(ID2, ID2),
                                                                    BilocalUnitary(SIGMA_X, SIGMA_X))]
    assert [label.dimension for label in labels] == [10, 4]
    f = np.arange(16.0).reshape(4, 4) + 1j * np.arange(16.0).reshape(4, 4).T ** 2
    for perm in itertools.permutations(range(4)):
        moved = [SubalgebraProjector(operand_dim=4, schur_vectors=label.schur_vectors[list(perm)], mask=label.mask)
                 for label in labels]
        both = intersect_projectors(*moved)
        oracle = fixed_space_projector(label_superoperator(moved[0]) @ label_superoperator(moved[1]))
        assert both.dimension == oracle.dimension == 3, perm
        assert np.abs(both.apply(f) - unvec(oracle.projector @ vec(f), 4)).max() <= 1e-12 * hs_norm(f)


def _hermitian_basis(d):
    """The d^2 x d^2 unitary T whose column (k, l), in C order, is vec(B_kl): E_kk, and
    (E_kl + E_lk)/sqrt 2 for k < l and i (E_kl - E_lk)/sqrt 2 for k > l."""
    t = np.zeros((d, d, d, d), dtype=complex)
    for k, l in itertools.product(range(d), repeat=2):
        if k == l:
            t[k, l, k, k] = 1.0
        else:
            phase = 1.0 if k < l else 1j
            t[k, l, k, l], t[k, l, l, k] = phase / math.sqrt(2), np.conj(phase) / math.sqrt(2)
    return np.stack([vec(b) for b in t.reshape(d * d, d, d)], axis=1)


def test_real_form_is_the_complex_superoperator_in_the_hermitian_basis():
    """Over setup_pool() and the Haar-conjugated Z3 rep, whose cluster projectors are genuinely
    complex: the real S that intersect_projectors diagonalises is Re(T' S T), S being the sum of
    the two labels' complex superoperators, and T' S T has no imaginary part."""
    rng = np.random.default_rng(916)
    for setup in setup_pool() + [haar_conjugated_z3_setup()]:
        d_f, d_s, d = setup.d_frame, setup.d_s, setup.d_perspective
        elements = setup.group.elements
        g_i, g_j, g, a, b = (elements[int(rng.integers(len(elements)))] for _ in range(5))
        projs = [invariant_projector(setup, x, g_i, g_j)
                 for x in (BilocalUnitary(np.eye(d_f), setup.u_s(g)), BilocalUnitary(setup.u_frame(a), setup.u_s(b)))]
        t = _hermitian_basis(d)
        assert np.abs(dagger(t) @ t - np.eye(d * d)).max() <= 1e-14
        complex_form = dagger(t) @ (label_superoperator(projs[0]) + label_superoperator(projs[1])) @ t
        assert np.abs(complex_form.imag).max() <= 1e-12
        # Symmetric, so the lower triangle, all that the build sets and eigh reads, is all of it.
        assert np.abs(complex_form - complex_form.T).max() <= 1e-12
        lower = np.tril_indices(d * d)
        assert np.abs(_hermitian_superoperator(projs, d)[lower] - complex_form.real[lower]).max() <= 1e-12


def _full_hermitian_superoperator(labels, d):
    """The real form S of _hermitian_superoperator with both triangles set, each row (k, l) from
    all of N_kl[a, b] = sum_C P_C[a, k] P_C[l, b], as it was built before only one triangle was."""
    g = subalgebras._hermitian_coordinates(d)
    p = np.concatenate([(q * mask[np.unique(mask.argmax(axis=1))][:, None, :]) @ dagger(q)
                        for q, mask in ((label.schur_vectors, label.mask) for label in labels)])
    flat = p.reshape(len(p), d * d)
    out = np.empty((d, d, d, d))
    for k in range(d):
        y = (p[:, :, k].T @ flat).reshape(d, d, d) * (2 * g[k].conj())[:, None]
        out[k] = (g[:, None, :] * (y + y.conj().transpose(2, 1, 0))).real.transpose(1, 0, 2)
    return out.reshape(d * d, d * d).T


@pytest.mark.parametrize("moduli, rep", [((2,), "regular"), ((3,), "regular"), ((4,), "regular"),
                                         ((3,), {"tensor_power": 2})], ids=["4", "9", "16", "27"])
def test_triangle_build_matches_the_full_build(moduli, rep):
    """At d_p = 4, 9, 16 and 27, on the benchmark ladder's labels and, where one fits, a pair at
    random orientations: the triangle that eigh reads matches the full build to round-off, and
    the full build's eigenvalues, selected as intersect_projectors selects them, count the
    intersection's dimension exactly."""
    rng = np.random.default_rng(len(moduli) + moduli[0])
    setup = FrameSetup.from_rep_config(FiniteAbelianGroup(moduli), rep)
    elements = setup.group.elements
    pairs = [_ladder_labels(moduli, rep)]
    if setup.d_perspective < 27:
        g_i, g_j, a, b = (elements[int(rng.integers(len(elements)))] for _ in range(4))
        pairs.append([invariant_projector(setup, x, g_i, g_j) for x in (
            BilocalUnitary(np.eye(setup.d_frame), setup.u_s(a)), BilocalUnitary(setup.u_frame(b), np.eye(setup.d_s)))])
    tol = 1e-9
    for labels in pairs:
        d = setup.d_perspective
        full = _full_hermitian_superoperator(labels, d)
        lower = np.tril_indices(d * d)
        assert np.abs(_hermitian_superoperator(labels, d)[lower] - full[lower]).max() <= 1e-14 * np.abs(full).max()
        mu = eigh(full, eigvals_only=True, subset_by_value=(1.0 + math.sqrt(1.0 - 10 * tol) - 1e-12, np.inf))
        assert intersect_projectors(*labels, tol=tol).dimension == np.count_nonzero(1.0 - (mu - 1.0) ** 2 <= tol)


@pytest.mark.parametrize("d", [2, 3])
def test_intersection_of_two_full_algebras_takes_the_whole_spectrum(d):
    """With one cluster each label is all of M_d, so min(dim) = d^2: the top-index subset is
    the whole spectrum of S = 2, and the intersection is every operator."""
    rng = np.random.default_rng(d)
    full = [SubalgebraProjector(operand_dim=d, schur_vectors=haar_unitary(rng, d),
                                mask=np.ones((d, d), dtype=bool)) for _ in range(2)]
    both = intersect_projectors(*full)
    assert both.dimension == d * d
    f = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert np.abs(both.apply(f) - f).max() <= 1e-12 * hs_norm(f)


def test_intersection_takes_label_projectors_only():
    setup = qubit_setup()
    labels = [invariant_projector(setup, BilocalUnitary(ID2, z), E, E) for z in (ID2, SIGMA_X)]
    with pytest.raises(ValueError, match="label projectors"):
        intersect_projectors(intersect_projectors(*labels), labels[0])


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


def test_bilocal_unitary_holds_read_only_factors():
    y = np.array(SIGMA_X.real)
    x = BilocalUnitary(y, SIGMA_Z)
    assert not x.y.flags.writeable and not x.z.flags.writeable
    assert x.y.dtype == complex
    y[0, 0] = 5.0  # the instance holds a copy
    assert np.array_equal(x.y, SIGMA_X)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.y = ID2
    with pytest.raises(ValueError):
        x.y[0, 0] = 2.0


def test_unitaries_splits_and_projectors_compare_by_identity():
    """PerspectiveChange, BilocalUnitary, HamiltonianSplit and SubalgebraProjector hold arrays, so
    equality is identity: == and in compare no arrays and raise nothing, and each one hashes."""
    setup = qubit_setup()
    other = FrameSetup(Z2, {g: Z2.regular_representation(g) for g in Z2.elements})
    label = BilocalUnitary(ID2, ID2)
    h = ising_chain(1.0, 1.0, 1.0)
    pairs = [
        (setup.perspective_change(E, E), other.perspective_change(E, E)),
        (label, BilocalUnitary(ID2, ID2)),
        (split_hamiltonian(h, 2, 2), split_hamiltonian(h, 2, 2)),
        (invariant_projector(setup, label, E, E), invariant_projector(other, label, E, E)),
    ]
    for a, b in pairs:
        assert a == a and a != b
        assert a in [b, a] and a not in [b]
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


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
        m = kron(x.y, x.z)
        d = m.shape[0]
        stack = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
        stack[:, 1, 0] = -0.0
        for ops in (stack, stack[2]):
            moved = x.conjugate(ops)
            dense = m @ ops @ dagger(m)
            assert moved.shape == dense.shape
            if permutation:
                assert moved.tobytes() == (dense + 0.0).tobytes()
            else:
                assert np.abs(moved - dense).max() <= 1e-14 * np.abs(dense).max()


def test_bilocal_adjoint_is_the_dense_adjoint():
    """X' = BilocalUnitary(y', z'), built once: written out it is kron(y, z)', bit for bit for
    permutation factors once -0.0 is written as +0.0, and left takes a stack of any width.  The
    labels are U_frame(g_i) (x) U_S(g_j) over every orientation pair, and a Haar label per pair."""
    rng = np.random.default_rng(47)
    for setup in setup_pool() + [haar_conjugated_z3_setup()]:
        d = setup.d_perspective
        for g_i, g_j in itertools.product(setup.group.elements, repeat=2):
            for x in (BilocalUnitary(setup.u_frame(g_i), setup.u_s(g_j)),
                      BilocalUnitary(haar_unitary(rng, setup.d_frame), haar_unitary(rng, setup.d_s))):
                assert x.adjoint is x.adjoint
                m = kron(x.y, x.z)
                adjoint = kron(x.adjoint.y, x.adjoint.z)
                if np.isin(m, (0.0, 1.0)).all():
                    assert (adjoint + 0.0).tobytes() == (dagger(m) + 0.0).tobytes()
                else:
                    assert np.abs(adjoint - dagger(m)).max() <= 1e-15
                ops = rng.normal(size=(2, d, 3)) + 1j * rng.normal(size=(2, d, 3))
                for stack in (ops, ops[0, :, :1]):
                    assert np.abs(x.adjoint.left(stack) - dagger(m) @ stack).max() <= 1e-14


def test_label_projector_reads_w_bit_for_bit_on_permutation_reps(monkeypatch):
    """invariant_projector forms W = X'u as (u'X)' through u's adjoint: on permutation reps, for
    the labels U_frame(g_i) (x) U_S(g_j), it is dagger(kron(y, z)) @ u + 0.0 with u the dense
    oracle, bit for bit, over every orientation pair."""
    seen = []
    checked = subalgebras.assert_unitary
    monkeypatch.setattr(subalgebras, "assert_unitary",
                        lambda mat, what: seen.append(mat) or checked(mat, what=what))
    for setup in filter(is_permutation_rep, setup_pool()):
        for g_i, g_j in itertools.product(setup.group.elements, repeat=2):
            x = BilocalUnitary(setup.u_frame(g_i), setup.u_s(g_j))
            seen.clear()
            invariant_projector(setup, x, g_i, g_j)
            expected = dagger(kron(x.y, x.z)) @ dense_perspective_unitary(setup, g_i, g_j) + 0.0
            assert [w.tobytes() for w in seen] == [expected.tobytes()]


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


def test_pure_state_witness_raises_for_schmidt_coefficients_in_the_guard_band():
    """sqrt(p)|0>|+> + sqrt(1 - p)|1>|->, whose Schmidt coefficients are 3.5e-8 apart: neither one
    cluster nor clearly two at the gap 1e-8, so no witness is aligned on a guess."""
    p = 0.5 + 2.5e-8
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, -1.0]) / np.sqrt(2.0)
    psi = np.sqrt(p) * np.kron([1.0, 0.0], plus) + np.sqrt(1 - p) * np.kron([0.0, 1.0], minus)
    with pytest.raises(NumericalRankError, match="Schmidt coefficients 3.536e-08 is inside the guard band"):
        pure_state_bilocal_witness(qubit_setup(), psi, E, E)


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
    """At d_p = 64 the label projector is one 64 x 64 Schur form; an intersection would need
    a 4096 x 4096 real S and as many eigenvectors, and the budget refuses it before allocating."""
    setup = FrameSetup.from_rep_config(Z4, {"tensor_power": 2})
    e = Z4.identity
    x = BilocalUnitary(np.eye(setup.d_frame), np.eye(setup.d_s))
    made = []
    assert _peak_bytes(lambda: made.append(invariant_projector(setup, x, e, e))) < 16 * 2 ** 20
    proj = made[0]
    assert proj.contains(np.eye(64))

    def refused():
        with pytest.raises(ValueError, match=r"d_p = 64 .* estimated \d+ bytes"):
            intersect_projectors(proj, proj)
    assert _peak_bytes(refused) < 16 * 2 ** 20


def test_size_guard_admits_d27():
    """The largest ladder setup, Z3 with tensor_power 2 (d_p = 27), passes the guard."""
    setup = FrameSetup.from_rep_config(Z3, {"tensor_power": 2})
    e = Z3.identity
    x = BilocalUnitary(np.eye(setup.d_frame), np.eye(setup.d_s))
    projector = invariant_projector(setup, x, e, e)
    assert projector.contains(np.eye(setup.d_perspective))
