"""Tests for exact evolution, Hamiltonian splitting, and trajectory checks."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg

from qrf_lab import FrameSetup, Z2, Z3, Z4
from qrf_lab.dynamics import (
    COMMUTANT_GAP,
    STACK_BYTES,
    GridEvolution,
    HamiltonianSplit,
    block_length,
    conjugated_split,
    dynamical_type_classifier,
    evolve,
    imported_hamiltonian_and_trajectory_check,
    mean_field_hamiltonian,
    split_hamiltonian,
    transform_hamiltonian_pieces,
)
from qrf_lab.operators import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    NumericalRankError,
    dagger,
    hs_norm,
    kron,
    partial_trace,
    pinch,
)
from qrf_lab.frames import parity_swap
from qrf_lab.subalgebras import BilocalUnitary, classify_local_operator, invariant_projector, pi_d, pi_t
from qrf_lab.thermo import subsystem_eom_terms

from kinematics import dense_perspective_unitary
from property_suites import eigenspace_count, haar_conjugated_z3_setup, haar_unitary, random_hermitian, setup_pool

E = (0,)


def qubit_setup():
    return FrameSetup.from_rep_config(Z2, "regular")


def zz_chain(b, j):
    return (b * (kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z))
            + 2.0 * j * kron(SIGMA_Z, SIGMA_Z))


def test_evolve_of_a_vector_is_unitary():
    """The images of the basis vectors are the columns of U(t), which is unitary and exp(-i H t)."""
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 4)
    u = np.stack([evolve(h, column, 0.37) for column in np.eye(4)], axis=1)
    assert np.allclose(u @ dagger(u), np.eye(4), atol=1e-12)
    assert np.allclose(u, scipy.linalg.expm(-1j * 0.37 * h), atol=1e-12)


def test_evolve_of_a_vector_matches_scipy():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.allclose(evolve(h, psi, 0.7), scipy.linalg.expm(-1j * 0.7 * h) @ psi, atol=1e-12)


def test_evolve_vector_and_density_matrix_agree():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = psi / np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    psi_t = evolve(h, psi, 0.9)
    rho_t = evolve(h, rho, 0.9)
    assert np.allclose(np.outer(psi_t, psi_t.conj()), rho_t, atol=1e-12)


def test_evolve_known_rotation():
    psi = np.array([1.0, 0.0])
    psi_t = evolve(SIGMA_X, psi, np.pi / 2)
    assert np.allclose(np.abs(psi_t), [0.0, 1.0], atol=1e-12)


def test_stationary_state_is_fixed():
    h = np.diag([1.0, -1.0])
    rho = np.diag([0.25, 0.75])
    assert np.allclose(evolve(h, rho, 2.3), rho, atol=1e-12)


def test_split_hamiltonian_reconstructs():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 6)
    split = split_hamiltonian(h, 2, 3)
    assert np.allclose(split.total, h, atol=1e-12)
    assert np.isclose(np.trace(split.h_int), 0.0, atol=1e-12)
    assert np.allclose(partial_trace(split.h_int, (2, 3), drop=0), 0.0, atol=1e-12)
    assert np.allclose(partial_trace(split.h_int, (2, 3), drop=1), 0.0, atol=1e-12)


def test_split_is_frozen_and_caches_a_read_only_total():
    rng = np.random.default_rng(5)
    split = split_hamiltonian(random_hermitian(rng, 6), 2, 3)
    expected = kron(split.h_frame, np.eye(3)) + kron(np.eye(2), split.h_s) + split.h_int
    assert np.array_equal(split.total, expected)
    assert split.total is split.total
    assert not split.total.flags.writeable
    with pytest.raises(ValueError):
        split.total[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        split.h_s = np.eye(3)
    # The pieces are read-only copies, so nothing derived from them goes stale.
    for piece in (split.h_frame, split.h_s, split.h_int):
        assert not piece.flags.writeable
    source = np.array(split.h_int)
    assert HamiltonianSplit(split.h_frame, split.h_s, source).h_int is not source


def test_split_identity_is_shared_evenly():
    split = split_hamiltonian(np.eye(4), 2, 2)
    assert np.allclose(split.h_frame, 0.5 * ID2, atol=1e-12)
    assert np.allclose(split.h_s, 0.5 * ID2, atol=1e-12)
    assert np.allclose(split.h_int, 0.0, atol=1e-12)


def test_mean_field_hamiltonian():
    split = split_hamiltonian(kron(SIGMA_Z, SIGMA_Z), 2, 2)
    p = 0.8
    rho_frame = np.diag([p, 1 - p])
    h_tilde = mean_field_hamiltonian(split, rho_frame, on="s")
    assert np.allclose(h_tilde, (2 * p - 1) * SIGMA_Z, atol=1e-12)


def test_transform_pieces_reassemble():
    setup = qubit_setup()
    rng = np.random.default_rng(3)
    split = split_hamiltonian(random_hermitian(rng, 4), 2, 2)
    split_new, pieces = transform_hamiltonian_pieces(setup, split, E, E)
    u = dense_perspective_unitary(setup, E, E)
    transformed = u @ split.total @ dagger(u)
    assert np.allclose(split_new.total, transformed, atol=1e-10)
    rebuilt = (kron(pieces.frame_from_diag + pieces.lambda_frame, ID2)
               + kron(ID2, pieces.s_translation_part + pieces.lambda_s)
               + pieces.int_from_locals + pieces.int_from_dt + pieces.lambda_int)
    assert np.allclose(rebuilt, transformed, atol=1e-10)


def test_int_from_dt_is_the_dense_parity_conjugation_bit_for_bit():
    """int_from_dt conjugates the frame-diagonal, translation-invariant interaction by the parity swap
    through BilocalUnitary's gather, which equals kron(parity, 1) dt_int kron(parity, 1)' bit for bit
    once the products' -0.0 is written as +0.0: on every setup of the pool and every orientation pair."""
    rng = np.random.default_rng(29)
    for setup in setup_pool():
        d_f, d_s = setup.d_frame, setup.d_s
        split = split_hamiltonian(random_hermitian(rng, setup.d_perspective), d_f, d_s)
        dt_int = pi_d(setup, pi_t(setup, split.h_int))
        for g_i, g_j in itertools.product(setup.group.elements, repeat=2):
            _, pieces = transform_hamiltonian_pieces(setup, split, g_i, g_j)
            p_full = kron(parity_swap(setup, g_i, g_j), np.eye(d_s))
            assert pieces.int_from_dt.tobytes() == (p_full @ dt_int @ dagger(p_full) + 0.0).tobytes()


def test_pieces_add_up_to_frame_js_split():
    """Each piece lands where frame j's split puts it: frame_from_diag + lambda_frame = h_frame,
    s_translation_part + lambda_s = h_s and int_from_locals + int_from_dt + lambda_int = h_int, within
    1e-12 ||H||, for a random H at every orientation pair of the pool, of the Z4 rep with U_S(1) =
    diag(i, -i) and of the Haar-conjugated Z3 rep.  Wherever some U_S(g), g != e, has a trace,
    u (h_F,off (x) 1) u' has a frame-local part, which lambda_frame holds and int_from_locals does not."""
    rng = np.random.default_rng(41)
    for setup in setup_pool() + [z4_scalar_step_setup(), haar_conjugated_z3_setup()]:
        split = split_hamiltonian(random_hermitian(rng, setup.d_perspective), setup.d_frame, setup.d_s)
        tol = 1e-12 * hs_norm(split.total)
        for g_i, g_j in itertools.product(setup.group.elements, repeat=2):
            split_new, pieces = transform_hamiltonian_pieces(setup, split, g_i, g_j)
            assert hs_norm(pieces.frame_from_diag + pieces.lambda_frame - split_new.h_frame) <= tol
            assert hs_norm(pieces.s_translation_part + pieces.lambda_s - split_new.h_s) <= tol
            assert hs_norm(pieces.int_from_locals + pieces.int_from_dt + pieces.lambda_int
                           - split_new.h_int) <= tol


def test_dynamical_type_classifier():
    setup = qubit_setup()
    closed = split_hamiltonian(kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_X), 2, 2)
    assert dynamical_type_classifier(setup, closed) == "closed_to_closed"
    open_case = split_hamiltonian(kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z), 2, 2)
    assert dynamical_type_classifier(setup, open_case) == "closed_to_open"
    interacting = split_hamiltonian(zz_chain(1.0, 1.0), 2, 2)
    assert dynamical_type_classifier(setup, interacting) == "interacting"
    zero = split_hamiltonian(np.zeros((4, 4)), 2, 2)
    assert dynamical_type_classifier(setup, zero) == "closed_to_closed"


def test_dynamical_type_classifier_does_not_depend_on_the_energy_scale():
    """H = s (h_F (x) 1 + 1 (x) h_S + 1e-3 h_int) is weakly interacting at every scale s."""
    setup = FrameSetup.from_rep_config(Z3, "regular")
    rng = np.random.default_rng(17)
    h_int = split_hamiltonian(random_hermitian(rng, 9), 3, 3).h_int
    base = kron(random_hermitian(rng, 3), np.eye(3)) + kron(np.eye(3), random_hermitian(rng, 3)) + 1e-3 * h_int
    for s in 10.0 ** np.arange(-10, 9):
        h = s * base
        split = split_hamiltonian((h + dagger(h)) / 2, 3, 3)
        assert dynamical_type_classifier(setup, split) == "interacting", s


def _frame_hop(setup, a, b):
    """(|a><b| + |b><a|) (x) 1 on the perspective space, a and b frame indices."""
    hop = np.zeros((setup.d_frame, setup.d_frame))
    hop[a, b] = hop[b, a] = 1.0
    return kron(hop, np.eye(setup.d_s))


def _dense_image_keeps_the_split(setup, op, u):
    """Whether the dense u op u' has no interaction, and whether it is frame-local."""
    d_f, d_s = setup.d_frame, setup.d_s
    image = u @ op @ dagger(u)
    tol = 1e-10 * hs_norm(op)
    no_interaction = hs_norm(split_hamiltonian(image, d_f, d_s).h_int) <= tol
    frame_local = hs_norm(image - kron(partial_trace(image, (d_f, d_s), drop=1) / d_s, np.eye(d_s))) <= tol
    return no_interaction, frame_local


def test_frame_hops_keep_the_split_exactly_when_their_dense_image_does():
    """Every frame hop (|a><b| + h.c.) (x) 1 of the pool, at every orientation pair: the classifier calls
    it closed_to_closed, and classify_local_operator TPS invariant, exactly when the dense u H u' has no
    interaction and is frame-local, which happens when U_S(g) is a scalar for the g relating a and b.
    Z6 with characters 1 and 3 (U_S(3) = -1) and Z2xZ4 with characters (0, 1) and (1, 0) (U_S((1, 2))
    = -1) have such hops, whose frame factor is not diagonal."""
    disagreements = set()
    kept = 0
    for n, setup in enumerate(setup_pool()):
        pairs = list(itertools.product(setup.group.elements, repeat=2))
        dense = [dense_perspective_unitary(setup, g_i, g_j) for g_i, g_j in pairs]
        for a, b in itertools.combinations(range(setup.d_frame), 2):
            op = _frame_hop(setup, a, b)
            verdict = dynamical_type_classifier(setup, split_hamiltonian(op, setup.d_frame, setup.d_s))
            for (g_i, g_j), u in zip(pairs, dense):
                no_interaction, frame_local = _dense_image_keeps_the_split(setup, op, u)
                assert no_interaction == frame_local
                kept += no_interaction
                if verdict != ("closed_to_closed" if no_interaction else "closed_to_open"):
                    disagreements.add(("classifier", n, a, b))
                report = classify_local_operator(setup, op, "frame_local", g_i, g_j)
                if report.tps_invariant != frame_local:
                    disagreements.add(("local operator", n, a, b))
                assert not report.in_diagonal_translation_range and report.witness is None
    assert kept > 0
    assert sorted(disagreements) == []


def z4_scalar_step_setup():
    """Z4 on a qubit with U_S(1) = diag(i, -i), so U_S(2) = -1: a scalar translation besides the identity."""
    step = np.diag([1j, -1j])
    return FrameSetup(Z4, {g: np.linalg.matrix_power(step, g[0]) for g in Z4.elements})


def test_a_z4_hop_across_a_scalar_translation_keeps_the_split():
    """Z4 on a qubit with U_S(1) = diag(i, -i), so U_S(2) = -1: the 0 <-> 2 frame hop stays free of
    interaction and frame-local in frame j, while the 0 <-> 1 hop, across U_S(1), does not."""
    setup = z4_scalar_step_setup()
    for b, kept in ((2, True), (1, False)):
        op = _frame_hop(setup, 0, b)
        assert _dense_image_keeps_the_split(setup, op, dense_perspective_unitary(setup, (0,), (0,))) == (kept, kept)
        verdict = dynamical_type_classifier(setup, split_hamiltonian(op, 4, 2))
        assert verdict == ("closed_to_closed" if kept else "closed_to_open")
        for g_i, g_j in itertools.product(Z4.elements, repeat=2):
            assert classify_local_operator(setup, op, "frame_local", g_i, g_j).tps_invariant is kept


@pytest.mark.parametrize("factor, count", [(0.5, 1), (5.0, None), (20.0, 2)])
def test_eigenspace_gaps_in_the_guard_band_raise(factor, count):
    """h_S = diag(0, delta) beside Z (x) 1: a gap delta up to COMMUTANT_GAP ||H|| merges, one above
    ten times that splits, and one in between raises NumericalRankError.  A stacked split of H and
    1e6 H takes each member's own gap, so both members reach the verdict of H alone."""
    delta = factor * COMMUTANT_GAP * hs_norm(kron(SIGMA_Z, ID2))
    h = kron(SIGMA_Z, ID2) + kron(ID2, np.diag([0.0, delta]))
    for split in (split_hamiltonian(h, 2, 2), split_hamiltonian(np.stack([h, 1e6 * h]), 2, 2)):
        if count is None:
            with pytest.raises(NumericalRankError, match="inside the guard band"):
                split.eigenspaces
        else:
            assert np.all(eigenspace_count(split.eigenspaces["s"][1]) == count)
            assert np.all(eigenspace_count(split.eigenspaces["frame"][1]) == 2)


def test_zero_hamiltonian_has_one_eigenspace_per_factor():
    spaces = split_hamiltonian(np.zeros((4, 4)), 2, 2).eigenspaces
    for key in ("s", "frame"):
        vectors, mask = spaces[key]
        assert eigenspace_count(mask) == 1 and mask.all()
        assert np.allclose(pinch(vectors, mask, SIGMA_X), SIGMA_X, atol=1e-12)


def test_effectively_isolated_chain():
    setup = qubit_setup()
    b, j = 0.7, 0.4
    split = split_hamiltonian(zz_chain(b, j), 2, 2)
    amps = np.array([0.6, 0.8])
    rho0 = kron(np.diag([0.0, 1.0]), np.outer(amps, amps))
    terms = subsystem_eom_terms(setup, split, rho0)
    assert terms.effectively_closed
    assert np.allclose(terms.h_tilde_s, -2.0 * j * SIGMA_Z, atol=1e-12)
    assert hs_norm(terms.dissipative_term) < 1e-12


def test_imported_hamiltonian_for_zz_chain():
    setup = qubit_setup()
    b, j = 0.9, 0.35
    h = zz_chain(b, j)
    amps = np.array([1.0, np.sqrt(2.0)]) / np.sqrt(3.0)
    psi = np.kron([0.0, 1.0], amps)
    rho0 = np.outer(psi, psi.conj())
    x = BilocalUnitary(ID2, SIGMA_X)
    times = np.linspace(0.0, 2.0 * np.pi, 11)
    report = imported_hamiltonian_and_trajectory_check(setup, h, x, E, E, rho0, times)
    expected = (b * kron(SIGMA_Z, ID2) - 2.0 * j * kron(ID2, SIGMA_Z)
                - b * kron(SIGMA_Z, SIGMA_Z))
    assert np.allclose(report.h_imported, expected, atol=1e-12)
    assert all(report.in_ax)
    assert max(report.commutator_norms) < 1e-12
    assert report.generator_agreement_residual < 1e-12


def test_the_imported_generator_is_hermitian_bit_for_bit():
    """h_imported is the total of conjugated_split(x', u H u'), equal to its own adjoint bit for bit,
    for a random H and label at a random orientation pair of every setup of the pool and the
    Haar-conjugated Z3 rep."""
    rng = np.random.default_rng(43)
    for setup in setup_pool() + [haar_conjugated_z3_setup()]:
        d_f, d_s = setup.d_frame, setup.d_s
        elements = setup.group.elements
        g_i, g_j = (elements[int(m)] for m in rng.integers(len(elements), size=2))
        h = random_hermitian(rng, setup.d_perspective)
        x = BilocalUnitary(haar_unitary(rng, d_f), haar_unitary(rng, d_s))
        rho0 = kron(np.eye(d_f) / d_f, np.eye(d_s) / d_s)
        report = imported_hamiltonian_and_trajectory_check(setup, h, x, g_i, g_j, rho0, [0.0, 0.5])
        assert np.array_equal(report.h_imported, dagger(report.h_imported))
        change = setup.perspective_change(g_i, g_j)
        assert np.array_equal(report.h_imported, conjugated_split(x.adjoint, change.conjugate(h), d_f, d_s).total)


def test_the_agreement_residual_pinches_the_difference_once():
    """generator_agreement_residual is ||P(H - h_imported)||, P the projector onto A_x: one pinching of the
    difference, within 1e-14 max(1, ||H||) of ||P(H) - P(h_imported)||, the two pinchings it replaced,
    for a random H and label at a random orientation pair of every setup of the pool."""
    rng = np.random.default_rng(71)
    for setup in setup_pool():
        d_f, d_s = setup.d_frame, setup.d_s
        elements = setup.group.elements
        g_i, g_j = (elements[int(m)] for m in rng.integers(len(elements), size=2))
        h = random_hermitian(rng, setup.d_perspective)
        x = BilocalUnitary(haar_unitary(rng, d_f), haar_unitary(rng, d_s))
        rho0 = kron(np.eye(d_f) / d_f, np.eye(d_s) / d_s)
        report = imported_hamiltonian_and_trajectory_check(setup, h, x, g_i, g_j, rho0, [0.0])
        projector = invariant_projector(setup, x, g_i, g_j)
        two_pinchings = hs_norm(projector.apply(h) - projector.apply(report.h_imported))
        assert abs(report.generator_agreement_residual - two_pinchings) <= 1e-14 * max(1.0, hs_norm(h))


def test_trajectory_leaving_the_subalgebra_is_flagged():
    setup = qubit_setup()
    h = kron(SIGMA_X, ID2) + kron(ID2, SIGMA_X)
    psi = np.kron([0.0, 1.0], [1.0, 0.0])
    rho0 = np.outer(psi, psi)
    x = BilocalUnitary(ID2, SIGMA_X)
    times = np.array([0.0, 0.7, np.pi])
    report = imported_hamiltonian_and_trajectory_check(setup, h, x, E, E, rho0, times)
    assert report.in_ax[0]
    assert not report.in_ax[1]
    assert report.in_ax[2]
    assert report.commutator_norms[1] > 1e-3


def test_grid_evolution_does_not_depend_on_block_boundaries():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 6)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho0 = g @ dagger(g) / np.trace(g @ dagger(g)).real
    times = np.linspace(-1.0, 3.0, 23)
    evolution = GridEvolution(h)
    whole = evolution.states(rho0, times)
    for _ in range(5):
        cuts = np.sort(rng.choice(np.arange(1, times.size), size=int(rng.integers(1, 6)), replace=False))
        pieces = [evolution.states(rho0, part) for part in np.split(times, cuts)]
        assert np.array_equal(np.concatenate(pieces), whole)
    blocks = list(evolution.blocks(rho0, times))
    assert np.array_equal(np.concatenate([states for _, states in blocks]), whole)
    assert np.array_equal(np.concatenate([block for block, _ in blocks]), times)
    for t, rho in zip(times, whole):
        assert np.array_equal(rho, evolve(h, rho0, t))


def dense_grid_oracle(h, rho0, times):
    """U(t) = V exp(-i lambda t) V' formed for every time, then U rho0 U'."""
    vals, vecs = np.linalg.eigh(h)
    u = (vecs * np.exp(np.multiply.outer(-1j * times, vals))[:, None, :]) @ dagger(vecs)
    return u @ rho0 @ dagger(u)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_grid_states_match_the_dense_propagator(scale):
    """States formed in H's eigenbasis equal U(t) rho0 U(t)', on every setup of the pool
    and the dense Haar-conjugated Z3 rep, with H structured by the perspective change."""
    rng = np.random.default_rng(17)
    times = np.linspace(-2.0, 3.0, 37)
    for setup in setup_pool() + [haar_conjugated_z3_setup()]:
        d = setup.d_perspective
        elements = setup.group.elements
        change = setup.perspective_change(*(elements[int(rng.integers(len(elements)))] for _ in range(2)))
        h = change.conjugate(random_hermitian(rng, d, scale))
        h = (h + dagger(h)) / 2
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho0 = g @ dagger(g) / np.trace(g @ dagger(g)).real
        evolution = GridEvolution(h)
        states = evolution.states(rho0, times)
        assert np.abs(states - dense_grid_oracle(h, rho0, times)).max() <= 1e-12 * hs_norm(rho0)
        assert np.array_equal(np.concatenate([s for _, s in evolution.blocks(rho0, times)]), states)


def test_grid_blocks_stay_within_the_stack_budget():
    itemsize = np.dtype(complex).itemsize
    for d in (2, 4, 9, 16, 27, 64, 100):
        k = block_length(d)
        assert k >= 1
        assert k * d * d * itemsize <= STACK_BYTES or k == 1
        assert (k + 1) * d * d * itemsize > STACK_BYTES
    h = random_hermitian(np.random.default_rng(3), 27)
    sizes = [states.shape[0] for _, states in GridEvolution(h).blocks(np.eye(27) / 27, np.linspace(0, 1, 12))]
    assert sizes == [11, 1]
