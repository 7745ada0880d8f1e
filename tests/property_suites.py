"""Randomized property suites shared by the unit and acceptance tests.

Each suite checks one structural guarantee on n independently randomized
instances drawn over several group and representation setups, raising
AssertionError on the first violation and returning the instance count.
"""
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from qrf_lab import scenarios
from qrf_lab.dynamics import (
    COMMUTANT_GAP,
    GridEvolution,
    HamiltonianSplit,
    block_length,
    conjugated_split,
    dynamical_type_classifier,
    evolve,
    mean_field_hamiltonian,
    split_hamiltonian,
    stacked_split,
)
from qrf_lab.frames import FrameSetup, parity_swap
from qrf_lab.groups import Z2, Z2xZ2, Z3, Z4, FiniteAbelianGroup
from qrf_lab.operators import (
    NumericalRankError,
    assert_unitary,
    dagger,
    hs_inner,
    hs_norm,
    kron,
    partial_trace,
    product_partial_traces,
    product_trace_maps,
    twirl,
    unvec,
    vec,
)
from qrf_lab.subalgebras import (
    BilocalUnitary,
    intersect_projectors,
    invariant_projector,
    membership_test,
    pi_d,
    pi_t,
    pure_state_bilocal_witness,
)
from qrf_lab.states import (
    SUPPORT_CUTOFF,
    checked_spectrum,
    entropy_and_relative_entropy,
    mutual_information,
    purity,
    relative_entropy,
    von_neumann_entropy,
)
from qrf_lab.thermo import (
    BalanceReport,
    InitialProduct,
    Prescription,
    StateMarginals,
    _agree,
    _assembled,
    _phase_aligned_equal,
    _traced,
    entropy_balance,
    gibbs_classification,
    initial_product,
    marginal_energetics,
    trajectory_runs,
)

from kinematics import (
    d_kin,
    dense_perspective_unitary,
    pi_phys,
    qrf_transform,
    reduction_map,
    relational_observable,
    u_kin,
)


def _diag_rep(group, character_labels):
    return {
        g: np.diag([group.character(k, g) for k in character_labels])
        for g in group.elements
    }


def setup_pool():
    """Setups over Z2, Z3, Z4, Z6, Z2xZ2 and Z2xZ4 with d_p from 4 to 16.

    Besides regular, tensor-power and diagonal reps, Z2xZ4's generators have
    different orders, and Z3 regular times a character is monomial but
    neither diagonal nor a permutation.
    """
    z6, z2xz4 = FiniteAbelianGroup((6,)), FiniteAbelianGroup((2, 4))
    return [
        FrameSetup.from_rep_config(Z2, "regular"),
        FrameSetup.from_rep_config(Z2, {"tensor_power": 2}),
        FrameSetup.from_rep_config(Z2, {"tensor_power": 3}),
        FrameSetup.from_rep_config(Z3, "regular"),
        FrameSetup(Z3, _diag_rep(Z3, [(0,), (1,)])),
        FrameSetup.from_rep_config(Z2xZ2, "regular"),
        FrameSetup(Z2xZ2, _diag_rep(Z2xZ2, [(0, 0), (0, 1), (1, 0)])),
        FrameSetup.from_rep_config(Z4, "regular"),
        FrameSetup(z6, _diag_rep(z6, [(1,), (3,)])),
        FrameSetup(z2xz4, _diag_rep(z2xz4, [(0, 1), (1, 0)])),
        FrameSetup(Z3, {g: Z3.character((1,), g) * Z3.regular_representation(g) for g in Z3.elements}),
    ]


def _instances(n, seed):
    pool = setup_pool()
    rng = np.random.default_rng(seed)
    for k in range(int(n)):
        setup = pool[k % len(pool)]
        elements = setup.group.elements
        g_i = elements[int(rng.integers(len(elements)))]
        g_j = elements[int(rng.integers(len(elements)))]
        yield k, rng, setup, g_i, g_j


def random_hermitian(rng, d, scale=1.0):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (g + dagger(g)) / 2


def haar_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(rng, d, rank=None):
    """A random density matrix of the given rank, full rank by default."""
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def suite_physical_projector_rank(n=100, seed=901):
    count = 0
    for _, rng, setup, g_i, _ in _instances(n, seed):
        pi = pi_phys(setup)
        assert hs_norm(pi - dagger(pi)) <= 1e-10
        assert hs_norm(pi @ pi - pi) <= 1e-10
        rank = round(float(np.trace(pi).real))
        assert rank == setup.group.order * setup.d_s
        u = u_kin(setup, g_i)
        assert hs_norm(u @ pi - pi @ u) <= 1e-10
        count += 1
    return count


def suite_reduction_coisometry(n=100, seed=902):
    count = 0
    for k, rng, setup, g_i, _ in _instances(n, seed):
        frame = 1 + k % 2
        r = reduction_map(setup, frame, g_i)
        assert np.allclose(r @ dagger(r), np.eye(setup.d_perspective), atol=1e-10)
        assert np.allclose(dagger(r) @ r, pi_phys(setup), atol=1e-10)
        count += 1
    return count


def suite_perspective_change_unitary(n=100, seed=903):
    count = 0
    for _, rng, setup, g_i, g_j in _instances(n, seed):
        v = qrf_transform(setup, 1, 2, g_i, g_j)
        eye = np.eye(setup.d_perspective)
        assert np.allclose(v @ dagger(v), eye, atol=1e-10)
        assert np.allclose(dagger(v) @ v, eye, atol=1e-10)
        direct = reduction_map(setup, 2, g_j) @ dagger(reduction_map(setup, 1, g_i))
        assert np.allclose(v, direct, atol=1e-10)
        assert np.allclose(qrf_transform(setup, 2, 1, g_j, g_i), dagger(v), atol=1e-10)
        count += 1
    return count


def suite_projector_algebra(n=100, seed=904):
    count = 0
    for _, rng, setup, g_i, g_j in _instances(n, seed):
        f = random_hermitian(rng, setup.d_perspective)
        h = random_hermitian(rng, setup.d_perspective)
        ft, fd = pi_t(setup, f), pi_d(setup, f)
        # pi_t against the dense group average, on a perspective and on a system operator.
        dense = twirl([kron(np.eye(setup.d_frame), setup.u_s(g)) for g in setup.group.elements], f)
        assert hs_norm(ft - dense) <= 1e-12 * hs_norm(f)
        f_s = random_hermitian(rng, setup.d_s)
        dense_s = twirl([setup.u_s(g) for g in setup.group.elements], f_s)
        assert hs_norm(pi_t(setup, f_s) - dense_s) <= 1e-12 * hs_norm(f_s)
        assert hs_norm(pi_t(setup, ft) - ft) <= 1e-10
        assert hs_norm(pi_d(setup, fd) - fd) <= 1e-10
        assert abs(hs_inner(ft, h) - hs_inner(f, pi_t(setup, h))) <= 1e-9
        assert abs(hs_inner(fd, h) - hs_inner(f, pi_d(setup, h))) <= 1e-9
        assert hs_norm(pi_t(setup, fd) - pi_d(setup, ft)) <= 1e-10
        v = qrf_transform(setup, 1, 2, g_i, g_j)
        moved = v @ f @ dagger(v)
        assert hs_norm(pi_t(setup, moved) - v @ ft @ dagger(v)) <= 1e-9
        assert hs_norm(pi_d(setup, moved) - v @ fd @ dagger(v)) <= 1e-9
        count += 1
    return count


def suite_relational_observables(n=100, seed=905):
    count = 0
    for k, rng, setup, g_i, _ in _instances(n, seed):
        frame = 1 + k % 2
        f = random_hermitian(rng, setup.d_perspective)
        obs = relational_observable(setup, frame, g_i, f)
        r = reduction_map(setup, frame, g_i)
        assert np.allclose(r @ obs @ dagger(r), f, atol=1e-9)
        psi = pi_phys(setup) @ haar_state(rng, d_kin(setup))
        psi = psi / np.linalg.norm(psi)
        reduced = r @ psi
        lhs = np.vdot(psi, obs @ psi)
        rhs = np.vdot(reduced, f @ reduced)
        assert abs(lhs - rhs) <= 1e-9
        count += 1
    return count


def suite_dephased_translation_sector_swap(n=100, seed=906):
    count = 0
    for _, rng, setup, g_i, g_j in _instances(n, seed):
        f = random_hermitian(rng, setup.d_perspective)
        fdt = pi_d(setup, pi_t(setup, f))
        lhs = setup.perspective_change(g_i, g_j).conjugate(fdt)
        swap = kron(parity_swap(setup, g_i, g_j), np.eye(setup.d_s))
        rhs = swap @ fdt @ dagger(swap)
        assert hs_norm(lhs - rhs) <= 1e-9
        count += 1
    return count


def suite_pure_state_witness(n=100, seed=907):
    count = 0
    for k, rng, setup, g_i, g_j in _instances(n, seed):
        if k % 2 == 0:
            # Eigenvectors of X'U satisfy the bilocal relation by design,
            # so a witness must exist and certify membership.
            y = haar_unitary(rng, setup.d_frame)
            z = haar_unitary(rng, setup.d_s)
            u = dense_perspective_unitary(setup, g_i, g_j)
            m = dagger(kron(y, z)) @ u
            _, vecs_m = schur(m, output="complex")
            psi = vecs_m[:, int(rng.integers(setup.d_perspective))]
            witness = pure_state_bilocal_witness(setup, psi, g_i, g_j)
            assert witness is not None
            rho = np.outer(psi, psi.conj())
            assert membership_test(setup, rho, witness, g_i, g_j).is_member
        else:
            psi = haar_state(rng, setup.d_perspective)
            witness = pure_state_bilocal_witness(setup, psi, g_i, g_j)
            rho = np.outer(psi, psi.conj())
            if witness is None:
                # Absent a witness, no bilocal unitary admits the state.
                for _ in range(3):
                    candidate = BilocalUnitary(
                        haar_unitary(rng, setup.d_frame),
                        haar_unitary(rng, setup.d_s))
                    assert not membership_test(setup, rho, candidate, g_i, g_j).is_member
                identity = BilocalUnitary(
                    np.eye(setup.d_frame), np.eye(setup.d_s))
                assert not membership_test(setup, rho, identity, g_i, g_j).is_member
            else:
                assert membership_test(setup, rho, witness, g_i, g_j).is_member
        count += 1
    return count


def suite_first_law_and_entropy_production(n=100, seed=908):
    count = 0
    prescription = Prescription.split_alpha(0.5)
    for _, rng, setup, g_i, _ in _instances(n, seed):
        d_f, d_s = setup.d_frame, setup.d_s
        h = random_hermitian(rng, d_f * d_s)
        split = split_hamiltonian(h, d_f, d_s)
        rho0 = kron(random_density(rng, d_f), random_density(rng, d_s))
        report = energetics(split, rho0, prescription)
        dt = 1e-6
        e_minus = energetics(split, evolve(h, rho0, -dt), prescription).e_s
        e_plus = energetics(split, evolve(h, rho0, dt), prescription).e_s
        fd = (e_plus - e_minus) / (2.0 * dt)
        scale = max(1.0, abs(fd))
        assert abs(report.qdot_conv_s + report.wdot_conv_s - fd) <= 1e-6 * scale
        assert abs(report.qdot_alt_s + report.wdot_alt_s - fd) <= 1e-6 * scale
        t = 0.3 + 1.2 * float(rng.random())
        balance = entropy_production_and_flow(setup, rho0, evolve(h, rho0, t))
        assert balance.sigma >= -1e-9
        assert abs(balance.sigma - balance.phi - balance.delta_s_s) <= 1e-8
        count += 1
    return count


ENERGETICS_FIELDS = (
    "e_frame", "e_s", "e_int", "e_total", "qdot_conv_s", "wdot_conv_s", "e_star_s",
    "qdot_alt_s", "wdot_alt_s", "qdot_conv_frame", "wdot_conv_frame", "e_star_frame",
    "qdot_alt_frame", "wdot_alt_frame")


def _dense_mean_field(split, rho_other, on):
    d_f, d_s = split.d_frame, split.d_s
    if on == "s":
        return partial_trace(split.h_int @ kron(rho_other, np.eye(d_s)), (d_f, d_s), drop=0)
    return partial_trace(split.h_int @ kron(np.eye(d_f), rho_other), (d_f, d_s), drop=1)


def eigenspace_count(mask):
    """How many eigenspaces an eigenspaces mask joins its eigenvalues into, per member of a stack: one plus
    the neighbouring pairs, in eigh's ascending order, that it keeps apart."""
    return 1 + np.count_nonzero(~np.diagonal(mask, offset=1, axis1=-2, axis2=-1), axis=-1)


def _dense_commutant_projection(h, op, gap):
    """The pinching onto the eigenspaces of h, with its own clustering: descending neighbours more than
    gap apart start a new eigenspace."""
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    out = np.zeros_like(np.asarray(op, dtype=complex))
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k - 1] - vals[k] > gap:
            p = vecs[:, start:k] @ dagger(vecs[:, start:k])
            out += p @ op @ p
            start = k
    return out


def dense_energetics_oracle(split, rho_ibar, prescription, rho_dot=None):
    """Energies and rates by d x d products against kron(rho, 1), as a dict of the 14 fields.

    This is the formula energetics used before it contracted on the factor
    tensor of h_int; it forms h_int_eff and traces every product.
    """
    def trace(mat):
        return np.real(np.trace(mat, axis1=-2, axis2=-1))

    d_f, d_s = split.d_frame, split.d_s
    dims = (d_f, d_s)
    total = kron(split.h_frame, np.eye(d_s)) + kron(np.eye(d_f), split.h_s) + split.h_int
    if rho_dot is None:
        rho_dot = -1j * (total @ rho_ibar - rho_ibar @ total)
    rho_s, rho_f = partial_trace(rho_ibar, dims, drop=0), partial_trace(rho_ibar, dims, drop=1)
    rho_s_dot, rho_f_dot = partial_trace(rho_dot, dims, drop=0), partial_trace(rho_dot, dims, drop=1)
    h_tilde_s, h_tilde_f = _dense_mean_field(split, rho_f, "s"), _dense_mean_field(split, rho_s, "frame")
    h_tilde_s_dot = _dense_mean_field(split, rho_f_dot, "s")
    h_tilde_f_dot = _dense_mean_field(split, rho_s_dot, "frame")
    mean = trace(split.h_int @ kron(rho_f, rho_s))
    mean_dot = trace(split.h_int @ kron(rho_f_dot, rho_s)) + trace(split.h_int @ kron(rho_f, rho_s_dot))
    if prescription.kind == "split_alpha":
        def share(h_tilde, value, alpha, d):
            return h_tilde - alpha * np.asarray(value)[..., None, None] * np.eye(d)
        h_s_eff = split.h_s + share(h_tilde_s, mean, prescription.alpha_s, d_s)
        h_f_eff = split.h_frame + share(h_tilde_f, mean, prescription.alpha_frame, d_f)
        h_s_eff_dot = share(h_tilde_s_dot, mean_dot, prescription.alpha_s, d_s)
        h_f_eff_dot = share(h_tilde_f_dot, mean_dot, prescription.alpha_frame, d_f)
    else:
        gap = COMMUTANT_GAP * np.linalg.norm(total)

        def share(h_bare, h_tilde):
            if h_tilde.ndim == 2:
                return _dense_commutant_projection(h_bare, h_tilde, gap)
            return np.array([_dense_commutant_projection(h_bare, m, gap) for m in h_tilde])
        h_s_eff = split.h_s + share(split.h_s, h_tilde_s)
        h_f_eff = split.h_frame + share(split.h_frame, h_tilde_f)
        h_s_eff_dot = share(split.h_s, h_tilde_s_dot)
        h_f_eff_dot = share(split.h_frame, h_tilde_f_dot)
    h_int_eff = total - kron(h_f_eff, np.eye(d_s)) - kron(np.eye(d_f), h_s_eff)

    out = {"e_frame": trace(h_f_eff @ rho_f), "e_s": trace(h_s_eff @ rho_s),
           "e_int": trace(h_int_eff @ rho_ibar), "e_total": trace(total @ rho_ibar)}
    for side, h_eff, h_eff_dot, h_bare, h_tilde, rho_m, rho_m_dot in (
            ("s", h_s_eff, h_s_eff_dot, split.h_s, h_tilde_s, rho_s, rho_s_dot),
            ("frame", h_f_eff, h_f_eff_dot, split.h_frame, h_tilde_f, rho_f, rho_f_dot)):
        gen = h_bare + h_tilde
        qdot, wdot = trace(h_eff @ rho_m_dot), trace(h_eff_dot @ rho_m)
        e_star = trace(-1j * (h_eff @ (gen @ rho_m - rho_m @ gen)))
        out.update({f"qdot_conv_{side}": qdot, f"wdot_conv_{side}": wdot, f"e_star_{side}": e_star,
                    f"qdot_alt_{side}": qdot - e_star, f"wdot_alt_{side}": wdot + e_star})
    return out


def state_marginals(split, rho):
    """StateMarginals of a Hermitian state (or stack) under H = split.total, as trajectory_runs
    assembles them for a run of blocks."""
    return _assembled(split, *_traced(split, rho))


def energetics(split, rho, prescription):
    """ThermoReport of a Hermitian state (or stack) under the closed-system rho_dot = -i[H, rho]."""
    return marginal_energetics(split, prescription, state_marginals(split, rho))


def energetics_with_rho_dot(split, rho, prescription, rho_dot):
    """energetics of rho with a dense rho_dot from any generator, through marginal_energetics.

    The StateMarginals are the partial traces of rho and rho_dot, and
    e_total = Tr(H rho); rho and rho_dot may be stacks.
    """
    dims = (split.d_frame, split.d_s)
    rho = np.asarray(rho, dtype=complex)
    e_total = np.real(np.trace(split.total @ rho, axis1=-2, axis2=-1))
    marginals = StateMarginals(
        partial_trace(rho, dims, drop=1), partial_trace(rho, dims, drop=0),
        partial_trace(rho_dot, dims, drop=1), partial_trace(rho_dot, dims, drop=0),
        float(e_total) if e_total.ndim == 0 else e_total)
    return marginal_energetics(split, prescription, marginals)


def _report(split, rho, prescription, rho_dot):
    """energetics, or energetics_with_rho_dot when a rho_dot is supplied."""
    if rho_dot is None:
        return energetics(split, rho, prescription)
    return energetics_with_rho_dot(split, rho, prescription, rho_dot)


def _degenerate_hermitian(rng, d):
    """Random Hermitian matrix with a spectrum of repeated values."""
    vals = rng.choice([-1.0, 0.5, 2.0], size=d)
    vecs = haar_unitary(rng, d)
    return (vecs * vals) @ dagger(vecs)


def suite_energetics_matches_dense_oracle(n=100, seed=910):
    """Contracted energetics and mean fields agree with the dense formula, under split_alpha at a
    random alpha_s and at alpha_s = 0 and 1, where one side takes all of c, and under commuting_part."""
    count = 0
    for k, rng, setup, g_i, g_j in _instances(n, seed):
        d_f, d_s = setup.d_frame, setup.d_s
        dims = (d_f, d_s)
        u = dense_perspective_unitary(setup, g_i, g_j)
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        h = u @ random_hermitian(rng, d_f * d_s, scale) @ dagger(u)
        split = split_hamiltonian((h + dagger(h)) / 2, d_f, d_s)
        if k % 3 == 2:
            # Degenerate local spectra give commuting_part multi-dimensional blocks.
            split = HamiltonianSplit(_degenerate_hermitian(rng, d_f), _degenerate_hermitian(rng, d_s),
                                     split.h_int)
        tol = 1e-12 * max(1.0, np.linalg.norm(split.total, 2) ** 2)

        rho0 = kron(random_density(rng, d_f), random_density(rng, d_s))
        rho0 = u @ random_density(rng, d_f * d_s) @ dagger(u) if k % 4 == 3 else rho0
        times = np.sort(rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 5))))
        stack = GridEvolution(split.total).states(rho0, times)
        # A supplied rho_dot from another generator must be used as given.
        g = random_hermitian(rng, d_f * d_s, scale)
        supplied = -1j * (g @ stack - stack @ g)
        for prescription in (Prescription.split_alpha(float(rng.random())), Prescription.split_alpha(0.0),
                             Prescription.split_alpha(1.0), Prescription.commuting_part()):
            for rho_dot in (None, supplied):
                cases = [(stack, rho_dot)] + [(rho, None if rho_dot is None else rho_dot[m])
                                              for m, rho in enumerate(stack)]
                for rho, rho_d in cases:
                    report = _report(split, rho, prescription, rho_d)
                    oracle = dense_energetics_oracle(split, rho, prescription, rho_dot=rho_d)
                    for name in ENERGETICS_FIELDS:
                        value = getattr(report, name)
                        assert np.shape(value) == np.shape(oracle[name]), name
                        assert np.abs(value - oracle[name]).max() <= tol, name

        for on, rho_other in (("s", partial_trace(stack, dims, drop=1)),
                              ("frame", partial_trace(stack, dims, drop=0))):
            for state in (rho_other, rho_other[0]):
                assert np.abs(mean_field_hamiltonian(split, state, on=on)
                              - _dense_mean_field(split, state, on)).max() <= tol, on
        count += 1
    return count


def _assert_stack_matches(stacked, singles, tol=1e-12):
    stacked = np.asarray(stacked)
    singles = np.asarray(singles)
    assert stacked.shape == singles.shape
    finite = np.isfinite(singles)
    assert np.array_equal(np.isfinite(stacked), finite)
    assert np.abs(stacked[finite] - singles[finite]).max(initial=0.0) <= tol


def suite_stacked_layers_match_single_states(n=100, seed=909):
    """Stacks of states along a trajectory give the single-state results."""
    count = 0
    for k, rng, setup, g_i, g_j in _instances(n, seed):
        d_f, d_s = setup.d_frame, setup.d_s
        dims = (d_f, d_s)
        h = random_hermitian(rng, d_f * d_s)
        split = split_hamiltonian(h, d_f, d_s)
        rho0 = kron(random_density(rng, d_f), random_density(rng, d_s))
        times = np.sort(rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 6))))
        stack = GridEvolution(h).states(rho0, times)

        if k % 2:
            prescription = Prescription.split_alpha(float(rng.random()))
        else:
            prescription = Prescription.commuting_part()
        rho_dot = -1j * (h @ stack - stack @ h) if k % 3 == 0 else None
        report = _report(split, stack, prescription, rho_dot)
        for m, rho in enumerate(stack):
            single = _report(split, rho, prescription, None if rho_dot is None else rho_dot[m])
            for name in ENERGETICS_FIELDS:
                assert abs(getattr(report, name)[m] - getattr(single, name)) <= 1e-12, name

        x = BilocalUnitary(haar_unitary(rng, d_f), haar_unitary(rng, d_s))
        result = membership_test(setup, stack, x, g_i, g_j)
        singles = [membership_test(setup, rho, x, g_i, g_j) for rho in stack]
        _assert_stack_matches(result.residual, [r.residual for r in singles])
        _assert_stack_matches(result.tolerance, [r.tolerance for r in singles])
        assert result.is_member.tolist() == [r.is_member for r in singles]

        marginals = partial_trace(stack, dims, drop=1)
        assert np.array_equal(marginals, [partial_trace(r, dims, drop=1) for r in stack])
        _assert_stack_matches(von_neumann_entropy(stack), [von_neumann_entropy(r) for r in stack])
        _assert_stack_matches(mutual_information(stack, dims), [mutual_information(r, dims) for r in stack])
        # A rank-one reference makes the relative entropy infinite.
        psi = haar_state(rng, d_f)
        sigma = marginals[0] if k % 4 else np.outer(psi, psi.conj())
        _assert_stack_matches(relative_entropy(marginals, sigma),
                              [relative_entropy(r, sigma) for r in marginals])
        balance = entropy_production_and_flow(setup, rho0, stack)
        for m, rho in enumerate(stack):
            single = entropy_production_and_flow(setup, rho0, rho)
            _assert_stack_matches([balance.sigma[m], balance.phi[m], balance.delta_s_s[m]],
                                  [single.sigma, single.phi, single.delta_s_s])
        count += 1
    return count


def is_permutation_rep(setup):
    return bool(np.isin(setup.translations, (0.0, 1.0)).all())


def haar_conjugated_z3_setup():
    """Z3 regular conjugated by one fixed Haar unitary: an explicit rep with dense matrices."""
    w = haar_unitary(np.random.default_rng(12), 3)
    return FrameSetup(Z3, {g: w @ Z3.regular_representation(g) @ dagger(w) for g in Z3.elements})


def suite_rho_dot_marginals_match_dense_commutator(n=100, seed=911):
    """The contracted marginals of -i[H, rho] equal the partial traces of the dense commutator.

    Instances run over setup_pool() and one dense explicit rep, with H
    conjugated by the perspective change, for single states and for stacks
    of conjugated grid states (Hermitian only to round-off); e_total is
    checked against the dense Tr(H rho), and product_partial_traces against
    Tr(h rho) for a non-Hermitian h.
    """
    pool = setup_pool() + [haar_conjugated_z3_setup()]
    rng = np.random.default_rng(seed)
    for k in range(int(n)):
        setup = pool[k % len(pool)]
        d_f, d_s = setup.d_frame, setup.d_s
        dims, d = (d_f, d_s), d_f * d_s
        elements = setup.group.elements
        g_i, g_j = (elements[int(rng.integers(len(elements)))] for _ in range(2))
        change = setup.perspective_change(g_i, g_j)
        h = change.conjugate(random_hermitian(rng, d, 10.0 ** rng.uniform(-3.0, 3.0)))
        split = split_hamiltonian((h + dagger(h)) / 2, d_f, d_s)
        h = split.total
        rho0 = random_density(rng, d)
        times = rng.uniform(-2.0, 2.0, size=int(rng.integers(1, 6)))
        stack = change.conjugate(GridEvolution(h).states(rho0, times))
        for rho in (stack, stack[0], rho0):
            marginals = state_marginals(split, rho)
            dense = -1j * (h @ rho - rho @ h)
            tol = 1e-12 * hs_norm(h) * np.max(hs_norm(rho))
            assert np.abs(marginals.rho_frame_dot - partial_trace(dense, dims, drop=1)).max() <= tol
            assert np.abs(marginals.rho_s_dot - partial_trace(dense, dims, drop=0)).max() <= tol
            assert np.abs(marginals.e_total - np.trace(h @ rho, axis1=-2, axis2=-1).real).max() <= tol
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            on_frame, on_s = product_partial_traces(product_trace_maps(g, dims), rho)
            tol = 1e-12 * hs_norm(g) * np.max(hs_norm(rho))
            assert np.abs(on_frame - partial_trace(g @ rho, dims, drop=1)).max() <= tol
            assert np.abs(on_s - partial_trace(g @ rho, dims, drop=0)).max() <= tol
    return int(n)


def per_perspective_runs(evolution, change, splits, rho0, times, read):
    """thermo.trajectory_runs as it was before both perspectives became one stack: the oracle of
    the stacked walk.

    Each perspective keeps its own split, keyed "i" and "j", its own stack of
    states and its own _traced and _assembled calls; read gets both stacks
    keyed the same way and returns a dict of per-time arrays.  Runs and
    blocks are cut as the stacked walk cuts them.
    """
    d_f, d_s = splits["i"].d_frame, splits["i"].d_s
    per_block = block_length(d_f * d_s)
    per_run = block_length(max(d_f, d_s)) // per_block
    blocks = evolution.blocks(rho0, times)
    for _ in range(0, len(times), per_run * per_block):
        run_times, traced, columns = [], {"i": [], "j": []}, []
        for block, rho_i in itertools.islice(blocks, per_run):
            rho = {"i": rho_i, "j": change.conjugate(rho_i)}
            run_times.append(block)
            columns.append(read(rho))
            for key, rho_t in rho.items():
                traced[key].append(_traced(splits[key], rho_t))
        yield (np.concatenate(run_times),
               {key: _assembled(splits[key], *map(np.concatenate, zip(*parts))) for key, parts in traced.items()},
               {name: np.concatenate([part[name] for part in columns]) for name in columns[0]})


def per_perspective_rows(cfg, h_ibar, rho0_ibar, candidates, extras):
    """scenarios._dynamic_rows as it was before both perspectives became one stack, through
    per_perspective_runs: each perspective is split, checked for a product, given energetics,
    entropies and an entropy balance on its own, and each row is a blank row updated with the
    run's columns.  extras gets the two perspectives' StateMarginals stacked, frame i first, as
    the scenarios' extras read them, and the GridRun holds the two splits and InitialProducts stacked
    the same way, with the leading axes (2, 1), as the summaries read them."""
    setup = cfg.setup
    dims = (setup.d_frame, setup.d_s)
    change = setup.perspective_change(cfg.g_i, cfg.g_j)
    split = {"i": split_hamiltonian(h_ibar, *dims), "j": split_hamiltonian(change.conjugate(h_ibar), *dims)}
    rho0_i = np.asarray(rho0_ibar, dtype=complex)
    initial = {suffix: initial_product(setup, rho0, cfg.tolerance)
               for suffix, rho0 in (("i", rho0_i), ("j", change.conjugate(rho0_i)))}
    s_t = von_neumann_entropy(rho0_i) if any(p.is_product for p in initial.values()) else None

    def read(rho):
        return {n: membership_test(setup, rho["i"], x, cfg.g_i, cfg.g_j, tol=cfg.tolerance,
                                   transformed=rho["j"]).is_member for n, x in enumerate(candidates)}

    rows, evolution = [], GridEvolution(h_ibar)
    for times, marginals, verdicts in per_perspective_runs(evolution, change, split, rho0_i, cfg.time_grid, read):
        columns = {}
        for suffix, m in marginals.items():
            report = marginal_energetics(split[suffix], cfg.prescription, m)
            columns.update((f"{stem}_{suffix}", getattr(report, name))
                           for stem, name in scenarios._ENERGETICS_COLUMNS.items())
            columns[f"SvN_s_{suffix}"] = s_s = von_neumann_entropy(m.rho_s)
            if initial[suffix].is_product:
                balance = entropy_balance(initial[suffix], s_t, m.rho_frame, s_s)
                columns[f"sigma_{suffix}"] = balance.sigma
                columns[f"phi_{suffix}"] = balance.phi
        members = list(verdicts.values())
        if members:
            columns["in_AX"] = np.logical_or.reduce(members)
        if extras is not None:
            stacked = StateMarginals(*map(np.stack, zip(marginals["i"], marginals["j"])))
            columns.update(extras(times, stacked, members))
        per_time = zip(*[values.tolist() if isinstance(values, np.ndarray) and values.ndim == 1
                         else values for values in columns.values()])
        for t, values in zip(times, per_time):
            row = scenarios._blank_row(t)
            row.update(zip(columns, values))
            rows.append(row)
    stacked = InitialProduct(*(np.array(pair)[:, None] for pair in zip(initial["i"], initial["j"])))
    return scenarios.GridRun(np.asarray(h_ibar, dtype=complex), rho0_i, rows, evolution,
                             stacked_split(split["i"], split["j"]), stacked)


def per_perspective_static_row(cfg, psi_or_rho):
    """scenarios._static_entropy_row with each perspective traced and its entropy and spectrum taken
    on its own; the states, spectra and system marginals come back stacked, frame i first."""
    setup = cfg.setup
    mat = np.asarray(psi_or_rho, dtype=complex)
    rho_i = np.outer(mat, mat.conj()) if mat.ndim == 1 else mat
    rho = [rho_i, setup.perspective_change(cfg.g_i, cfg.g_j).conjugate(rho_i)]
    rho_s = [partial_trace(rho_t, (setup.d_frame, setup.d_s), drop=0) for rho_t in rho]
    row = scenarios._blank_row(0.0)
    row.update(SvN_s_i=von_neumann_entropy(rho_s[0]), SvN_s_j=von_neumann_entropy(rho_s[1]))
    return row, np.stack(rho), np.stack([checked_spectrum(rho_s_t) for rho_s_t in rho_s]), np.stack(rho_s)


def per_perspective_balance_verifiers(setup, split, rho0, g_i, g_j, prescription, t0, t1, x0=None, x1=None,
                                      grid=50):
    """thermo.balance_verifiers as it was before it read both perspectives off the walk's pair: the oracle
    of its pair reads.

    The walk is the same, on every call, witness or not, but each run's StateMarginals are split into the
    two halves, with one energetics call per rate set (frame j's rates on frame j's own split), and the
    endpoints give four InitialProducts and one entropy balance per perspective.
    """
    grid = int(grid)
    premises = []
    h_total = split.total
    change = setup.perspective_change(g_i, g_j)
    split_j = conjugated_split(change, h_total, setup.d_frame, setup.d_s)
    times = np.linspace(float(t0), float(t1), grid)
    rho0 = np.asarray(rho0, dtype=complex)
    evolution = GridEvolution(h_total)

    def find_witness(rho_t, provided):
        if provided is not None:
            return provided
        if purity(rho_t) >= 1.0 - 1e-10:
            vals, vecs = np.linalg.eigh(rho_t)
            return pure_state_bilocal_witness(setup, vecs[:, int(np.argmax(vals))], g_i, g_j)
        return None

    if x0 is None:
        x0 = find_witness(evolution.states(rho0, times[:1])[0], None)

    in_grid, rates_max_gap, both_bare_max_gap = [], math.inf, 0.0
    if x0 is not None:
        split_imported = conjugated_split(x0.adjoint, split_j.total, setup.d_frame, setup.d_s)
        rates_max_gap = 0.0
    pair, ends = stacked_split(split, split_j), {}

    def read(rho):
        if not ends:
            ends["first"] = rho[:, 0].copy()
        ends["last"] = rho[:, -1]
        return [] if x0 is None else [membership_test(setup, rho[0], x0, g_i, g_j, transformed=rho[1]).is_member]

    for _, marginals, columns in trajectory_runs(evolution, change, pair, rho0, times, read):
        frame_i, frame_j = (StateMarginals(*fields) for fields in zip(*marginals))
        rates_j = marginal_energetics(split_j, prescription, frame_j).rates_vector()
        rates_bare = marginal_energetics(split, prescription, frame_i).rates_vector()
        both_bare_max_gap = max(both_bare_max_gap, float(np.abs(rates_bare - rates_j).max()))
        if x0 is not None:
            in_grid += columns[0].tolist()
            rates_imported = marginal_energetics(split_imported, prescription, frame_i).rates_vector()
            rates_max_gap = max(rates_max_gap, float(np.abs(rates_imported - rates_j).max()))
    (rho_t0, rho_j_t0), (rho_t1, rho_j_t1) = ends["first"], ends["last"]
    membership_ok = x0 is not None and all(in_grid)
    if x0 is None:
        premises.append("no subalgebra witness available at the initial time")
    elif not membership_ok:
        premises.append("trajectory leaves the subalgebra on the grid")
    x1 = find_witness(rho_t1, x1)

    start_i, end_i, start_j, end_j = (InitialProduct(*fields) for fields in zip(
        *initial_product(setup, np.stack([rho_t0, rho_t1, rho_j_t0, rho_j_t1]))))
    s_t1 = von_neumann_entropy(rho_t0)
    frame_marginal_static = bool(start_i.is_product and end_i.is_product
                                 and hs_norm(end_i.rho_frame - start_i.rho_frame) <= 1e-9)
    y_factors_match = None if x0 is None or x1 is None else _phase_aligned_equal(x0.y, x1.y)

    sigma_i = phi_i = sigma_j = phi_j = pure_balance_zero = None
    if start_i.is_product:
        balance_i = entropy_balance(start_i, s_t1, end_i.rho_frame, end_i.s_s)
        sigma_i, phi_i = balance_i.sigma, balance_i.phi
        if start_j.is_product:
            balance_j = entropy_balance(start_j, s_t1, end_j.rho_frame, end_j.s_s)
            sigma_j, phi_j = balance_j.sigma, balance_j.phi
        else:
            premises.append("transformed initial state is not a product")
        if frame_marginal_static and y_factors_match and membership_ok and sigma_j is not None:
            pure_balance_zero = bool(max(abs(sigma_i), abs(phi_i), abs(sigma_j), abs(phi_j)) <= 1e-8)
    else:
        premises.append("initial state is not a product")

    delta_s_s_equal = delta_s_frame_equal = y_condition_holds = sigma_phi_equal = None
    member_t0 = x0 is not None and in_grid[0]
    member_t1 = x1 is not None and (in_grid[-1] if x1 is x0 else membership_test(
        setup, rho_t1, x1, g_i, g_j, transformed=rho_j_t1).is_member)
    if member_t0 and member_t1:
        delta_s_frame_equal = bool(abs((end_i.s_frame - start_i.s_frame)
                                       - (end_j.s_frame - start_j.s_frame)) <= 1e-8)
        delta_s_s_equal = bool(abs((end_i.s_s - start_i.s_s) - (end_j.s_s - start_j.s_s)) <= 1e-8)
        if start_i.is_product:
            y01 = x0.y @ dagger(x1.y)
            rotated = y01 @ end_i.rho_frame @ dagger(y01)
            lhs = entropy_and_relative_entropy(rotated, start_i.log_frame, start_i.kernel_frame)[1]
            y_condition_holds = _agree(lhs, balance_i.frame_relative_entropy)
            if sigma_j is not None:
                sigma_phi_equal = _agree(sigma_i, sigma_j) and _agree(phi_i, phi_j)
    else:
        premises.append("membership at both endpoint times is required for entropy-change checks")

    return BalanceReport(
        times=times, rates_max_gap=float(rates_max_gap),
        rates_match=bool(x0 is not None and membership_ok
                         and rates_max_gap <= 1e-8 * np.abs(evolution.vals).max() ** 2),
        both_bare_max_gap=float(both_bare_max_gap), membership_ok=membership_ok,
        product_at_t0=start_i.is_product, product_at_t1=end_i.is_product,
        frame_marginal_static=frame_marginal_static, y_factors_match=y_factors_match,
        sigma_i=sigma_i, phi_i=phi_i, sigma_j=sigma_j, phi_j=phi_j, pure_balance_zero=pure_balance_zero,
        delta_s_s_equal=delta_s_s_equal, delta_s_frame_equal=delta_s_frame_equal,
        y_condition_holds=y_condition_holds, sigma_phi_equal=sigma_phi_equal, premises_not_met=premises)


class NonProductInitialStateError(ValueError):
    """Entropy balance needs an initial frame (x) system product state."""


def entropy_production_and_flow(setup, rho0_ibar, rho_t_ibar, tol=1e-9, s_t=None):
    """Entropy produced and entropy exchanged between an initial product state and a later state.

    The package's two steps in one call, tracing the marginals afresh:
    initial_product, then entropy_balance.  rho_t_ibar may be a stack
    (k, d, d) of later states.  s_t stands in for S(rho_t) when given, as
    S(rho0) does on a unitary trajectory.  Raises NonProductInitialStateError
    unless rho0 is a frame (x) system product.
    """
    initial = initial_product(setup, rho0_ibar, tol)
    if not initial.is_product:
        raise NonProductInitialStateError("initial state must be a frame (x) system product")
    rho_t = np.asarray(rho_t_ibar, dtype=complex)
    dims = (setup.d_frame, setup.d_s)
    return entropy_balance(initial, von_neumann_entropy(rho_t) if s_t is None else s_t,
                           partial_trace(rho_t, dims, drop=1),
                           von_neumann_entropy(partial_trace(rho_t, dims, drop=0)))


def cluster_projectors(proj):
    """The projectors P_C = Q_C Q_C' onto a label projector's eigenvalue clusters, one per distinct mask row."""
    q = proj.schur_vectors
    return [q[:, cluster] @ dagger(q[:, cluster]) for cluster in np.unique(proj.mask, axis=0)]


def label_superoperator(proj):
    """A label projector's d_p^2 x d_p^2 matrix on column-major vec(f): sum_C conj(P_C) (x) P_C.

    It is the pinching f -> sum_C P_C f P_C, and the sum of two labels' is the S whose
    eigenvalue-2 space intersect_projectors computes in its real form.
    """
    return sum(np.kron(p.conj(), p) for p in cluster_projectors(proj))


def conjugation_superop(w):
    """Superoperator of f -> w f w' acting on column-major vec(f); w must be unitary."""
    w = assert_unitary(np.asarray(w, dtype=complex))
    return np.kron(w.conj(), w)


@dataclass
class FixedSpace:
    """Eigenvalue-1 subspace of a matrix: orthogonal projector and basis."""

    projector: np.ndarray
    basis: np.ndarray

    @property
    def dimension(self):
        return self.basis.shape[1]


def fixed_space_projector(superop, tol=1e-9):
    """Orthogonal projector onto the eigenvalue-1 subspace of superop, by ordered Schur form.

    The leading Schur vectors span the selected invariant subspace.
    Eigenvalues in the annulus (tol, 10 tol] around 1 mean the rank is
    numerically ambiguous and raise NumericalRankError with the observed gap.
    This is the construction intersect_projectors used on the product of two
    projectors before it took the Hermitian eigenproblem of their sum.
    """
    superop = np.asarray(superop, dtype=complex)

    def near_one(lam):
        return abs(lam - 1.0) <= tol

    triangular, q, sdim = schur(superop, output="complex", sort=near_one)
    eigs = np.diag(triangular)
    rejected = eigs[sdim:]
    if rejected.size:
        gap = float(np.abs(rejected - 1.0).min())
        if gap <= 10 * tol:
            raise NumericalRankError(
                f"eigenvalue at distance {gap:.3e} from 1 is inside the guard band {10 * tol:.3e}")
    basis = q[:, :sdim]
    return FixedSpace(projector=basis @ dagger(basis), basis=basis)


def superoperator_projector_oracle(setup, x, g_i, g_j, tol=1e-9):
    """The label projector as the eigenvalue-1 space of conj(W) (x) W, W = X'u, by ordered Schur.

    This is the d_p^2 x d_p^2 construction that invariant_projector replaced
    with the pinching over W's own eigenspaces; returns a FixedSpace.
    """
    u = dense_perspective_unitary(setup, g_i, g_j)
    superop = conjugation_superop(dagger(kron(x.y, x.z))) @ conjugation_superop(u)
    return fixed_space_projector(superop, tol=tol)


def monomial_commutant_dimension(ws, order):
    """Dimension of the operators that commute with every monomial w in ws, exactly.

    The entries of each w are order-th roots of unity, kept as integer turns,
    and no rank decision is made.  Conjugation by w maps the matrix unit at
    the index pair (a, b) to a phase times the one at (pi(a), pi(b)), so the
    commutant has one dimension per orbit of index pairs, under the union of
    the maps, around which the phases close up to 1.  That is when the orbit's
    lift to (turn, a, b), each map adding its phase's turns, splits into
    order orbits no larger than the orbit itself.
    """
    d = np.asarray(ws[0]).shape[0]
    nodes = np.arange(order * d * d).reshape(order, d, d)
    start = np.arange(order)[:, None, None]
    links = []
    for w in ws:
        w = np.asarray(w)
        cols, rows = np.nonzero(w.T)
        assert cols.tolist() == sorted(rows.tolist()) == list(range(d)), "w is not monomial"
        phases = w[rows, cols]
        turns = np.rint(np.angle(phases) * order / (2 * np.pi)).astype(int) % order
        assert np.abs(phases - np.exp(2j * np.pi * turns / order)).max() <= 1e-12
        # w E_ab w' = phases[a] conj(phases[b]) E_{rows[a], rows[b]}.
        moved = nodes[(start + turns[:, None] - turns[None, :]) % order, rows[:, None], rows[None, :]]
        links.append((nodes.ravel(), moved.ravel()))
    tail, head = (np.concatenate(ends) for ends in zip(*links))

    def orbits(tail, head, size):
        graph = coo_matrix((np.ones(tail.size), (tail, head)), shape=(size, size))
        return connected_components(graph, directed=False)[1]

    lifted = orbits(tail, head, nodes.size)
    base = orbits(tail % (d * d), head % (d * d), d * d)
    flat = np.bincount(lifted)[lifted[:d * d]] == np.bincount(base)[base]
    return np.unique(base[flat]).size


def suite_label_projector_matches_superoperator_oracle(n=100, seed=912):
    """invariant_projector against the superoperator Schur oracle: dimension, superoperator and apply.

    The cases are every orientation pair of every setup in setup_pool() and
    one dense explicit rep, each with the labels 1, 1 (x) U_S(g) and
    U_F(a) (x) U_S(b) for random g, a, b.  Of the N cases, instance k checks
    k mod N, k mod N + n, k mod N + 2n, ..., so any n instances reach them all.
    """
    cases = [(setup, g_i, g_j) for setup in setup_pool() + [haar_conjugated_z3_setup()]
             for g_i in setup.group.elements for g_j in setup.group.elements]
    rng = np.random.default_rng(seed)
    for k in range(int(n)):
        for setup, g_i, g_j in cases[k % len(cases)::int(n)]:
            d_f, d_s, d = setup.d_frame, setup.d_s, setup.d_perspective
            elements = setup.group.elements
            g, a, b = (elements[int(rng.integers(len(elements)))] for _ in range(3))
            for x in (BilocalUnitary(np.eye(d_f), np.eye(d_s)), BilocalUnitary(np.eye(d_f), setup.u_s(g)),
                      BilocalUnitary(setup.u_frame(a), setup.u_s(b))):
                proj = invariant_projector(setup, x, g_i, g_j)
                oracle = superoperator_projector_oracle(setup, x, g_i, g_j)
                assert proj.dimension == oracle.dimension
                assert np.abs(label_superoperator(proj) - oracle.projector).max() <= 1e-12
                f = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                assert np.abs(proj.apply(f) - unvec(oracle.projector @ vec(f), d)).max() <= 1e-12 * hs_norm(f)
    return int(n)


def suite_intersection_matches_schur_oracle(n=100, seed=913):
    """intersect_projectors against the sorted-Schur oracle on the product of the two projectors.

    Instances cycle through setup_pool() and one dense explicit rep, each
    intersecting two of the labels 1, 1 (x) U_S(g) and U_F(a) (x) U_S(b)
    for random g, a, b at a random orientation pair: the dimensions agree,
    and so does apply, within 1e-12 ||f||.
    """
    pool = setup_pool() + [haar_conjugated_z3_setup()]
    rng = np.random.default_rng(seed)
    for k in range(int(n)):
        setup = pool[k % len(pool)]
        d_f, d_s, d = setup.d_frame, setup.d_s, setup.d_perspective
        elements = setup.group.elements
        g_i, g_j, g, a, b = (elements[int(rng.integers(len(elements)))] for _ in range(5))
        labels = (BilocalUnitary(np.eye(d_f), np.eye(d_s)), BilocalUnitary(np.eye(d_f), setup.u_s(g)),
                  BilocalUnitary(setup.u_frame(a), setup.u_s(b)))
        first, second = (invariant_projector(setup, labels[m], g_i, g_j) for m in rng.permutation(3)[:2])
        both = intersect_projectors(first, second)
        oracle = fixed_space_projector(label_superoperator(first) @ label_superoperator(second))
        assert both.dimension == oracle.dimension
        f = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.abs(both.apply(f) - unvec(oracle.projector @ vec(f), d)).max() <= 1e-12 * hs_norm(f)
    return int(n)


def _relative_entropy_by_overlaps(rho, sigma):
    """S(rho || sigma) = sum_a p_a log p_a - sum_ab p_a |<a|b>|^2 log q_b from both eigenbases,
    math.inf when rho puts weight on sigma's kernel."""
    p, r = np.linalg.eigh(rho)
    q, s = np.linalg.eigh(sigma)
    weights = p[:, None] * np.abs(dagger(r) @ s) ** 2
    support, kept = q > SUPPORT_CUTOFF, p > SUPPORT_CUTOFF
    if weights[:, ~support].sum() > 1e-12:
        return math.inf
    return float((p[kept] * np.log(p[kept])).sum() - (weights[:, support] * np.log(q[support])).sum())


def suite_entropy_balance_from_one_spectrum(n=100, seed=914):
    """S(rho(t)) = S(rho0) along a unitary trajectory and its frame-j image, and entropy_balance,
    one spectrum of rho_frame(t), equals von_neumann_entropy plus relative_entropy.

    Instances run over setup_pool() and one dense explicit rep.  rho0 = rho_f (x) rho_s is full
    rank on even instances; on odd ones rho_f has rank below d_f, so rho_frame(0) has a kernel
    that every later rho_frame(t) leaves, and frame i's relative entropies are inf.
    relative_entropy is checked against the overlap formula, and a stacked initial_product
    against one call per state.
    """
    pool = setup_pool() + [haar_conjugated_z3_setup()]
    rng = np.random.default_rng(seed)
    for k in range(int(n)):
        setup = pool[k % len(pool)]
        d_f, d_s = setup.d_frame, setup.d_s
        dims = (d_f, d_s)
        elements = setup.group.elements
        g_i, g_j = (elements[int(rng.integers(len(elements)))] for _ in range(2))
        change = setup.perspective_change(g_i, g_j)
        deficient = k % 2 == 1
        rho0 = kron(random_density(rng, d_f, int(rng.integers(1, d_f)) if deficient else None),
                    random_density(rng, d_s))
        s0 = von_neumann_entropy(rho0)
        times = rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 6)))
        stack = GridEvolution(random_hermitian(rng, d_f * d_s)).states(rho0, times)
        starts = np.stack([rho0, change.conjugate(rho0)])
        stacked = initial_product(setup, starts)
        for frame, (start, rho_t) in enumerate(zip(starts, (stack, change.conjugate(stack)))):
            assert np.abs(von_neumann_entropy(rho_t) - s0).max() <= 1e-13
            initial = initial_product(setup, start)
            for name, value in initial._asdict().items():
                assert np.array_equal(getattr(stacked, name)[frame], value), name
            if not initial.is_product:
                continue
            assert abs(relative_entropy(initial.rho_frame, initial.rho_frame)) <= 1e-13
            rho_frame_t = partial_trace(rho_t, dims, drop=1)
            s_s_t = von_neumann_entropy(partial_trace(rho_t, dims, drop=0))
            s_frame_t = von_neumann_entropy(rho_frame_t)
            rel = relative_entropy(rho_frame_t, initial.rho_frame)
            _assert_stack_matches(rel, [_relative_entropy_by_overlaps(r, initial.rho_frame)
                                        for r in rho_frame_t], 1e-13)
            if deficient and frame == 0:
                assert np.isinf(rel).all()
            expected = np.array([s_frame_t + s_s_t - s0 + rel, s_frame_t - initial.s_frame + rel, rel])
            balance = entropy_balance(initial, s0, rho_frame_t, s_s_t)
            _assert_stack_matches([balance.sigma, balance.phi, balance.frame_relative_entropy], expected, 1e-13)
            for m in range(len(times)):
                single = entropy_balance(initial, s0, rho_frame_t[m], s_s_t[m])
                _assert_stack_matches([single.sigma, single.phi, single.frame_relative_entropy],
                                      expected[:, m], 1e-13)
    return int(n)


def _scale_free_verdicts(setup, hamiltonian, g_i, g_j):
    """The yes/no verdicts read from a perspective Hamiltonian, and its eigenspace counts."""
    split = split_hamiltonian(hamiltonian, setup.d_frame, setup.d_s)
    gibbs = gibbs_classification(setup, hamiltonian, g_i, g_j)
    return (dynamical_type_classifier(setup, split), gibbs.translation_invariant, gibbs.invariant_gibbs,
            gibbs.in_translation_kernel, gibbs.mu_sign,
            *(int(eigenspace_count(split.eigenspaces[key][1])) for key in ("s", "frame")))


def energy_scale_instances(n, seed):
    """(k, setup, H, g_i, g_j) of suite_verdicts_do_not_depend_on_energy_scale, instance by instance.

    H = h_F (x) 1 + 1 (x) h_S + h_int over setup_pool(), with traceless h_F and h_S and an
    h_int without local parts, so that the split returns them.  h_S cycles through translation
    invariant, in the translations' kernel, degenerate (zero up to round-off where its values
    coincide) and generic; h_F is diagonal on every other instance.  h_int cycles through zero,
    generic and h_D (x) h_S with a diagonal h_D, which the perspective change turns into a
    multiple of h_S when h_S anticommutes with every U_S(g) but e (the kernel over Z2), so that
    mu_sign is set.
    """
    for k, rng, setup, g_i, g_j in _instances(n, seed):
        d_f, d_s = setup.d_frame, setup.d_s
        h_s = random_hermitian(rng, d_s)
        h_s = (pi_t(setup, h_s), h_s - pi_t(setup, h_s), _degenerate_hermitian(rng, d_s), h_s)[k % 4]
        h_f = np.diag(rng.normal(size=d_f)) if k % 2 == 0 else random_hermitian(rng, d_f)
        h_f, h_s = (h - np.trace(h) / len(h) * np.eye(len(h)) for h in (h_f, h_s))
        h_d, generic = rng.normal(size=d_f), random_hermitian(rng, d_f * d_s, 0.3)
        h_int = (0 * generic, split_hamiltonian(generic, d_f, d_s).h_int,
                 kron(np.diag(h_d - h_d.mean()), h_s))[k % 3]
        yield k, setup, kron(h_f, np.eye(d_s)) + kron(np.eye(d_f), h_s) + h_int, g_i, g_j


def suite_verdicts_do_not_depend_on_energy_scale(n=100, seed=915):
    """dynamical_type_classifier, gibbs_classification's booleans and mu_sign, and the eigenspace
    counts of the split are the same for s H as for H, s from 1e-12 to 1e10, over
    energy_scale_instances.
    """
    scales = (1e-12, 1e-5, 1e3, 1e10)
    for k, setup, hamiltonian, g_i, g_j in energy_scale_instances(n, seed):
        expected = _scale_free_verdicts(setup, hamiltonian, g_i, g_j)
        for scale in scales:
            assert _scale_free_verdicts(setup, scale * hamiltonian, g_i, g_j) == expected, (k, scale)
    return int(n)


ALL_SUITES = (
    suite_physical_projector_rank,
    suite_reduction_coisometry,
    suite_perspective_change_unitary,
    suite_projector_algebra,
    suite_relational_observables,
    suite_dephased_translation_sector_swap,
    suite_pure_state_witness,
    suite_first_law_and_entropy_production,
    suite_stacked_layers_match_single_states,
    suite_energetics_matches_dense_oracle,
    suite_rho_dot_marginals_match_dense_commutator,
    suite_label_projector_matches_superoperator_oracle,
    suite_intersection_matches_schur_oracle,
    suite_entropy_balance_from_one_spectrum,
    suite_verdicts_do_not_depend_on_energy_scale,
)
