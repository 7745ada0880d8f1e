"""Randomized property suites shared by the unit and acceptance tests.

Each suite checks one structural guarantee on n independently randomized
instances drawn over several group and representation setups, raising
AssertionError on the first violation and returning the instance count.
"""
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from qrf_lab.dynamics import (
    COMMUTANT_GAP,
    GridEvolution,
    HamiltonianSplit,
    evolve,
    mean_field_hamiltonian,
    split_hamiltonian,
)
from qrf_lab.frames import FrameSetup, parity_swap
from qrf_lab.groups import Z2, Z2xZ2, Z3
from qrf_lab.operators import (
    NumericalRankError,
    assert_unitary,
    dagger,
    degenerate_blocks,
    haar_state,
    haar_unitary,
    hs_inner,
    hs_norm,
    kron,
    partial_trace,
    product_partial_traces,
    product_trace_maps,
    random_hermitian,
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
from qrf_lab.states import mutual_information, relative_entropy, von_neumann_entropy
from qrf_lab.thermo import (
    Prescription,
    StateMarginals,
    _assembled,
    _traced,
    entropy_balance,
    initial_product,
    marginal_energetics,
)

from kinematics import d_kin, pi_phys, qrf_transform, reduction_map, relational_observable, u_kin


def _diag_rep(group, character_labels):
    return {
        g: np.diag([group.character(k, g) for k in character_labels])
        for g in group.elements
    }


def setup_pool():
    """Setups spanning Z2, Z3, and Z2xZ2 with system dimensions up to 8."""
    return [
        FrameSetup.from_rep_config(Z2, "regular"),
        FrameSetup.from_rep_config(Z2, {"tensor_power": 2}),
        FrameSetup.from_rep_config(Z2, {"tensor_power": 3}),
        FrameSetup.from_rep_config(Z3, "regular"),
        FrameSetup(Z3, _diag_rep(Z3, [(0,), (1,)])),
        FrameSetup.from_rep_config(Z2xZ2, "regular"),
        FrameSetup(Z2xZ2, _diag_rep(Z2xZ2, [(0, 0), (0, 1), (1, 0)])),
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


def _random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
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
            u = setup.perspective_change(g_i, g_j).matrix
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
        rho0 = kron(_random_density(rng, d_f), _random_density(rng, d_s))
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


def _dense_commutant_projection(h, op):
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    out = np.zeros_like(np.asarray(op, dtype=complex))
    for blk in degenerate_blocks(vals, COMMUTANT_GAP):
        p = vecs[:, blk] @ dagger(vecs[:, blk])
        out += p @ op @ p
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
        def share(h_bare, h_tilde):
            if h_tilde.ndim == 2:
                return _dense_commutant_projection(h_bare, h_tilde)
            return np.array([_dense_commutant_projection(h_bare, m) for m in h_tilde])
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
    """Contracted energetics and mean fields agree with the dense formula."""
    count = 0
    for k, rng, setup, g_i, g_j in _instances(n, seed):
        d_f, d_s = setup.d_frame, setup.d_s
        dims = (d_f, d_s)
        u = setup.perspective_change(g_i, g_j).matrix
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        h = u @ random_hermitian(rng, d_f * d_s, scale) @ dagger(u)
        split = split_hamiltonian((h + dagger(h)) / 2, d_f, d_s)
        if k % 3 == 2:
            # Degenerate local spectra give commuting_part multi-dimensional blocks.
            split = HamiltonianSplit(_degenerate_hermitian(rng, d_f), _degenerate_hermitian(rng, d_s),
                                     split.h_int)
        tol = 1e-12 * max(1.0, np.linalg.norm(split.total, 2) ** 2)

        rho0 = kron(_random_density(rng, d_f), _random_density(rng, d_s))
        rho0 = u @ _random_density(rng, d_f * d_s) @ dagger(u) if k % 4 == 3 else rho0
        times = np.sort(rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 5))))
        stack = GridEvolution(split.total).states(rho0, times)
        # A supplied rho_dot from another generator must be used as given.
        g = random_hermitian(rng, d_f * d_s, scale)
        supplied = -1j * (g @ stack - stack @ g)
        for prescription in (Prescription.split_alpha(float(rng.random())), Prescription.commuting_part()):
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
        rho0 = kron(_random_density(rng, d_f), _random_density(rng, d_s))
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
        rho0 = _random_density(rng, d)
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


class NonProductInitialStateError(ValueError):
    """Entropy balance needs an initial frame (x) system product state."""


def entropy_production_and_flow(setup, rho0_ibar, rho_t_ibar, tol=1e-9):
    """Entropy produced and entropy exchanged between an initial product state and a later state.

    The package's two steps in one call, tracing the marginals afresh:
    initial_product, then entropy_balance.  rho_t_ibar may be a stack
    (k, d, d) of later states.  Raises NonProductInitialStateError unless
    rho0 is a frame (x) system product.
    """
    initial = initial_product(setup, rho0_ibar, tol)
    if not initial.is_product:
        raise NonProductInitialStateError("initial state must be a frame (x) system product")
    rho_t = np.asarray(rho_t_ibar, dtype=complex)
    dims = (setup.d_frame, setup.d_s)
    return entropy_balance(initial, von_neumann_entropy(rho_t), partial_trace(rho_t, dims, drop=1),
                           von_neumann_entropy(partial_trace(rho_t, dims, drop=0)))


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
    u = setup.perspective_change(g_i, g_j).matrix
    superop = conjugation_superop(dagger(x.matrix)) @ conjugation_superop(u)
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
    """invariant_projector against the superoperator Schur oracle: dimension, .matrix and apply.

    Instances cycle through every orientation pair of setup_pool() and one
    dense explicit rep, each with the labels 1, 1 (x) U_S(g) and
    U_F(a) (x) U_S(b) for random g, a, b.
    """
    cases = [(setup, g_i, g_j) for setup in setup_pool() + [haar_conjugated_z3_setup()]
             for g_i in setup.group.elements for g_j in setup.group.elements]
    rng = np.random.default_rng(seed)
    for k in range(int(n)):
        setup, g_i, g_j = cases[k % len(cases)]
        d_f, d_s, d = setup.d_frame, setup.d_s, setup.d_perspective
        elements = setup.group.elements
        g, a, b = (elements[int(rng.integers(len(elements)))] for _ in range(3))
        for x in (BilocalUnitary(np.eye(d_f), np.eye(d_s)), BilocalUnitary(np.eye(d_f), setup.u_s(g)),
                  BilocalUnitary(setup.u_frame(a), setup.u_s(b))):
            proj = invariant_projector(setup, x, g_i, g_j)
            oracle = superoperator_projector_oracle(setup, x, g_i, g_j)
            assert proj.dimension == oracle.dimension
            assert np.abs(proj.matrix - oracle.projector).max() <= 1e-12
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
        oracle = fixed_space_projector(first.matrix @ second.matrix)
        assert both.dimension == oracle.dimension
        f = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.abs(both.apply(f) - unvec(oracle.projector @ vec(f), d)).max() <= 1e-12 * hs_norm(f)
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
)
