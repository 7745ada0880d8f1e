"""Randomized property suites shared by the unit and acceptance tests.

Each suite checks one structural guarantee on n independently randomized
instances drawn over several group and representation setups, raising
AssertionError on the first violation and returning the instance count.
"""
import numpy as np
from scipy.linalg import schur

from qrf_lab.dynamics import GridEvolution, evolve, split_hamiltonian
from qrf_lab.frames import (
    FrameSetup,
    parity_swap,
    perspective_unitary,
    pi_phys,
    qrf_transform,
    reduction_map,
    relational_observable,
    uhat_superoperator,
)
from qrf_lab.groups import Z2, Z2xZ2, Z3
from qrf_lab.operators import (
    dagger,
    haar_state,
    haar_unitary,
    hs_inner,
    hs_norm,
    kron,
    partial_trace,
    random_hermitian,
    unvec,
    vec,
)
from qrf_lab.subalgebras import (
    BilocalUnitary,
    membership_test,
    pi_d,
    pi_t,
    pure_state_bilocal_witness,
)
from qrf_lab.states import mutual_information, relative_entropy, von_neumann_entropy
from qrf_lab.thermo import Prescription, energetics, entropy_production_and_flow


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
        u = setup.u_kin(g_i)
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
        psi = pi_phys(setup) @ haar_state(rng, setup.d_kin)
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
        uhat = uhat_superoperator(setup, g_i, g_j)
        lhs = unvec(uhat @ vec(fdt), setup.d_perspective)
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
            u = perspective_unitary(setup, g_i, g_j)
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
        report = energetics(setup, split, rho0, prescription)
        dt = 1e-6
        e_minus = energetics(setup, split, evolve(h, rho0, -dt), prescription).e_s
        e_plus = energetics(setup, split, evolve(h, rho0, dt), prescription).e_s
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
    fields = ("e_frame", "e_s", "e_int", "e_total", "qdot_conv_s", "wdot_conv_s", "e_star_s",
              "qdot_alt_s", "wdot_alt_s", "qdot_conv_frame", "wdot_conv_frame", "e_star_frame",
              "qdot_alt_frame", "wdot_alt_frame")
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
        report = energetics(setup, split, stack, prescription, rho_dot=rho_dot)
        for m, rho in enumerate(stack):
            single = energetics(setup, split, rho, prescription,
                                rho_dot=None if rho_dot is None else rho_dot[m])
            for name in fields:
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
)
