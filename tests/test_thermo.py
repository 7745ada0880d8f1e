"""Tests for energy accounting, entropy balance, and Gibbs classification."""

import dataclasses
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from qrf_lab import FrameSetup, Z2, Z4, dynamics, states, thermo
from qrf_lab.dynamics import (
    GridEvolution,
    block_length,
    evolve,
    split_hamiltonian,
    transform_hamiltonian_pieces,
)
from qrf_lab.operators import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    hermitian_part,
    hs_norm,
    kron,
    partial_trace,
)
from qrf_lab.scenarios import SCENARIOS, parse_config, render, run_scenario
from qrf_lab.states import (
    IndefiniteOperatorError,
    gibbs_state,
    negative_temperature_predict,
    subsystem_transform,
    von_neumann_entropy,
)
from qrf_lab.subalgebras import (
    BilocalUnitary,
    classify_local_operator,
    invariant_projector,
    membership_test,
    pi_d,
    pi_t,
)
from qrf_lab.thermo import (
    BalanceReport,
    EntropyBalance,
    Prescription,
    StateMarginals,
    ThermoReport,
    balance_verifiers,
    entropy_balance,
    gibbs_classification,
    initial_product,
    marginal_energetics,
    trajectory_runs,
)

from kinematics import dense_perspective_unitary
from property_suites import (
    ENERGETICS_FIELDS,
    NonProductInitialStateError,
    dense_energetics_oracle,
    eigenspace_count,
    energetics,
    energetics_with_rho_dot,
    energy_scale_instances,
    entropy_production_and_flow,
    haar_conjugated_z3_setup,
    haar_unitary,
    per_perspective_balance_verifiers,
    per_perspective_runs,
    random_density,
    random_hermitian,
    setup_pool,
    state_marginals,
)

E = (0,)


def qubit_setup():
    return FrameSetup.from_rep_config(Z2, "regular")


def random_product_state(rng, d_f, d_s):
    def factor(d):
        m = random_hermitian(rng, d)
        m = m @ m.conj().T + 0.1 * np.eye(d)
        return m / np.trace(m)
    return kron(factor(d_f), factor(d_s))


def test_prescription_config():
    def prescription(config):
        return parse_config({"scenario": "negative-temperature", "prescription": config}).prescription

    p = prescription({"prescription": "split_alpha", "alpha_s": 0.25})
    assert p.kind == "split_alpha"
    assert np.isclose(p.alpha_frame, 0.75)
    # The alpha_s that the defaults carry does not reach commuting_part.
    q = prescription({"prescription": "commuting_part"})
    assert q.kind == "commuting_part"
    assert q == Prescription.commuting_part()
    with pytest.raises(ValueError):
        Prescription(kind="nonsense")
    with pytest.raises(ValueError):
        Prescription(kind="commuting_part", alpha_s=0.5)


def test_no_interaction_means_effective_equals_bare():
    """Without h_int the effective generators are the bare ones: no interaction energy, no work,
    and each local energy is the bare Tr(h rho) of its marginal."""
    split = split_hamiltonian(kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_X), 2, 2)
    rng = np.random.default_rng(2)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ dagger(g) / np.trace(g @ dagger(g)).real
    rho_frame, rho_s = partial_trace(rho, (2, 2), drop=1), partial_trace(rho, (2, 2), drop=0)
    for presc in (Prescription.split_alpha(0.3), Prescription.commuting_part()):
        report = energetics(split, rho, presc)
        assert np.isclose(report.e_s, np.trace(split.h_s @ rho_s).real, atol=1e-12)
        assert np.isclose(report.e_frame, np.trace(split.h_frame @ rho_frame).real, atol=1e-12)
        assert abs(report.e_int) < 1e-12
        assert abs(report.wdot_conv_s) < 1e-12 and abs(report.wdot_conv_frame) < 1e-12


def test_first_law_closure_by_finite_differences():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 4)
    split = split_hamiltonian(h, 2, 2)
    rho0 = random_product_state(rng, 2, 2)
    presc = Prescription.split_alpha(0.5)
    t, dt = 0.8, 1e-6
    report = energetics(split, evolve(h, rho0, t), presc)
    e_plus = energetics(split, evolve(h, rho0, t + dt), presc).e_s
    e_minus = energetics(split, evolve(h, rho0, t - dt), presc).e_s
    fd = (e_plus - e_minus) / (2 * dt)
    assert np.isclose(report.qdot_conv_s + report.wdot_conv_s, fd, atol=1e-6)
    assert np.isclose(report.qdot_alt_s + report.wdot_alt_s, fd, atol=1e-6)
    assert np.isclose(report.qdot_alt_s, report.qdot_conv_s - report.e_star_s,
                      atol=1e-10)
    assert np.isclose(report.wdot_alt_s, report.wdot_conv_s + report.e_star_s,
                      atol=1e-10)


def _assert_e_star_is_zero(report):
    """Each e_star is +0.0, shaped as the other rates, and each alternative rate is the conventional one."""
    for side in ("s", "frame"):
        e_star = np.asarray(getattr(report, f"e_star_{side}"))
        assert e_star.shape == np.shape(report.qdot_conv_s)
        assert not e_star.any() and not np.signbit(e_star).any(), side
        for rate in ("qdot", "wdot"):
            alt, conv = (np.asarray(getattr(report, f"{rate}_{kind}_{side}")) for kind in ("alt", "conv"))
            assert alt.tobytes() == conv.tobytes(), (rate, side)


def test_e_star_vanishes_under_split_alpha():
    """Under split_alpha h_eff = h_bare + h_tilde - alpha c 1 with c a number per state, so
    e_star = Tr(h_eff [h_bare + h_tilde, rho]) is 0 by cyclicity whatever rho_dot is.  It is +0.0
    on single states and stacks at every energy scale, for frame i's marginals under frame i's
    split and an imported one, with rho_dot from H or from another generator; commuting_part
    still matches the dense oracle, and no estar_s cell of the default catalog reads -0."""
    rng = np.random.default_rng(29)
    split_alpha, commuting = Prescription.split_alpha(0.3), Prescription.commuting_part()
    for setup in setup_pool():
        d_f, d_s = setup.d_frame, setup.d_s
        change = setup.perspective_change(setup.group.elements[0], setup.group.elements[-1])
        x = BilocalUnitary(haar_unitary(rng, d_f), haar_unitary(rng, d_s))
        rho0 = random_product_state(rng, d_f, d_s)
        for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            h = random_hermitian(rng, d_f * d_s, scale)
            g = random_hermitian(rng, d_f * d_s, scale)
            m = kron(x.y, x.z)
            h_imported = dagger(m) @ hermitian_part(change.conjugate(h)) @ m
            splits = (split_hamiltonian(h, d_f, d_s), split_hamiltonian(hermitian_part(h_imported), d_f, d_s))
            stack = GridEvolution(h).states(rho0, np.array([0.0, 0.5, 1.3]) / scale)
            norm = np.linalg.norm(h, 2) + np.linalg.norm(g, 2)
            for rho in (stack, stack[1]):
                # The closed-system path that trajectory_runs takes, then supplied rho_dot.
                _assert_e_star_is_zero(energetics(splits[0], rho, split_alpha))
                for split, gen in itertools.product(splits, (h, g)):
                    rho_dot = -1j * (gen @ rho - rho @ gen)
                    _assert_e_star_is_zero(energetics_with_rho_dot(split, rho, split_alpha, rho_dot))
                    report = energetics_with_rho_dot(split, rho, commuting, rho_dot)
                    oracle = dense_energetics_oracle(split, rho, commuting, rho_dot)
                    for name in ENERGETICS_FIELDS:
                        tol = 1e-12 * (norm if name in ("e_frame", "e_s", "e_int", "e_total") else norm ** 2)
                        assert np.abs(getattr(report, name) - oracle[name]).max() <= tol, (name, scale)
    for name in SCENARIOS:
        header, *rows = render(run_scenario({"scenario": name}), "csv").splitlines()
        columns = [n for n, column in enumerate(header.split(",")) if column.startswith("estar_s_")]
        assert not any(row.split(",")[n].startswith("-0") for row in rows for n in columns), name


def test_split_alpha_reads_only_the_system_mean_fields(monkeypatch):
    """Every split_alpha term is B(x_F, y_S) = Tr(h_tilde_s(x_F) y_S), so one marginal_energetics call
    forms the "s" mean fields of rho_F and rho_F_dot and no frame mean field; commuting_part pinches
    both sides' mean fields, so it forms the frame's two, of rho_S and rho_S_dot, as well."""
    rng = np.random.default_rng(31)
    split = split_hamiltonian(random_hermitian(rng, 6), 2, 3)
    stack = GridEvolution(split.total).states(random_product_state(rng, 2, 3), np.array([0.0, 0.4]))
    calls = []
    mean_field = thermo.mean_field_hamiltonian
    monkeypatch.setattr(thermo, "mean_field_hamiltonian",
                        lambda split, rho, on: calls.append((on, np.shape(rho)[-1])) or mean_field(split, rho, on=on))
    for prescription, expected in ((Prescription.split_alpha(0.3), [("s", 2)] * 2),
                                   (Prescription.commuting_part(), [("s", 2)] * 2 + [("frame", 3)] * 2)):
        for rho in (stack, stack[1]):
            calls.clear()
            energetics(split, rho, prescription)
            assert calls == expected, prescription.kind


def test_commuting_part_forms_no_bilinear_form_of_split_alpha(monkeypatch):
    """c = B(rho_F, rho_S) and the two B's of c_dot are read under split_alpha only: one
    marginal_energetics call on a 2 x 3 split takes 7 traces under split_alpha, c's three and
    e_m and qdot for each side, and 8 under commuting_part, e_star, e_m, qdot and wdot for each."""
    rng = np.random.default_rng(31)
    split = split_hamiltonian(random_hermitian(rng, 6), 2, 3)
    stack = GridEvolution(split.total).states(random_product_state(rng, 2, 3), np.array([0.0, 0.4]))
    calls = []
    trace_product = thermo.trace_product
    monkeypatch.setattr(thermo, "trace_product", lambda a, b: calls.append(1) or trace_product(a, b))
    for prescription, expected in ((Prescription.split_alpha(0.3), 7), (Prescription.commuting_part(), 8)):
        for rho in (stack, stack[1]):
            marginals = state_marginals(split, rho)
            calls.clear()
            marginal_energetics(split, prescription, marginals)
            assert len(calls) == expected, prescription.kind


def test_total_energy_is_conserved():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 4)
    split = split_hamiltonian(h, 2, 2)
    rho0 = random_product_state(rng, 2, 2)
    presc = Prescription.commuting_part()
    e0 = energetics(split, rho0, presc).e_total
    e1 = energetics(split, evolve(h, rho0, 1.7), presc).e_total
    assert np.isclose(e0, e1, atol=1e-10)
    assert np.isclose(e0, np.trace(h @ rho0).real, atol=1e-10)


def dense_eom_oracle(split, rho):
    """The unitary and dissipative terms of the reduced system equation of motion and the closedness
    verdict, from d_p x d_p products against omega = rho - rho_frame (x) rho_s: the formula
    subsystem_eom_terms used before it read _assembled's marginals."""
    dims = (split.d_frame, split.d_s)
    rho_s, rho_frame = partial_trace(rho, dims, drop=0), partial_trace(rho, dims, drop=1)
    omega = rho - kron(rho_frame, rho_s)
    h_eff = split.h_s + dynamics.mean_field_hamiltonian(split, rho_frame, on="s")
    dissipative = -1j * partial_trace(split.h_int @ omega - omega @ split.h_int, dims, drop=0)
    lift = kron(np.eye(split.d_frame), rho_s)
    closed = hs_norm(lift @ omega - omega @ lift) <= 1e-10 * max(1.0, hs_norm(omega))
    return -1j * (h_eff @ rho_s - rho_s @ h_eff), dissipative, closed


def test_subsystem_eom_terms_match_the_dense_oracle():
    """Over the pool and the Haar-conjugated Z3 rep, for a correlated mixed state, a product state and a
    state classical on an eigenbasis of rho_s (correlated, yet [1 (x) rho_s, rho] = 0): both terms within
    1e-12 ||H|| of dense_eom_oracle's, and the same effectively_closed verdict."""
    rng = np.random.default_rng(47)
    verdicts = set()
    for setup in setup_pool() + [haar_conjugated_z3_setup()]:
        d_f, d_s = setup.d_frame, setup.d_s
        split = split_hamiltonian(random_hermitian(rng, d_f * d_s), d_f, d_s)
        weights = rng.dirichlet(np.ones(d_s))
        classical = sum(kron(w * random_density(rng, d_f), np.diag(np.eye(d_s)[s])) for s, w in enumerate(weights))
        for rho in (random_density(rng, d_f * d_s), kron(random_density(rng, d_f), random_density(rng, d_s)),
                    classical):
            terms = thermo.subsystem_eom_terms(setup, split, rho)
            unitary, dissipative, closed = dense_eom_oracle(split, rho)
            assert hs_norm(terms.unitary_term - unitary) <= 1e-12 * hs_norm(split.total)
            assert hs_norm(terms.dissipative_term - dissipative) <= 1e-12 * hs_norm(split.total)
            assert terms.effectively_closed == closed
            verdicts.add((closed, hs_norm(terms.omega) > 1e-3))
    assert verdicts == {(False, True), (True, False), (True, True)}


def test_subsystem_eom_terms_rejects_a_non_hermitian_state():
    """The terms read Tr(rho h_int) as the adjoint of Tr(h_int rho), which holds for a Hermitian rho only."""
    setup = qubit_setup()
    split = split_hamiltonian(kron(SIGMA_Z, SIGMA_Z), 2, 2)
    rho = np.eye(4) / 4 + 0.1j * kron(ID2, SIGMA_Z)
    with pytest.raises(ValueError, match="state is not Hermitian"):
        thermo.subsystem_eom_terms(setup, split, rho)


def test_entropy_balance_identities():
    setup = qubit_setup()
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    rho0 = random_product_state(rng, 2, 2)
    rho_t = evolve(h, rho0, 1.1)
    balance = entropy_production_and_flow(setup, rho0, rho_t)
    assert balance.sigma >= -1e-9
    assert np.isclose(balance.sigma,
                      balance.mutual_information + balance.frame_relative_entropy,
                      atol=1e-10)
    assert np.isclose(balance.phi,
                      balance.delta_s_frame + balance.frame_relative_entropy,
                      atol=1e-10)
    assert np.isclose(balance.sigma - balance.phi, balance.delta_s_s, atol=1e-10)


def test_entropy_balance_requires_product_start():
    setup = qubit_setup()
    bell = np.zeros(4)
    bell[[0, 3]] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell)
    with pytest.raises(NonProductInitialStateError):
        entropy_production_and_flow(setup, rho, rho)


def test_initial_product_reports_a_correlated_state_without_raising():
    setup = qubit_setup()
    bell = np.zeros(4)
    bell[[0, 3]] = 1.0 / np.sqrt(2.0)
    correlated = initial_product(setup, np.outer(bell, bell))
    assert not correlated.is_product
    assert np.allclose(correlated.rho_frame, ID2 / 2) and np.allclose(correlated.rho_s, ID2 / 2)
    assert np.isclose(correlated.s_frame, np.log(2.0)) and np.isclose(correlated.s_s, np.log(2.0))
    product = initial_product(setup, kron(gibbs_state(SIGMA_Z, 0.5), ID2 / 2))
    assert product.is_product and np.isclose(product.s_s, np.log(2.0))


def _counted_eigen_solvers(monkeypatch):
    """Route qrf_lab.states' eigh and eigvalsh through counters; returns the list of names called."""
    calls = []

    def counted(name):
        def call(*args, **kwargs):
            calls.append(name)
            return getattr(np.linalg, name)(*args, **kwargs)
        return call

    class Linalg:
        eigh, eigvalsh = staticmethod(counted("eigh")), staticmethod(counted("eigvalsh"))

    class Numpy:
        linalg = Linalg()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(states, "np", Numpy())
    return calls


def test_initial_product_diagonalises_the_frame_marginal_once(monkeypatch):
    """S(rho_F(0)) and log rho_F(0) come from one eigh, S(rho_S(0)) from one eigvalsh, and an
    indefinite frame marginal still raises."""
    setup = qubit_setup()
    rho0 = kron(gibbs_state(SIGMA_Z, 0.5), ID2 / 2)
    expected = von_neumann_entropy(gibbs_state(SIGMA_Z, 0.5))
    calls = _counted_eigen_solvers(monkeypatch)
    initial = initial_product(setup, rho0)
    assert sorted(calls) == ["eigh", "eigvalsh"]
    assert abs(initial.s_frame - expected) <= 1e-15
    with pytest.raises(IndefiniteOperatorError):
        initial_product(setup, kron(np.diag([1.1, -0.1]), ID2 / 2))


def test_y_condition_reads_the_log_of_the_start_frame_marginal(monkeypatch):
    """Both relative entropies of the y-condition use start_i's log rho_F(t0): a qubit-pair run
    with x0 = x1 = 1 (x) 1 calls support_log once, from initial_product, on the stack of the four
    endpoint frame marginals, rho_F(t0) first."""
    setup = qubit_setup()
    split = split_hamiltonian(kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z) + kron(SIGMA_Z, SIGMA_Z), 2, 2)
    rho0 = kron(gibbs_state(SIGMA_Z, 0.5), ID2 / 2)
    identity = BilocalUnitary(ID2, ID2)
    calls = []
    support_log = thermo.support_log
    monkeypatch.setattr(thermo, "support_log", lambda sigma: calls.append(sigma) or support_log(sigma))
    report = balance_verifiers(setup, split, rho0, E, E, Prescription.split_alpha(0.5), 0.0, 1.0,
                               x0=identity, x1=identity, grid=5)
    assert report.y_condition_holds is True
    assert [np.shape(sigma) for sigma in calls] == [(4, 2, 2)]
    assert hs_norm(calls[0][0] - gibbs_state(SIGMA_Z, 0.5)) <= 1e-12


def test_stationary_product_state_has_zero_balance():
    setup = qubit_setup()
    h = kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z)
    rho0 = kron(gibbs_state(SIGMA_Z, 0.5), gibbs_state(SIGMA_Z, 1.0))
    rho_t = evolve(h, rho0, 2.0)
    balance = entropy_production_and_flow(setup, rho0, rho_t)
    assert abs(balance.sigma) < 1e-12
    assert abs(balance.phi) < 1e-12


def _member_trajectory():
    """ZZ chain, a state and a witness whose trajectory stays in the subalgebra."""
    b, j = 0.9, 0.35
    h = (b * (kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z))
         + 2.0 * j * kron(SIGMA_Z, SIGMA_Z))
    amps = np.array([1.0, np.sqrt(2.0)]) / np.sqrt(3.0)
    psi = np.kron([0.0, 1.0], amps)
    return qubit_setup(), h, np.outer(psi, psi.conj()), BilocalUnitary(ID2, SIGMA_X), E, E


def _projected_member_trajectory(setup, rng):
    """H and rho0 projected into the subalgebra of a random bilocal witness."""
    elements = setup.group.elements
    g_i, g_j = (elements[int(rng.integers(len(elements)))] for _ in range(2))
    d_f, d_s = setup.d_frame, setup.d_s
    x = BilocalUnitary(haar_unitary(rng, d_f), haar_unitary(rng, d_s))
    proj = invariant_projector(setup, x, g_i, g_j)
    h = proj.apply(random_hermitian(rng, d_f * d_s))
    h = (h + dagger(h)) / 2
    g = rng.normal(size=(d_f * d_s,) * 2) + 1j * rng.normal(size=(d_f * d_s,) * 2)
    # The projector averages conjugations, so it keeps g g' positive.
    rho0 = proj.apply(g @ dagger(g))
    rho0 = (rho0 + dagger(rho0)) / 2
    return setup, h / np.linalg.norm(h, 2), rho0 / np.trace(rho0).real, x, g_i, g_j


def test_balance_verifiers_on_member_trajectory():
    setup, h, rho0, x, g_i, g_j = _member_trajectory()
    split = split_hamiltonian(h, 2, 2)
    report = balance_verifiers(setup, split, rho0, g_i, g_j,
                               Prescription.split_alpha(0.5), 0.0, 2.0,
                               x0=x, x1=x, grid=12)
    assert report.premises_not_met == []
    assert report.membership_ok
    assert report.rates_match
    assert report.rates_max_gap < 1e-8
    assert report.delta_s_s_equal
    assert report.delta_s_frame_equal


def _degenerate_h_s_case():
    """H on d_f = 2, d_s = 4 whose h_S has the spectrum (1, 1, -1, -1) in a Haar-random basis, and
    a random full-rank state."""
    rng = np.random.default_rng(7)
    v = haar_unitary(rng, 4)
    h_s = v @ np.diag([1.0, 1.0, -1.0, -1.0]) @ dagger(v)
    h = (kron(random_hermitian(rng, 2), np.eye(4)) + kron(ID2, h_s)
         + dynamics.split_hamiltonian(random_hermitian(rng, 8), 2, 4).h_int)
    rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = rho @ dagger(rho)
    return h, rho / np.trace(rho).real


@pytest.mark.parametrize("case", ["qubits", "z2xz2_regular", "degenerate_h_s"])
def test_rates_match_does_not_depend_on_the_energy_scale(case):
    """H -> s H over t -> t / s is the same trajectory and rates grow as s^2, so for s from 1e-12
    to 1e10 every boolean of the BalanceReport, and its unmet premises, keep their values at s = 1;
    the degenerate h_S runs under commuting_part, the others under split_alpha."""
    prescription = Prescription.commuting_part() if case == "degenerate_h_s" else Prescription.split_alpha(0.5)
    if case == "qubits":
        setup, h, rho0, x, g_i, g_j = _member_trajectory()
    elif case == "z2xz2_regular":
        z2xz2_regular = setup_pool()[5]  # d_p = 16
        setup, h, rho0, x, g_i, g_j = _projected_member_trajectory(
            z2xz2_regular, np.random.default_rng(31))
    else:
        setup = setup_pool()[1]  # Z2 with tensor_power 2: d_f = 2, d_s = 4
        (h, rho0), x, g_i, g_j = _degenerate_h_s_case(), BilocalUnitary(ID2, np.eye(4)), E, E

    def verdicts(s):
        split = split_hamiltonian(s * h, setup.d_frame, setup.d_s)
        report = balance_verifiers(setup, split, rho0, g_i, g_j, prescription, 0.0, 2.0 / s,
                                   x0=x, x1=x, grid=12)
        gaps = np.array([report.rates_max_gap, report.both_bare_max_gap]) / s ** 2
        return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
                if f.type.startswith("bool") or f.name == "premises_not_met"}, gaps

    reference, reference_gaps = verdicts(1.0)
    if case != "degenerate_h_s":
        assert reference["membership_ok"] and reference["rates_match"]
    for s in 10.0 ** np.arange(-12, 11):
        found, gaps = verdicts(s)
        assert found == reference, s
        if case == "degenerate_h_s":  # x is no witness here, so the gaps are rates, not round-off
            assert np.abs(gaps - reference_gaps).max() <= 1e-10 * reference_gaps.max(), s


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e8, 1e10])
def test_commuting_part_eigenspaces_do_not_depend_on_the_energy_scale(scale):
    """h_S with the spectrum (1, 1, -1, -1) in a Haar-random basis keeps its two eigenspaces at
    every scale s of H, and the commuting_part rates grow as s^2."""
    h, rho = _degenerate_h_s_case()

    def rates(s):
        split = dynamics.split_hamiltonian(s * h, 2, 4)
        assert eigenspace_count(split.eigenspaces["s"][1]) == 2
        return energetics(split, rho, Prescription.commuting_part()).rates_vector() / s ** 2

    reference = rates(1.0)
    assert np.abs(rates(scale) - reference).max() <= 1e-10 * np.abs(reference).max()


def _per_time_rates(setup, split, rho0, g_i, g_j, prescription, times, x):
    """Rate gaps and membership by the per-time formula: the full rho_dot, conjugated, and
    three energetics calls at every time."""
    h = split.total
    u, m = dense_perspective_unitary(setup, g_i, g_j), kron(x.y, x.z)
    h_j = u @ h @ dagger(u)
    h_j = (h_j + dagger(h_j)) / 2
    split_j = split_hamiltonian(h_j, setup.d_frame, setup.d_s)
    h_imported = dagger(m) @ h_j @ m
    split_imported = split_hamiltonian((h_imported + dagger(h_imported)) / 2, setup.d_frame, setup.d_s)
    gap, bare_gap, member = 0.0, 0.0, True
    for t in times:
        rho = evolve(h, rho0, t)
        rho_dot = -1j * (h @ rho - rho @ h)
        member &= membership_test(setup, rho, x, g_i, g_j).is_member
        rates_j = energetics_with_rho_dot(split_j, u @ rho @ dagger(u), prescription,
                                          u @ rho_dot @ dagger(u)).rates_vector()
        rates_imported = energetics_with_rho_dot(split_imported, rho, prescription, rho_dot).rates_vector()
        rates_bare = energetics_with_rho_dot(split, rho, prescription, rho_dot).rates_vector()
        gap = max(gap, np.abs(rates_imported - rates_j).max())
        bare_gap = max(bare_gap, np.abs(rates_bare - rates_j).max())
    return gap, bare_gap, member


@pytest.mark.parametrize("case, prescription", [
    ("member", Prescription.split_alpha(0.3)),
    ("member", Prescription.commuting_part()),
    ("non_member", Prescription.split_alpha(0.7)),
])
def test_balance_verifiers_matches_the_per_time_formula(case, prescription):
    """Rates from marginals, evaluated once per run of times, agree with the per-time formula
    on grids around the run length."""
    setup = setup_pool()[2]  # Z2 with tensor_power 3: d_f = 2, d_s = 8
    rng = np.random.default_rng(43)
    setup, h, rho0, x, g_i, g_j = _projected_member_trajectory(setup, rng)
    if case == "non_member":
        h = random_hermitian(rng, setup.d_perspective)
        rho0 = random_product_state(rng, setup.d_frame, setup.d_s)
    split = split_hamiltonian(h, setup.d_frame, setup.d_s)
    scale = np.linalg.norm(split.total, 2) ** 2
    chunk = block_length(max(setup.d_frame, setup.d_s))
    with pytest.raises(ValueError, match="grid"):
        balance_verifiers(setup, split, rho0, g_i, g_j, prescription, 0.0, 1.5, x0=x, x1=x, grid=1)
    for grid in (2, chunk - 1, chunk, chunk + 1, 50):
        report = balance_verifiers(setup, split, rho0, g_i, g_j, prescription, 0.0, 1.5,
                                   x0=x, x1=x, grid=grid)
        gap, bare_gap, member = _per_time_rates(setup, split, rho0, g_i, g_j, prescription,
                                                report.times, x)
        assert abs(report.rates_max_gap - gap) <= 1e-12 * scale, grid
        assert abs(report.both_bare_max_gap - bare_gap) <= 1e-12 * scale, grid
        assert report.membership_ok == member == (case == "member"), grid
        assert report.rates_match == (member and gap <= 1e-8 * scale), grid
        if case == "non_member":
            assert min(gap, bare_gap) > 1e-3 * scale, grid


@pytest.mark.parametrize("grid", [-1, 0, 1])
def test_balance_verifiers_rejects_a_grid_without_both_endpoints(grid, monkeypatch):
    """A grid of fewer than two times raises a ValueError naming grid, before any evolution."""
    setup, h, rho0, x, g_i, g_j = _member_trajectory()

    def no_evolution(*args):
        raise AssertionError("evolved before the grid was checked")

    monkeypatch.setattr(dynamics.GridEvolution, "__init__", no_evolution)
    with pytest.raises(ValueError, match="grid"):
        balance_verifiers(setup, split_hamiltonian(h, 2, 2), rho0, g_i, g_j,
                          Prescription.split_alpha(0.5), 0.0, 2.0, x0=x, x1=x, grid=grid)


def test_balance_verifiers_conjugates_each_state_once(monkeypatch):
    """H and each grid state go through u once; each grid state goes through x once and H_j
    through x' once, and the endpoints, being grid states, are neither conjugated nor tested again.

    rho_dot is never formed, so it is never conjugated either.
    """
    from qrf_lab.frames import PerspectiveChange

    setup, h, rho0, x, g_i, g_j = _projected_member_trajectory(
        setup_pool()[5], np.random.default_rng(37))
    split = split_hamiltonian(h, setup.d_frame, setup.d_s)
    d, grid = setup.d_perspective, 12

    def run():
        return balance_verifiers(setup, split, rho0, g_i, g_j, Prescription.split_alpha(0.5),
                                 0.0, 2.0, x0=x, x1=x, grid=grid)

    plain = run()
    counts = {}
    for cls in (PerspectiveChange, BilocalUnitary):
        def counting(self, ops, _original=cls.conjugate, _name=cls.__name__):
            counts[_name] = counts.get(_name, 0) + np.asarray(ops).size // (d * d)
            return _original(self, ops)
        monkeypatch.setattr(cls, "conjugate", counting)
    counted = run()
    assert counts == {"PerspectiveChange": 1 + grid, "BilocalUnitary": grid + 1}
    assert counted.membership_ok and counted.rates_match
    assert counted.rates_max_gap == plain.rates_max_gap


def test_balance_verifiers_reads_the_endpoint_verdicts_from_the_grid():
    """With x1 = x0 the endpoint verdicts are the grid's first and last: a state that starts
    in A_x and leaves it under a generic H fails the endpoint premise."""
    rng = np.random.default_rng(59)
    setup, _, rho0, x, g_i, g_j = _projected_member_trajectory(setup_pool()[2], rng)
    h = random_hermitian(rng, setup.d_perspective)
    report = balance_verifiers(setup, split_hamiltonian(h, setup.d_frame, setup.d_s), rho0, g_i, g_j,
                               Prescription.split_alpha(0.5), 0.0, 1.5, x0=x, x1=x, grid=9)
    assert membership_test(setup, rho0, x, g_i, g_j).is_member
    assert not membership_test(setup, evolve(h, rho0, 1.5), x, g_i, g_j).is_member
    assert not report.membership_ok
    assert report.delta_s_s_equal is None and report.delta_s_frame_equal is None
    assert "membership at both endpoint times is required for entropy-change checks" in report.premises_not_met


def _wide_member_trajectory():
    """A member trajectory at d_p = 64: Z4 with tensor_power 2."""
    return _projected_member_trajectory(FrameSetup.from_rep_config(Z4, {"tensor_power": 2}),
                                        np.random.default_rng(53))


def test_balance_report_does_not_depend_on_the_block_budget(monkeypatch):
    """Booleans and premises are equal, and the rate gaps agree to round-off, whether a
    block holds one time or the whole grid."""
    rng = np.random.default_rng(47)
    cases = []
    for member in (_projected_member_trajectory(setup_pool()[2], rng), _wide_member_trajectory()):
        setup = member[0]
        non_member = (setup, random_hermitian(rng, setup.d_perspective),
                      random_product_state(rng, setup.d_frame, setup.d_s)) + member[3:]
        cases += [(member, True), (non_member, False)]
    for (setup, h, rho0, x, g_i, g_j), inside in cases:
        split = split_hamiltonian(h, setup.d_frame, setup.d_s)
        scale = np.linalg.norm(split.total, 2) ** 2
        reports = []
        for budget in (16 * 1024, 128 * 1024, 4 * 1024 * 1024):
            monkeypatch.setattr(dynamics, "STACK_BYTES", budget)
            reports.append(balance_verifiers(setup, split, rho0, g_i, g_j,
                                             Prescription.split_alpha(0.4), 0.0, 1.5,
                                             x0=x, x1=x, grid=50))
        first = reports[0]
        assert first.membership_ok == inside
        for report in reports[1:]:
            for field in dataclasses.fields(report):
                a, b = getattr(first, field.name), getattr(report, field.name)
                if field.name in ("rates_max_gap", "both_bare_max_gap"):
                    assert abs(a - b) <= 1e-12 * scale, field.name
                elif field.name == "times":
                    assert np.array_equal(a, b)
                else:
                    assert a == b, field.name


EXACT_COLUMNS = ("t", "SvN_s_i", "SvN_s_j", "sigma_i", "sigma_j", "phi_i", "phi_j",
                 "in_AX", "in_identity", "in_flip", "marginal_dev")
RATE_STEMS = ("E_s", "E_frame", "E_int", "qdot_s", "wdot_s", "estar_s")


@pytest.mark.parametrize("scenario", ["zz-oscillation", "isolated-vs-closed"])
def test_scenario_rows_do_not_depend_on_the_block_budget(monkeypatch, scenario):
    """On 1200 points a run spans several blocks at 16 and 128 KiB and is one block at 4 MiB:
    verdicts, entropies and deviations are equal, and energies and rates agree to round-off."""
    cfg = parse_config({"scenario": scenario, "time_grid": {"points": 1200}})
    scale = np.linalg.norm(SCENARIOS[scenario].hamiltonian(cfg), 2) ** 2
    runs = []
    for budget in (16 * 1024, 128 * 1024, 4 * 1024 * 1024):
        monkeypatch.setattr(dynamics, "STACK_BYTES", budget)
        runs.append(run_scenario(cfg).rows)
    first = runs[0]
    assert len(first) == 1200
    for rows in runs[1:]:
        for a, b in zip(first, rows, strict=True):
            assert [a.get(c) for c in EXACT_COLUMNS] == [b.get(c) for c in EXACT_COLUMNS]
            for column in (f"{stem}_{suffix}" for stem in RATE_STEMS for suffix in "ij"):
                assert abs(a[column] - b[column]) <= 1e-12 * scale, column


def test_balance_verifiers_memory_at_the_widest_frame():
    """At d_p = 64 on a grid of 50, the blocks keep the traced peak at or below 4 MiB."""
    setup, h, rho0, x, g_i, g_j = _wide_member_trajectory()
    split = split_hamiltonian(h, setup.d_frame, setup.d_s)

    def run(grid):
        return balance_verifiers(setup, split, rho0, g_i, g_j, Prescription.split_alpha(0.5),
                                 0.0, 1.5, x0=x, x1=x, grid=grid)

    run(2)  # builds the perspective change and the split's cached pieces
    tracemalloc.start()
    try:
        report = run(50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.membership_ok and report.rates_match
    assert peak <= 4 * 1024 * 1024, peak


def _bits(value):
    """The bytes of a value as a complex array, so that -0.0 and +0.0 differ."""
    return np.asarray(value, dtype=complex).tobytes()


def _walk_cases(rng):
    """(setup, H, rho0, g_i, g_j): random Hamiltonians and product states over setup_pool(); then
    X (x) 1 + 1 (x) Z on Z2, whose h_s has two eigenspaces for frame i and one for frame j, from
    rho0 with -0.0 entries, one of them a correlated state.

    Every perspective change here is monomial, so the per-perspective walk held frame j's states
    in C order, as the stack holds both.  A dense change (the Haar-conjugated Z3 rep) handed it a
    conjugate-transposed view instead, whose marginals came out in the other memory order, and a
    sum over a matrix could then round in its last bit otherwise than the stack's."""
    cases = []
    for setup in setup_pool():
        elements = setup.group.elements
        g_i, g_j = (elements[int(rng.integers(len(elements)))] for _ in range(2))
        h = random_hermitian(rng, setup.d_perspective)
        cases.append((setup, split_hamiltonian(h, setup.d_frame, setup.d_s).total, random_product_state(
            rng, setup.d_frame, setup.d_s), g_i, g_j))
    qubits = qubit_setup()
    h = kron(SIGMA_X, ID2) + kron(ID2, SIGMA_Z)
    minus_zero = np.array([[0.5, -0.0], [-0.0, 0.5]])
    cases.append((qubits, h, kron(minus_zero, gibbs_state(SIGMA_Z, 0.7)), E, E))
    bell = np.array([1.0, -0.0, 0.0, 1.0]) / np.sqrt(2)
    cases.append((qubits, h, np.outer(bell, bell) * (1 - 0.0j), E, (1,)))
    return cases


@pytest.mark.parametrize("prescription", [Prescription.split_alpha(0.3), Prescription.commuting_part()],
                         ids=["split_alpha", "commuting_part"])
def test_stacked_walk_matches_the_per_perspective_walk(monkeypatch, prescription):
    """Bit for bit, over runs of several blocks: the stacked walk's StateMarginals, every
    ThermoReport field and both entropy balances equal those of per_perspective_runs, the walk
    that kept one split, one stack and one call of each layer per perspective."""
    monkeypatch.setattr(dynamics, "STACK_BYTES", 1024)
    rng = np.random.default_rng(61)
    counts = []
    for setup, h, rho0, g_i, g_j in _walk_cases(rng):
        d_f, d_s = setup.d_frame, setup.d_s
        change = setup.perspective_change(g_i, g_j)
        h_j, rho0_j = change.conjugate(h), change.conjugate(rho0)
        splits = {"i": split_hamiltonian(h, d_f, d_s), "j": split_hamiltonian(h_j, d_f, d_s)}
        pair = split_hamiltonian(np.stack([h, h_j])[:, None], d_f, d_s)
        initial = {"i": initial_product(setup, rho0), "j": initial_product(setup, rho0_j)}
        pair_initial = initial_product(setup, np.stack([rho0, rho0_j])[:, None])
        s_t = von_neumann_entropy(rho0)
        times = np.linspace(0.0, 2.5, 37)
        x = BilocalUnitary(np.eye(d_f), np.eye(d_s))

        def read(rho):
            return [membership_test(setup, rho[0], x, g_i, g_j, transformed=rho[1]).is_member]

        def read_each(rho):
            return {"member": membership_test(setup, rho["i"], x, g_i, g_j, transformed=rho["j"]).is_member}

        stacked = trajectory_runs(GridEvolution(h), change, pair, rho0, times, read)
        oracle = per_perspective_runs(GridEvolution(h), change, splits, rho0, times, read_each)
        runs = 0
        for (run_times, marginals, (member,)), (oracle_times, each, columns) in zip(stacked, oracle, strict=True):
            runs += 1
            assert _bits(run_times) == _bits(oracle_times) and _bits(member) == _bits(columns["member"])
            report = marginal_energetics(pair, prescription, marginals)
            s_s = von_neumann_entropy(marginals.rho_s)
            balance = entropy_balance(pair_initial, s_t, marginals.rho_frame, s_s)
            for n, key in enumerate("ij"):
                for name in StateMarginals._fields:
                    assert _bits(getattr(marginals, name)[n]) == _bits(getattr(each[key], name)), name
                single = marginal_energetics(splits[key], prescription, each[key])
                for field in dataclasses.fields(ThermoReport):
                    assert _bits(getattr(report, field.name)[n]) == _bits(getattr(single, field.name)), field.name
                single_s = von_neumann_entropy(each[key].rho_s)
                assert _bits(s_s[n]) == _bits(single_s)
                single_balance = entropy_balance(initial[key], s_t, each[key].rho_frame, single_s)
                for field in dataclasses.fields(EntropyBalance):
                    assert _bits(getattr(balance, field.name)[n]) == _bits(getattr(single_balance, field.name))
        assert runs > 1
        counts.append(tuple(eigenspace_count(pair.eigenspaces["s"][1]).ravel()))
    assert counts[-1] == (2, 1)


def _pure_product_without_witness(rng):
    """(setup, H, rho0): a pure random product state under a random H on Z2 tensor_power 3, for which the
    witness search at t0 finds no label."""
    setup = setup_pool()[2]
    rho0 = kron(random_density(rng, setup.d_frame, 1), random_density(rng, setup.d_s, 1))
    return setup, random_hermitian(rng, setup.d_perspective), rho0


def _balance_cases(rng):
    """(setup, H, rho0, g_i, g_j, x0, x1) on every setup of the pool: a member trajectory with x0 = x1 given;
    under a random H with x0 = x1 = None, so that the witness search runs, a mixed product state and
    |g><g| (x) |psi><psi|; and |g><g| (x) rho_S under H = h_F (x) 1 + 1 (x) h_S, h_F diagonal, with the identity
    label.  |g><g| (x) rho_S is a product in frame j too, so sigma_j is set.  Then a pure product state with no
    witness at t0 and x0 = x1 = None, a mixed product state with x0 = None and x1 given, and the member
    trajectory at d_p = 64."""
    cases = []
    for setup in setup_pool():
        d_f, d_s = setup.d_frame, setup.d_s
        _, h, rho0, x, g_i, g_j = _projected_member_trajectory(setup, rng)
        cases.append((setup, h, rho0, g_i, g_j, x, x))
        frame = np.diag(np.eye(d_f)[int(rng.integers(d_f))])
        h = random_hermitian(rng, setup.d_perspective)
        for rho0 in (kron(random_density(rng, d_f), random_density(rng, d_s)), kron(frame, random_density(rng, d_s, 1))):
            cases.append((setup, h, rho0, g_i, g_j, None, None))
        h = kron(np.diag(rng.normal(size=d_f)), np.eye(d_s)) + kron(np.eye(d_f), random_hermitian(rng, d_s))
        identity = BilocalUnitary(np.eye(d_f), np.eye(d_s))
        cases.append((setup, h, kron(frame, random_density(rng, d_s)), g_i, g_j, identity, identity))
    setup, h, rho0 = _pure_product_without_witness(rng)
    cases.append((setup, h, rho0, E, (1,), None, None))
    d_f, d_s = setup.d_frame, setup.d_s
    label = BilocalUnitary(haar_unitary(rng, d_f), haar_unitary(rng, d_s))
    cases.append((setup, h, kron(random_density(rng, d_f), random_density(rng, d_s)), E, (1,), None, label))
    setup, h, rho0, x, g_i, g_j = _wide_member_trajectory()
    return cases + [(setup, h, rho0, g_i, g_j, x, x)]


NO_WITNESS = "no subalgebra witness available at the initial time"


@pytest.mark.parametrize("prescription", [Prescription.split_alpha(0.3), Prescription.commuting_part()],
                         ids=["split_alpha", "commuting_part"])
def test_balance_verifiers_matches_the_per_perspective_oracle(monkeypatch, prescription):
    """Every BalanceReport field, types included, equals bit for bit that of the oracle that read each
    perspective on its own (three rate calls on the halves of each run, four InitialProducts and two
    balances), over runs of several blocks, both with the labels given and searched, and on d_p = 64."""
    monkeypatch.setattr(dynamics, "STACK_BYTES", 256)  # a run of four one-time blocks at d_p = 4
    reports = []
    for setup, h, rho0, g_i, g_j, x0, x1 in _balance_cases(np.random.default_rng(67)):
        split = split_hamiltonian(h, setup.d_frame, setup.d_s)
        args = (setup, split, rho0, g_i, g_j, prescription, 0.0, 1.3)
        report = balance_verifiers(*args, x0=x0, x1=x1, grid=12)
        oracle = per_perspective_balance_verifiers(*args, x0=x0, x1=x1, grid=12)
        for field in dataclasses.fields(BalanceReport):
            a, b = getattr(report, field.name), getattr(oracle, field.name)
            assert type(a) is type(b), field.name
            assert a == b if a is None or isinstance(a, (bool, list)) else _bits(a) == _bits(b), field.name
        reports.append((x0, report))
    searched = [NO_WITNESS in report.premises_not_met for x0, report in reports if x0 is None]
    assert any(searched) and not all(searched)
    assert any(report.sigma_j is not None and report.sigma_phi_equal is not None for _, report in reports)
    assert any(report.sigma_i is not None and report.sigma_j is None for _, report in reports)


def test_balance_verifiers_computes_only_what_a_verdict_reads(monkeypatch):
    """With no x0 at t0, no x1 is searched at t1: on a pure product state, pure_state_bilocal_witness runs
    once.  S(rho(t1)) is taken only for a product start: on a W-averaged rho0 that is not a product, with
    x0 = x1 given, qrf_lab.states diagonalises no d_p x d_p matrix, and on a product rho0 one."""
    calls = {"witness": 0, "full_spectra": 0}
    witness, eigvalsh = thermo.pure_state_bilocal_witness, np.linalg.eigvalsh

    def counted_witness(*args):
        calls["witness"] += 1
        return witness(*args)

    def counted_eigvalsh(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "qrf_lab.states" and np.shape(a)[-1] == d:
            calls["full_spectra"] += 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(thermo, "pure_state_bilocal_witness", counted_witness)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    rng = np.random.default_rng(71)

    def run(setup, h, rho0, g_i, g_j, x0=None, x1=None):
        calls.update(witness=0, full_spectra=0)
        return balance_verifiers(setup, split_hamiltonian(h, setup.d_frame, setup.d_s), rho0, g_i, g_j,
                                 Prescription.split_alpha(0.5), 0.0, 1.3, x0=x0, x1=x1, grid=6)

    setup, h, rho0 = _pure_product_without_witness(rng)
    d = setup.d_perspective
    report = run(setup, h, rho0, E, (1,))
    assert NO_WITNESS in report.premises_not_met and report.product_at_t0
    assert calls["witness"] == 1

    setup, h, rho0, x, g_i, g_j = _projected_member_trajectory(setup, rng)
    report = run(setup, h, rho0, g_i, g_j, x, x)
    assert report.membership_ok and not report.product_at_t0
    assert calls == {"witness": 0, "full_spectra": 0}

    frame = np.diag(np.eye(setup.d_frame)[1])
    h = kron(np.diag(rng.normal(size=setup.d_frame)), np.eye(setup.d_s)) + kron(
        np.eye(setup.d_frame), random_hermitian(rng, setup.d_s))
    identity = BilocalUnitary(np.eye(setup.d_frame), np.eye(setup.d_s))
    report = run(setup, h, kron(frame, random_density(rng, setup.d_s)), g_i, g_j, identity, identity)
    assert report.product_at_t0 and report.sigma_i is not None
    assert calls == {"witness": 0, "full_spectra": 1}


def test_balance_verifiers_reads_both_perspectives_in_one_call_each(monkeypatch):
    """Each run of blocks makes two energetics calls, one on the pair and one for the imported rates, and
    each verification one entropy balance, for both perspectives."""
    monkeypatch.setattr(dynamics, "STACK_BYTES", 256)
    setup, h, rho0, x, g_i, g_j = _member_trajectory()
    calls = {"runs": 0, "marginal_energetics": 0, "entropy_balance": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    def runs(*args):
        for run in trajectory_runs(*args):
            calls["runs"] += 1
            yield run

    for name in ("marginal_energetics", "entropy_balance"):
        monkeypatch.setattr(thermo, name, counted(name, getattr(thermo, name)))
    monkeypatch.setattr(thermo, "trajectory_runs", runs)
    report = balance_verifiers(setup, split_hamiltonian(h, 2, 2), rho0, g_i, g_j,
                               Prescription.split_alpha(0.5), 0.0, 2.0, x0=x, x1=x, grid=12)
    assert report.rates_match and report.sigma_i is not None
    assert calls["runs"] > 1
    assert calls == {"runs": calls["runs"], "marginal_energetics": 2 * calls["runs"], "entropy_balance": 1}


def test_balance_verifiers_report_missing_premises():
    setup = qubit_setup()
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 4)
    rho0 = np.eye(4) / 4
    report = balance_verifiers(setup, split_hamiltonian(h, 2, 2), rho0, E, E,
                               Prescription.split_alpha(0.5), 0.0, 1.0, grid=6)
    assert "no subalgebra witness available at the initial time" in report.premises_not_met


ZERO = np.diag([1.0, 0.0])
VERDICTS = ("product_at_t0", "product_at_t1", "frame_marginal_static", "y_factors_match",
            "pure_balance_zero", "y_condition_holds", "sigma_phi_equal")


@pytest.mark.parametrize("h, x1_y, t1, membership_ok, expected", [
    # S rotates under 1 (x) sigma_x while the frame stays put: every check holds.
    (kron(ID2, SIGMA_X), ID2, 1.3, True, dict.fromkeys(VERDICTS, True)),
    # sigma_x (x) sigma_x entangles |00>: the end state is no product, so the y checks have no premise.
    (kron(SIGMA_X, SIGMA_X), None, 0.7, False,
     dict(product_at_t0=True, product_at_t1=False, frame_marginal_static=False, y_factors_match=None,
          pure_balance_zero=None, y_condition_holds=None, sigma_phi_equal=None)),
    # |00> is stationary under sigma_z (x) 1 and stays in A_1, but x1 = sigma_x (x) 1 has another y.
    (kron(SIGMA_Z, ID2), SIGMA_X, np.pi / 2, True,
     dict(product_at_t0=True, product_at_t1=True, frame_marginal_static=True, y_factors_match=False,
          pure_balance_zero=None, y_condition_holds=None, sigma_phi_equal=None)),
])
def test_balance_verifiers_verdicts(h, x1_y, t1, membership_ok, expected):
    """Each verdict of BalanceReport on a qubit pair started in |00>, with x0 = 1 (x) 1 unless
    x1_y is None, in which case balance_verifiers searches both labels itself."""
    labels = {} if x1_y is None else {"x0": BilocalUnitary(ID2, ID2), "x1": BilocalUnitary(x1_y, ID2)}
    report = balance_verifiers(qubit_setup(), split_hamiltonian(h, 2, 2), kron(ZERO, ZERO), E, E,
                               Prescription.split_alpha(0.5), 0.0, t1, grid=8, **labels)
    assert {name: getattr(report, name) for name in VERDICTS} == expected
    assert report.membership_ok is membership_ok
    assert (report.premises_not_met == []) is all(expected.values())


def test_gibbs_classification_translation_invariant():
    setup = qubit_setup()
    report = gibbs_classification(setup, SIGMA_X, E, E)
    assert report.translation_invariant
    assert report.invariant_gibbs
    assert report.max_deviation < 1e-9


def _frame_state_with_coherences(rng, d_f, marginal):
    """A random frame state (x) marginal, plus a random Hermitian term on the frame-off-diagonal
    blocks scaled to keep the state positive."""
    d_s = marginal.shape[0]
    g = rng.normal(size=(d_f, d_f)) + 1j * rng.normal(size=(d_f, d_f))
    rho = kron(g @ dagger(g) / np.trace(g @ dagger(g)).real, marginal)
    omega = random_hermitian(rng, d_f * d_s).reshape(d_f, d_s, d_f, d_s)
    omega[np.arange(d_f), :, np.arange(d_f), :] = 0.0
    omega = omega.reshape(d_f * d_s, d_f * d_s)
    return rho + 0.9 * np.linalg.eigvalsh(rho)[0] / np.linalg.norm(omega, 2) * omega


def test_gibbs_max_deviation_bounds_every_frame_state():
    """max_deviation is the exact maximum: it equals max_g ||U_S(g) m U_S(g)' - m|| for the
    Gibbs state m, the frame basis states' values, and no random frame state with frame
    coherences deviates further."""
    rng = np.random.default_rng(21)
    for setup in setup_pool() + [haar_conjugated_z3_setup()]:
        d_f, d_s = setup.d_frame, setup.d_s
        elements = setup.group.elements
        h_s = random_hermitian(rng, d_s)
        marginal = gibbs_state(split_hamiltonian(kron(np.eye(d_f), h_s), d_f, d_s).h_s, 1.0)
        closed_form = max(hs_norm(u @ marginal @ dagger(u) - marginal) for u in setup.translations)
        assert closed_form > 1e-3
        for _ in range(3):
            g_i, g_j = (elements[int(k)] for k in rng.integers(len(elements), size=2))
            bound = gibbs_classification(setup, h_s, g_i, g_j).max_deviation
            assert abs(bound - closed_form) <= 1e-12
            for _ in range(10):
                rho = _frame_state_with_coherences(rng, d_f, marginal)
                assert np.linalg.eigvalsh(rho)[0] > 0
                moved = subsystem_transform(setup, rho, g_i, g_j)
                assert hs_norm(moved.rho_s - marginal) <= bound + 1e-12


def test_gibbs_classification_detects_rescaling():
    setup = qubit_setup()
    mu = 2.0
    h = (kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z) + mu * kron(SIGMA_Z, SIGMA_Z))
    report = gibbs_classification(setup, h, E, E)
    assert not report.translation_invariant
    assert report.in_translation_kernel
    assert report.anticommuting_sector == [(1,)]
    assert report.mu is not None
    assert np.isclose(abs(report.mu), mu, atol=1e-9)
    assert report.mu_fit_residual < 1e-9


def test_gibbs_classification_of_a_system_piece_at_round_off():
    """H is Hermitian to its own round-off, and its h_s, 1e-17 i Z, is not Hermitian to itself; the
    classification reads h_s = 0, whose Gibbs state is maximally mixed, and does not raise."""
    setup = qubit_setup()
    h = kron(SIGMA_Z, ID2) + kron(ID2, 1e-17j * SIGMA_Z)
    report = gibbs_classification(setup, h, E, (1,))
    assert report.invariant_gibbs and report.in_translation_kernel
    assert report.max_deviation == 0.0 and report.mu_sign is None


def test_gibbs_classification_of_an_interaction_in_the_pi_d_pi_t_range():
    """With h_int = pi_D(pi_T(h_int)) the leftover rest_int is round-off; on a
    dense explicit rep its transform is not Hermitian to round-off relative
    to itself, so the pieces must take its Hermitian part."""
    setup = haar_conjugated_z3_setup()
    d_f, d_s = setup.d_frame, setup.d_s
    rng = np.random.default_rng(0)
    h_int = split_hamiltonian(random_hermitian(rng, d_f * d_s), d_f, d_s).h_int
    h = pi_d(setup, pi_t(setup, h_int)) + 1e-3 * kron(np.eye(d_f), random_hermitian(rng, d_s))
    report = gibbs_classification(setup, h, E, (1,))
    assert not report.translation_invariant
    _, pieces = transform_hamiltonian_pieces(setup, split_hamiltonian(h, d_f, d_s), E, (1,))
    for leftover in (pieces.lambda_frame, pieces.lambda_s, pieces.lambda_int):
        assert np.array_equal(leftover, dagger(leftover))
        assert hs_norm(leftover) <= 1e-14 * hs_norm(h)


def _lambda_s_cases():
    """(setup, H, g_i, g_j): the first 44 energy-scale instances, four on each setup of the pool, and on the
    Haar-conjugated Z3 rep two each of a generic H, an s-local H, and pi_D pi_T interactions beside an h_S,
    each at a random orientation pair."""
    cases = [(setup, h, g_i, g_j) for _, setup, h, g_i, g_j in energy_scale_instances(44, 915)]
    setup = haar_conjugated_z3_setup()
    rng = np.random.default_rng(34)
    elements = setup.group.elements
    for k in range(8):
        generic, h_s = random_hermitian(rng, 9), random_hermitian(rng, 3)
        h = (generic, kron(np.eye(3), h_s), pi_d(setup, pi_t(setup, generic)) + kron(np.eye(3), h_s),
             kron(np.diag(rng.normal(size=3)), h_s) + kron(np.eye(3), pi_t(setup, h_s)))[k // 2]
        g_i, g_j = (elements[int(m)] for m in rng.integers(3, size=2))
        cases.append((setup, h, g_i, g_j))
    return cases


def test_gibbs_lambda_s_is_frame_js_system_piece_less_its_translation_part():
    """lambda_S = h_S^(j) - pi_T(h_S), read off the one conjugated split, is within 1e-12 ||H|| of the
    lambda_s that transform_hamiltonian_pieces attributes, and invariant_gibbs is the verdict that the
    attributed lambda_s gives."""
    for setup, h, g_i, g_j in _lambda_s_cases():
        split = split_hamiltonian(h, setup.d_frame, setup.d_s)
        scale = hs_norm(split.total)
        report = gibbs_classification(setup, h, g_i, g_j)
        _, pieces = transform_hamiltonian_pieces(setup, split, g_i, g_j)
        assert hs_norm(report.lambda_s - pieces.lambda_s) <= 1e-12 * scale
        assert report.lambda_s_norm == hs_norm(report.lambda_s)
        lambda_zero = hs_norm(pieces.lambda_s) <= 1e-9 * scale
        assert report.invariant_gibbs is (report.translation_invariant and lambda_zero)


def gibbs_verdicts(setup, scale):
    """Every yes/no verdict of the Gibbs, negative-temperature and local-operator classifiers.

    Z2 regular with g_i = (0,), g_j = (1,); the Hamiltonians and local
    operators are multiplied by scale, and beta by 1/scale.
    """
    g_i, g_j = (0,), (1,)
    verdicts = []
    for h in (SIGMA_X, SIGMA_Z, kron(SIGMA_Z, SIGMA_Z), kron(SIGMA_Z, SIGMA_X) + kron(ID2, SIGMA_X)):
        report = gibbs_classification(setup, scale * h, g_i, g_j)
        verdicts.append((report.translation_invariant, report.invariant_gibbs,
                         report.in_translation_kernel, report.anticommuting_sector,
                         report.mu_sign))
    for h_s in (SIGMA_X, SIGMA_Z):
        beta = 1.0 / scale if scale else 1.0
        report = negative_temperature_predict(setup, scale * h_s, beta, np.eye(2) / 2, g_j)
        verdicts.append((report.anticommuting_sector, report.commuting_sector))
    for op, which in ((kron(ID2, SIGMA_Z), "s_local"), (kron(ID2, SIGMA_X), "s_local"),
                      (kron(SIGMA_Z, ID2), "frame_local"), (kron(SIGMA_X, ID2), "frame_local")):
        report = classify_local_operator(setup, scale * op, which, g_i, g_j)
        verdicts.append((report.tps_invariant, report.unitary_invariant_all_orientations,
                         report.in_diagonal_translation_range))
    return verdicts


@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-12, 9, 2)])
def test_gibbs_verdicts_do_not_depend_on_the_energy_scale(scale):
    """Residuals are compared with tol * ||h_s|| (tol * ||op||), never with an absolute floor."""
    setup = qubit_setup()
    assert gibbs_verdicts(setup, scale) == gibbs_verdicts(setup, 1.0)


def test_gibbs_verdicts_for_zero_hamiltonian():
    """H = 0 commutes and anticommutes with everything, as before the relative scale."""
    setup = qubit_setup()
    elements = list(setup.group.elements)
    gibbs = [(True, True, True, elements, None)] * 4
    negative = [(elements, [])] * 2
    local = [(True, True, True)] * 2 + [(True, False, True)] * 2
    assert gibbs_verdicts(setup, 0.0) == gibbs + negative + local


def test_gibbs_classification_of_a_system_piece_of_round_off_in_a_larger_h():
    """Instance 26 of the energy-scale suite: Z3 with d_s = 2, whose degenerate h_S is zero up to
    H's round-off.  Measured against ||H||, as dynamical_type_classifier measures, that h_S is 0:
    it commutes with every U_S(g), so the Gibbs state is invariant, and it has no mu."""
    k, setup, h, g_i, g_j = next(itertools.islice(energy_scale_instances(27, 915), 26, None))
    split = split_hamiltonian(h, setup.d_frame, setup.d_s)
    assert (k, setup.d_s, g_i, g_j) == (26, 2, (2,), (2,))
    assert 0 < hs_norm(split.h_s) <= 1e-15 * hs_norm(split.total)
    assert dynamics.dynamical_type_classifier(setup, split) == "closed_to_closed"
    report = gibbs_classification(setup, h, g_i, g_j)
    assert report.translation_invariant and report.in_translation_kernel
    assert report.mu is None and report.mu_sign is None
