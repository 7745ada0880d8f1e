"""Tests for energy accounting, entropy balance, and Gibbs classification."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from qrf_lab import FrameSetup, Z2, Z4, dynamics
from qrf_lab.dynamics import block_length, evolve, split_hamiltonian, transform_hamiltonian_pieces
from qrf_lab.operators import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    haar_unitary,
    hs_norm,
    kron,
    partial_trace,
    random_hermitian,
)
from qrf_lab.scenarios import SCENARIOS, parse_config, run_scenario
from qrf_lab.states import gibbs_state, negative_temperature_predict, subsystem_transform
from qrf_lab.subalgebras import (
    BilocalUnitary,
    classify_local_operator,
    invariant_projector,
    membership_test,
    pi_d,
    pi_t,
)
from qrf_lab.thermo import (
    Prescription,
    balance_verifiers,
    gibbs_classification,
    initial_product,
)

from property_suites import (
    NonProductInitialStateError,
    energetics,
    energetics_with_rho_dot,
    entropy_production_and_flow,
    haar_conjugated_z3_setup,
    setup_pool,
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


@pytest.mark.parametrize("case", ["qubits", "z2xz2_regular"])
def test_rates_match_does_not_depend_on_the_energy_scale(case):
    """H -> s H over t -> t / s is the same trajectory; rates grow as s^2."""
    if case == "qubits":
        setup, h, rho0, x, g_i, g_j = _member_trajectory()
    else:
        z2xz2_regular = setup_pool()[5]  # d_p = 16
        setup, h, rho0, x, g_i, g_j = _projected_member_trajectory(
            z2xz2_regular, np.random.default_rng(31))
    for s in 10.0 ** np.arange(-6, 7):
        split = split_hamiltonian(s * h, setup.d_frame, setup.d_s)
        report = balance_verifiers(setup, split, rho0, g_i, g_j,
                                   Prescription.split_alpha(0.5), 0.0, 2.0 / s,
                                   x0=x, x1=x, grid=12)
        assert report.membership_ok, s
        assert report.rates_match, (s, report.rates_max_gap)


def _per_time_rates(setup, split, rho0, g_i, g_j, prescription, times, x):
    """Rate gaps and membership by the per-time formula: the full rho_dot, conjugated, and
    three energetics calls at every time."""
    h = split.total
    u = setup.perspective_change(g_i, g_j).matrix
    h_j = u @ h @ dagger(u)
    h_j = (h_j + dagger(h_j)) / 2
    split_j = split_hamiltonian(h_j, setup.d_frame, setup.d_s)
    h_imported = dagger(x.matrix) @ h_j @ x.matrix
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
    """H and each grid state go through u once; each grid state goes through x once, and
    the endpoints, being grid states, are neither conjugated nor tested again.

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
    assert counts == {"PerspectiveChange": 1 + grid, "BilocalUnitary": grid}
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
        closed_form = max(hs_norm(u @ marginal @ dagger(u) - marginal) for u in setup.rep_s.values())
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
