"""Tests for energy accounting, entropy balance, and Gibbs classification."""

import numpy as np
import pytest

from qrf_lab import FrameSetup, Z2
from qrf_lab.dynamics import block_length, evolve, split_hamiltonian, transform_hamiltonian_pieces
from qrf_lab.operators import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    haar_unitary,
    hs_norm,
    kron,
    random_hermitian,
)
from qrf_lab.states import gibbs_state, negative_temperature_predict
from qrf_lab.subalgebras import (
    BilocalUnitary,
    classify_local_operator,
    invariant_projector,
    membership_test,
    pi_d,
    pi_t,
)
from qrf_lab.thermo import (
    NonProductInitialStateError,
    Prescription,
    balance_verifiers,
    commutant_projection,
    effective_hamiltonians,
    energetics,
    entropy_production_and_flow,
    gibbs_classification,
)

from property_suites import haar_conjugated_z3_setup, setup_pool

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
    p = Prescription.from_config({"prescription": "split_alpha", "alpha_s": 0.25})
    assert p.kind == "split_alpha"
    assert np.isclose(p.alpha_frame, 0.75)
    q = Prescription.from_config({"prescription": "commuting_part"})
    assert q.kind == "commuting_part"
    with pytest.raises(ValueError):
        Prescription(kind="nonsense")
    with pytest.raises(ValueError):
        Prescription(kind="commuting_part", alpha_s=0.5)


def test_no_interaction_means_effective_equals_bare():
    setup = qubit_setup()
    split = split_hamiltonian(kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_X), 2, 2)
    rho = np.eye(4) / 4
    for presc in (Prescription.split_alpha(0.3), Prescription.commuting_part()):
        eff = effective_hamiltonians(setup, split, rho, presc)
        assert np.allclose(eff.h_s_eff, split.h_s, atol=1e-12)
        assert np.allclose(eff.h_frame_eff, split.h_frame, atol=1e-12)
        assert hs_norm(eff.h_tilde_s) < 1e-12


def test_effective_hamiltonians_reconstruct_total():
    setup = qubit_setup()
    rng = np.random.default_rng(0)
    split = split_hamiltonian(random_hermitian(rng, 4), 2, 2)
    rho = random_product_state(rng, 2, 2)
    for presc in (Prescription.split_alpha(0.5), Prescription.commuting_part()):
        eff = effective_hamiltonians(setup, split, rho, presc)
        total = (kron(eff.h_frame_eff, ID2) + kron(ID2, eff.h_s_eff)
                 + eff.h_int_eff)
        assert np.allclose(total, split.total, atol=1e-10)


def test_commuting_part_blocks():
    assert np.allclose(commutant_projection(SIGMA_Z, SIGMA_X), 0.0, atol=1e-12)
    assert np.allclose(commutant_projection(SIGMA_Z, SIGMA_Z), SIGMA_Z, atol=1e-12)
    mixed = 0.4 * SIGMA_Z + 0.7 * SIGMA_X
    assert np.allclose(commutant_projection(SIGMA_Z, mixed), 0.4 * SIGMA_Z, atol=1e-12)


def test_first_law_closure_by_finite_differences():
    setup = qubit_setup()
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 4)
    split = split_hamiltonian(h, 2, 2)
    rho0 = random_product_state(rng, 2, 2)
    presc = Prescription.split_alpha(0.5)
    t, dt = 0.8, 1e-6
    rho = evolve(h, rho0, t)
    rho_dot = -1j * (h @ rho - rho @ h)
    report = energetics(setup, split, rho, presc, rho_dot=rho_dot)
    e_plus = energetics(setup, split, evolve(h, rho0, t + dt), presc).e_s
    e_minus = energetics(setup, split, evolve(h, rho0, t - dt), presc).e_s
    fd = (e_plus - e_minus) / (2 * dt)
    assert np.isclose(report.qdot_conv_s + report.wdot_conv_s, fd, atol=1e-6)
    assert np.isclose(report.qdot_alt_s + report.wdot_alt_s, fd, atol=1e-6)
    assert np.isclose(report.qdot_alt_s, report.qdot_conv_s - report.e_star_s,
                      atol=1e-10)
    assert np.isclose(report.wdot_alt_s, report.wdot_conv_s + report.e_star_s,
                      atol=1e-10)


def test_total_energy_is_conserved():
    setup = qubit_setup()
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 4)
    split = split_hamiltonian(h, 2, 2)
    rho0 = random_product_state(rng, 2, 2)
    presc = Prescription.commuting_part()
    e0 = energetics(setup, split, rho0, presc).e_total
    e1 = energetics(setup, split, evolve(h, rho0, 1.7), presc).e_total
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
        rates_j = energetics(setup, split_j, u @ rho @ dagger(u), prescription,
                             rho_dot=u @ rho_dot @ dagger(u)).rates_vector()
        rates_imported = energetics(setup, split_imported, rho, prescription, rho_dot=rho_dot).rates_vector()
        rates_bare = energetics(setup, split, rho, prescription, rho_dot=rho_dot).rates_vector()
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
    for grid in (1, chunk - 1, chunk, chunk + 1, 50):
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


def test_balance_verifiers_conjugates_each_state_once(monkeypatch):
    """H, the two endpoints and each grid state go through u once, and through x once.

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
    assert counts == {"PerspectiveChange": 1 + 2 + grid, "BilocalUnitary": grid + 2}
    assert counted.membership_ok and counted.rates_match
    assert counted.rates_max_gap == plain.rates_max_gap


def test_balance_verifiers_report_missing_premises():
    setup = qubit_setup()
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 4)
    rho0 = np.eye(4) / 4
    report = balance_verifiers(setup, split_hamiltonian(h, 2, 2), rho0, E, E,
                               Prescription.split_alpha(0.5), 0.0, 1.0, grid=6)
    assert "no subalgebra witness available at the initial time" in report.premises_not_met


def test_gibbs_classification_translation_invariant():
    setup = qubit_setup()
    report = gibbs_classification(setup, SIGMA_X, E, E)
    assert report.translation_invariant
    assert report.invariant_gibbs
    assert report.sampled_max_deviation < 1e-9


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
