"""End-to-end acceptance checks, one per headline behavior of the toolkit.

Each test exercises a documented workflow at its stated tolerance, so a
verbose run reads as a nine-line scorecard for the package; the randomized
property suites and their time budget are in test_properties.py.
"""

import json
import math
import time

import numpy as np

from qrf_lab import FrameSetup, Z2
from qrf_lab.dynamics import split_hamiltonian
from qrf_lab.operators import (
    ID2,
    PAULI,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    hs_norm,
    kron,
)
from qrf_lab.scenarios import run_scenario
from qrf_lab.subalgebras import (
    BilocalUnitary,
    intersect_projectors,
    invariant_projector,
    membership_scan,
    membership_test,
    transport_bilocal,
)
from qrf_lab.thermo import Prescription, balance_verifiers

from kinematics import qrf_transform
from property_suites import haar_unitary, random_hermitian

E = (0,)
FLIP = (1,)
LOG2 = math.log(2.0)


def qubit_setup():
    return FrameSetup.from_rep_config(Z2, "regular")


def ising_chain(a, b, c):
    return (a * kron(SIGMA_Z, ID2) + b * kron(ID2, SIGMA_Z)
            + c * kron(SIGMA_Z, SIGMA_Z))


def summary_of(name, params=None, **extra):
    cfg = {"scenario": name}
    if params:
        cfg["params"] = params
    cfg.update(extra)
    return run_scenario(json.dumps(cfg))


def test_invariant_projector_dimensions_quickly():
    """Identity and flip subalgebras have dimension 10, overlap 6, in <1s."""
    start = time.perf_counter()
    setup = qubit_setup()
    proj_identity = invariant_projector(setup, BilocalUnitary(ID2, ID2), E, E,
                                        tol=1e-9)
    proj_flip = invariant_projector(setup, BilocalUnitary(ID2, SIGMA_X), E, E,
                                    tol=1e-9)
    both = intersect_projectors(proj_identity, proj_flip)
    elapsed = time.perf_counter() - start
    assert proj_identity.dimension == 10
    assert proj_flip.dimension == 10
    assert both.dimension == 6
    assert elapsed < 1.0


def test_ising_membership_table_and_strong_coupling_scan():
    """Unit-coupling chain sits in the transported subalgebras; the
    strong-coupling chain admits no Pauli bilocal witness."""
    setup = qubit_setup()
    h_unit = ising_chain(1.0, 1.0, 1.0)
    base = BilocalUnitary(ID2, ID2)
    expected = {
        (E, E): kron(ID2, ID2),
        (E, FLIP): kron(SIGMA_X, SIGMA_X),
        (FLIP, E): kron(SIGMA_X, ID2),
        (FLIP, FLIP): kron(ID2, SIGMA_X),
    }
    for (g1, g2), matrix in expected.items():
        x = transport_bilocal(setup, base, (E, E), (g1, g2))
        assert np.allclose(kron(x.y, x.z), matrix, atol=1e-12)
        result = membership_test(setup, h_unit, x, g1, g2)
        assert result.is_member, f"expected membership at {(g1, g2)}"

    h_strong = ising_chain(1.0, 1.0, 2.0)
    candidates = [BilocalUnitary(PAULI[a], PAULI[b])
                  for a in "IXYZ" for b in "IXYZ"]
    results = membership_scan(setup, h_strong, candidates, FLIP, FLIP)
    assert len(results) == 16
    for _, result in results:
        assert not result.is_member
        assert result.residual > 0.0
    best = min(result.residual for _, result in results)
    assert np.isclose(best, 2.8284271247461903, atol=1e-9)


def test_w_state_conditional_entropies_and_witnesses():
    """Balanced amplitudes give entropies 0 and log 2 (all Renyi orders
    agree); one-sided amplitudes give zero entropy plus a bilocal witness."""
    balanced = summary_of("w-state").summary
    assert abs(balanced["svn_s_i"]) <= 1e-9
    assert abs(balanced["svn_s_j"] - LOG2) <= 1e-9
    for alpha, key in ((0.5, "renyi_half_s_j"), (2.0, "renyi_two_s_j")):
        target = math.log(2.0 * 2.0 ** (-alpha)) / (1.0 - alpha)
        assert abs(target - LOG2) <= 1e-12
        assert abs(balanced[key] - target) <= 1e-9

    flip_only = summary_of("w-state", {"amplitudes": [0.0, 1.0]}).summary
    assert abs(flip_only["svn_s_i"]) <= 1e-9
    assert abs(flip_only["svn_s_j"]) <= 1e-9
    assert flip_only["witness_found"]
    assert flip_only["flip_member"]

    identity_only = summary_of("w-state", {"amplitudes": [1.0, 0.0]}).summary
    assert abs(identity_only["svn_s_i"]) <= 1e-9
    assert abs(identity_only["svn_s_j"]) <= 1e-9
    assert identity_only["witness_found"]
    assert identity_only["identity_member"]


def test_negative_temperature_gibbs_prediction():
    """Second-frame state is the negative-temperature Gibbs state of the
    scaled first-frame Hamiltonian; the symmetric case is a flip conjugation
    with equal entropies."""
    scaled = summary_of("negative-temperature", {"mu": 2.0}).summary
    assert scaled["prediction_dev"] <= 1e-10
    assert scaled["negative_beta_gibbs_dev"] <= 1e-10
    assert scaled["stationarity_dev"] <= 1e-10
    assert np.isclose(scaled["q_a"], 1.0, atol=1e-12)

    symmetric = summary_of("negative-temperature", {"mu": 1.0}).summary
    assert symmetric["conjugation_dev"] <= 1e-10
    assert symmetric["entropy_gap"] <= 1e-10


def test_relative_equilibrium_mixture_and_stationary_thermal_state():
    """One conditional state is a stationary thermal state while the other
    follows the two-component Gibbs mixture along the whole grid."""
    result = summary_of("relative-equilibrium")
    assert len(result.rows) == 50
    assert result.summary["stationary_thermal_dev"] <= 1e-9
    assert result.summary["mixture_formula_dev"] <= 1e-9


def test_isolated_vs_closed_rate_curves():
    """The default run has no interaction for frame i, an interaction of
    norm 2 for frame j, and no heat or work in either perspective.

    Expected values, derived by hand for H = X(x)1 + 1(x)X and the Bell state
    (|00> + |11>)/sqrt(2) placed in perspective j:

    - For the regular Z2 setup with g_i = g_j = e, the perspective change is
      the CNOT with the frame as control, so H_j = 1(x)X + X(x)X. The split
      with vanishing partial traces gives h_int = 0 for frame i and
      h_int = X(x)X, of Hilbert-Schmidt norm 2, for frame j.
    - Every term of H_i and of H_j commutes with X_R = X(x)1 and with
      X_S = 1(x)X, so <X_R> and <X_S> are conserved for every initial state.
      Under either prescription the effective system Hamiltonian is
      (c1 + c2 <X_R>) X and the effective frame Hamiltonian is
      (c1' + c2 <X_S>) X, each plus a multiple of 1 (c2 = 0 for frame i).
      Every heat rate is proportional to d<X_S>/dt or d<X_R>/dt, every work rate to
      the derivative of a conserved mean, and e* to the commutator of two
      multiples of X, so all six rate columns vanish.
    - Perspective i receives CNOT^dagger applied to the Bell state, which is
      |+>|0>: a product with a pure system. H_i acts locally, so the system
      stays pure and SvN_s_i = 0 at every time.
    - Perspective j: H_j = (1 + X_R) X_S, and the Bell state is
      (|++> + |-->)/sqrt(2), which evolves to
      (exp(-2it)|++> + |-->)/sqrt(2). It stays maximally entangled, so both
      marginals are 1/2 and SvN_s_j = ln 2 at every time.

    A heat curve with odd harmonics in t is not reachable: the Bohr
    frequencies of H are 0, 2 and 4, and each rate is at most bilinear in
    rho(t), so rates contain only even harmonics.
    """
    result = summary_of("isolated-vs-closed")
    rows = result.rows
    assert len(rows) == 50
    for key in ("qdot_s_i", "wdot_s_i", "estar_s_i",
                "qdot_s_j", "wdot_s_j", "estar_s_j"):
        assert max(abs(row[key]) for row in rows) <= 1e-8, key

    setup = qubit_setup()
    h_i = kron(SIGMA_X, ID2) + kron(ID2, SIGMA_X)
    v = qrf_transform(setup, 1, 2, E, E)
    h_j = v @ h_i @ dagger(v)
    assert hs_norm(split_hamiltonian(h_i, 2, 2).h_int) <= 1e-12
    assert abs(hs_norm(split_hamiltonian(h_j, 2, 2).h_int) - 2.0) <= 1e-12

    assert max(abs(row["SvN_s_i"]) for row in rows) <= 1e-8
    assert max(abs(row["SvN_s_j"] - LOG2) for row in rows) <= 1e-8
    assert result.summary["max_marginal_dev_from_maximally_mixed_j"] <= 1e-8


def test_entropy_production_flow_and_purity_formula():
    """Entropy production and flow vanish where required, the purity follows
    its closed form, and the second-frame production is zero exactly at the
    quarter-period times."""
    result = summary_of(
        "zero-to-nonzero-entropy",
        time_grid={"start": 0.0, "stop": 2 * math.pi, "points": 41})
    summary = result.summary
    assert summary["max_sigma_i"] <= 1e-9
    assert summary["max_phi_i"] <= 1e-9
    assert summary["max_phi_j"] <= 1e-9
    assert summary["purity_formula_dev"] <= 1e-9
    sigma_j = [row["sigma_j"] for row in result.rows]
    # Grid points 0, 10, 20, 30, 40 sit at integer multiples of pi/2.
    quarter = [sigma_j[i] for i in range(0, 41, 10)]
    assert max(abs(v) for v in quarter) <= 1e-12
    off_grid = [abs(sigma_j[i]) for i in range(41) if i % 10]
    assert max(off_grid) > 1e-3


def test_membership_flag_times_and_entropy_crossings():
    """The oscillating chain re-enters the identity subalgebra at multiples
    of pi and the flip subalgebra at multiples of pi/3, and the two
    conditional entropies coincide at every flagged time."""
    result = summary_of("zz-oscillation")
    step = result.rows[1]["t"] - result.rows[0]["t"]
    identity_expected = [0.0, math.pi, 2 * math.pi]
    flip_expected = [k * math.pi / 3 for k in range(7)]
    assert np.allclose(result.summary["in_identity_times"], identity_expected,
                       atol=step / 2)
    assert np.allclose(result.summary["in_flip_times"], flip_expected,
                       atol=step / 2)
    flagged = sorted(set(result.summary["in_identity_times"])
                     | set(result.summary["in_flip_times"]))
    for t_flag in flagged:
        row = min(result.rows, key=lambda row: abs(row["t"] - t_flag))
        assert abs(row["t"] - t_flag) <= step / 2
        assert abs(row["SvN_s_i"] - row["SvN_s_j"]) <= 1e-8


def _zz_trajectory(setup, rng):
    b, j = rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2)
    h = (b * (kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z))
         + 2 * j * kron(SIGMA_Z, SIGMA_Z))
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    psi = np.kron([0.0, 1.0], a)
    return h, np.outer(psi, psi.conj()), BilocalUnitary(ID2, SIGMA_X)


def _projected_trajectory(setup, rng):
    x = BilocalUnitary(haar_unitary(rng, 2), haar_unitary(rng, 2))
    proj = invariant_projector(setup, x, E, E)
    h = proj.apply(random_hermitian(rng, 4))
    h = (h + dagger(h)) / 2
    g = proj.apply(random_hermitian(rng, 4))
    g = (g + dagger(g)) / 2
    g = g - np.trace(g) / 4 * np.eye(4)
    top = np.linalg.norm(g, 2)
    if top > 1e-12:
        g = g / top
    return h, (np.eye(4) + 0.5 * g) / 4, x


def _frame_block_trajectory(setup, rng):
    z = np.exp(-1j * rng.uniform(0, 2 * np.pi)) * setup.u_s((1,))
    y = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
    h = (kron(np.diag([1.0, 0.0]), random_hermitian(rng, 2))
         + kron(np.diag([0.0, 1.0]), random_hermitian(rng, 2)))
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_s = g @ dagger(g)
    rho_s /= np.trace(rho_s).real
    return h, kron(np.diag([0.0, 1.0]), rho_s), BilocalUnitary(y, z)


def test_rate_agreement_on_invariant_trajectories():
    """Fifty random subalgebra-preserving trajectories give identical heat
    and work rates from both perspectives with the imported Hamiltonian,
    while comparing bare Hamiltonians disagrees for interacting dynamics."""
    setup = qubit_setup()
    prescription = Prescription.split_alpha(0.5)
    rng = np.random.default_rng(1021)
    makers = [_zz_trajectory, _projected_trajectory, _frame_block_trajectory]
    bare_disagreements = 0
    for k in range(50):
        h, rho0, x = makers[k % 3](setup, rng)
        split = split_hamiltonian(np.asarray(h, dtype=complex), 2, 2)
        report = balance_verifiers(setup, split, rho0, E, E, prescription,
                                   0.0, float(rng.uniform(0.5, 2.0)),
                                   x0=x, x1=x, grid=9)
        assert report.membership_ok, f"trajectory {k} left the subalgebra"
        assert report.rates_max_gap <= 1e-8, f"trajectory {k} rates disagree"
        assert report.rates_match
        interacting = hs_norm(split.h_int) > 1e-8
        if interacting and report.both_bare_max_gap > 1e-3:
            bare_disagreements += 1
    assert bare_disagreements >= 1
