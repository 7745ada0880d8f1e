"""Tests for state constructors, entropies, and subsystem relations."""

import warnings

import numpy as np
import pytest

from qrf_lab import FrameSetup, Z2, Z3
from qrf_lab.operators import SIGMA_X, SIGMA_Z, IndefiniteOperatorError, NumericalRankError, kron
from qrf_lab.states import (
    NORMALIZATION_TOL,
    basis_state,
    gb_state,
    ghz_state,
    gibbs_state,
    mutual_information,
    negative_temperature_predict,
    product_state,
    purity,
    relative_entropy,
    renyi_entropy,
    subsystem_equivalence_witness,
    subsystem_transform,
    von_neumann_entropy,
    w_state,
)

from property_suites import random_hermitian

LOG2 = np.log(2.0)


def test_basis_and_product_states():
    assert np.allclose(basis_state(4, 2), [0, 0, 1, 0])
    psi = product_state([1.0, 0.0], [0.0, 1.0])
    assert np.allclose(psi, basis_state(4, 1))


def test_w_state_support():
    w = w_state(3)
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    assert np.allclose(w, expected)
    assert np.isclose(np.linalg.norm(w_state(4)), 1.0)


def test_ghz_state():
    ghz = ghz_state(Z2, 3)
    expected = np.zeros(8)
    expected[[0, 7]] = 1.0 / np.sqrt(2.0)
    assert np.allclose(ghz, expected)
    assert np.isclose(np.linalg.norm(ghz_state(Z3, 2)), 1.0)


def test_gb_states_are_orthonormal_eigenvectors():
    setup = FrameSetup.from_rep_config(Z3, {"tensor_power": 2})
    group = setup.group
    vectors = [gb_state(group, h, k) for h in group.elements for k in group.elements]
    gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    assert np.allclose(gram, np.eye(9), atol=1e-12)
    for h in group.elements:
        for k in group.elements:
            v = gb_state(group, h, k)
            for g in group.elements:
                val = group.character(k, group.inverse(g))
                assert np.allclose(setup.u_s(g) @ v, val * v, atol=1e-12)


def test_gibbs_state():
    rho = gibbs_state(SIGMA_Z, 1.0)
    z = 2.0 * np.cosh(1.0)
    assert np.allclose(rho, np.diag([np.exp(-1.0), np.exp(1.0)]) / z, atol=1e-12)
    assert np.isclose(np.trace(rho), 1.0)


def test_pure_state_entropy_is_positive_zero():
    """A pure state's entropy is +0.0, never -0.0, alone and in a stack."""
    pure = np.diag([1.0, 0.0])
    assert np.copysign(1.0, von_neumann_entropy(pure)) == 1.0
    assert np.all(np.copysign(1.0, von_neumann_entropy(np.stack([pure, np.diag([0.0, 1.0])]))) == 1.0)


def test_von_neumann_entropy_known_values():
    assert np.isclose(von_neumann_entropy(np.diag([1.0, 0.0])), 0.0, atol=1e-12)
    assert np.isclose(von_neumann_entropy(np.eye(2) / 2), LOG2, atol=1e-12)
    p = 0.75
    expected = -p * np.log(p) - (1 - p) * np.log(1 - p)
    assert np.isclose(von_neumann_entropy(np.diag([p, 1 - p])), expected, atol=1e-12)


def test_renyi_entropy_limits():
    rho = np.diag([0.75, 0.25])
    assert np.isclose(renyi_entropy(rho, 2.0), -np.log(0.625), atol=1e-12)
    assert np.isclose(renyi_entropy(rho, 1.0 + 1e-9),
                      von_neumann_entropy(rho), atol=1e-6)
    uniform = np.eye(4) / 4
    for alpha in (0.5, 2.0, 3.0):
        assert np.isclose(renyi_entropy(uniform, alpha), np.log(4.0), atol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_renyi_entropy_of_a_stack_is_one_entropy_per_matrix(alpha):
    """{pure, rank-2 uniform}, a -1e-13 eigenvalue among them: 0 and ln 2, each matrix's own value."""
    stack = np.array([np.diag([1.0, 0.0, -1e-13]), np.diag([0.5, 0.5, 0.0])])
    values = renyi_entropy(stack, alpha)
    assert values.shape == (2,)
    assert np.allclose(values, [0.0, np.log(2.0)], atol=1e-12)
    assert values.tolist() == [renyi_entropy(m, alpha) for m in stack]


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_renyi_entropy_refuses_an_order_that_is_no_finite_positive_number(alpha):
    """NaN passes alpha <= 0 and gave NaN, and inf divided by zero: each is refused as 0 and -1 are."""
    with pytest.raises(ValueError, match="alpha must be a finite positive number"):
        renyi_entropy(np.eye(2) / 2, alpha)


@pytest.mark.parametrize("rho", [np.diag([2.0, 0.0]), np.eye(2)], ids=["diag(2,0)", "eye(2)"])
def test_entropies_refuse_an_unnormalized_state(rho):
    """diag(2, 0) gave S = -2 ln 2 and eye(2) gave S = 0: a spectrum whose sum is off 1 by more than
    NORMALIZATION_TOL raises in every entropy, alone or in a stack, and one inside the band passes."""
    for entropy in (von_neumann_entropy, lambda r: renyi_entropy(r, 2.0), lambda r: relative_entropy(r, r),
                    lambda r: von_neumann_entropy(np.stack([np.eye(2) / 2, r]))):
        with pytest.raises(ValueError, match="state has trace off 1 by 1.000e[+]00"):
            entropy(rho)
    with pytest.raises(ValueError, match="trace off 1 by 2.000e-08"):
        von_neumann_entropy(np.diag([1.0 + 2 * NORMALIZATION_TOL, 0.0]))
    assert abs(von_neumann_entropy(np.diag([1.0 + NORMALIZATION_TOL / 2, 0.0]))) < NORMALIZATION_TOL


def test_purity():
    assert np.isclose(purity(np.diag([1.0, 0.0])), 1.0)
    assert np.isclose(purity(np.eye(2) / 2), 0.5)


def test_mutual_information():
    rho_prod = kron(np.diag([0.3, 0.7]), np.eye(2) / 2)
    assert np.isclose(mutual_information(rho_prod, (2, 2)), 0.0, atol=1e-12)
    bell = np.zeros(4)
    bell[[0, 3]] = 1.0 / np.sqrt(2.0)
    rho_bell = np.outer(bell, bell)
    assert np.isclose(mutual_information(rho_bell, (2, 2)), 2 * LOG2, atol=1e-12)


def test_relative_entropy():
    rho = np.diag([0.6, 0.4])
    sigma = np.diag([0.5, 0.5])
    expected = 0.6 * np.log(0.6 / 0.5) + 0.4 * np.log(0.4 / 0.5)
    assert np.isclose(relative_entropy(rho, sigma), expected, atol=1e-12)
    assert np.isclose(relative_entropy(rho, rho), 0.0, atol=1e-12)
    assert np.isinf(relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))



def test_relative_entropy_refuses_an_indefinite_reference():
    """sigma's spectrum is checked as rho's is: an eigenvalue below -1e-8 raises rather than
    count as kernel, which gave D(|0><0| || sigma) = -0.0953 < 0 and D(1/2 || sigma) = inf."""
    sigma = np.diag([1.1, -0.1])
    for rho in (np.diag([1.0, 0.0]), np.eye(2) / 2):
        with pytest.raises(IndefiniteOperatorError):
            relative_entropy(rho, sigma)

def test_subsystem_transform_preserves_spectra():
    setup = FrameSetup.from_rep_config(Z2, "regular")
    rng = np.random.default_rng(0)
    rho = random_hermitian(rng, 4)
    rho = rho @ rho.conj().T
    rho = rho / np.trace(rho)
    states = subsystem_transform(setup, rho, (0,), (0,))
    assert np.allclose(np.sort(np.linalg.eigvalsh(states.rho_jbar)),
                       np.sort(np.linalg.eigvalsh(rho)), atol=1e-10)
    assert np.isclose(np.trace(states.rho_s), 1.0)
    assert np.isclose(np.trace(states.rho_frame), 1.0)


def test_equivalence_witness_finds_conjugation():
    rho_a = gibbs_state(SIGMA_Z, 1.0)
    rho_b = SIGMA_X @ rho_a @ SIGMA_X
    z = subsystem_equivalence_witness(rho_a, rho_b)
    assert z is not None
    assert np.allclose(z @ rho_a @ z.conj().T, rho_b, atol=1e-9)


def test_equivalence_witness_rejects_different_spectra():
    rho_a = np.diag([0.9, 0.1])
    rho_b = np.diag([0.6, 0.4])
    assert subsystem_equivalence_witness(rho_a, rho_b) is None


def test_equivalence_witness_raises_for_eigenvalues_in_the_guard_band():
    """Eigenvalues 5e-8 apart are neither one cluster nor clearly two at the gap 1e-8."""
    p = 0.5 + 2.5e-8
    with pytest.raises(NumericalRankError, match="eigenvalues of rho_a 5.000e-08 is inside the guard band"):
        subsystem_equivalence_witness(np.diag([p, 1 - p]), np.diag([p, 1 - p]))


def test_negative_temperature_prediction():
    setup = FrameSetup.from_rep_config(Z2, "regular")
    beta = 1.0
    rho_frame = np.diag([0.0, 1.0])
    report = negative_temperature_predict(setup, SIGMA_Z, beta, rho_frame, (0,))
    assert report.anticommuting_sector == [(1,)]
    assert report.commuting_sector == [(0,)]
    assert np.isclose(report.q_a, 1.0)
    assert np.allclose(report.predicted, gibbs_state(SIGMA_Z, -beta), atol=1e-12)


def test_negative_temperature_prediction_does_not_overflow():
    # beta * (lambda_max - lambda_min) = 2e4 is far past the exp overflow at about 709.
    setup = FrameSetup.from_rep_config(Z2, "regular")
    h_s = 1e4 * SIGMA_X
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = negative_temperature_predict(setup, h_s, 1.0, np.diag([0.0, 1.0]), (0,))
        hot = gibbs_state(h_s, -1.0)
    minus, plus = np.array([1.0, -1.0]) / np.sqrt(2.0), np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.isfinite(report.predicted).all()
    assert np.allclose(report.predicted, np.outer(minus, minus), atol=1e-12)
    assert np.allclose(hot, np.outer(plus, plus), atol=1e-12)


def test_negative_temperature_requires_sectors():
    setup = FrameSetup.from_rep_config(Z2, "regular")
    h_s = SIGMA_Z + 0.3 * SIGMA_X
    with pytest.raises(ValueError):
        negative_temperature_predict(setup, h_s, 1.0, np.eye(2) / 2, (0,))
