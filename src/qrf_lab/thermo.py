"""Effective energetics, entropy balances, and cross-perspective verifiers.

Energy bookkeeping follows the convention that heat is energy change at a
fixed effective generator, work is the change of the generator itself, and
a correction term moves conducted energy between the two when requested.
All generator time derivatives are propagated analytically; nothing is
finite-differenced inside the package.

energetics and the entropy balances also take stacks (k, d, d) of states,
one per time point, and then report arrays of k values.

energetics reads a state only through its StateMarginals: rho_frame =
Tr_s rho, rho_s = Tr_frame rho, the same two marginals of rho_dot, and
e_total = Tr(H rho).  state_marginals forms them; marginal_energetics is
the core that turns them into a ThermoReport, for one state or a stack,
and sees nothing else of the state, so a caller that holds the marginals
(a scenario row, or a run of balance_verifiers blocks concatenated along
the stack axis) evaluates the rates without any d x d object.  The
default rho_dot = -i[H, rho] is never formed: its marginals are the local
commutators plus Tr_other[h_int, rho], from one matmul per factor against
h_int's factor tensor, d^2 (d_f + d_s) operations per state for both.

From the marginals on, every quantity is contracted on the factor tensor
T[f, s, g, t] = h_int[(f, s), (g, t)]: the mean fields are products of the
flattened marginals with the two mean-field maps the split builds once,
the interaction mean is Tr(h_tilde_s rho_s), every Tr(A B) is the sum of A
times B transposed, and e_int = e_total - e_frame - e_s.  Mean fields,
means and energies cost O(d^2) per state after that one-off set-up; only
e_star multiplies matrices, of subsystem size.

entropy_production_and_flow splits the same way: initial_product checks
once that rho0 is a frame (x) system product and keeps rho_frame(0) and both
marginal entropies; entropy_balance, the core, reads rho(t), rho_frame(t),
rho_s(t) and, when the caller holds it, S(rho_s(t)), and takes each entropy once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import (
    COMMUTANT_GAP,
    GridEvolution,
    block_length,
    mean_field_hamiltonian,
    s_factor_twirl,
    split_hamiltonian,
    transform_hamiltonian_pieces,
)
from .operators import (
    dagger,
    eigenspace_projectors,
    hermitian_part,
    hs_norm,
    kron,
    partial_trace,
    product_partial_traces,
    random_hermitian,
)
from .states import (
    gibbs_state,
    purity,
    relative_entropy,
    subsystem_transform,
    von_neumann_entropy,
)
from .subalgebras import as_matrix, membership_test, pure_state_bilocal_witness


class NonProductInitialStateError(ValueError):
    """Entropy balance needs an initial product state."""


@dataclass(frozen=True)
class Prescription:
    """How the interaction energy is attributed to the two subsystems."""

    kind: str
    alpha_s: float | None = None

    def __post_init__(self):
        if self.kind not in ("split_alpha", "commuting_part"):
            raise ValueError(f"unknown prescription kind {self.kind!r}")
        if self.kind == "split_alpha":
            if self.alpha_s is None:
                raise ValueError("split_alpha needs alpha_s")
        elif self.alpha_s is not None:
            raise ValueError("commuting_part takes no alpha_s")

    @property
    def alpha_frame(self):
        return None if self.alpha_s is None else 1.0 - self.alpha_s

    @classmethod
    def split_alpha(cls, alpha_s=0.5):
        return cls(kind="split_alpha", alpha_s=float(alpha_s))

    @classmethod
    def commuting_part(cls):
        return cls(kind="commuting_part")

    @classmethod
    def from_config(cls, config):
        if config.get("prescription") == "split_alpha":
            return cls.split_alpha(config.get("alpha_s", 0.5))
        if config.get("prescription") == "commuting_part":
            return cls.commuting_part()
        raise ValueError(f"unknown prescription config {config!r}")


def _trace_product(a, b):
    """Tr(a b) over the last two axes, as the sum of a times b transposed, without forming a b."""
    return (a * np.swapaxes(b, -1, -2)).sum(axis=(-2, -1))


def _real(value):
    """Real part as a float for a scalar, as an array for a stack."""
    value = np.real(value)
    return float(value) if value.ndim == 0 else value


def _block_diagonal(projectors, op):
    """Sum of p op p over a stack of projectors; op may be a stack."""
    return sum(p @ op @ p for p in projectors)


def commutant_projection(h, op, gap=COMMUTANT_GAP):
    """Project op onto the block-diagonal algebra of h's eigenspaces."""
    return _block_diagonal(eigenspace_projectors(h, gap), np.asarray(op, dtype=complex))


@dataclass
class EffectiveHamiltonians:
    h_frame_eff: np.ndarray
    h_s_eff: np.ndarray
    h_int_eff: np.ndarray
    h_tilde_s: np.ndarray
    h_tilde_frame: np.ndarray
    interaction_mean: float | np.ndarray


def effective_hamiltonians(setup, split, rho_ibar, prescription):
    """Effective subsystem generators for the given state (or stack) and prescription."""
    dims = (split.d_frame, split.d_s)
    rho_ibar = np.asarray(rho_ibar, dtype=complex)
    h_frame_eff, h_s_eff, h_tilde_frame, h_tilde_s, mean = _local_effective(
        split, partial_trace(rho_ibar, dims, drop=1), partial_trace(rho_ibar, dims, drop=0), prescription)
    return EffectiveHamiltonians(
        h_frame_eff=h_frame_eff,
        h_s_eff=h_s_eff,
        h_int_eff=(split.total - kron(h_frame_eff, np.eye(split.d_s))
                   - kron(np.eye(split.d_frame), h_s_eff)),
        h_tilde_s=h_tilde_s,
        h_tilde_frame=h_tilde_frame,
        interaction_mean=mean,
    )


def _local_effective(split, rho_frame, rho_s, prescription):
    """Mean fields, the interaction mean and the two effective local generators.

    Returns (h_frame_eff, h_s_eff, h_tilde_frame, h_tilde_s, mean), where
    mean = Tr(h_int rho_frame (x) rho_s) = Tr(h_tilde_s rho_s).
    """
    h_tilde_s = mean_field_hamiltonian(split, rho_frame, on="s")
    h_tilde_frame = mean_field_hamiltonian(split, rho_s, on="frame")
    mean = _real(_trace_product(h_tilde_s, rho_s))
    if prescription.kind == "split_alpha":
        shift = np.asarray(mean)[..., None, None]
        h_s_eff = split.h_s + h_tilde_s - prescription.alpha_s * shift * np.eye(split.d_s)
        h_frame_eff = split.h_frame + h_tilde_frame - prescription.alpha_frame * shift * np.eye(split.d_frame)
    else:
        projectors = split.eigenspace_projectors
        h_s_eff = split.h_s + _block_diagonal(projectors["s"], h_tilde_s)
        h_frame_eff = split.h_frame + _block_diagonal(projectors["frame"], h_tilde_frame)
    return h_frame_eff, h_s_eff, h_tilde_frame, h_tilde_s, mean


@dataclass
class ThermoReport:
    """Energies and rates of one perspective at one instant.

    Every field is an array over the times when energetics got a stack.
    """

    e_frame: float | np.ndarray
    e_s: float | np.ndarray
    e_int: float | np.ndarray
    e_total: float | np.ndarray
    qdot_conv_s: float | np.ndarray
    wdot_conv_s: float | np.ndarray
    e_star_s: float | np.ndarray
    qdot_alt_s: float | np.ndarray
    wdot_alt_s: float | np.ndarray
    qdot_conv_frame: float | np.ndarray
    wdot_conv_frame: float | np.ndarray
    e_star_frame: float | np.ndarray
    qdot_alt_frame: float | np.ndarray
    wdot_alt_frame: float | np.ndarray

    def rates_vector(self):
        """The six rates, shape (6,) or (6, k) for a stack."""
        return np.array([
            self.qdot_conv_s, self.wdot_conv_s, self.e_star_s,
            self.qdot_conv_frame, self.wdot_conv_frame, self.e_star_frame,
        ])


class StateMarginals(NamedTuple):
    """All that energetics reads of a state, or of a stack of k states.

    The frame and system marginals of rho and of its time derivative
    rho_dot, and e_total = Tr(H rho); each field holds k values for a stack.
    """

    rho_frame: np.ndarray
    rho_s: np.ndarray
    rho_frame_dot: np.ndarray
    rho_s_dot: np.ndarray
    e_total: float | np.ndarray


def state_marginals(split, rho_ibar, rho_dot=None):
    """StateMarginals of a state (or stack) rho_ibar under H = split.total.

    rho_dot defaults to -i[H, rho], which is never formed: its marginals are
    the local commutators [h_frame, rho_frame] and [h_s, rho_s] plus
    Tr_other[h_int, rho] = A - A', with A = Tr_other(h_int rho) contracted
    on h_int's factor tensor (Hermitian h_int and rho give Tr(rho h_int) = A').
    """
    rho_ibar = np.asarray(rho_ibar, dtype=complex)
    dims = (split.d_frame, split.d_s)
    rho_frame, rho_s = partial_trace(rho_ibar, dims, drop=1), partial_trace(rho_ibar, dims, drop=0)
    if rho_dot is None:
        int_frame, int_s = product_partial_traces(split.h_int, rho_ibar, dims)
        rho_frame_dot = -1j * (split.h_frame @ rho_frame - rho_frame @ split.h_frame
                               + int_frame - dagger(int_frame))
        rho_s_dot = -1j * (split.h_s @ rho_s - rho_s @ split.h_s + int_s - dagger(int_s))
    else:
        rho_frame_dot, rho_s_dot = partial_trace(rho_dot, dims, drop=1), partial_trace(rho_dot, dims, drop=0)
    return StateMarginals(rho_frame, rho_s, rho_frame_dot, rho_s_dot,
                          _real(_trace_product(split.total, rho_ibar)))


def energetics(setup, split, rho_ibar, prescription, rho_dot=None):
    """Instantaneous energies and heat/work rates in one perspective.

    rho_dot defaults to the closed-system derivative -i[H, rho]; pass it
    explicitly when the trajectory is generated by a different operator.
    rho_ibar (and rho_dot) may be stacks (k, d, d) of states along a
    trajectory; the report then holds arrays of k values.
    """
    return marginal_energetics(split, prescription, state_marginals(split, rho_ibar, rho_dot))


def marginal_energetics(split, prescription, marginals):
    """The ThermoReport of energetics from a state's StateMarginals alone."""
    rho_frame, rho_s, rho_frame_dot, rho_s_dot, e_total = marginals
    h_frame_eff, h_s_eff, h_tilde_frame, h_tilde_s, _ = _local_effective(
        split, rho_frame, rho_s, prescription)
    h_tilde_s_dot = mean_field_hamiltonian(split, rho_frame_dot, on="s")
    h_tilde_frame_dot = mean_field_hamiltonian(split, rho_s_dot, on="frame")
    mean_dot = _real(_trace_product(h_tilde_s_dot, rho_s) + _trace_product(h_tilde_s, rho_s_dot))
    if prescription.kind == "split_alpha":
        shift = np.asarray(mean_dot)[..., None, None]
        h_s_eff_dot = h_tilde_s_dot - prescription.alpha_s * shift * np.eye(split.d_s)
        h_frame_eff_dot = h_tilde_frame_dot - prescription.alpha_frame * shift * np.eye(split.d_frame)
    else:
        projectors = split.eigenspace_projectors
        h_s_eff_dot = _block_diagonal(projectors["s"], h_tilde_s_dot)
        h_frame_eff_dot = _block_diagonal(projectors["frame"], h_tilde_frame_dot)

    def rates(h_eff, h_eff_dot, h_bare, h_tilde, rho_m, rho_m_dot):
        qdot = _real(_trace_product(h_eff, rho_m_dot))
        wdot = _real(_trace_product(h_eff_dot, rho_m))
        gen = h_bare + h_tilde
        e_star = _real(-1j * _trace_product(h_eff, gen @ rho_m - rho_m @ gen))
        return qdot, wdot, e_star

    qdot_s, wdot_s, e_star_s = rates(h_s_eff, h_s_eff_dot, split.h_s, h_tilde_s, rho_s, rho_s_dot)
    qdot_f, wdot_f, e_star_f = rates(
        h_frame_eff, h_frame_eff_dot, split.h_frame, h_tilde_frame, rho_frame, rho_frame_dot)

    e_frame = _real(_trace_product(h_frame_eff, rho_frame))
    e_s = _real(_trace_product(h_s_eff, rho_s))
    return ThermoReport(
        e_frame=e_frame,
        e_s=e_s,
        # Tr(h_int_eff rho), with h_int_eff = H - h_frame_eff (x) 1 - 1 (x) h_s_eff.
        e_int=e_total - e_frame - e_s,
        e_total=e_total,
        qdot_conv_s=qdot_s,
        wdot_conv_s=wdot_s,
        e_star_s=e_star_s,
        qdot_alt_s=qdot_s - e_star_s,
        wdot_alt_s=wdot_s + e_star_s,
        qdot_conv_frame=qdot_f,
        wdot_conv_frame=wdot_f,
        e_star_frame=e_star_f,
        qdot_alt_frame=qdot_f - e_star_f,
        wdot_alt_frame=wdot_f + e_star_f,
    )


@dataclass
class EntropyBalance:
    """Entropy balance at one later time, or arrays over a stack of times."""

    sigma: float | np.ndarray
    phi: float | np.ndarray
    delta_s_s: float | np.ndarray
    delta_s_frame: float | np.ndarray
    mutual_information: float | np.ndarray
    frame_relative_entropy: float | np.ndarray


class InitialProduct(NamedTuple):
    """Frame marginal of an initial frame (x) system product state and both marginal entropies."""

    rho_frame: np.ndarray
    s_frame: float
    s_s: float


def initial_product(setup, rho0_ibar, tol=1e-9):
    """The InitialProduct of rho0; NonProductInitialStateError unless rho0 = rho_frame (x) rho_s."""
    dims = (setup.d_frame, setup.d_s)
    rho0 = np.asarray(rho0_ibar, dtype=complex)
    rho_s0 = partial_trace(rho0, dims, drop=0)
    rho_f0 = partial_trace(rho0, dims, drop=1)
    if hs_norm(rho0 - kron(rho_f0, rho_s0)) > tol * max(1.0, hs_norm(rho0)):
        raise NonProductInitialStateError("initial state must be a frame (x) system product")
    return InitialProduct(rho_f0, von_neumann_entropy(rho_f0), von_neumann_entropy(rho_s0))


def entropy_balance(initial, rho_t, rho_frame_t, rho_s_t, s_s_t=None):
    """EntropyBalance of a later state (or stack) from its marginals; s_s_t is S(rho_s_t) if known."""
    s_frame_t = von_neumann_entropy(rho_frame_t)
    s_s_t = von_neumann_entropy(rho_s_t) if s_s_t is None else s_s_t
    info = s_frame_t + s_s_t - von_neumann_entropy(rho_t)  # as mutual_information sums
    rel = relative_entropy(rho_frame_t, initial.rho_frame)
    delta_s_frame = s_frame_t - initial.s_frame
    # An infinite relative entropy makes both balances infinite.
    return EntropyBalance(sigma=info + rel, phi=delta_s_frame + rel, delta_s_s=s_s_t - initial.s_s,
                          delta_s_frame=delta_s_frame, mutual_information=info, frame_relative_entropy=rel)


def entropy_production_and_flow(setup, rho0_ibar, rho_t_ibar, tol=1e-9):
    """Entropy produced and entropy exchanged between an initial product state and a later state.

    rho_t_ibar may be a stack (k, d, d) of later states.
    """
    initial = initial_product(setup, rho0_ibar, tol)
    rho_t = np.asarray(rho_t_ibar, dtype=complex)
    dims = (setup.d_frame, setup.d_s)
    return entropy_balance(initial, rho_t, partial_trace(rho_t, dims, drop=1),
                           partial_trace(rho_t, dims, drop=0))


def _random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def _add_frame_coherences(rng, rho, d_frame, d_s):
    """Perturb rho off the frame-diagonal without touching its blocks."""
    omega = random_hermitian(rng, d_frame * d_s)
    blocks = omega.reshape(d_frame, d_s, d_frame, d_s)
    for g in range(d_frame):
        blocks[g, :, g, :] = 0.0
    omega = blocks.reshape(d_frame * d_s, d_frame * d_s)
    top = np.linalg.norm(omega, 2)
    if top == 0.0:
        return rho
    # Positivity survives as long as the perturbation stays below the
    # smallest eigenvalue of the product state.
    eps = 0.9 * float(np.linalg.eigvalsh(rho)[0]) / top
    return rho + eps * omega


@dataclass
class GibbsClassification:
    translation_invariant: bool
    lambda_s: np.ndarray
    lambda_s_norm: float
    invariant_gibbs: bool
    sampled_max_deviation: float
    in_translation_kernel: bool
    anticommuting_sector: list
    mu: float | None
    mu_sign: int | None
    mu_fit_residual: float | None


def gibbs_classification(setup, hamiltonian, g_i, g_j, sample_globals=8, beta=1.0, rng=None):
    """How a system Gibbs state behaves under the perspective change.

    hamiltonian may be system-local (d_s x d_s) or a full perspective
    Hamiltonian; the verdict concerns its system-local piece.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    d_f, d_s = setup.d_frame, setup.d_s
    if hamiltonian.shape == (d_s, d_s):
        total = kron(np.eye(d_f), hamiltonian)
    elif hamiltonian.shape == (d_f * d_s, d_f * d_s):
        total = hamiltonian
    else:
        raise ValueError("hamiltonian must act on the system factor or the full perspective space")
    split = split_hamiltonian(total, d_f, d_s)
    h_s = split.h_s
    scale = hs_norm(h_s)  # relative, so that no verdict depends on the energy unit

    translation_invariant = all(
        hs_norm(h_s @ setup.u_s(g) - setup.u_s(g) @ h_s) <= 1e-10 * scale
        for g in setup.group.elements)

    split_new, pieces = transform_hamiltonian_pieces(setup, split, g_i, g_j)
    lambda_s = pieces.lambda_s
    lambda_zero = hs_norm(lambda_s) <= 1e-9 * scale
    verdict = translation_invariant and lambda_zero

    rng = np.random.default_rng(0) if rng is None else rng
    marginal = gibbs_state(h_s, beta)
    # Both reduced states see the global state only through its
    # frame-diagonal blocks, and the invariance statement holds for
    # extensions whose diagonal blocks are those of a product.  Sampling
    # therefore draws random products and dresses half of them with
    # frame-off-diagonal correlations, which leave those blocks untouched.
    deviation = 0.0
    for k in range(int(sample_globals)):
        rho = kron(_random_density(rng, d_f), marginal)
        if k % 2 == 1:
            rho = _add_frame_coherences(rng, rho, d_f, d_s)
        moved = subsystem_transform(setup, rho, g_i, g_j)
        deviation = max(deviation, hs_norm(moved.rho_s - marginal))

    in_kernel = hs_norm(s_factor_twirl(setup, h_s)) <= 1e-9 * scale
    anti = [g for g in setup.group.elements
            if hs_norm(setup.u_s(g) @ h_s + h_s @ setup.u_s(g)) <= 1e-10 * scale]

    mu = mu_sign = residual = None
    if in_kernel and anti and hs_norm(h_s) > 0:
        h_s_new = split_new.h_s
        coeff = float(np.trace(dagger(h_s) @ h_s_new).real) / float(np.trace(dagger(h_s) @ h_s).real)
        fit = hs_norm(h_s_new - coeff * h_s)
        if fit <= 1e-9 * scale and abs(coeff) > 0:
            mu, mu_sign, residual = abs(coeff), int(np.sign(coeff)), float(fit)

    return GibbsClassification(
        translation_invariant=translation_invariant,
        lambda_s=lambda_s,
        lambda_s_norm=float(hs_norm(lambda_s)),
        invariant_gibbs=verdict,
        sampled_max_deviation=float(deviation),
        in_translation_kernel=in_kernel,
        anticommuting_sector=anti,
        mu=mu,
        mu_sign=mu_sign,
        mu_fit_residual=residual,
    )


@dataclass
class BalanceReport:
    """Cross-perspective checks of rates, entropy balance, and entropy changes."""

    times: np.ndarray
    rates_max_gap: float
    rates_match: bool
    both_bare_max_gap: float
    membership_ok: bool
    product_at_t0: bool
    product_at_t1: bool
    frame_marginal_static: bool
    y_factors_match: bool | None
    sigma_i: float | None
    phi_i: float | None
    sigma_j: float | None
    phi_j: float | None
    pure_balance_zero: bool | None
    delta_s_s_equal: bool | None
    delta_s_frame_equal: bool | None
    y_condition_holds: bool | None
    sigma_phi_equal: bool | None
    premises_not_met: list = field(default_factory=list)


def _agree(a, b, tol=1e-8):
    """Within tol of each other, or both infinite."""
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return bool(abs(a - b) <= tol)


def _phase_aligned_equal(a, b, tol=1e-8):
    overlap = np.trace(dagger(a) @ b)
    if abs(overlap) < 1e-12:
        return False
    phase = overlap / abs(overlap)
    return hs_norm(a * phase - b) <= tol * max(1.0, hs_norm(a))


def balance_verifiers(setup, split, rho0, g_i, g_j, prescription, t0, t1,
                      x0=None, x1=None, grid=50, rate_tol=1e-8):
    """Verify cross-perspective thermodynamic agreement along one trajectory.

    Checks, premises permitting: rate agreement between the transformed
    perspective and the imported generator, the discrepancy when both
    perspectives instead use their bare generators, zero entropy production
    and flow for product member states, and equality of entropy changes
    between perspectives.  Missing premises are reported, not raised.
    The grid is evolved from one eigendecomposition of H, block by block;
    each state is conjugated to frame j once, and rho_dot is never formed:
    the rates read its marginals (state_marginals) in both perspectives.

    Rates scale as ||H||^2, so rates_match compares the unscaled
    rates_max_gap with rate_tol * ||H||_2^2 (spectral norm).
    """
    premises = []
    h_total = split.total
    change = setup.perspective_change(g_i, g_j)
    # Conjugation leaves an anti-Hermitian round-off of order eps ||H||; the
    # Hermitian part keeps the split, and the rho_dot marginals it contracts, Hermitian.
    h_j = hermitian_part(change.conjugate(h_total))
    split_j = split_hamiltonian(h_j, setup.d_frame, setup.d_s)
    times = np.linspace(float(t0), float(t1), int(grid))
    rho0 = np.asarray(rho0, dtype=complex)
    dims = (setup.d_frame, setup.d_s)
    evolution = GridEvolution(h_total)
    endpoints = evolution.states(rho0, times[[0, -1]])
    rho_t0, rho_t1 = endpoints
    rho_j_t0, rho_j_t1 = change.conjugate(endpoints)

    def find_witness(rho_t, provided):
        if provided is not None:
            return provided
        if purity(rho_t) >= 1.0 - 1e-10:
            vals, vecs = np.linalg.eigh(rho_t)
            psi = vecs[:, int(np.argmax(vals))]
            return pure_state_bilocal_witness(setup, psi, g_i, g_j)
        return None

    x0 = find_witness(rho_t0, x0)
    x1 = find_witness(rho_t1, x1)
    if x0 is None:
        premises.append("no subalgebra witness available at the initial time")

    membership_ok = False
    rates_max_gap = math.inf
    both_bare_max_gap = 0.0
    if x0 is not None:
        x0_mat = as_matrix(x0)
        h_imported = hermitian_part(dagger(x0_mat) @ h_j @ x0_mat)
        split_imported = split_hamiltonian(h_imported, setup.d_frame, setup.d_s)
        membership_ok = True
        rates_max_gap = 0.0
        # Each block keeps only the marginals of rho and rho_dot in both
        # perspectives; the rates run once per run of times whose subsystem
        # stacks fit in STACK_BYTES.
        run = block_length(max(setup.d_frame, setup.d_s))
        for start in range(0, times.size, run):
            seen_i, seen_j, e_imported = [], [], []
            for _, rho_t in evolution.blocks(rho0, times[start:start + run]):
                rho_jt = change.conjugate(rho_t)
                membership_ok &= bool(membership_test(setup, rho_t, x0, g_i, g_j,
                                                      transformed=rho_jt).is_member.all())
                seen_i.append(state_marginals(split, rho_t))
                seen_j.append(state_marginals(split_j, rho_jt))
                e_imported.append(_real(_trace_product(split_imported.total, rho_t)))
            marginals_i, marginals_j = (StateMarginals(*map(np.concatenate, zip(*seen)))
                                        for seen in (seen_i, seen_j))
            rates_j = marginal_energetics(split_j, prescription, marginals_j).rates_vector()
            rates_imported = marginal_energetics(
                split_imported, prescription,
                marginals_i._replace(e_total=np.concatenate(e_imported))).rates_vector()
            rates_bare = marginal_energetics(split, prescription, marginals_i).rates_vector()
            rates_max_gap = max(rates_max_gap, float(np.abs(rates_imported - rates_j).max()))
            both_bare_max_gap = max(both_bare_max_gap, float(np.abs(rates_bare - rates_j).max()))
        if not membership_ok:
            premises.append("trajectory leaves the subalgebra on the grid")

    def product_check(rho):
        rho_s = partial_trace(rho, dims, drop=0)
        rho_f = partial_trace(rho, dims, drop=1)
        return hs_norm(rho - kron(rho_f, rho_s)) <= 1e-9 * max(1.0, hs_norm(rho)), rho_f

    product_at_t0, rho_f_t0 = product_check(rho_t0)
    product_at_t1, rho_f_t1 = product_check(rho_t1)
    frame_marginal_static = bool(product_at_t0 and product_at_t1
                                 and hs_norm(rho_f_t1 - rho_f_t0) <= 1e-9)

    y_factors_match = None
    if hasattr(x0, "y") and hasattr(x1, "y"):
        y_factors_match = _phase_aligned_equal(x0.y, x1.y)

    sigma_i = phi_i = sigma_j = phi_j = None
    pure_balance_zero = None
    if product_at_t0:
        balance_i = entropy_production_and_flow(setup, rho_t0, rho_t1)
        sigma_i, phi_i = balance_i.sigma, balance_i.phi
        product_j, _ = product_check(rho_j_t0)
        if product_j:
            balance_j = entropy_production_and_flow(setup, rho_j_t0, rho_j_t1)
            sigma_j, phi_j = balance_j.sigma, balance_j.phi
        else:
            premises.append("transformed initial state is not a product")
        if (frame_marginal_static and y_factors_match and membership_ok
                and sigma_j is not None):
            pure_balance_zero = bool(
                max(abs(sigma_i), abs(phi_i), abs(sigma_j), abs(phi_j)) <= 1e-8)
    else:
        premises.append("initial state is not a product")

    delta_s_s_equal = delta_s_frame_equal = None
    y_condition_holds = sigma_phi_equal = None
    member_t0 = x0 is not None and membership_test(
        setup, rho_t0, x0, g_i, g_j, transformed=rho_j_t0).is_member
    member_t1 = x1 is not None and membership_test(
        setup, rho_t1, x1, g_i, g_j, transformed=rho_j_t1).is_member
    if member_t0 and member_t1:
        def marginal_entropies(rho):
            return (von_neumann_entropy(partial_trace(rho, dims, drop=1)),
                    von_neumann_entropy(partial_trace(rho, dims, drop=0)))

        s_f_i0, s_s_i0 = marginal_entropies(rho_t0)
        s_f_i1, s_s_i1 = marginal_entropies(rho_t1)
        s_f_j0, s_s_j0 = marginal_entropies(rho_j_t0)
        s_f_j1, s_s_j1 = marginal_entropies(rho_j_t1)
        delta_s_frame_equal = bool(abs((s_f_i1 - s_f_i0) - (s_f_j1 - s_f_j0)) <= 1e-8)
        delta_s_s_equal = bool(abs((s_s_i1 - s_s_i0) - (s_s_j1 - s_s_j0)) <= 1e-8)

        if product_at_t0 and hasattr(x0, "y") and hasattr(x1, "y"):
            rho_frame_1 = partial_trace(rho_t1, dims, drop=1)
            y01 = x0.y @ dagger(x1.y)
            rotated = y01 @ rho_frame_1 @ dagger(y01)
            lhs = relative_entropy(rotated, rho_f_t0)
            rhs = relative_entropy(rho_frame_1, rho_f_t0)
            y_condition_holds = _agree(lhs, rhs)
            if sigma_j is not None:
                sigma_phi_equal = _agree(sigma_i, sigma_j) and _agree(phi_i, phi_j)
    else:
        premises.append("membership at both endpoint times is required for entropy-change checks")

    return BalanceReport(
        times=times,
        rates_max_gap=float(rates_max_gap),
        rates_match=bool(x0 is not None and membership_ok
                         and rates_max_gap <= rate_tol * np.linalg.norm(h_total, 2) ** 2),
        both_bare_max_gap=float(both_bare_max_gap),
        membership_ok=membership_ok,
        product_at_t0=product_at_t0,
        product_at_t1=product_at_t1,
        frame_marginal_static=frame_marginal_static,
        y_factors_match=y_factors_match,
        sigma_i=sigma_i,
        phi_i=phi_i,
        sigma_j=sigma_j,
        phi_j=phi_j,
        pure_balance_zero=pure_balance_zero,
        delta_s_s_equal=delta_s_s_equal,
        delta_s_frame_equal=delta_s_frame_equal,
        y_condition_holds=y_condition_holds,
        sigma_phi_equal=sigma_phi_equal,
        premises_not_met=premises,
    )
