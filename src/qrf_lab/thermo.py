"""Effective energetics, entropy balances, and cross-perspective verifiers.

Energy bookkeeping follows the convention that heat is energy change at a
fixed effective generator, work is the change of the generator itself, and
a correction term moves conducted energy between the two when requested.
All generator time derivatives are propagated analytically; nothing is
finite-differenced inside the package.

A trajectory is read through one walk, trajectory_runs, with the two
perspectives as a leading axis of length 2, frame i first: one split of
both Hamiltonians, leading axes (2, 1), and per block one (2, k, d, d)
stack of the states and their frame-j images, each conjugated once.  The
caller's read(rho) gets that stack for what needs whole states
(membership verdicts, endpoint states); the walk keeps only what _traced
reads of it: rho_frame = Tr_s rho, rho_s = Tr_frame rho, and Tr_s(h_int
rho) and Tr_frame(h_int rho) from one GEMM per perspective against the
split's product-trace maps, d^2 (d_f + d_s) operations per state for both.
Per run of blocks, _assembled turns them into the (2, k) StateMarginals:
those two marginals, the same two of rho_dot, and e_total = Tr(H rho).
rho_dot = -i[H, rho] is never formed, and nothing after _traced is larger
than a subsystem.  marginal_energetics turns StateMarginals into a
ThermoReport, for one state, a stack or both perspectives' stacks, and
sees nothing else of the state: a caller whose rho_dot comes from another
generator builds the StateMarginals itself, as balance_verifiers does for
the imported rates from frame i's half of a run's pair.  Scenario rows and
balance_verifiers both read the grid only through the walk, and each takes
both perspectives' rates, in one call per run, and entropy balances off its
pair stacks; subsystem_eom_terms reads one state's reduced equation of
motion through the same _traced and _assembled.

From the marginals on, marginal_energetics is one loop over the two sides,
system then frame, with the one prescription branch inside it.  Every
quantity is contracted on the factor tensor T[f, s, g, t] = h_int[(f, s),
(g, t)]: a mean field is a product of a flattened marginal with one of the
two mean-field maps the split builds once, every Tr(A B) is the sum of A
times B transposed, and e_int = e_total - e_frame - e_s.  split_alpha reads
only the "s" map, for rho_frame and rho_frame_dot, and each interaction term
as a trace of those two mean fields, O(d^2) per state after that one-off
set-up.  commuting_part reads the "frame" map too, and multiplies matrices
of subsystem size: e_star and one pinch of each mean field onto its side's
eigenspaces, for one perspective or both.

The entropy balance splits the same way.  initial_product keeps both
marginals of rho0, S(rho_s(0)), whether rho0 is their product (a rho0 that is
not one does not raise; the caller reads is_product), and from one checked
spectrum support_log(rho_frame(0)): S(rho_frame(0)), log rho_frame(0) on its
support and a basis of its kernel; for both perspectives at once when rho0 is
their (2, 1) stack, or balance_verifiers' four endpoint states, sliced into
the pairs at t0 and at t1.  entropy_balance, the core, reads S(rho(t)),
rho_frame(t) and S(rho_s(t)), and takes S(rho_frame(t)) and D(rho_frame(t) ||
rho_frame(0)) from one spectrum of rho_frame(t).  S(rho(t)) = S(rho0) on a
unitary trajectory in either frame, so callers pass S(rho0): the full state's
positivity is checked once, on rho0, the marginals' at every time.
balance_verifiers' tail takes S(rho(t1)) only for a product start, x1 only
when x0 exists, and membership at t1 only for a member at t0.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import (
    GridEvolution,
    block_length,
    conjugated_split,
    mean_field_hamiltonian,
    split_hamiltonian,
    stacked_split,
)
from .operators import (
    assert_hermitian,
    dagger,
    hermitian_part,
    hs_inner,
    hs_norm,
    kron,
    partial_trace,
    pinch,
    product_partial_traces,
    stack_times,
    trace_product,
    unstacked,
)
from .states import (
    entropy_and_relative_entropy,
    gibbs_state,
    purity,
    support_log,
    von_neumann_entropy,
)
from .subalgebras import membership_test, pi_t, pure_state_bilocal_witness


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


def _real(value):
    """Real part as a float for a scalar, as an array for a stack."""
    return unstacked(np.real(value))


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


def _traced(split, rho):
    """What a state's StateMarginals read of it: rho_frame, rho_s, Tr_s(h_int rho), Tr_frame(h_int rho)."""
    rho = np.asarray(rho, dtype=complex)
    dims = (split.d_frame, split.d_s)
    return (partial_trace(rho, dims, drop=1), partial_trace(rho, dims, drop=0),
            *product_partial_traces(split.product_trace_maps, rho))


def _assembled(split, rho_frame, rho_s, int_frame, int_s):
    """StateMarginals from what _traced read of rho, in subsystem-size products only.

    The marginals of rho_dot = -i[H, rho] are the local commutators plus
    Tr_other[h_int, rho] = A - A', A = Tr_other(h_int rho) being what _traced
    read (a Hermitian rho gives Tr(rho h_int) = A'), and e_total is
    Tr(h_frame rho_frame) + Tr(h_s rho_s) + Tr(h_int rho).
    """
    rho_frame_dot = -1j * (split.h_frame @ rho_frame - stack_times(rho_frame, split.h_frame)
                           + int_frame - dagger(int_frame))
    rho_s_dot = -1j * (split.h_s @ rho_s - stack_times(rho_s, split.h_s) + int_s - dagger(int_s))
    e_total = (trace_product(split.h_frame, rho_frame) + trace_product(split.h_s, rho_s)
               + np.trace(int_frame, axis1=-2, axis2=-1))
    return StateMarginals(rho_frame, rho_s, rho_frame_dot, rho_s_dot, _real(e_total))


@dataclass
class SubsystemEOMTerms:
    rho_s: np.ndarray
    rho_frame: np.ndarray
    omega: np.ndarray
    h_tilde_s: np.ndarray
    unitary_term: np.ndarray
    dissipative_term: np.ndarray
    effectively_closed: bool


def subsystem_eom_terms(setup, split, rho_ibar):
    """Terms of the reduced system equation of motion in one perspective, read off _assembled's marginals.

    The unitary term is -i[h_s + h_tilde_s, rho_s]; the dissipative term, rho_s_dot less it, is
    -i Tr_frame[h_int, omega], omega = rho - rho_frame (x) rho_s.  rho is effectively closed when
    [1 (x) rho_s, rho] = [1 (x) rho_s, omega] vanishes, formed on rho's (d_f, d_s) row or column axes.
    """
    rho = assert_hermitian(np.asarray(rho_ibar, dtype=complex), what="state")  # _assembled reads Tr(rho h_int) as A'
    rho_frame, rho_s, _, rho_s_dot, _ = _assembled(split, *_traced(split, rho))
    omega = rho - kron(rho_frame, rho_s)
    h_tilde_s = mean_field_hamiltonian(split, rho_frame, on="s")
    h_eff = split.h_s + h_tilde_s
    unitary_term = -1j * (h_eff @ rho_s - rho_s @ h_eff)
    rows, columns = rho.reshape(setup.d_frame, setup.d_s, -1), rho.reshape(-1, setup.d_frame, setup.d_s)
    closed_comm = (rho_s @ rows).reshape(rho.shape) - (columns @ rho_s).reshape(rho.shape)
    return SubsystemEOMTerms(rho_s, rho_frame, omega, h_tilde_s, unitary_term, rho_s_dot - unitary_term,
                             hs_norm(closed_comm) <= 1e-10 * max(1.0, hs_norm(omega)))


def marginal_energetics(split, prescription, marginals):
    """The ThermoReport of energetics from a state's StateMarginals alone.

    Every interaction term is B(x_f, y_s) = Tr(h_int x_f (x) y_s) =
    Tr(h_tilde_s(x_f) y_s), so split_alpha reads only the "s" map, for rho_f
    and rho_f_dot, and never forms h_eff = h + h_tilde - alpha c 1, where c =
    B(rho_f, rho_s): e_m = Tr(h rho_m) + c - alpha c Tr rho_m, qdot_s =
    Tr(h_s rho_s_dot) + B(rho_f, rho_s_dot) - alpha_s c Tr rho_s_dot and
    wdot_s = B(rho_f_dot, rho_s) - alpha_s c_dot Tr rho_s, the frame's with
    the B's swapped; e_star = -i Tr(h_eff [gen, rho_m]), gen = h + h_tilde, is
    0 by cyclicity of the trace for any rho_dot, so +0.0.  commuting_part
    reads the "frame" map too: it pinches each side's h_tilde onto h's
    eigenspaces and forms e_star.  Under both the alternative rates are
    qdot - e_star and wdot + e_star.
    """
    rho_frame, rho_s, rho_frame_dot, rho_s_dot, e_total = marginals
    h_tilde_s, h_tilde_s_dot = (mean_field_hamiltonian(split, rho, on="s") for rho in (rho_frame, rho_frame_dot))
    # c, B(rho_f_dot, rho_s) and B(rho_f, rho_s_dot), formed on first use, as only split_alpha reads them.
    bilinear = functools.cache(lambda: [trace_product(h, rho).real for h, rho in (
        (h_tilde_s, rho_s), (h_tilde_s_dot, rho_s), (h_tilde_s, rho_s_dot))])
    # Each side's mean fields (the frame's formed only when commuting_part unpacks them), and the order
    # in which it reads bilinear's values as c, its work B and its heat B.
    sides = (("s", split.h_s, (h_tilde_s, h_tilde_s_dot), rho_s, rho_s_dot, (0, 1, 2), prescription.alpha_s),
             ("frame", split.h_frame,
              (mean_field_hamiltonian(split, rho, on="frame") for rho in (rho_s, rho_s_dot)),
              rho_frame, rho_frame_dot, (0, 2, 1), prescription.alpha_frame))
    report = {"e_total": e_total}
    for side, h_bare, mean_fields, rho_m, rho_m_dot, order, alpha in sides:
        if prescription.kind == "split_alpha":
            c, b_work, b_heat = (bilinear()[k] for k in order)
            tr_m, tr_m_dot = (np.trace(rho, axis1=-2, axis2=-1).real for rho in (rho_m, rho_m_dot))
            e_m = trace_product(h_bare, rho_m).real + c - alpha * c * tr_m
            qdot = trace_product(h_bare, rho_m_dot).real + b_heat - alpha * c * tr_m_dot
            wdot, e_star = b_work - alpha * (b_work + b_heat) * tr_m, np.zeros(c.shape)  # b_work + b_heat = c_dot
        else:
            h_tilde, h_tilde_dot = mean_fields
            gen, h_eff = h_bare + h_tilde, h_bare + pinch(*split.eigenspaces[side], h_tilde)
            h_eff_dot = pinch(*split.eigenspaces[side], h_tilde_dot)
            e_star = -1j * trace_product(h_eff, gen @ rho_m - rho_m @ gen)
            e_m, qdot, wdot = (trace_product(h, rho) for h, rho in (
                (h_eff, rho_m), (h_eff, rho_m_dot), (h_eff_dot, rho_m)))
        e_m, qdot, wdot, e_star = map(_real, (e_m, qdot, wdot, e_star))
        report |= {f"e_{side}": e_m, f"qdot_conv_{side}": qdot, f"wdot_conv_{side}": wdot, f"e_star_{side}": e_star,
                   f"qdot_alt_{side}": qdot - e_star, f"wdot_alt_{side}": wdot + e_star}
    # Tr(h_int_eff rho), with h_int_eff = H - h_frame_eff (x) 1 - 1 (x) h_s_eff.
    return ThermoReport(e_int=report["e_total"] - report["e_frame"] - report["e_s"], **report)


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
    """Both marginals of a state, S(rho_s), whether the state is their product, and (s_frame, log_frame,
    kernel_frame) = support_log(rho_frame), which each D(rho_frame(t) || rho_frame) reads; k of each for a stack."""

    rho_frame: np.ndarray
    rho_s: np.ndarray
    s_frame: float
    s_s: float
    is_product: bool
    log_frame: np.ndarray
    kernel_frame: np.ndarray


def initial_product(setup, rho0_ibar, tol=1e-9):
    """The InitialProduct of rho0 or a stack; is_product tells whether rho0 = rho_frame (x) rho_s within tol."""
    dims = (setup.d_frame, setup.d_s)
    rho0 = np.asarray(rho0_ibar, dtype=complex)
    rho_s0 = partial_trace(rho0, dims, drop=0)
    rho_f0 = partial_trace(rho0, dims, drop=1)
    is_product = np.asarray(hs_norm(rho0 - kron(rho_f0, rho_s0)) <= tol * np.maximum(1.0, hs_norm(rho0)))
    s_f0, log_f0, kernel_f0 = support_log(rho_f0)
    return InitialProduct(rho_f0, rho_s0, s_f0, von_neumann_entropy(rho_s0), is_product.tolist(), log_f0, kernel_f0)


def entropy_balance(initial, s_t, rho_frame_t, s_s_t):
    """EntropyBalance of a later state (or stack) from S(rho_t), its frame marginal and S(rho_s_t).

    S(rho_t) = S(rho0) on a unitary trajectory in either frame; one checked
    spectrum of rho_frame_t gives S(rho_frame_t) and, with initial's
    support_log, D(rho_frame_t || rho_frame(0)).
    """
    s_frame_t, rel = entropy_and_relative_entropy(rho_frame_t, initial.log_frame, initial.kernel_frame)
    info = s_frame_t + s_s_t - s_t  # as mutual_information sums
    delta_s_frame = s_frame_t - initial.s_frame
    # An infinite relative entropy makes both balances infinite.
    return EntropyBalance(sigma=info + rel, phi=delta_s_frame + rel, delta_s_s=s_s_t - initial.s_s,
                          delta_s_frame=delta_s_frame, mutual_information=info, frame_relative_entropy=rel)


def trajectory_runs(evolution, change, split, rho0, times, read):
    """Walk rho0's trajectory over times in both perspectives, one run of whole blocks at a time.

    split holds both perspectives' Hamiltonians, frame i first, with the
    leading axes (2, 1).  Each block of evolution.blocks and its conjugate
    to frame j, taken once, form one (2, k, d, d) stack; read gets it, for
    what needs whole states, and returns a list of per-time arrays, and the
    walk keeps only what _traced reads of it.  A run holds as many blocks
    as keep each perspective's subsystem stacks within STACK_BYTES, and for
    each run the walk yields its times, both perspectives' StateMarginals
    as one (2, k) stack, and read's arrays joined over the run.  No run's
    states are held at once, and _assembled runs once per run.
    """
    d_f, d_s = split.d_frame, split.d_s
    per_block = block_length(d_f * d_s)
    per_run = block_length(max(d_f, d_s)) // per_block
    blocks = evolution.blocks(rho0, times)
    for _ in range(0, len(times), per_run * per_block):
        run_times, traced, columns = [], [], []
        for block, rho in itertools.islice(blocks, per_run):
            rho = np.array([rho, change.conjugate(rho)])  # frees the block, which the stack holds
            run_times.append(block)
            columns.append(read(rho))
            traced.append(_traced(split, rho))
        yield (np.concatenate(run_times),
               _assembled(split, *(np.concatenate(parts, axis=1) for parts in zip(*traced))),
               [np.concatenate(parts) for parts in zip(*columns)])


@dataclass
class GibbsClassification:
    translation_invariant: bool
    lambda_s: np.ndarray
    lambda_s_norm: float
    invariant_gibbs: bool
    max_deviation: float
    in_translation_kernel: bool
    anticommuting_sector: list
    mu: float | None
    mu_sign: int | None
    mu_fit_residual: float | None


def gibbs_classification(setup, hamiltonian, g_i, g_j):
    """How a system Gibbs state behaves under the perspective change.

    hamiltonian may be system-local (d_s x d_s) or a full perspective
    Hamiltonian; the verdict concerns its system-local piece.  max_deviation
    is the largest HS distance, at beta = 1, between the Gibbs state and
    frame j's rho_s over every global state whose frame-diagonal blocks are
    those of a frame state (x) that Gibbs state.  Every threshold is relative
    to ||H||, as in dynamical_type_classifier: an h_s of H's round-off is 0.
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
    h_s = hermitian_part(split.h_s)  # Hermitian to H's round-off, which an h_s near 0 is not to its own
    scale = hs_norm(split.total)  # ||H||, as dynamical_type_classifier, so no verdict depends on the energy unit

    commutes, anticommutes = setup.translation_sectors(h_s, 1e-10 * scale)
    translation_invariant = bool(commutes.all())
    anti = list(itertools.compress(setup.group.elements, anticommutes))

    # Frame j's h_S is pi_T(h_S) plus lambda_S, from the interaction outside pi_D pi_T: no other piece adds one.
    split_new = conjugated_split(setup.perspective_change(g_i, g_j), split.total, d_f, d_s)
    h_s_trans = pi_t(setup, h_s)
    lambda_s = split_new.h_s - h_s_trans
    lambda_zero = hs_norm(lambda_s) <= 1e-9 * scale
    verdict = translation_invariant and lambda_zero

    marginal = gibbs_state(h_s, 1.0)
    # Frame j's rho_s reads only the frame-diagonal blocks p_a marginal of such a state and is
    # convex in the weights p_a; for |a><a| (x) marginal it is U_S(g) marginal U_S(g)', one g per a.
    deviation = hs_norm(setup.translations @ marginal @ dagger(setup.translations) - marginal).max()

    in_kernel = hs_norm(h_s_trans) <= 1e-9 * scale

    mu = mu_sign = residual = None
    if in_kernel and anti and hs_norm(h_s) > 1e-9 * scale:  # an h_s of H's round-off has no mu
        coeff = hs_inner(h_s, split_new.h_s).real / hs_inner(h_s, h_s).real
        fit = hs_norm(split_new.h_s - coeff * h_s)
        if fit <= 1e-9 * scale and abs(coeff) > 1e-9:  # at the fit's tolerance, so round-off has no sign
            mu, mu_sign, residual = abs(coeff), int(np.sign(coeff)), float(fit)

    return GibbsClassification(
        translation_invariant=translation_invariant,
        lambda_s=lambda_s,
        lambda_s_norm=hs_norm(lambda_s),
        invariant_gibbs=verdict,
        max_deviation=float(deviation),
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


def _agree(a, b):
    """Within 1e-8 of each other, or both infinite."""
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return bool(abs(a - b) <= 1e-8)


def _phase_aligned_equal(a, b):
    overlap = hs_inner(a, b)
    if abs(overlap) < 1e-12:
        return False
    phase = overlap / abs(overlap)
    return hs_norm(a * phase - b) <= 1e-8 * max(1.0, hs_norm(a))


def balance_verifiers(setup, split, rho0, g_i, g_j, prescription, t0, t1,
                      x0=None, x1=None, grid=50):
    """Verify cross-perspective thermodynamic agreement along one trajectory.

    Checks, premises permitting: rate agreement between the transformed
    perspective and the imported generator, the discrepancy when both
    perspectives instead use their bare generators, zero entropy production
    and flow for product member states, and equality of entropy changes
    between perspectives.  Missing premises are reported, not raised.
    The grid is read through trajectory_runs, which conjugates each state to
    frame j once; per block the membership test reads both stacks, and per
    run of blocks one energetics call on the pair gives both perspectives'
    bare rates, one more on frame i's half the imported ones.  The endpoint
    states and their frame-j images are the grid's first and last, and one
    entropy_balance on the pairs at t0 and t1 gives both perspectives' sigma
    and phi; rho(t0) is evolved before the walk only when x0 must be
    searched, and rho(t1) too when none is found.  The tail takes S(rho(t1))
    only for a product start, x1 only when x0 exists, and membership at t1
    only for a member at t0.

    Rates scale as ||H||^2, so rates_match compares the unscaled
    rates_max_gap with 1e-8 ||H||_2^2, the spectral norm being
    max |lambda| of the grid's eigendecomposition.  grid counts the times
    from t0 to t1 and must be at least 2.
    """
    grid = int(grid)
    if grid < 2:
        raise ValueError(f"grid must hold both endpoint times, so at least 2; got grid={grid}")
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
            psi = vecs[:, int(np.argmax(vals))]
            return pure_state_bilocal_witness(setup, psi, g_i, g_j)
        return None

    if x0 is None:
        rho_t0 = evolution.states(rho0, times[:1])[0]
        x0 = find_witness(rho_t0, None)

    membership_ok = False
    in_grid = []  # membership in A_x0 at each grid time
    rates_max_gap = math.inf
    both_bare_max_gap = 0.0
    if x0 is None:
        premises.append("no subalgebra witness available at the initial time")
        endpoints = np.stack([rho_t0, evolution.states(rho0, times[-1:])[0]])
        endpoints = np.stack([endpoints, change.conjugate(endpoints)], axis=1)
    else:
        split_imported = conjugated_split(x0.adjoint, split_j.total, setup.d_frame, setup.d_s)
        rates_max_gap = 0.0
        pair, ends = stacked_split(split, split_j), {}

        def read(rho):
            # The first states are copied so that their block can go; the last ones are the grid's end.
            if not ends:
                ends["first"] = rho[:, 0].copy()
            ends["last"] = rho[:, -1]
            return [membership_test(setup, rho[0], x0, g_i, g_j, transformed=rho[1]).is_member]

        for _, marginals, (member,) in trajectory_runs(evolution, change, pair, rho0, times, read):
            in_grid += member.tolist()
            rates_bare, rates_j = marginal_energetics(pair, prescription, marginals).rates_vector().swapaxes(0, 1)
            # No rate reads e_total, so frame i's Tr(H rho) stands in for Tr(H_imported rho).
            frame_i = StateMarginals(*(fields[0] for fields in marginals))
            rates_imported = marginal_energetics(split_imported, prescription, frame_i).rates_vector()
            rates_max_gap = max(rates_max_gap, float(np.abs(rates_imported - rates_j).max()))
            both_bare_max_gap = max(both_bare_max_gap, float(np.abs(rates_bare - rates_j).max()))
        endpoints = np.stack([ends["first"], ends["last"]])
        membership_ok = all(in_grid)
        if not membership_ok:
            premises.append("trajectory leaves the subalgebra on the grid")
    rho_t1, rho_j_t1 = endpoints[1]
    x1 = None if x0 is None else find_witness(rho_t1, x1)  # nothing reads x1 without x0

    # endpoints holds (t0: i, j; t1: i, j), so support_log runs once, on the four frame marginals.
    both = initial_product(setup, endpoints.reshape((4,) + endpoints.shape[2:]))
    start, end = (InitialProduct(*(fields[n:n + 2] for fields in both)) for n in (0, 2))
    frame_marginal_static = bool(start.is_product[0] and end.is_product[0]
                                 and hs_norm(end.rho_frame[0] - start.rho_frame[0]) <= 1e-9)

    y_factors_match = None if x1 is None else _phase_aligned_equal(x0.y, x1.y)

    sigma_i = phi_i = sigma_j = phi_j = pure_balance_zero = None
    if start.is_product[0]:
        # Both perspectives' balances at t1; frame j's are dropped when its start is no product.  Unitary
        # evolution and the perspective change keep the spectrum, so S(rho(t1)) is S(rho(t0)).
        balance = entropy_balance(start, von_neumann_entropy(endpoints[0, 0]), end.rho_frame, end.s_s)
        sigma_i, phi_i = balance.sigma[0], balance.phi[0]
        if start.is_product[1]:
            sigma_j, phi_j = balance.sigma[1], balance.phi[1]
        else:
            premises.append("transformed initial state is not a product")
        if frame_marginal_static and y_factors_match and membership_ok and sigma_j is not None:
            pure_balance_zero = all(_agree(v, 0.0) for v in (sigma_i, phi_i, sigma_j, phi_j))
    else:
        premises.append("initial state is not a product")

    delta_s_s_equal = delta_s_frame_equal = y_condition_holds = sigma_phi_equal = None
    # t1 is tested only for a member at t0; with x1 = x0 the grid loop has already tested both endpoints.
    if x1 is not None and in_grid[0] and (in_grid[-1] if x1 is x0 else membership_test(
            setup, rho_t1, x1, g_i, g_j, transformed=rho_j_t1).is_member):
        delta_s_frame_equal = _agree(*(end.s_frame - start.s_frame))
        delta_s_s_equal = _agree(*(end.s_s - start.s_s))

        if start.is_product[0]:
            y01 = x0.y @ dagger(x1.y)
            rotated = y01 @ end.rho_frame[0] @ dagger(y01)
            # Only the rotated side is new: D(rho_frame(t1) || rho_frame(t0)) is the balance's.
            lhs = entropy_and_relative_entropy(rotated, start.log_frame[0], start.kernel_frame[0])[1]
            y_condition_holds = _agree(lhs, balance.frame_relative_entropy[0])
            if sigma_j is not None:
                sigma_phi_equal = _agree(sigma_i, sigma_j) and _agree(phi_i, phi_j)
    else:
        premises.append("membership at both endpoint times is required for entropy-change checks")

    return BalanceReport(
        times=times,
        rates_max_gap=float(rates_max_gap),
        rates_match=bool(membership_ok and rates_max_gap <= 1e-8 * np.abs(evolution.vals).max() ** 2),
        both_bare_max_gap=float(both_bare_max_gap),
        membership_ok=membership_ok,
        product_at_t0=start.is_product[0],
        product_at_t1=end.is_product[0],
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
