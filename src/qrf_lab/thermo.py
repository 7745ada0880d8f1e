"""Effective energetics, entropy balances, and cross-perspective verifiers.

Energy bookkeeping follows the convention that heat is energy change at a
fixed effective generator, work is the change of the generator itself, and
a correction term moves conducted energy between the two when requested.
All generator time derivatives are propagated analytically; nothing is
finite-differenced inside the package.

A trajectory is read through one walk, trajectory_runs.  It evolves the
time grid block by block, conjugates each block to frame j once, hands
both stacks to its caller's read(rho) for what needs whole states
(membership verdicts, S(rho(t)), endpoint states), and keeps only what
_traced reads of each state: rho_frame = Tr_s rho, rho_s = Tr_frame rho,
and Tr_s(h_int rho) and Tr_frame(h_int rho) from one batched matmul each
against the split's product-trace maps, d^2 (d_f + d_s) operations per
state for both.  Per run of blocks, _assembled turns them into the
StateMarginals: those two marginals, the same two of rho_dot, and
e_total = Tr(H rho).  rho_dot = -i[H, rho] is never formed, and nothing
after _traced is larger than a subsystem.  marginal_energetics turns
StateMarginals into a ThermoReport, for one state or a stack, and sees
nothing else of the state: a caller whose rho_dot comes from another
generator builds the StateMarginals itself, as balance_verifiers does
for the imported rates.  Scenario rows and balance_verifiers both read
the grid only through the walk.

From the marginals on, every quantity is contracted on the factor tensor
T[f, s, g, t] = h_int[(f, s), (g, t)]: the mean fields are products of the
flattened marginals with the two mean-field maps the split builds once,
the interaction mean is Tr(h_tilde_s rho_s), every Tr(A B) is the sum of A
times B transposed, and e_int = e_total - e_frame - e_s.  Mean fields,
means and energies cost O(d^2) per state after that one-off set-up; only
e_star multiplies matrices, of subsystem size.

The entropy balance splits the same way.  initial_product keeps both
marginals of rho0, their entropies and whether rho0 is their product, and
never raises: a balance needs a product rho0, and the caller reads
is_product.  entropy_balance, the core, reads S(rho(t)), rho_frame(t) and
S(rho_s(t)), so each entropy is taken once, by whoever holds its state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import (
    GridEvolution,
    block_length,
    mean_field_hamiltonian,
    s_factor_twirl,
    split_hamiltonian,
    transform_hamiltonian_pieces,
)
from .operators import (
    dagger,
    hermitian_part,
    hs_norm,
    kron,
    partial_trace,
    product_partial_traces,
)
from .states import (
    gibbs_state,
    purity,
    relative_entropy,
    subsystem_transform,
    von_neumann_entropy,
)
from .subalgebras import membership_test, pure_state_bilocal_witness


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


def _local_effective(split, rho_frame, rho_s, prescription):
    """The two effective local generators and the mean fields.

    Returns (h_frame_eff, h_s_eff, h_tilde_frame, h_tilde_s); split_alpha
    shares the interaction mean Tr(h_int rho_frame (x) rho_s) = Tr(h_tilde_s rho_s).
    """
    h_tilde_s = mean_field_hamiltonian(split, rho_frame, on="s")
    h_tilde_frame = mean_field_hamiltonian(split, rho_s, on="frame")
    if prescription.kind == "split_alpha":
        shift = np.asarray(_real(_trace_product(h_tilde_s, rho_s)))[..., None, None]
        h_s_eff = split.h_s + h_tilde_s - prescription.alpha_s * shift * np.eye(split.d_s)
        h_frame_eff = split.h_frame + h_tilde_frame - prescription.alpha_frame * shift * np.eye(split.d_frame)
    else:
        projectors = split.eigenspace_projectors
        h_s_eff = split.h_s + _block_diagonal(projectors["s"], h_tilde_s)
        h_frame_eff = split.h_frame + _block_diagonal(projectors["frame"], h_tilde_frame)
    return h_frame_eff, h_s_eff, h_tilde_frame, h_tilde_s


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
    rho_frame_dot = -1j * (split.h_frame @ rho_frame - rho_frame @ split.h_frame
                           + int_frame - dagger(int_frame))
    rho_s_dot = -1j * (split.h_s @ rho_s - rho_s @ split.h_s + int_s - dagger(int_s))
    e_total = (_trace_product(split.h_frame, rho_frame) + _trace_product(split.h_s, rho_s)
               + np.trace(int_frame, axis1=-2, axis2=-1))
    return StateMarginals(rho_frame, rho_s, rho_frame_dot, rho_s_dot, _real(e_total))


def marginal_energetics(split, prescription, marginals):
    """The ThermoReport of energetics from a state's StateMarginals alone."""
    rho_frame, rho_s, rho_frame_dot, rho_s_dot, e_total = marginals
    h_frame_eff, h_s_eff, h_tilde_frame, h_tilde_s = _local_effective(
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
    """Both marginals of a state, their entropies, and whether the state is their product."""

    rho_frame: np.ndarray
    rho_s: np.ndarray
    s_frame: float
    s_s: float
    is_product: bool


def initial_product(setup, rho0_ibar, tol=1e-9):
    """The InitialProduct of rho0; is_product tells whether rho0 = rho_frame (x) rho_s within tol."""
    dims = (setup.d_frame, setup.d_s)
    rho0 = np.asarray(rho0_ibar, dtype=complex)
    rho_s0 = partial_trace(rho0, dims, drop=0)
    rho_f0 = partial_trace(rho0, dims, drop=1)
    return InitialProduct(rho_f0, rho_s0, von_neumann_entropy(rho_f0), von_neumann_entropy(rho_s0),
                          bool(hs_norm(rho0 - kron(rho_f0, rho_s0)) <= tol * max(1.0, hs_norm(rho0))))


def entropy_balance(initial, s_t, rho_frame_t, s_s_t):
    """EntropyBalance of a later state (or stack) from S(rho_t), its frame marginal and S(rho_s_t)."""
    s_frame_t = von_neumann_entropy(rho_frame_t)
    info = s_frame_t + s_s_t - s_t  # as mutual_information sums
    rel = relative_entropy(rho_frame_t, initial.rho_frame)
    delta_s_frame = s_frame_t - initial.s_frame
    # An infinite relative entropy makes both balances infinite.
    return EntropyBalance(sigma=info + rel, phi=delta_s_frame + rel, delta_s_s=s_s_t - initial.s_s,
                          delta_s_frame=delta_s_frame, mutual_information=info, frame_relative_entropy=rel)


def trajectory_runs(evolution, change, splits, rho0, times, read):
    """Walk rho0's trajectory over times in both perspectives, one run of whole blocks at a time.

    Each block of evolution.blocks is conjugated to frame j once.  read gets
    both stacks, keyed "i" and "j", for what needs whole states, and returns
    a dict of per-time arrays; of each stack the walk keeps only what
    _traced reads under splits["i"] or splits["j"].  A run holds as many
    blocks as keep its subsystem stacks within STACK_BYTES, and for each run
    the walk yields its times, both perspectives' StateMarginals keyed "i"
    and "j", and read's arrays joined over the run.  No run's states are
    held at once, and _assembled, of subsystem size, runs once per run.
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
    those of a frame state (x) that Gibbs state.
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

    marginal = gibbs_state(h_s, 1.0)
    # Frame j's rho_s reads only the frame-diagonal blocks p_a marginal of
    # such a state, and the deviation is convex in the weights p_a, so its
    # maximum is reached on a frame basis state |a><a| (x) marginal.
    deviation = max(hs_norm(subsystem_transform(setup, kron(np.diag(e), marginal), g_i, g_j).rho_s
                            - marginal) for e in np.eye(d_f))

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
    overlap = np.trace(dagger(a) @ b)
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
    frame j once; per block the membership test reads both stacks, and the
    rates run once per run of blocks.  The endpoint states and their frame-j
    images are the grid's first and last; rho(t0) is evolved before the
    walk only when x0 must be searched, and rho(t1) too when none is found.

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
    # Conjugation leaves an anti-Hermitian round-off of order eps ||H||; the
    # Hermitian part keeps the split, and the rho_dot marginals it contracts, Hermitian.
    h_j = hermitian_part(change.conjugate(h_total))
    split_j = split_hamiltonian(h_j, setup.d_frame, setup.d_s)
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
        rho_t1 = evolution.states(rho0, times[-1:])[0]
        rho_j_t0, rho_j_t1 = change.conjugate(np.stack([rho_t0, rho_t1]))
    else:
        split_imported = split_hamiltonian(hermitian_part(dagger(x0.matrix) @ h_j @ x0.matrix),
                                           setup.d_frame, setup.d_s)
        rates_max_gap = 0.0
        first, last = {}, {}

        def read(rho):
            # The first states are copied so that their block can go; the last ones are the grid's end.
            if not first:
                first.update((key, rho_t[0].copy()) for key, rho_t in rho.items())
            last.update((key, rho_t[-1]) for key, rho_t in rho.items())
            return {"member": membership_test(setup, rho["i"], x0, g_i, g_j, transformed=rho["j"]).is_member}

        for _, marginals, columns in trajectory_runs(evolution, change, {"i": split, "j": split_j},
                                                     rho0, times, read):
            in_grid += columns["member"].tolist()
            rates_j = marginal_energetics(split_j, prescription, marginals["j"]).rates_vector()
            # No rate reads e_total, so frame i's Tr(H rho) stands in for Tr(H_imported rho).
            rates_imported = marginal_energetics(split_imported, prescription, marginals["i"]).rates_vector()
            rates_bare = marginal_energetics(split, prescription, marginals["i"]).rates_vector()
            rates_max_gap = max(rates_max_gap, float(np.abs(rates_imported - rates_j).max()))
            both_bare_max_gap = max(both_bare_max_gap, float(np.abs(rates_bare - rates_j).max()))
        rho_t0, rho_j_t0, rho_t1, rho_j_t1 = first["i"], first["j"], last["i"], last["j"]
        membership_ok = all(in_grid)
        if not membership_ok:
            premises.append("trajectory leaves the subalgebra on the grid")
    x1 = find_witness(rho_t1, x1)

    start_i, end_i, start_j, end_j = (initial_product(setup, rho)
                                      for rho in (rho_t0, rho_t1, rho_j_t0, rho_j_t1))
    frame_marginal_static = bool(start_i.is_product and end_i.is_product
                                 and hs_norm(end_i.rho_frame - start_i.rho_frame) <= 1e-9)

    y_factors_match = None
    if x0 is not None and x1 is not None:
        y_factors_match = _phase_aligned_equal(x0.y, x1.y)

    sigma_i = phi_i = sigma_j = phi_j = None
    pure_balance_zero = None
    if start_i.is_product:
        balance_i = entropy_balance(start_i, von_neumann_entropy(rho_t1), end_i.rho_frame, end_i.s_s)
        sigma_i, phi_i = balance_i.sigma, balance_i.phi
        if start_j.is_product:
            balance_j = entropy_balance(start_j, von_neumann_entropy(rho_j_t1), end_j.rho_frame, end_j.s_s)
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
    # With x1 = x0 the grid loop has already tested both endpoints.
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
            lhs = relative_entropy(rotated, start_i.rho_frame)
            rhs = relative_entropy(end_i.rho_frame, start_i.rho_frame)
            y_condition_holds = _agree(lhs, rhs)
            if sigma_j is not None:
                sigma_phi_equal = _agree(sigma_i, sigma_j) and _agree(phi_i, phi_j)
    else:
        premises.append("membership at both endpoint times is required for entropy-change checks")

    return BalanceReport(
        times=times,
        rates_max_gap=float(rates_max_gap),
        rates_match=bool(x0 is not None and membership_ok
                         and rates_max_gap <= 1e-8 * np.abs(evolution.vals).max() ** 2),
        both_bare_max_gap=float(both_bare_max_gap),
        membership_ok=membership_ok,
        product_at_t0=start_i.is_product,
        product_at_t1=end_i.is_product,
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
