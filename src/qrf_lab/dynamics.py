"""Hamiltonian splits, exact evolution, and perspective transport of generators.

A perspective Hamiltonian is stored as frame-local, system-local, and
interaction pieces with the identity component shared evenly between the
two local parts, so the split is unique and reassembles exactly.

Trajectories over a time grid come from GridEvolution: one
eigendecomposition of H serves every time, each state is formed from the
eigenbasis without forming U(t), and the grid is walked in blocks whose
(k, d, d) complex stacks stay within STACK_BYTES.  propagator and evolve
take the same eigendecomposition for one time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frames import parity_swap
from .operators import (
    assert_hermitian,
    dagger,
    eigenspace_projectors,
    hermitian_part,
    hs_norm,
    kron,
    partial_trace,
    product_trace_maps,
    read_only,
    twirl,
)
from .subalgebras import invariant_projector, membership_test, pi_d, pi_t

CLASSIFIER_TOL = 1e-10
# Eigenvalues of a local piece closer than this share one eigenspace.
COMMUTANT_GAP = 1e-8


@dataclass(frozen=True)
class HamiltonianSplit:
    """Perspective Hamiltonian as h_frame (x) 1 + 1 (x) h_s + h_int.

    The split is frozen and keeps read-only complex copies of its pieces,
    so what it derives from them is built once, on first use, and kept on
    the split: the total, the two mean-field maps, the two product-trace
    maps of h_int, and the eigenspace projectors of the local pieces.
    """

    h_frame: np.ndarray
    h_s: np.ndarray
    h_int: np.ndarray

    def __post_init__(self):
        for name in ("h_frame", "h_s", "h_int"):
            object.__setattr__(self, name, read_only(np.array(getattr(self, name), dtype=complex)))

    @property
    def d_frame(self):
        return self.h_frame.shape[0]

    @property
    def d_s(self):
        return self.h_s.shape[0]

    @cached_property
    def total(self):
        return read_only(kron(self.h_frame, np.eye(self.d_s))
                         + kron(np.eye(self.d_frame), self.h_s)
                         + self.h_int)

    @cached_property
    def mean_field_maps(self):
        """Matrices taking one factor's flattened state to the other factor's mean field.

        With T[f, s, g, t] = h_int[(f, s), (g, t)], the map keyed "s" has rows
        (g, f) and columns (s, t), the one keyed "frame" rows (t, s) and
        columns (f, g); both hold T[f, s, g, t].
        """
        d_f, d_s = self.d_frame, self.d_s
        t = self.h_int.reshape(d_f, d_s, d_f, d_s)
        return {
            "s": read_only(t.transpose(2, 0, 1, 3).reshape(d_f * d_f, d_s * d_s)),
            "frame": read_only(t.transpose(3, 1, 0, 2).reshape(d_s * d_s, d_f * d_f)),
        }

    @cached_property
    def product_trace_maps(self):
        """product_trace_maps of h_int: what product_partial_traces contracts a state against."""
        return tuple(map(read_only, product_trace_maps(self.h_int, (self.d_frame, self.d_s))))

    @cached_property
    def eigenspace_projectors(self):
        """Projectors onto the eigenspaces of h_s and of h_frame, keyed "s" and "frame"."""
        return {"s": read_only(eigenspace_projectors(self.h_s, COMMUTANT_GAP)),
                "frame": read_only(eigenspace_projectors(self.h_frame, COMMUTANT_GAP))}


def split_hamiltonian(hamiltonian, d_frame, d_s):
    """Unique split with both partial traces of h_int vanishing.

    The identity component of the total is shared evenly between the two
    local pieces.
    """
    hamiltonian = assert_hermitian(np.asarray(hamiltonian, dtype=complex), what="Hamiltonian")
    dims = (d_frame, d_s)
    c = float(np.trace(hamiltonian).real) / (d_frame * d_s)
    h_frame = partial_trace(hamiltonian, dims, drop=1) / d_s - (c / 2) * np.eye(d_frame)
    h_s = partial_trace(hamiltonian, dims, drop=0) / d_frame - (c / 2) * np.eye(d_s)
    h_int = hamiltonian - kron(h_frame, np.eye(d_s)) - kron(np.eye(d_frame), h_s)
    return HamiltonianSplit(h_frame=h_frame, h_s=h_s, h_int=h_int)


@dataclass
class TransformedPieces:
    """Where each part of a transformed Hamiltonian comes from.

    Local factors are stored on their own factor space; the three
    interaction contributions live on the full perspective space.
    """

    frame_from_diag: np.ndarray
    lambda_frame: np.ndarray
    s_translation_part: np.ndarray
    lambda_s: np.ndarray
    int_from_locals: np.ndarray
    int_from_dt: np.ndarray
    lambda_int: np.ndarray


def s_factor_twirl(setup, op):
    return twirl([setup.u_s(g) for g in setup.group.elements], op)


def transform_hamiltonian_pieces(setup, split, g_i, g_j):
    """Transform a split Hamiltonian and attribute every piece of the result."""
    d_f, d_s = setup.d_frame, setup.d_s
    change = setup.perspective_change(g_i, g_j)
    new_total = change.conjugate(split.total)
    split_new = split_hamiltonian(new_total, d_f, d_s)

    parity = parity_swap(setup, g_i, g_j)
    h_frame_diag = np.diag(np.diag(split.h_frame))
    h_frame_off = split.h_frame - h_frame_diag
    h_s_trans = s_factor_twirl(setup, split.h_s)
    h_s_rest = split.h_s - h_s_trans

    dt_int = pi_d(setup, pi_t(setup, split.h_int))
    rest_int = split.h_int - dt_int

    int_from_locals = change.conjugate(kron(h_frame_off, np.eye(d_s)) + kron(np.eye(d_f), h_s_rest))
    p_full = kron(parity, np.eye(d_s))
    int_from_dt = p_full @ dt_int @ dagger(p_full)
    # rest_int may vanish up to round-off, which the relative Hermiticity check would reject.
    leftovers = split_hamiltonian(hermitian_part(change.conjugate(rest_int)), d_f, d_s)

    pieces = TransformedPieces(
        frame_from_diag=parity @ h_frame_diag @ dagger(parity),
        lambda_frame=leftovers.h_frame,
        s_translation_part=h_s_trans,
        lambda_s=leftovers.h_s,
        int_from_locals=int_from_locals,
        int_from_dt=int_from_dt,
        lambda_int=leftovers.h_int,
    )
    return split_new, pieces


STACK_BYTES = 128 * 1024


def block_length(d):
    """Times per block so that one (k, d, d) complex stack fits in STACK_BYTES.

    A block holds at least one time, even where one d x d matrix is larger.
    """
    return max(1, STACK_BYTES // (d * d * np.dtype(complex).itemsize))


class GridEvolution:
    """Exact evolution of density matrices under one Hamiltonian, many times at once.

    H = V diag(lambda) V' is diagonalized once, and rho0 is rotated once per
    trajectory to r = V' rho0 V.  Each state is B r B' with
    B = V diag(exp(-i lambda t)): two d x d products per time, and U(t) is
    never formed.  evolve uses the same formula, so every state on a grid
    equals evolve at that time bit for bit.
    """

    def __init__(self, hamiltonian):
        hamiltonian = assert_hermitian(np.asarray(hamiltonian, dtype=complex))
        self.vals, self.vecs = np.linalg.eigh(hamiltonian)

    def _rotate(self, rho0):
        return dagger(self.vecs) @ np.asarray(rho0, dtype=complex) @ self.vecs

    def _from_eigenbasis(self, rotated, times):
        b = self.vecs * np.exp(np.multiply.outer(-1j * times, self.vals))[:, None, :]
        out = b @ rotated
        np.conjugate(b, out=b)  # B' in place, so the block holds no further stack
        return out @ b.swapaxes(-1, -2)

    def states(self, rho0, times):
        """rho(t) for every time, as one (len(times), d, d) stack."""
        return self._from_eigenbasis(self._rotate(rho0), np.asarray(times, dtype=float))

    def blocks(self, rho0, times):
        """Yield (times, states) over the grid, at most block_length(d) times at a time."""
        times = np.asarray(times, dtype=float)
        rotated = self._rotate(rho0)
        k = block_length(self.vals.size)
        for start in range(0, times.size, k):
            block = times[start:start + k]
            yield block, self._from_eigenbasis(rotated, block)


def propagator(hamiltonian, t):
    """U(t) = exp(-i H t), formed from GridEvolution's eigendecomposition of H."""
    evolution = GridEvolution(hamiltonian)
    return (evolution.vecs * np.exp(-1j * t * evolution.vals)) @ dagger(evolution.vecs)


def evolve(hamiltonian, state, t):
    """Exact evolution of a vector or density matrix by the given time."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return propagator(hamiltonian, t) @ state
    return GridEvolution(hamiltonian).states(state, [t])[0]


@dataclass
class SubsystemEOMTerms:
    rho_s: np.ndarray
    rho_frame: np.ndarray
    omega: np.ndarray
    h_tilde_s: np.ndarray
    unitary_term: np.ndarray
    dissipative_term: np.ndarray
    effectively_closed: bool


def mean_field_hamiltonian(split, rho_other, on="s"):
    """Partial average of the interaction against the other factor's state (or stack).

    on="s" gives Tr_frame[h_int (rho_frame (x) 1)], on="frame" gives
    Tr_s[h_int (1 (x) rho_s)]; each is one product of the flattened states
    with the split's mean-field map, O(d^2) per state.
    """
    if on not in ("s", "frame"):
        raise ValueError('on must be "s" or "frame"')
    d = split.d_s if on == "s" else split.d_frame
    rho_other = np.asarray(rho_other, dtype=complex)
    lead = rho_other.shape[:-2]
    flat = rho_other.reshape(lead + (-1,)) @ split.mean_field_maps[on]
    return flat.reshape(lead + (d, d))


def subsystem_eom_terms(setup, split, rho_ibar):
    """Terms of the reduced system equation of motion in one perspective."""
    rho_ibar = np.asarray(rho_ibar, dtype=complex)
    dims = (setup.d_frame, setup.d_s)
    rho_s = partial_trace(rho_ibar, dims, drop=0)
    rho_frame = partial_trace(rho_ibar, dims, drop=1)
    omega = rho_ibar - kron(rho_frame, rho_s)
    h_tilde_s = mean_field_hamiltonian(split, rho_frame, on="s")
    h_eff = split.h_s + h_tilde_s
    unitary_term = -1j * (h_eff @ rho_s - rho_s @ h_eff)
    comm = split.h_int @ omega - omega @ split.h_int
    dissipative_term = -1j * partial_trace(comm, dims, drop=0)
    closed_comm = kron(np.eye(setup.d_frame), rho_s) @ omega - omega @ kron(np.eye(setup.d_frame), rho_s)
    return SubsystemEOMTerms(
        rho_s=rho_s,
        rho_frame=rho_frame,
        omega=omega,
        h_tilde_s=h_tilde_s,
        unitary_term=unitary_term,
        dissipative_term=dissipative_term,
        effectively_closed=bool(hs_norm(closed_comm) <= 1e-10 * max(1.0, hs_norm(omega))),
    )


def dynamical_type_classifier(setup, split):
    """Classify the induced system dynamics as closed, open, or interacting.

    Each residual is compared with CLASSIFIER_TOL * ||H||, so rescaling H
    leaves the verdict unchanged; H = 0 is closed_to_closed.
    """
    tol = CLASSIFIER_TOL * hs_norm(split.total)
    interacting = hs_norm(split.h_int) > tol
    frame_diagonal = hs_norm(split.h_frame - np.diag(np.diag(split.h_frame))) <= tol
    s_translation_invariant = hs_norm(split.h_s - s_factor_twirl(setup, split.h_s)) <= tol
    if interacting:
        return "interacting"
    if frame_diagonal and s_translation_invariant:
        return "closed_to_closed"
    return "closed_to_open"


@dataclass
class TrajectoryImportReport:
    h_imported: np.ndarray
    times: np.ndarray
    in_ax: list[bool]
    commutator_norms: list[float]
    generator_agreement_residual: float


def imported_hamiltonian_and_trajectory_check(setup, hamiltonian, x, g_i, g_j, rho0, time_grid):
    """Pull the other perspective's Hamiltonian back through x and test a trajectory.

    For every grid time the report records subalgebra membership of the
    evolved state and the norm of the commutator between the state and the
    difference of the two generators.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    h_imported = dagger(x.matrix) @ setup.perspective_change(g_i, g_j).conjugate(hamiltonian) @ x.matrix
    projector = invariant_projector(setup, x, g_i, g_j)
    agreement = hs_norm(projector.apply(hamiltonian) - projector.apply(h_imported))
    times = np.asarray(time_grid, dtype=float)
    in_ax, comm_norms = [], []
    diff = hamiltonian - h_imported
    for _, rho_t in GridEvolution(hamiltonian).blocks(rho0, times):
        in_ax += membership_test(setup, rho_t, x, g_i, g_j).is_member.tolist()
        comm_norms += hs_norm(diff @ rho_t - rho_t @ diff).tolist()
    return TrajectoryImportReport(
        h_imported=h_imported,
        times=times,
        in_ax=in_ax,
        commutator_norms=comm_norms,
        generator_agreement_residual=float(agreement),
    )
