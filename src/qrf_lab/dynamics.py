"""Hamiltonian splits, exact evolution, and perspective transport of generators.

A perspective Hamiltonian is stored as frame-local, system-local, and
interaction pieces with the identity component shared evenly between the
two local parts, so the split is unique and reassembles exactly; the split
of u op u', what the other perspective sees of op, is conjugated_split.

Trajectories over a time grid come from GridEvolution: one
eigendecomposition of H serves every time, each state is formed from the
eigenbasis without forming U(t), and the grid is walked in blocks whose
(k, d, d) complex stacks stay within STACK_BYTES.  evolve takes the same
eigendecomposition for one time, and never forms U(t) either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frames import parity_swap
from .operators import (
    assert_hermitian,
    dagger,
    eigenspaces,
    hermitian_part,
    hs_norm,
    kron,
    partial_trace,
    product_trace_maps,
    read_only,
    stack_times,
)
from .subalgebras import BilocalUnitary, invariant_projector, membership_test, pi_d, pi_t

CLASSIFIER_TOL = 1e-10
# Eigenvalues of a local piece closer than this times ||H|| share one eigenspace.
COMMUTANT_GAP = 1e-8


@dataclass(frozen=True, eq=False)
class HamiltonianSplit:
    """Perspective Hamiltonian as h_frame (x) 1 + 1 (x) h_s + h_int, or a stack of them.

    The split is frozen and keeps read-only complex copies of its pieces,
    so what it derives from them is built once, on first use, and kept on
    the split: the total, the two mean-field maps, the two product-trace
    maps of h_int, and the eigenspaces of the local pieces.  A stacked
    split's pieces, eigenspaces included, broadcast against states with the
    same leading axes, and its maps take one GEMM per member: (2, 1) meets (2, k).
    """

    h_frame: np.ndarray
    h_s: np.ndarray
    h_int: np.ndarray

    def __post_init__(self):
        for name in ("h_frame", "h_s", "h_int"):
            object.__setattr__(self, name, read_only(np.array(getattr(self, name), dtype=complex)))

    @property
    def d_frame(self):
        return self.h_frame.shape[-1]

    @property
    def d_s(self):
        return self.h_s.shape[-1]

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
        lead = self.h_int.shape[:-2]
        t = self.h_int.reshape(-1, d_f, d_s, d_f, d_s)  # one leading axis, whatever the split's
        return {
            "s": read_only(t.transpose(0, 3, 1, 2, 4).reshape(lead + (d_f * d_f, d_s * d_s))),
            "frame": read_only(t.transpose(0, 4, 2, 1, 3).reshape(lead + (d_s * d_s, d_f * d_f))),
        }

    @cached_property
    def product_trace_maps(self):
        """product_trace_maps of h_int: what product_partial_traces contracts a state against."""
        return tuple(map(read_only, product_trace_maps(self.h_int, (self.d_frame, self.d_s))))

    @cached_property
    def eigenspaces(self):
        """eigenspaces of h_s and of h_frame, keyed "s" and "frame", clustered at the gap COMMUTANT_GAP ||H||,
        one per member of a stacked split: (vectors, mask) pairs of the pieces' shape, for pinch."""
        gap = COMMUTANT_GAP * hs_norm(self.total)
        return {key: tuple(map(read_only, eigenspaces(piece, gap)))
                for key, piece in (("s", self.h_s), ("frame", self.h_frame))}


def split_hamiltonian(hamiltonian, d_frame, d_s):
    """Unique split with both partial traces of h_int vanishing, of one Hamiltonian or of each in a stack.

    The identity component of the total is shared evenly between the two
    local pieces.
    """
    hamiltonian = assert_hermitian(np.asarray(hamiltonian, dtype=complex), what="Hamiltonian")
    dims = (d_frame, d_s)
    half = (np.trace(hamiltonian, axis1=-2, axis2=-1).real / (d_frame * d_s) / 2)[..., None, None]
    h_frame = partial_trace(hamiltonian, dims, drop=1) / d_s - half * np.eye(d_frame)
    h_s = partial_trace(hamiltonian, dims, drop=0) / d_frame - half * np.eye(d_s)
    h_int = hamiltonian - kron(h_frame, np.eye(d_s)) - kron(np.eye(d_frame), h_s)
    return HamiltonianSplit(h_frame=h_frame, h_s=h_s, h_int=h_int)


def conjugated_split(w, op, d_frame, d_s):
    """split_hamiltonian of the Hermitian part of w op w', w a structured unitary such as a perspective change.
    Conjugation leaves an anti-Hermitian round-off of eps ||op||: the Hermitian part keeps the split, and the
    rho_dot marginals it contracts, Hermitian, and lets an op of round-off size past assert_hermitian."""
    return split_hamiltonian(hermitian_part(w.conjugate(op)), d_frame, d_s)


@dataclass
class TransformedPieces:
    """Where each piece of frame j's split of u H u' comes from.

    Local factors are stored on their own factor space; the three
    interaction contributions live on the full perspective space.  To
    round-off, frame_from_diag + lambda_frame = h_frame, s_translation_part
    + lambda_s = h_s and int_from_locals + int_from_dt + lambda_int = h_int.
    """

    frame_from_diag: np.ndarray
    lambda_frame: np.ndarray
    s_translation_part: np.ndarray
    lambda_s: np.ndarray
    int_from_locals: np.ndarray
    int_from_dt: np.ndarray
    lambda_int: np.ndarray


def transform_hamiltonian_pieces(setup, split, g_i, g_j):
    """Transform a split Hamiltonian and attribute every piece of the result."""
    d_f, d_s = setup.d_frame, setup.d_s
    change = setup.perspective_change(g_i, g_j)
    split_new = conjugated_split(change, split.total, d_f, d_s)

    parity = parity_swap(setup, g_i, g_j)
    h_frame_diag = np.diag(np.diag(split.h_frame))
    h_frame_off = split.h_frame - h_frame_diag
    h_s_trans = pi_t(setup, split.h_s)
    h_s_rest = split.h_s - h_s_trans

    dt_int = pi_d(setup, pi_t(setup, split.h_int))
    rest_int = split.h_int - dt_int

    # u (h_F,off (x) 1) u' has a frame-local part wherever some U_S(g), g != e, has a trace.
    from_locals = conjugated_split(change, kron(h_frame_off, np.eye(d_s)) + kron(np.eye(d_f), h_s_rest), d_f, d_s)
    int_from_dt = BilocalUnitary(parity, np.eye(d_s)).conjugate(dt_int)
    leftovers = conjugated_split(change, rest_int, d_f, d_s)

    return split_new, TransformedPieces(
        frame_from_diag=parity @ h_frame_diag @ dagger(parity),
        lambda_frame=leftovers.h_frame + from_locals.h_frame,
        s_translation_part=h_s_trans,
        lambda_s=leftovers.h_s + from_locals.h_s,
        int_from_locals=from_locals.h_int,
        int_from_dt=int_from_dt,
        lambda_int=leftovers.h_int,
    )


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
        out = stack_times(b, rotated)
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


def evolve(hamiltonian, state, t):
    """Exact evolution of a vector or density matrix by the given time, from GridEvolution's eigendecomposition."""
    state = np.asarray(state, dtype=complex)
    evolution = GridEvolution(hamiltonian)
    if state.ndim == 1:
        return evolution.vecs @ (np.exp(-1j * t * evolution.vals) * (dagger(evolution.vecs) @ state))
    return evolution.states(state, [t])[0]


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
    mean_field_map = split.mean_field_maps[on]
    flat = rho_other.reshape(mean_field_map.shape[:-2] + (-1, mean_field_map.shape[-2])) @ mean_field_map
    return flat.reshape(rho_other.shape[:-2] + (d, d))


def dynamical_type_classifier(setup, split):
    """Classify the induced system dynamics as closed, open, or interacting.

    A non-interacting H is closed_to_closed when frame j's split of u H u' has no interaction either, with
    u at (e, e): u(g_i, g_j) = (1 (x) U_S(g_i)') u(e, e) (T (x) 1), T a frame translation, which keeps the
    U_S(g^-1 h) each <g|h_F|h> meets.  Each residual is compared with CLASSIFIER_TOL * ||H||, so rescaling
    H leaves the verdict unchanged; H = 0 is closed_to_closed.
    """
    tol = CLASSIFIER_TOL * hs_norm(split.total)
    if hs_norm(split.h_int) > tol:
        return "interacting"
    e = setup.group.identity
    seen = conjugated_split(setup.perspective_change(e, e), split.total, split.d_frame, split.d_s)
    return "closed_to_closed" if hs_norm(seen.h_int) <= tol else "closed_to_open"


@dataclass
class TrajectoryImportReport:
    h_imported: np.ndarray
    times: np.ndarray
    in_ax: list[bool]
    commutator_norms: list[float]
    generator_agreement_residual: float


def imported_hamiltonian_and_trajectory_check(setup, hamiltonian, x, g_i, g_j, rho0, time_grid):
    """Pull the other perspective's Hamiltonian back through x and test a trajectory.

    h_imported is the total of conjugated_split(x', u H u'), the generator
    balance_verifiers imports, so it is Hermitian bit for bit.  For every
    grid time the report records subalgebra membership of the evolved state
    and the norm of the commutator between the state and the difference of
    the two generators.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    change = setup.perspective_change(g_i, g_j)
    h_imported = conjugated_split(x.adjoint, change.conjugate(hamiltonian), setup.d_frame, setup.d_s).total
    projector = invariant_projector(setup, x, g_i, g_j)
    agreement = hs_norm(projector.apply(hamiltonian) - projector.apply(h_imported))
    times = np.asarray(time_grid, dtype=float)
    in_ax, comm_norms = [], []
    diff = hamiltonian - h_imported
    for _, rho_t in GridEvolution(hamiltonian).blocks(rho0, times):
        in_ax += membership_test(setup, rho_t, x, g_i, g_j).is_member.tolist()
        comm_norms += hs_norm(diff @ rho_t - rho_t @ diff).tolist()
    return TrajectoryImportReport(h_imported, times, in_ax, comm_norms, float(agreement))
