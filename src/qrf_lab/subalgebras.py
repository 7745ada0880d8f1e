"""Operator subalgebras singled out by a change of tensor product structure.

An operator f on a perspective space belongs to the subalgebra labeled by
a unitary X when conjugation by the perspective-change unitary u agrees with
conjugation by X, that is when f commutes with W = X'u.  Tests, projectors
(the pinching over W's eigenspaces), transport between orientations, and
witness construction for pure states live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh, schur

from .frames import parity_swap
from .operators import (
    NumericalRankError,
    StructuredUnitary,
    assert_unitary,
    dagger,
    degenerate_blocks,
    hs_norm,
    kron,
    monomial_gather,
    partial_trace,
    polar_unitary,
    read_only,
    twirl,
    unvec,
    vec,
)

MEMBERSHIP_TOL = 1e-9
LOCALITY_TOL = 1e-10
DEGENERACY_GAP = 1e-8
# intersect_projectors holds about four d_p^2 x d_p^2 complex matrices at
# peak, its operands' dense matrices among them (4.07-4.20 under tracemalloc
# at d_p = 16 and 27): the two operands and S, then eigh's full-size
# eigenvector array.  The budget admits d_p = 45, not 64 (1.1 GB).
SUPEROPERATOR_PEAK_COPIES = 4
SUPEROPERATOR_BUDGET_BYTES = 256 * 2 ** 20


class LocalityViolationError(ValueError):
    """Operator is not local on the declared factor."""


@dataclass(frozen=True)
class BilocalUnitary(StructuredUnitary):
    """Product unitary y (x) z across the (frame, system) split.

    The factors are read-only complex copies, and the dense matrix and the
    gather are built once, on first use.  conjugate takes one matrix or a
    stack as one gather when y and z are monomial, else y and z act on the
    (d_f, d_s) reshape (d_p^2 (d_f + d_s) operations per matrix, not d_p^3).
    """

    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name, what in (("y", "frame factor"), ("z", "system factor")):
            factor = assert_unitary(np.array(getattr(self, name), dtype=complex), what=what)
            object.__setattr__(self, name, read_only(factor))

    @cached_property
    def matrix(self):
        """kron(y, z), read-only."""
        return read_only(kron(self.y, self.z))

    @cached_property
    def _gather(self):
        return monomial_gather([0], self.matrix[None])

    def _left(self, ops):
        d_f, d_s = self.y.shape[0], self.z.shape[0]
        rows = self.y @ ops.reshape(ops.shape[:-2] + (d_f, d_s * d_f * d_s))
        return (self.z @ rows.reshape(ops.shape[:-2] + (d_f, d_s, d_f * d_s))).reshape(ops.shape)


def pi_t(setup, op):
    """Project onto the commutant of the system translations (system side twirl)."""
    return twirl([kron(np.eye(setup.d_frame), setup.u_s(g)) for g in setup.group.elements], op)


def pi_d(setup, op):
    """Pinch to the frame-diagonal blocks of the perspective space."""
    d_f, d_s = setup.d_frame, setup.d_s
    blocks = np.asarray(op, dtype=complex).reshape(d_f, d_s, d_f, d_s)
    return np.where(np.eye(d_f, dtype=bool)[:, None, :, None], blocks, 0.0).reshape(d_f * d_s, d_f * d_s)


@dataclass
class FourComponentDecomposition:
    """Operator split along the diagonal pinch and the translation twirl."""

    dt: np.ndarray
    dtp: np.ndarray
    dpt: np.ndarray
    dptp: np.ndarray

    @property
    def total(self):
        return self.dt + self.dtp + self.dpt + self.dptp


def four_component_decomposition(setup, op):
    op = np.asarray(op, dtype=complex)
    diag = pi_d(setup, op)
    off = op - diag
    dt = pi_t(setup, diag)
    dpt = pi_t(setup, off)
    return FourComponentDecomposition(dt=dt, dtp=diag - dt, dpt=dpt, dptp=off - dpt)


@dataclass
class MembershipResult:
    is_member: bool | np.ndarray
    residual: float | np.ndarray
    tolerance: float | np.ndarray


def membership_test(setup, f, x, g_i, g_j, tol=MEMBERSHIP_TOL, transformed=None):
    """Check whether conjugating f by the perspective change equals conjugation by the label x.

    f is a member when the residual ||u f u' - x f x'|| is at most tol * ||f||,
    so rescaling f leaves the verdict unchanged and f = 0 is a member.  For
    a stack f of shape (k, d, d) the result holds arrays of k verdicts,
    residuals and tolerances.  A caller that already holds u f u' for the
    same orientations passes it as transformed, so f is not conjugated by
    u a second time.
    """
    f = np.asarray(f, dtype=complex)
    if transformed is None:
        transformed = setup.perspective_change(g_i, g_j).conjugate(f)
    residual = hs_norm(transformed - x.conjugate(f))
    threshold = tol * hs_norm(f)
    is_member = residual <= threshold
    if f.ndim == 2:
        is_member, residual, threshold = bool(is_member), float(residual), float(threshold)
    return MembershipResult(is_member=is_member, residual=residual, tolerance=threshold)


def membership_scan(setup, f, candidates, g_i, g_j, tol=MEMBERSHIP_TOL):
    """Run membership_test over a finite candidate family; returns all results.

    f is conjugated by the perspective change once, for all candidates.
    """
    transformed = setup.perspective_change(g_i, g_j).conjugate(f)
    return [(x, membership_test(setup, f, x, g_i, g_j, tol=tol, transformed=transformed))
            for x in candidates]


def transport_bilocal(setup, x: BilocalUnitary, old, new) -> BilocalUnitary:
    """Move a membership witness from one orientation pair to another."""
    group = setup.group
    g_i, g_j = (group.check_element(g) for g in old)
    g_i2, g_j2 = (group.check_element(g) for g in new)
    shift_frame = group.compose(group.inverse(group.compose(g_i2, g_j2)), group.compose(g_i, g_j))
    shift_system = group.compose(g_j, group.inverse(g_j2))
    y_new = x.y @ setup.u_frame(shift_frame)
    z_new = x.z @ setup.u_s(shift_system)
    return BilocalUnitary(y=y_new, z=z_new)


@dataclass(frozen=True)
class SubalgebraProjector:
    """Orthogonal projector onto a subalgebra: for a label, the commutant of W = Q T Q'.

    mask[a, b] marks pairs of W's eigenvalues in one cluster, apply is the
    pinching Q (mask * Q'fQ) Q', O(d_p^3), and the dimension is sum m_k^2.
    An intersection holds an orthonormal basis (d_p^2 x D) of its column-major
    vec space instead: apply is unvec(basis (basis' vec(f))) and the
    dimension is D.  .matrix acts on vec(f), read-only, built on first use:
    basis basis' for an intersection, and for a label, within the
    superoperator budget, sum_C conj(P_C) (x) P_C over the clusters'
    projectors P_C.
    """

    operand_dim: int
    schur_vectors: np.ndarray | None = None
    mask: np.ndarray | None = None
    basis: np.ndarray | None = None

    @cached_property
    def matrix(self):
        if self.basis is not None:
            return read_only(self.basis @ dagger(self.basis))
        d = self.operand_dim
        estimate = SUPEROPERATOR_PEAK_COPIES * d ** 4 * np.dtype(complex).itemsize
        if estimate > SUPEROPERATOR_BUDGET_BYTES:  # before allocating
            raise ValueError(f"the superoperator path at d_p = {d} needs an estimated {estimate} bytes "
                             f"at peak, above the {SUPEROPERATOR_BUDGET_BYTES}-byte budget")
        total = 0.0
        for cluster in np.unique(self.mask, axis=0):
            p = self.schur_vectors[:, cluster] @ dagger(self.schur_vectors[:, cluster])
            total = total + kron(p.conj(), p)
        return read_only(total)

    @property
    def dimension(self):
        return self.basis.shape[1] if self.mask is None else int(self.mask.sum())

    def apply(self, op):
        if self.mask is None:
            return unvec(self.basis @ (dagger(self.basis) @ vec(op)), self.operand_dim)
        q = self.schur_vectors
        return q @ (self.mask * (dagger(q) @ np.asarray(op, dtype=complex) @ q)) @ dagger(q)

    def contains(self, op):
        """Whether ||apply(op) - op|| <= MEMBERSHIP_TOL ||op||; scale-free, and 0 is a member."""
        return bool(hs_norm(self.apply(op) - op) <= MEMBERSHIP_TOL * hs_norm(op))


def invariant_projector(setup, x, g_i, g_j, tol=1e-9):
    """Projector onto the subalgebra labeled by x at the given orientations: the commutant of W = x'u.

    W's eigenvalues within tol of each other share a cluster, which is the
    selection |conj(mu_a) mu_b - 1| <= tol on conj(W) (x) W, mu being on the
    unit circle.  A pair in (tol, 10 tol] raises NumericalRankError.
    """
    u = setup.perspective_change(g_i, g_j).matrix
    w = assert_unitary(dagger(x.matrix) @ u, what="W = X'u")
    triangular, q = schur(w, output="complex")
    eigs = np.diag(triangular)
    gaps = np.abs(eigs[:, None] - eigs[None, :])
    ambiguous = gaps[(gaps > tol) & (gaps <= 10 * tol)]
    if ambiguous.size:
        raise NumericalRankError(
            f"eigenvalues of W at distance {ambiguous.min():.3e} are inside the guard band {10 * tol:.3e}")
    return SubalgebraProjector(operand_dim=setup.d_perspective, schur_vectors=q, mask=gaps <= tol)


def intersect_projectors(a: SubalgebraProjector, b: SubalgebraProjector, tol=1e-9):
    """Projector onto the intersection of two subalgebras, from one Hermitian eigenproblem.

    Where a.matrix b.matrix has the eigenvalues cos^2 theta of the principal
    angles between the two ranges, S = a.matrix + b.matrix has 1 +- cos theta
    (Halmos's two-subspace theorem).  An eigenvector of S with eigenvalue mu
    is selected when 1 - (mu - 1)^2 <= tol, the same |lambda - 1| <= tol
    for lambda = cos^2 theta, and a value in (tol, 10 tol] raises
    NumericalRankError.  eigh computes only mu >= 1 + sqrt(1 - 10 tol), less
    a margin for round-off, the only values that are selected or guarded.
    a.matrix enforces the superoperator budget before anything is allocated.
    """
    lowest = 1.0 + np.sqrt(max(0.0, 1.0 - 10 * tol)) - 1e-12
    # Fortran order lets LAPACK overwrite S in place instead of copying it.
    s = np.add(a.matrix, b.matrix, order="F")
    mu, vectors = eigh(s, subset_by_value=(lowest, np.inf), overwrite_a=True)
    defect = 1.0 - (mu - 1.0) ** 2
    ambiguous = defect[(defect > tol) & (defect <= 10 * tol)]
    if ambiguous.size:
        raise NumericalRankError(
            f"eigenvalue at distance {ambiguous.min():.3e} from 1 is inside the guard band {10 * tol:.3e}")
    return SubalgebraProjector(operand_dim=a.operand_dim, basis=vectors[:, defect <= tol])


@dataclass
class LocalOperatorReport:
    which: str
    factor: np.ndarray
    tps_invariant: bool
    unitary_invariant_all_orientations: bool
    witness: BilocalUnitary | None
    in_diagonal_translation_range: bool


def classify_local_operator(setup, op, which, g_i, g_j):
    """Classify a factor-local operator's behavior under the perspective change.

    which is "s_local" or "frame_local"; op lives on the full perspective
    space and must be identity on the other factor.
    """
    op = np.asarray(op, dtype=complex)
    d_f, d_s = setup.d_frame, setup.d_s
    scale = hs_norm(op)
    if which == "s_local":
        factor = partial_trace(op, (d_f, d_s), drop=0) / d_f
        if hs_norm(op - kron(np.eye(d_f), factor)) > LOCALITY_TOL * scale:
            raise LocalityViolationError("operator is not identity on the frame factor")
        translation_invariant = all(
            hs_norm(factor @ setup.u_s(g) - setup.u_s(g) @ factor) <= LOCALITY_TOL * scale
            for g in setup.group.elements)
        witness = BilocalUnitary(y=np.eye(d_f), z=np.eye(d_s)) if translation_invariant else None
        return LocalOperatorReport(which=which, factor=factor, tps_invariant=translation_invariant,
                                   unitary_invariant_all_orientations=translation_invariant,
                                   witness=witness, in_diagonal_translation_range=translation_invariant)
    if which == "frame_local":
        factor = partial_trace(op, (d_f, d_s), drop=1) / d_s
        if hs_norm(op - kron(factor, np.eye(d_s))) > LOCALITY_TOL * scale:
            raise LocalityViolationError("operator is not identity on the system factor")
        diagonal = hs_norm(factor - np.diag(np.diag(factor))) <= LOCALITY_TOL * scale
        witness = BilocalUnitary(y=parity_swap(setup, g_i, g_j), z=np.eye(d_s)) if diagonal else None
        return LocalOperatorReport(which=which, factor=factor, tps_invariant=diagonal,
                                   unitary_invariant_all_orientations=False,
                                   witness=witness, in_diagonal_translation_range=diagonal)
    raise ValueError('which must be "s_local" or "frame_local"')


def pure_state_bilocal_witness(setup, psi, g_i, g_j, tol=MEMBERSHIP_TOL):
    """Product unitary relating a pure state to its perspective-changed image.

    Returns None when the two states have different Schmidt spectra across
    the (frame, system) split, in which case no such unitary exists.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("state vector must be normalized")
    phi = setup.perspective_change(g_i, g_j).matrix @ psi
    d_f, d_s = setup.d_frame, setup.d_s
    m_psi = psi.reshape(d_f, d_s)
    m_phi = phi.reshape(d_f, d_s)
    a, lam_psi, bh = np.linalg.svd(m_psi)
    c, lam_phi, dh = np.linalg.svd(m_phi)
    if np.abs(lam_psi - lam_phi).max() > tol:
        return None
    b, d = dagger(bh), dagger(dh)
    a, b, c, d = (np.array(m, dtype=complex) for m in (a, b, c, d))
    k = lam_psi.size
    for blk in degenerate_blocks(lam_psi, DEGENERACY_GAP):
        w = polar_unitary(dagger(c[:, blk]) @ a[:, blk] + dagger(d[:, blk]) @ b[:, blk])
        c[:, blk] = c[:, blk] @ w
        d[:, blk] = d[:, blk] @ w
    if d_f > k:
        w = polar_unitary(dagger(c[:, k:]) @ a[:, k:])
        c[:, k:] = c[:, k:] @ w
    if d_s > k:
        w = polar_unitary(dagger(d[:, k:]) @ b[:, k:])
        d[:, k:] = d[:, k:] @ w
    y = c @ dagger(a)
    z = d.conj() @ b.T
    witness = BilocalUnitary(y=y, z=z)
    check = membership_test(setup, np.outer(psi, psi.conj()), witness, g_i, g_j, tol=tol)
    if not check.is_member:
        return None
    return witness
