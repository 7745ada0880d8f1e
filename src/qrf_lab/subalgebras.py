"""Operator subalgebras singled out by a change of tensor product structure.

An operator f on a perspective space belongs to the subalgebra labeled by
a unitary X when conjugation by the perspective-change unitary u agrees with
conjugation by X, that is when f commutes with W = X'u.  Tests, projectors
(the pinching over W's eigenspaces), transport between orientations, and
witness construction for pure states live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .frames import parity_swap
from .operators import (
    StructuredUnitary,
    align_clusters,
    assert_unitary,
    check_guard_band,
    clusters,
    dagger,
    hs_norm,
    kron,
    monomial_gather,
    partial_trace,
    read_only,
    twirl,
)
from .states import NORMALIZATION_TOL

MEMBERSHIP_TOL = 1e-9
LOCALITY_TOL = 1e-10
# intersect_projectors holds S in its real form and the eigenvector array of its
# size that eigh's value range allocates, 16 d_p^4 bytes at peak (2.16 and 2.05
# real copies of S under tracemalloc at d_p = 16 and 27).  The budget refuses
# d_p >= 64, and from d_p = 58 on when a label nears all of M_d.
SUPEROPERATOR_BUDGET_BYTES = 256 * 2 ** 20


class LocalityViolationError(ValueError):
    """Operator is not local on the declared factor."""


@dataclass(frozen=True, eq=False)
class BilocalUnitary(StructuredUnitary):
    """Product unitary y (x) z across the (frame, system) split.

    The factors are read-only complex copies, and the gather is built once,
    on first use, from y's monomial structure and z, with no kron(y, z);
    so is the adjoint, the BilocalUnitary(y', z').  conjugate takes one
    matrix or a stack as one gather when y and z are monomial, else y and z
    act on the (d_f, d_s) reshape (d_p^2 (d_f + d_s) operations per matrix,
    not d_p^3).
    """

    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name, what in (("y", "frame factor"), ("z", "system factor")):
            factor = assert_unitary(np.array(getattr(self, name), dtype=complex), what=what)
            object.__setattr__(self, name, read_only(factor))

    @cached_property
    def adjoint(self):
        return BilocalUnitary(dagger(self.y), dagger(self.z))

    @cached_property
    def _gather(self):
        # A monomial y puts y[a, perm[a]] z at block (a, perm[a]) of kron(y, z).
        nonzero = self.y != 0
        if not ((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()):
            return None, None
        perm = nonzero.argmax(axis=1)
        return monomial_gather(perm, self.y[np.arange(perm.size), perm][:, None, None] * self.z)

    def left(self, ops):
        d_f, d_s, n = self.y.shape[0], self.z.shape[0], ops.shape[-1]
        rows = self.y @ ops.reshape(ops.shape[:-2] + (d_f, d_s * n))
        return (self.z @ rows.reshape(ops.shape[:-2] + (d_f, d_s, n))).reshape(ops.shape)


def pi_t(setup, op):
    """Project onto the commutant of the system translations: average U_S(g) op U_S(g)' over
    the group on the system factor of op, a d_s x d_s or a d_p x d_p operator."""
    op = np.asarray(op, dtype=complex)
    if op.shape not in ((setup.d_s, setup.d_s), (setup.d_perspective, setup.d_perspective)):
        raise ValueError(f"pi_t takes a d_s x d_s or a d_p x d_p operator, not {op.shape}")
    n = op.shape[0] // setup.d_s  # 1 for a system operator, d_f for a perspective operator
    blocks = op.reshape(n, setup.d_s, n, setup.d_s).transpose(0, 2, 1, 3)
    return twirl(setup.translations, blocks).transpose(0, 2, 1, 3).reshape(op.shape)


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
    return MembershipResult(is_member=residual <= threshold, residual=residual, tolerance=threshold)


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


def _check_superoperator_budget(d, top):
    """Refuse, before allocating, an intersection whose real form would pass the budget: in doubles,
    S, its n x n eigenvectors and under 64 n of work (n = d^2), or later top kept eigenvectors and K, at
    most as many complex entries."""
    n = d * d
    estimate = np.dtype(float).itemsize * max(2 * n * n + 64 * n, 3 * n * top)
    if estimate > SUPEROPERATOR_BUDGET_BYTES:
        raise ValueError(f"the superoperator path at d_p = {d} needs an estimated {estimate} bytes "
                         f"at peak, above the {SUPEROPERATOR_BUDGET_BYTES}-byte budget")


@lru_cache(maxsize=None)
def _hermitian_coordinates(d):
    """g, read-only: 1/sqrt 2 above the diagonal, -i/sqrt 2 below it and (1 - i)/2 on it.

    B_kl = Herm(2 conj(g[k, l]) E_kl) is E_kk, (E_kl + E_lk)/sqrt 2 for k < l and i (E_kl - E_lk)/sqrt 2
    for k > l, an orthonormal basis of the Hermitian d x d operators.  h has the coordinates Re(2 g h),
    entrywise, and the coordinates r are the h = conj(g)(r - i r^T).
    """
    g = np.where(np.triu(np.ones((d, d), dtype=bool), 1), 1.0, -1j) / np.sqrt(2)
    np.fill_diagonal(g, (1 - 1j) / 2)
    return read_only(g)


def _hermitian_superoperator(labels, d):
    """S = sum_C P_C . P_C over every label's clusters, on the Hermitian operators in the basis B_kl.

    S is real symmetric there, a d^2 x d^2 Fortran-order float array indexed by (k, l) in C order,
    written for one k at a time from N_kl[a, b] = sum_C P_C[a, k] P_C[l, b], one GEMM for all l.
    Only the triangle that eigh reads, the array's lower one, is set: the coordinates (a, b) >= (k, l)
    of each S(B_kl), which its rows a >= k hold.
    """
    g = _hermitian_coordinates(d)
    # P_C = Q diag(row) Q', with one mask row per cluster: the row of its first eigenvalue.
    p = np.concatenate([(q * mask[np.unique(mask.argmax(axis=1))][:, None, :]) @ dagger(q)
                        for q, mask in ((label.schur_vectors, label.mask) for label in labels)])
    flat = p.reshape(len(p), d * d)
    out = np.empty((d, d, d, d))
    for k in range(d):
        y = (p[:, :, k].T @ flat).reshape(d, d, d) * (2 * g[k].conj())[:, None]  # y[a, l, b]
        # S(B_kl) = Herm(y[:, l]): its coordinates Re(g (y + y')) are row (k, l) of the symmetric S.
        out[k, :, k:] = (g[k:, None, :] * (y[k:] + y[:, :, k:].conj().transpose(2, 1, 0))).real.transpose(1, 0, 2)
    return out.reshape(d * d, d * d).T


@dataclass(frozen=True, eq=False)
class SubalgebraProjector:
    """Orthogonal projector onto a subalgebra, read in a label's coordinates F = Q'fQ.

    For a label, the commutant of W = Q T Q', mask[a, b] marks pairs of W's eigenvalues in one cluster,
    apply is the pinching Q (mask * F) Q', O(d_p^3), and the dimension is sum m_k^2.  An intersection keeps
    the Q and mask of its label of smaller dimension, and a kernel K with one column F[mask] for each
    Hermitian h = conj(g)(r - i r^T) that spans it (intersect_projectors): apply is Q (K K' F[mask]) Q', and
    the dimension is K's column count.  On an inexact intersection K drops h's part outside the label, of
    order sqrt(tol).
    """

    schur_vectors: np.ndarray
    mask: np.ndarray
    kernel: np.ndarray | None = None

    @property
    def dimension(self):
        return int(self.mask.sum()) if self.kernel is None else self.kernel.shape[1]

    def apply(self, op):
        f = dagger(self.schur_vectors) @ np.asarray(op, dtype=complex) @ self.schur_vectors
        if self.kernel is not None:
            f[..., self.mask] = f[..., self.mask] @ self.kernel.conj() @ self.kernel.T
        return self.schur_vectors @ (self.mask * f) @ dagger(self.schur_vectors)

    def contains(self, op):
        """Whether ||apply(op) - op|| <= MEMBERSHIP_TOL ||op||; scale-free, and 0 is a member."""
        return hs_norm(self.apply(op) - op) <= MEMBERSHIP_TOL * hs_norm(op)


def invariant_projector(setup, x, g_i, g_j, tol=MEMBERSHIP_TOL):
    """Projector onto the subalgebra labeled by x at the given orientations: the commutant of W = x'u.

    operators.clusters groups W's eigenvalues at tol, the selection
    |conj(mu_a) mu_b - 1| <= tol on conj(W) (x) W, mu being on the unit circle.
    """
    from scipy.linalg import schur  # here and in intersect_projectors only, so qrf_lab imports without scipy
    # W = (u'X)', with +0.0 for the -0.0 that the product can write.
    w = assert_unitary(dagger(setup.perspective_change(g_i, g_j).adjoint.left(kron(x.y, x.z))) + 0.0, what="W = X'u")
    triangular, q = schur(w, output="complex")
    mask = clusters(np.diag(triangular), tol, "the distance between eigenvalues of W")
    return SubalgebraProjector(schur_vectors=q, mask=mask)


def intersect_projectors(a: SubalgebraProjector, b: SubalgebraProjector, tol=MEMBERSHIP_TOL):
    """Projector onto the intersection of two label subalgebras, from one real symmetric eigenproblem.

    Where P_A P_B has the eigenvalues cos^2 theta of the principal angles between the two subalgebras,
    S = P_A + P_B has 1 +- cos theta (Halmos's two-subspace theorem).  S is a sum of pinchings f -> P_C f P_C
    with Hermitian P_C, so on the Hermitian operators it is a real symmetric d_p^2 x d_p^2 matrix with the
    same spectrum, and both subalgebras being closed under f -> f', its Hermitian eigenvectors span the
    intersection.  An eigenvalue mu is selected when 1 - (mu - 1)^2 <= tol, the same |lambda - 1| <= tol for
    lambda = cos^2 theta, and a value in (tol, 10 tol] raises NumericalRankError.  eigh computes only the mu
    above 1 + sqrt(1 - 10 tol), less a margin for round-off (for tol < 0.1), and selects them by value: an
    index range on an exactly degenerate spectrum can come back short.  Each kept eigenvector r is the
    Hermitian h = conj(g)(r - i r^T), g from _hermitian_coordinates, and K holds F = Q'hQ on the mask of
    the label of smaller dimension.  For a kept defect sin^2 theta in (0, tol], h is off that label by
    sin(theta / 2), of order sqrt(tol), and that part is all that K drops.  eigh overwrites S, which is
    freed before K is formed; the peak, which the budget checks before allocating, is S and the
    d_p^2 x d_p^2 eigenvectors that a value range allocates, one complex S in bytes.
    """
    from scipy.linalg import eigh
    if a.kernel is not None or b.kernel is not None:
        raise ValueError("intersect_projectors takes two label projectors, as invariant_projector returns")
    if a.mask.shape != b.mask.shape:
        raise ValueError(f"intersect_projectors takes labels of one size, not d_p = {len(a.mask)} and {len(b.mask)}")
    small, d = min(a, b, key=lambda label: label.dimension), len(a.mask)
    _check_superoperator_budget(d, small.dimension)
    lowest = 1.0 + np.sqrt(max(0.0, 1.0 - 10 * tol)) - 1e-12
    mu, vectors = eigh(_hermitian_superoperator([a, b], d), subset_by_value=(lowest, np.inf), overwrite_a=True,
                       check_finite=False)  # S is finite, and set only on the triangle that eigh reads
    defect = 1.0 - (mu - 1.0) ** 2
    check_guard_band(defect, tol, "the distance of an eigenvalue of P_A P_B from 1")
    kept = vectors[:, defect <= tol]
    del vectors
    q, g = small.schur_vectors, _hermitian_coordinates(d).conj()
    kernel = np.empty((kept.shape[1], small.dimension), dtype=complex)
    for j in range(0, len(kernel), d):  # d Hermitians h at a time, so K is the one large new array
        r = kept[:, j:j + d].T.reshape(-1, d, d)
        kernel[j:j + d] = (dagger(q) @ (g * (r - 1j * r.swapaxes(1, 2))) @ q)[:, small.mask]
    return SubalgebraProjector(schur_vectors=q, mask=small.mask, kernel=kernel.T)


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
    space and must be identity on the other factor.  tps_invariant says whether u op u' passes the locality
    test op passed; a frame-local op is tested on u op u' itself, as a hop whose U_S(a^-1 b) is a scalar stays
    local.  in_diagonal_translation_range and witness keep the diagonal criterion and its parity witness.
    """
    op = np.asarray(op, dtype=complex)
    d_f, d_s = setup.d_frame, setup.d_s
    scale = hs_norm(op)
    if which == "s_local":
        factor = partial_trace(op, (d_f, d_s), drop=0) / d_f
        if hs_norm(op - kron(np.eye(d_f), factor)) > LOCALITY_TOL * scale:
            raise LocalityViolationError("operator is not identity on the frame factor")
        translation_invariant = bool(setup.translation_sectors(factor, LOCALITY_TOL * scale)[0].all())
        witness = BilocalUnitary(y=np.eye(d_f), z=np.eye(d_s)) if translation_invariant else None
        return LocalOperatorReport(which=which, factor=factor, tps_invariant=translation_invariant,
                                   unitary_invariant_all_orientations=translation_invariant,
                                   witness=witness, in_diagonal_translation_range=translation_invariant)
    if which == "frame_local":
        ops = np.stack([op, setup.perspective_change(g_i, g_j).conjugate(op)])  # op and u op u', one test
        factors = partial_trace(ops, (d_f, d_s), drop=1) / d_s
        local, tps_invariant = hs_norm(ops - kron(factors, np.eye(d_s))) <= LOCALITY_TOL * scale
        if not local:
            raise LocalityViolationError("operator is not identity on the system factor")
        factor = factors[0]
        diagonal = hs_norm(factor - np.diag(np.diag(factor))) <= LOCALITY_TOL * scale
        witness = BilocalUnitary(y=parity_swap(setup, g_i, g_j), z=np.eye(d_s)) if diagonal else None
        return LocalOperatorReport(which=which, factor=factor, tps_invariant=bool(tps_invariant),
                                   unitary_invariant_all_orientations=False,
                                   witness=witness, in_diagonal_translation_range=diagonal)
    raise ValueError('which must be "s_local" or "frame_local"')


def pure_state_bilocal_witness(setup, psi, g_i, g_j, tol=MEMBERSHIP_TOL):
    """Product unitary relating a pure state to its perspective-changed image.

    Returns None when the two states have different Schmidt spectra across
    the (frame, system) split, in which case no such unitary exists.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    if not abs(np.vdot(psi, psi).real - 1.0) <= NORMALIZATION_TOL:  # Tr(psi psi') as checked_state reads it
        raise ValueError("state vector must be normalized")
    d_f, d_s = setup.d_frame, setup.d_s
    m_psi = psi.reshape(d_f, d_s)
    m_phi = setup.perspective_change(g_i, g_j).left(psi[:, None]).reshape(d_f, d_s)  # u psi
    a, lam_psi, bh = np.linalg.svd(m_psi)
    c, lam_phi, dh = np.linalg.svd(m_phi)
    if np.abs(lam_psi - lam_phi).max() > tol:
        return None
    b, d = dagger(bh), dagger(dh)
    a, b, c, d = (np.array(m, dtype=complex) for m in (a, b, c, d))
    k = lam_psi.size
    align_clusters([(c, a), (d, b)], lam_psi, "the distance between Schmidt coefficients")
    for target, source, size in ((c, a, d_f), (d, b, d_s)):
        if size > k:  # the columns past the k Schmidt vectors, on the larger factor, make one cluster
            align_clusters([(target[:, k:], source[:, k:])])
    y = c @ dagger(a)
    z = d.conj() @ b.T
    witness = BilocalUnitary(y=y, z=z)
    check = membership_test(setup, np.outer(psi, psi.conj()), witness, g_i, g_j, tol=tol)
    if not check.is_member:
        return None
    return witness
