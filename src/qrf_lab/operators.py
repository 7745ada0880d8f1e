"""Dense complex operator utilities on tensor-factor spaces.

Conventions used throughout the package:

* Hermiticity is checked as max|A - A'| <= 1e-10 max|A|, relative to the
  largest entry, so rescaling A does not change the verdict;
* each check passes on defect <= tol, which no NaN meets: a NaN fails every check;
* eigenvalues below INDEFINITENESS_TOL = -1e-8 on nominally positive
  operators are treated as a real indefiniteness, smaller negatives as
  round-off;
* no matrix functions live here: the entropies read their own spectra,
  and exp(-i H t) comes from GridEvolution's eigendecomposition;
* dagger, kron, partial_trace, product_partial_traces, trace_product,
  hs_inner, hs_norm, eigenspaces and pinch also take stacks (..., d, d),
  one operator per time point or perspective; a matrix is a stack of one,
  so a reduction's bits depend neither on the stacking nor on the layout;
* partial_trace traces factor 0 or 1 out of the one bipartition, (d_f, d_s);
* product_partial_traces reads states in place and needs them Hermitian,
  as density matrices are;
* one rule, clusters, groups every spectrum: values at most gap apart share
  a cluster, and a distance in (gap, 10 gap] raises NumericalRankError.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
INDEFINITENESS_TOL = -1e-8
# The witnesses' gap: fixed, as their spectra are a unit vector's Schmidt coefficients or a unit-trace state's.
DEGENERACY_GAP = 1e-8


class IndefiniteOperatorError(ValueError):
    """Nominally positive operator has an eigenvalue below -1e-8."""


class NumericalRankError(ValueError):
    """Eigenvalue clustering too close to the selection tolerance."""


def dagger(mat):
    mat = np.asarray(mat).conj()
    return mat.T if mat.ndim < 3 else mat.swapaxes(-1, -2)


def _kron2(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        return np.kron(a, b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def kron(*mats):
    """Kronecker product of the given matrices, left to right.

    Stacks (..., m, n) pair up matrix by matrix along their leading axes.
    Each entry is the one product np.kron forms, without its overhead.
    """
    return reduce(_kron2, mats)


def assert_hermitian(mat, what="operator"):
    """Return mat if max|A - A'| <= HERMITICITY_TOL max|A|, for each matrix of a stack, else raise ValueError
    naming the first matrix that fails; one vectorized pass over the stack."""
    mat = np.asarray(mat)
    defect, scale = np.abs(mat - dagger(mat)).max(axis=(-2, -1)), np.abs(mat).max(axis=(-2, -1))
    if (failed := ~(defect <= HERMITICITY_TOL * scale)).any():
        first = failed.argmax()
        raise ValueError(f"{what} is not Hermitian: max|A - A'| = {defect.flat[first]:.3e}, "
                         f"max|A| = {scale.flat[first]:.3e}")
    return mat


def hermitian_part(mat):
    return (mat + dagger(mat)) / 2


def assert_unitary(mat, what="operator"):
    mat = np.asarray(mat)
    defect = np.abs(mat @ dagger(mat) - np.eye(mat.shape[0])).max()
    if not defect <= UNITARITY_TOL:
        raise ValueError(f"{what} is not unitary: max|U U' - 1| = {defect:.3e}")
    return mat


def partial_trace(mat, dims, drop):
    """Trace factor drop (0 or 1) out of the bipartition dims = (d_0, d_1), as one einsum."""
    if drop not in (0, 1):
        raise ValueError(f"factor index out of range: {drop}")
    mat = np.asarray(mat)
    return np.einsum(("...abaB->...bB", "...abAb->...aA")[drop], mat.reshape((*mat.shape[:-2], *dims, *dims)))


def product_trace_maps(h, dims):
    """The two reorderings of h (d x d on d_f x d_s factors, or a stack) that product_partial_traces reads.

    The frame map has rows (s, c) and columns f and holds conj(h[(f, s), c]);
    the system map has rows s and columns (c, f) and holds h[(f, s), c].
    """
    d_f, d_s = dims
    d = d_f * d_s
    h = np.asarray(h, dtype=complex)
    lead = h.shape[:-2]
    return (np.ascontiguousarray(h.reshape(lead + (d_f, d_s * d)).conj().swapaxes(-1, -2)),
            h.reshape(-1, d_f, d_s, d).transpose(0, 2, 3, 1).reshape(lead + (d_s, d * d_f)))


def product_partial_traces(maps, rho):
    """(Tr_s(h rho), Tr_frame(h rho)) for a Hermitian rho or a stack (..., d, d) of them.

    maps is product_trace_maps(h, dims).  Each partial trace is one batched
    matmul that reads the stack in place, d^2 d_f and d^2 d_s operations per
    state where h rho takes d^3, and h rho is never formed.  The frame side
    contracts rho's rows (g, s) against h's rows (f, s), which gives
    Tr_s(h rho)' because rho = rho'; a non-Hermitian rho gets a wrong frame
    side.  The system side reads rho's rows as they are and needs no such
    contract.  The maps of a stack of h pair up with rho's leading axes.
    """
    frame_map, s_map = maps
    d_f, d_s = frame_map.shape[-1], s_map.shape[-2]
    d = d_f * d_s
    rho = np.asarray(rho, dtype=complex)
    lead = rho.shape[:-2]
    # Row (n, g) of a map's stack seen as (n d_f, d_s d) holds rho_n[(g, s), c] at column (s, c).
    on_frame_dagger = (rho.reshape(frame_map.shape[:-2] + (-1, d_s * d)) @ frame_map).reshape(lead + (d_f, d_f))
    # rho_n seen as (d d_f, d_s) holds rho_n[c, (f, t)] at row (c, f) and column t.
    return dagger(on_frame_dagger), s_map @ rho.reshape(lead + (d * d_f, d_s))


def stack_times(stack, mat):
    """stack @ mat for a stack (..., m, n), one GEMM over its rows per (n, p) matrix; mat may be a stack too."""
    stack = np.asarray(stack)
    return (stack.reshape(mat.shape[:-2] + (-1, stack.shape[-1])) @ mat).reshape(stack.shape[:-1] + mat.shape[-1:])


def trace_product(a, b):
    """Tr(a b) over the last two axes without forming a b: the C-order product of a and b transposed,
    summed over one flattened axis, so its bits depend on the values alone, not on the layouts."""
    prod = np.multiply(a, np.swapaxes(b, -1, -2), order="C")
    return prod.reshape(prod.shape[:-2] + (-1,)).sum(axis=-1)


def read_only(mat):
    mat.flags.writeable = False
    return mat


def monomial_gather(perm, blocks):
    """(flat, phases) for conjugating by the matrix m with block blocks[a] at (a, perm[a]).

    Entry (r, c) of m f m' is phases[r] f.flat[flat[r * d + c]] phases[c]*,
    and phases is None when m is a permutation.  Both are None when m is
    not monomial, i.e. has a row or column with other than one nonzero.
    """
    n, d = blocks.shape[:2]
    # n d nonzeros that reach every row and every block column: one in each.
    if np.count_nonzero(blocks) != n * d or not (blocks.any(axis=1).all() and blocks.any(axis=2).all()):
        return None, None
    idx = np.flatnonzero(blocks)
    phases = blocks.reshape(-1)[idx]
    cols = np.asarray(perm).repeat(d) * d + idx % d
    return (cols[:, None] * cols.size + cols).ravel(), None if (phases == 1).all() else phases


class StructuredUnitary:
    """A unitary w applied through its structure instead of its dense matrix.

    Subclasses define left(ops) = w @ ops for stacks of any width, adjoint,
    w' in the same structure, and _gather, the monomial_gather of w.
    """

    def conjugate(self, ops):
        """w ops w' for one operator or a stack (..., d, d); a monomial w is one gather.

        Row phases go on before column phases, the order of w @ ops @ w', and
        adding 0.0 turns a -0.0 the gather keeps into the +0.0 the products
        write: for a permutation the result equals theirs bit for bit.
        """
        ops = np.asarray(ops, dtype=complex)
        flat, phases = self._gather
        if flat is None:
            return dagger(self.left(dagger(self.left(ops))))
        out = np.take(ops.reshape(ops.shape[:-2] + (-1,)), flat, axis=-1).reshape(ops.shape)
        if phases is not None:
            out = phases[:, None] * out * phases.conj()
        return out + 0.0


def twirl(unitaries, op):
    """Average of u op u' over the given unitaries."""
    op = np.asarray(op, dtype=complex)
    return sum(u @ op @ dagger(u) for u in unitaries) / len(unitaries)


def unstacked(value, kind=float):
    """A per-matrix result as a Python kind for one matrix, as it is for a stack."""
    return kind(value) if np.ndim(value) == 0 else value


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(a' b), a trace_product; a stack gives one per matrix."""
    return unstacked(np.asarray(trace_product(dagger(a), b), dtype=complex), complex)


def hs_norm(a):
    """Hilbert-Schmidt norm; a stack (..., m, n) gives one norm per matrix.

    Each norm is one real dot of the entries (real and imaginary parts side
    by side) in C order, for a matrix alone as in a stack.
    """
    a = np.asarray(a)
    rows = np.ascontiguousarray(a).reshape(-1, 1, a.shape[-2] * a.shape[-1])
    rows = rows.view(rows.real.dtype) if rows.dtype.kind == "c" else rows.astype(float, copy=False)
    return unstacked(np.sqrt(rows @ rows.swapaxes(-1, -2)).reshape(a.shape[:-2]))


def check_guard_band(distances, gap, what):
    """Raise NumericalRankError, naming what, for a distance in (gap, 10 gap], too near gap to select by."""
    gap = np.broadcast_to(gap, np.shape(distances))
    inside = (distances > gap) & (distances <= 10 * gap)
    if inside.any():
        distance, gap = min(zip(distances[inside], gap[inside]))
        raise NumericalRankError(f"{what} {distance:.3e} is inside the guard band ({gap:.3e}, {10 * gap:.3e}]")


def clusters(values, gap, what):
    """same[..., a, b] = |v_a - v_b| <= gap over the last axis of values, real or complex, with one gap
    per member of a stack.  Every pairwise distance goes to check_guard_band, naming what, so same is an
    equivalence relation: a ~ b ~ c puts |v_a - v_c| at most 2 gap, within gap or inside the band."""
    values = np.asarray(values)
    distances = np.abs(values[..., :, None] - values[..., None, :])
    gap = np.asarray(gap)[..., None, None]
    check_guard_band(distances, gap, what)
    return distances <= gap


def align_clusters(pairs, values=None, what=None):
    """Rotate each target's columns onto its source's in place, for pairs of (target, source) matrices: in
    each cluster of the sorted values at DEGENERACY_GAP, naming what, or in all columns for values None,
    by U V' from the SVD U s V' of the sum of target' source over the pairs, in their order."""
    blocks = [slice(None)]
    if values is not None:
        same = clusters(values, DEGENERACY_GAP, what)
        starts = np.flatnonzero(same.argmax(axis=1) == np.arange(len(values)))  # sorted, so a cluster is a slice
        blocks = map(slice, starts, [*starts[1:], len(values)])
    for blk in blocks:
        # reduce, not sum, so the first overlap is not added to 0: 0 + (-0.0) would be +0.0.
        overlap = reduce(np.add, (dagger(target[:, blk]) @ source[:, blk] for target, source in pairs))
        u, _, vh = np.linalg.svd(overlap, full_matrices=False)
        w = u @ vh
        for target, _ in pairs:
            target[:, blk] = target[:, blk] @ w


def eigenspaces(h, gap):
    """(vectors, mask) of a Hermitian h or of each matrix of a stack, for pinch: eigh's eigenvectors, and
    the clusters of its eigenvalues at gap, one gap per member of a stack."""
    vals, vectors = np.linalg.eigh(np.asarray(h, dtype=complex))
    return vectors, clusters(vals, gap, "the distance between eigenvalues")


def pinch(vectors, mask, op):
    """V (mask * V' op V) V' with V = vectors: the part of op, or of each matrix of a stack, that is
    block diagonal on the spaces that mask joins; vectors and mask may be stacks too."""
    return vectors @ (mask * (dagger(vectors) @ np.asarray(op, dtype=complex) @ vectors)) @ dagger(vectors)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULI = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
