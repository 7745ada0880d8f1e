"""Dense complex operator utilities on tensor-factor spaces.

Conventions used throughout the package:

* vectorization is column-major (Fortran order), so the superoperator of
  the conjugation f -> W f W' is kron(conj(W), W);
* Hermiticity is checked as max|A - A'| <= 1e-10 max|A|, relative to the
  largest entry, so rescaling A does not change the verdict;
* eigenvalues below -1e-8 on nominally positive operators are treated as
  a real indefiniteness, smaller negatives as round-off;
* dagger, kron, partial_trace and hs_norm also take stacks (..., d, d) of
  operators, one per time point, and act on each matrix of the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import polar, schur

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
INDEFINITENESS_TOL = -1e-8
EIGENVALUE_CLAMP = 1e-12


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


def assert_hermitian(mat, tol=HERMITICITY_TOL, what="operator"):
    """Return mat if max|A - A'| <= tol max|A|, else raise ValueError."""
    mat = np.asarray(mat)
    defect = np.abs(mat - dagger(mat)).max()
    scale = np.abs(mat).max()
    if defect > tol * scale:
        raise ValueError(f"{what} is not Hermitian: max|A - A'| = {defect:.3e}, max|A| = {scale:.3e}")
    return mat


def hermitian_part(mat):
    return (mat + dagger(mat)) / 2


def assert_unitary(mat, tol=UNITARITY_TOL, what="operator"):
    mat = np.asarray(mat)
    defect = np.abs(mat @ dagger(mat) - np.eye(mat.shape[0])).max()
    if defect > tol:
        raise ValueError(f"{what} is not unitary: max|U U' - 1| = {defect:.3e}")
    return mat


def embed_operator(ops, dims):
    """Embed single-factor operators into the full tensor space.

    ops maps factor position -> square matrix; absent factors get the
    identity.  Factor order in the product follows dims.
    """
    parts = []
    for site, d in enumerate(dims):
        if site in ops:
            op = np.asarray(ops[site])
            if op.shape != (d, d):
                raise ValueError(f"operator at factor {site} has shape {op.shape}, expected ({d}, {d})")
            parts.append(op)
        else:
            parts.append(np.eye(d))
    return kron(*parts)


def partial_trace(mat, dims, drop):
    """Trace out the factors listed in drop (positions into dims)."""
    dims = tuple(int(d) for d in dims)
    drop = (drop,) if np.isscalar(drop) else tuple(drop)
    if any(not 0 <= k < len(dims) for k in drop):
        raise ValueError(f"factor index out of range: {drop}")
    mat = np.asarray(mat)
    lead = mat.shape[:-2]
    n = len(dims)
    tensor = mat.reshape(lead + dims + dims)
    for k in sorted(drop, reverse=True):
        tensor = np.trace(tensor, axis1=len(lead) + k, axis2=len(lead) + k + n)
        n -= 1
    size = math.prod(d for k, d in enumerate(dims) if k not in drop)
    return tensor.reshape(lead + (size, size))


def product_partial_traces(h, rho, dims):
    """(Tr_s(h rho), Tr_frame(h rho)) for one rho or a stack (..., d, d), without forming h rho.

    Each is one matmul: h's (d_f, d_s, d_f, d_s) factor tensor, reshaped so
    the traced factor joins the contracted index, against the states laid
    side by side.  That is d^2 d_f and d^2 d_s operations per state, where
    h rho takes d^3, in two BLAS calls for the whole stack.
    """
    d_f, d_s = dims
    d = d_f * d_s
    rho = np.asarray(rho, dtype=complex)
    lead = rho.shape[:-2]
    h = np.asarray(h, dtype=complex)
    # cols[n, c, g, s] = rho_n[c, (g, s)].
    cols = rho.reshape(-1, d, d_f, d_s)
    n = cols.shape[0]
    # Tr_s(h rho_n)[f, g] = sum over (s, c) of h[(f, s), c] rho_n[c, (g, s)].
    on_frame = h.reshape(d_f, d_s * d) @ cols.transpose(3, 1, 0, 2).reshape(d_s * d, n * d_f)
    # Tr_frame(h rho_n)[s, t] = sum over (f, c) of h[(f, s), c] rho_n[c, (f, t)].
    on_s = (h.reshape(d_f, d_s, d).transpose(1, 0, 2).reshape(d_s, d_f * d)
            @ cols.transpose(2, 1, 0, 3).reshape(d_f * d, n * d_s))
    return (on_frame.reshape(d_f, n, d_f).transpose(1, 0, 2).reshape(lead + (d_f, d_f)),
            on_s.reshape(d_s, n, d_s).transpose(1, 0, 2).reshape(lead + (d_s, d_s)))


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

    Subclasses define _left(ops) = w @ ops for stacks and _gather, the
    monomial_gather of w.
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
            return dagger(self._left(dagger(self._left(ops))))
        out = np.take(ops.reshape(ops.shape[:-2] + (-1,)), flat, axis=-1).reshape(ops.shape)
        if phases is not None:
            out = phases[:, None] * out * phases.conj()
        return out + 0.0


def twirl(unitaries, op):
    """Average of u op u' over the given unitaries."""
    op = np.asarray(op, dtype=complex)
    return sum(u @ op @ dagger(u) for u in unitaries) / len(unitaries)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr(a' b)."""
    return complex(np.trace(dagger(a) @ np.asarray(b)))


def hs_norm(a):
    """Hilbert-Schmidt norm; a stack (k, m, n) gives one norm per matrix."""
    a = np.asarray(a)
    if a.ndim > 2:
        return np.linalg.norm(a, axis=(-2, -1))
    return float(np.linalg.norm(a))


def vec(mat):
    """Column-major vectorization."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v, d=None):
    v = np.asarray(v)
    if d is None:
        d = round(np.sqrt(v.size))
    return v.reshape((d, d), order="F")


def conjugation_superop(w, check=True):
    """Superoperator of f -> w f w' acting on column-major vec(f)."""
    w = np.asarray(w, dtype=complex)
    if check:
        assert_unitary(w)
    return np.kron(w.conj(), w)


def _spectral(mat):
    mat = assert_hermitian(np.asarray(mat, dtype=complex))
    return np.linalg.eigh(mat)


def matrix_function(mat, fn, clamp=False):
    """Apply fn to the eigenvalues of a Hermitian matrix.

    With clamp=True, eigenvalues in [-1e-8, 1e-12] are set to zero before
    fn is applied; an eigenvalue below -1e-8 raises IndefiniteOperatorError.
    """
    vals, vecs = _spectral(mat)
    if clamp:
        if vals.min() < INDEFINITENESS_TOL:
            raise IndefiniteOperatorError(f"eigenvalue {vals.min():.3e} below {INDEFINITENESS_TOL:.0e}")
        vals = np.where(vals < EIGENVALUE_CLAMP, 0.0, vals)
    return (vecs * fn(vals)) @ dagger(vecs)


def matrix_exp_scaled(mat, c):
    """exp(c * mat) for Hermitian mat; c = -i t gives unitary evolution."""
    vals, vecs = _spectral(mat)
    return (vecs * np.exp(c * vals)) @ dagger(vecs)


def matrix_log(mat):
    """Logarithm on the support of a positive semidefinite matrix."""
    def safe_log(vals):
        out = np.full_like(vals, 0.0)
        pos = vals > 0
        out[pos] = np.log(vals[pos])
        return out
    return matrix_function(mat, safe_log, clamp=True)


def matrix_power(mat, alpha):
    """Power of a positive semidefinite matrix."""
    return matrix_function(mat, lambda v: np.where(v > 0, v, 0.0) ** alpha, clamp=True)


@dataclass
class FixedSpace:
    """Eigenvalue-1 subspace of a matrix: orthogonal projector and basis."""

    projector: np.ndarray
    basis: np.ndarray

    @property
    def dimension(self):
        return self.basis.shape[1]


def fixed_space_projector(superop, tol=1e-9, guard=10.0):
    """Orthogonal projector onto the eigenvalue-1 subspace of superop.

    Uses an ordered Schur decomposition so the leading Schur vectors span
    the selected invariant subspace.  Eigenvalues in the annulus
    (tol, guard*tol] around 1 mean the rank is numerically ambiguous and
    raise NumericalRankError with the observed gap.
    """
    superop = np.asarray(superop, dtype=complex)

    def near_one(lam):
        return abs(lam - 1.0) <= tol

    triangular, q, sdim = schur(superop, output="complex", sort=near_one)
    eigs = np.diag(triangular)
    rejected = eigs[sdim:]
    if rejected.size:
        gap = float(np.abs(rejected - 1.0).min())
        if gap <= guard * tol:
            raise NumericalRankError(
                f"eigenvalue at distance {gap:.3e} from 1 is inside the guard band {guard * tol:.3e}")
    basis = q[:, :sdim]
    return FixedSpace(projector=basis @ dagger(basis), basis=basis)


def polar_unitary(mat):
    """Unitary factor of the polar decomposition."""
    u, _ = polar(np.asarray(mat, dtype=complex))
    return u


def degenerate_blocks(values, gap):
    """Group indices of a descending value list into blocks split by gaps."""
    blocks = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k - 1] - values[k] > gap:
            blocks.append(slice(start, k))
            start = k
    return blocks


def eigenspace_projectors(h, gap):
    """Stack (m, d, d) of projectors onto the eigenspaces of a Hermitian h.

    Eigenvalues are taken in descending order and grouped by degenerate_blocks.
    """
    vals, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    return np.array([vecs[:, blk] @ dagger(vecs[:, blk]) for blk in degenerate_blocks(vals, gap)])


def random_hermitian(rng, d, scale=1.0):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (g + dagger(g)) / 2


def haar_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULI = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
