"""State constructors, entropies, and state transport between perspectives.

Entropies use the natural logarithm.  Relative entropy returns math.inf
when the support condition fails; the tagged infinity propagates through
downstream balances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    INDEFINITENESS_TOL,
    IndefiniteOperatorError,
    align_clusters,
    assert_hermitian,
    dagger,
    hs_norm,
    kron,
    partial_trace,
    trace_product,
    unstacked,
)

SUPPORT_CUTOFF = 1e-12
SPECTRUM_TOL = 1e-9


def w_state(n):
    """Equal superposition of single-excitation basis states on n qubits."""
    n = int(n)
    if n < 1:
        raise ValueError("w_state needs at least one qubit")
    v = np.zeros(2 ** n, dtype=complex)
    for k in range(n):
        v[1 << (n - 1 - k)] = 1.0 / math.sqrt(n)
    return v


def ghz_state(group, n):
    """Equal superposition of |g>^(x n) over the group elements."""
    n = int(n)
    if n < 2:
        raise ValueError("ghz_state needs at least two factors")
    order = group.order
    v = np.zeros(order ** n, dtype=complex)
    # |g>^(x n) sits at index(g) (1 + order + ... + order^(n - 1)).
    v[np.arange(order) * sum(order ** m for m in range(n))] = 1.0 / math.sqrt(order)
    return v


def gb_state(group, h, k):
    """Two-frame basis state labeled by a relative shift h and a character k."""
    h = group.check_element(h)
    k = group.check_element(k)
    order = group.order
    v = np.zeros(order ** 2, dtype=complex)
    v[np.arange(order) * order + group._translate_indices(h)] += [group.character(k, g) for g in group.elements]
    return v / math.sqrt(order)


def gibbs_state(hamiltonian, beta):
    """exp(-beta H) / Z."""
    hamiltonian = assert_hermitian(np.asarray(hamiltonian, dtype=complex), what="Hamiltonian")
    vals, vecs = np.linalg.eigh(hamiltonian)
    # Shifted so that the largest weight is 1: no exp overflows, at either sign of beta.
    weights = np.exp(-beta * (vals - (vals.min() if beta >= 0 else vals.max())))
    weights /= weights.sum()
    return (vecs * weights) @ dagger(vecs)


def product_state(*vectors):
    return kron(*(np.asarray(v, dtype=complex).ravel() for v in vectors))


def basis_state(dim, index):
    v = np.zeros(int(dim), dtype=complex)
    v[int(index)] = 1.0
    return v


def _checked(vals):
    if vals.min() < INDEFINITENESS_TOL:
        raise IndefiniteOperatorError(f"state has eigenvalue {vals.min():.3e}")
    return vals


def _checked_spectrum(rho):
    return _checked(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)))


def _xlogx_sum(vals):
    """Sum of v ln v over the last axis, skipping v <= SUPPORT_CUTOFF."""
    kept = np.where(vals > SUPPORT_CUTOFF, vals, 1.0)
    return unstacked((kept * np.log(kept)).sum(axis=-1))


def von_neumann_entropy(rho):
    """S(rho) in nats; a stack (k, d, d) gives one entropy per matrix, and a pure state +0.0."""
    return 0.0 - _xlogx_sum(_checked_spectrum(rho))


def renyi_entropy(rho, alpha):
    """Renyi entropy of order alpha > 0, one per matrix of a stack; alpha = 1 falls back to von Neumann."""
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if alpha == 1.0:
        return von_neumann_entropy(rho)
    vals = _checked_spectrum(rho)
    powers = np.where(vals > SUPPORT_CUTOFF, vals, 0.0) ** alpha
    return unstacked(np.log(powers.sum(axis=-1)) / (1.0 - alpha))


def support_log(sigma):
    """(S(sigma), log sigma on its support, sigma's kernel eigenvectors with the support's columns zeroed)
    from one eigh, sigma's spectrum checked as von_neumann_entropy checks it; eigenvalues at or below
    SUPPORT_CUTOFF make the kernel.  A stack gives stacks."""
    vals, vecs = np.linalg.eigh(np.asarray(sigma, dtype=complex))
    outside = _checked(vals) <= SUPPORT_CUTOFF
    log_sigma = (vecs * np.log(np.where(outside, 1.0, vals))[..., None, :]) @ dagger(vecs)
    return 0.0 - _xlogx_sum(vals), log_sigma, vecs * outside[..., None, :]


def entropy_and_relative_entropy(rho, log_sigma, kernel):
    """(S(rho), S(rho || sigma)) from one checked spectrum of rho and (log_sigma, kernel) = support_log(sigma);
    Tr(rho log sigma) is taken elementwise, and a block of rho on the kernel makes S(rho || sigma) math.inf."""
    rho = np.asarray(rho, dtype=complex)
    xlogx = _xlogx_sum(_checked_spectrum(rho))
    value = np.asarray(xlogx - trace_product(rho, log_sigma).real)
    if kernel.any():
        value = np.where(hs_norm(dagger(kernel) @ rho @ kernel) > 1e-12, math.inf, value)
    return 0.0 - xlogx, unstacked(value)


def relative_entropy(rho, sigma):
    """S(rho || sigma), math.inf when supp(rho) is not inside supp(sigma).

    Either argument may be a stack (k, d, d); the result is then an array of
    k values.  Both spectra are checked: an indefinite rho or sigma raises
    IndefiniteOperatorError.  This is support_log(sigma) composed with
    entropy_and_relative_entropy, as entropy_balance composes them with
    initial_product's log, where rho_frame(0) is checked once and rho_frame(t) at every time.
    """
    return entropy_and_relative_entropy(rho, *support_log(sigma)[1:])[1]


def mutual_information(rho, dims):
    """I(A:B) of a bipartite state; a stack (k, d, d) gives k values."""
    rho = np.asarray(rho, dtype=complex)
    rho_a = partial_trace(rho, dims, drop=1)
    rho_b = partial_trace(rho, dims, drop=0)
    return von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b) - von_neumann_entropy(rho)


def purity(rho):
    """Tr(rho^2), a trace_product; a stack (k, d, d) gives one purity per matrix."""
    return unstacked(trace_product(rho, rho).real)


@dataclass
class SubsystemStates:
    rho_jbar: np.ndarray
    rho_s: np.ndarray
    rho_frame: np.ndarray


def subsystem_transform(setup, rho_ibar, g_i, g_j):
    """State in the other perspective together with its marginals."""
    rho_jbar = setup.perspective_change(g_i, g_j).conjugate(rho_ibar)
    dims = (setup.d_frame, setup.d_s)
    return SubsystemStates(
        rho_jbar=rho_jbar,
        rho_s=partial_trace(rho_jbar, dims, drop=0),
        rho_frame=partial_trace(rho_jbar, dims, drop=1),
    )


def subsystem_equivalence_witness(rho_a, rho_b):
    """Unitary z with rho_b = z rho_a z', or None when the spectra differ by more than SPECTRUM_TOL."""
    rho_a, rho_b = np.asarray(rho_a, dtype=complex), np.asarray(rho_b, dtype=complex)
    vals_a, vecs_a = np.linalg.eigh(rho_a)
    vals_b, vecs_b = np.linalg.eigh(rho_b)
    if np.abs(vals_a - vals_b).max() > SPECTRUM_TOL:
        return None
    align_clusters([(vecs_b, vecs_a)], vals_a, "the distance between eigenvalues of rho_a")
    return vecs_b @ dagger(vecs_a)


@dataclass
class NegativeTemperatureReport:
    anticommuting_sector: list
    commuting_sector: list
    q_a: float
    predicted: np.ndarray


def negative_temperature_predict(setup, h_s, beta, rho_frame, g_j):
    """Predicted system state in the other perspective for a frame (x) Gibbs product.

    The prediction mixes the two Gibbs states at +/- beta with the weight
    q_a read off the frame populations over the anticommuting sector.
    """
    h_s = assert_hermitian(np.asarray(h_s, dtype=complex), what="Hamiltonian")
    rho_frame = np.asarray(rho_frame, dtype=complex)
    group = setup.group
    g_j = group.check_element(g_j)
    commutes, anticommutes = setup.translation_sectors(h_s, 1e-10 * hs_norm(h_s))
    either = commutes | anticommutes
    if not either.all():
        g = group.elements[either.argmin()]
        raise ValueError(f"element {g} neither commutes nor anticommutes with the Hamiltonian")
    anti = [g for g, a in zip(group.elements, anticommutes) if a]
    comm = [g for g, c in zip(group.elements, commutes & ~anticommutes) if c]  # h_s = 0 counts as anticommuting
    rows = [group.index(group.compose(g_j, group.inverse(h))) for h in anti]
    q_a = sum((float(rho_frame[i, i].real) for i in rows), 0.0)
    predicted = q_a * gibbs_state(h_s, -beta) + (1.0 - q_a) * gibbs_state(h_s, beta)
    return NegativeTemperatureReport(
        anticommuting_sector=anti,
        commuting_sector=comm,
        q_a=q_a,
        predicted=predicted,
    )
