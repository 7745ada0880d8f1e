"""The perspective-neutral construction of a frame change, as a test oracle.

The package builds the perspective change directly, as the controlled
unitary u_ibar = sum_g |g_i g><g_j g^-1| (x) U_S(g)
(FrameSetup.perspective_change).  This module builds the same map the other
way the paper does, by reduction from the kinematical space
H_1 (x) H_2 (x) H_S of dimension d_kin = d_f^2 d_s (Vanrietvelde, Hoehn,
Giacomini and Castro-Ruiz, Quantum 4, 225 (2020)):

- U^g = U_reg(g) (x) U_reg(g) (x) U_S(g) is the global gauge action, and
  Pi_phys = |G|^-1 sum_g U^g projects onto the physical, gauge-invariant
  states;
- R_i(g) = sqrt|G| (<g|_i (x) 1) Pi_phys reduces a physical state to frame
  i's perspective at orientation g, a co-isometry with R_i R_i' = 1 and
  R_i' R_i = Pi_phys;
- the frame change is R_j(g_j) R_i(g_i)', and a perspective operator f
  lifts to the relational observable |G| Pi_phys (|g><g|_i (x) f) Pi_phys,
  which R_i(g) reduces back to f.

Every array here is d_kin-sized, which is why none of it lives in the
package; the tests compare the two constructions.  dense_perspective_unitary
writes u_ibar itself out as a dense d_p x d_p sum, the oracle for the
package's structured u, its adjoint and what they act on.  Perspective
operators act on (other frame, system) in that order.
"""
import numpy as np

from qrf_lab.operators import dagger, kron, twirl


def d_kin(setup):
    """Dimension d_f^2 d_s of the kinematical space."""
    return setup.d_frame ** 2 * setup.d_s


def u_kin(setup, g):
    """Global gauge action U^g on the kinematical space."""
    reg = setup.u_frame(g)
    return kron(reg, reg, setup.u_s(g))


def pi_phys(setup):
    """Group average of the gauge action; projector onto physical states."""
    acc = sum(u_kin(setup, g) for g in setup.group.elements)
    return np.asarray(acc, dtype=complex) / setup.group.order


def embed_kin(setup, frame, frame_op, complement_op):
    """Place frame_op at the given frame factor and complement_op on the rest.

    complement_op acts on (other frame, system) in that order.
    """
    d_f, d_s = setup.d_frame, setup.d_s
    comp = np.asarray(complement_op, dtype=complex).reshape(d_f, d_s, d_f, d_s)
    frame_op = np.asarray(frame_op, dtype=complex)
    if frame == 1:
        out = np.einsum("ab,csdt->acsbdt", frame_op, comp)
    elif frame == 2:
        out = np.einsum("asbt,cd->acsbdt", comp, frame_op)
    else:
        raise ValueError("frame must be 1 or 2")
    return out.reshape(d_kin(setup), d_kin(setup))


def dense_perspective_unitary(setup, g_i, g_j):
    """sum_g |g_i g><g_j g^-1| (x) U_S(g), summed term by term as a dense matrix."""
    group = setup.group
    mat = np.zeros((setup.d_perspective, setup.d_perspective), dtype=complex)
    for g in group.elements:
        ket = np.zeros((setup.d_frame, 1))
        ket[group.index(group.compose(g_i, g)), 0] = 1.0
        bra = np.zeros((1, setup.d_frame))
        bra[0, group.index(group.compose(g_j, group.inverse(g)))] = 1.0
        mat += kron(ket @ bra, setup.u_s(g))
    return mat


def reduction_map(setup, frame, g):
    """Co-isometry from the kinematical space to the perspective of the given frame."""
    bra = np.zeros((1, setup.d_frame))
    bra[0, setup.group.index(g)] = 1.0
    if frame == 1:
        stripper = kron(bra, np.eye(setup.d_frame), np.eye(setup.d_s))
    elif frame == 2:
        stripper = kron(np.eye(setup.d_frame), bra, np.eye(setup.d_s))
    else:
        raise ValueError("frame must be 1 or 2")
    return np.sqrt(setup.group.order) * (stripper @ pi_phys(setup))


def qrf_transform(setup, from_frame, to_frame, g_from, g_to):
    """Unitary mapping the perspective of one frame to the other."""
    if {from_frame, to_frame} != {1, 2}:
        raise ValueError("transform must connect frame 1 and frame 2")
    r_from = reduction_map(setup, from_frame, g_from)
    r_to = reduction_map(setup, to_frame, g_to)
    return r_to @ dagger(r_from)


def relational_observable(setup, frame, g, f):
    """Gauge-invariant operator describing f relative to the frame at orientation g.

    f acts on the perspective space (other frame, system).
    """
    group = setup.group
    g = group.check_element(g)
    proj = np.zeros((setup.d_frame, setup.d_frame))
    proj[group.index(g), group.index(g)] = 1.0
    pi = pi_phys(setup)
    return group.order * (pi @ embed_kin(setup, frame, proj, f) @ pi)


def g_twirl(setup, op):
    """Incoherent average of op over the global gauge action."""
    return twirl([u_kin(setup, g) for g in setup.group.elements], op)


def physical_basis(setup):
    """Orthonormal basis of the physical subspace, columns of one isometry.

    Obtained by pulling the product basis of the perspective of frame 1 at
    the identity orientation back to the kinematical space.
    """
    return dagger(reduction_map(setup, 1, setup.group.identity))
