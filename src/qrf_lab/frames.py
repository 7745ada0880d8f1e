"""Reference-frame perspectives for a gauge group acting on two frames and a system.

The kinematical space is H_1 (x) H_2 (x) H_S with the two frame factors
carrying the regular representation and the system an arbitrary unitary
representation of the same finite abelian group.  Perspective spaces keep
the factor order (other frame, system).
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteAbelianGroup
from .operators import assert_unitary, conjugation_superop, dagger, kron


class FrameSetup:
    """Group, system representation, and the maps derived from them."""

    def __init__(self, group: FiniteAbelianGroup, rep_s):
        self.group = group
        self.rep_s = {group.check_element(g): np.asarray(u, dtype=complex) for g, u in rep_s.items()}
        if set(self.rep_s) != set(group.elements):
            raise ValueError("system representation must cover every group element exactly once")
        self.d_s = self.rep_s[group.identity].shape[0]
        self._validate_representation()
        self.d_frame = group.order
        self.d_perspective = self.d_frame * self.d_s
        self.d_kin = self.d_frame ** 2 * self.d_s
        self._pi_phys = None
        self._perspective_unitaries = {}

    @classmethod
    def from_rep_config(cls, group, config) -> "FrameSetup":
        """Build from "regular", {"tensor_power": m}, or an explicit element map."""
        if config == "regular":
            rep = {g: group.regular_representation(g) for g in group.elements}
        elif isinstance(config, dict) and set(config) == {"tensor_power"}:
            m = int(config["tensor_power"])
            if m < 1:
                raise ValueError("tensor_power must be >= 1")
            rep = {g: kron(*([group.regular_representation(g)] * m)) for g in group.elements}
        elif isinstance(config, dict):
            rep = {tuple(map(int, k)) if isinstance(k, (tuple, list)) else k: v for k, v in config.items()}
        else:
            raise ValueError(f"unrecognized representation config: {config!r}")
        return cls(group, rep)

    def _validate_representation(self):
        group = self.group
        ident = self.rep_s[group.identity]
        if ident.shape != (self.d_s, self.d_s) or np.abs(ident - np.eye(self.d_s)).max() > 1e-10:
            raise ValueError("representation must send the identity element to the identity matrix")
        for g, u in self.rep_s.items():
            if u.shape != (self.d_s, self.d_s):
                raise ValueError("representation matrices must share one square shape")
            assert_unitary(u, what=f"representation of {g}")
        for g in group.elements:
            for h in group.elements:
                lhs = self.rep_s[g] @ self.rep_s[h]
                rhs = self.rep_s[group.compose(g, h)]
                if np.abs(lhs - rhs).max() > 1e-10:
                    raise ValueError(f"representation is not a homomorphism at pair ({g}, {h})")

    def u_s(self, g):
        return self.rep_s[self.group.check_element(g)]

    def u_frame(self, g):
        return self.group.regular_representation(g)

    def u_kin(self, g):
        """Global gauge action U^g on the kinematical space."""
        reg = self.u_frame(g)
        return kron(reg, reg, self.u_s(g))

    def frame_basis_bra(self, g):
        bra = np.zeros((1, self.d_frame))
        bra[0, self.group.index(g)] = 1.0
        return bra

    def pi_phys(self):
        """Group average of the gauge action; projector onto physical states."""
        if self._pi_phys is None:
            acc = sum(self.u_kin(g) for g in self.group.elements)
            self._pi_phys = np.asarray(acc, dtype=complex) / self.group.order
        return self._pi_phys

    def perspective_unitary(self, g_i, g_j):
        """Cached u_ibar for one orientation pair, returned read-only."""
        key = (self.group.check_element(g_i), self.group.check_element(g_j))
        u = self._perspective_unitaries.get(key)
        if u is None:
            u = tps_change_unitary(self, *key)[0]
            u.flags.writeable = False
            self._perspective_unitaries[key] = u
        return u

    def embed_kin(self, frame, frame_op, complement_op):
        """Place frame_op at the given frame factor and complement_op on the rest.

        complement_op acts on (other frame, system) in that order.
        """
        d_f, d_s = self.d_frame, self.d_s
        comp = np.asarray(complement_op, dtype=complex).reshape(d_f, d_s, d_f, d_s)
        frame_op = np.asarray(frame_op, dtype=complex)
        if frame == 1:
            out = np.einsum("ab,csdt->acsbdt", frame_op, comp)
        elif frame == 2:
            out = np.einsum("asbt,cd->acsbdt", comp, frame_op)
        else:
            raise ValueError("frame must be 1 or 2")
        return out.reshape(self.d_kin, self.d_kin)


def pi_phys(setup):
    return setup.pi_phys()


def reduction_map(setup, frame, g):
    """Co-isometry from the kinematical space to the perspective of the given frame."""
    g = setup.group.check_element(g)
    bra = setup.frame_basis_bra(g)
    if frame == 1:
        stripper = kron(bra, np.eye(setup.d_frame), np.eye(setup.d_s))
    elif frame == 2:
        stripper = kron(np.eye(setup.d_frame), bra, np.eye(setup.d_s))
    else:
        raise ValueError("frame must be 1 or 2")
    return np.sqrt(setup.group.order) * (stripper @ setup.pi_phys())


def qrf_transform(setup, from_frame, to_frame, g_from, g_to):
    """Unitary mapping the perspective of one frame to the other."""
    if {from_frame, to_frame} != {1, 2}:
        raise ValueError("transform must connect frame 1 and frame 2")
    r_from = reduction_map(setup, from_frame, g_from)
    r_to = reduction_map(setup, to_frame, g_to)
    return r_to @ dagger(r_from)


def parity_swap(setup, g_i, g_j):
    """Frame-factor map sum_g |g_i g><g_j g^-1| implementing the sign flip."""
    group = setup.group
    g_i, g_j = group.check_element(g_i), group.check_element(g_j)
    mat = np.zeros((setup.d_frame, setup.d_frame), dtype=complex)
    for g in group.elements:
        row = group.index(group.compose(g_i, g))
        col = group.index(group.compose(g_j, group.inverse(g)))
        mat[row, col] += 1.0
    return mat


def tps_change_unitary(setup, g_i, g_j):
    """Perspective-local unitary, frame relabeling, and its frame factor.

    Returns (u_ibar, frame_swap, parity) where u_ibar acts on the original
    perspective space, frame_swap is the factor relabeling (an identity
    matrix between the two equal-shape perspective spaces), and parity is
    the frame-factor part of u_ibar.
    """
    group = setup.group
    g_i, g_j = group.check_element(g_i), group.check_element(g_j)
    mat = np.zeros((setup.d_perspective, setup.d_perspective), dtype=complex)
    for g in group.elements:
        ket = np.zeros((setup.d_frame, 1))
        ket[group.index(group.compose(g_i, g)), 0] = 1.0
        bra = np.zeros((1, setup.d_frame))
        bra[0, group.index(group.compose(g_j, group.inverse(g)))] = 1.0
        mat += kron(ket @ bra, setup.u_s(g))
    frame_swap = np.eye(setup.d_perspective, dtype=complex)
    return mat, frame_swap, parity_swap(setup, g_i, g_j)


def perspective_unitary(setup, g_i, g_j):
    """The unitary u_ibar alone, as built by tps_change_unitary, cached on the setup."""
    return setup.perspective_unitary(g_i, g_j)


def relational_observable(setup, frame, g, f):
    """Gauge-invariant operator describing f relative to the frame at orientation g.

    f acts on the perspective space (other frame, system).
    """
    group = setup.group
    g = group.check_element(g)
    proj = np.zeros((setup.d_frame, setup.d_frame))
    proj[group.index(g), group.index(g)] = 1.0
    pi = setup.pi_phys()
    return group.order * (pi @ setup.embed_kin(frame, proj, f) @ pi)


def g_twirl(setup, op):
    """Incoherent average of op over the global gauge action."""
    acc = np.zeros_like(np.asarray(op, dtype=complex))
    for g in setup.group.elements:
        u = setup.u_kin(g)
        acc += u @ op @ dagger(u)
    return acc / setup.group.order


def physical_basis(setup):
    """Orthonormal basis of the physical subspace, columns of one isometry.

    Obtained by pulling the product basis of the perspective of frame 1 at
    the identity orientation back to the kinematical space.
    """
    return dagger(reduction_map(setup, 1, setup.group.identity))


def symmetry_qrf_transform(setup, g_1, g_2, op):
    """Symmetry-induced perspective change acting on kinematical operators.

    Built from frame-1 translations and joint frame projections only; on
    relational observables it exchanges the describing frame.
    """
    group = setup.group
    g_1, g_2 = group.check_element(g_1), group.check_element(g_2)
    op = np.asarray(op, dtype=complex)
    d_f, d_s = setup.d_frame, setup.d_s
    total = np.zeros_like(op)
    eye_2s = np.eye(d_f * d_s)
    for g_p in group.elements:
        left_el = group.compose(group.inverse(g_1), group.compose(g_2, group.inverse(g_p)))
        right_el = group.compose(g_p, group.compose(group.inverse(g_2), g_1))
        left_u = kron(setup.u_frame(left_el), eye_2s)
        right_u = kron(setup.u_frame(right_el), eye_2s)
        middle = left_u @ op @ right_u
        for g in group.elements:
            p1 = np.zeros((d_f, d_f))
            p1[group.index(g), group.index(g)] = 1.0
            p2 = np.zeros((d_f, d_f))
            shifted = group.index(group.compose(g, g_p))
            p2[shifted, shifted] = 1.0
            total += kron(p1, p2, np.eye(d_s)) @ middle
    return total


def uhat_superoperator(setup, g_i, g_j):
    """Conjugation superoperator of the perspective-local unitary."""
    return conjugation_superop(perspective_unitary(setup, g_i, g_j))
