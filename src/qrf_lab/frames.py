"""Reference-frame perspectives for a gauge group acting on two frames and a system.

The kinematical space is H_1 (x) H_2 (x) H_S with the two frame factors
carrying the regular representation and the system an arbitrary unitary
representation of the same finite abelian group.  Perspective spaces keep
the factor order (other frame, system).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import FiniteAbelianGroup
from .operators import (
    StructuredUnitary,
    assert_unitary,
    dagger,
    kron,
    monomial_gather,
    read_only,
    twirl,
)


@dataclass(frozen=True)
class PerspectiveChange(StructuredUnitary):
    """u_ibar = sum_g |g_i g><g_j g^-1| (x) U_S(g) for one orientation pair.

    u is a controlled unitary: block row a holds U_S(g), for the g with
    g_i g = a, in block column perm[a] (the index of g_j g^-1), and both
    arrays are read-only.  conjugate uses that structure; when every U_S(g)
    is monomial (regular and tensor-power reps are permutations, diagonal
    reps give phases) it is one gather over the d_p indices.
    """

    perm: np.ndarray
    blocks: np.ndarray

    @cached_property
    def _gather(self):
        return monomial_gather(self.perm, self.blocks)

    @cached_property
    def matrix(self):
        """The dense u, read-only."""
        d_f, d_s = self.blocks.shape[:2]
        mat = np.zeros((d_f, d_s, d_f, d_s), dtype=complex)
        mat[np.arange(d_f), :, self.perm, :] = self.blocks
        # +0.0 for every zero, -0.0 entries of U_S(g) included, as a sum of krons writes.
        return read_only(mat.reshape(d_f * d_s, d_f * d_s) + 0.0)

    def _left(self, ops):
        d_f, d_s = self.blocks.shape[:2]
        rows = ops.reshape(ops.shape[:-2] + (d_f, d_s, d_f * d_s))[..., self.perm, :, :]
        return (self.blocks @ rows).reshape(ops.shape)


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
        self._perspective_changes = {}

    @classmethod
    def from_rep_config(cls, group, config) -> "FrameSetup":
        """Build from "regular" or {"tensor_power": m}; FrameSetup takes an explicit map."""
        if config == "regular":
            rep = {g: group.regular_representation(g) for g in group.elements}
        elif isinstance(config, dict) and set(config) == {"tensor_power"}:
            m = int(config["tensor_power"])
            if m < 1:
                raise ValueError("tensor_power must be >= 1")
            rep = {g: kron(*([group.regular_representation(g)] * m)) for g in group.elements}
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

    def pi_phys(self):
        """Group average of the gauge action; projector onto physical states."""
        if self._pi_phys is None:
            acc = sum(self.u_kin(g) for g in self.group.elements)
            self._pi_phys = np.asarray(acc, dtype=complex) / self.group.order
        return self._pi_phys

    def perspective_change(self, g_i, g_j) -> PerspectiveChange:
        """The perspective change u_ibar for one orientation pair, built once and cached."""
        group = self.group
        key = (group.check_element(g_i), group.check_element(g_j))
        change = self._perspective_changes.get(key)
        if change is None:
            perm = np.empty(self.d_frame, dtype=int)
            blocks = np.empty((self.d_frame, self.d_s, self.d_s), dtype=complex)
            for g in group.elements:
                row = group.index(group.compose(g_i, g))
                perm[row] = group.index(group.compose(g_j, group.inverse(g)))
                blocks[row] = self.u_s(g)
            change = PerspectiveChange(perm=read_only(perm), blocks=read_only(blocks))
            self._perspective_changes[key] = change
        return change

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
    perm = setup.perspective_change(g_i, g_j).perm
    mat = np.zeros((setup.d_frame, setup.d_frame), dtype=complex)
    mat[np.arange(perm.size), perm] = 1.0
    return mat


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
    return twirl([setup.u_kin(g) for g in setup.group.elements], op)


def physical_basis(setup):
    """Orthonormal basis of the physical subspace, columns of one isometry.

    Obtained by pulling the product basis of the perspective of frame 1 at
    the identity orientation back to the kinematical space.
    """
    return dagger(reduction_map(setup, 1, setup.group.identity))
