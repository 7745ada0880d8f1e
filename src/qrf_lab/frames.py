"""Reference-frame perspectives for a gauge group acting on two frames and a system.

The two frames carry the regular representation and the system an arbitrary
unitary representation of the same finite abelian group.  Perspective spaces
keep the factor order (other frame, system), and PerspectiveChange maps one
frame's perspective to the other's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import FiniteAbelianGroup
from .operators import (
    StructuredUnitary,
    assert_unitary,
    kron,
    monomial_gather,
    read_only,
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


def parity_swap(setup, g_i, g_j):
    """Frame-factor map sum_g |g_i g><g_j g^-1| implementing the sign flip."""
    perm = setup.perspective_change(g_i, g_j).perm
    mat = np.zeros((setup.d_frame, setup.d_frame), dtype=complex)
    mat[np.arange(perm.size), perm] = 1.0
    return mat
