"""Reference-frame perspectives for a gauge group acting on two frames and a system.

The two frames carry the regular representation and the system an arbitrary
unitary representation of the same finite abelian group.  Perspective spaces
keep the factor order (other frame, system), and PerspectiveChange maps one
frame's perspective to the other's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .groups import FiniteAbelianGroup
from .operators import (
    StructuredUnitary,
    assert_unitary,
    hs_norm,
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
    """Group, system representation, and the maps derived from them; once built, only its cache
    of perspective changes grows, so from_rep_config can share one."""

    def __init__(self, group: FiniteAbelianGroup, rep_s):
        self.group = group
        named = {}
        for g in rep_s:
            if (first := named.setdefault(group.check_element(g), g)) is not g:
                raise ValueError(f"keys {first!r} and {g!r} name the same group element")
        rep_s = {element: np.asarray(rep_s[g], dtype=complex) for element, g in named.items()}
        if set(rep_s) != set(group.elements):
            raise ValueError("system representation must cover every group element exactly once")
        self.d_s = rep_s[group.identity].shape[0]
        self.translations = read_only(self._validated_representation(rep_s))  # the U_S(g) in element order
        self.d_frame = group.order
        self.d_perspective = self.d_frame * self.d_s
        self._perspective_changes = {}

    @classmethod
    def from_rep_config(cls, group, config) -> "FrameSetup":
        """The setup for "regular" (m = 1) or {"tensor_power": m}; FrameSetup takes an explicit map.
        One with d_p = |G|^(m+1) <= 64 is built once per (group, m) and process, at most 8 kept."""
        if config == "regular":
            config = {"tensor_power": 1}
        if not (isinstance(config, dict) and set(config) == {"tensor_power"}):
            raise ValueError(f"unrecognized representation config: {config!r}")
        m = int(config["tensor_power"])
        if m < 1:
            raise ValueError("tensor_power must be >= 1")
        shared = group.order ** min(m + 1, 7) <= 64  # |G| >= 2, so |G|^7 > 64 already
        return (_tensor_power_setup if shared else _tensor_power_setup.__wrapped__)(group, m)

    def _validated_representation(self, rep_s):
        """The U_S(g) stacked in element order, once checked to be a unitary representation.

        With U(0) = 1, U is a homomorphism if and only if U(g + e_k) = U(g) U(e_k) for every g and
        generator e_k (by induction on h in U(g + h) = U(g) U(h)).  Each step is held to 1e-10, so
        a pair's defect is bounded through the generator steps that reach h, not by 1e-10 directly.
        """
        group = self.group
        for g, u in rep_s.items():
            if u.shape != (self.d_s, self.d_s):
                raise ValueError("representation matrices must share one square shape")
            assert_unitary(u, what=f"representation of {g}")
        elements = group.elements  # the identity first
        stack = np.array([rep_s[g] for g in elements])
        if np.abs(stack[0] - np.eye(self.d_s)).max() > 1e-10:
            raise ValueError("representation must send the identity element to the identity matrix")
        for e in group.generators:
            steps = group._translate_indices(e)
            failed = np.abs(stack @ stack[group.index(e)] - stack[steps]).max(axis=(1, 2)) > 1e-10
            if failed.any():
                raise ValueError(f"representation is not a homomorphism at pair ({elements[failed.argmax()]}, {e})")
        return stack

    def translation_sectors(self, h, threshold):
        """Two boolean masks over the elements, in element order: U_S(g) commutes with the system
        operator h, and U_S(g) anticommutes with it, each as ||U_S(g) h -+ h U_S(g)|| <= threshold."""
        left, right = self.translations @ h, h @ self.translations
        return hs_norm(left - right) <= threshold, hs_norm(left + right) <= threshold

    def u_s(self, g):
        return self.translations[self.group.index(g)]

    def u_frame(self, g):
        return self.group.regular_representation(g)

    def perspective_change(self, g_i, g_j) -> PerspectiveChange:
        """The perspective change u_ibar for one orientation pair, built once and cached."""
        group = self.group
        key = (group.check_element(g_i), group.check_element(g_j))
        change = self._perspective_changes.get(key)
        if change is None:
            # Row a = g_i g holds U_S(g) = U_S(g_i^-1 a) in column g_j g^-1 = (g_i g_j) a^-1.
            perm = group._translate_indices(group.compose(g_i, g_j), sign=-1)
            blocks = self.translations[group._translate_indices(group.inverse(g_i))]
            change = PerspectiveChange(perm=read_only(perm), blocks=read_only(blocks))
            self._perspective_changes[key] = change
        return change


@lru_cache(maxsize=8)  # about 6.5 MiB per setup at d_p = 64, every perspective change built
def _tensor_power_setup(group, m):
    return FrameSetup(group, {g: kron(*([group.regular_representation(g)] * m)) for g in group.elements})


def parity_swap(setup, g_i, g_j):
    """Frame-factor map sum_g |g_i g><g_j g^-1| implementing the sign flip."""
    perm = setup.perspective_change(g_i, g_j).perm
    mat = np.zeros((setup.d_frame, setup.d_frame), dtype=complex)
    mat[np.arange(perm.size), perm] = 1.0
    return mat
