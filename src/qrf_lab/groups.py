"""Finite abelian groups as direct products of cyclic factors.

Elements are tuples of residues, one per cyclic factor, enumerated in
lexicographic order.  Every matrix basis downstream inherits this order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

Element = tuple[int, ...]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product Z_{n_1} x ... x Z_{n_m} with component-wise arithmetic."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(n) for n in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors or any(n < 1 for n in factors):
            raise ValueError("cyclic moduli must be positive integers")
        if prod(factors) < 2:
            raise ValueError("group must have order >= 2")

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def elements(self) -> list[Element]:
        return list(itertools.product(*(range(n) for n in self.factors)))

    @property
    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def index(self, g: Element) -> int:
        """Position of g in the lexicographic element list."""
        g = self.check_element(g)
        idx = 0
        for r, n in zip(g, self.factors):
            idx = idx * n + r
        return idx

    def check_element(self, g) -> Element:
        g = tuple(int(r) for r in (g if isinstance(g, (tuple, list)) else (g,)))
        if len(g) != len(self.factors):
            raise ValueError(f"element {g} has wrong number of components")
        if any(not 0 <= r < n for r, n in zip(g, self.factors)):
            raise ValueError(f"element {g} out of range for moduli {self.factors}")
        return g

    def compose(self, g: Element, h: Element) -> Element:
        g, h = self.check_element(g), self.check_element(h)
        return tuple((a + b) % n for a, b, n in zip(g, h, self.factors))

    def inverse(self, g: Element) -> Element:
        g = self.check_element(g)
        return tuple((-a) % n for a, n in zip(g, self.factors))

    def regular_representation(self, g: Element) -> np.ndarray:
        """Permutation matrix sending |h> to |g h> in the element basis."""
        g = self.check_element(g)
        n = self.order
        mat = np.zeros((n, n))
        for k, h in enumerate(self.elements):
            mat[self.index(self.compose(g, h)), k] = 1.0
        return mat

    def character(self, k: Element, g: Element) -> complex:
        """Character chi_k(g) = exp(2 pi i sum_m k_m g_m / n_m)."""
        k, g = self.check_element(k), self.check_element(g)
        phase = sum(km * gm / n for km, gm, n in zip(k, g, self.factors))
        return complex(np.exp(2j * np.pi * phase))


Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z2xZ2 = FiniteAbelianGroup((2, 2))
