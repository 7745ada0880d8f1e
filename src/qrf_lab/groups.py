"""Finite abelian groups as direct products of cyclic factors.

Elements are tuples of residues, one per cyclic factor, enumerated in
lexicographic order.  Every matrix basis downstream inherits this order,
so an index is the residues read in mixed radix.  The element-to-index map
is built once per group; only a value that is not already an element tuple
goes through check_element.  Composing one element with all the others is
one vectorized index array; no |G| x |G| table is ever built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def _elements(self) -> tuple[Element, ...]:
        return tuple(itertools.product(*(range(n) for n in self.factors)))

    @cached_property
    def _index(self) -> dict:
        return {g: k for k, g in enumerate(self._elements)}

    @property
    def elements(self) -> list[Element]:
        return list(self._elements)

    @property
    def identity(self) -> Element:
        return (0,) * len(self.factors)

    @property
    def generators(self) -> tuple[Element, ...]:
        """e_k, residue 1 in factor k and 0 elsewhere, one per factor; they generate the group."""
        return tuple(self.identity[:k] + (1 % n,) + self.identity[k + 1:] for k, n in enumerate(self.factors))

    def index(self, g: Element) -> int:
        """Position of g in the lexicographic element list."""
        try:
            return self._index[g]
        except (KeyError, TypeError):  # not an element tuple: validate and convert
            return self._index[self.check_element(g)]

    def check_element(self, g) -> Element:
        g = tuple(int(r) for r in (g if isinstance(g, (tuple, list)) else (g,)))
        if len(g) != len(self.factors):
            raise ValueError(f"element {g} has wrong number of components")
        if any(not 0 <= r < n for r, n in zip(g, self.factors)):
            raise ValueError(f"element {g} out of range for moduli {self.factors}")
        return g

    def _element(self, g) -> Element:
        return self._elements[self.index(g)]

    def compose(self, g: Element, h: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(self._element(g), self._element(h), self.factors))

    def inverse(self, g: Element) -> Element:
        return tuple(-a % n for a, n in zip(self._element(g), self.factors))

    @cached_property
    def _residues(self) -> np.ndarray:
        """The (m, |G|) residues of the elements, one row per factor, in element order."""
        return np.indices(self.factors).reshape(-1, self.order)

    def _translate_indices(self, g: Element, sign: int = 1) -> np.ndarray:
        """Index of g h, or of g h^-1 for sign = -1, for every element h in element order."""
        residues = np.array(self._element(g))[:, None] + sign * self._residues
        return np.ravel_multi_index(residues, self.factors, mode="wrap")  # residues mod n_k, in mixed radix

    def regular_representation(self, g: Element) -> np.ndarray:
        """Permutation matrix sending |h> to |g h> in the element basis."""
        n = self.order
        mat = np.zeros((n, n))
        mat[self._translate_indices(g), np.arange(n)] = 1.0
        return mat

    def character(self, k: Element, g: Element) -> complex:
        """Character chi_k(g) = exp(2 pi i sum_m k_m g_m / n_m)."""
        k, g = self._element(k), self._element(g)
        phase = sum(km * gm / n for km, gm, n in zip(k, g, self.factors))
        return complex(np.exp(2j * np.pi * phase))


Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z2xZ2 = FiniteAbelianGroup((2, 2))
