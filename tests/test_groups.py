"""Tests for finite abelian group arithmetic and characters."""

import numpy as np
import pytest

from qrf_lab import FiniteAbelianGroup, Z2, Z2xZ2, Z3, Z4


def test_cyclic_group_basics():
    assert Z4.order == 4
    assert Z4.identity == (0,)
    assert Z4.compose((1,), (3,)) == (0,)
    assert Z4.inverse((1,)) == (3,)
    assert [Z4.index(g) for g in Z4.elements] == [0, 1, 2, 3]


def test_product_group_basics():
    assert Z2xZ2.order == 4
    assert Z2xZ2.compose((1, 0), (0, 1)) == (1, 1)
    for g in Z2xZ2.elements:
        assert Z2xZ2.inverse(g) == g


def test_generators_have_one_unit_residue_each():
    assert Z4.generators == ((1,),)
    assert FiniteAbelianGroup((2, 4)).generators == ((1, 0), (0, 1))
    # A trivial factor Z_1 contributes the identity: its only residue is 0.
    assert FiniteAbelianGroup((1, 3)).generators == ((0, 0), (0, 1))


def test_element_checking():
    assert Z3.check_element(2) == (2,)
    assert Z3.check_element([1]) == (1,)
    with pytest.raises(ValueError):
        Z3.check_element((4,))
    with pytest.raises(ValueError):
        Z2xZ2.check_element((0,))


def test_invalid_factors_rejected():
    with pytest.raises(ValueError):
        FiniteAbelianGroup(())
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0,))


def test_characters_are_multiplicative():
    for group in (Z2, Z3, Z2xZ2, Z4):
        for k in group.elements:
            for g in group.elements:
                for h in group.elements:
                    lhs = group.character(k, group.compose(g, h))
                    rhs = group.character(k, g) * group.character(k, h)
                    assert abs(lhs - rhs) < 1e-12


def test_character_orthogonality():
    for group in (Z3, Z2xZ2):
        n = group.order
        table = np.array([[group.character(k, g) for g in group.elements]
                          for k in group.elements])
        gram = table @ table.conj().T
        assert np.allclose(gram, n * np.eye(n), atol=1e-12)


def test_regular_representation_is_a_homomorphism():
    for group in (Z3, Z2xZ2):
        for g in group.elements:
            u_g = group.regular_representation(g)
            assert np.allclose(u_g @ u_g.conj().T,
                               np.eye(group.order), atol=1e-12)
            for h in group.elements:
                assert np.allclose(u_g @ group.regular_representation(h),
                                   group.regular_representation(group.compose(g, h)),
                                   atol=1e-12)


@pytest.mark.parametrize("bad, message", [
    (4, r"element \(4,\) out of range"),
    ([4], r"element \(4,\) out of range"),
    ([1, 0], r"element \(1, 0\) has wrong number of components"),
    ((-1,), r"element \(-1,\) out of range"),
])
def test_bad_elements_raise_through_the_tables(bad, message):
    """index, compose, inverse and character reject what check_element rejects, with its message."""
    calls = (lambda: Z4.index(bad), lambda: Z4.compose(bad, (1,)), lambda: Z4.compose((1,), bad),
             lambda: Z4.inverse(bad), lambda: Z4.character(bad, (1,)), lambda: Z4.character((1,), bad),
             lambda: Z4.regular_representation(bad))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_list_and_int_inputs_use_the_tables():
    assert Z4.index([3]) == Z4.index(3) == 3
    assert Z4.compose([1], 3) == (0,) and Z4.inverse(1) == (3,)
    assert Z4.character([1], 1) == Z4.character((1,), (1,))
    group = FiniteAbelianGroup((2, 3))
    for g in group.elements:
        assert group.compose(g, group.inverse(g)) == group.identity
        assert group.elements[group.index(list(g))] == g
