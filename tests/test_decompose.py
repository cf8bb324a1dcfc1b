"""Splitting-algorithm decompositions, irredundancy and m-height."""

import random

import pytest

from graphideals.decompose import (
    Decomposition,
    DecompositionLimitError,
    IrreducibleComponent,
    is_m_unmixed_ideal,
    split_decompose,
)
from graphideals.monomials import (
    MonomialIdeal,
    VariableContext,
    ideal_eq,
    is_m_irreducible,
)

X3 = VariableContext.of_dimension(3)
X5 = VariableContext.of_dimension(5)


def ideal(ctx, *rows):
    return MonomialIdeal(ctx, rows)


def comp(ctx, powers):
    return IrreducibleComponent(ctx, tuple(sorted(powers.items())))


class TestComponent:
    def test_requires_positive_powers(self):
        with pytest.raises(ValueError):
            comp(X3, {0: 0})

    def test_requires_valid_index(self):
        with pytest.raises(ValueError):
            comp(X3, {3: 1})

    @pytest.mark.parametrize(
        "powers",
        [((0, 2.7), (1, 1)), ((0, 2), (1, True)), ((True, 2),), (("0", 1),)],
    )
    def test_rejects_non_int_entries(self, powers):
        # no silent truncation: (0, 2.7) must not become X1^2
        with pytest.raises(ValueError, match="must be ints"):
            IrreducibleComponent(X3, powers)

    def test_support_and_height(self):
        c = comp(X5, {0: 2, 1: 5, 3: 3})
        assert c.support == (0, 1, 3)
        assert c.m_height == 3

    def test_ideal_round_trip(self):
        c = comp(X3, {0: 2, 2: 5})
        assert c.ideal().rows == ((2, 0, 0), (0, 0, 5))
        assert IrreducibleComponent.from_ideal(c.ideal()) == c

    def test_from_ideal_rejects_mixed_generator(self):
        with pytest.raises(ValueError):
            IrreducibleComponent.from_ideal(ideal(X3, (1, 1, 0)))

    def test_containment_reverses_powers(self):
        big = comp(X5, {0: 2, 1: 5, 3: 3, 4: 2})
        small = comp(X5, {0: 2, 1: 5, 3: 3})
        assert big.contains(small)
        assert not small.contains(big)

    def test_containment_needs_smaller_exponents(self):
        # (X1^3) holds (X1^5) but not (X1^2)
        assert comp(X3, {0: 3}).contains(comp(X3, {0: 5}))
        assert not comp(X3, {0: 3}).contains(comp(X3, {0: 2}))

    def test_str(self):
        assert str(comp(X3, {0: 2, 1: 5})) == "(X1^2, X2^5)"
        assert str(comp(X3, {1: 1})) == "(X2)"
        assert str(IrreducibleComponent(X3, ())) == "(0)"

    def test_empty_component_is_zero_ideal(self):
        assert IrreducibleComponent(X3, ()).ideal().is_zero


class TestSplitDecompose:
    def test_two_weight_path(self):
        I = ideal(X3, (2, 2, 0), (0, 5, 5))
        D = split_decompose(I)
        assert [str(c) for c in D.components] == [
            "(X1^2, X2^5)",
            "(X1^2, X3^5)",
            "(X2^2)",
        ]
        assert ideal_eq(D.intersection(), I)

    def test_equal_weight_path_prunes_to_two(self):
        I = ideal(X3, (2, 2, 0), (0, 2, 2))
        D = split_decompose(I)
        assert [str(c) for c in D.components] == ["(X1^2, X3^2)", "(X2^2)"]

    def test_zero_ideal_single_empty_component(self):
        D = split_decompose(MonomialIdeal.zero(X3))
        assert len(D) == 1
        assert D.components[0].powers == ()
        assert D.intersection().is_zero

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError, match="unit ideal"):
            split_decompose(MonomialIdeal.unit(X3))

    def test_already_irreducible(self):
        I = ideal(X3, (2, 0, 0), (0, 5, 0))
        D = split_decompose(I)
        assert len(D) == 1
        assert D.components[0] == comp(X3, {0: 2, 1: 5})

    def test_every_component_is_irreducible(self):
        I = ideal(X3, (1, 1, 0), (0, 2, 2), (3, 0, 3))
        for c in split_decompose(I).components:
            assert is_m_irreducible(c.ideal())

    def test_pairwise_irredundant(self):
        I = ideal(X3, (1, 1, 0), (0, 2, 2), (3, 0, 3))
        comps = split_decompose(I).components
        for i, a in enumerate(comps):
            for j, b in enumerate(comps):
                if i != j:
                    assert not a.contains(b)

    def test_component_cap(self):
        I = ideal(X3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        with pytest.raises(DecompositionLimitError):
            split_decompose(I, max_components=1)

    def test_random_reconstruction(self):
        rng = random.Random(2024)
        for trial in range(60):
            d = rng.randint(1, 4)
            ctx = VariableContext.of_dimension(d)
            rows = [
                tuple(rng.randint(0, 4) for _ in range(d))
                for _ in range(rng.randint(1, 5))
            ]
            I = MonomialIdeal(ctx, rows)
            if I.is_unit:
                continue
            D = split_decompose(I)
            assert ideal_eq(D.intersection(), I)


class TestHeightAndUnmixed:
    def test_path_height_one(self):
        D = split_decompose(ideal(X3, (2, 2, 0), (0, 5, 5)))
        assert min(D.support_sizes()) == 1

    def test_triangle_height_two(self):
        # edge ideal of a triangle with weights 1 <= 2 <= 3
        D = split_decompose(ideal(X3, (1, 1, 0), (0, 2, 2), (3, 0, 3)))
        assert min(D.support_sizes()) == 2

    def test_single_variable(self):
        D = split_decompose(ideal(X3, (1, 0, 0)))
        assert min(D.support_sizes()) == 1

    def test_triangle_unmixed(self):
        assert is_m_unmixed_ideal(ideal(X3, (1, 1, 0), (0, 2, 2), (3, 0, 3)))

    def test_path_mixed(self):
        assert not is_m_unmixed_ideal(ideal(X3, (2, 2, 0), (0, 5, 5)))

    def test_principal_unmixed(self):
        assert is_m_unmixed_ideal(ideal(X3, (3, 0, 0)))

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            is_m_unmixed_ideal(MonomialIdeal.unit(X3))


class TestDecompositionValue:
    def test_components_sorted_on_construction(self):
        a = comp(X3, {1: 2})
        b = comp(X3, {0: 2, 1: 5})
        D = Decomposition(X3, (a, b))
        assert D.components == (b, a)

    def test_support_sizes(self):
        D = split_decompose(ideal(X3, (2, 2, 0), (0, 5, 5)))
        assert D.support_sizes() == (1, 2)
