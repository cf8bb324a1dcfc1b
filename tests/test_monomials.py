"""Golden tests for exponent-vector monomials and monomial ideal arithmetic."""

import dataclasses

import pytest

from graphideals.monomials import (
    ContextMismatchError,
    Monomial,
    MonomialIdeal,
    VariableContext,
    bracket_power,
    depolarize,
    divides,
    ideal_eq,
    ideal_leq,
    intersect,
    m_radical,
    member,
    polarize,
)

X3 = VariableContext.of_dimension(3)
X2 = VariableContext.of_dimension(2)


def ideal(ctx, *rows):
    return MonomialIdeal(ctx, rows)


def is_m_irreducible(ideal: MonomialIdeal) -> bool:
    """Oracle: every minimal generator is a pure power of its own variable.

    Equivalently the ideal is generated by pure powers of pairwise distinct
    variables.  The zero ideal qualifies (empty set of pure powers); the
    unit ideal does not, since 1 is not a positive power of any variable.
    """
    seen = set()
    for r in ideal.rows:
        support = [i for i, e in enumerate(r) if e > 0]
        if len(support) != 1 or support[0] in seen:
            return False
        seen.add(support[0])
    return True


class TestContext:
    def test_default_names(self):
        assert X3.names == ("X1", "X2", "X3")
        assert X3.dimension == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VariableContext(())

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            VariableContext(("a", "a"))

    @pytest.mark.parametrize(
        "names", [5, [["a"]], [{"a": 1}, "b"]], ids=["int", "list", "dict"]
    )
    def test_rejects_non_sequence_or_unhashable_names(self, names):
        with pytest.raises(ValueError):
            VariableContext(names)


class TestMonomial:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Monomial(X3, (1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Monomial(X3, (1, -1, 0))

    def test_rejects_bool_exponent(self):
        with pytest.raises(ValueError):
            Monomial(X2, (True, 0))

    def test_one(self):
        assert X3.one().is_one
        assert X3.one().degree == 0

    def test_str(self):
        assert str(X3.monomial((2, 5, 0))) == "X1^2*X2^5"
        assert str(X3.monomial((1, 0, 1))) == "X1*X3"
        assert str(X3.one()) == "1"


class TestDivides:
    def test_divides_basic(self):
        assert divides(X2.monomial((1, 1)), X2.monomial((2, 3)))

    def test_power_does_not_divide_smaller(self):
        assert not divides(X2.monomial((2, 0)), X2.monomial((1, 0)))

    def test_one_divides_everything(self):
        assert divides(X2.one(), X2.monomial((7, 3)))

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            divides(X2.monomial((1, 0)), X3.monomial((1, 0, 0)))


class TestLcm:
    # the lcm of two monomials generates the meet of their principal ideals
    def test_lcm_basic(self):
        # lcm(X1^2*X2, X2^3*X3) = X1^2*X2^3*X3
        got = intersect(ideal(X3, (2, 1, 0)), ideal(X3, (0, 3, 1)))
        assert got.rows == ((2, 3, 1),)

    def test_lcm_with_one(self):
        m = ideal(X3, (4, 0, 2))
        assert intersect(m, ideal(X3, (0, 0, 0))) == m

    def test_lcm_idempotent(self):
        m = ideal(X3, (1, 2, 3))
        assert intersect(m, m) == m


class TestIdealRows:
    def test_fields_are_context_and_rows(self):
        names = [f.name for f in dataclasses.fields(MonomialIdeal)]
        assert names == ["context", "rows"]

    def test_support_masks_stay_out_of_equality_hash_and_repr(self):
        I = ideal(X3, (0, 5, 0), (2, 0, 1), (3, 5, 0))
        J = ideal(X3, (2, 0, 1), (0, 5, 0))
        assert I == J and hash(I) == hash(J)
        assert repr(I) == f"MonomialIdeal(context={X3!r}, rows={I.rows!r})"

    def test_generators_derived_from_rows(self):
        I = ideal(X2, (0, 5), (2, 0), (3, 1))
        assert I.rows == ((2, 0), (0, 5))
        assert I.generators == (X2.monomial((2, 0)), X2.monomial((0, 5)))

    def test_unit_is_the_zero_row(self):
        assert MonomialIdeal.unit(X3).rows == ((0, 0, 0),)

    @pytest.mark.parametrize(
        "row",
        [(1, 2), (1, -1, 0), (True, 0, 0), (1.0, 0, 0), "abc", 7, X3.one()],
        ids=["short", "negative", "bool", "float", "string", "int", "monomial"],
    )
    def test_rejects_non_rows(self, row):
        with pytest.raises(ValueError):
            MonomialIdeal(X3, [row])

    def test_rejects_non_sequence_rows(self):
        with pytest.raises(ValueError):
            MonomialIdeal(X3, 5)


class TestMinimalGenerators:
    def test_drops_multiples(self):
        assert ideal(X2, (2, 0), (3, 0)).rows == ((2, 0),)

    def test_keeps_smallest_power(self):
        assert ideal(X2, (0, 5), (0, 2)).rows == ((0, 2),)

    def test_empty_is_zero_ideal(self):
        assert ideal(X2).is_zero

    def test_canonical_order_by_degree_then_lex(self):
        got = ideal(X3, (0, 5, 5), (2, 2, 0))
        assert got.rows == ((2, 2, 0), (0, 5, 5))

    def test_unit_absorbs(self):
        assert ideal(X2, (0, 0), (1, 0)).is_unit


class TestMember:
    def test_member_of_principal(self):
        I = ideal(X2, (2, 2))
        assert member(I, X2.monomial((3, 2)))

    def test_zero_ideal_has_no_members(self):
        assert not member(MonomialIdeal.zero(X2), X2.monomial((1, 1)))
        assert not member(MonomialIdeal.zero(X2), X2.one())

    def test_nonmember(self):
        # X1*X2^4 escapes both generators of (X1^2, X2^5)
        I = ideal(X2, (2, 0), (0, 5))
        assert not member(I, X2.monomial((1, 4)))

    def test_unit_contains_one(self):
        assert member(MonomialIdeal.unit(X2), X2.one())


class TestContainment:
    def test_power_inside_smaller_power(self):
        assert ideal_leq(ideal(X2, (2, 0)), ideal(X2, (1, 0)))

    def test_not_reverse(self):
        assert not ideal_leq(ideal(X2, (1, 0)), ideal(X2, (2, 0)))

    def test_component_irredundancy_case(self):
        # (X2^2) is not inside (X1^2, X2^5): weight 2 beats 5
        assert not ideal_leq(ideal(X2, (0, 2)), ideal(X2, (2, 0), (0, 5)))

    def test_eq_after_canonicalization(self):
        assert ideal_eq(ideal(X2, (1, 0), (2, 0)), ideal(X2, (1, 0)))

    def test_zero_neq_unit(self):
        assert not ideal_eq(MonomialIdeal.zero(X2), MonomialIdeal.unit(X2))

    def test_eq_coincides_with_mutual_leq(self):
        I = ideal(X2, (2, 1), (0, 3))
        J = ideal(X2, (2, 1), (0, 3), (2, 4))
        assert ideal_eq(I, J) == (ideal_leq(I, J) and ideal_leq(J, I))


class TestIntersect:
    def test_coprime_principals(self):
        got = intersect(ideal(X2, (2, 0)), ideal(X2, (0, 5)))
        assert got.rows == ((2, 5),)

    def test_worked_two_component_case(self):
        # (X1^2, X2^5*X3^5) meet (X2^2) gives (X1^2*X2^2, X2^5*X3^5)
        left = ideal(X3, (2, 0, 0), (0, 5, 5))
        right = ideal(X3, (0, 2, 0))
        got = intersect(left, right)
        assert got.rows == ((2, 2, 0), (0, 5, 5))

    def test_unit_is_identity(self):
        I = ideal(X3, (1, 1, 0), (0, 2, 2))
        assert ideal_eq(intersect(I, MonomialIdeal.unit(X3)), I)

    def test_zero_absorbs(self):
        I = ideal(X2, (1, 1))
        assert intersect(I, MonomialIdeal.zero(X2)).is_zero


class TestRadical:
    def test_single_edge(self):
        assert m_radical(ideal(X2, (2, 2))).rows == ((1, 1),)

    def test_squarefree_fixed_point(self):
        I = ideal(X3, (1, 1, 0), (0, 1, 1))
        assert ideal_eq(m_radical(I), I)

    def test_flattening(self):
        got = m_radical(ideal(X3, (3, 0, 0), (0, 2, 1)))
        assert got.rows == ((1, 0, 0), (0, 1, 1))

    def test_zero_and_unit_fixed(self):
        assert m_radical(MonomialIdeal.zero(X2)).is_zero
        assert m_radical(MonomialIdeal.unit(X2)).is_unit


class TestBracketPower:
    def test_cube(self):
        assert bracket_power(ideal(X2, (1, 1)), 3).rows == ((3, 3),)

    def test_identity_exponent(self):
        I = ideal(X2, (2, 0), (0, 5))
        assert ideal_eq(bracket_power(I, 1), I)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bracket_power(ideal(X2, (1, 1)), 0)

    @pytest.mark.parametrize("a", [True, False, 2.0])
    def test_rejects_bool_and_float(self, a):
        with pytest.raises(ValueError):
            bracket_power(ideal(X2, (1, 1)), a)


class TestIrreducibility:
    # goldens for the is_m_irreducible oracle of the decomposition tests
    def test_pure_powers_distinct_vars(self):
        ctx = VariableContext.of_dimension(5)
        I = MonomialIdeal(
            ctx, [(2, 0, 0, 0, 0), (0, 5, 0, 0, 0), (0, 0, 0, 3, 0)]
        )
        assert is_m_irreducible(I)

    def test_mixed_generator_fails(self):
        assert not is_m_irreducible(ideal(X2, (1, 1)))

    def test_zero_is_irreducible(self):
        assert is_m_irreducible(MonomialIdeal.zero(X2))

    def test_unit_is_not(self):
        assert not is_m_irreducible(MonomialIdeal.unit(X2))


class TestPolarize:
    def test_single_square(self):
        # (X1^2) in two original variables polarizes into a fresh
        # 2-variable context: one copy per positive exponent, X2 unused
        polar_ctx, polar, origin = polarize(ideal(X2, (2, 0)))
        assert polar_ctx.names == ("X1_1", "X1_2")
        assert polar.rows == ((1, 1),)
        assert origin == {0: 0, 1: 0}

    def test_one_edge_weight_two(self):
        polar_ctx, polar, origin = polarize(ideal(X2, (2, 2)))
        assert polar_ctx.names == ("X1_1", "X1_2", "X2_1", "X2_2")
        assert polar.rows == ((1, 1, 1, 1),)
        assert origin == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_squarefree_copies_itself(self):
        I = ideal(X3, (1, 1, 0), (0, 1, 1))
        polar_ctx, polar, origin = polarize(I)
        assert polar.rows == I.rows
        assert [origin[i] for i in range(3)] == [0, 1, 2]

    def test_zero_and_unit_fixed_points(self):
        for I in (MonomialIdeal.zero(X2), MonomialIdeal.unit(X2)):
            polar_ctx, polar, origin = polarize(I)
            assert polar_ctx is I.context
            assert polar is I
            assert origin == {}

    def test_round_trip(self):
        I = ideal(X3, (2, 0, 1), (0, 5, 0), (1, 3, 2))
        polar_ctx, polar, origin = polarize(I)
        assert all(e <= 1 for row in polar.rows for e in row)
        assert ideal_eq(depolarize(polar, origin, X3), I)
