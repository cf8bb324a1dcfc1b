"""Golden tests for exponent-vector monomials and monomial ideal arithmetic."""

import random

import pytest

from graphideals import kernels
from graphideals.kernels import support_mask
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
        assert Monomial(X3, (0, 0, 0)).is_one
        assert Monomial(X3, (0, 0, 0)).degree == 0

    def test_str(self):
        assert str(Monomial(X3, (2, 5, 0))) == "X1^2*X2^5"
        assert str(Monomial(X3, (1, 0, 1))) == "X1*X3"
        assert str(Monomial(X3, (0, 0, 0))) == "1"


class TestDivides:
    def test_divides_basic(self):
        assert divides(Monomial(X2, (1, 1)), Monomial(X2, (2, 3)))

    def test_power_does_not_divide_smaller(self):
        assert not divides(Monomial(X2, (2, 0)), Monomial(X2, (1, 0)))

    def test_one_divides_everything(self):
        assert divides(Monomial(X2, (0, 0)), Monomial(X2, (7, 3)))

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            divides(Monomial(X2, (1, 0)), Monomial(X3, (1, 0, 0)))


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
        # equality, hashing and repr see the context and the rows alone
        I = ideal(X3, (2, 0, 1), (0, 5, 0))
        J = ideal(X3, (0, 5, 0), (2, 0, 1))
        vars(J)["extra"] = "not a field"
        assert I == J and hash(I) == hash(J) == hash((X3, I.rows))
        assert repr(I) == repr(J) == f"MonomialIdeal(context={X3!r}, rows={I.rows!r})"
        other_context = VariableContext(("a", "b", "c"))
        assert I != MonomialIdeal(other_context, I.rows)
        assert I != ideal(X3, (2, 0, 1))

    def test_support_masks_stay_out_of_equality_hash_and_repr(self):
        I = ideal(X3, (0, 5, 0), (2, 0, 1), (3, 5, 0))
        J = ideal(X3, (2, 0, 1), (0, 5, 0))
        assert I == J and hash(I) == hash(J)
        assert repr(I) == f"MonomialIdeal(context={X3!r}, rows={I.rows!r})"

    def test_generators_derived_from_rows(self):
        I = ideal(X2, (0, 5), (2, 0), (3, 1))
        assert I.rows == ((2, 0), (0, 5))
        assert I.generators == (Monomial(X2, (2, 0)), Monomial(X2, (0, 5)))

    def test_unit_is_the_zero_row(self):
        assert MonomialIdeal.unit(X3).rows == ((0, 0, 0),)

    @pytest.mark.parametrize(
        "row",
        [(1, 2), (1, -1, 0), (True, 0, 0), (1.0, 0, 0), "abc", 7, Monomial(X3, (0, 0, 0))],
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
        assert member(I, Monomial(X2, (3, 2)))

    def test_zero_ideal_has_no_members(self):
        assert not member(MonomialIdeal.zero(X2), Monomial(X2, (1, 1)))
        assert not member(MonomialIdeal.zero(X2), Monomial(X2, (0, 0)))

    def test_nonmember(self):
        # X1*X2^4 escapes both generators of (X1^2, X2^5)
        I = ideal(X2, (2, 0), (0, 5))
        assert not member(I, Monomial(X2, (1, 4)))

    def test_unit_contains_one(self):
        assert member(MonomialIdeal.unit(X2), Monomial(X2, (0, 0)))


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

    @pytest.mark.parametrize(
        "origin, message",
        [
            ({0: -1}, "origin targets must be indices below 2, got -1"),
            ({0: 5}, "origin targets must be indices below 2, got 5"),
            ({0: True}, "origin targets must be indices below 2, got True"),
            ({}, "origin has no target for polar variable 0"),
            ([0, 0, 1], r"origin must be a mapping, got \[0, 0, 1\]"),
            (None, "origin must be a mapping, got None"),
        ],
        ids=["negative", "too-large", "bool", "missing", "list", "none"],
    )
    def test_depolarize_rejects_bad_origin(self, origin, message):
        polar = MonomialIdeal(VariableContext.of_dimension(1), [(3,)])
        with pytest.raises(ValueError, match=message):
            depolarize(polar, origin, X2)

    def test_zero_and_unit_depolarize_with_empty_origin(self):
        for I in (MonomialIdeal.zero(X2), MonomialIdeal.unit(X2)):
            _, polar, origin = polarize(I)
            assert depolarize(polar, origin, X2) == I


def seeded_ideal(rng, d, huge):
    """Random rows over d variables, some dividing others; with ``huge``
    about half the positive exponents exceed 10**20."""
    rows = []
    for _ in range(rng.randint(1, 6)):
        row = [rng.randint(0, 3) if rng.random() < 0.6 else 0 for _ in range(d)]
        if huge:
            row = [e + 10**20 if e and rng.random() < 0.5 else e for e in row]
        rows.append(tuple(row))
    return rows


class TestTrustedSites:
    """Every ideal the library builds goes through _of_masked; the
    validating constructor on rows built here from the definitions is
    the oracle: the same rows, masks, equality and hash."""

    def check(self, built, rows):
        oracle = MonomialIdeal(built.context, rows)
        assert built.rows == oracle.rows
        assert built._masked_rows == oracle._masked_rows
        assert built == oracle and hash(built) == hash(oracle)

    def corpus(self):
        rng = random.Random(2011)
        out = []
        for k in range(300):
            X = VariableContext.of_dimension(rng.randint(1, 6))
            rows = seeded_ideal(rng, X.dimension, huge=k % 3 == 0)
            out.append(MonomialIdeal(X, rows))
        for d in (1, 3):
            X = VariableContext.of_dimension(d)
            out += [MonomialIdeal.zero(X), MonomialIdeal.unit(X)]
        return out

    def test_zero_and_unit(self):
        for d in range(1, 6):
            X = VariableContext.of_dimension(d)
            self.check(MonomialIdeal.zero(X), ())
            self.check(MonomialIdeal.unit(X), ((0,) * d,))

    def test_intersect(self):
        ideals = self.corpus()
        rng = random.Random(2012)
        assert any(I.is_zero for I in ideals) and any(I.is_unit for I in ideals)
        assert any(e > 10**20 for I in ideals for r in I.rows for e in r)
        for I in ideals:
            same = [J for J in ideals if J.context == I.context]
            for J in rng.sample(same, min(4, len(same))) + [I]:
                lcms = [tuple(map(max, f, g)) for f in I.rows for g in J.rows]
                self.check(intersect(I, J), lcms)

    def test_m_radical(self):
        for I in self.corpus():
            flat = [tuple(min(e, 1) for e in r) for r in I.rows]
            self.check(m_radical(I), flat)

    def test_polarize_and_depolarize(self):
        # exponents of 10**20 would need as many fresh variables
        ideals = [I for I in self.corpus() if max(map(max, I.rows), default=0) < 5]
        assert len(ideals) > 150
        for I in ideals:
            polar_ctx, polar, origin = polarize(I)
            if polar is not I:
                # x_i^e becomes the first e of max_r r[i] copies of x_i
                d = I.context.dimension
                copies = [max(r[i] for r in I.rows) for i in range(d)]
                rows = [
                    tuple(int(j < r[i]) for i in range(d) for j in range(copies[i]))
                    for r in I.rows
                ]
                self.check(polar, rows)
            self.check(depolarize(polar, origin, I.context), I.rows)

    def test_each_mask_is_computed_once(self, monkeypatch):
        # the validating constructor stores the masks of the sweep, and
        # polarize builds its masks with its rows
        calls = []

        def counted(vec):
            calls.append(vec)
            return support_mask(vec)

        monkeypatch.setattr(kernels, "support_mask", counted)
        X = VariableContext.of_dimension(4)
        rows = [(1, 0, 0, 0), (2, 1, 0, 0), (0, 3, 1, 0), (0, 3, 2, 5), (0, 1, 0, 1)]
        I = MonomialIdeal(X, rows + rows[:2])
        assert len(I.rows) == 3
        assert sorted(calls) == sorted(rows)
        calls.clear()
        _, polar, _ = polarize(I)
        assert calls == [] and len(polar.rows) == 3

    def test_depolarize_collapsing_origins(self):
        # an origin map that merges variables can make rows divide others
        rng = random.Random(2013)
        swept = 0
        for k in range(300):
            polar_ctx = VariableContext.of_dimension(rng.randint(1, 6))
            polar = MonomialIdeal(
                polar_ctx, seeded_ideal(rng, polar_ctx.dimension, huge=k % 3 == 0)
            )
            X = VariableContext.of_dimension(rng.randint(1, 3))
            origin = {j: rng.randrange(X.dimension) for j in range(len(polar_ctx.names))}
            rows = []
            for r in polar.rows:
                vec = [0] * X.dimension
                for j, e in enumerate(r):
                    vec[origin[j]] += e
                rows.append(tuple(vec))
            built = depolarize(polar, origin, X)
            self.check(built, rows)
            swept += len(built.rows) < len(rows)
        assert swept > 50, swept
