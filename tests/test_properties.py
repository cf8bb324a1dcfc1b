"""Property-based tests for the algebraic invariants.

Each property is one law the library promises: canonical forms are
stable, membership distributes over intersection, decompositions
reconstruct their input, the cover order mirrors ideal containment,
and the graph-level identities (radical, bracket power) hold for every
generated instance.
"""

import itertools

from hypothesis import assume, given, settings, strategies as st

from graphideals.decompose import IrreducibleComponent, split_decompose
from graphideals.graphs import (
    WeightedGraph,
    cover_decomposition,
    cover_leq,
    edge_ideal,
    enumerate_minimal_covers,
    is_unmixed,
    is_weighted_cover,
    minimal_vertex_covers,
    minimize_cover,
    weighted_edge_ideal,
)
from graphideals.monomials import (
    Monomial,
    MonomialIdeal,
    VariableContext,
    bracket_power,
    depolarize,
    ideal_eq,
    ideal_leq,
    intersect,
    m_radical,
    member,
    polarize,
)
from test_monomials import is_m_irreducible


@st.composite
def context_and_rows(draw, max_dim=4, max_exp=4, max_gens=5, lists=1):
    d = draw(st.integers(1, max_dim))
    row = st.tuples(*([st.integers(0, max_exp)] * d))
    ctx = VariableContext.of_dimension(d)
    drawn = tuple(
        draw(st.lists(row, min_size=0, max_size=max_gens)) for _ in range(lists)
    )
    return (ctx,) + drawn


@st.composite
def ideal_pair(draw, **kw):
    ctx, rows1, rows2 = draw(context_and_rows(lists=2, **kw))
    return (
        ctx,
        MonomialIdeal(ctx, rows1),
        MonomialIdeal(ctx, rows2),
    )


@st.composite
def ideal_and_monomial(draw, max_exp=6):
    ctx, rows, single = draw(context_and_rows(max_exp=max_exp, lists=2))
    assume(single)
    return ctx, MonomialIdeal(ctx, rows), Monomial(ctx, single[0])


@st.composite
def ideal_and_member(draw, max_exp=4):
    """A nonzero ideal with a monomial in it: a generator times a cofactor."""
    ctx, rows, extra = draw(context_and_rows(max_exp=max_exp, lists=2))
    assume(rows and extra)
    g = draw(st.sampled_from(rows))
    m = tuple(a + b for a, b in zip(g, extra[0]))
    return ctx, MonomialIdeal(ctx, rows), Monomial(ctx, m)


@st.composite
def weighted_graphs(draw, max_vertices=5, max_weight=3, min_edges=0):
    n = draw(st.integers(2, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(
        st.lists(
            st.sampled_from(pairs),
            min_size=min_edges,
            max_size=len(pairs),
            unique=True,
        )
    )
    edges = tuple(
        (u, v, draw(st.integers(1, max_weight))) for u, v in sorted(chosen)
    )
    return WeightedGraph(tuple(f"v{i + 1}" for i in range(n)), edges)


class TestCanonicalForms:
    @given(context_and_rows())
    def test_canonicalization_idempotent(self, drawn):
        ctx, rows = drawn
        once = MonomialIdeal(ctx, rows)
        twice = MonomialIdeal(ctx, once.rows)
        assert once.rows == twice.rows

    @given(ideal_pair())
    def test_eq_is_mutual_leq(self, drawn):
        ctx, I, J = drawn
        assert ideal_eq(I, J) == (ideal_leq(I, J) and ideal_leq(J, I))

    @given(context_and_rows())
    def test_generators_are_minimal(self, drawn):
        ctx, rows = drawn
        I = MonomialIdeal(ctx, rows)
        for i, a in enumerate(I.generators):
            for j, b in enumerate(I.generators):
                if i != j:
                    from graphideals.monomials import divides

                    assert not divides(a, b)


class TestMembership:
    @given(ideal_and_monomial())
    def test_intersection_coherent(self, drawn):
        ctx, I, m = drawn
        rows2 = [tuple(reversed(r)) for r in I.rows]
        J = MonomialIdeal(ctx, rows2)
        both = member(I, m) and member(J, m)
        assert member(intersect(I, J), m) == both

    @given(ideal_pair(max_exp=3))
    def test_intersection_inside_both(self, drawn):
        ctx, I, J = drawn
        K = intersect(I, J)
        assert ideal_leq(K, I) and ideal_leq(K, J)

    @given(ideal_and_member())
    def test_bracket_power_membership(self, drawn):
        ctx, I, m = drawn
        assert member(I, m)
        cubed = Monomial(ctx, tuple(e * 3 for e in m.exponents))
        assert member(bracket_power(I, 3), cubed)


class TestRadical:
    @given(context_and_rows())
    def test_idempotent(self, drawn):
        ctx, rows = drawn
        I = MonomialIdeal(ctx, rows)
        assert ideal_eq(m_radical(m_radical(I)), m_radical(I))

    @given(ideal_pair())
    def test_monotone(self, drawn):
        ctx, I, J = drawn
        assume(ideal_leq(I, J))
        assert ideal_leq(m_radical(I), m_radical(J))


class TestPolarization:
    @given(context_and_rows(max_exp=5))
    def test_round_trip_and_squarefree(self, drawn):
        ctx, rows = drawn
        I = MonomialIdeal(ctx, rows)
        polar_ctx, polar, origin = polarize(I)
        assert all(e <= 1 for row in polar.rows for e in row)
        assert ideal_eq(depolarize(polar, origin, ctx), I)


class TestSplitDecompose:
    @given(context_and_rows(max_exp=4))
    @settings(deadline=None)
    def test_reconstruction(self, drawn):
        ctx, rows = drawn
        I = MonomialIdeal(ctx, rows)
        assume(not I.is_unit)
        D = split_decompose(I)
        assert ideal_eq(D.intersection(), I)

    @given(context_and_rows(max_exp=3, max_gens=4))
    @settings(deadline=None)
    def test_components_irreducible_and_irredundant(self, drawn):
        ctx, rows = drawn
        I = MonomialIdeal(ctx, rows)
        assume(not I.is_unit)
        comps = split_decompose(I).components
        for c in comps:
            assert is_m_irreducible(c.ideal())
        for a, b in itertools.permutations(comps, 2):
            assert not a.contains(b)

    @given(ideal_pair(max_exp=3, max_gens=3))
    @settings(deadline=None)
    def test_containment_splitting(self, drawn):
        # if A meet B lies inside m-irreducible C, one factor already does
        ctx, A, B = drawn
        assume(not A.is_unit and not B.is_unit)
        both = intersect(A, B)
        assume(not both.is_unit)
        for c in split_decompose(both).components:
            C = c.ideal()
            assert ideal_leq(A, C) or ideal_leq(B, C)


class TestCoverOrder:
    @given(weighted_graphs(min_edges=1), st.data())
    @settings(deadline=None)
    def test_leq_matches_ideal_containment(self, graph, data):
        ctx = graph.context
        max_w = max(e.w for e in graph.edges) + 1
        entry = st.dictionaries(
            st.integers(0, graph.vertex_count - 1),
            st.integers(1, max_w),
            max_size=graph.vertex_count,
        )
        c1 = IrreducibleComponent(ctx, tuple(data.draw(entry).items()))
        c2 = IrreducibleComponent(ctx, tuple(data.draw(entry).items()))
        lhs = cover_leq(c2, c1)
        rhs = ideal_leq(c2.ideal(), c1.ideal())
        # the zero ideal of the empty cover is inside everything, but the
        # empty cover is only below itself; skip that corner
        if not c2.powers:
            return
        assert lhs == rhs

    @given(weighted_graphs(min_edges=1), st.data())
    @settings(deadline=None)
    def test_cover_predicate_matches_containment(self, graph, data):
        ctx = graph.context
        max_w = max(e.w for e in graph.edges) + 1
        entries = data.draw(
            st.dictionaries(
                st.integers(0, graph.vertex_count - 1),
                st.integers(1, max_w),
                max_size=graph.vertex_count,
            )
        )
        c = IrreducibleComponent(ctx, tuple(entries.items()))
        lhs = is_weighted_cover(graph, c)
        rhs = ideal_leq(weighted_edge_ideal(graph), c.ideal())
        assert lhs == rhs


class TestGraphIdentities:
    @given(weighted_graphs())
    @settings(deadline=None)
    def test_routes_agree(self, graph):
        I = weighted_edge_ideal(graph)
        assert (
            cover_decomposition(graph).components
            == split_decompose(I).components
        )

    @given(weighted_graphs())
    @settings(deadline=None)
    def test_radical_flattens(self, graph):
        assert ideal_eq(m_radical(weighted_edge_ideal(graph)), edge_ideal(graph))

    @given(weighted_graphs(max_weight=1), st.integers(1, 4))
    @settings(deadline=None)
    def test_trivial_weights_are_bracket_powers(self, graph, a):
        lifted = WeightedGraph(
            graph.vertex_names, tuple((u, v, a) for u, v, _ in graph.edges)
        )
        assert ideal_eq(
            weighted_edge_ideal(lifted), bracket_power(edge_ideal(graph), a)
        )

    @given(weighted_graphs(max_weight=1), st.integers(2, 3))
    @settings(deadline=None)
    def test_trivial_unmixedness_is_weight_free(self, graph, a):
        lifted = WeightedGraph(
            graph.vertex_names, tuple((u, v, a) for u, v, _ in graph.edges)
        )
        unweighted_cards = {len(s) for s in minimal_vertex_covers(graph)}
        assert is_unmixed(lifted).unmixed == (len(unweighted_cards) == 1)


class TestMinimization:
    @given(weighted_graphs(min_edges=1), st.data())
    @settings(deadline=None)
    def test_minimize_is_sound(self, graph, data):
        covers = enumerate_minimal_covers(graph)
        seed = data.draw(st.sampled_from(covers))
        # inflate with one extra vertex, then re-minimize
        entries = seed.powers_dict()
        outside = [
            v
            for v in range(graph.vertex_count)
            if v not in entries and graph.degree(v) > 0
        ]
        if outside:
            v = data.draw(st.sampled_from(outside))
            entries[v] = min(graph.incident_weights(v))
        fat = IrreducibleComponent(graph.context, tuple(entries.items()))
        assume(is_weighted_cover(graph, fat))
        got = minimize_cover(graph, fat)
        assert is_weighted_cover(graph, got)
        assert cover_leq(got, fat)
        assert got in covers

    @given(weighted_graphs(min_edges=1))
    @settings(deadline=None)
    def test_unweighted_covers_lift(self, graph):
        weighted = {c.support for c in enumerate_minimal_covers(graph)}
        for support in minimal_vertex_covers(graph):
            lift = IrreducibleComponent(
                graph.context,
                tuple((v, min(graph.incident_weights(v))) for v in support),
            )
            assert is_weighted_cover(graph, lift)
            minimal = minimize_cover(graph, lift)
            assert minimal.support == support
            assert support in weighted
