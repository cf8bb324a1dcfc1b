"""Weighted graphs, weighted covers, minimization, enumeration, primes."""

import itertools
import random

import pytest

from graphideals.decompose import IrreducibleComponent, split_decompose
from graphideals.graphs import (
    GraphValidationError,
    WeightedGraph,
    _covers,
    _max_feasible_weight,
    associated_primes,
    complete_graph,
    cover_decomposition,
    cover_leq,
    cycle_graph,
    edge_ideal,
    enumerate_minimal_covers,
    is_unmixed,
    is_weighted_cover,
    minimal_primes,
    minimal_vertex_covers,
    minimize_cover,
    path_graph,
    suspend,
    validate_graph,
    weighted_edge_ideal,
)
from graphideals.monomials import MonomialIdeal, ideal_eq
from graphideals.verify import exhaustive_weighted_graphs, random_weighted_graph

P2 = path_graph([2, 5])
P2_EQ = path_graph([2, 2])
C3 = cycle_graph([1, 2, 3])
C5 = cycle_graph([2, 5, 3, 4, 2])


def cover(mapping, graph=C5):
    return IrreducibleComponent(graph.context, tuple(mapping.items()))


def edgeless(n):
    return WeightedGraph(tuple(f"v{i + 1}" for i in range(n)), ())


class TestValidation:
    def test_valid_path(self):
        g = validate_graph(
            {
                "vertices": ["v1", "v2", "v3"],
                "edges": [
                    {"u": "v1", "v": "v2", "w": 2},
                    {"u": "v2", "v": "v3", "w": 5},
                ],
            }
        )
        assert g == P2

    def test_loop_rejected(self):
        with pytest.raises(GraphValidationError) as err:
            WeightedGraph(("a", "b"), ((0, 0, 1),))
        assert err.value.reason == "loop"

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphValidationError) as err:
            WeightedGraph(("a", "b"), ((0, 1, 0),))
        assert err.value.reason == "bad-weight"

    def test_bool_weight_rejected(self):
        with pytest.raises(GraphValidationError) as err:
            WeightedGraph(("a", "b"), ((0, 1, True),))
        assert err.value.reason == "bad-weight"

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphValidationError) as err:
            WeightedGraph(("a", "b"), ((0, 1, 1), (1, 0, 2)))
        assert err.value.reason == "duplicate-edge"

    def test_bad_index_rejected(self):
        with pytest.raises(GraphValidationError) as err:
            WeightedGraph(("a", "b"), ((0, 2, 1),))
        assert err.value.reason == "bad-index"

    @pytest.mark.parametrize(
        "names", [([1],), ({"a": 1}, "b"), (None,)], ids=["list", "dict", "none"]
    )
    def test_unhashable_or_non_string_name_rejected(self, names):
        with pytest.raises(GraphValidationError) as err:
            WeightedGraph(names, ())
        assert err.value.reason == "bad-name"

    @pytest.mark.parametrize(
        "names, edges",
        [(5, ()), (("a", "b"), 5), (("a", "b"), None)],
        ids=["int-names", "int-edges", "none-edges"],
    )
    def test_non_sequence_names_or_edges_rejected(self, names, edges):
        with pytest.raises(GraphValidationError) as err:
            WeightedGraph(names, edges)
        assert err.value.reason == "bad-schema"

    @pytest.mark.parametrize(
        "edge", [(False, True, 1), (0, True, 1), (True, 0, 1)], ids=str
    )
    def test_bool_endpoint_rejected(self, edge):
        with pytest.raises(GraphValidationError) as err:
            WeightedGraph(("a", "b"), (edge,))
        assert err.value.reason == "bad-index"

    @pytest.mark.parametrize(
        "edge", [(0, 1), (0, 1, 1, 1), 7, None], ids=["pair", "quad", "int", "none"]
    )
    def test_non_triple_edge_rejected(self, edge):
        with pytest.raises(GraphValidationError) as err:
            WeightedGraph(("a", "b"), (edge,))
        assert err.value.reason == "bad-schema"

    def test_unknown_field_rejected(self):
        with pytest.raises(GraphValidationError) as err:
            validate_graph({"vertices": ["a"], "edges": [], "extra": 1})
        assert err.value.reason == "bad-schema"

    def test_unknown_edge_field_rejected(self):
        with pytest.raises(GraphValidationError):
            validate_graph(
                {
                    "vertices": ["a", "b"],
                    "edges": [{"u": "a", "v": "b", "w": 1, "tag": "x"}],
                }
            )

    def test_unknown_vertex_name_rejected(self):
        with pytest.raises(GraphValidationError) as err:
            validate_graph(
                {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "c", "w": 1}]}
            )
        assert err.value.reason == "bad-name"

    def test_edges_normalized_and_sorted(self):
        g = WeightedGraph(("a", "b", "c"), ((2, 1, 3), (1, 0, 1)))
        assert [tuple(e) for e in g.edges] == [(0, 1, 1), (1, 2, 3)]

    def test_json_round_trip(self):
        assert validate_graph(C5.to_json_dict()) == C5


class TestIdeals:
    def test_path_edge_ideal(self):
        I = edge_ideal(P2)
        assert ideal_eq(
            I, MonomialIdeal(P2.context, [(1, 1, 0), (0, 1, 1)])
        )

    def test_triangle_edge_ideal(self):
        I = edge_ideal(C3)
        want = MonomialIdeal(
            C3.context, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
        )
        assert ideal_eq(I, want)

    def test_edgeless_zero_ideal(self):
        assert edge_ideal(edgeless(3)).is_zero
        assert weighted_edge_ideal(edgeless(3)).is_zero

    def test_weighted_path(self):
        I = weighted_edge_ideal(P2)
        assert I.rows == ((2, 2, 0), (0, 5, 5))

    def test_weighted_five_cycle(self):
        rows = set(weighted_edge_ideal(C5).rows)
        assert rows == {
            (2, 2, 0, 0, 0),
            (0, 5, 5, 0, 0),
            (0, 0, 3, 3, 0),
            (0, 0, 0, 4, 4),
            (2, 0, 0, 0, 2),
        }

    def test_weight_one_matches_unweighted(self):
        g = cycle_graph([1, 1, 1, 1])
        assert ideal_eq(weighted_edge_ideal(g), edge_ideal(g))


class TestCoverPredicate:
    def test_not_a_cover(self):
        # v1 and v2 both outweigh edge v1v2; v2 outweighs v2v3 as well
        c = cover({0: 3, 1: 6, 3: 3, 4: 2})
        assert not is_weighted_cover(C5, c)

    def test_is_a_cover(self):
        assert is_weighted_cover(C5, cover({0: 2, 1: 5, 3: 3, 4: 2}))

    def test_edgeless_empty_cover(self):
        assert is_weighted_cover(edgeless(2), cover({}, edgeless(2)))

    def test_out_of_range_index(self):
        with pytest.raises(GraphValidationError):
            is_weighted_cover(P2, cover({5: 1}, edgeless(6)))

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            cover({0: 0})


class TestCoverOrder:
    def test_subset_with_equal_weights(self):
        small = cover({0: 2, 1: 5, 3: 3})
        large = cover({0: 2, 1: 5, 3: 3, 4: 2})
        assert cover_leq(small, large)
        assert not cover_leq(large, small)

    def test_weight_raise_is_smaller(self):
        raised = cover({0: 2, 1: 5, 3: 3})
        assert cover_leq(raised, cover({0: 2, 1: 5, 3: 2}))

    def test_reflexive(self):
        c = cover({0: 2, 2: 1})
        assert cover_leq(c, c)

    def test_incomparable(self):
        assert not cover_leq(cover({0: 1}), cover({1: 1}))


class TestCoverIdeal:
    def test_four_entry_cover(self):
        got = cover({0: 2, 1: 5, 3: 3, 4: 2})
        assert str(got) == "(X1^2, X2^5, X4^3, X5^2)"

    def test_empty_cover_zero_ideal(self):
        assert cover({}, P2).ideal().is_zero

    def test_singleton(self):
        assert str(cover({1: 2}, P2)) == "(X2^2)"

    def test_order_matches_ideal_containment(self):
        pool = [
            cover({0: 2, 1: 5, 3: 3}),
            cover({0: 2, 1: 5, 3: 3, 4: 2}),
            cover({0: 2, 1: 5, 3: 2}),
            cover({1: 5}),
        ]
        for c2, c1 in itertools.product(pool, repeat=2):
            lhs = cover_leq(c2, c1)
            rhs = c1.contains(c2)
            assert lhs == rhs


def rescan_minimize(graph, cover):
    """The minimization by definition: phase 1 tries each deletion by
    rescanning every edge of the graph."""
    entries = cover.powers_dict()
    for v in sorted(entries):
        trial = {u: w for u, w in entries.items() if u != v}
        if _covers(graph, trial):
            entries = trial
    for v in sorted(entries):
        cap = _max_feasible_weight(graph, entries, v)
        if cap is not None:
            entries[v] = cap
    return IrreducibleComponent(graph.context, tuple(entries.items()))


def seeded_cover(graph, rng):
    """A random weighted cover: random entries, then one endpoint of each
    edge left uncovered, at a weight up to the edge's."""
    entries = {}
    for v in range(graph.vertex_count):
        if graph.degree(v) and rng.random() < 0.6:
            entries[v] = rng.randint(1, max(graph.incident_weights(v)))
    for u, v, w in graph.edges:
        if min(entries.get(u, w + 1), entries.get(v, w + 1)) > w:
            x = rng.choice((u, v))
            entries[x] = min(entries.get(x, w), rng.randint(1, w))
    return IrreducibleComponent(graph.context, tuple(entries.items()))


class TestMinimize:
    def test_local_deletion_matches_rescan(self):
        rng = random.Random(4807)
        corpus = list(exhaustive_weighted_graphs(4, weights=(1, 2, 3)))
        corpus += [
            random_weighted_graph(rng, max_vertices=8, max_weight=4)
            for _ in range(3000)
        ]
        deleted = 0
        for g in corpus:
            c = seeded_cover(g, rng)
            assert is_weighted_cover(g, c)
            got = minimize_cover(g, c)
            assert got == rescan_minimize(g, c), (g, c)
            deleted += len(got.powers) < len(c.powers)
        assert deleted > 1000, deleted

    def test_removes_superfluous_vertex(self):
        got = minimize_cover(C5, cover({0: 2, 1: 5, 3: 3, 4: 2}))
        assert got == cover({0: 2, 1: 5, 3: 3})

    def test_raises_weight(self):
        got = minimize_cover(C5, cover({0: 2, 1: 5, 3: 2}))
        assert got == cover({0: 2, 1: 5, 3: 3})

    def test_fixed_point(self):
        c = cover({0: 2, 1: 5, 3: 3})
        assert minimize_cover(C5, c) == c

    def test_rejects_non_cover(self):
        with pytest.raises(ValueError, match="not a weighted vertex cover"):
            minimize_cover(C5, cover({0: 3, 1: 6, 3: 3, 4: 2}))

    def test_rejects_other_context(self):
        with pytest.raises(GraphValidationError) as info:
            minimize_cover(P2, cover({0: 2, 1: 5}))
        assert info.value.reason == "bad-index"

    def test_output_among_enumerated(self):
        got = minimize_cover(C5, cover({0: 2, 1: 5, 3: 2}))
        assert got in enumerate_minimal_covers(C5)


class TestEnumerate:
    def test_distinct_weight_path(self):
        got = enumerate_minimal_covers(P2)
        assert got == [
            cover({0: 2, 1: 5}, P2),
            cover({0: 2, 2: 5}, P2),
            cover({1: 2}, P2),
        ]

    def test_equal_weight_path(self):
        got = enumerate_minimal_covers(P2_EQ)
        assert got == [cover({0: 2, 2: 2}, P2_EQ), cover({1: 2}, P2_EQ)]

    def test_single_edge(self):
        g = path_graph([3])
        assert enumerate_minimal_covers(g) == [cover({0: 3}, g), cover({1: 3}, g)]

    def test_edgeless_single_empty_cover(self):
        assert enumerate_minimal_covers(edgeless(2)) == [cover({}, edgeless(2))]

    def test_all_results_are_minimal_covers(self):
        for c in enumerate_minimal_covers(C5):
            assert is_weighted_cover(C5, c)
            assert minimize_cover(C5, c) == c

    def test_antichain(self):
        covers = enumerate_minimal_covers(C5)
        for a, b in itertools.permutations(covers, 2):
            assert not cover_leq(a, b)


class TestCoverDecomposition:
    def test_triangle_golden(self):
        got = cover_decomposition(C3)
        assert [str(c) for c in got.components] == [
            "(X1, X2^2)",
            "(X1, X3^2)",
            "(X1^3, X2)",
            "(X2, X3^3)",
        ]

    def test_triangle_formula_all_orderings(self):
        # components (X1^a,X2^b), (X1^a,X3^b), (X1^c,X2^a), (X2^a,X3^c)
        # intersect to the edge ideal whenever a <= b <= c; the four are
        # irredundant exactly when a < b
        for a, b, c in itertools.product(range(1, 4), repeat=3):
            if not a <= b <= c:
                continue
            g = cycle_graph([a, b, c])
            ctx = g.context
            formula = [
                IrreducibleComponent(ctx, ((0, a), (1, b))),
                IrreducibleComponent(ctx, ((0, a), (2, b))),
                IrreducibleComponent(ctx, ((0, c), (1, a))),
                IrreducibleComponent(ctx, ((1, a), (2, c))),
            ]
            acc = MonomialIdeal.unit(ctx)
            from graphideals.monomials import intersect

            for comp in formula:
                acc = intersect(acc, comp.ideal())
            assert ideal_eq(acc, weighted_edge_ideal(g))
            if a < b:
                assert set(cover_decomposition(g).components) == set(formula)

    def test_two_components_share_support(self):
        supports = [c.support for c in cover_decomposition(C3).components]
        assert supports.count((0, 1)) == 2

    def test_path_intersects_back(self):
        D = cover_decomposition(P2)
        assert ideal_eq(D.intersection(), weighted_edge_ideal(P2))

    def test_agrees_with_split(self):
        for g in (P2, P2_EQ, C3, C5):
            assert (
                cover_decomposition(g).components
                == split_decompose(weighted_edge_ideal(g)).components
            )

    def test_edgeless(self):
        D = cover_decomposition(edgeless(2))
        assert len(D) == 1
        assert D.intersection().is_zero


class TestUnmixed:
    def test_triangle_unmixed(self):
        for weights in itertools.product((1, 2, 3), repeat=3):
            res = is_unmixed(cycle_graph(list(weights)))
            assert res.unmixed
            assert res.cardinality == 2

    def test_path_mixed(self):
        res = is_unmixed(P2)
        assert not res.unmixed
        cards = sorted(c.m_height for c in res.witnesses)
        assert cards == [1, 2]

    def test_four_cycle_mixed(self):
        res = is_unmixed(cycle_graph([1, 1, 1, 2]))
        assert not res.unmixed

    def test_edgeless_unmixed(self):
        res = is_unmixed(edgeless(3))
        assert res.unmixed
        assert res.cardinality == 0


class TestPrimes:
    def test_path_minimal_covers(self):
        assert minimal_vertex_covers(path_graph([1, 1])) == [(0, 2), (1,)]

    def test_five_cycle_covers(self):
        got = minimal_vertex_covers(cycle_graph([1] * 5))
        assert got == [(0, 1, 3), (0, 2, 3), (0, 2, 4), (1, 2, 4), (1, 3, 4)]

    def test_complete_graph_covers(self):
        for n in (2, 3, 4):
            got = minimal_vertex_covers(complete_graph(n))
            assert got == sorted(
                itertools.combinations(range(n), n - 1)
            )

    def test_minimal_primes_ignore_weights(self):
        assert minimal_primes(P2) == minimal_primes(P2_EQ) == [(0, 2), (1,)]

    def test_edgeless_primes(self):
        assert minimal_primes(edgeless(2)) == [()]

    def test_associated_primes_distinct_weights(self):
        assert associated_primes(P2) == [(0, 1), (0, 2), (1,)]

    def test_associated_primes_equal_weights(self):
        assert associated_primes(P2_EQ) == [(0, 2), (1,)]

    def test_associated_primes_triangle(self):
        assert associated_primes(C3) == [(0, 1), (0, 2), (1, 2)]


class TestBuilders:
    def test_path_shape(self):
        g = path_graph([1, 2, 3])
        assert g.vertex_count == 4
        assert [tuple(e) for e in g.edges] == [(0, 1, 1), (1, 2, 2), (2, 3, 3)]

    def test_cycle_shape(self):
        g = cycle_graph([1, 2, 3, 4])
        assert (0, 3, 4) in [tuple(e) for e in g.edges]

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle_graph([1, 2])

    def test_complete_edge_count(self):
        g = complete_graph(5, 3)
        assert len(g.edges) == 10
        assert all(e.w == 3 for e in g.edges)

    def test_complete_weights_sequence(self):
        g = complete_graph(3, [1, 2, 3])
        assert [e.w for e in g.edges] == [1, 2, 3]

    def test_suspend_shape(self):
        base = path_graph([2])
        g = suspend(base, [3, 4])
        assert g.vertex_count == 4
        assert g.vertex_names[2:] == ("w1", "w2")
        assert (0, 2, 3) in [tuple(e) for e in g.edges]
        assert (1, 3, 4) in [tuple(e) for e in g.edges]

    def test_suspend_weight_count_must_match(self):
        with pytest.raises(ValueError):
            suspend(path_graph([2]), [3])


class TestCoverValue:
    def test_support_cardinality(self):
        c = cover({3: 1, 0: 2})
        assert c.support == (0, 3)
        assert c.m_height == 2
        assert c.powers_dict() == {0: 2, 3: 1}
