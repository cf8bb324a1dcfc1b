"""Family recognition and theorem-backed unmixedness / CM verdicts.

Every classifier verdict is cross-checked against brute-force minimal
weighted cover enumeration on small exhaustive corpora, so the golden
values here never rest on the classifier alone.  The suspension splits
are checked against ``exhaustive_suspensions``, the search over every
set of d/2 leaves that the library replaced with a linear rule.
"""

import itertools
import random

import pytest

from graphideals import classify
from graphideals.classify import (
    CM_NO,
    CM_UNKNOWN,
    CM_YES,
    FAMILIES,
    FamilyMismatchError,
    SuspensionDecomposition,
    Verdict,
    classify_auto,
    classify_complete,
    classify_cycle,
    classify_suspension,
    classify_tree,
    cycle_weight_sequence,
    recognize_suspensions,
    suspension_split,
)
from graphideals.graphs import (
    Edge,
    WeightedGraph,
    complete_graph,
    cycle_graph,
    is_unmixed,
    path_graph,
    suspend,
)
from graphideals.verify import exhaustive_weighted_graphs, random_weighted_graph


def exhaustive_suspensions(graph):
    """Every split, by trying each set of d/2 leaves as the whiskers.

    The definition read directly: the chosen leaves' neighbors must be
    distinct, must not be chosen themselves, and must be all the other
    vertices.  Lists the splits by their sorted whisker vertices.
    """
    d = graph.vertex_count
    if d % 2:
        return []
    leaves = [v for v in range(d) if graph.degree(v) == 1]
    out = []
    for choice in itertools.combinations(leaves, d // 2):
        whisker_set = set(choice)
        base = [v for v in range(d) if v not in whisker_set]
        mapping = {}
        ok = True
        for w in choice:
            anchor = graph.neighbors(w)[0]
            if anchor in whisker_set or anchor in mapping:
                ok = False
                break
            mapping[anchor] = w
        if ok and len(mapping) == len(base):
            out.append(SuspensionDecomposition(tuple(base), tuple(mapping.items())))
    return out


def with_isolated_edges(graph, count, isolated_vertices):
    """``graph`` plus ``count`` isolated unit edges and isolated vertices."""
    d = graph.vertex_count
    names = graph.vertex_names + tuple(
        f"x{i}" for i in range(2 * count + isolated_vertices)
    )
    edges = graph.edges + tuple(
        Edge(d + 2 * i, d + 2 * i + 1, 1) for i in range(count)
    )
    return WeightedGraph(names, edges)


def sparse_random_graph(rng, max_vertices):
    """A random graph drawn as ``random_weighted_graph`` draws one, with
    edge probability 0.4 instead of 0.5."""
    d = rng.randint(1, max_vertices)
    names = tuple(f"v{i + 1}" for i in range(d))
    edges = []
    for u, v in itertools.combinations(range(d), 2):
        if rng.random() < 0.4:
            edges.append(Edge(u, v, rng.randint(1, 3)))
    return WeightedGraph(names, tuple(edges))


def shuffled(graph, rng):
    """The same graph with its vertex indices permuted."""
    order = list(range(graph.vertex_count))
    rng.shuffle(order)
    edges = tuple(Edge(order[u], order[v], w) for u, v, w in graph.edges)
    return WeightedGraph(graph.vertex_names, edges)


def rotations_and_reflections(weights):
    w = list(weights)
    for _ in range(2):
        for r in range(len(w)):
            yield tuple(w[r:] + w[:r])
        w.reverse()


class TestVerdictValue:
    def test_cm_yes_requires_unmixed(self):
        with pytest.raises(ValueError):
            Verdict("cycle", False, CM_YES, {}, "broken")

    def test_cm_value_restricted(self):
        with pytest.raises(ValueError):
            Verdict("cycle", True, "maybe", {}, "broken")


class TestCycleVerdicts:
    def test_three_cycle_always_cm(self):
        for w in itertools.product((1, 2, 3), repeat=3):
            v = classify_cycle(cycle_graph(list(w)))
            assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_four_cycle_trivial_unmixed_never_cm(self):
        v = classify_cycle(cycle_graph([2, 2, 2, 2]))
        assert v.unmixed and v.cohen_macaulay == CM_NO

    def test_four_cycle_nontrivial_mixed(self):
        v = classify_cycle(cycle_graph([1, 1, 1, 2]))
        assert not v.unmixed and v.cohen_macaulay == CM_NO

    def test_five_cycle_alternating_pattern(self):
        v = classify_cycle(cycle_graph([1, 2, 1, 2, 1]))
        assert v.unmixed and v.cohen_macaulay == CM_YES
        assert v.certificate["pattern"] is not None

    def test_five_cycle_no_arrangement(self):
        v = classify_cycle(cycle_graph([2, 2, 1, 1, 1]))
        assert not v.unmixed and v.cohen_macaulay == CM_NO

    def test_five_cycle_worked_weights(self):
        # e = a = 2 with 2 <= 5 >= 3 <= 4 >= 2
        v = classify_cycle(cycle_graph([2, 5, 3, 4, 2]))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_seven_cycle(self):
        assert classify_cycle(cycle_graph([1] * 7)).unmixed
        assert classify_cycle(cycle_graph([1] * 7)).cohen_macaulay == CM_NO
        assert not classify_cycle(cycle_graph([1, 1, 1, 1, 1, 1, 2])).unmixed

    def test_six_cycle_always_mixed(self):
        assert not classify_cycle(cycle_graph([1] * 6)).unmixed
        assert not classify_cycle(cycle_graph([1, 2, 1, 2, 1, 2])).unmixed

    def test_dihedral_invariance(self):
        base = (1, 3, 2, 3, 1)
        verdicts = {
            classify_cycle(cycle_graph(list(w))).unmixed
            for w in rotations_and_reflections(base)
        }
        assert len(verdicts) == 1

    def test_rejects_non_cycle(self):
        for g in (path_graph([1, 2, 3]), complete_graph(4), path_graph([1])):
            with pytest.raises(FamilyMismatchError, match="not a cycle"):
                classify_cycle(g)

    def test_exhaustive_against_enumeration(self):
        # lengths 3..7, all weight tuples in {1,2}^n
        for n in range(3, 8):
            for w in itertools.product((1, 2), repeat=n):
                g = cycle_graph(list(w))
                assert classify_cycle(g).unmixed == is_unmixed(g).unmixed, (n, w)


class TestCompleteVerdicts:
    def test_all_weightings_unmixed_cm(self):
        for w in itertools.product((1, 2, 3), repeat=3):
            v = classify_complete(complete_graph(3, list(w)))
            assert v.unmixed and v.cohen_macaulay == CM_YES
            assert v.certificate["minimal_cover_cardinality"] == 2

    def test_distinct_weights_k4(self):
        v = classify_complete(complete_graph(4, [1, 2, 3, 4, 5, 6]))
        assert v.unmixed
        covers = is_unmixed(complete_graph(4, [1, 2, 3, 4, 5, 6]))
        assert covers.unmixed and covers.cardinality == 3

    def test_single_edge_is_k2(self):
        v = classify_complete(complete_graph(2, 9))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_rejects_non_complete(self):
        with pytest.raises(FamilyMismatchError):
            classify_complete(path_graph([1, 1]))


class TestRecognizeSuspensions:
    def test_four_path(self):
        decs = recognize_suspensions(path_graph([1, 1, 1]))
        assert len(decs) == 1
        assert decs[0].base_vertices == (1, 2)
        assert decs[0].whisker_of() == {1: 0, 2: 3}

    def test_whiskered_triangle(self):
        g = suspend(cycle_graph([1, 1, 1]), [1, 1, 1])
        decs = recognize_suspensions(g)
        assert len(decs) == 1
        assert decs[0].base_vertices == (0, 1, 2)

    def test_single_edge_two_ways(self):
        assert len(recognize_suspensions(path_graph([4]))) == 2

    def test_odd_vertex_count_none(self):
        assert recognize_suspensions(path_graph([1, 1])) == []

    def test_triangle_none(self):
        assert recognize_suspensions(cycle_graph([1, 1, 1])) == []

    def test_matches_oracle_small_graphs(self):
        # weights play no part in which vertices split
        for g in exhaustive_weighted_graphs(5, weights=(1,)):
            assert recognize_suspensions(g) == exhaustive_suspensions(g), g

    def test_matches_oracle_with_isolated_edges(self):
        rng = random.Random(20261019)
        for trial in range(60):
            base = random_weighted_graph(rng, max_vertices=4)
            g = suspend(base, [1] * base.vertex_count)
            for isolated_vertices in (0, 1):
                h = shuffled(
                    with_isolated_edges(g, rng.randint(1, 6), isolated_vertices), rng
                )
                assert recognize_suspensions(h) == exhaustive_suspensions(h), h

    def test_large_stars_none(self):
        for leaves in (41, 201):
            star = WeightedGraph(
                ("hub",) + tuple(f"l{i}" for i in range(leaves)),
                tuple(Edge(0, i, 1) for i in range(1, leaves + 1)),
            )
            assert recognize_suspensions(star) == []

    def test_twelve_isolated_edges(self):
        g = WeightedGraph(
            tuple(f"v{i}" for i in range(24)),
            tuple(Edge(2 * i, 2 * i + 1, 1) for i in range(12)),
        )
        decs = recognize_suspensions(g)
        assert len(decs) == len(set(decs)) == 4096
        assert classify_suspension(g).cohen_macaulay == CM_YES


class TestSuspensionSplit:
    """suspension_split finds the exhaustive search's first split."""

    def assert_first_split(self, g):
        decs = exhaustive_suspensions(g)
        assert suspension_split(g) == (decs[0] if decs else None)

    def test_exhaustive_small_graphs(self):
        for g in exhaustive_weighted_graphs(4):
            self.assert_first_split(g)

    def test_random_suspensions(self):
        rng = random.Random(20261017)
        for trial in range(200):
            base = sparse_random_graph(rng, max_vertices=5)
            g = suspend(base, [rng.randint(1, 3) for _ in base.vertex_names])
            order = list(range(g.vertex_count))
            rng.shuffle(order)
            edges = [Edge(order[u], order[v], w) for u, v, w in g.edges]
            g = WeightedGraph(g.vertex_names, tuple(edges))
            assert suspension_split(g) is not None
            self.assert_first_split(g)
            dropped = edges[:]
            del dropped[rng.randrange(len(dropped))]
            self.assert_first_split(WeightedGraph(g.vertex_names, tuple(dropped)))

    def test_isolated_edges_take_smaller_whisker(self):
        g = WeightedGraph(("a", "b", "c", "d"), ((0, 1, 1), (2, 3, 5)))
        assert suspension_split(g).whisker_of() == {1: 0, 3: 2}

    def test_shared_anchor_none(self):
        star = WeightedGraph(
            ("hub", "a", "b", "c"), ((0, 1, 1), (0, 2, 1), (0, 3, 1))
        )
        assert suspension_split(star) is None


class TestSuspensionVerdicts:
    def suspension_of_edge(self, base, left, right):
        return suspend(path_graph([base]), [left, right])

    def test_light_base_is_cm(self):
        v = classify_suspension(self.suspension_of_edge(1, 3, 2))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_heavy_base_is_mixed(self):
        v = classify_suspension(self.suspension_of_edge(4, 3, 5))
        assert not v.unmixed and v.cohen_macaulay == CM_NO
        assert v.certificate["violations"]

    def test_pure_whiskers_vacuous(self):
        base = WeightedGraph(("a", "b"), ())
        v = classify_suspension(suspend(base, [2, 7]))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_condition_matches_enumeration(self):
        for base_w, w1, w2 in itertools.product((1, 2, 3), repeat=3):
            g = self.suspension_of_edge(base_w, w1, w2)
            assert classify_suspension(g).unmixed == is_unmixed(g).unmixed

    def test_base_vertex_without_whisker_rejected(self):
        # triangle a-b-c with whisker w on a: b and c have no whiskers
        g = WeightedGraph(
            ("a", "b", "c", "w"), ((0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1))
        )
        with pytest.raises(FamilyMismatchError):
            classify_suspension(g)

    def test_isolated_base_vertex_rejected(self):
        # edge a-w plus the isolated vertex b, which has no whisker
        g = WeightedGraph(("a", "b", "w"), ((0, 2, 1),))
        with pytest.raises(FamilyMismatchError):
            classify_suspension(g)

    def test_accepts_exactly_the_oracle_splits(self):
        # a graph is accepted exactly when the leaf-subset search splits
        # it (one edge, three matchings and twelve 4-paths), and the
        # certificate names the first split's whiskers
        accepted = 0
        for g in exhaustive_weighted_graphs(4, weights=(1,)):
            splits = exhaustive_suspensions(g)
            try:
                v = classify_suspension(g)
            except FamilyMismatchError:
                assert not splits, g
                continue
            names = g.vertex_names
            assert v.certificate["whiskers"] == {
                names[a]: names[w] for a, w in splits[0].whiskers
            }, g
            accepted += 1
        assert accepted == 16

    def test_every_split_gives_one_verdict(self):
        # isolated edges join no base edge, so the split that
        # classify_suspension picks decides nothing
        twelve_edges = WeightedGraph(
            tuple(f"v{i}" for i in range(24)),
            tuple(Edge(2 * i, 2 * i + 1, 1) for i in range(12)),
        )
        split_counts = []
        for g in [*exhaustive_weighted_graphs(4), twelve_edges]:
            outcomes = [
                classify._suspension_condition(g, dec)
                for dec in recognize_suspensions(g)
            ]
            assert all(outcome == outcomes[0] for outcome in outcomes), g
            split_counts.append(len(outcomes))
        assert split_counts[-1] == 4096
        assert max(split_counts[:-1]) == 4


class TestTreeVerdicts:
    def test_single_edge(self):
        v = classify_tree(path_graph([5]))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_single_vertex(self):
        v = classify_tree(WeightedGraph(("a",), ()))
        assert v.cohen_macaulay == CM_YES

    def test_three_vertex_path_mixed(self):
        v = classify_tree(path_graph([1, 1]))
        assert not v.unmixed and v.cohen_macaulay == CM_NO
        assert v.certificate == {"reason": "no valid suspension structure"}

    def test_four_path_middle_light(self):
        v = classify_tree(path_graph([3, 1, 2]))
        assert v.unmixed and v.cohen_macaulay == CM_YES
        assert v.certificate["whiskers"] == {"v2": "v1", "v3": "v4"}

    def test_four_path_middle_heavy(self):
        v = classify_tree(path_graph([1, 2, 1]))
        assert not v.unmixed and v.cohen_macaulay == CM_NO

    def test_star_mixed(self):
        # K_{1,3}: four vertices, odd split impossible around the hub
        g = WeightedGraph(
            ("hub", "a", "b", "c"), ((0, 1, 1), (0, 2, 1), (0, 3, 1))
        )
        v = classify_tree(g)
        assert not v.unmixed

    def test_rejects_cycle(self):
        with pytest.raises(FamilyMismatchError):
            classify_tree(cycle_graph([1, 1, 1]))

    def test_exhaustive_small_trees(self):
        # every labeled tree shape on <= 5 vertices via pruefer sequences,
        # weights in {1,2}
        import itertools as it

        def tree_edges(prufer, n):
            degree = [1] * n
            for x in prufer:
                degree[x] += 1
            edges = []
            seq = list(prufer)
            leaves = sorted(v for v in range(n) if degree[v] == 1)
            for x in seq:
                leaf = leaves.pop(0)
                edges.append((leaf, x))
                degree[x] -= 1
                if degree[x] == 1:
                    import bisect

                    bisect.insort(leaves, x)
            edges.append((leaves[0], leaves[1]))
            return edges

        shapes = set()
        for n in range(2, 6):
            if n == 2:
                all_prufer = [()]
            else:
                all_prufer = it.product(range(n), repeat=n - 2)
            for prufer in all_prufer:
                edges = tuple(
                    sorted((min(u, v), max(u, v)) for u, v in tree_edges(prufer, n))
                )
                shapes.add((n, edges))
        checked = 0
        for n, edges in shapes:
            for ws in it.product((1, 2), repeat=len(edges)):
                g = WeightedGraph(
                    tuple(f"v{i + 1}" for i in range(n)),
                    tuple((u, v, w) for (u, v), w in zip(edges, ws)),
                )
                assert classify_tree(g).unmixed == is_unmixed(g).unmixed
                checked += 1
        assert checked > 100


class TestPathVerdicts:
    """Paths are trees: ``classify_tree`` decides them."""

    def test_length_one(self):
        v = classify_tree(path_graph([9]))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_length_three_light_middle(self):
        v = classify_tree(path_graph([3, 1, 2]))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_length_three_heavy_middle(self):
        v = classify_tree(path_graph([1, 2, 1]))
        assert not v.unmixed and v.cohen_macaulay == CM_NO

    def test_length_four_trivial(self):
        v = classify_tree(path_graph([1, 1, 1, 1]))
        assert not v.unmixed and v.cohen_macaulay == CM_NO

    def test_length_two(self):
        assert not classify_tree(path_graph([2, 2])).unmixed

    def test_rejects_cycle(self):
        with pytest.raises(FamilyMismatchError):
            classify_tree(cycle_graph([1, 1, 1]))

    def test_exhaustive_against_enumeration(self):
        # 3 + 9 + ... + 3^7 = 3279 paths
        checked = 0
        for length in range(1, 8):
            for w in itertools.product((1, 2, 3), repeat=length):
                g = path_graph(list(w))
                unmixed = is_unmixed(g).unmixed
                # the rule for paths read off the tree rule: CM exactly
                # at one edge, or at three edges with a light middle
                cm = length == 1 or (length == 3 and w[1] <= min(w[0], w[2]))
                expected = (unmixed, CM_YES if unmixed else CM_NO)
                assert unmixed == cm, w
                for verdict in (classify_auto(g), classify_tree(g)):
                    assert (verdict.unmixed, verdict.cohen_macaulay) == expected, w
                checked += 1
        assert checked == 3279


class TestAuto:
    def test_triangle_routes_to_complete(self):
        v = classify_auto(cycle_graph([1, 2, 3]))
        assert v.family == "complete"
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_square_routes_to_cycle(self):
        assert classify_auto(cycle_graph([1, 1, 1, 1])).family == "cycle"

    def test_path_routes_to_tree(self):
        assert classify_auto(path_graph([1, 1])).family == "tree"

    def test_star_routes_to_tree(self):
        g = WeightedGraph(
            ("hub", "a", "b", "c"), ((0, 1, 1), (0, 2, 1), (0, 3, 1))
        )
        assert classify_auto(g).family == "tree"

    def test_whiskered_triangle_routes_to_suspension(self):
        g = suspend(cycle_graph([1, 1, 1]), [2, 2, 2])
        v = classify_auto(g)
        assert v.family == "suspension"
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_generic_fallback(self):
        # triangle with one pendant: no family applies
        g = WeightedGraph(
            ("a", "b", "c", "d"),
            ((0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)),
        )
        v = classify_auto(g)
        assert v.family == "generic"
        assert v.cohen_macaulay == CM_UNKNOWN
        assert v.unmixed == is_unmixed(g).unmixed

    def test_single_edge_routes_to_complete(self):
        assert classify_auto(path_graph([3])).family == "complete"

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(classify, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(classify, name, counted)
        return calls

    def test_path_recognized_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "_is_tree")
        assert classify_auto(path_graph([1, 2, 3])).family == "tree"
        assert len(calls) == 1

    def test_suspension_split_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "suspension_split")
        v = classify_auto(suspend(complete_graph(3), [2, 2, 2]))
        assert (v.family, v.unmixed) == ("suspension", True)
        assert len(calls) == 1

    def test_tree_recognized_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "_is_tree")
        # a star with five leaves: not a suspension
        g = WeightedGraph(tuple("habcde"), tuple((0, v, v) for v in range(1, 6)))
        v = classify_auto(g)
        assert (v.family, v.certificate) == (
            "tree",
            {"reason": "no valid suspension structure"},
        )
        assert len(calls) == 1

    def test_families_in_priority_order(self):
        # each entry is the public classifier of the graph alone
        assert list(FAMILIES.items()) == [
            ("complete", classify_complete),
            ("cycle", classify_cycle),
            ("tree", classify_tree),
            ("suspension", classify_suspension),
        ]

    def test_cycle_weight_sequence(self):
        assert cycle_weight_sequence(cycle_graph([2, 5, 3, 4, 2])) == (
            2,
            5,
            3,
            4,
            2,
        )
