"""Family recognition and theorem-backed unmixedness / CM verdicts.

Every classifier verdict is cross-checked against brute-force minimal
weighted cover enumeration on small exhaustive corpora, so the golden
values here never rest on the classifier alone.
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
    classify_path,
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
            v = classify_cycle(3, w)
            assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_four_cycle_trivial_unmixed_never_cm(self):
        v = classify_cycle(4, (2, 2, 2, 2))
        assert v.unmixed and v.cohen_macaulay == CM_NO

    def test_four_cycle_nontrivial_mixed(self):
        v = classify_cycle(4, (1, 1, 1, 2))
        assert not v.unmixed and v.cohen_macaulay == CM_NO

    def test_five_cycle_alternating_pattern(self):
        v = classify_cycle(5, (1, 2, 1, 2, 1))
        assert v.unmixed and v.cohen_macaulay == CM_YES
        assert v.certificate["pattern"] is not None

    def test_five_cycle_no_arrangement(self):
        v = classify_cycle(5, (2, 2, 1, 1, 1))
        assert not v.unmixed and v.cohen_macaulay == CM_NO

    def test_five_cycle_worked_weights(self):
        # e = a = 2 with 2 <= 5 >= 3 <= 4 >= 2
        v = classify_cycle(5, (2, 5, 3, 4, 2))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_seven_cycle(self):
        assert classify_cycle(7, (1,) * 7).unmixed
        assert classify_cycle(7, (1,) * 7).cohen_macaulay == CM_NO
        assert not classify_cycle(7, (1, 1, 1, 1, 1, 1, 2)).unmixed

    def test_six_cycle_always_mixed(self):
        assert not classify_cycle(6, (1,) * 6).unmixed
        assert not classify_cycle(6, (1, 2, 1, 2, 1, 2)).unmixed

    def test_dihedral_invariance(self):
        base = (1, 3, 2, 3, 1)
        verdicts = {
            classify_cycle(5, w).unmixed
            for w in rotations_and_reflections(base)
        }
        assert len(verdicts) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classify_cycle(5, (1, 2, 3))

    def test_exhaustive_against_enumeration(self):
        # lengths 3..7, all weight tuples in {1,2}^n
        for n in range(3, 8):
            for w in itertools.product((1, 2), repeat=n):
                verdict = classify_cycle(n, w)
                brute = is_unmixed(cycle_graph(list(w)))
                assert verdict.unmixed == brute.unmixed, (n, w)


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


class TestSuspensionSplit:
    """suspension_split finds recognize_suspensions(g)[0] without search."""

    def assert_first_split(self, g):
        decs = recognize_suspensions(g)
        assert suspension_split(g) == (decs[0] if decs else None)

    def test_exhaustive_small_graphs(self):
        for g in exhaustive_weighted_graphs(4):
            self.assert_first_split(g)

    def test_random_suspensions(self):
        rng = random.Random(20261017)
        for trial in range(200):
            base = random_weighted_graph(rng, max_vertices=5, edge_probability=0.4)
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

    def dec(self, graph):
        decs = recognize_suspensions(graph)
        assert decs
        return decs[0]

    def test_light_base_is_cm(self):
        g = self.suspension_of_edge(1, 3, 2)
        v = classify_suspension(g, self.dec(g))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_heavy_base_is_mixed(self):
        g = self.suspension_of_edge(4, 3, 5)
        v = classify_suspension(g, self.dec(g))
        assert not v.unmixed and v.cohen_macaulay == CM_NO
        assert v.certificate["violations"]

    def test_pure_whiskers_vacuous(self):
        base = WeightedGraph(("a", "b"), ())
        g = suspend(base, [2, 7])
        v = classify_suspension(g, self.dec(g))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_condition_matches_enumeration(self):
        for base_w, w1, w2 in itertools.product((1, 2, 3), repeat=3):
            g = self.suspension_of_edge(base_w, w1, w2)
            v = classify_suspension(g, self.dec(g))
            assert v.unmixed == is_unmixed(g).unmixed

    def test_invalid_decomposition_rejected(self):
        g = self.suspension_of_edge(1, 1, 1)
        bogus = SuspensionDecomposition((0, 1), ((0, 1), (1, 0)))
        with pytest.raises(FamilyMismatchError):
            classify_suspension(g, bogus)


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
    def test_length_one(self):
        v = classify_path(path_graph([9]))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_length_three_light_middle(self):
        v = classify_path(path_graph([3, 1, 2]))
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_length_three_heavy_middle(self):
        v = classify_path(path_graph([1, 2, 1]))
        assert not v.unmixed and v.cohen_macaulay == CM_NO

    def test_length_four_trivial(self):
        v = classify_path(path_graph([1, 1, 1, 1]))
        assert not v.unmixed and v.cohen_macaulay == CM_NO

    def test_length_two(self):
        assert not classify_path(path_graph([2, 2])).unmixed

    def test_rejects_cycle(self):
        with pytest.raises(FamilyMismatchError):
            classify_path(cycle_graph([1, 1, 1]))

    def test_exhaustive_against_enumeration(self):
        for length in range(1, 6):
            for w in itertools.product((1, 2, 3), repeat=length):
                verdict = classify_path(path_graph(list(w)))
                assert verdict.unmixed == is_unmixed(path_graph(list(w))).unmixed


class TestAuto:
    def test_triangle_routes_to_complete(self):
        v = classify_auto(cycle_graph([1, 2, 3]))
        assert v.family == "complete"
        assert v.unmixed and v.cohen_macaulay == CM_YES

    def test_square_routes_to_cycle(self):
        assert classify_auto(cycle_graph([1, 1, 1, 1])).family == "cycle"

    def test_path_routes_to_path(self):
        assert classify_auto(path_graph([1, 1])).family == "path"

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
        calls = self.count_calls(monkeypatch, "_path_weight_sequence")
        assert classify_auto(path_graph([1, 2, 3])).family == "path"
        assert len(calls) == 1

    def test_tree_recognized_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "_is_tree")
        # a star with five leaves: neither a path nor a suspension
        g = WeightedGraph(tuple("habcde"), tuple((0, v, v) for v in range(1, 6)))
        v = classify_auto(g)
        assert (v.family, v.certificate) == (
            "tree",
            {"reason": "no valid suspension structure"},
        )
        assert len(calls) == 1

    def test_families_in_priority_order(self):
        assert list(FAMILIES) == ["complete", "cycle", "path", "tree", "suspension"]

    def test_cycle_weight_sequence(self):
        assert cycle_weight_sequence(cycle_graph([2, 5, 3, 4, 2])) == (
            2,
            5,
            3,
            4,
            2,
        )
