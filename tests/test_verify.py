"""The cross-validation harness behind the verify command."""

import random

import pytest

from graphideals import decompose, graphs, verify
from graphideals.decompose import IrreducibleComponent, split_decompose
from graphideals.graphs import (
    UnmixednessResult,
    WeightedGraph,
    cycle_graph,
    path_graph,
    weighted_edge_ideal,
)
from graphideals.verify import (
    check_graph,
    exhaustive_weighted_graphs,
    merge_results,
    random_weighted_graph,
    run_suite,
)


class TestCheckGraph:
    def test_all_checks_pass_on_path(self):
        results = check_graph(path_graph([2, 5]))
        assert results
        assert all(r.passed for r in results)

    def test_all_checks_pass_on_cycle(self):
        results = check_graph(cycle_graph([2, 5, 3, 4, 2]))
        assert all(r.passed for r in results)

    @pytest.mark.parametrize(
        "graph",
        [
            cycle_graph([2, 5, 3, 4, 2]),
            path_graph([1, 2, 1, 2]),
            WeightedGraph(("a", "b", "c"), ()),
        ],
        ids=["C5", "P5-mixed", "edgeless"],
    )
    def test_cover_search_runs_once_per_weighting(self, graph, monkeypatch):
        # one weighted search, shared by the routes check and the
        # unmixedness check, and one unit-weight search for the
        # unweighted covers
        calls = {"weighted": 0, "unit": 0}
        search = graphs._maximal_thresholds

        def counted(adjacency, max_components):
            calls["weighted" if adjacency is graph.adjacency else "unit"] += 1
            return search(adjacency, max_components)

        monkeypatch.setattr(graphs, "_maximal_thresholds", counted)
        results = check_graph(graph)
        assert all(r.passed for r in results)
        assert calls == {"weighted": 1, "unit": 1}

    @pytest.mark.parametrize(
        "graph",
        [cycle_graph([2, 5, 3, 4, 2]), path_graph([1, 2, 1, 2])],
        ids=["C5", "P5-mixed"],
    )
    def test_split_route_runs_once(self, graph, monkeypatch):
        # the unmixedness check reads the decomposition already computed;
        # patched under both names, so a call through either is counted
        calls = []
        split = decompose.split_decompose

        def counted(*args, **kwargs):
            calls.append(1)
            return split(*args, **kwargs)

        monkeypatch.setattr(decompose, "split_decompose", counted)
        monkeypatch.setattr(verify, "split_decompose", counted)
        results = check_graph(graph)
        assert all(r.passed for r in results)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "graph",
        [cycle_graph([2, 5, 3, 4, 2]), path_graph([1, 2, 1, 2])],
        ids=["C5", "P5-mixed"],
    )
    def test_intersection_runs_once(self, graph, monkeypatch):
        # routes that agree hold equal components, so one intersection
        # checks both
        calls = []
        intersection = decompose.Decomposition.intersection

        def counted(self):
            calls.append(1)
            return intersection(self)

        monkeypatch.setattr(decompose.Decomposition, "intersection", counted)
        results = check_graph(graph)
        assert all(r.passed for r in results)
        assert len(calls) == 1

    def test_uniform_weight_check_only_when_trivial(self):
        names = {r.name for r in check_graph(cycle_graph([2, 2, 2]))}
        assert "uniform-weight-power-identity" in names
        names = {r.name for r in check_graph(cycle_graph([1, 2, 3]))}
        assert "uniform-weight-power-identity" not in names

    def test_detects_planted_disagreement(self, monkeypatch):
        from graphideals.decompose import Decomposition

        def broken(ideal, max_components=None):
            return Decomposition(ideal.context, ())

        monkeypatch.setattr(verify, "split_decompose", broken)
        results = check_graph(path_graph([2, 5]))
        byname = {r.name: r for r in results}
        assert not byname["decomposition-routes-agree"].passed
        assert "routes disagree" in byname["decomposition-routes-agree"].detail

    def test_detects_decomposition_missing_a_component(self, monkeypatch):
        # both routes return the same list, so only the reconstruction
        # leg can see that it no longer intersects back to the ideal
        g = cycle_graph([2, 5, 3, 4, 2])
        full = graphs.cover_decomposition(g)
        short = decompose.Decomposition(full.context, full.components[1:])

        monkeypatch.setattr(verify, "split_decompose", lambda *a, **k: short)
        monkeypatch.setattr(verify, "cover_decomposition", lambda *a, **k: short)
        check = {r.name: r for r in check_graph(g)}["decomposition-routes-agree"]
        assert not check.passed
        assert "do not intersect back to the ideal" in check.detail

    @pytest.mark.parametrize(
        "graph, fault",
        [
            (cycle_graph([2, 2, 2]), "cardinality"),
            (path_graph([1, 2, 1, 2]), "witnesses"),
        ],
        ids=["unmixed", "mixed"],
    )
    def test_detects_wrong_unmixedness_details(self, graph, fault, monkeypatch):
        # the verdict stays right, so only the comparison of the details
        # with the split route's support sizes can catch the fault
        real = graphs._unmixedness

        def wrong(covers):
            got = real(covers)
            if fault == "cardinality":
                assert got.unmixed
                return UnmixednessResult(True, got.cardinality + 1, None)
            assert not got.unmixed
            lo, hi = got.witnesses
            return UnmixednessResult(False, None, (hi, lo))

        monkeypatch.setattr(verify, "_unmixedness", wrong)
        failed = [r for r in check_graph(graph) if not r.passed]
        assert [r.name for r in failed] == ["unmixedness-routes-agree"]
        sizes = split_decompose(weighted_edge_ideal(graph)).support_sizes()
        assert (len(sizes) == 1) == (fault == "cardinality")
        assert failed[0].detail.startswith("cover m-heights")
        assert f"vs split sizes {sizes}" in failed[0].detail

    @pytest.mark.parametrize(
        "name, fault, check, detail",
        [
            (
                "cover_leq",
                lambda c1, c2: True,
                "cover-order-matches-ideal-order",
                "cover order vs ideal order differ on ",
            ),
            (
                "is_weighted_cover",
                lambda graph, c: False,
                "cover-predicate-matches-containment",
                "cover predicate vs containment differ on ",
            ),
            (
                "minimize_cover",
                lambda graph, c: IrreducibleComponent(graph.context, ()),
                "minimization-reaches-minimal",
                "minimize_cover left ",
            ),
            (
                "minimize_cover",
                lambda graph, c: c,
                "minimization-reaches-minimal",
                "is not minimal",
            ),
            (
                "minimal_vertex_covers",
                lambda graph: [tuple(range(graph.vertex_count))],
                "unweighted-covers-lift",
                "lift of unweighted cover (0, 1, 2, 3, 4) lost vertices",
            ),
        ],
        ids=[
            "cover-order",
            "predicate",
            "minimize-left",
            "minimize-not-minimal",
            "lift",
        ],
    )
    def test_detects_planted_fault(self, name, fault, check, detail, monkeypatch):
        monkeypatch.setattr(verify, name, fault)
        result = {r.name: r for r in check_graph(cycle_graph([2, 5, 3, 4, 2]))}[check]
        assert not result.passed
        assert detail in result.detail


class TestCorpora:
    def test_exhaustive_count_two_vertices(self):
        # one empty graph on 1 vertex, then absent/1/2 for the single pair
        graphs = list(exhaustive_weighted_graphs(2))
        assert len(graphs) == 4

    def test_exhaustive_count_three_vertices(self):
        graphs = list(exhaustive_weighted_graphs(3))
        assert len(graphs) == 1 + 3 + 27

    def test_random_graph_is_reproducible(self):
        a = random_weighted_graph(random.Random(42))
        b = random_weighted_graph(random.Random(42))
        assert a == b

    def test_random_graph_respects_bounds(self):
        rng = random.Random(1)
        for _ in range(50):
            g = random_weighted_graph(rng, max_vertices=4, max_weight=2)
            assert 1 <= g.vertex_count <= 4
            assert all(e.w <= 2 for e in g.edges)


class TestSuite:
    def test_merge_aggregates_by_name(self):
        lists = [check_graph(path_graph([2, 5])), check_graph(cycle_graph([1, 2, 3]))]
        merged = merge_results(lists)
        agree = next(r for r in merged if r.name == "decomposition-routes-agree")
        assert agree.cases == 2
        assert agree.passed

    def test_run_suite_reports_the_failing_graph(self, monkeypatch):
        # the split route breaks on the 5-cycle only, so the merged check
        # fails with the second graph's detail and counts both graphs
        split = verify.split_decompose

        def broken_on_five(ideal, max_components=None):
            if ideal.context.dimension == 5:
                return decompose.Decomposition(ideal.context, ())
            return split(ideal)

        monkeypatch.setattr(verify, "split_decompose", broken_on_five)
        cycle = cycle_graph([2, 5, 3, 4, 2])
        merged, count = run_suite([path_graph([2, 5]), cycle])
        agree = {r.name: r for r in merged}["decomposition-routes-agree"]
        assert (count, agree.passed, agree.cases) == (2, False, 2)
        assert agree.detail == f"routes disagree on {cycle}"

    def test_run_suite_over_small_corpus(self):
        graphs = list(exhaustive_weighted_graphs(2))
        merged, count = run_suite(graphs, seed=3)
        assert count == len(graphs)
        assert all(r.passed for r in merged)
