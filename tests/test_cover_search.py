"""The level-graph cover search against definitional brute-force oracles.

The oracles are the subset enumerators the search replaced.  The
weighted one tries every vertex subset that covers the underlying graph,
times every choice of incident weights, keeps the candidates that no
single deletion or weight raise improves, and sweeps the survivors down
to an antichain.  The unweighted one keeps the vertex subsets that cover
every edge and lose that property when any vertex is dropped.  Both scan
the edge list directly, so they share nothing with the search or the
graph's adjacency table.  The maximal-independent-set enumerator is also
checked on its own against networkx's clique enumeration on the
complement, of random graphs and of level graphs, the level graph
against its definition, and the decode of
each maximal independent set into cover thresholds against its
definition.  The enumerator's work is pinned as well, by counting its
reads of the neighbourhood list over a fixed series of graphs.
"""

import itertools
import random
import time

import networkx
import pytest

from graphideals.classify import classify_auto
from graphideals.decompose import DecompositionLimitError, IrreducibleComponent
from graphideals.graphs import (
    Edge,
    WeightedGraph,
    _context_of_dimension,
    _level_graph,
    _maximal_independent_sets,
    _maximal_thresholds,
    cover_decomposition,
    enumerate_minimal_covers,
    minimal_vertex_covers,
    path_graph,
    suspend,
)
from graphideals.verify import exhaustive_weighted_graphs
from test_kernels import prune_powers


def _covers(edges, entries):
    for u, v, w in edges:
        wu = entries.get(u)
        wv = entries.get(v)
        if (wu is None or wu > w) and (wv is None or wv > w):
            return False
    return True


def _max_feasible_weight(edges, entries, v):
    # smallest weight among the edges only v covers; None if there are none
    cap = None
    for a, b, w in edges:
        if v not in (a, b):
            continue
        ow = entries.get(b if a == v else a)
        if ow is not None and ow <= w:
            continue
        cap = w if cap is None else min(cap, w)
    return cap


def oracle_minimal_covers(graph):
    """Entries of every minimal weighted cover, by exhaustive candidates."""
    edges = graph.edges
    if not edges:
        return [()]
    verts = sorted({x for e in edges for x in (e.u, e.v)})
    incident = {v: sorted({e.w for e in edges if v in (e.u, e.v)}) for v in verts}
    found = []
    for r in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, r):
            chosen = set(subset)
            if not all(e.u in chosen or e.v in chosen for e in edges):
                continue
            for combo in itertools.product(*(incident[v] for v in subset)):
                entries = dict(zip(subset, combo))
                if not _covers(edges, entries):
                    continue
                if any(
                    _covers(edges, {u: w for u, w in entries.items() if u != v})
                    for v in subset
                ):
                    continue
                if any(
                    (_max_feasible_weight(edges, entries, v) or 0) > entries[v]
                    for v in subset
                ):
                    continue
                found.append(tuple(entries.items()))
    return list(prune_powers(found))


def oracle_minimal_vertex_covers(graph):
    """Inclusion-minimal vertex covers, by exhaustive vertex subsets."""
    pairs = [(e.u, e.v) for e in graph.edges]
    if not pairs:
        return [()]
    verts = sorted({x for p in pairs for x in p})
    out = []
    for r in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, r):
            chosen = set(subset)
            if not all(u in chosen or v in chosen for u, v in pairs):
                continue
            if any(
                all(
                    (u in chosen and u != x) or (v in chosen and v != x)
                    for u, v in pairs
                )
                for x in subset
            ):
                continue
            out.append(subset)
    return sorted(out)


def seeded_gnp(count, seed, max_vertices=7, max_weight=3):
    """G(n, p) graphs with p drawn from 0 (edgeless) to 1; every fifth
    graph with an edge carries one weight of 10**20."""
    rng = random.Random(seed)
    for k in range(count):
        d = rng.randint(1, max_vertices)
        p = rng.choice((0.0, 0.3, 0.5, 0.7, 1.0))
        edges = [
            Edge(u, v, rng.randint(1, max_weight))
            for u, v in itertools.combinations(range(d), 2)
            if rng.random() < p
        ]
        if edges and k % 5 == 0:
            i = rng.randrange(len(edges))
            edges[i] = edges[i]._replace(w=10**20)
        yield WeightedGraph(tuple(f"v{i + 1}" for i in range(d)), tuple(edges))


def entries_of(covers):
    return [c.powers for c in covers]


def star(leaves):
    names = ("c",) + tuple(f"l{i}" for i in range(leaves))
    return WeightedGraph(
        names, tuple(Edge(0, i + 1, 1 + i % 3) for i in range(leaves))
    )


class TestAgainstOracles:
    def test_exhaustive_four_vertices(self):
        corpus = list(exhaustive_weighted_graphs(4, weights=(1, 2, 3)))
        assert len(corpus) == 1 + 4 + 4**3 + 4**6
        for g in corpus:
            assert entries_of(enumerate_minimal_covers(g)) == oracle_minimal_covers(
                g
            ), g

    def test_seeded_random(self):
        graphs = list(seeded_gnp(500, seed=3))
        assert any(not g.edges for g in graphs)
        assert any(
            g.degree(v) == 0 for g in graphs if g.edges for v in range(g.vertex_count)
        )
        assert any(e.w == 10**20 for g in graphs for e in g.edges)
        for g in graphs:
            assert entries_of(enumerate_minimal_covers(g)) == oracle_minimal_covers(
                g
            ), g

    def test_unit_weights_exhaustive(self):
        for g in exhaustive_weighted_graphs(5, weights=(1,)):
            assert minimal_vertex_covers(g) == oracle_minimal_vertex_covers(g), g

    def test_unit_weights_seeded(self):
        for g in seeded_gnp(300, seed=4, max_vertices=8, max_weight=5):
            assert minimal_vertex_covers(g) == oracle_minimal_vertex_covers(g), g

    def test_covers_are_unit_covers_when_weights_are_one(self):
        for g in exhaustive_weighted_graphs(4, weights=(1,)):
            supports = [c.support for c in enumerate_minimal_covers(g)]
            assert supports == minimal_vertex_covers(g)


def level_edges(closed):
    return {
        (i, j)
        for i, mask in enumerate(closed)
        for j in range(len(closed))
        if i < j and mask >> j & 1
    }


class TestLevelGraph:
    def test_matches_definition(self):
        for g in seeded_gnp(200, seed=6):
            closed, levels, base = _level_graph(g.adjacency)
            node = {}
            for v in range(g.vertex_count):
                assert levels[v] == list(g.incident_weights(v))
                for k, a in enumerate(levels[v]):
                    node[v, a] = base[v] + k
            assert sorted(node.values()) == list(range(len(closed)))
            expected = {
                tuple(sorted((node[e.u, a], node[e.v, b])))
                for e in g.edges
                for a in levels[e.u]
                for b in levels[e.v]
                if a >= e.w and b >= e.w
            }
            assert level_edges(closed) == expected, g
            assert all(mask >> i & 1 for i, mask in enumerate(closed))

    def test_unit_weights_give_the_graph(self):
        for g in exhaustive_weighted_graphs(5, weights=(1,)):
            closed, levels, base = _level_graph(g.adjacency)
            present = [v for v in range(g.vertex_count) if levels[v]]
            assert present == [v for v in range(g.vertex_count) if g.degree(v)]
            assert [base[v] for v in present] == list(range(len(closed)))
            index = {v: k for k, v in enumerate(present)}
            assert level_edges(closed) == {(index[e.u], index[e.v]) for e in g.edges}


def found_sets(closed):
    """The sets the search yields, each as a sorted tuple of nodes."""
    return sorted(
        tuple(j for j in range(len(closed)) if mask >> j & 1)
        for mask in _maximal_independent_sets(closed)
    )


def complement_cliques(h):
    """Maximal independent sets of h, as networkx finds them."""
    return sorted(
        tuple(sorted(c)) for c in networkx.find_cliques(networkx.complement(h))
    )


class TestMaximalIndependentSets:
    def test_against_networkx(self):
        rng = random.Random(8)
        graphs = [networkx.empty_graph(1), networkx.empty_graph(6)]
        for _ in range(300):
            n, p = rng.randint(1, 14), rng.random()
            graphs.append(networkx.gnp_random_graph(n, p, rng.randrange(10**6)))
        # dense graphs, where frames often cut at an excluded pivot
        for _ in range(60):
            n, p = rng.randint(10, 18), rng.choice((0.7, 0.9))
            graphs.append(networkx.gnp_random_graph(n, p, rng.randrange(10**6)))
        # isolated nodes, which a frame's sweep chooses outright
        for _ in range(60):
            n, p = rng.randint(2, 16), rng.choice((0.3, 0.7, 0.9))
            h = networkx.gnp_random_graph(n, p, rng.randrange(10**6))
            for v in rng.sample(range(n), rng.randint(1, min(3, n))):
                h.remove_edges_from(list(h.edges(v)))
            graphs.append(h)
        assert any(
            h.number_of_edges() and min(d for _, d in h.degree) == 0 for h in graphs
        )
        for h in graphs:
            closed = [
                1 << i | sum(1 << j for j in h[i]) for i in range(h.number_of_nodes())
            ]
            assert found_sets(closed) == complement_cliques(h), sorted(h.edges)

    def test_pruning_rules_pinned_by_reads(self):
        # the lone-candidate rule and the dead-frame cut change no output,
        # so only the work shows them.  Reads of closed pin it: without the
        # cut the total reads 16160, without the lone-candidate rule 21185.
        # The cut saves reads, not frames: an excluded node with no
        # candidate neighbour already wins the pivot with no branches
        total = found = 0
        for g in scaling_shapes():
            closed = CountedReads(_level_graph(g.adjacency)[0])
            found += sum(1 for _ in _maximal_independent_sets(closed))
            total += closed.reads
        assert found == 1762
        assert total == 16154

    def test_level_graphs_against_networkx(self):
        # a level graph nests the neighbourhoods along each vertex's levels,
        # a shape the random graphs above rarely have
        graphs = list(exhaustive_weighted_graphs(4, (1, 2, 3)))
        graphs += seeded_gnp(300, seed=10, max_vertices=8, max_weight=4)
        edgeless = 0
        for g in graphs:
            closed = _level_graph(g.adjacency)[0]
            if not closed:
                edgeless += 1
                assert found_sets(closed) == [()], g
                continue
            h = networkx.empty_graph(len(closed))
            h.add_edges_from(
                (i, j)
                for i, mask in enumerate(closed)
                for j in range(i)
                if mask >> j & 1
            )
            assert found_sets(closed) == complement_cliques(h), g
        assert edgeless


class CountedReads(list):
    """A list of closed neighbourhoods that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def scaling_shapes():
    """Cycles C10-C16, complete graphs K6-K8, two G(n, 1/2) for each n =
    8..10 and stars with 8, 10 and 12 leaves, weights 1..3 drawn in that
    order from a fresh Random(12050)."""
    rng = random.Random(12050)
    shapes = [(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(10, 17)]
    shapes += [(n, itertools.combinations(range(n), 2)) for n in range(6, 9)]
    graphs = [
        (n, [Edge(u, v, rng.randint(1, 3)) for u, v in pairs]) for n, pairs in shapes
    ]
    for n in (8, 8, 9, 9, 10, 10):
        pairs = itertools.combinations(range(n), 2)
        graphs.append(
            (n, [Edge(u, v, rng.randint(1, 3)) for u, v in pairs if rng.random() < 0.5])
        )
    for k in (8, 10, 12):
        graphs.append((k + 1, [Edge(0, i, rng.randint(1, 3)) for i in range(1, k + 1)]))
    return [
        WeightedGraph(tuple(f"v{i + 1}" for i in range(n)), tuple(edges))
        for n, edges in graphs
    ]


def definitional_decode(graph, mask):
    """Cover entries of a maximal independent set of L(G), by definition:
    t(v) is the smallest level of v whose node is not in the set, and v
    is out of the cover when all its levels are in it."""
    entries = []
    node = 0
    for v in range(graph.vertex_count):
        levels = graph.incident_weights(v)
        missing = [a for k, a in enumerate(levels) if not mask >> (node + k) & 1]
        if missing:
            entries.append((v, missing[0]))
        node += len(levels)
    return tuple(entries)


def decode_corpus(count, seed):
    """Seeded graphs with isolated vertices first, in the middle and last,
    up to 5 distinct weights at a vertex, edgeless graphs and single edges."""
    rng = random.Random(seed)

    def graph(d, edges):
        return WeightedGraph(tuple(f"v{i + 1}" for i in range(d)), tuple(edges))

    graphs = [graph(d, ()) for d in (1, 2, 5)]
    for d, u, v in [(2, 0, 1), (3, 1, 2), (3, 0, 2), (3, 0, 1), (5, 1, 3)]:
        graphs += [graph(d, [Edge(u, v, w)]) for w in (1, 4, 10**20)]
    for _ in range(count):
        d = rng.randint(2, 8)
        isolated = set(rng.sample(range(d), rng.randint(0, min(3, d - 1))))
        isolated.add(rng.choice((0, d // 2, d - 1)))
        edges = [
            Edge(u, v, rng.randint(1, 5))
            for u, v in itertools.combinations(range(d), 2)
            if not {u, v} & isolated and rng.random() < 0.6
        ]
        graphs.append(graph(d, edges))
    return graphs


class TestThresholdDecode:
    def test_against_definitional_decode(self):
        graphs = decode_corpus(400, seed=9)
        isolated_at = set()
        for g in graphs:
            last = g.vertex_count - 1
            for v in range(g.vertex_count):
                if g.edges and not g.degree(v):
                    isolated_at.add(
                        "first" if v == 0 else "last" if v == last else "middle"
                    )
        assert isolated_at == {"first", "middle", "last"}
        assert any(
            len(g.incident_weights(v)) == 5
            for g in graphs
            for v in range(g.vertex_count)
        )
        for g in graphs:
            masks = _maximal_independent_sets(_level_graph(g.adjacency)[0])
            expected = sorted(definitional_decode(g, mask) for mask in masks)
            assert _maximal_thresholds(g.adjacency, 10**9) == expected, g


class TestDeepSearch:
    def test_star_far_past_recursion_limit(self):
        g = star(3000)
        covers = enumerate_minimal_covers(g)
        assert len(covers) == 4
        assert covers[0] == IrreducibleComponent(g.context, ((0, 1),))
        assert covers[-1].support == tuple(range(1, 3001))

    def test_unit_star(self):
        assert minimal_vertex_covers(star(3000)) == [
            (0,),
            tuple(range(1, 3001)),
        ]


class TestComponentCap:
    def test_cover_enumeration_capped(self):
        g = path_graph([2, 5])
        assert len(enumerate_minimal_covers(g, max_components=3)) == 3
        with pytest.raises(DecompositionLimitError):
            enumerate_minimal_covers(g, max_components=2)
        with pytest.raises(DecompositionLimitError):
            cover_decomposition(g, max_components=2)

    def test_unit_search_capped(self):
        # minimal_vertex_covers runs this search with the default cap
        unit = path_graph([1, 1, 1]).adjacency
        assert len(_maximal_thresholds(unit, 3)) == 3
        with pytest.raises(DecompositionLimitError):
            _maximal_thresholds(unit, 2)


class TestAdjacency:
    def test_matches_edge_scan(self):
        for g in seeded_gnp(100, seed=5):
            for v in range(g.vertex_count):
                around = [e for e in g.edges if v in (e.u, e.v)]
                assert g.degree(v) == len(around)
                assert g.neighbors(v) == tuple(
                    sorted(e.v if e.u == v else e.u for e in around)
                )
                assert g.incident_weights(v) == tuple(sorted({e.w for e in around}))

    def test_cache_does_not_affect_equality(self):
        a = path_graph([2, 5])
        b = path_graph([2, 5])
        a.degree(0)
        assert a == b and hash(a) == hash(b)
        assert "adjacency" in vars(a) and "adjacency" not in vars(b)
        assert a.context is _context_of_dimension(3)
        assert a == b and hash(a) == hash(b)
        assert "context" in vars(a) and "context" not in vars(b)
        assert b.context is a.context

    def test_classify_whiskered_path_linear(self):
        n = 2000
        g = suspend(path_graph([1 + i % 3 for i in range(n - 1)]), [3] * n)
        t0 = time.perf_counter()
        verdict = classify_auto(g)
        assert time.perf_counter() - t0 < 2.0
        assert verdict.family == "tree" and verdict.unmixed
