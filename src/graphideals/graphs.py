"""Edge-weighted graphs, their edge ideals and weighted vertex covers.

A weighted graph carries a positive integer weight on every edge.  Its
weighted edge ideal takes the generator (x_u * x_v)**w for each edge; a
weighted vertex cover assigns a weight to each chosen vertex and covers an
edge when some endpoint sits in the cover with weight at most the edge's.
A cover (V', d') is held as the irreducible component
P(V', d') = (x_v^d'(v) : v in V') over the graph's context.  Under the
order in :func:`cover_leq` (smaller covers have fewer vertices carrying
larger weights, i.e. smaller ideals), the minimal covers are exactly the
irredundant irreducible components of the weighted edge ideal, which is
what :func:`cover_decomposition` returns.

The minimal covers are found as the maximal independent sets of the
*level graph* L(G).  L(G) has one node (v, a) per distinct incident
weight a of v, read as "t(v) > a" for v's threshold t(v) (its cover
weight, or above every weight when v is out).  It joins (u, a) and
(v, b) when uv is an edge of weight w with a >= w and b >= w, so an
independent set of nodes is an assignment of thresholds that leaves no
edge uncovered.  A conflict at level a is one at every higher level, so
a maximal independent set holds, at each vertex, every level below its
threshold: maximal independent sets are exactly the componentwise-maximal
feasible thresholds, which are the minimal covers.  With unit weights
L(G) is G without its isolated vertices, and this is the classical fact
that minimal vertex covers complement maximal independent sets.  L(G)
has at most 2|E| nodes.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property, lru_cache

from ._records import FrozenRecord
from .decompose import (
    DEFAULT_COMPONENT_CAP,
    Decomposition,
    DecompositionLimitError,
    IrreducibleComponent,
    _powers_leq,
)
from .monomials import MonomialIdeal, VariableContext


class GraphValidationError(ValueError):
    """Rejected graph input; ``reason`` is a short machine-readable tag."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


Edge = namedtuple("Edge", ["u", "v", "w"])


class WeightedGraph(FrozenRecord):
    """A finite simple graph with positive integer edge weights.

    Vertices are indexed 0..d-1 and display through ``vertex_names``;
    edges are stored with u < v and sorted, so equal graphs compare equal.
    """

    _fields = ("vertex_names", "edges")

    def __init__(self, vertex_names: tuple[str, ...], edges: tuple[Edge, ...]):
        try:
            names = tuple(vertex_names)
            edges = tuple(edges)
        except TypeError:
            raise GraphValidationError(
                "bad-schema", "vertex names and edges must each be a sequence"
            ) from None
        if not names:
            raise GraphValidationError("bad-name", "graph needs at least one vertex")
        # types first: an unhashable name would break the distinctness test
        for n in names:
            if not isinstance(n, str) or not n:
                raise GraphValidationError(
                    "bad-name", "vertex names must be nonempty strings"
                )
        if len(set(names)) != len(names):
            raise GraphValidationError("bad-name", "vertex names must be distinct")
        d = len(names)
        normalized = []
        seen_pairs = set()
        for e in edges:
            try:
                u, v, w = e
            except (TypeError, ValueError):
                raise GraphValidationError(
                    "bad-schema", f"an edge must be a (u, v, w) triple, got {e!r}"
                ) from None
            if not (isinstance(u, int) and isinstance(v, int)) or (
                isinstance(u, bool) or isinstance(v, bool)
            ):
                raise GraphValidationError("bad-index", "edge endpoints must be ints")
            if not (0 <= u < d and 0 <= v < d):
                raise GraphValidationError(
                    "bad-index", f"edge endpoint out of range: ({u}, {v})"
                )
            if u == v:
                raise GraphValidationError(
                    "loop", f"loop at vertex {names[u]} is not allowed"
                )
            if u > v:
                u, v = v, u
            if (u, v) in seen_pairs:
                raise GraphValidationError(
                    "duplicate-edge", f"duplicate edge {names[u]}-{names[v]}"
                )
            seen_pairs.add((u, v))
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise GraphValidationError(
                    "bad-weight", f"edge weight must be a positive integer, got {w!r}"
                )
            normalized.append(Edge(u, v, w))
        object.__setattr__(self, "vertex_names", names)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_names)

    @property
    def context(self) -> VariableContext:
        """Polynomial variables X1..Xd, one per vertex in listed order."""
        return _context_of_dimension(self.vertex_count)

    @cached_property
    def adjacency(self) -> tuple[dict[int, int], ...]:
        """Per vertex, {neighbour: edge weight} in ascending neighbour order.

        Built once per graph and shared by every vertex query; read-only.
        """
        table = tuple({} for _ in self.vertex_names)
        for u, v, w in self.edges:
            table[u][v] = w
            table[v][u] = w
        return table

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def incident_weights(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(set(self.adjacency[v].values())))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.adjacency[v])

    def weights(self) -> tuple[int, ...]:
        return tuple(e.w for e in self.edges)

    def is_connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for y in self.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == self.vertex_count

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertex_names),
            "edges": [
                {"u": self.vertex_names[e.u], "v": self.vertex_names[e.v], "w": e.w}
                for e in self.edges
            ],
        }

    def __str__(self) -> str:
        edges = ", ".join(
            f"{self.vertex_names[e.u]}-{self.vertex_names[e.v]}^{e.w}"
            for e in self.edges
        )
        return f"WeightedGraph({len(self.vertex_names)} vertices; {edges})"


@lru_cache(maxsize=None)
def _context_of_dimension(d: int) -> VariableContext:
    return VariableContext.of_dimension(d)


def validate_graph(data) -> WeightedGraph:
    """Build a graph from parsed JSON, rejecting anything off-schema.

    Expected shape:
        {"vertices": ["v1", ...],
         "edges": [{"u": "v1", "v": "v2", "w": 2}, ...]}
    Unknown fields anywhere are errors, as are loops, duplicate edges,
    non-integer or nonpositive weights and unknown vertex names.
    """
    if not isinstance(data, dict):
        raise GraphValidationError("bad-schema", "graph document must be an object")
    unknown = set(data) - {"vertices", "edges"}
    if unknown:
        raise GraphValidationError(
            "bad-schema", f"unknown top-level fields: {sorted(unknown)}"
        )
    if "vertices" not in data or "edges" not in data:
        raise GraphValidationError(
            "bad-schema", "graph document needs 'vertices' and 'edges'"
        )
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(
        isinstance(v, str) for v in vertices
    ):
        raise GraphValidationError("bad-schema", "'vertices' must be a list of strings")
    # JSON escapes admit lone surrogates, which no output stream can encode
    for name in vertices:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise GraphValidationError(
                "bad-name", f"vertex name {name!r} is not valid UTF-8"
            ) from None
    index = {name: i for i, name in enumerate(vertices)}
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise GraphValidationError("bad-schema", "'edges' must be a list")
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise GraphValidationError("bad-schema", "each edge must be an object")
        unknown = set(item) - {"u", "v", "w"}
        if unknown:
            raise GraphValidationError(
                "bad-schema", f"unknown edge fields: {sorted(unknown)}"
            )
        if set(item) != {"u", "v", "w"}:
            raise GraphValidationError("bad-schema", "each edge needs 'u', 'v', 'w'")
        for key in ("u", "v"):
            if not isinstance(item[key], str) or item[key] not in index:
                raise GraphValidationError(
                    "bad-name", f"edge endpoint {item[key]!r} is not a vertex"
                )
        edges.append(Edge(index[item["u"]], index[item["v"]], item["w"]))
    return WeightedGraph(tuple(vertices), tuple(edges))


def edge_ideal(graph: WeightedGraph) -> MonomialIdeal:
    """The squarefree ideal with x_u * x_v for every edge."""
    d = graph.vertex_count
    rows = []
    for e in graph.edges:
        vec = [0] * d
        vec[e.u] = 1
        vec[e.v] = 1
        rows.append(tuple(vec))
    # a simple graph's edges have distinct two-vertex supports
    return MonomialIdeal._of_antichain(graph.context, rows)


def weighted_edge_ideal(graph: WeightedGraph) -> MonomialIdeal:
    """The ideal with (x_u * x_v)**w for every edge of weight w."""
    d = graph.vertex_count
    rows = []
    for e in graph.edges:
        vec = [0] * d
        vec[e.u] = e.w
        vec[e.v] = e.w
        rows.append(tuple(vec))
    # a simple graph's edges have distinct two-vertex supports
    return MonomialIdeal._of_antichain(graph.context, rows)


def _covers(graph: WeightedGraph, entries: Mapping[int, int]) -> bool:
    for u, v, w in graph.edges:
        wu = entries.get(u)
        wv = entries.get(v)
        if (wu is None or wu > w) and (wv is None or wv > w):
            return False
    return True


def is_weighted_cover(graph: WeightedGraph, cover: IrreducibleComponent) -> bool:
    """Every edge has an endpoint in the cover with weight <= the edge's.

    Raises GraphValidationError unless the cover is over ``graph.context``.
    """
    if cover.context is not graph.context and cover.context != graph.context:
        raise GraphValidationError(
            "bad-index", "cover is not over the graph's variables X1..Xd"
        )
    return _covers(graph, cover.powers_dict())


def cover_leq(smaller: IrreducibleComponent, larger: IrreducibleComponent) -> bool:
    """Cover order: smaller support inside larger, with larger weights.

    (V'', d'') <= (V', d') means V'' is a subset of V' and d'(v) <= d''(v)
    for every v in V''.  Mirrors containment of the associated ideals.
    """
    return _powers_leq(smaller.powers, larger.powers)


def _max_feasible_weight(graph, entries: Mapping[int, int], v: int) -> int | None:
    """Largest usable weight at v: the smallest weight among edges only v
    covers.  None when every incident edge is covered elsewhere."""
    cap = None
    for other, w in graph.adjacency[v].items():
        ow = entries.get(other)
        if ow is not None and ow <= w:
            continue
        cap = w if cap is None else min(cap, w)
    return cap


def minimize_cover(
    graph: WeightedGraph, cover: IrreducibleComponent
) -> IrreducibleComponent:
    """Shrink a weighted cover to a minimal one below it.

    Phase 1 visits the vertices in ascending order once, deleting each
    whose removal still leaves a cover, that is, each whose incident edges
    are all covered at their other endpoints; a vertex kept once stays needed,
    since deleting more vertices never restores an edge's cover.  Phase 2
    then raises each remaining weight, in ascending vertex order, to the
    largest value that keeps the cover property.  The result is minimal
    and lies below the input in the cover order.
    """
    if not is_weighted_cover(graph, cover):
        raise ValueError("input is not a weighted vertex cover of this graph")
    entries = cover.powers_dict()
    for v in sorted(entries):
        if _max_feasible_weight(graph, entries, v) is None:
            del entries[v]
    for v in sorted(entries):
        cap = _max_feasible_weight(graph, entries, v)
        if cap is not None:
            entries[v] = cap
    return IrreducibleComponent(graph.context, tuple(entries.items()))


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _level_graph(adjacency) -> tuple[list[int], list[list[int]], list[int]]:
    """Closed neighbourhoods of the level graph L(G), as bitmasks.

    Node (v, a), one per distinct incident weight a of v, reads
    "t(v) > a"; v's nodes are numbered base[v].. in ascending level.
    (u, a) and (v, b) are adjacent when an edge uv of weight w has
    a >= w and b >= w, i.e. both readings leave uv uncovered.  Returns
    the closed neighbourhoods, each vertex's sorted levels and ``base``.
    """
    levels = [sorted(set(row.values())) for row in adjacency]
    rank = [{a: k for k, a in enumerate(ls)} for ls in levels]
    base = list(itertools.accumulate(map(len, levels), initial=0))
    closed = []
    for v, row in enumerate(adjacency):
        # edge uv of weight w reaches u's nodes at levels >= w, a run of bits
        step = dict.fromkeys(levels[v], 0)
        for u, w in row.items():
            step[w] |= (1 << base[u + 1]) - (1 << (base[u] + rank[u][w]))
        # N((v, a)) gathers the edges of weight <= a
        reach = 0
        for a in levels[v]:
            reach |= step[a]
            closed.append(reach | 1 << len(closed))
    return closed, levels, base


def _maximal_independent_sets(closed: list[int]) -> Iterator[int]:
    """Every maximal independent set of a graph, as a bitmask of nodes.

    ``closed[i]`` is node i's closed neighbourhood.  Bron-Kerbosch with
    Tomita's pivot, run on an explicit stack of frames (chosen,
    candidates, excluded); total time O(3^(N/3)) on N nodes (Tomita,
    Tanaka & Takahashi, TCS 363, 2006).  A candidate with no other
    candidate neighbour is in every maximal extension, so all such
    candidates are chosen in one step.  An excluded node with no
    candidate neighbour left to block it has nothing to branch on, so as
    the pivot it cuts the frame.
    """
    stack = [(0, (1 << len(closed)) - 1, 0)]
    while stack:
        chosen, cand, done = stack.pop()
        lone = 0
        for u in _bits(cand):
            if cand & closed[u] == 1 << u:
                lone |= 1 << u
        if lone:
            chosen |= lone
            cand ^= lone
            for u in _bits(lone):
                done &= ~closed[u]
        if not cand | done:
            yield chosen
            continue
        pivot = min(_bits(cand | done), key=lambda u: (cand & closed[u]).bit_count())
        for v in _bits(cand & closed[pivot]):
            stack.append((chosen | 1 << v, cand & ~closed[v], done & ~closed[v]))
            cand ^= 1 << v
            done |= 1 << v


def _maximal_thresholds(adjacency, max_components: int) -> list[tuple]:
    """Entries of every minimal cover of the graph with this adjacency.

    Each maximal independent set S of the level graph decodes to one
    minimal cover: t(v) is the smallest level of v with (v, t(v)) not in
    S, and v is out of the cover when all its levels are in S.
    """
    closed, levels, base = _level_graph(adjacency)
    found = []
    for chosen in _maximal_independent_sets(closed):
        if len(found) == max_components:
            raise DecompositionLimitError(
                f"cover enumeration exceeded {max_components} components"
            )
        entries = []
        for v, ls in enumerate(levels):
            k = ((chosen >> base[v]) & ((1 << len(ls)) - 1)).bit_count()
            if k < len(ls):
                entries.append((v, ls[k]))
        found.append(tuple(entries))
    return sorted(found)


def enumerate_minimal_covers(
    graph: WeightedGraph, max_components: int = DEFAULT_COMPONENT_CAP
) -> list[IrreducibleComponent]:
    """All minimal weighted vertex covers, canonically ordered.

    One cover per maximal independent set of the level graph L(G) (see
    the module docstring).  The sets come from a pivoted Bron-Kerbosch
    search, whose total time is O(3^(N/3)) on the N <= 2|E| nodes of
    L(G) (Tomita, Tanaka & Takahashi, TCS 363, 2006); no bound on the
    work between two consecutive covers is claimed, so the component
    cap bounds the output, not the time.  Every set found is a distinct
    minimal cover, so no minimality sweep follows.
    Raises DecompositionLimitError past ``max_components`` covers.
    """
    context = graph.context
    found = _maximal_thresholds(graph.adjacency, max_components)
    return [IrreducibleComponent(context, entries) for entries in found]


def cover_decomposition(
    graph: WeightedGraph, max_components: int = DEFAULT_COMPONENT_CAP
) -> Decomposition:
    """Irreducible components of the weighted edge ideal via minimal covers.

    One component per minimal weighted cover; the list is irredundant
    without any pruning because distinct minimal covers are incomparable.
    An edgeless graph yields the zero ideal's decomposition, the single
    component P(empty).  Raises DecompositionLimitError past
    ``max_components`` components.
    """
    covers = enumerate_minimal_covers(graph, max_components)
    return Decomposition(graph.context, tuple(covers))


class UnmixednessResult(FrozenRecord):
    _fields = ("unmixed", "cardinality", "witnesses")

    def __init__(
        self,
        unmixed: bool,
        cardinality: int | None,
        witnesses: tuple[IrreducibleComponent, IrreducibleComponent] | None,
    ):
        object.__setattr__(self, "unmixed", unmixed)
        object.__setattr__(self, "cardinality", cardinality)
        object.__setattr__(self, "witnesses", witnesses)


def is_unmixed(graph: WeightedGraph) -> UnmixednessResult:
    """Whether all minimal weighted covers share one cardinality.

    Edgeless graphs are unmixed (the empty cover is the only one).  On a
    mixed graph the result carries two covers of different cardinalities.
    """
    covers = enumerate_minimal_covers(graph)
    cards = sorted({c.m_height for c in covers})
    if len(cards) == 1:
        return UnmixednessResult(True, cards[0], None)
    lo = next(c for c in covers if c.m_height == cards[0])
    hi = next(c for c in covers if c.m_height == cards[-1])
    return UnmixednessResult(False, None, (lo, hi))


def minimal_vertex_covers(graph: WeightedGraph) -> list[tuple[int, ...]]:
    """Inclusion-minimal unweighted vertex covers, sorted.

    The search of :func:`enumerate_minimal_covers` on the same graph with
    every weight set to 1, where L(G) is G less its isolated vertices and
    a minimal weighted cover is a minimal vertex cover with weight 1 on
    each vertex.
    """
    unit = tuple(dict.fromkeys(row, 1) for row in graph.adjacency)
    return [
        tuple(v for v, _ in entries)
        for entries in _maximal_thresholds(unit, DEFAULT_COMPONENT_CAP)
    ]


def minimal_primes(graph: WeightedGraph) -> list[tuple[int, ...]]:
    """Supports of the minimal primes over the weighted edge ideal.

    These are exactly the minimal unweighted vertex covers; weights do
    not matter after taking radicals.
    """
    return minimal_vertex_covers(graph)


def associated_primes(graph: WeightedGraph) -> list[tuple[int, ...]]:
    """Supports of the minimal weighted covers, deduplicated and sorted."""
    return sorted({c.support for c in enumerate_minimal_covers(graph)})


def path_graph(weights: Iterable[int], names=None) -> WeightedGraph:
    """Path v1 - v2 - ... with the given edge weights in order."""
    ws = list(weights)
    d = len(ws) + 1
    if names is None:
        names = tuple(f"v{i + 1}" for i in range(d))
    edges = tuple(Edge(i, i + 1, w) for i, w in enumerate(ws))
    return WeightedGraph(tuple(names), edges)


def cycle_graph(weights: Iterable[int], names=None) -> WeightedGraph:
    """Cycle on n = len(weights) vertices; weight i sits on edge v_i v_{i+1}."""
    ws = list(weights)
    n = len(ws)
    if n < 3:
        raise ValueError("a cycle needs at least 3 edges")
    if names is None:
        names = tuple(f"v{i + 1}" for i in range(n))
    edges = [Edge(i, (i + 1) % n, w) for i, w in enumerate(ws)]
    return WeightedGraph(tuple(names), tuple(edges))


def complete_graph(n: int, weights=1, names=None) -> WeightedGraph:
    """Complete graph on n vertices.

    ``weights`` is a single integer or a sequence following
    itertools.combinations order.
    """
    if names is None:
        names = tuple(f"v{i + 1}" for i in range(n))
    pair_list = list(itertools.combinations(range(n), 2))
    ws = [weights] * len(pair_list) if isinstance(weights, int) else list(weights)
    if len(ws) != len(pair_list):
        raise ValueError("weight sequence length must match the edge count")
    edges = tuple(Edge(u, v, w) for (u, v), w in zip(pair_list, ws))
    return WeightedGraph(tuple(names), edges)


def suspend(base: WeightedGraph, whisker_weights: Iterable[int]) -> WeightedGraph:
    """Attach one new pendant vertex to every vertex of the base graph."""
    ws = list(whisker_weights)
    d = base.vertex_count
    if len(ws) != d:
        raise ValueError("need one whisker weight per base vertex")
    names = base.vertex_names + tuple(f"w{i + 1}" for i in range(d))
    edges = list(base.edges) + [Edge(i, d + i, ws[i]) for i in range(d)]
    return WeightedGraph(names, tuple(edges))
