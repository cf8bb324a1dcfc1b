"""Edge-weighted graphs, their edge ideals and weighted vertex covers.

A weighted graph carries a positive integer weight on every edge.  Its
weighted edge ideal takes the generator (x_u * x_v)**w for each edge; a
weighted vertex cover assigns a weight to each chosen vertex and covers an
edge when some endpoint sits in the cover with weight at most the edge's.
Under the order in :func:`cover_leq` (smaller covers have fewer vertices
carrying larger weights), the minimal covers correspond exactly to the
irredundant irreducible components of the weighted edge ideal, which is
what :func:`cover_decomposition` returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

from .decompose import (
    Decomposition,
    IrreducibleComponent,
    _powers_leq,
    _prune_powers,
)
from .monomials import MonomialIdeal, VariableContext


class GraphValidationError(ValueError):
    """Rejected graph input; ``reason`` is a short machine-readable tag."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class Edge(NamedTuple):
    u: int
    v: int
    w: int


@dataclass(frozen=True)
class WeightedGraph:
    """A finite simple graph with positive integer edge weights.

    Vertices are indexed 0..d-1 and display through ``vertex_names``;
    edges are stored with u < v and sorted, so equal graphs compare equal.
    """

    vertex_names: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        names = tuple(self.vertex_names)
        object.__setattr__(self, "vertex_names", names)
        if not names:
            raise GraphValidationError("bad-name", "graph needs at least one vertex")
        if len(set(names)) != len(names):
            raise GraphValidationError("bad-name", "vertex names must be distinct")
        for n in names:
            if not isinstance(n, str) or not n:
                raise GraphValidationError(
                    "bad-name", "vertex names must be nonempty strings"
                )
        d = len(names)
        normalized = []
        seen_pairs = set()
        for e in self.edges:
            u, v, w = e
            if not (isinstance(u, int) and isinstance(v, int)):
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
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_names)

    @property
    def context(self) -> VariableContext:
        """Polynomial variables X1..Xd, one per vertex in listed order."""
        return _context_of_dimension(self.vertex_count)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in (e.u, e.v))

    def incident_weights(self, v: int) -> tuple[int, ...]:
        return tuple(sorted({e.w for e in self.edges if v in (e.u, e.v)}))

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = [e.v if e.u == v else e.u for e in self.edges if v in (e.u, e.v)]
        return tuple(sorted(out))

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
            if item[key] not in index:
                raise GraphValidationError(
                    "bad-name", f"edge endpoint {item[key]!r} is not a vertex"
                )
        edges.append(Edge(index[item["u"]], index[item["v"]], item["w"]))
    return WeightedGraph(tuple(vertices), tuple(edges))


@dataclass(frozen=True)
class WeightedCover:
    """A choice of vertices with one positive weight each."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        entries = tuple(sorted((int(v), int(w)) for v, w in self.entries))
        object.__setattr__(self, "entries", entries)
        seen = set()
        for v, w in entries:
            if v < 0:
                raise ValueError("cover vertex indices must be nonnegative")
            if v in seen:
                raise ValueError("cover vertices must be distinct")
            if w < 1:
                raise ValueError("cover weights must be positive")
            seen.add(v)

    @classmethod
    def from_dict(cls, mapping: Mapping[int, int]) -> "WeightedCover":
        return cls(tuple(mapping.items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    @property
    def cardinality(self) -> int:
        return len(self.entries)

    def weight(self, v: int) -> int | None:
        return dict(self.entries).get(v)

    def format(self, names) -> str:
        if not self.entries:
            return "{}"
        return "{" + ", ".join(f"{names[v]}^{w}" for v, w in self.entries) + "}"


def edge_ideal(graph: WeightedGraph) -> MonomialIdeal:
    """The squarefree ideal with x_u * x_v for every edge."""
    d = graph.vertex_count
    rows = []
    for e in graph.edges:
        vec = [0] * d
        vec[e.u] = 1
        vec[e.v] = 1
        rows.append(tuple(vec))
    return MonomialIdeal.from_exponents(graph.context, rows)


def weighted_edge_ideal(graph: WeightedGraph) -> MonomialIdeal:
    """The ideal with (x_u * x_v)**w for every edge of weight w."""
    d = graph.vertex_count
    rows = []
    for e in graph.edges:
        vec = [0] * d
        vec[e.u] = e.w
        vec[e.v] = e.w
        rows.append(tuple(vec))
    return MonomialIdeal.from_exponents(graph.context, rows)


def _check_cover_indices(graph: WeightedGraph, cover: WeightedCover):
    for v, _ in cover.entries:
        if v >= graph.vertex_count:
            raise GraphValidationError(
                "bad-index", f"cover vertex index {v} out of range"
            )


def _covers(graph: WeightedGraph, entries: Mapping[int, int]) -> bool:
    for u, v, w in graph.edges:
        wu = entries.get(u)
        wv = entries.get(v)
        if (wu is None or wu > w) and (wv is None or wv > w):
            return False
    return True


def is_weighted_cover(graph: WeightedGraph, cover: WeightedCover) -> bool:
    """Every edge has an endpoint in the cover with weight <= the edge's."""
    _check_cover_indices(graph, cover)
    return _covers(graph, cover.as_dict())


def cover_leq(smaller: WeightedCover, larger: WeightedCover) -> bool:
    """Cover order: smaller support inside larger, with larger weights.

    (V'', d'') <= (V', d') means V'' is a subset of V' and d'(v) <= d''(v)
    for every v in V''.  Mirrors containment of the associated ideals.
    """
    return _powers_leq(smaller.entries, larger.entries)


def cover_ideal(cover: WeightedCover, context: VariableContext) -> IrreducibleComponent:
    """The m-irreducible ideal generated by x_v**d'(v) over the cover."""
    return IrreducibleComponent(context, cover.entries)


def _max_feasible_weight(graph, entries: Mapping[int, int], v: int) -> int | None:
    """Largest usable weight at v: the smallest weight among edges only v
    covers.  None when every incident edge is covered elsewhere."""
    cap = None
    for a, b, w in graph.edges:
        if v not in (a, b):
            continue
        other = b if a == v else a
        ow = entries.get(other)
        if ow is not None and ow <= w:
            continue
        cap = w if cap is None else min(cap, w)
    return cap


def minimize_cover(graph: WeightedGraph, cover: WeightedCover) -> WeightedCover:
    """Shrink a weighted cover to a minimal one below it.

    Phase 1 repeatedly deletes the lowest-indexed vertex whose removal
    still leaves a cover.  Phase 2 then raises each remaining weight, in
    ascending vertex order, to the largest value that keeps the cover
    property.  The result is minimal and lies below the input in the
    cover order.
    """
    _check_cover_indices(graph, cover)
    entries = cover.as_dict()
    if not _covers(graph, entries):
        raise ValueError("input is not a weighted vertex cover of this graph")
    while True:
        removable = None
        for v in sorted(entries):
            trial = {u: w for u, w in entries.items() if u != v}
            if _covers(graph, trial):
                removable = v
                break
        if removable is None:
            break
        del entries[removable]
    for v in sorted(entries):
        cap = _max_feasible_weight(graph, entries, v)
        if cap is not None:
            entries[v] = cap
    return WeightedCover(tuple(entries.items()))


def enumerate_minimal_covers(graph: WeightedGraph) -> list[WeightedCover]:
    """All minimal weighted vertex covers, canonically ordered.

    Candidates range over vertex subsets that cover the underlying graph,
    with each chosen vertex weighted by one of its incident edge weights
    (in a minimal cover every vertex covers some edge alone, and its
    weight is the smallest such edge weight, so nothing else can occur).
    A candidate survives exactly when no vertex can be dropped and no
    single weight raised; surviving candidates are precisely the minimal
    covers, and a final strict-order sweep double-checks that none lies
    above another.
    """
    if not graph.edges:
        return [WeightedCover(())]
    pairs = [(e.u, e.v) for e in graph.edges]
    verts = [v for v in range(graph.vertex_count) if graph.degree(v) > 0]
    incident = {v: graph.incident_weights(v) for v in verts}
    found = []
    for r in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, r):
            chosen = set(subset)
            if not all(u in chosen or v in chosen for u, v in pairs):
                continue
            options = [incident[v] for v in subset]
            for combo in itertools.product(*options):
                entries = dict(zip(subset, combo))
                if not _covers(graph, entries):
                    continue
                if any(
                    _covers(graph, {u: w for u, w in entries.items() if u != v})
                    for v in subset
                ):
                    continue
                if any(
                    (_max_feasible_weight(graph, entries, v) or 0) > entries[v]
                    for v in subset
                ):
                    continue
                found.append(tuple(entries.items()))
    return [WeightedCover(entries) for entries in _prune_powers(found)]


def cover_decomposition(graph: WeightedGraph) -> Decomposition:
    """Irreducible components of the weighted edge ideal via minimal covers.

    One component per minimal weighted cover; the list is irredundant
    without any pruning because distinct minimal covers are incomparable.
    An edgeless graph yields the zero ideal's decomposition, the single
    component P(empty).
    """
    context = graph.context
    components = tuple(
        cover_ideal(c, context) for c in enumerate_minimal_covers(graph)
    )
    return Decomposition(context, components, irredundant=True)


@dataclass(frozen=True)
class UnmixednessResult:
    unmixed: bool
    cardinality: int | None
    witnesses: tuple[WeightedCover, WeightedCover] | None


def is_unmixed(graph: WeightedGraph) -> UnmixednessResult:
    """Whether all minimal weighted covers share one cardinality.

    Edgeless graphs are unmixed (the empty cover is the only one).  On a
    mixed graph the result carries two covers of different cardinalities.
    """
    covers = enumerate_minimal_covers(graph)
    cards = sorted({c.cardinality for c in covers})
    if len(cards) == 1:
        return UnmixednessResult(True, cards[0], None)
    lo = next(c for c in covers if c.cardinality == cards[0])
    hi = next(c for c in covers if c.cardinality == cards[-1])
    return UnmixednessResult(False, None, (lo, hi))


def minimal_vertex_covers(graph: WeightedGraph) -> list[tuple[int, ...]]:
    """Inclusion-minimal unweighted vertex covers, sorted."""
    pairs = [(e.u, e.v) for e in graph.edges]
    if not pairs:
        return [()]
    verts = [v for v in range(graph.vertex_count) if graph.degree(v) > 0]
    out = []
    for r in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, r):
            chosen = set(subset)
            if not all(u in chosen or v in chosen for u, v in pairs):
                continue
            if any(
                all((u in chosen and u != x) or (v in chosen and v != x) for u, v in pairs)
                for x in subset
            ):
                continue
            out.append(tuple(subset))
    return sorted(out)


def minimal_primes(graph: WeightedGraph) -> list[tuple[int, ...]]:
    """Supports of the minimal primes over the weighted edge ideal.

    These are exactly the minimal unweighted vertex covers; weights do
    not matter after taking radicals.
    """
    return minimal_vertex_covers(graph)


def associated_primes(graph: WeightedGraph) -> list[tuple[int, ...]]:
    """Supports of the minimal weighted covers, deduplicated and sorted."""
    return sorted({c.support for c in enumerate_minimal_covers(graph)})


def m_height_and_dimension(graph: WeightedGraph) -> tuple[int, int]:
    """(m-height of the weighted edge ideal, dimension of the quotient).

    The m-height is the smallest minimal-cover cardinality, weighted or
    not; dimension is vertex count minus that.  Edgeless graphs give
    (0, d).
    """
    height = min(len(s) for s in minimal_vertex_covers(graph))
    return height, graph.vertex_count - height


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

    ``weights`` may be a single integer, a mapping {(i, j): w} on index
    pairs i < j, or a sequence following itertools.combinations order.
    """
    if names is None:
        names = tuple(f"v{i + 1}" for i in range(n))
    pair_list = list(itertools.combinations(range(n), 2))
    if isinstance(weights, int):
        lookup = {p: weights for p in pair_list}
    elif isinstance(weights, Mapping):
        lookup = {tuple(sorted(p)): w for p, w in weights.items()}
    else:
        ws = list(weights)
        if len(ws) != len(pair_list):
            raise ValueError("weight sequence length must match the edge count")
        lookup = dict(zip(pair_list, ws))
    edges = tuple(Edge(u, v, lookup[(u, v)]) for u, v in pair_list)
    return WeightedGraph(tuple(names), edges)


def suspend(
    base: WeightedGraph, whisker_weights: Iterable[int], whisker_prefix: str = "w"
) -> WeightedGraph:
    """Attach one new pendant vertex to every vertex of the base graph."""
    ws = list(whisker_weights)
    d = base.vertex_count
    if len(ws) != d:
        raise ValueError("need one whisker weight per base vertex")
    names = base.vertex_names + tuple(f"{whisker_prefix}{i + 1}" for i in range(d))
    edges = list(base.edges) + [Edge(i, d + i, ws[i]) for i in range(d)]
    return WeightedGraph(names, tuple(edges))
