"""Unmixedness and Cohen-Macaulayness verdicts for recognized graph families.

Each classifier returns a :class:`Verdict` backed by a closed-form
criterion for its family:

* cycles: 3-cycles are always unmixed and Cohen-Macaulay; 4- and 7-cycles
  are unmixed exactly when all weights agree (and even then not CM);
  5-cycles are unmixed, equivalently CM, exactly when some rotation or
  reflection of the weight sequence (a, b, c, d, e) satisfies
  e = a <= b >= c <= d >= e; every other length is mixed.
* complete graphs: always unmixed and CM, minimal covers of size n - 1.
* suspensions (every base vertex carries one pendant "whisker"): CM,
  equivalently unmixed, exactly when each base edge weighs no more than
  both of its endpoints' whisker edges.
* trees: CM with at most two vertices, otherwise exactly when the tree is
  a suspension satisfying the weight condition above.
* paths: CM only at length 1, or length 3 with the middle edge weighing
  no more than both outer edges.

:data:`FAMILIES` maps each family name to its classifier, a function
of the graph alone that raises :class:`FamilyMismatchError` outside the
family.  The table is ordered complete, cycle, path, tree, suspension;
:func:`classify_auto` tries the entries in that order and falls back to
exhaustive cover enumeration with an unknown CM status.
"""

from __future__ import annotations

import itertools

from ._records import FrozenRecord
from .graphs import WeightedGraph, is_unmixed

CM_YES = "yes"
CM_NO = "no"
CM_UNKNOWN = "unknown"


class FamilyMismatchError(ValueError):
    """The graph does not belong to the requested family."""


class SuspensionDecomposition(FrozenRecord):
    """A split of a graph into base vertices and their whiskers.

    ``whiskers`` pairs each base vertex with its pendant vertex; the base
    vertices plus the whisker vertices partition the graph.
    """

    _fields = ("base_vertices", "whiskers")

    def __init__(
        self, base_vertices: tuple[int, ...], whiskers: tuple[tuple[int, int], ...]
    ):
        object.__setattr__(self, "base_vertices", tuple(sorted(base_vertices)))
        object.__setattr__(self, "whiskers", tuple(sorted(whiskers)))

    def whisker_of(self) -> dict[int, int]:
        return dict(self.whiskers)


class Verdict(FrozenRecord):
    """Classification outcome for one weighted graph.

    ``certificate`` defaults to a new empty dict for each verdict.
    """

    _fields = ("family", "unmixed", "cohen_macaulay", "certificate", "rationale")

    def __init__(
        self,
        family: str,
        unmixed: bool,
        cohen_macaulay: str,
        certificate: dict | None = None,
        rationale: str = "",
    ):
        if cohen_macaulay not in (CM_YES, CM_NO, CM_UNKNOWN):
            raise ValueError("cohen_macaulay must be yes, no or unknown")
        if cohen_macaulay == CM_YES and not unmixed:
            raise ValueError("a Cohen-Macaulay verdict requires unmixedness")
        if certificate is None:
            certificate = {}
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "unmixed", unmixed)
        object.__setattr__(self, "cohen_macaulay", cohen_macaulay)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "rationale", rationale)


def _validate_weights(weights):
    for w in weights:
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ValueError("weights must be positive integers")


def _five_cycle_pattern(weights) -> dict | None:
    """First dihedral arrangement satisfying e=a <= b >= c <= d >= e, if any."""
    for reflected, base in ((False, tuple(weights)), (True, tuple(reversed(weights)))):
        for r in range(5):
            a, b, c, d, e = base[r:] + base[:r]
            if e == a and a <= b and b >= c and c <= d and d >= e:
                return {
                    "arrangement": [a, b, c, d, e],
                    "rotation": r,
                    "reflected": reflected,
                }
    return None


def classify_cycle(n: int, weights) -> Verdict:
    """Verdict for a weighted cycle from its weight sequence.

    ``weights[i]`` is the weight of edge v_{i+1} v_{i+2}, the last entry
    closing the cycle.  Rotating or reflecting the sequence never changes
    the verdict.
    """
    if n < 3:
        raise FamilyMismatchError("a cycle needs at least 3 vertices")
    weights = tuple(weights)
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    _validate_weights(weights)
    trivial = len(set(weights)) <= 1
    if n == 3:
        return Verdict(
            "cycle",
            True,
            CM_YES,
            {"length": 3},
            "weighted 3-cycles are unmixed and Cohen-Macaulay for any weights",
        )
    if n in (4, 7):
        return Verdict(
            "cycle",
            trivial,
            CM_NO,
            {"length": n, "trivially_weighted": trivial},
            f"weighted {n}-cycles are unmixed only with all weights equal"
            " and are never Cohen-Macaulay",
        )
    if n == 5:
        pattern = _five_cycle_pattern(weights)
        if pattern is not None:
            return Verdict(
                "cycle",
                True,
                CM_YES,
                {"length": 5, "pattern": pattern},
                "a 5-cycle is unmixed, equivalently Cohen-Macaulay, exactly when"
                " some rotation or reflection satisfies e=a <= b >= c <= d >= e",
            )
        return Verdict(
            "cycle",
            False,
            CM_NO,
            {"length": 5, "pattern": None},
            "no rotation or reflection of the weights satisfies"
            " e=a <= b >= c <= d >= e",
        )
    return Verdict(
        "cycle",
        False,
        CM_NO,
        {"length": n},
        "cycles of length outside {3, 4, 5, 7} are mixed for every weighting",
    )


def classify_complete(graph: WeightedGraph) -> Verdict:
    """Complete graphs are unmixed and CM regardless of weights."""
    n = graph.vertex_count
    if n < 2 or len(graph.edges) != n * (n - 1) // 2:
        raise FamilyMismatchError("not a complete graph on at least 2 vertices")
    return Verdict(
        "complete",
        True,
        CM_YES,
        {"vertices": n, "minimal_cover_cardinality": n - 1},
        "complete graphs are unmixed and Cohen-Macaulay for every weighting;"
        " all minimal weighted covers drop exactly one vertex",
    )


def recognize_suspensions(graph: WeightedGraph) -> list[SuspensionDecomposition]:
    """All ways to read the graph as a base plus one whisker per base vertex.

    A valid split takes half the vertices, all of degree 1, and matches
    them bijectively to the other half through their unique edges.  An odd
    vertex count admits none.  A single edge admits two (either endpoint
    may serve as the whisker).
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
            out.append(
                SuspensionDecomposition(tuple(base), tuple(mapping.items()))
            )
    return out


def suspension_split(graph: WeightedGraph) -> SuspensionDecomposition | None:
    """The first split :func:`recognize_suspensions` lists, in linear time.

    A leaf whose neighbor is not a leaf must be a whisker, and every
    other vertex outside an isolated edge must be a base vertex, so the
    splits differ only in which end of each isolated edge is the whisker;
    this one takes the smaller index.  Isolated edges join no base edge,
    so the weight condition gives every split the same verdict.  Returns
    None when no split pairs every vertex.
    """
    adjacency = graph.adjacency
    whisker_of = {}
    for w, around in enumerate(adjacency):
        if len(around) != 1:
            continue
        (anchor,) = around
        if len(adjacency[anchor]) == 1 and anchor < w:
            continue
        if anchor in whisker_of:
            return None
        whisker_of[anchor] = w
    if 2 * len(whisker_of) != graph.vertex_count:
        return None
    return SuspensionDecomposition(tuple(whisker_of), tuple(whisker_of.items()))


def _validate_suspension(graph: WeightedGraph, dec: SuspensionDecomposition):
    whisker_of = dec.whisker_of()
    base = set(dec.base_vertices)
    whiskers = set(whisker_of.values())
    if len(whisker_of) != len(whiskers) or base & whiskers:
        raise FamilyMismatchError("whisker map must pair distinct vertices")
    if base | whiskers != set(range(graph.vertex_count)):
        raise FamilyMismatchError("decomposition must partition the vertices")
    for anchor, w in whisker_of.items():
        if graph.degree(w) != 1 or graph.neighbors(w)[0] != anchor:
            raise FamilyMismatchError(
                f"vertex {graph.vertex_names[w]} is not a whisker of"
                f" {graph.vertex_names[anchor]}"
            )


def _suspension_condition(graph: WeightedGraph, dec: SuspensionDecomposition):
    """Check each base edge against its endpoints' whisker weights.

    Whiskers of isolated base vertices appear in no base edge and are
    unconstrained.  Returns (holds, violations).
    """
    whisker_of = dec.whisker_of()
    base = set(dec.base_vertices)
    violations = []
    for u, v, w in graph.edges:
        if u not in base or v not in base:
            continue
        for endpoint in (u, v):
            wv = graph.adjacency[endpoint][whisker_of[endpoint]]
            if w > wv:
                violations.append(
                    {
                        "edge": [graph.vertex_names[u], graph.vertex_names[v]],
                        "edge_weight": w,
                        "whisker_of": graph.vertex_names[endpoint],
                        "whisker_weight": wv,
                    }
                )
    return not violations, violations


def _suspension_verdict(
    graph: WeightedGraph,
    dec: SuspensionDecomposition,
    family: str,
    holds_text: str,
    fails_text: str,
) -> Verdict:
    """CM, equivalently unmixed, exactly when the weight condition holds;
    the certificate names the whiskers and any violations."""
    holds, violations = _suspension_condition(graph, dec)
    names = graph.vertex_names
    certificate = {"whiskers": {names[anchor]: names[w] for anchor, w in dec.whiskers}}
    if holds:
        return Verdict(family, True, CM_YES, certificate, holds_text)
    certificate["violations"] = violations
    return Verdict(family, False, CM_NO, certificate, fails_text)


def classify_suspension(graph: WeightedGraph, dec: SuspensionDecomposition) -> Verdict:
    """Verdict for a graph presented with a suspension decomposition.

    CM, equivalently unmixed, exactly when every base edge weighs no more
    than the whisker edges at both endpoints.
    """
    _validate_suspension(graph, dec)
    return _suspension_verdict(
        graph,
        dec,
        "suspension",
        "every base edge weighs no more than both incident whisker edges",
        "some base edge outweighs an incident whisker edge",
    )


def _is_tree(graph: WeightedGraph) -> bool:
    return graph.is_connected() and len(graph.edges) == graph.vertex_count - 1


def classify_tree(graph: WeightedGraph) -> Verdict:
    """Verdict for a weighted tree.

    Trees with at most two vertices are CM.  A larger tree is CM,
    equivalently unmixed, exactly when it splits as a suspension whose
    base edges pass the whisker-weight condition.  A tree has at most one
    such split.
    """
    if not _is_tree(graph):
        raise FamilyMismatchError("not a tree")
    if graph.vertex_count <= 2:
        return Verdict(
            "tree",
            True,
            CM_YES,
            {"vertices": graph.vertex_count},
            "trees with at most two vertices are Cohen-Macaulay",
        )
    dec = suspension_split(graph)
    if dec is not None:
        return _suspension_verdict(
            graph,
            dec,
            "tree",
            "the tree is a suspension whose base edges all weigh no more"
            " than their incident whisker edges",
            "the tree is a suspension but some base edge outweighs an"
            " incident whisker edge",
        )
    return Verdict(
        "tree",
        False,
        CM_NO,
        {"reason": "no valid suspension structure"},
        "a tree on more than two vertices that is not a suspension is mixed",
    )


def _trail_weights(graph: WeightedGraph, start: int, step: int) -> tuple[int, ...]:
    """Edge weights along the trail that leaves ``start`` for ``step`` and
    goes on through vertices of degree at most 2, until it reaches a leaf
    or returns to ``start``."""
    adjacency = graph.adjacency
    seq = [adjacency[start][step]]
    prev, cur = start, step
    while cur != start:
        nxt = [x for x in adjacency[cur] if x != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        seq.append(adjacency[prev][cur])
    return tuple(seq)


def _path_weight_sequence(graph: WeightedGraph):
    """Edge weights from the lower-indexed end of a path; None otherwise."""
    d = graph.vertex_count
    if d < 2 or len(graph.edges) != d - 1 or not graph.is_connected():
        return None
    adjacency = graph.adjacency
    if any(len(around) > 2 for around in adjacency):
        return None
    start = next(v for v, around in enumerate(adjacency) if len(around) == 1)
    return _trail_weights(graph, start, next(iter(adjacency[start])))


def classify_path(graph: WeightedGraph) -> Verdict:
    """Verdict for a weighted path.

    Cohen-Macaulay, equivalently unmixed, only for a single edge or for a
    three-edge path whose middle weight is at most both outer weights.
    """
    seq = _path_weight_sequence(graph)
    if seq is None:
        raise FamilyMismatchError("not a path")
    length = len(seq)
    if length == 1:
        return Verdict(
            "path",
            True,
            CM_YES,
            {"length": 1, "weights": list(seq)},
            "a single weighted edge is Cohen-Macaulay",
        )
    if length == 3 and seq[1] <= seq[0] and seq[1] <= seq[2]:
        return Verdict(
            "path",
            True,
            CM_YES,
            {"length": 3, "weights": list(seq)},
            "a three-edge path with its middle weight at most both outer"
            " weights is Cohen-Macaulay",
        )
    return Verdict(
        "path",
        False,
        CM_NO,
        {"length": length, "weights": list(seq)},
        "paths are Cohen-Macaulay only at length 1, or length 3 with the"
        " middle edge weighing no more than both outer edges",
    )


def cycle_weight_sequence(graph: WeightedGraph):
    """Edge weights around a cycle from vertex 0 towards its lower-indexed
    neighbour; None when the graph is not a cycle."""
    d = graph.vertex_count
    if d < 3 or len(graph.edges) != d or not graph.is_connected():
        return None
    adjacency = graph.adjacency
    if any(len(around) != 2 for around in adjacency):
        return None
    return _trail_weights(graph, 0, min(adjacency[0]))


def _classify_cycle_graph(graph: WeightedGraph) -> Verdict:
    seq = cycle_weight_sequence(graph)
    if seq is None:
        raise FamilyMismatchError("not a cycle")
    return classify_cycle(len(seq), seq)


def _classify_suspension_graph(graph: WeightedGraph) -> Verdict:
    dec = suspension_split(graph)
    if dec is None:
        raise FamilyMismatchError("no suspension structure")
    return classify_suspension(graph, dec)


FAMILIES = {
    "complete": classify_complete,
    "cycle": _classify_cycle_graph,
    "path": classify_path,
    "tree": classify_tree,
    "suspension": _classify_suspension_graph,
}


def classify_auto(graph: WeightedGraph) -> Verdict:
    """Verdict of the first :data:`FAMILIES` entry the graph belongs to.

    Anything outside every family gets a brute-force unmixedness verdict
    by enumerating minimal weighted covers, with Cohen-Macaulayness
    reported as unknown.
    """
    for classify in FAMILIES.values():
        try:
            return classify(graph)
        except FamilyMismatchError:
            pass
    result = is_unmixed(graph)
    if result.unmixed:
        certificate = {"minimal_cover_cardinality": result.cardinality}
    else:
        lo, hi = result.witnesses
        certificate = {
            "witnesses": [
                {graph.vertex_names[v]: w for v, w in c.powers} for c in (lo, hi)
            ]
        }
    return Verdict(
        "generic",
        result.unmixed,
        CM_UNKNOWN,
        certificate,
        "outside the resolved families; unmixedness decided by exhaustive"
        " enumeration of minimal weighted covers",
    )
