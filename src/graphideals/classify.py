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
  a suspension satisfying the weight condition above.  So a path is CM
  exactly at one edge, or at three edges with the middle edge no heavier
  than both ends.

:data:`FAMILIES` maps each family name to its classifier, a function
of the graph alone that raises :class:`FamilyMismatchError` outside the
family.  The table is ordered complete, cycle, tree, suspension;
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


def classify_cycle(graph: WeightedGraph) -> Verdict:
    """Verdict for a weighted cycle from its weights around the cycle.

    The verdict depends on the weight sequence of
    :func:`cycle_weight_sequence` only up to rotation and reflection.
    """
    weights = cycle_weight_sequence(graph)
    if weights is None:
        raise FamilyMismatchError("not a cycle")
    n = len(weights)
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
    """Every split of the graph into base vertices and whiskers.

    These are :func:`suspension_split`'s split with the whisker of any
    subset of its isolated edges moved to the other end: 2**k splits for
    k isolated edges, or none.  They are listed by their sorted whisker
    vertices, in time linear in the graph plus the output.  A single edge
    admits two splits; an odd vertex count, an isolated vertex or two
    leaves on one vertex admit none.
    """
    split = suspension_split(graph)
    if split is None:
        return []
    fixed = [(a, w) for a, w in split.whiskers if graph.degree(a) > 1]
    # the smaller end of each isolated edge first, edges by their smaller
    # end: the product then runs in the order of the sorted whiskers
    isolated = sorted((w, a) for a, w in split.whiskers if graph.degree(a) == 1)
    out = []
    for chosen in itertools.product(*(((a, w), (w, a)) for w, a in isolated)):
        pairs = (*fixed, *chosen)
        out.append(SuspensionDecomposition(tuple(a for a, _ in pairs), pairs))
    return out


def suspension_split(graph: WeightedGraph) -> SuspensionDecomposition | None:
    """One split into base vertices and whiskers, in linear time; None if none.

    A split pairs every vertex: each base vertex with one whisker, a leaf
    hanging from it.  A leaf whose neighbor is not a leaf must be a
    whisker and every other vertex outside an isolated edge a base vertex,
    so splits differ only in which end of each isolated edge is the
    whisker; this one takes the smaller index.  Isolated edges join no
    base edge, so the weight condition gives every split one verdict.
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


def classify_suspension(graph: WeightedGraph) -> Verdict:
    """Verdict for a graph that splits into base vertices and whiskers.

    The split is :func:`suspension_split`'s; every other split moves only
    whiskers of isolated edges, which join no base edge, so it gives the
    same verdict and violations.  CM, equivalently unmixed, exactly when
    every base edge weighs no more than the whisker edges at both
    endpoints.
    """
    dec = suspension_split(graph)
    if dec is None:
        raise FamilyMismatchError("no suspension structure")
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


def cycle_weight_sequence(graph: WeightedGraph):
    """Edge weights around a cycle from vertex 0 towards its lower-indexed
    neighbour; None when the graph is not a cycle."""
    d = graph.vertex_count
    if d < 3 or len(graph.edges) != d or not graph.is_connected():
        return None
    adjacency = graph.adjacency
    if any(len(around) != 2 for around in adjacency):
        return None
    prev, cur = 0, min(adjacency[0])
    seq = [adjacency[0][cur]]
    while cur != 0:
        prev, cur = cur, next(x for x in adjacency[cur] if x != prev)
        seq.append(adjacency[prev][cur])
    return tuple(seq)


FAMILIES = {
    "complete": classify_complete,
    "cycle": classify_cycle,
    "tree": classify_tree,
    "suspension": classify_suspension,
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
