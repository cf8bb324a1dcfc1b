"""Cross-validation of the two decomposition routes and the cover calculus.

Every check here ties together things computed along independent paths:
minimal-cover enumeration against generator splitting, cover order against
ideal containment, the cover predicate against ideal membership, and the
various radical, power and minimization identities.  The CLI ``verify``
command and the test suite both run these.
"""

from __future__ import annotations

import itertools
import random

from ._records import Record
from .decompose import IrreducibleComponent, split_decompose
from .graphs import (
    Edge,
    WeightedGraph,
    cover_decomposition,
    cover_leq,
    edge_ideal,
    is_unmixed,
    is_weighted_cover,
    minimal_vertex_covers,
    minimize_cover,
    weighted_edge_ideal,
)
from .monomials import bracket_power, ideal_eq, ideal_leq, m_radical


class CheckResult(Record):
    _fields = ("name", "passed", "cases", "detail")

    def __init__(self, name: str, passed: bool, cases: int, detail: str = ""):
        self.name = name
        self.passed = passed
        self.cases = cases
        self.detail = detail


def random_weighted_graph(
    rng: random.Random,
    max_vertices: int = 5,
    max_weight: int = 3,
    edge_probability: float = 0.5,
) -> WeightedGraph:
    """A random simple graph with uniform random positive edge weights."""
    d = rng.randint(1, max_vertices)
    names = tuple(f"v{i + 1}" for i in range(d))
    edges = []
    for u, v in itertools.combinations(range(d), 2):
        if rng.random() < edge_probability:
            edges.append(Edge(u, v, rng.randint(1, max_weight)))
    return WeightedGraph(names, tuple(edges))


def exhaustive_weighted_graphs(max_vertices: int, weights=(1, 2)):
    """Every labeled simple graph on <= max_vertices vertices, every
    assignment of the given weights to its edges."""
    for d in range(1, max_vertices + 1):
        names = tuple(f"v{i + 1}" for i in range(d))
        pairs = list(itertools.combinations(range(d), 2))
        for picked in itertools.chain.from_iterable(
            itertools.combinations(pairs, r) for r in range(len(pairs) + 1)
        ):
            for combo in itertools.product(weights, repeat=len(picked)):
                edges = tuple(Edge(u, v, w) for (u, v), w in zip(picked, combo))
                yield WeightedGraph(names, edges)


def _mutated_covers(graph, covers, rng, count):
    """Valid and invalid cover-shaped inputs derived from real covers."""
    out = []
    d = graph.vertex_count
    for _ in range(count):
        base = rng.choice(covers).powers_dict() if covers else {}
        mutation = rng.randrange(3)
        if mutation == 0 and base:
            v = rng.choice(sorted(base))
            base[v] = base[v] + rng.randint(1, 2)
        elif mutation == 1 and base:
            v = rng.choice(sorted(base))
            base[v] = max(1, base[v] - 1)
        else:
            v = rng.randrange(d)
            base[v] = rng.randint(1, 4)
        out.append(IrreducibleComponent(graph.context, tuple(base.items())))
    return out


def check_graph(graph: WeightedGraph, rng: random.Random | None = None):
    """Run every structural check on one graph."""
    if rng is None:
        rng = random.Random(0)
    results = []
    ideal = weighted_edge_ideal(graph)
    plain = edge_ideal(graph)
    by_covers = cover_decomposition(graph)
    covers = list(by_covers.components)
    by_split = split_decompose(ideal)

    # equal components intersect alike, so one intersection checks both
    agree = by_covers.components == by_split.components
    intersects = agree and ideal_eq(by_covers.intersection(), ideal)
    if not agree:
        detail = f"routes disagree on {graph}"
    elif not intersects:
        detail = f"components do not intersect back to the ideal on {graph}"
    else:
        detail = ""
    results.append(CheckResult("decomposition-routes-agree", intersects, 1, detail))

    results.append(
        CheckResult(
            "radical-flattens-weights",
            ideal_eq(m_radical(ideal), plain),
            1,
            "",
        )
    )

    weights = set(graph.weights())
    if len(weights) == 1:
        a = weights.pop()
        results.append(
            CheckResult(
                "uniform-weight-power-identity",
                ideal_eq(ideal, bracket_power(plain, a)),
                1,
                "",
            )
        )

    context = graph.context
    pool = covers + _mutated_covers(graph, covers, rng, 6)
    pool_ideals = [c.ideal() for c in pool]
    cases = 0
    ok = True
    detail = ""
    pairs = zip(pool, pool_ideals)
    for (c1, i1), (c2, i2) in itertools.product(pairs, repeat=2):
        cases += 1
        if cover_leq(c1, c2) != ideal_leq(i1, i2):
            ok = False
            detail = f"cover order vs ideal order differ on {c1} vs {c2}"
            break
    results.append(CheckResult("cover-order-matches-ideal-order", ok, cases, detail))

    ok = True
    detail = ""
    for c, c_ideal in zip(pool, pool_ideals):
        if is_weighted_cover(graph, c) != ideal_leq(ideal, c_ideal):
            ok = False
            detail = f"cover predicate vs containment differ on {c}"
            break
    results.append(
        CheckResult("cover-predicate-matches-containment", ok, len(pool), detail)
    )

    unmixed = is_unmixed(graph).unmixed
    by_split_unmixed = len(by_split.support_sizes()) == 1
    results.append(
        CheckResult("unmixedness-routes-agree", unmixed == by_split_unmixed, 1, "")
    )

    ok = True
    detail = ""
    checked = 0
    if graph.edges:
        seeds = []
        for c in covers[:4]:
            entries = c.powers_dict()
            outside = [v for v in range(graph.vertex_count) if v not in entries]
            extras = [v for v in outside if graph.degree(v) > 0]
            if extras:
                v = extras[0]
                entries[v] = min(graph.incident_weights(v))
            if entries:
                v = sorted(entries)[0]
                entries[v] = max(1, entries[v] - 1)
            seeds.append(IrreducibleComponent(context, tuple(entries.items())))
        for seed in seeds:
            if not is_weighted_cover(graph, seed):
                continue
            checked += 1
            shrunk = minimize_cover(graph, seed)
            if not is_weighted_cover(graph, shrunk) or not cover_leq(shrunk, seed):
                ok = False
                detail = f"minimize_cover left {seed} incorrectly"
                break
            if shrunk not in covers:
                ok = False
                detail = f"minimize_cover({seed}) = {shrunk} is not minimal"
                break
    results.append(CheckResult("minimization-reaches-minimal", ok, checked, detail))

    ok = True
    detail = ""
    plain_covers = minimal_vertex_covers(graph)
    for support in plain_covers:
        if not support:
            continue
        lifted = IrreducibleComponent(
            context, tuple((v, min(graph.incident_weights(v))) for v in support)
        )
        shrunk = minimize_cover(graph, lifted)
        if shrunk.support != support:
            ok = False
            detail = f"lift of unweighted cover {support} lost vertices"
            break
    results.append(
        CheckResult("unweighted-covers-lift", ok, len(plain_covers), detail)
    )

    plain_cards = {len(s) for s in plain_covers}
    if len(plain_cards) > 1:
        results.append(
            CheckResult("unweighted-mixedness-persists", not unmixed, 1, "")
        )
    return results


def merge_results(result_lists):
    """Aggregate per-graph results by check name."""
    merged: dict[str, CheckResult] = {}
    for results in result_lists:
        for r in results:
            have = merged.get(r.name)
            if have is None:
                merged[r.name] = CheckResult(r.name, r.passed, r.cases, r.detail)
            else:
                have.cases += r.cases
                if not r.passed and have.passed:
                    have.passed = False
                    have.detail = r.detail
    return list(merged.values())


def run_suite(graphs, seed: int = 0):
    """Run the full check set over a corpus; returns (results, graph count)."""
    rng = random.Random(seed)
    all_results = []
    count = 0
    for graph in graphs:
        count += 1
        all_results.append(check_graph(graph, rng))
    return merge_results(all_results), count
