"""Acceptance gate: every criterion below prints one pass/fail line.

Run visibly with ``pytest -s tests/test_acceptance.py``.  Each test is
one numbered criterion; the printed line records the verdict even when
pytest captures output.  Command-line invocations capture stdout via
redirect_stdout so the suite behaves identically under ``-s``.
"""

import contextlib
import io
import itertools
import json
import random
import time

import networkx
import pytest

from graphideals.classify import (
    CM_YES,
    classify_complete,
    classify_cycle,
    classify_suspension,
    classify_tree,
)
from graphideals.cli import main
from graphideals.decompose import IrreducibleComponent, split_decompose
from graphideals.graphs import (
    WeightedGraph,
    complete_graph,
    cover_decomposition,
    cover_leq,
    cycle_graph,
    edge_ideal,
    enumerate_minimal_covers,
    is_unmixed,
    is_weighted_cover,
    minimize_cover,
    suspend,
    weighted_edge_ideal,
)
from graphideals.monomials import (
    MonomialIdeal,
    VariableContext,
    bracket_power,
    depolarize,
    ideal_eq,
    ideal_leq,
    m_radical,
    polarize,
)
from graphideals.verify import exhaustive_weighted_graphs, random_weighted_graph


@contextlib.contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {text}")
        raise
    print(f"[criterion {num:02d}] PASS - {text}")


def cli_lines(argv, stdin_doc=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if stdin_doc is None:
            code = main(argv)
        else:
            import sys

            old = sys.stdin
            sys.stdin = io.StringIO(json.dumps(stdin_doc))
            try:
                code = main(argv)
            finally:
                sys.stdin = old
    assert code == 0, f"exit {code} from {argv}"
    return out.getvalue().splitlines()


def path2_doc(a, b):
    return {
        "vertices": ["v1", "v2", "v3"],
        "edges": [
            {"u": "v1", "v": "v2", "w": a},
            {"u": "v2", "v": "v3", "w": b},
        ],
    }


def test_criterion_01_path_worked_example():
    with criterion(1, "path decomposition worked example, both weightings, < 1 s"):
        start = time.monotonic()
        got = cli_lines(["decompose", "-", "--method", "covers"], path2_doc(2, 5))
        assert got == ["(X1^2, X2^5)", "(X1^2, X3^5)", "(X2^2)"]
        got = cli_lines(["decompose", "-", "--method", "covers"], path2_doc(2, 2))
        assert got == ["(X1^2, X3^2)", "(X2^2)"]
        assert time.monotonic() - start < 1.0


def test_criterion_02_triangle_worked_example():
    with criterion(2, "triangle decomposition worked example, < 1 s"):
        start = time.monotonic()
        D = cover_decomposition(cycle_graph([1, 2, 3]))
        assert [str(c) for c in D.components] == [
            "(X1, X2^2)",
            "(X1, X3^2)",
            "(X1^3, X2)",
            "(X2, X3^3)",
        ]
        supports = [c.support for c in D.components]
        assert supports.count((0, 1)) == 2
        assert time.monotonic() - start < 1.0


def test_criterion_03_minimization_golden():
    with criterion(3, "five-cycle cover minimization goldens"):
        g = cycle_graph([2, 5, 3, 4, 2])
        def cover(entries):
            return IrreducibleComponent(g.context, tuple(entries.items()))

        got = minimize_cover(g, cover({0: 2, 1: 5, 3: 3, 4: 2}))
        assert got == cover({0: 2, 1: 5, 3: 3})
        got = minimize_cover(g, cover({0: 2, 1: 5, 3: 2}))
        assert got == cover({0: 2, 1: 5, 3: 3})


def test_criterion_04_oracle_equivalence():
    with criterion(
        4,
        "cover and split decompositions agree on 760 exhaustive and"
        " 500 random graphs, < 5 min",
    ):
        start = time.monotonic()
        corpus = list(exhaustive_weighted_graphs(4, weights=(1, 2)))
        assert len(corpus) == 760
        rng = random.Random(20260822)
        corpus += [
            random_weighted_graph(rng, max_vertices=5, max_weight=3)
            for _ in range(500)
        ]
        for g in corpus:
            I = weighted_edge_ideal(g)
            by_covers = cover_decomposition(g)
            by_split = split_decompose(I)
            assert by_covers.components == by_split.components, g
            assert ideal_eq(by_covers.intersection(), I), g
            assert ideal_eq(by_split.intersection(), I), g
        assert time.monotonic() - start < 300.0


def five_cycle_pattern_holds(w):
    seqs = []
    for base in (list(w), list(reversed(w))):
        seqs += [tuple(base[r:] + base[:r]) for r in range(5)]
    return any(
        a == e and a <= b and b >= c and c <= d and d >= e
        for a, b, c, d, e in seqs
    )


def test_criterion_05_five_cycle_theorem():
    with criterion(
        5, "five-cycle pattern = classifier = brute force on all 243 tuples, < 2 min"
    ):
        start = time.monotonic()
        count = 0
        for w in itertools.product((1, 2, 3), repeat=5):
            verdict = classify_cycle(cycle_graph(list(w))).unmixed
            brute = is_unmixed(cycle_graph(list(w))).unmixed
            pattern = five_cycle_pattern_holds(w)
            assert verdict == brute == pattern, w
            count += 1
        assert count == 243
        assert time.monotonic() - start < 120.0


def test_criterion_06_four_and_seven_cycles():
    with criterion(
        6, "nontrivial 4-cycles all mixed (exhaustive); 100 random 7-cycles match"
    ):
        for w in itertools.product((1, 2), repeat=4):
            trivial = len(set(w)) == 1
            res = is_unmixed(cycle_graph(list(w)))
            assert res.unmixed == trivial, w
            assert classify_cycle(cycle_graph(list(w))).unmixed == trivial
        rng = random.Random(7)
        nontrivial = 0
        while nontrivial < 100:
            w = [rng.randint(1, 3) for _ in range(7)]
            if len(set(w)) == 1:
                continue
            nontrivial += 1
            assert not classify_cycle(cycle_graph(w)).unmixed
            assert not is_unmixed(cycle_graph(w)).unmixed, w
        for a in (1, 2, 3):
            res = is_unmixed(cycle_graph([a] * 7))
            assert res.unmixed and classify_cycle(cycle_graph([a] * 7)).unmixed


def test_criterion_07_complete_graphs():
    with criterion(
        7, "complete graphs n=2..5, 20 random weightings each: all covers drop one"
    ):
        rng = random.Random(11)
        for n in range(2, 6):
            edge_count = n * (n - 1) // 2
            for _ in range(20):
                ws = [rng.randint(1, 4) for _ in range(edge_count)]
                g = complete_graph(n, ws)
                covers = enumerate_minimal_covers(g)
                assert all(c.m_height == n - 1 for c in covers), (n, ws)
                v = classify_complete(g)
                assert v.unmixed and v.cohen_macaulay == CM_YES


def random_suspension(rng):
    n = rng.randint(1, 4)
    names = tuple(f"v{i + 1}" for i in range(n))
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.6:
            edges.append((u, v, rng.randint(1, 3)))
    base = WeightedGraph(names, tuple(edges))
    return suspend(base, [rng.randint(1, 3) for _ in range(n)])


def test_criterion_08_suspensions_and_trees():
    with criterion(
        8,
        "tree classifier matches brute force on all weighted trees <= 6"
        " vertices; suspension condition matches on 100 random suspensions",
    ):
        checked = 0
        for n in range(2, 7):
            for shape in networkx.nonisomorphic_trees(n):
                edges = sorted(
                    (min(u, v), max(u, v)) for u, v in shape.edges()
                )
                for ws in itertools.product((1, 2), repeat=len(edges)):
                    g = WeightedGraph(
                        tuple(f"v{i + 1}" for i in range(n)),
                        tuple((u, v, w) for (u, v), w in zip(edges, ws)),
                    )
                    assert classify_tree(g).unmixed == is_unmixed(g).unmixed, g
                    checked += 1
        assert checked >= 250
        rng = random.Random(13)
        for _ in range(100):
            g = random_suspension(rng)
            verdict = classify_suspension(g)
            assert verdict.unmixed == is_unmixed(g).unmixed, g


def random_cover_candidates(g, rng, count):
    out = []
    max_w = max((e.w for e in g.edges), default=1) + 1
    for _ in range(count):
        entries = {
            v: rng.randint(1, max_w)
            for v in range(g.vertex_count)
            if rng.random() < 0.5
        }
        out.append(IrreducibleComponent(g.context, tuple(entries.items())))
    return out


def test_criterion_09_structural_identities():
    with criterion(
        9,
        "radical, bracket power, cover order and cover predicate identities"
        " over the graph corpus",
    ):
        rng = random.Random(17)
        corpus = list(exhaustive_weighted_graphs(3, weights=(1, 2)))
        corpus += [
            random_weighted_graph(rng, max_vertices=5, max_weight=3)
            for _ in range(100)
        ]
        for g in corpus:
            I = weighted_edge_ideal(g)
            assert ideal_eq(m_radical(I), edge_ideal(g))
            weights = set(g.weights())
            if len(weights) == 1:
                a = weights.pop()
                assert ideal_eq(I, bracket_power(edge_ideal(g), a))
            pool = enumerate_minimal_covers(g) + random_cover_candidates(g, rng, 4)
            for c in pool:
                member = is_weighted_cover(g, c)
                contained = ideal_leq(I, c.ideal())
                assert member == contained, (g, c)
            for c2, c1 in itertools.product(pool[:8], repeat=2):
                if not c2.powers:
                    continue
                lhs = cover_leq(c2, c1)
                rhs = ideal_leq(c2.ideal(), c1.ideal())
                assert lhs == rhs, (g, c2, c1)


def test_criterion_10_polarization():
    with criterion(10, "polarization squarefree and depolarizes back, 200 ideals"):
        rng = random.Random(23)
        for _ in range(200):
            d = rng.randint(1, 4)
            ctx = VariableContext.of_dimension(d)
            rows = [
                tuple(rng.randint(0, 4) for _ in range(d))
                for _ in range(rng.randint(0, 5))
            ]
            I = MonomialIdeal(ctx, rows)
            polar_ctx, polar, origin = polarize(I)
            assert all(e <= 1 for row in polar.rows for e in row)
            assert ideal_eq(depolarize(polar, origin, ctx), I)
