"""Splitting-algorithm decompositions, irredundancy and m-height."""

import itertools
import random
import time

import pytest

from graphideals.decompose import (
    Decomposition,
    DecompositionLimitError,
    IrreducibleComponent,
    is_m_unmixed_ideal,
    split_decompose,
)
from graphideals import kernels
from graphideals.graphs import (
    Edge,
    WeightedGraph,
    cover_decomposition,
    edge_ideal,
    weighted_edge_ideal,
)
from graphideals.monomials import (
    ContextMismatchError,
    MonomialIdeal,
    VariableContext,
    bracket_power,
    ideal_eq,
    intersect,
)
from graphideals.verify import random_weighted_graph
from test_monomials import is_m_irreducible

X3 = VariableContext.of_dimension(3)
X5 = VariableContext.of_dimension(5)


def ideal(ctx, *rows):
    return MonomialIdeal(ctx, rows)


def comp(ctx, powers):
    return IrreducibleComponent(ctx, tuple(sorted(powers.items())))


class TestComponent:
    def test_requires_positive_powers(self):
        with pytest.raises(ValueError):
            comp(X3, {0: 0})

    def test_requires_valid_index(self):
        with pytest.raises(ValueError):
            comp(X3, {3: 1})

    @pytest.mark.parametrize(
        "powers",
        [((0, 2.7), (1, 1)), ((0, 2), (1, True)), ((True, 2),), (("0", 1),)],
    )
    def test_rejects_non_int_entries(self, powers):
        # no silent truncation: (0, 2.7) must not become X1^2
        with pytest.raises(ValueError, match="must be ints"):
            IrreducibleComponent(X3, powers)

    def test_sorts_unsorted_pairs(self):
        c = IrreducibleComponent(X5, ((3, 1), (0, 2), (4, 7)))
        assert c.powers == ((0, 2), (3, 1), (4, 7))
        c = IrreducibleComponent(X5, [[4, 1], [1, 3]])
        assert c.powers == ((1, 3), (4, 1))
        assert all(type(pair) is tuple for pair in c.powers)
        assert c == comp(X5, {1: 3, 4: 1})

    @pytest.mark.parametrize(
        "powers",
        [((0, 1), (0, 2)), ((2, 1), (0, 1), (2, 3)), ((1, 1), (1, 1))],
    )
    def test_rejects_repeated_variable(self, powers):
        with pytest.raises(ValueError, match="distinct"):
            IrreducibleComponent(X3, powers)

    @pytest.mark.parametrize(
        "powers",
        [((0, 1), (2, False)), ((2, 1), (False, 1)), ((1, 2), (0, 2.0))],
    )
    def test_rejects_bool_and_float_anywhere(self, powers):
        with pytest.raises(ValueError, match="must be ints"):
            IrreducibleComponent(X3, powers)

    @pytest.mark.parametrize("powers", [5, [5], [(0, 1), None]])
    def test_rejects_non_sequence_powers_and_non_pairs(self, powers):
        with pytest.raises(ValueError):
            IrreducibleComponent(X3, powers)

    @pytest.mark.parametrize(
        "powers", [((-1, 2),), ((2, 1), (7, 1), (0, 1)), ((0, 1), (5, 1))]
    )
    def test_rejects_index_out_of_range_anywhere(self, powers):
        with pytest.raises(ValueError, match="out of range"):
            IrreducibleComponent(X5, powers)

    def test_support_and_height(self):
        c = comp(X5, {0: 2, 1: 5, 3: 3})
        assert c.support == (0, 1, 3)
        assert c.m_height == 3

    def test_ideal_round_trip(self):
        c = comp(X3, {0: 2, 2: 5})
        assert c.ideal().rows == ((2, 0, 0), (0, 0, 5))

    def test_containment_reverses_powers(self):
        big = comp(X5, {0: 2, 1: 5, 3: 3, 4: 2})
        small = comp(X5, {0: 2, 1: 5, 3: 3})
        assert big.contains(small)
        assert not small.contains(big)

    def test_containment_needs_smaller_exponents(self):
        # (X1^3) holds (X1^5) but not (X1^2)
        assert comp(X3, {0: 3}).contains(comp(X3, {0: 5}))
        assert not comp(X3, {0: 3}).contains(comp(X3, {0: 2}))

    def test_str(self):
        assert str(comp(X3, {0: 2, 1: 5})) == "(X1^2, X2^5)"
        assert str(comp(X3, {1: 1})) == "(X2)"
        assert str(IrreducibleComponent(X3, ())) == "(0)"

    def test_empty_component_is_zero_ideal(self):
        assert IrreducibleComponent(X3, ()).ideal().is_zero


class TestSplitDecompose:
    def test_two_weight_path(self):
        I = ideal(X3, (2, 2, 0), (0, 5, 5))
        D = split_decompose(I)
        assert [str(c) for c in D.components] == [
            "(X1^2, X2^5)",
            "(X1^2, X3^5)",
            "(X2^2)",
        ]
        assert ideal_eq(D.intersection(), I)

    def test_equal_weight_path_prunes_to_two(self):
        I = ideal(X3, (2, 2, 0), (0, 2, 2))
        D = split_decompose(I)
        assert [str(c) for c in D.components] == ["(X1^2, X3^2)", "(X2^2)"]

    def test_zero_ideal_single_empty_component(self):
        D = split_decompose(MonomialIdeal.zero(X3))
        assert len(D) == 1
        assert D.components[0].powers == ()
        assert D.intersection().is_zero

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError, match="unit ideal"):
            split_decompose(MonomialIdeal.unit(X3))

    def test_already_irreducible(self):
        I = ideal(X3, (2, 0, 0), (0, 5, 0))
        D = split_decompose(I)
        assert len(D) == 1
        assert D.components[0] == comp(X3, {0: 2, 1: 5})

    def test_every_component_is_irreducible(self):
        I = ideal(X3, (1, 1, 0), (0, 2, 2), (3, 0, 3))
        for c in split_decompose(I).components:
            assert is_m_irreducible(c.ideal())

    def test_pairwise_irredundant(self):
        I = ideal(X3, (1, 1, 0), (0, 2, 2), (3, 0, 3))
        comps = split_decompose(I).components
        for i, a in enumerate(comps):
            for j, b in enumerate(comps):
                if i != j:
                    assert not a.contains(b)

    def test_component_cap(self):
        I = ideal(X3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        with pytest.raises(DecompositionLimitError):
            split_decompose(I, max_components=1)

    def test_random_reconstruction(self):
        rng = random.Random(2024)
        for trial in range(60):
            d = rng.randint(1, 4)
            ctx = VariableContext.of_dimension(d)
            rows = [
                tuple(rng.randint(0, 4) for _ in range(d))
                for _ in range(rng.randint(1, 5))
            ]
            I = MonomialIdeal(ctx, rows)
            if I.is_unit:
                continue
            D = split_decompose(I)
            assert ideal_eq(D.intersection(), I)


def weighted_graph(d, edges):
    return WeightedGraph(tuple(f"v{i + 1}" for i in range(d)), tuple(edges))


def seeded_forest(rng, heavy=False):
    """A random forest, isolated vertices included; some edges weigh 10**20
    when ``heavy``, which widens the split route's packed fields."""
    d = rng.randint(1, 12)
    edges = []
    for v in range(1, d):
        if rng.random() < 0.75:
            w = rng.randint(1, 4)
            if heavy and rng.random() < 0.3:
                w = 10**20 + rng.randint(0, 1)
            edges.append(Edge(rng.randrange(v), v, w))
    return weighted_graph(d, edges)


def seeded_disconnected(rng):
    """Two to four random G(n, 1/2) blocks side by side, with edgeless
    blocks standing for isolated vertices."""
    edges = []
    d = 0
    for _ in range(rng.randint(2, 4)):
        n = rng.randint(1, 4)
        for u, v in itertools.combinations(range(d, d + n), 2):
            if rng.random() < 0.5:
                edges.append(Edge(u, v, rng.randint(1, 3)))
        d += n
    return weighted_graph(d, edges)


class TestIndependenceSplits:
    """Split route against the covers route where the generators fall into
    parts on disjoint variables."""

    @staticmethod
    def assert_routes_agree(g):
        I = weighted_edge_ideal(g)
        D = split_decompose(I)
        assert D.components == cover_decomposition(g).components, g
        return D

    def test_forests(self):
        rng = random.Random(20261018)
        for _ in range(150):
            self.assert_routes_agree(seeded_forest(rng))

    def test_forests_with_huge_weights(self):
        rng = random.Random(1018)
        for _ in range(100):
            self.assert_routes_agree(seeded_forest(rng, heavy=True))
        big = 10**20
        D = self.assert_routes_agree(
            weighted_graph(4, [Edge(0, 1, big), Edge(1, 2, 1), Edge(2, 3, big + 1)])
        )
        assert ((1, 1), (2, big + 1)) in [c.powers for c in D.components]

    def test_disconnected_graphs(self):
        rng = random.Random(718)
        for _ in range(150):
            self.assert_routes_agree(seeded_disconnected(rng))

    def test_isolated_vertices_join_no_component(self):
        g = weighted_graph(6, [Edge(1, 2, 2), Edge(4, 5, 3)])
        D = self.assert_routes_agree(g)
        assert len(D) == 4
        assert all({0, 3}.isdisjoint(c.support) for c in D.components)

    def test_reconstruction_of_disjoint_blocks(self):
        # not edge ideals: mixed generators of any support, pure powers too
        rng = random.Random(99)
        for _ in range(60):
            blocks = []
            d = 0
            for _ in range(rng.randint(2, 3)):
                n = rng.randint(1, 3)
                for _ in range(rng.randint(1, 3)):
                    row = [0] * 9
                    for k in range(d, d + n):
                        row[k] = rng.randint(0, 3)
                    blocks.append(tuple(row))
                d += n
            I = MonomialIdeal(VariableContext.of_dimension(9), blocks)
            if I.is_unit:
                continue
            D = split_decompose(I)
            assert ideal_eq(D.intersection(), I)
            for a, b in itertools.permutations(D.components, 2):
                assert not a.contains(b)

    def test_product_step_enforces_cap(self):
        # k disjoint edges: k parts of two components each, 2^k in all;
        # the top node is a product, so only the product step can refuse
        k = 6
        g = weighted_graph(2 * k, [Edge(2 * i, 2 * i + 1, i + 1) for i in range(k)])
        I = weighted_edge_ideal(g)
        assert len(split_decompose(I, max_components=2**k)) == 2**k
        with pytest.raises(DecompositionLimitError):
            split_decompose(I, max_components=2**k - 1)

    def test_cap_checked_while_the_product_is_built(self):
        # 2^40 components would never finish if built before the check
        k = 40
        g = weighted_graph(2 * k, [Edge(2 * i, 2 * i + 1, 2) for i in range(k)])
        with pytest.raises(DecompositionLimitError, match="1000 components"):
            split_decompose(weighted_edge_ideal(g), max_components=1000)


def route_graph(name):
    """Cycle Cn or complete graph Kn, weights 1..3 drawn in edge order from
    a fresh Random(12050)."""
    rng = random.Random(12050)
    n = int(name[1:])
    if name[0] == "C":
        pairs = [(i, (i + 1) % n) for i in range(n)]
    else:
        pairs = list(itertools.combinations(range(n), 2))
    return weighted_graph(n, [Edge(u, v, rng.randint(1, 3)) for u, v in pairs])


class TestRouteAgreement:
    """Split against covers on larger graphs."""

    @pytest.mark.parametrize(
        "name, count", [("C18", 1083), ("C20", 4005), ("K10", 37)]
    )
    def test_cycles_and_complete_graph(self, name, count):
        g = route_graph(name)
        D = split_decompose(weighted_edge_ideal(g))
        assert len(D) == count
        assert D.components == cover_decomposition(g).components

    def test_star_deeper_than_the_recursion_limit(self):
        # one level per leaf: 497 leaves is the smallest star of this
        # family whose split ran past Python's default recursion limit
        # when the route recursed
        n = 497
        g = weighted_graph(n + 1, [Edge(0, i + 1, 1 + i % 3) for i in range(n)])
        D = split_decompose(weighted_edge_ideal(g))
        assert len(D) == 4
        assert D.components == cover_decomposition(g).components

    def test_star_ideal_builds_faster_than_it_splits(self):
        # edges of a star never divide each other; the support-filtered
        # sweep compares none of them exponent by exponent, so building
        # the ideal must cost less than decomposing it
        n = 400
        g = weighted_graph(n + 1, [Edge(0, i + 1, 1 + i % 3) for i in range(n)])
        build = split = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            I = weighted_edge_ideal(g)
            t1 = time.perf_counter()
            D = split_decompose(I)
            t2 = time.perf_counter()
            build, split = min(build, t1 - t0), min(split, t2 - t1)
        assert len(D) == 4
        assert build < split, (build, split)


def tuple_fold(D):
    """The intersection on dense tuples, folded pairwise in a balanced tree.

    A left fold grows one ever larger ideal and re-sweeps it per
    component; pairing neighbours keeps both operands of each
    ``intersect`` small until the last levels.
    """
    ideals = [c.ideal() for c in D.components] or [MonomialIdeal.unit(D.context)]
    while len(ideals) > 1:
        paired = [intersect(a, b) for a, b in zip(ideals[::2], ideals[1::2])]
        ideals = paired + ideals[len(paired) * 2 :]
    return ideals[0]


def seeded_component_list(rng):
    """Random components of dimension 1-7, with repeated and redundant
    components among them; some exponents are 10**20, and a few lists
    hold the zero component."""
    d = rng.randint(1, 7)
    ctx = VariableContext.of_dimension(d)
    huge = rng.random() < 0.25

    def exponent():
        e = rng.randint(1, 4)
        return 10**20 + e if huge and rng.random() < 0.5 else e

    powers = []
    for _ in range(rng.randint(1, 6)):
        support = sorted(rng.sample(range(d), rng.randint(1, d)))
        powers.append(tuple((i, exponent()) for i in support))
    if rng.random() < 0.5:
        powers.append(rng.choice(powers))
    if rng.random() < 0.5:
        # variables added, exponents lowered: it contains the original
        base = dict(rng.choice(powers))
        for i in rng.sample(range(d), rng.randint(0, d)):
            base[i] = max(1, base.get(i, 1) - rng.randint(0, 1))
        powers.append(tuple(sorted(base.items())))
    if rng.random() < 0.1:
        powers.append(())
    return Decomposition(ctx, tuple(IrreducibleComponent(ctx, p) for p in powers))


class TestIntersection:
    """The packed fold of Decomposition.intersection against the fold of
    monomials.intersect on dense tuples."""

    def test_random_component_lists(self):
        rng = random.Random(918)
        seen = {"repeated": 0, "redundant": 0, "zero": 0, "huge": 0}
        for _ in range(400):
            D = seeded_component_list(rng)
            comps = D.components
            seen["repeated"] += len(set(comps)) < len(comps)
            seen["redundant"] += any(
                a.contains(b) for a, b in itertools.permutations(comps, 2)
            )
            seen["zero"] += any(not c.powers for c in comps)
            seen["huge"] += any(e > 10**20 for c in comps for _, e in c.powers)
            assert D.intersection().rows == tuple_fold(D).rows, comps
        assert min(seen.values()) > 0, seen

    def test_empty_list_is_the_unit_ideal(self):
        for d in range(1, 8):
            D = Decomposition(VariableContext.of_dimension(d), ())
            assert D.intersection().is_unit
            assert D.intersection().rows == tuple_fold(D).rows

    def test_zero_component_gives_the_zero_ideal(self):
        D = Decomposition(X3, (comp(X3, {0: 2, 1: 10**20}), comp(X3, {})))
        assert D.intersection().is_zero
        assert D.intersection().rows == tuple_fold(D).rows

    @pytest.mark.parametrize("name", ["C18", "C20", "K10"])
    def test_route_agreement_graphs(self, name):
        g = route_graph(name)
        D = cover_decomposition(g)
        rows = D.intersection().rows
        assert rows == tuple_fold(D).rows
        assert rows == weighted_edge_ideal(g).rows


class TestLibraryAntichains:
    """The ideals built by MonomialIdeal._of_antichain against the
    validating constructor as the oracle: the same rows, masks, equality,
    hash and repr as MonomialIdeal(context, rows) on rows built here from
    the definitions."""

    def check(self, built, rows):
        oracle = MonomialIdeal(built.context, rows)
        assert built.rows == oracle.rows
        assert built._masked_rows == oracle._masked_rows
        assert built == oracle and hash(built) == hash(oracle)
        assert repr(built) == repr(oracle)

    def edge_rows(self, g, squarefree):
        d = g.vertex_count
        return [
            tuple((1 if squarefree else w) if i in (u, v) else 0 for i in range(d))
            for u, v, w in reversed(g.edges)
        ]

    def power_rows(self, c):
        d = c.context.dimension
        return [tuple(e if i == j else 0 for j in range(d)) for i, e in c.powers]

    def test_graph_sites(self):
        # seeded 1-8-vertex graphs, a quarter with weights of 10**20, plus
        # an edgeless graph and a one-vertex graph
        rng = random.Random(1307)
        graphs = [WeightedGraph(("a", "b", "c"), ()), WeightedGraph(("a",), ())]
        for k in range(160):
            g = random_weighted_graph(rng, max_vertices=8, max_weight=4)
            if k % 4 == 0:
                edges = tuple(Edge(u, v, 10**20 + w) for u, v, w in g.edges)
                g = WeightedGraph(g.vertex_names, edges)
            graphs.append(g)
        assert any(not g.edges for g in graphs)
        assert any(g.vertex_count == 1 for g in graphs)
        assert any(w > 10**20 for g in graphs for w in g.weights())
        for g in graphs:
            self.check(edge_ideal(g), self.edge_rows(g, True))
            weighted = weighted_edge_ideal(g)
            self.check(weighted, self.edge_rows(g, False))
            D = cover_decomposition(g)
            for c in D.components:
                self.check(c.ideal(), self.power_rows(c))
            self.check(D.intersection(), self.edge_rows(g, False))
            for a in (1, 2, 3):
                self.check(
                    bracket_power(weighted, a),
                    [tuple(e * a for e in r) for r in self.edge_rows(g, False)],
                )

    def test_component_lists(self):
        rng = random.Random(1311)
        lists = [seeded_component_list(rng) for _ in range(200)]
        lists += [Decomposition(VariableContext.of_dimension(d), ()) for d in (1, 4)]
        lists.append(Decomposition(X3, (comp(X3, {}), comp(X3, {0: 10**20}))))
        for D in lists:
            for c in D.components:
                self.check(c.ideal(), self.power_rows(c))
            self.check(D.intersection(), tuple_fold(D).rows)
        assert IrreducibleComponent(X3, ()).ideal() == MonomialIdeal.zero(X3)
        assert Decomposition(X3, ()).intersection() == MonomialIdeal.unit(X3)

    @pytest.mark.parametrize("a", [1, 2, 10**20])
    def test_bracket_powers_of_zero_and_unit(self, a):
        for d in (1, 3):
            X = VariableContext.of_dimension(d)
            for I in (MonomialIdeal.zero(X), MonomialIdeal.unit(X)):
                powered = bracket_power(I, a)
                self.check(powered, [tuple(e * a for e in r) for r in I.rows])
                assert powered == I

    def test_no_site_runs_the_sweep(self, monkeypatch):
        def sweep(vecs):
            raise AssertionError("kernels.minimalize called")

        g = route_graph("K10")
        D = cover_decomposition(g)
        monkeypatch.setattr(kernels, "minimalize", sweep)
        edge_ideal(g)
        bracket_power(weighted_edge_ideal(g), 2)
        for c in D.components:
            c.ideal()
        D.intersection()


class TestHeightAndUnmixed:
    def test_path_height_one(self):
        D = split_decompose(ideal(X3, (2, 2, 0), (0, 5, 5)))
        assert min(D.support_sizes()) == 1

    def test_triangle_height_two(self):
        # edge ideal of a triangle with weights 1 <= 2 <= 3
        D = split_decompose(ideal(X3, (1, 1, 0), (0, 2, 2), (3, 0, 3)))
        assert min(D.support_sizes()) == 2

    def test_single_variable(self):
        D = split_decompose(ideal(X3, (1, 0, 0)))
        assert min(D.support_sizes()) == 1

    def test_triangle_unmixed(self):
        assert is_m_unmixed_ideal(ideal(X3, (1, 1, 0), (0, 2, 2), (3, 0, 3)))

    def test_path_mixed(self):
        assert not is_m_unmixed_ideal(ideal(X3, (2, 2, 0), (0, 5, 5)))

    def test_principal_unmixed(self):
        assert is_m_unmixed_ideal(ideal(X3, (3, 0, 0)))

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            is_m_unmixed_ideal(MonomialIdeal.unit(X3))


class TestDecompositionValue:
    def test_components_sorted_on_construction(self):
        a = comp(X3, {1: 2})
        b = comp(X3, {0: 2, 1: 5})
        D = Decomposition(X3, (a, b))
        assert D.components == (b, a)

    def test_context_checks(self):
        # an equal context that is another object passes, as X3 itself
        same = VariableContext.of_dimension(3)
        other = VariableContext(("a", "b", "c"))
        a = comp(X3, {1: 2})
        assert same is not X3
        assert Decomposition(same, (a,)).components == (a,)
        assert comp(same, {1: 1}).contains(a)
        with pytest.raises(ContextMismatchError):
            Decomposition(other, (a,))
        with pytest.raises(ContextMismatchError):
            comp(other, {1: 1}).contains(a)

    def test_support_sizes(self):
        D = split_decompose(ideal(X3, (2, 2, 0), (0, 5, 5)))
        assert D.support_sizes() == (1, 2)
