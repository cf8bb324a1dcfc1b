"""Splitting-algorithm decompositions, irredundancy and m-height."""

import itertools
import random

import pytest

from graphideals.decompose import (
    Decomposition,
    DecompositionLimitError,
    IrreducibleComponent,
    is_m_unmixed_ideal,
    split_decompose,
)
from graphideals import decompose, kernels
from graphideals.graphs import (
    Edge,
    WeightedGraph,
    cover_decomposition,
    cycle_graph,
    edge_ideal,
    weighted_edge_ideal,
)
from graphideals.monomials import (
    ContextMismatchError,
    MonomialIdeal,
    VariableContext,
    bracket_power,
    depolarize,
    ideal_eq,
    intersect,
    m_radical,
    polarize,
)
from graphideals.verify import exhaustive_weighted_graphs, random_weighted_graph
from test_monomials import is_m_irreducible

X3 = VariableContext.of_dimension(3)
X5 = VariableContext.of_dimension(5)


def ideal(ctx, *rows):
    return MonomialIdeal(ctx, rows)


def comp(ctx, powers):
    return IrreducibleComponent(ctx, tuple(sorted(powers.items())))


# IrreducibleComponent(X5, powers): the sorted powers, or the ValueError
# message.  Pair shapes, types and exponents are checked first, then
# distinctness, then the range, whatever the order of the faulty pairs.
H = 10**20
NOT_SEQUENCE = "component powers must be a sequence of pairs, got "
NOT_PAIR = "a component power must be an (index, exponent) pair, got "
NOT_INTS = "component indices and exponents must be ints"
EXPONENT = "component exponents must be at least 1"
DISTINCT = "component variables must be distinct"
COMPONENT_TABLE = [
    ("non-sequence", 5, NOT_SEQUENCE + "5"),
    ("none", None, NOT_SEQUENCE + "None"),
    ("non-pair", [5], NOT_PAIR + "5"),
    ("none pair", [(0, 1), None], NOT_PAIR + "None"),
    ("one-tuple", [(0,)], NOT_PAIR + "(0,)"),
    ("three-tuple", [(0, 1, 2)], NOT_PAIR + "(0, 1, 2)"),
    ("string", "ab", NOT_PAIR + "'a'"),
    ("string pair", ["12"], NOT_INTS),
    ("dict", {0: 1}, NOT_PAIR + "0"),
    ("bool index", [(True, 2)], NOT_INTS),
    ("bool exponent", [(0, True)], NOT_INTS),
    ("false exponent", [(1, 1), (2, False)], NOT_INTS),
    ("float index", [(0.0, 1)], NOT_INTS),
    ("float exponent", [(0, 2.0)], NOT_INTS),
    ("str index", [("0", 1)], NOT_INTS),
    ("str exponent", [(0, "1")], NOT_INTS),
    ("exponent 0", [(0, 0)], EXPONENT),
    ("exponent -1", [(1, 2), (0, -1)], EXPONENT),
    ("index -1", [(-1, 2)], "variable index -1 out of range"),
    ("index d", [(0, 1), (5, 1)], "variable index 5 out of range"),
    ("index d unsorted", [(2, 1), (7, 1), (0, 1)], "variable index 7 out of range"),
    ("duplicate sorted", [(0, 1), (0, 2)], DISTINCT),
    ("duplicate unsorted", [(2, 1), (0, 1), (2, 3)], DISTINCT),
    ("duplicate equal", [(1, 1), (1, 1)], DISTINCT),
    ("list pairs", [[4, 1], [1, 3]], ((1, 3), (4, 1))),
    ("unsorted", ((3, 1), (0, 2), (4, 7)), ((0, 2), (3, 1), (4, 7))),
    ("sorted", ((0, 2), (3, 1)), ((0, 2), (3, 1))),
    ("iterator", iter([(1, 2), (0, 1)]), ((0, 1), (1, 2))),
    ("generator", ((i, i + 1) for i in (4, 2)), ((2, 3), (4, 5))),
    ("huge exponents", [(4, H), (0, H + 1)], ((0, H + 1), (4, H))),
    ("empty tuple", (), ()),
    ("empty list", [], ()),
    ("duplicate then out of range", [(5, 1), (0, 1), (0, 2)], DISTINCT),
    ("out of range then exponent 0", [(9, 1), (0, 0)], EXPONENT),
    ("duplicate out of range", [(-1, 1), (-1, 2)], DISTINCT),
    ("out of range then float", [(9, 1), (0, 2.0)], NOT_INTS),
    ("duplicate then bad pair", [(0, 1), (0, 2), (3,)], NOT_PAIR + "(3,)"),
]


class TestComponent:
    @pytest.mark.parametrize(
        "powers, expected",
        [row[1:] for row in COMPONENT_TABLE],
        ids=[row[0] for row in COMPONENT_TABLE],
    )
    def test_constructor_table(self, powers, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError) as excinfo:
                IrreducibleComponent(X5, powers)
            assert str(excinfo.value) == expected
        else:
            c = IrreducibleComponent(X5, powers)
            assert c.powers == expected
            assert all(type(pair) is tuple for pair in c.powers)

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


def seeded_peel_ideal(rng, mixed_rows):
    """Mixed generators on the first n variables, plus pure powers on
    about half of all variables, each above every mixed row's exponent
    there, so that none divides a mixed row.  A pure power past the first n, or
    on a variable no mixed row raises, is lone at the top; one on a mixed
    row's variable turns lone once the pivots drop every mixed row that
    raises it."""
    d = rng.randint(2, 8)
    n = rng.randint(2, d)
    rows = []
    for _ in range(mixed_rows):
        row = [0] * d
        for k in rng.sample(range(n), rng.randint(2, n)):
            row[k] = rng.choice((1, 2, 3, 10**20))
        rows.append(tuple(row))
    for k in range(d):
        if rng.random() < 0.5:
            e = max((r[k] for r in rows), default=0) + rng.randint(1, 3)
            rows.append(tuple(e if j == k else 0 for j in range(d)))
    return MonomialIdeal(VariableContext.of_dimension(d), rows)


def mixed_rows(I):
    return sum(1 for r in I.rows if sum(1 for e in r if e) > 1)


def has_lone_power(I):
    supports = [{i for i, e in enumerate(r) if e} for r in I.rows]
    mixed = set().union(*(s for s in supports if len(s) > 1))
    return any(len(s) == 1 and not s & mixed for s in supports)


class TestLonePurePowers:
    """The split route peels a pure power that no mixed row shares a
    variable with into a fixed factor of every component."""

    @staticmethod
    def assert_decomposes(I):
        D = split_decompose(I)
        assert ideal_eq(D.intersection(), I)
        for c in D.components:
            assert is_m_irreducible(c.ideal())
        for a, b in itertools.permutations(D.components, 2):
            assert not a.contains(b)
        return D

    def test_pure_powers_only(self):
        rng = random.Random(1601)
        for _ in range(60):
            I = seeded_peel_ideal(rng, 0)
            D = self.assert_decomposes(I)
            powers = {r.index(e): e for r in I.rows for e in r if e}
            assert D.components == (comp(I.context, powers),)

    def test_one_mixed_row(self):
        rng = random.Random(1602)
        cases = [seeded_peel_ideal(rng, 1) for _ in range(150)]
        assert sum(map(has_lone_power, cases)) > 50
        for I in cases:
            assert mixed_rows(I) == 1
            self.assert_decomposes(I)

    def test_several_mixed_rows(self):
        rng = random.Random(1603)
        cases = [seeded_peel_ideal(rng, rng.randint(2, 4)) for _ in range(150)]
        assert sum(map(has_lone_power, cases)) > 50
        for I in cases:
            assert mixed_rows(I) >= 1
            self.assert_decomposes(I)

    def test_zero_ideal(self):
        for d in (1, 3):
            X = VariableContext.of_dimension(d)
            D = self.assert_decomposes(MonomialIdeal.zero(X))
            assert D == Decomposition(X, (IrreducibleComponent(X, ()),))

    def test_edge_ideals_peel_after_pivots(self):
        # an edge ideal has no pure power, but I + (x_v^w) with v a leaf
        # holds x_v^w lone, and so do stars and paths at every leaf
        rng = random.Random(1604)
        graphs = [seeded_forest(rng) for _ in range(40)]
        graphs += [random_weighted_graph(rng, max_vertices=7) for _ in range(80)]
        for n in (3, 9):
            star = [Edge(0, i + 1, 1 + i % 3) for i in range(n)]
            path = [Edge(i, i + 1, 1 + i % 2) for i in range(n)]
            graphs += [weighted_graph(n + 1, star), weighted_graph(n + 1, path)]
        for g in graphs:
            D = self.assert_decomposes(weighted_edge_ideal(g))
            assert D.components == cover_decomposition(g).components, g

    def test_cap_with_lone_powers(self):
        # k disjoint edges, an unused variable and two lone pure powers:
        # the powers only extend every component, so the count stays 2^k
        k = 5
        d = 2 * k + 3
        rows = [
            tuple(i + 1 if j in (2 * i, 2 * i + 1) else 0 for j in range(d))
            for i in range(k)
        ]
        for m in (2 * k + 1, 2 * k + 2):
            rows.append(tuple(m - 2 * k if j == m else 0 for j in range(d)))
        I = MonomialIdeal(VariableContext.of_dimension(d), rows)
        assert has_lone_power(I)
        D = split_decompose(I, max_components=2**k)
        assert len(D) == 2**k
        lone = ((2 * k + 1, 1), (2 * k + 2, 2))
        assert all(c.powers[-2:] == lone for c in D.components)
        with pytest.raises(DecompositionLimitError):
            split_decompose(I, max_components=2**k - 1)


def power_row(d, powers):
    return tuple(powers.get(i, 0) for i in range(d))


def seeded_star_ideal(rng, leaves, hub_exponents=(1, 2, 3, 10**20)):
    """Mixed rows x_c^a_k * y_k^b_k on a hub c and distinct leaves y_k, the
    a_k drawn from at most three values so that they repeat; pure powers
    y_k^q_k (q_k > b_k) on about half of the leaves, x_c^p (p above every
    a_k) in about half of the ideals, and a lone pure power on a spare
    variable, peeled before the star, in about half."""
    d = leaves + rng.randint(2, 3)
    hub, *ys = rng.sample(range(d), leaves + 1)
    spare = [i for i in range(d) if i != hub and i not in ys]
    hubs = rng.sample(hub_exponents, rng.randint(1, 3))
    rows = []
    for y in ys:
        b = rng.choice((1, 2, 3, 10**20))
        rows.append(power_row(d, {hub: rng.choice(hubs), y: b}))
        if rng.random() < 0.5:
            rows.append(power_row(d, {y: b + rng.randint(1, 3)}))
    if rng.random() < 0.5:
        rows.append(power_row(d, {hub: max(hubs) + rng.randint(1, 3)}))
    if rng.random() < 0.5:
        rows.append(power_row(d, {spare[0]: rng.randint(1, 3)}))
    return MonomialIdeal(VariableContext.of_dimension(d), rows), hub


@pytest.fixture
def splits(monkeypatch):
    """The split route's nodes that are not stars: each looks for an
    independence split before a variable split, so a star at the top
    node, which decomposes with no split, leaves this list empty."""
    calls = []
    independent_parts = decompose._independent_parts

    def counted(masks):
        calls.append(masks)
        return independent_parts(masks)

    monkeypatch.setattr(decompose, "_independent_parts", counted)
    return calls


class TestStarNodes:
    """A node whose mixed rows all run through one hub c to distinct leaves
    y_k decomposes in closed form: one component per distinct hub
    exponent, and one more without c's mixed rows."""

    @staticmethod
    def assert_decomposes(I):
        D = split_decompose(I)
        assert D.intersection().rows == I.rows
        assert tuple_fold(D).rows == I.rows
        for a, b in itertools.permutations(D.components, 2):
            assert not a.contains(b)
        return D

    def test_seeded_stars_take_the_closed_form(self, splits):
        rng = random.Random(2601)
        seen = {"single": 0, "repeated hub": 0, "pure hub": 0, "pure leaf": 0}
        for _ in range(300):
            I, hub = seeded_star_ideal(rng, rng.randint(1, 7))
            supports = [{i for i, e in enumerate(r) if e} for r in I.rows]
            pure = {i for s in supports if len(s) == 1 for i in s}
            leaves = {i for s in supports if len(s) > 1 for i in s} - {hub}
            hub_exponents = [r[hub] for r, s in zip(I.rows, supports) if len(s) > 1]
            seen["single"] += len(hub_exponents) == 1
            seen["repeated hub"] += len(set(hub_exponents)) < len(hub_exponents)
            seen["pure hub"] += hub in pure
            seen["pure leaf"] += bool(leaves & pure)
            D = self.assert_decomposes(I)
            # a lone pure power is a fixed factor; it adds no component
            assert len(D) == len(set(hub_exponents)) + 1
        assert min(seen.values()) > 20, seen
        assert splits == []

    def test_non_stars_fall_back_to_splitting(self, splits):
        rng = random.Random(2602)
        for extra in ("two mixed rows on one leaf", "three variables through the hub"):
            for _ in range(100):
                I, hub = seeded_star_ideal(rng, rng.randint(1, 5), (2, 3, 10**20))
                d = I.context.dimension + 2
                rows = [r + (0, 0) for r in I.rows]
                y, z = d - 2, d - 1
                if extra == "two mixed rows on one leaf":
                    rows += [power_row(d, {hub: 1, y: 3}), power_row(d, {hub: 2, y: 1})]
                else:
                    rows.append(power_row(d, {hub: 1, y: 1, z: 2}))
                J = MonomialIdeal(VariableContext.of_dimension(d), rows)
                before = len(splits)
                self.assert_decomposes(J)
                assert len(splits) > before, (extra, J.rows)

    def test_cap_counts_the_star_components(self):
        # m distinct hub exponents: m + 1 components
        m = 6
        I = ideal(
            VariableContext.of_dimension(m + 1),
            *(power_row(m + 1, {0: k, k: 1}) for k in range(1, m + 1)),
        )
        assert len(split_decompose(I, max_components=m + 1)) == m + 1
        with pytest.raises(DecompositionLimitError, match=f"{m} components"):
            split_decompose(I, max_components=m)


class TestTrustedConstructors:
    """Both routes build their output with IrreducibleComponent._of_powers
    and Decomposition._of_sorted; the validating constructors are the
    oracle: the same value, hash, repr and str."""

    def test_both_routes_on_small_graphs(self):
        graphs = list(exhaustive_weighted_graphs(4))
        assert len(graphs) == 760
        for g in graphs:
            X = g.context
            routes = (split_decompose(weighted_edge_ideal(g)), cover_decomposition(g))
            for D in routes:
                assert type(D.components) is tuple
                canonical = sorted(D.components, key=lambda c: c.powers)
                assert list(D.components) == canonical
                oracle = Decomposition(X, D.components)
                assert D == oracle and hash(D) == hash(oracle)
                assert repr(D) == repr(oracle)
                for c in D.components:
                    oracle = IrreducibleComponent(X, c.powers)
                    trusted = IrreducibleComponent._of_powers(X, c.powers)
                    for built in (c, trusted):
                        assert built == oracle and hash(built) == hash(oracle)
                        assert repr(built) == repr(oracle)
                        assert str(built) == str(oracle)


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
        # Decomposition._of_sorted trusts the route's order: check it
        # on the split list alone, strictly increasing
        powers = [c.powers for c in D.components]
        assert all(a < b for a, b in zip(powers, powers[1:]))
        assert D.components == cover_decomposition(g).components

    @pytest.mark.parametrize("cap", [-1, 0, 1, 2.5, 13, 14, 10**6])
    def test_routes_refuse_on_the_same_caps(self, cap):
        # 14 components: every cap below 14, whole or not, refuses
        g = cycle_graph([1, 2, 1, 2, 1, 2])
        routes = (
            lambda: split_decompose(weighted_edge_ideal(g), cap),
            lambda: cover_decomposition(g, cap),
        )
        if cap < 14:
            for route in routes:
                with pytest.raises(DecompositionLimitError):
                    route()
        else:
            assert [len(route()) for route in routes] == [14, 14]

    def test_star_deeper_than_the_recursion_limit(self):
        # one level per leaf: 497 leaves is the smallest star of this
        # family whose split ran past Python's default recursion limit
        # when the route recursed
        n = 497
        g = weighted_graph(n + 1, [Edge(0, i + 1, 1 + i % 3) for i in range(n)])
        D = split_decompose(weighted_edge_ideal(g))
        assert len(D) == 4
        assert D.components == cover_decomposition(g).components

    def test_large_star(self):
        n = 800
        g = weighted_graph(n + 1, [Edge(0, i + 1, 1 + i % 3) for i in range(n)])
        D = split_decompose(weighted_edge_ideal(g))
        assert len(D) == 4
        assert D.components == cover_decomposition(g).components

    @pytest.mark.parametrize(
        "extra, vertices",
        [
            # an edge between two leaves, and a pendant on a leaf: the hub
            # is raised by the most rows, so one split at it leaves stars
            ([Edge(1, 2, 3)], 801),
            ([Edge(1, 801, 2)], 802),
        ],
        ids=["leaf edge", "pendant"],
    )
    def test_large_star_plus_one_edge(self, extra, vertices, splits):
        n = 800
        star = [Edge(0, i + 1, 1 + i % 3) for i in range(n)]
        g = weighted_graph(vertices, star + extra)
        D = split_decompose(weighted_edge_ideal(g))
        assert len(splits) == 1
        assert len(D) == 5
        assert D.components == cover_decomposition(g).components

    def test_complete_bipartite_two_hubs(self, splits):
        # K_{2,n}: a split at one hub leaves the other hub's star
        n = 600
        edges = [Edge(h, 2 + k, 1 + k % 3) for k in range(n) for h in (0, 1)]
        g = weighted_graph(n + 2, edges)
        D = split_decompose(weighted_edge_ideal(g))
        assert len(splits) == 1
        assert len(D) == 4
        assert D.components == cover_decomposition(g).components

    def test_complete_bipartite_three_hubs(self, splits):
        # K_{3,n}: a split at one hub leaves a K_{2,m} child at each of
        # the levels 1, 2, 3, and a split at a second hub in each leaves
        # stars.  Level a drops the leaves of weight below a (134 of
        # weight 1, 133 of weight 2), and the level inf is peeled to the
        # zero ideal
        n = 400
        edges = [Edge(h, 3 + k, 1 + k % 3) for k in range(n) for h in (0, 1, 2)]
        g = weighted_graph(n + 3, edges)
        D = split_decompose(weighted_edge_ideal(g))
        assert sorted(map(len, splits)) == [2 * 133, 2 * 266, 2 * n, 3 * n]
        assert len(D) == 4
        assert D.components == cover_decomposition(g).components

    def test_split_deeper_than_the_recursion_limit(self):
        # (x, y)^n: one variable split on x with n levels, each child a
        # pure power of y, peeled to the zero ideal
        n = 1100
        X = VariableContext.of_dimension(2)
        D = split_decompose(ideal(X, *((k, n - k) for k in range(n + 1))))
        assert D.components == tuple(
            comp(X, {0: k, 1: n + 1 - k}) for k in range(1, n + 1)
        )

    def test_principal_ideal_deeper_than_the_recursion_limit(self):
        # x_1 * ... * x_n: each split on a variable x_i has the levels 1
        # and inf, and the level inf is the product of the other
        # variables, so the splits nest one per variable down to a star
        n = 1500
        X = VariableContext.of_dimension(n)
        D = split_decompose(ideal(X, (1,) * n))
        assert D.components == tuple(comp(X, {i: 1}) for i in range(n))

    def test_star_ideal_builds_without_exponent_comparisons(self, monkeypatch):
        # edges of a star never divide each other, so building the ideal
        # compares no two exponents: the edge ideal takes its rows as an
        # antichain, and the validating constructor's support-masked sweep
        # rejects every pair on masks alone.  kernels.all_divided looks le
        # up on each call, so counting it counts every exponent comparison
        calls = []

        def le(a, b):
            calls.append(None)
            return a <= b

        monkeypatch.setattr(kernels, "le", le)
        n = 400
        g = weighted_graph(n + 1, [Edge(0, i + 1, 1 + i % 3) for i in range(n)])
        I = weighted_edge_ideal(g)
        assert len(calls) == 0
        assert MonomialIdeal(g.context, I.rows) == I
        assert len(calls) == 0
        # the counter counts: one comparison of a row with itself
        assert kernels.all_divided(I._masked_rows[:1], I._masked_rows[:1])
        assert len(calls) == n + 1
        assert len(split_decompose(I)) == 4


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
    """Decomposition.intersection, one kernels.sweep per component on
    (support mask, row) pairs, against a balanced fold of
    monomials.intersect over the components' ideals."""

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

    def test_fold_order_does_not_matter(self):
        # the fold reads the components in the order they are stored;
        # _of_sorted stores any order it is given
        rng = random.Random(2701)
        for _ in range(200):
            D = seeded_component_list(rng)
            comps = D.components
            rows = D.intersection().rows
            for order in (comps[::-1], tuple(rng.sample(comps, len(comps)))):
                folded = Decomposition._of_sorted(D.context, order).intersection()
                assert folded.rows == rows, order
        for g in itertools.islice(exhaustive_weighted_graphs(4, (1, 2, 3)), 0, None, 7):
            D = cover_decomposition(g)
            comps = D.components
            for order in (comps, comps[::-1], tuple(rng.sample(comps, len(comps)))):
                folded = Decomposition._of_sorted(D.context, order).intersection()
                assert folded.rows == weighted_edge_ideal(g).rows

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
    """The ideals built by MonomialIdeal._of_masked against the
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
            raise AssertionError("the antichain sweep ran")

        g = route_graph("K10")
        D = cover_decomposition(g)
        monkeypatch.setattr(kernels, "minimalize", sweep)
        monkeypatch.setattr(kernels, "sweep", sweep)
        edge_ideal(g)
        bracket_power(weighted_edge_ideal(g), 2)
        for c in D.components:
            c.ideal()

    def test_sweeping_sites_compute_no_mask(self, monkeypatch):
        # the sites that sweep hand it the masks they hold or derive:
        # kernels.support_mask is never called, and the masks stored are
        # still each row's support
        calls, support_mask = [], kernels.support_mask

        def counted(vec):
            calls.append(vec)
            return support_mask(vec)

        graphs = list(
            itertools.islice(exhaustive_weighted_graphs(4, (1, 2, 3)), 0, None, 9)
        )
        graphs += [route_graph("C10"), route_graph("K6")]
        inputs = []
        for g in graphs:
            I = weighted_edge_ideal(g)
            D = cover_decomposition(g)
            ideals = [c.ideal() for c in D.components]
            inputs.append((I, D, ideals, polarize(I)))
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "support_mask", counted)
            for I, D, ideals, (_, polar, origin) in inputs:
                built.append((D.intersection(), I.rows))
                radical = m_radical(I)
                built.append((radical, [tuple(int(e > 0) for e in r) for r in I.rows]))
                built.append((depolarize(polar, origin, I.context), I.rows))
                built.append((intersect(I, radical), I.rows))
                for a, b in zip(ideals, ideals[1:]):
                    rows = [kernels.lcm(f, h) for f in a.rows for h in b.rows]
                    built.append((intersect(a, b), rows))
        assert calls == []
        for ideal, rows in built:
            self.check(ideal, rows)


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

    @pytest.mark.parametrize(
        "components, message",
        [
            (None, "components must be a sequence of components, got None"),
            (5, "components must be a sequence of components, got 5"),
            ([1], "not an irreducible component: 1"),
            ([((0, 1),)], r"not an irreducible component: \(\(0, 1\),\)"),
        ],
        ids=["none", "int", "int-entry", "powers-entry"],
    )
    def test_bad_components_rejected(self, components, message):
        with pytest.raises(ValueError, match=message):
            Decomposition(X3, components)

    def test_support_sizes(self):
        D = split_decompose(ideal(X3, (2, 2, 0), (0, 5, 5)))
        assert D.support_sizes() == (1, 2)
