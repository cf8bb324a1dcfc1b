"""Contract of the exponent-vector kernels, of the support-masked ideal
layer against the dense definitions, of the split route's packed
monomials and pruning, and of the component pruning the tests use as an
oracle."""

import itertools
import random

import pytest

from graphideals import kernels
from graphideals.decompose import (
    IrreducibleComponent,
    _pack_masked,
    _PowersCodec,
    split_decompose,
)
from graphideals.graphs import cover_decomposition, weighted_edge_ideal
from graphideals.monomials import (
    Monomial,
    MonomialIdeal,
    VariableContext,
    ideal_leq,
    member,
)
from graphideals.verify import exhaustive_weighted_graphs

X3 = VariableContext.of_dimension(3)


@pytest.fixture(params=kernels.available())
def impl(request):
    kernels.use(request.param)
    return kernels


def brute_minimalize(vecs):
    """Quadratic reference: keep vectors no other distinct vector divides."""
    uniq = sorted(set(tuple(v) for v in vecs), key=lambda v: (sum(v), v))
    kept = []
    for v in uniq:
        dominated = any(
            u != v and all(a <= b for a, b in zip(u, v)) for u in uniq
        )
        if not dominated:
            kept.append(v)
    return kept


def dense_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def dense_minimalize(vecs):
    """The graded-lex antichain sweep on dense tuples, with no support
    filter: each vector is compared with every kept one."""
    kept = []
    for v in sorted(set(vecs), key=lambda v: (sum(v), v)):
        if not any(dense_divides(k, v) for k in kept):
            kept.append(v)
    return kept


def dense_any_divides(gens, m):
    return any(dense_divides(g, m) for g in gens)


def dense_ideal_leq(smaller, larger):
    return all(dense_any_divides(larger.rows, r) for r in smaller.rows)


def dense_powers_leq(small, big):
    """The component order by its definition: the ideal of ``small`` lies
    inside that of ``big``, decided on dense pure-power rows."""
    dim = 1 + max((i for i, _ in small + big), default=0)
    rows = []
    for powers in (small, big):
        rows.append([])
        for i, e in powers:
            row = [0] * dim
            row[i] = e
            rows[-1].append(tuple(row))
    return all(dense_any_divides(rows[1], r) for r in rows[0])


def random_vecs(rng, count, dim, hi):
    return [
        tuple(rng.randint(0, hi) for _ in range(dim)) for _ in range(count)
    ]


def rows_of(pairs):
    """The rows of (support mask, row) pairs, each mask checked to be the
    row's support."""
    for mask, row in pairs:
        assert mask == kernels.support_mask(row), (mask, row)
    return [row for _, row in pairs]


class TestKernelContract:
    def test_divides(self, impl):
        assert impl.divides((1, 0, 2), (1, 1, 2))
        assert not impl.divides((2, 0), (1, 5))

    def test_lcm(self, impl):
        assert impl.lcm((2, 1, 0), (0, 3, 1)) == (2, 3, 1)

    def test_support_mask(self, impl):
        assert impl.support_mask((0, 3, 0, 1)) == 0b1010
        assert impl.support_mask((0, 0)) == 0
        assert impl.support_mask((0,) * 69 + (10**20,)) == 1 << 69

    def test_grlex_key_orders_degree_first(self, impl):
        assert impl.grlex_key((0, 3)) < impl.grlex_key((2, 2))
        assert impl.grlex_key((0, 1, 1)) < impl.grlex_key((1, 1, 0))

    def test_minimalize_golden(self, impl):
        got = impl.minimalize([(2, 0), (3, 0), (2, 0), (0, 5), (2, 5)])
        assert got == [(0b01, (2, 0)), (0b10, (0, 5))]

    def test_minimalize_unit_absorbs(self, impl):
        assert impl.minimalize([(0, 0), (1, 2)]) == [(0, (0, 0))]

    def test_minimalize_empty(self, impl):
        assert impl.minimalize([]) == []

    def test_minimalize_matches_brute_force(self, impl):
        rng = random.Random(20260822)
        for trial in range(200):
            dim = rng.randint(1, 5)
            vecs = random_vecs(rng, rng.randint(0, 12), dim, 4)
            assert rows_of(impl.minimalize(vecs)) == brute_minimalize(vecs)

    def test_intersect_rows(self, impl):
        left = [(0b001, (2, 0, 0)), (0b110, (0, 5, 5))]
        right = [(0b010, (0, 2, 0))]
        got = impl.intersect_rows(left, right)
        assert got == [(0b011, (2, 2, 0)), (0b110, (0, 5, 5))]

    def test_exhaustive_small_minimalize(self, impl):
        univ = list(itertools.product(range(3), repeat=2))
        for size in range(4):
            for vecs in itertools.combinations(univ, size):
                got = impl.minimalize(list(vecs))
                assert rows_of(got) == brute_minimalize(vecs)

    def test_minimalize_dimension_mismatch_raises(self, impl):
        with pytest.raises(ValueError):
            impl.minimalize([(1, 0), (1, 0, 0)])


SMALL = (0, 1, 2, 3)
HUGE = (0, 10**20 - 1, 10**20, 10**20 + 1)


def oracle_rows(rng, dim, shape, values):
    """Seeded exponent rows of one shape, with multiples, repeats and
    sometimes the zero row mixed in.  ``dense`` rows draw every exponent from
    ``values``; ``star`` rows raise variable 0 and one other variable, as
    a star's edges do; ``sparse`` rows raise one to three variables."""
    rows = []
    for _ in range(rng.randint(0, 24)):
        if shape == "dense":
            row = [rng.choice(values) for _ in range(dim)]
        else:
            row = [0] * dim
            if shape == "star":
                raised = [0, rng.randrange(dim)]
            else:
                raised = rng.sample(range(dim), min(dim, rng.randint(1, 3)))
            for i in raised:
                row[i] = rng.choice(values[1:])
        rows.append(tuple(row))
    # multiples of some rows, on their support or one variable more
    for r in rng.sample(rows, rng.randint(0, len(rows))):
        i = rng.randrange(dim)
        rows.append(r[:i] + (r[i] + rng.choice(values[1:]),) + r[i + 1 :])
    rows += rng.sample(rows, rng.randint(0, len(rows)))
    if rng.random() < 0.25:
        rows.append((0,) * dim)
    rng.shuffle(rows)
    return rows


ORACLE_CASES = [
    (dim, shape, values)
    for dim in (1, 2, 5, 70)
    for shape in ("dense", "star", "sparse")
    for values in (SMALL, HUGE)
]
ORACLE_IDS = [f"d{d}-{s}-{'huge' if v is HUGE else 'small'}" for d, s, v in ORACLE_CASES]


def case_rng(dim, shape, values):
    return random.Random(f"{dim}-{shape}-{values[-1]}")


def random_powers_from(rng, dim, values):
    support = rng.sample(range(dim), rng.randint(0, min(dim, 6)))
    return tuple(sorted((i, rng.choice(values[1:])) for i in support))


class TestSupportMaskedLayer:
    """The support-filtered sweep, containment and membership against the
    dense definitions, on seeded rows: the zero row and repeated rows,
    dimensions 1 to 70 (masks wider than 64 bits), exponents near
    ``10**20``, star-sparse and dense rows."""

    @pytest.mark.parametrize("dim, shape, values", ORACLE_CASES, ids=ORACLE_IDS)
    def test_minimalize_matches_dense_sweep(self, dim, shape, values):
        rng = case_rng(dim, shape, values)
        ctx = VariableContext.of_dimension(dim)
        for trial in range(30):
            rows = oracle_rows(rng, dim, shape, values)
            expected = dense_minimalize(rows)
            assert rows_of(kernels.minimalize(rows)) == expected
            assert MonomialIdeal(ctx, rows).rows == tuple(expected)

    @pytest.mark.parametrize("dim, shape, values", ORACLE_CASES, ids=ORACLE_IDS)
    def test_sweep_matches_minimalize(self, dim, shape, values):
        # the pair sweep on rows with their masks: minimalize's pairs, in
        # any input order, with each kept mask the row's support
        rng = case_rng(dim, shape, values)
        for trial in range(30):
            rows = oracle_rows(rng, dim, shape, values)
            pairs = [(kernels.support_mask(r), r) for r in rows]
            rng.shuffle(pairs)
            swept = kernels.sweep(pairs)
            assert swept == kernels.minimalize(rows)
            assert rows_of(swept) == dense_minimalize(rows)

    @pytest.mark.parametrize("dim, shape, values", ORACLE_CASES, ids=ORACLE_IDS)
    def test_ideal_leq_and_member_match_dense(self, dim, shape, values):
        rng = case_rng(dim, shape, values)
        ctx = VariableContext.of_dimension(dim)
        for trial in range(20):
            a = MonomialIdeal(ctx, oracle_rows(rng, dim, shape, values))
            b = MonomialIdeal(ctx, oracle_rows(rng, dim, shape, values))
            # multiples of a's generators: an ideal inside a
            inside = MonomialIdeal(
                ctx, [kernels.lcm(r, rng.choice(b.rows or (r,))) for r in a.rows]
            )
            ideals = [a, b, inside, MonomialIdeal.zero(ctx), MonomialIdeal.unit(ctx)]
            for x, y in itertools.product(ideals, repeat=2):
                assert ideal_leq(x, y) == dense_ideal_leq(x, y)
            assert ideal_leq(inside, a)
            probes = list(b.rows + inside.rows) + [(0,) * dim]
            # one exponent lowered: often just outside the ideal
            for r in a.rows:
                i = rng.randrange(dim)
                probes.append(r[:i] + (max(0, r[i] - 1),) + r[i + 1 :])
            for p in probes:
                m = Monomial(ctx, p)
                for x in ideals:
                    assert member(x, m) == dense_any_divides(x.rows, p)

    @pytest.mark.parametrize("dim", [1, 6, 70])
    @pytest.mark.parametrize("values", [SMALL, HUGE], ids=["small", "huge"])
    def test_powers_leq_matches_dense(self, dim, values):
        rng = random.Random(f"powers-{dim}-{values[-1]}")
        for trial in range(300):
            small = random_powers_from(rng, dim, values)
            # big shares much of small's support, so both answers occur
            big = dict(rng.sample(small, rng.randint(0, len(small))))
            for i, e in random_powers_from(rng, dim, values):
                big.setdefault(i, e)
            for i in big:
                if rng.random() < 0.3:
                    big[i] = rng.choice(values[1:])
            big = tuple(sorted(big.items()))
            for x, y in [(small, big), (big, small), (small, small)]:
                assert kernels.powers_leq(x, y) == dense_powers_leq(x, y)


def prune_powers(items):
    """Drop every powers tuple whose ideal contains another's; dedupe; sort.

    Encodes each tuple as the vector with M - e at each variable it
    raises to e and 0 elsewhere, M exceeding every exponent.  Then
    kernels.powers_leq(b, a) holds exactly when b's vector divides a's,
    so the minimal components are the kernel's minimal vectors.  The
    oracle for any list of components, faster than the all-pairs sweep
    below.
    """
    uniq = set(items)
    dim = 1 + max((i for powers in uniq for i, _ in powers), default=-1)
    top = 1 + max((e for powers in uniq for _, e in powers), default=0)
    by_vec = {}
    for powers in uniq:
        vec = [0] * dim
        for i, e in powers:
            vec[i] = top - e
        by_vec[tuple(vec)] = powers
    return tuple(sorted(by_vec[v] for _, v in kernels.minimalize(list(by_vec))))


def brute_prune_powers(items):
    """All-pairs reference: drop every powers tuple some other one lies
    below in the component order; dedupe; sort."""
    uniq = sorted(set(items))
    return tuple(
        a for a in uniq if not any(b != a and kernels.powers_leq(b, a) for b in uniq)
    )


def random_powers(rng, dim, max_exp):
    support = rng.sample(range(dim), rng.randint(0, dim))
    return tuple(sorted((i, rng.randint(1, max_exp)) for i in support))


class TestPrunePowers:
    def test_golden(self):
        items = [((0, 2), (1, 5)), ((0, 2),), ((0, 1), (1, 5)), ((1, 1),)]
        assert prune_powers(items) == (((0, 2),), ((1, 1),))

    def test_zero_component_is_below_everything(self):
        assert prune_powers([((0, 1),), (), ((2, 7),), ()]) == ((),)

    def test_empty(self):
        assert prune_powers([]) == ()

    def test_huge_exponents(self):
        big = 10**20
        items = [((0, big),), ((0, big), (1, 1)), ((0, big + 1),)]
        assert prune_powers(items) == brute_prune_powers(items)

    def test_matches_all_pairs_sweep(self):
        rng = random.Random(20261017)
        for trial in range(300):
            dim = rng.randint(1, 6)
            max_exp = rng.randint(1, 4)
            count = rng.randint(0, 14)
            items = [random_powers(rng, dim, max_exp) for _ in range(count)]
            # repeat some supports with fresh exponents
            for powers in list(items[: rng.randint(0, len(items))]):
                items.append(tuple((i, rng.randint(1, max_exp)) for i, _ in powers))
            rng.shuffle(items)
            assert prune_powers(items) == brute_prune_powers(items)


def dense_pack(codec, row):
    """A row in the split route's packed layout, by definition: the degree
    above the exponent fields, field i holding row[i]."""
    return (sum(row) << codec.fields_bits) | sum(
        e << s for e, s in zip(row, codec.shifts)
    )


def dense_support(codec, row):
    """The lowest bit of each field where row is positive."""
    return sum(1 << s for e, s in zip(row, codec.shifts) if e)


class TestPackedRows:
    """The split route's packed monomials against the tuple kernels."""

    def test_order_is_graded_lex(self):
        rng = random.Random(20261019)
        for trial in range(300):
            dim = rng.randint(1, 6)
            hi = rng.choice((1, 3, 10**20))
            codec = _PowersCodec(dim, hi)
            rows = list(set(random_vecs(rng, rng.randint(0, 20), dim, hi)))
            packed = {dense_pack(codec, r): r for r in rows}
            assert len(packed) == len(rows)
            for m, r in packed.items():
                assert m >> codec.fields_bits == sum(r)
            # the degree sits above the fields, so the ints sort by
            # (degree, exponent fields)
            by_packed = [packed[m] for m in sorted(packed)]
            assert by_packed == sorted(rows, key=kernels.grlex_key)

    def test_divides_and_support(self):
        rng = random.Random(20261020)
        for trial in range(300):
            dim = rng.randint(1, 6)
            hi = rng.choice((1, 3, 10**20))
            codec = _PowersCodec(dim, hi)
            guards = codec.guards
            a, b = random_vecs(rng, 2, dim, hi)
            pa, pb = dense_pack(codec, a), dense_pack(codec, b)
            assert (((pb | guards) - pa) & guards == guards) == kernels.divides(a, b)

    @pytest.mark.parametrize("max_exp", [1, 3, 7, 8, 10**20])
    def test_layout_closed_form_matches_fields(self, max_exp):
        # the codec sets its shifts up as a range and its guards in closed
        # form: each equals its definition field by field, over every
        # dimension from 1 to 40
        for dim in range(1, 41):
            codec = _PowersCodec(dim, max_exp)
            shifts = tuple((dim - 1 - k) * codec.width for k in range(dim))
            assert tuple(codec.shifts) == shifts
            assert len(codec.shifts) == dim
            assert codec.guards == sum(1 << (s + codec.bits) for s in shifts)
            assert codec.fields_bits == dim * codec.width

    def test_sparse_pack_matches_dense_definition(self):
        # seeded antichains with many zero exponents, over dimensions 1-40
        # and exponents up to 10**20: packing from the support masks gives
        # the dense layout, the dense supports and the dense maximum
        rng = random.Random(20261021)
        for trial in range(300):
            dim = rng.randint(1, 40)
            hi = rng.choice((1, 3, 10, 10**20))
            rows = []
            for _ in range(rng.randint(1, 12)):
                raised = rng.sample(range(dim), rng.randint(1, min(dim, 4)))
                rows.append(
                    tuple(rng.randint(1, hi) if i in raised else 0 for i in range(dim))
                )
            masked = kernels.minimalize(rows)
            rows = rows_of(masked)
            codec, packed = _pack_masked(dim, masked)
            assert codec.top == max(map(max, rows)) + 1
            assert list(packed) == [dense_pack(codec, r) for r in rows]
            assert list(packed.values()) == [dense_support(codec, r) for r in rows]
        # the zero ideal, and a single pure power
        codec, packed = _pack_masked(5, [])
        assert (codec.top, packed) == (1, {})
        row = (0, 0, 10**20, 0, 0)
        codec, packed = _pack_masked(5, [(0b100, row)])
        assert codec.top == 10**20 + 1
        assert packed == {dense_pack(codec, row): dense_support(codec, row)}

    @staticmethod
    def descending(dimension, components):
        """The powers tuples of ``components`` in descending packed order."""
        top = max((e for powers in components for _, e in powers), default=0)
        codec = _PowersCodec(dimension, top)
        by_packed = {pack(codec, powers): powers for powers in components}
        assert len(by_packed) == len(components)
        return [by_packed[m] for m in sorted(by_packed, reverse=True)]

    def test_descending_order_is_canonical_on_both_routes(self):
        # the split route sorts its packed components descending and
        # trusts that order; both routes' irredundant lists, shuffled
        rng = random.Random(20261020)
        for graph in exhaustive_weighted_graphs(4, weights=(1, 2, 3)):
            for D in (split_decompose(weighted_edge_ideal(graph)), cover_decomposition(graph)):
                canonical = [c.powers for c in D.components]
                shuffled = rng.sample(canonical, len(canonical))
                assert self.descending(graph.vertex_count, shuffled) == sorted(canonical)

    def test_descending_order_is_canonical_on_generic_ideals(self):
        rng = random.Random(20261021)
        for trial in range(300):
            dim = rng.randint(1, 7)
            hi = rng.choice((1, 3, 10**20))
            rows = [r for r in random_vecs(rng, rng.randint(1, 8), dim, hi) if any(r)]
            if not rows:
                continue
            D = split_decompose(MonomialIdeal(VariableContext.of_dimension(dim), rows))
            canonical = [c.powers for c in D.components]
            shuffled = rng.sample(canonical, len(canonical))
            assert self.descending(dim, shuffled) == sorted(canonical)

    def test_orders_disagree_on_a_containing_pair(self):
        # P(X1) lies inside P(X1, X3^2): its pairs are a prefix of the
        # other's, so it sorts first in canonical order but has the
        # smaller packed int
        small, big = ((0, 1),), ((0, 1), (2, 2))
        assert kernels.powers_leq(small, big)
        assert sorted([big, small]) == [small, big]
        assert self.descending(3, [small, big]) == [big, small]


def bit_loop_unpack(codec, packed):
    """The split route's former decoder, one support bit at a time: the
    oracle of the chunked ``_PowersCodec.decode``."""
    index = {s: k for k, s in enumerate(codec.shifts)}
    mask = sum(1 << s for s in codec.shifts if (packed >> s) & codec.field)
    powers = []
    while mask:
        at = mask.bit_length() - 1
        mask ^= 1 << at
        powers.append((index[at], codec.top - ((packed >> at) & codec.field)))
    return tuple(powers)


def decoded(codec, packed, offset=0):
    """The powers of the components ``_PowersCodec.decode`` builds from the
    packed ints, each checked against the validating constructor."""
    context = VariableContext.of_dimension(len(codec.shifts))
    components = codec.decode(context, packed, offset)
    assert type(components) is tuple
    for c in components:
        assert type(c) is IrreducibleComponent and c.context is context
        assert c == IrreducibleComponent(context, c.powers)
    return [c.powers for c in components]


def pack(codec, powers):
    """A component in the split route's packed layout: field i holds
    M - e for X_i^e, the fields of absent variables 0."""
    return sum((codec.top - e) << codec.shifts[i] for i, e in powers)


def level_children(ideal, c):
    """The variable split of ``ideal`` on variable c, on dense rows.

    (a, J_a) pairs, bottom level first: a runs over the distinct c
    exponents of the mixed rows x_c^a_k * m_k, then the top level, the
    cap p if x_c^p is a row and None (inf) otherwise, and
    J_a = (rows without c) + (m_k : a_k < a).
    """
    def cofactor(r):
        return r[:c] + (0,) + r[c + 1 :]

    without = [r for r in ideal.rows if not r[c]]
    mixed = [r for r in ideal.rows if r[c] and any(cofactor(r))]
    cap = next((r[c] for r in ideal.rows if r[c] and not any(cofactor(r))), None)
    return [
        (
            a,
            MonomialIdeal(
                ideal.context,
                without + [cofactor(r) for r in mixed if a is None or r[c] < a],
            ),
        )
        for a in sorted({r[c] for r in mixed}) + [cap]
    ]


def lift(powers, c, a):
    """x_c^a + P as a powers tuple; P itself at the level inf (a None)."""
    return powers if a is None else tuple(sorted(powers + ((c, a),)))


class TestCrossPrune:
    """The split route's pruning across the levels of a variable split:
    each level's child decomposed on its own and lifted by x_c^a, then
    x_c^a + P dropped exactly when P is a component of the next level's
    child too, against the pruning oracle on the union of the levels."""

    @staticmethod
    def level_combine(ideal, c):
        levels = [
            (a, [comp.powers for comp in split_decompose(J).components])
            for a, J in level_children(ideal, c)
        ]
        kept = []
        for k, (a, comps) in enumerate(levels):
            above = set(levels[k + 1][1]) if k + 1 < len(levels) else set()
            # a component of any higher level's child is one of the next's
            higher = set().union(*(comps for _, comps in levels[k + 1 :]))
            for powers in comps:
                assert (powers in above) == (powers in higher)
                if powers not in above:
                    kept.append(lift(powers, c, a))
        assert len(set(kept)) == len(kept)
        got = tuple(sorted(kept))
        union = [lift(powers, c, a) for a, comps in levels for powers in comps]
        assert got == prune_powers(union)
        assert got == tuple(comp.powers for comp in split_decompose(ideal).components)
        return levels, got

    @classmethod
    def check_every_variable(cls, ideal):
        """The levels of every variable split of ``ideal``."""
        return [
            cls.level_combine(ideal, c)[0]
            for c in range(ideal.context.dimension)
            if any(r[c] for r in ideal.rows)
        ]

    def test_round_trip(self):
        codec = _PowersCodec(4, 10**20)
        for powers in [(), ((0, 1),), ((1, 10**20), (3, 7))]:
            assert decoded(codec, [pack(codec, powers)]) == [powers]
        assert pack(codec, ()) == 0
        # decode reads only the support's fields: seeded components of
        # every width, with the first and last variable forced in half of
        # them, and the largest exponent M - 1 whose field holds 1; the
        # offset is added to each int before it is read
        rng = random.Random(20261019)
        for trial in range(300):
            dim = rng.randint(1, 9)
            max_exp = rng.choice((1, 2, 5, 10**20))
            codec = _PowersCodec(dim, max_exp)
            powers = dict(random_powers(rng, dim, max_exp))
            if trial % 2:
                for i in (0, dim - 1):
                    powers.setdefault(i, rng.choice((1, max_exp)))
            powers = tuple(sorted(powers.items()))
            packed = pack(codec, powers)
            assert decoded(codec, [packed, 0]) == [powers, ()]
            offset = packed & rng.getrandbits(packed.bit_length())
            assert decoded(codec, [packed - offset], offset) == [powers]
        codec = _PowersCodec(40, 10**20)
        ends = ((0, 10**20), (39, 1))
        assert decoded(codec, [pack(codec, ends)]) == [ends]
        assert decoded(codec, []) == []

    @pytest.mark.parametrize("dim", [1, 4, 5, 9, 17, 40])
    @pytest.mark.parametrize("max_exp", [1, 3, 7, 8, 10**20])
    def test_unpack_matches_bit_loop(self, dim, max_exp):
        # field widths 3, 4, 5, 5 and 68 bits: a chunk holds several
        # fields or one, and the chunk holding variable 0 may be short.
        # One codec decodes each list twice, so the second pass reads
        # every chunk from the table
        rng = random.Random(f"unpack-{dim}-{max_exp}")
        for trial in range(20):
            codec = _PowersCodec(dim, max_exp)
            items = [random_powers(rng, dim, max_exp) for _ in range(rng.randint(1, 30))]
            packed = [pack(codec, powers) for powers in prune_powers(items)]
            rng.shuffle(packed)
            expected = [bit_loop_unpack(codec, p) for p in packed]
            for _ in range(2):
                assert decoded(codec, packed) == expected
            assert decoded(codec, [0]) == [()]

    def test_component_on_both_sides_kept_once(self):
        # (X1*X2, X2*X3) split on X1: J_1 = (X2*X3) and J_inf = (X2)
        # both hold (X2), which stays once, at the level inf
        ctx = VariableContext.of_dimension(3)
        levels, got = self.level_combine(MonomialIdeal(ctx, [(1, 1, 0), (0, 1, 1)]), 0)
        assert levels == [(1, [((1, 1),), ((2, 1),)]), (None, [((1, 1),)])]
        assert got == (((0, 1), (2, 1)), ((1, 1),))

    def test_zero_fields(self):
        # X1 and X5 appear in no generator: no split is on them, and no
        # component holds them
        ctx = VariableContext.of_dimension(5)
        self.check_every_variable(
            MonomialIdeal(ctx, [(0, 2, 1, 0, 0), (0, 0, 3, 1, 0), (0, 1, 0, 2, 0)])
        )

    def test_huge_exponents(self):
        big = 10**20
        ideal = MonomialIdeal(X3, [(big, 1, 0), (0, big + 1, big), (1, 0, big)])
        self.check_every_variable(ideal)

    def test_matches_all_pairs_sweep(self):
        # every variable, not only the route's own choice; some splits
        # have a cap, and some share a component between two levels
        rng = random.Random(20261018)
        caps = shared = 0
        for trial in range(150):
            dim = rng.randint(2, 6)
            ctx = VariableContext.of_dimension(dim)
            hi = rng.choice((1, 2, 4))
            rows = random_vecs(rng, rng.randint(1, 6), dim, hi)
            if rng.random() < 0.2:
                rows = [tuple(10**20 if e == hi else e for e in r) for r in rows]
            ideal = MonomialIdeal(ctx, rows)
            for levels in self.check_every_variable(ideal) if not ideal.is_unit else ():
                caps += levels[-1][0] is not None
                shared += any(
                    set(low) & set(high) for (_, low), (_, high) in zip(levels, levels[1:])
                )
        assert caps > 20 and shared > 20, (caps, shared)


class TestSelector:
    def test_python_always_available(self):
        assert "python" in kernels.available()

    def test_use_rebinds(self):
        before = kernels.active()
        try:
            kernels.use("python")
            assert kernels.active() == "python"
            assert kernels.minimalize([(2, 0), (1, 0)]) == [(1, (1, 0))]
        finally:
            kernels.use(before)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            kernels.use("fortran")
