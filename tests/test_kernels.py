"""Contract of the exponent-vector kernels, of the support-masked ideal
layer against the dense definitions, of the split route's packed
monomials and pruning, and of the component pruning the tests use as an
oracle."""

import itertools
import random

import pytest

from graphideals import kernels
from graphideals.decompose import (
    _PowersCodec,
    _powers_leq,
    _split_prune,
    split_decompose,
)
from graphideals.monomials import MonomialIdeal, VariableContext, ideal_leq, member

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
        assert got == [(2, 0), (0, 5)]

    def test_minimalize_unit_absorbs(self, impl):
        assert impl.minimalize([(0, 0), (1, 2)]) == [(0, 0)]

    def test_minimalize_empty(self, impl):
        assert impl.minimalize([]) == []

    def test_minimalize_matches_brute_force(self, impl):
        rng = random.Random(20260822)
        for trial in range(200):
            dim = rng.randint(1, 5)
            vecs = random_vecs(rng, rng.randint(0, 12), dim, 4)
            assert impl.minimalize(vecs) == brute_minimalize(vecs)

    def test_intersect_rows(self, impl):
        left = [(2, 0, 0), (0, 5, 5)]
        right = [(0, 2, 0)]
        assert impl.intersect_rows(left, right) == [(2, 2, 0), (0, 5, 5)]

    def test_exhaustive_small_minimalize(self, impl):
        univ = list(itertools.product(range(3), repeat=2))
        for size in range(4):
            for vecs in itertools.combinations(univ, size):
                assert impl.minimalize(list(vecs)) == brute_minimalize(vecs)

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
            assert kernels.minimalize(rows) == expected
            assert MonomialIdeal(ctx, rows).rows == tuple(expected)

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
                m = ctx.monomial(p)
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
                assert _powers_leq(x, y) == dense_powers_leq(x, y)


def prune_powers(items):
    """Drop every powers tuple whose ideal contains another's; dedupe; sort.

    Encodes each tuple as the vector with M - e at each variable it
    raises to e and 0 elsewhere, M exceeding every exponent.  Then
    _powers_leq(b, a) holds exactly when b's vector divides a's, so the
    minimal components are the kernel's minimal vectors.  The oracle for
    any list of components, faster than the all-pairs sweep below.
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
    return tuple(sorted(by_vec[v] for v in kernels.minimalize(list(by_vec))))


def brute_prune_powers(items):
    """All-pairs reference: drop every powers tuple some other one lies
    below in the component order; dedupe; sort."""
    uniq = sorted(set(items))
    return tuple(
        a for a in uniq if not any(b != a and _powers_leq(b, a) for b in uniq)
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


class TestPackedRows:
    """The split route's packed monomials against the tuple kernels."""

    def test_order_is_graded_lex(self):
        rng = random.Random(20261019)
        for trial in range(300):
            dim = rng.randint(1, 6)
            hi = rng.choice((1, 3, 10**20))
            codec = _PowersCodec(dim, hi)
            rows = list(set(random_vecs(rng, rng.randint(0, 20), dim, hi)))
            packed = {codec.pack_row(r): r for r in rows}
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
            pa, pb = codec.pack_row(a), codec.pack_row(b)
            assert (((pb | guards) - pa) & guards == guards) == kernels.divides(a, b)
            assert codec.support(pa) == sum(
                1 << s for e, s in zip(a, codec.shifts) if e
            )


def pack(codec, powers):
    """A component in the split route's packed layout: field i holds
    M - e for X_i^e, the fields of absent variables 0."""
    return sum((codec.top - e) << codec.shifts[i] for i, e in powers)


def split_sides(ideal, f, i):
    """Packed decompositions of I + (u) and I + (v), f = u*v, u = x_i^f_i."""
    u = tuple(e if k == i else 0 for k, e in enumerate(f))
    v = tuple(0 if k == i else e for k, e in enumerate(f))
    codec = _PowersCodec(len(f), max(e for r in ideal.rows for e in r))
    sides = []
    for m in (u, v):
        D = split_decompose(MonomialIdeal(ideal.context, ideal.rows + (m,)))
        sides.append([c.powers for c in D.components])
    return codec, codec.pack_row(u), codec.pack_row(v), sides


class TestCrossPrune:
    """The split route's order-aware pruning of the two sides of a split
    f = u*v, on real split pairs, against the pruning oracle."""

    @staticmethod
    def split_prune(ideal, f, i):
        codec, u, v, (left, right) = split_sides(ideal, f, i)
        packed = _split_prune(
            [pack(codec, p) for p in left], [pack(codec, p) for p in right], u, v, codec
        )
        assert len(set(packed)) == len(packed)
        got = tuple(sorted(codec.unpack(x) for x in packed))
        assert got == prune_powers(left + right)
        return left, right, got

    @classmethod
    def check_every_pivot(cls, ideal):
        for f in ideal.rows:
            support = [i for i, e in enumerate(f) if e]
            for i in support if len(support) > 1 else ():
                cls.split_prune(ideal, f, i)

    def test_round_trip(self):
        codec = _PowersCodec(4, 10**20)
        for powers in [(), ((0, 1),), ((1, 10**20), (3, 7))]:
            assert codec.unpack(pack(codec, powers)) == powers
        assert pack(codec, ()) == 0

    def test_component_on_both_sides_kept_once(self):
        # the triangle split at its first generator X2*X3, u = X2, v = X3
        # both sides hold (X2, X3)
        triangle = MonomialIdeal(X3, [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
        left, right, got = self.split_prune(triangle, (0, 1, 1), 1)
        assert set(left) & set(right) == {((1, 1), (2, 1))}
        assert got == (((0, 1), (1, 1)), ((0, 1), (2, 1)), ((1, 1), (2, 1)))

    def test_zero_fields(self):
        # X1 and X5 appear in no generator, so every component leaves
        # their fields 0
        ctx = VariableContext.of_dimension(5)
        self.check_every_pivot(
            MonomialIdeal(ctx, [(0, 2, 1, 0, 0), (0, 0, 3, 1, 0), (0, 1, 0, 2, 0)])
        )

    def test_huge_exponents(self):
        big = 10**20
        ideal = MonomialIdeal(X3, [(big, 1, 0), (0, big + 1, big), (1, 0, big)])
        self.check_every_pivot(ideal)

    def test_matches_all_pairs_sweep(self):
        # every mixed generator, split at every variable, not only the
        # route's own pivot
        rng = random.Random(20261018)
        for trial in range(150):
            dim = rng.randint(2, 6)
            ctx = VariableContext.of_dimension(dim)
            hi = rng.choice((1, 2, 4))
            rows = random_vecs(rng, rng.randint(1, 6), dim, hi)
            if rng.random() < 0.2:
                rows = [tuple(10**20 if e == hi else e for e in r) for r in rows]
            ideal = MonomialIdeal(ctx, rows)
            if not ideal.is_unit:
                self.check_every_pivot(ideal)


class TestSelector:
    def test_python_always_available(self):
        assert "python" in kernels.available()

    def test_use_rebinds(self):
        before = kernels.active()
        try:
            kernels.use("python")
            assert kernels.active() == "python"
            assert kernels.minimalize([(2, 0), (1, 0)]) == [(1, 0)]
        finally:
            kernels.use(before)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            kernels.use("fortran")
