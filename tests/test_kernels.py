"""Contract of the exponent-vector kernels and of the component pruning
built on them."""

import itertools
import random

import pytest

from graphideals import kernels
from graphideals.decompose import _powers_leq, _prune_powers


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

    def test_any_divides(self, impl):
        gens = [(2, 0), (0, 5)]
        assert impl.any_divides(gens, (3, 1))
        assert not impl.any_divides(gens, (1, 4))

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
        assert _prune_powers(items) == (((0, 2),), ((1, 1),))

    def test_zero_component_is_below_everything(self):
        assert _prune_powers([((0, 1),), (), ((2, 7),), ()]) == ((),)

    def test_empty(self):
        assert _prune_powers([]) == ()

    def test_huge_exponents(self):
        big = 10**20
        items = [((0, big),), ((0, big), (1, 1)), ((0, big + 1),)]
        assert _prune_powers(items) == brute_prune_powers(items)

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
            assert _prune_powers(items) == brute_prune_powers(items)


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
