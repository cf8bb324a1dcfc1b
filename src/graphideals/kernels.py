"""Exponent-vector kernels.

The small componentwise operations that dominate decomposition and
enumeration time.  Vectors in one call must share a single dimension;
``minimalize`` rejects mixed dimensions, the sweep and the pointwise
helpers trust their callers' context checks.

Vectors stay dense tuples.  Each one also gets a support mask, bit i set
when exponent i is positive: a divisor's support lies inside its
multiple's, so the int test ``t & ~s`` rejects most non-dividing pairs
before any tuple comparison (the "short exponent vector" filter of
Bachmann & Schönemann, ISSAC 1998).  :func:`all_divided` is the one
divisor search on masked rows, for :func:`sweep` and ``monomials``.
:func:`sweep`, the one antichain sweep, takes and returns (mask, vector)
pairs, so callers hand over the masks they hold; :func:`minimalize`
builds them for vectors from outside.  :func:`powers_leq` is the
containment order of irreducible components.

Only the pure-Python implementation exists.  ``available``, ``active``
and ``use`` are kept for perfbench, whose report stamp names the kernel
implementation and whose raw-kernel timings run under each one.
"""

from operator import le


def available():
    """Names of the importable implementations, for perfbench's stamp."""
    return ("python",)


def active():
    """Name of the implementation in use, for perfbench's stamp."""
    return "python"


def use(name):
    """Select an implementation for perfbench's raw-kernel timings.

    Only ``"python"`` exists.
    """
    if name != "python":
        raise ValueError(
            f"unknown kernel implementation {name!r}; available: {available()}"
        )
    return name


def grlex_key(vec):
    # graded lexicographic: total degree first, then the vector itself
    return (sum(vec), vec)


def divides(a, b):
    """Componentwise a <= b."""
    return all(map(le, a, b))


def lcm(a, b):
    """Componentwise maximum."""
    return tuple(x if x >= y else y for x, y in zip(a, b))


def support_mask(vec):
    """The int with bit i set exactly when vec[i] > 0."""
    mask = 0
    for i, e in enumerate(vec):
        if e:
            mask |= 1 << i
    return mask


def all_divided(gens, rows):
    """Every row has a divisor among gens; both hold (support mask, row) pairs.

    Only generators whose mask lies inside the row's are compared, inline:
    verify compares its pool pairwise here.
    """
    for mask, row in rows:
        outside = ~mask
        for t, g in gens:
            if not t & outside and all(map(le, g, row)):
                break
        else:
            return False
    return True


def sweep(pairs):
    """Minimal elements of (support mask, vector) pairs under divisibility,
    in graded-lex order of the vectors; each mask is its vector's support.

    Deduplicates, then drops every pair whose vector another divides.  A
    strict divisor has strictly smaller total degree, so one ascending
    sweep over the graded-lex ordering suffices: each candidate goes
    through :func:`all_divided` against the kept pairs.
    """
    kept = []
    # grlex_key of the vector, inlined: one Python call per pair
    for pair in sorted(set(pairs), key=lambda p: (sum(p[1]), p[1])):
        if not all_divided(kept, (pair,)):
            kept.append(pair)
    return kept


def minimalize(vecs):
    """Minimal elements of vecs under divisibility, as :func:`sweep`'s
    (support mask, vector) pairs; mixed dimensions raise ValueError."""
    vecs = set(vecs)
    if len({len(v) for v in vecs}) > 1:
        raise ValueError("exponent vectors must share one dimension")
    return sweep([(support_mask(v), v) for v in vecs])


def intersect_rows(gens1, gens2):
    """The intersection's (support mask, row) pairs from both ideals'
    pairs: the minimal pairwise lcms, masked by the OR of their masks."""
    return sweep([(t | u, lcm(f, g)) for t, f in gens1 for u, g in gens2])


def powers_leq(small, big):
    """P(small) <= P(big) on index-sorted (variable, exponent) pairs: small's
    support inside big's, big's exponents no larger there; one merge walk."""
    if len(small) > len(big):
        return False
    rest = iter(big)
    for i, e in small:
        for j, f in rest:
            if j >= i:
                break
        else:
            return False
        if j != i or f > e:
            return False
    return True
