"""Exponent-vector kernels.

The small componentwise operations that dominate decomposition and
enumeration time.  Vectors in one call must share a single dimension;
``minimalize`` rejects mixed dimensions, the pointwise helpers trust
their callers' context checks.  Callers reach the kernels through this
module's attributes (``kernels.minimalize(...)``), so the benchmark's
tracer sees every call.

Vectors stay dense tuples.  Each one also gets a support mask, bit i set
when exponent i is positive: a divisor's support lies inside its
multiple's, so the int test ``t & ~s`` rejects most non-dividing pairs
before any tuple comparison (the "short exponent vector" filter of
Bachmann & Schönemann, ISSAC 1998).

Only the pure-Python implementation exists.  ``available``, ``active``
and ``use`` are kept for perfbench, whose report stamp names the kernel
implementation and whose raw-kernel timings run under each one.
"""

import operator


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
    return all(map(operator.le, a, b))


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


def minimalize(vecs):
    """Minimal elements of vecs under divisibility, in graded-lex order.

    Deduplicates, then drops every vector some other vector divides.  A
    strict divisor has strictly smaller total degree, so one ascending
    sweep over the graded-lex ordering suffices.  A candidate is compared
    only with the kept vectors whose support mask lies inside its own.
    """
    ordered = sorted(set(vecs), key=grlex_key)
    dim = len(ordered[0]) if ordered else 0
    kept = []
    kept_masks = []
    for v in ordered:
        if len(v) != dim:
            raise ValueError("exponent vectors must share one dimension")
        outside = ~support_mask(v)
        for t, k in zip(kept_masks, kept):
            if not t & outside and divides(k, v):
                break
        else:
            kept.append(v)
            kept_masks.append(~outside)
    return kept


def intersect_rows(gens1, gens2):
    """Generating rows of the intersection: minimalized pairwise lcms."""
    return minimalize([lcm(f, g) for f in gens1 for g in gens2])
