"""Exponent-vector kernels.

The small componentwise operations that dominate decomposition and
enumeration time.  Vectors in one call must share a single dimension;
``minimalize`` rejects mixed dimensions, the pointwise helpers trust
their callers' context checks.  Callers reach the kernels through this
module's attributes (``kernels.minimalize(...)``), so the benchmark's
tracer sees every call.

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


def any_divides(gens, m):
    """True if some vector in gens divides m componentwise."""
    for g in gens:
        if divides(g, m):
            return True
    return False


def minimalize(vecs):
    """Minimal elements of vecs under divisibility, in graded-lex order.

    Deduplicates, then drops every vector some other vector divides.  A
    strict divisor has strictly smaller total degree, so one ascending
    sweep over the graded-lex ordering suffices.
    """
    ordered = sorted(set(vecs), key=grlex_key)
    if ordered:
        dim = len(ordered[0])
        for v in ordered:
            if len(v) != dim:
                raise ValueError("exponent vectors must share one dimension")
    kept = []
    for v in ordered:
        dominated = False
        for k in kept:
            if divides(k, v):
                dominated = True
                break
        if not dominated:
            kept.append(v)
    return kept


def intersect_rows(gens1, gens2):
    """Generating rows of the intersection: minimalized pairwise lcms."""
    return minimalize([lcm(f, g) for f in gens1 for g in gens2])
