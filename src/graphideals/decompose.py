"""Irredundant decompositions of monomial ideals into irreducible parts.

An ideal generated by pure powers of distinct variables is m-irreducible.
:func:`split_decompose` writes any monomial ideal as a finite intersection
of such ideals by recursively splitting a mixed generator f = u*v into the
two larger ideals (I + (u)) and (I + (v)) with u, v coprime.  Generators on
pairwise disjoint sets of variables are decomposed apart and their
components combined, an independence split after Roune's slice algorithm
(J. Symbolic Comput. 44, 2009).  Containment between irreducible
components reduces to a support/exponent comparison (:func:`_powers_leq`),
which makes pruning exact: an intersection of m-irreducible ideals inside
an m-irreducible ideal forces one factor inside it (lcm argument), so
irredundant lists are unique and route-independent.  The two sides of a
split are irredundant already, so pruning compares only components from
opposite sides, each packed into one integer so that the comparison is a
subtraction (packed-vector divisibility after Bachmann & Schönemann,
ISSAC 1998).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from . import kernels
from .monomials import (
    ContextMismatchError,
    MonomialIdeal,
    VariableContext,
    intersect,
)

DEFAULT_COMPONENT_CAP = 100_000


class DecompositionLimitError(RuntimeError):
    """Raised when a decomposition exceeds the component cap."""


@dataclass(frozen=True)
class IrreducibleComponent:
    """An m-irreducible ideal P(V', d'): pure powers of distinct variables.

    ``powers`` holds (variable index, exponent) pairs with exponents >= 1,
    kept sorted by index.  The empty tuple is the zero ideal.  Over a
    graph's context the same pairs are the weighted vertex cover (V', d'):
    vertex v carries weight d'(v), the exponent of X_v.
    """

    context: VariableContext
    powers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # one pass; both routes hand over sorted tuple pairs, which are
        # kept as they are
        powers = tuple(self.powers)
        last = -1
        canonical = True
        for pair in powers:
            i, e = pair
            if (type(i) is not int or type(e) is not int) and (
                isinstance(i, bool)
                or isinstance(e, bool)
                or not isinstance(i, int)
                or not isinstance(e, int)
            ):
                raise ValueError("component indices and exponents must be ints")
            if e < 1:
                raise ValueError("component exponents must be at least 1")
            if i <= last or type(pair) is not tuple:
                canonical = False
            last = i
        if not canonical:
            powers = tuple(sorted((i, e) for i, e in powers))
            for (i, _), (j, _) in zip(powers, powers[1:]):
                if i == j:
                    raise ValueError("component variables must be distinct")
        # sorted and distinct: the end indices bound all the others
        for i in (powers[0][0], powers[-1][0]) if powers else ():
            if not 0 <= i < self.context.dimension:
                raise ValueError(f"variable index {i} out of range")
        object.__setattr__(self, "powers", powers)

    @classmethod
    def from_ideal(cls, ideal: MonomialIdeal) -> "IrreducibleComponent":
        powers = []
        for r in ideal.rows:
            support = [(i, e) for i, e in enumerate(r) if e > 0]
            if len(support) != 1:
                raise ValueError("ideal is not m-irreducible")
            powers.append(support[0])
        return cls(ideal.context, tuple(powers))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.powers)

    @property
    def m_height(self) -> int:
        return len(self.powers)

    def powers_dict(self) -> dict[int, int]:
        return dict(self.powers)

    def ideal(self) -> MonomialIdeal:
        rows = []
        for i, e in self.powers:
            row = [0] * self.context.dimension
            row[i] = e
            rows.append(row)
        return MonomialIdeal(self.context, rows)

    def contains(self, other: "IrreducibleComponent") -> bool:
        """other's ideal is contained in this one.

        P(V'', d'') lies inside P(V', d') exactly when V'' is a subset of
        V' and d'(v) <= d''(v) for every v in V'': smaller components carry
        larger exponents.
        """
        if self.context != other.context:
            raise ContextMismatchError("components use different contexts")
        return _powers_leq(other.powers, self.powers)

    def __str__(self) -> str:
        if not self.powers:
            return "(0)"
        names = self.context.names
        parts = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in self.powers]
        return "(" + ", ".join(parts) + ")"


def _powers_leq(small, big) -> bool:
    # P(small) <= P(big): support(small) inside support(big), big exponents
    # bounded by small exponents on the shared support
    lookup = dict(big)
    for i, e in small:
        be = lookup.get(i)
        if be is None or be > e:
            return False
    return True


@dataclass(frozen=True)
class Decomposition:
    """A list of irreducible components in canonical order.

    Both routes build it irredundant.
    """

    context: VariableContext
    components: tuple[IrreducibleComponent, ...]

    def __post_init__(self):
        for c in self.components:
            if c.context != self.context:
                raise ContextMismatchError(
                    "all components must share the decomposition's context"
                )
        ordered = tuple(sorted(self.components, key=lambda c: c.powers))
        object.__setattr__(self, "components", ordered)

    def intersection(self) -> MonomialIdeal:
        """Intersect all components; recovers the decomposed ideal."""
        result = MonomialIdeal.unit(self.context)
        for c in self.components:
            result = intersect(result, c.ideal())
        return result

    def support_sizes(self) -> tuple[int, ...]:
        return tuple(sorted({c.m_height for c in self.components}))

    def __len__(self) -> int:
        return len(self.components)


def split_decompose(
    ideal: MonomialIdeal, max_components: int = DEFAULT_COMPONENT_CAP
) -> Decomposition:
    """Irredundant m-irreducible decomposition by generator splitting.

    Works on the ideal's canonical generator rows alone, memoizing every
    subproblem on them.  At each node:

    - if every generator is a pure power, they form the one component;
    - if the generators fall into parts on pairwise disjoint variables
      (an independence split), each part is decomposed on its own and
      the components are the cartesian product of the parts' lists,
      which is irredundant as it stands;
    - otherwise the first generator (graded-lex order) that is not a
      pure power splits into its lowest-variable pure-power factor u
      and the cofactor v, and the decompositions of I + (u) and I + (v)
      are merged.  Each side is irredundant, so only components of one
      side can lie below components of the other: pruning compares
      left against right only, and keeps once a component on both.

    No generator divides u or v (it would divide the pivot), so adjoining
    either one drops its multiples and inserts it, a linear pass.  Past
    ``max_components`` components at any split or product node,
    including while a product is being built, raises
    DecompositionLimitError.  The zero ideal decomposes as the single
    component P(empty); the unit ideal is refused, since an intersection
    of proper monomial ideals is never the whole ring.
    """
    if ideal.is_unit:
        raise ValueError("unit ideal has no irreducible decomposition")
    context = ideal.context
    codec = _PowersCodec(
        context.dimension, max((e for r in ideal.rows for e in r), default=0)
    )
    memo: dict[tuple, tuple] = {}

    def over_cap():
        return DecompositionLimitError(
            f"decomposition exceeded {max_components} components"
        )

    def rec(rows):
        hit = memo.get(rows)
        if hit is not None:
            return hit
        masks = []
        pivot = None
        for r in rows:
            mask = _support_mask(r)
            if pivot is None and mask & (mask - 1):
                pivot = r
                pivot_mask = mask
            masks.append(mask)
        if pivot is None:
            # every generator is a pure power: one component
            leads = (m.bit_length() - 1 for m in masks)
            comps = (codec.pack((i, r[i]) for r, i in zip(rows, leads)),)
        else:
            parts = _independent_parts(masks)
            if len(parts) > 1:
                comps = (0,)
                for part in parts:
                    sub = rec(tuple(r for r, m in zip(rows, masks) if m & part))
                    if len(comps) * len(sub) > max_components:
                        raise over_cap()
                    # disjoint variables: adding packed fields merges them
                    comps = tuple(a + b for a in comps for b in sub)
            else:
                i = (pivot_mask & -pivot_mask).bit_length() - 1
                u = tuple(e if k == i else 0 for k, e in enumerate(pivot))
                v = tuple(0 if k == i else e for k, e in enumerate(pivot))
                left = rec(_adjoin(rows, u))
                right = rec(_adjoin(rows, v))
                comps = _cross_prune(left, right, codec.guards)
                if len(comps) > max_components:
                    raise over_cap()
        memo[rows] = comps
        return comps

    components = tuple(
        IrreducibleComponent(context, codec.unpack(p)) for p in rec(ideal.rows)
    )
    return Decomposition(context, components)


def _support_mask(row) -> int:
    mask = 0
    for k, e in enumerate(row):
        if e:
            mask |= 1 << k
    return mask


def _adjoin(rows, m):
    """The canonical rows of (rows) + (m), given that no row divides m.

    A multiple of m has a larger graded-lex key, so m's multiples all lie
    after its insertion point.  Comparing one variable of m first settles
    most rows, and every row when m is a pure power.
    """
    at = bisect.bisect(rows, kernels.grlex_key(m), key=kernels.grlex_key)
    k = next(k for k, e in enumerate(m) if e)
    e = m[k]
    kept = tuple(r for r in rows[at:] if r[k] < e or not kernels.divides(m, r))
    return rows[:at] + (m,) + kept


def _independent_parts(masks):
    """Unions of the support masks that share no variable, one per part."""
    parts = []
    for mask in masks:
        rest = []
        for part in parts:
            if part & mask:
                mask |= part
            else:
                rest.append(part)
        rest.append(mask)
        parts = rest
    return parts


class _PowersCodec:
    """Powers tuples packed into ints, one bit field per variable.

    Variable i raised to e fills field i with M - e, where M exceeds every
    exponent, and an absent variable leaves it 0.  Then ``_powers_leq(b,
    a)`` holds exactly when every field of b is at most a's, which is one
    subtraction: with a guard bit above each field, no field of
    (a | G) - b borrows from the next, and field i keeps its guard bit
    exactly when a's field i is at least b's.  Fields on disjoint
    variables add without carries.
    """

    def __init__(self, dimension, max_exponent):
        self.top = max_exponent + 1
        bits = self.top.bit_length()
        self.width = bits + 1
        self.field = (1 << bits) - 1
        self.guards = sum(1 << (bits + k * self.width) for k in range(dimension))

    def pack(self, powers) -> int:
        top, width = self.top, self.width
        return sum((top - e) << (i * width) for i, e in powers)

    def unpack(self, packed) -> tuple[tuple[int, int], ...]:
        top, width, field = self.top, self.width, self.field
        powers = []
        i = 0
        while packed:
            f = packed & field
            if f:
                powers.append((i, top - f))
            packed >>= width
            i += 1
        return tuple(powers)


def _cross_prune(left, right, guards):
    """Minimal elements of the union of two antichains of packed components.

    Neither side holds a pair in order, so only left-right pairs are
    compared; a component on both sides is kept once.
    """
    shared = set(left) & set(right)
    kept = list(shared)
    for mine, theirs in ((left, right), (right, left)):
        for a in mine:
            if a in shared:
                continue
            ag = a | guards
            for b in theirs:
                if (ag - b) & guards == guards:
                    break
            else:
                kept.append(a)
    return tuple(kept)


def is_m_unmixed_ideal(ideal: MonomialIdeal) -> bool:
    """All components of the irredundant decomposition have equal support size."""
    if ideal.is_unit:
        raise ValueError("unit ideal has no irreducible decomposition")
    return len(split_decompose(ideal).support_sizes()) == 1
