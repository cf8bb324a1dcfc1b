"""Irredundant decompositions of monomial ideals into irreducible parts.

An ideal generated by pure powers of distinct variables is m-irreducible.
:func:`split_decompose` writes any monomial ideal as a finite intersection
of such ideals by recursively splitting a mixed generator f = u*v into the
two larger ideals (I + (u)) and (I + (v)) with u, v coprime, then pruning
redundant components.  Containment between irreducible components reduces
to a support/exponent comparison, which makes the pairwise pruning exact:
an intersection of m-irreducible ideals inside an m-irreducible ideal
forces one factor inside it (lcm argument), so irredundant lists are
unique and route-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .monomials import (
    ContextMismatchError,
    Monomial,
    MonomialIdeal,
    VariableContext,
)

DEFAULT_COMPONENT_CAP = 100_000


class DecompositionLimitError(RuntimeError):
    """Raised when a decomposition exceeds the component cap."""


@dataclass(frozen=True)
class IrreducibleComponent:
    """An m-irreducible ideal P(V', d'): pure powers of distinct variables.

    ``powers`` holds (variable index, exponent) pairs with exponents >= 1,
    kept sorted by index.  The empty tuple is the zero ideal.
    """

    context: VariableContext
    powers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        powers = tuple(sorted((int(i), int(e)) for i, e in self.powers))
        object.__setattr__(self, "powers", powers)
        seen = set()
        for i, e in powers:
            if not 0 <= i < self.context.dimension:
                raise ValueError(f"variable index {i} out of range")
            if e < 1:
                raise ValueError("component exponents must be at least 1")
            if i in seen:
                raise ValueError("component variables must be distinct")
            seen.add(i)

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
        gens = []
        for i, e in self.powers:
            exps = [0] * self.context.dimension
            exps[i] = e
            gens.append(Monomial(self.context, tuple(exps)))
        return MonomialIdeal(self.context, tuple(gens))

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


def _prune_powers(items):
    """Drop every powers tuple whose ideal contains another's; dedupe; sort.

    Encodes each tuple as the vector with M - e at each variable it
    raises to e and 0 elsewhere, M exceeding every exponent.  Then
    _powers_leq(b, a) holds exactly when b's vector divides a's, so the
    minimal components are the kernel's minimal vectors.  The input
    tuples themselves are returned, which keeps them shared with the
    callers' lists.
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


@dataclass(frozen=True)
class Decomposition:
    """A list of irreducible components in canonical order."""

    context: VariableContext
    components: tuple[IrreducibleComponent, ...]
    irredundant: bool

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
            result = MonomialIdeal.from_exponents(
                self.context, kernels.intersect_rows(result.rows, c.ideal().rows)
            )
        return result

    def support_sizes(self) -> tuple[int, ...]:
        return tuple(sorted({c.m_height for c in self.components}))

    def __len__(self) -> int:
        return len(self.components)


def split_decompose(
    ideal: MonomialIdeal, max_components: int = DEFAULT_COMPONENT_CAP
) -> Decomposition:
    """Irredundant m-irreducible decomposition by generator splitting.

    Picks the first generator (graded-lex order) that is not a pure power,
    splits off its lowest-variable pure-power factor u (so f = u*v with u
    and v coprime), and intersects the decompositions of I + (u) and
    I + (v), pruning redundant components at every level.  Subproblems are
    memoized on canonical generator rows.  The zero ideal decomposes as
    the single component P(empty); the unit ideal is refused, since an
    intersection of proper monomial ideals is never the whole ring.
    """
    if ideal.is_unit:
        raise ValueError("unit ideal has no irreducible decomposition")
    context = ideal.context
    memo: dict[tuple, tuple] = {}

    def rec(rows):
        hit = memo.get(rows)
        if hit is not None:
            return hit
        pivot = None
        for r in rows:
            if sum(1 for e in r if e > 0) > 1:
                pivot = r
                break
        if pivot is None:
            # every generator is a pure power: one component
            powers = tuple(
                sorted((i, e) for r in rows for i, e in enumerate(r) if e > 0)
            )
            comps = (powers,)
        else:
            i = next(k for k, e in enumerate(pivot) if e > 0)
            u = tuple(e if k == i else 0 for k, e in enumerate(pivot))
            v = tuple(0 if k == i else e for k, e in enumerate(pivot))
            left = rec(tuple(kernels.minimalize(rows + (u,))))
            right = rec(tuple(kernels.minimalize(rows + (v,))))
            comps = _prune_powers(left + right)
            if len(comps) > max_components:
                raise DecompositionLimitError(
                    f"decomposition exceeded {max_components} components"
                )
        memo[rows] = comps
        return comps

    powers_list = rec(ideal.rows)
    components = tuple(IrreducibleComponent(context, p) for p in powers_list)
    return Decomposition(context, components, irredundant=True)


def irredundantize(components) -> Decomposition:
    """Prune a component list down to its minimal elements.

    Dropping exactly the components whose ideals contain another one's is
    complete here: if an intersection of m-irreducible ideals lands inside
    an m-irreducible ideal, some single factor already does.
    """
    components = tuple(components)
    if not components:
        raise ValueError("no components to prune")
    context = components[0].context
    for c in components:
        if c.context != context:
            raise ContextMismatchError("components use different contexts")
    pruned = _prune_powers(tuple(c.powers for c in components))
    return Decomposition(
        context,
        tuple(IrreducibleComponent(context, p) for p in pruned),
        irredundant=True,
    )


def m_height_of(decomposition: Decomposition) -> int:
    """Smallest component support size of an irredundant decomposition."""
    if not decomposition.components:
        raise ValueError("empty decomposition has no m-height")
    return min(c.m_height for c in decomposition.components)


def is_m_unmixed_ideal(ideal: MonomialIdeal) -> bool:
    """All components of the irredundant decomposition have equal support size."""
    if ideal.is_unit:
        raise ValueError("unit ideal has no irreducible decomposition")
    return len(split_decompose(ideal).support_sizes()) == 1
