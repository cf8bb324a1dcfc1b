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
irredundant lists are unique and route-independent.  Generators and
components are packed into one integer each, so that divisibility and
containment are one subtraction (packed-vector divisibility after
Bachmann & Schönemann, ISSAC 1998).  At a split f = u*v, with u a pure
power, the two sides are irredundant already, and tests on the fields
of u and v settle most pairs without comparing them: a component of
I + (v) that contains u is dropped, a component of I + (u) that does not
contain v is kept, and only the rest are compared.
"""

from __future__ import annotations

import bisect

from ._records import FrozenRecord
from .monomials import MonomialIdeal, VariableContext, _same_context

DEFAULT_COMPONENT_CAP = 100_000


class DecompositionLimitError(RuntimeError):
    """Raised when a decomposition exceeds the component cap."""


class IrreducibleComponent(FrozenRecord):
    """An m-irreducible ideal P(V', d'): pure powers of distinct variables.

    ``powers`` holds (variable index, exponent) pairs with exponents >= 1,
    kept sorted by index.  The empty tuple is the zero ideal.  Over a
    graph's context the same pairs are the weighted vertex cover (V', d'):
    vertex v carries weight d'(v), the exponent of X_v.
    """

    _fields = ("context", "powers")

    def __init__(self, context: VariableContext, powers: tuple[tuple[int, int], ...]):
        # one pass; both routes hand over sorted tuple pairs, which are
        # kept as they are
        try:
            powers = tuple(powers)
        except TypeError:
            raise ValueError(
                f"component powers must be a sequence of pairs, got {powers!r}"
            ) from None
        last = -1
        canonical = True
        for pair in powers:
            try:
                i, e = pair
            except (TypeError, ValueError):
                raise ValueError(
                    f"a component power must be an (index, exponent) pair, got {pair!r}"
                ) from None
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
            if not 0 <= i < context.dimension:
                raise ValueError(f"variable index {i} out of range")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "powers", powers)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.powers)

    @property
    def m_height(self) -> int:
        return len(self.powers)

    def powers_dict(self) -> dict[int, int]:
        return dict(self.powers)

    def ideal(self) -> MonomialIdeal:
        # pure powers of distinct variables: an antichain as they stand
        d = self.context.dimension
        rows = []
        for i, e in self.powers:
            row = [0] * d
            row[i] = e
            rows.append(tuple(row))
        return MonomialIdeal._of_antichain(self.context, rows)

    def contains(self, other: "IrreducibleComponent") -> bool:
        """other's ideal is contained in this one.

        P(V'', d'') lies inside P(V', d') exactly when V'' is a subset of
        V' and d'(v) <= d''(v) for every v in V'': smaller components carry
        larger exponents.
        """
        _same_context(self, other)
        return _powers_leq(other.powers, self.powers)

    def __str__(self) -> str:
        if not self.powers:
            return "(0)"
        names = self.context.names
        parts = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in self.powers]
        return "(" + ", ".join(parts) + ")"


def _powers_leq(small, big) -> bool:
    # P(small) <= P(big): support(small) inside support(big), big exponents
    # bounded by small exponents on the shared support; one merge walk,
    # as both tuples are sorted by index
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


class Decomposition(FrozenRecord):
    """A list of irreducible components in canonical order.

    Both routes build it irredundant.
    """

    _fields = ("context", "components")

    def __init__(
        self, context: VariableContext, components: tuple[IrreducibleComponent, ...]
    ):
        object.__setattr__(self, "context", context)
        for c in components:
            _same_context(c, self)
        ordered = tuple(sorted(components, key=lambda c: c.powers))
        object.__setattr__(self, "components", ordered)

    def intersection(self) -> MonomialIdeal:
        """Intersect all components; recovers the decomposed ideal.

        Folds the components into the generator rows of their
        intersection, starting from the unit ideal's row 1.  Rows are
        packed as in :func:`split_decompose` (:class:`_PowersCodec`, the
        degree above the exponent fields), so the ints sort in graded-lex
        order.  Against a component P = (x_i^e_i : i in V'), a row r with
        some exponent r_i >= e_i on V' lies in P and passes alone: every
        other lcm it makes is a multiple of it.  Any other row r gives
        lcm(r, x_i^e_i) for each i in V', one addition of e_i - r_i to
        field i and to the degree.  One ascending sweep over the sorted,
        deduplicated rows then keeps those no kept row divides, one
        guarded subtraction per test; a divisor sorts before its
        multiples.  A zero component leaves no rows, the zero ideal; no
        components leave the unit ideal.  Neither decomposition route is
        called, so the result checks both.
        """
        context = self.context
        codec = _PowersCodec(
            context.dimension,
            max((e for c in self.components for _, e in c.powers), default=0),
        )
        guards, shifts, field = codec.guards, codec.shifts, codec.field
        degree_shift = codec.fields_bits
        rows = [0]
        for c in self.components:
            steps = [(shifts[i], e) for i, e in c.powers]
            powers = sum(e << s for s, e in steps)
            in_support = sum(1 << s for s, _ in steps) << codec.bits
            candidates = set()
            for r in rows:
                if ((r | guards) - powers) & in_support:
                    candidates.add(r)
                    continue
                for s, e in steps:
                    gap = e - ((r >> s) & field)
                    candidates.add(r + (gap << s) + (gap << degree_shift))
            rows = []
            for m in sorted(candidates):
                mg = m | guards
                for k in rows:
                    if (mg - k) & guards == guards:
                        break
                else:
                    rows.append(m)
        return MonomialIdeal._of_antichain(
            context, [codec.unpack_row(r) for r in rows]
        )

    def support_sizes(self) -> tuple[int, ...]:
        return tuple(sorted({c.m_height for c in self.components}))

    def __len__(self) -> int:
        return len(self.components)


def split_decompose(
    ideal: MonomialIdeal, max_components: int = DEFAULT_COMPONENT_CAP
) -> Decomposition:
    """Irredundant m-irreducible decomposition by generator splitting.

    Works on the ideal's canonical generator rows alone, each packed into
    one int by :class:`_PowersCodec` with its degree above the exponent
    fields, so the ints sort in graded-lex order; every subproblem is
    memoized on its sorted tuple of packed rows.  At each node:

    - if every generator is a pure power, they form the one component;
    - if the generators fall into parts on pairwise disjoint variables
      (an independence split), each part is decomposed on its own and
      the components are the cartesian product of the parts' lists,
      which is irredundant as it stands;
    - otherwise the first generator that is not a pure power splits into
      its lowest-variable pure-power factor u and the cofactor v, and
      the decompositions of I + (u) and I + (v) are merged by
      :func:`_split_prune`: a component of I + (v) that contains u goes,
      a component of I + (u) that does not contain v stays, each by a
      test on u's or v's fields, and only the rest are compared.

    No generator divides u or v (it would divide the pivot), so adjoining
    either one drops its multiples and inserts it, a linear pass of one
    subtraction per row.  Each monomial's degree and support are computed
    once, when it enters: as an input row, or as a pivot's u or v.  The
    recursion runs on an explicit stack, so its depth is not bounded by
    Python's recursion limit.  Past ``max_components`` components at any
    split or product node, including while a product is being built,
    raises DecompositionLimitError.  The zero ideal decomposes as the
    single component P(empty); the unit ideal is refused, since an
    intersection of proper monomial ideals is never the whole ring.
    """
    if ideal.is_unit:
        raise ValueError("unit ideal has no irreducible decomposition")
    context = ideal.context
    codec = _PowersCodec(
        context.dimension, max((e for r in ideal.rows for e in r), default=0)
    )
    guards, field, degree_unit = codec.guards, codec.field, 1 << codec.fields_bits
    top_rows = tuple(codec.pack_row(r) for r in ideal.rows)
    support = {m: codec.support(m) for m in top_rows}

    def adjoin(rows, m):
        # a multiple of m sorts after it, so only the rows past its
        # insertion point can be dropped
        at = bisect.bisect(rows, m)
        kept = [r for r in rows[at:] if ((r | guards) - m) & guards != guards]
        return (*rows[:at], m, *kept)

    def over_cap():
        return DecompositionLimitError(
            f"decomposition exceeded {max_components} components"
        )

    memo: dict[tuple, tuple] = {}
    # a frame is (rows, None, None) until expanded, then (rows, children,
    # the pivot's (u, v) or None); every child pushed above a frame is
    # done by the time the frame is back on top
    stack = [(top_rows, None, None)]
    while stack:
        rows, children, factors = stack[-1]
        if rows in memo:
            stack.pop()
            continue
        if children is None:
            masks = [support[r] for r in rows]
            for pivot, s in zip(rows, masks):
                if s & (s - 1):
                    break
            else:
                # pure powers on distinct variables: field k of the
                # component is top - e_k on their support
                total = sum(rows) & (degree_unit - 1)
                memo[rows] = (codec.top * sum(masks) - total,)
                stack.pop()
                continue
            parts = _independent_parts(masks)
            if len(parts) > 1:
                children = [
                    tuple(r for r, m in zip(rows, masks) if m & part)
                    for part in parts
                ]
                stack[-1] = (rows, children, None)
            else:
                # u = x_i^e on the pivot's highest field, the lowest
                # variable; its degree e goes above the fields
                unit = 1 << (s.bit_length() - 1)
                u = pivot & (field * unit)
                u += u // unit * degree_unit
                v = pivot - u
                support[u] = unit
                support[v] = s - unit
                children = [adjoin(rows, u), adjoin(rows, v)]
                stack[-1] = (rows, children, (u, v))
            stack.extend((c, None, None) for c in children if c not in memo)
            continue
        if factors is None:
            comps = (0,)
            for child in children:
                sub = memo[child]
                if len(comps) * len(sub) > max_components:
                    raise over_cap()
                # disjoint variables: adding packed fields merges them
                comps = tuple(a + b for a in comps for b in sub)
        else:
            left, right = memo[children[0]], memo[children[1]]
            comps = _split_prune(left, right, *factors, codec)
            if len(comps) > max_components:
                raise over_cap()
        memo[rows] = comps
        stack.pop()

    components = tuple(
        IrreducibleComponent(context, codec.unpack(p)) for p in memo[top_rows]
    )
    return Decomposition(context, components)


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
    """Monomials and components packed into ints, one bit field per variable.

    Variable 0 takes the highest field, so packed monomials compare as
    their exponent tuples do.  ``pack_row`` puts the degree above all the
    fields, so packed rows compare as their (degree, exponents) keys:
    graded-lex order.  Each field has a guard bit above it, so
    ``((a | G) - b) & G == G`` holds exactly when every field of a is at
    least b's: no field borrows from the next, and the degree above the
    fields does not touch the bits below it.  For monomials that is b
    divides a.  A component P(V', d') fills field i with M - d'(i) on V',
    where M exceeds every exponent, and leaves the others 0; then the
    same test on components is ``_powers_leq(b, a)``, and fields on
    disjoint variables add without carries.  ``support`` marks each
    nonzero field by the lowest bit of the field.
    """

    def __init__(self, dimension, max_exponent):
        self.top = max_exponent + 1
        self.bits = self.top.bit_length()
        self.width = self.bits + 1
        self.field = (1 << self.bits) - 1
        self.shifts = tuple((dimension - 1 - k) * self.width for k in range(dimension))
        self.fields_bits = dimension * self.width
        self.units = sum(1 << s for s in self.shifts)
        self.guards = self.units << self.bits

    def pack_row(self, row) -> int:
        fields = sum(e << s for e, s in zip(row, self.shifts))
        return (sum(row) << self.fields_bits) | fields

    def unpack_row(self, packed) -> tuple[int, ...]:
        field = self.field
        return tuple((packed >> s) & field for s in self.shifts)

    def support(self, packed) -> int:
        guards = self.guards
        return (((packed | guards) - self.units) & guards) >> self.bits

    def unpack(self, packed) -> tuple[tuple[int, int], ...]:
        top, width, field = self.top, self.width, self.field
        powers = []
        i = len(self.shifts)
        while packed:
            i -= 1
            f = packed & field
            if f:
                powers.append((i, top - f))
            packed >>= width
        powers.reverse()
        return tuple(powers)


def _split_prune(left, right, u, v, codec):
    """Minimal components of a split f = u*v, u a pure power, u and v coprime.

    ``left`` and ``right`` are the packed irredundant decompositions of
    I + (u) and I + (v), and u and v packed monomials.  A right component
    that contains u contains I + (u), so it lies above a left one (or is
    one) and goes, with one field test.  A left component that does not
    contain v contains no right one, so it stays.  Only the left
    components that contain v are compared, and only against the right
    components that stayed; those never lie above a left one, as they do
    not contain u.  A component contains a packed monomial m when some
    field on m's support is at least M minus m's exponent there, one
    guarded subtraction.
    """
    guards, bits = codec.guards, codec.bits
    low = (1 << codec.fields_bits) - 1
    u, v = u & low, v & low
    su, sv = codec.support(u), codec.support(v)
    tu, gu = codec.top * su - u, su << bits
    tv, gv = codec.top * sv - v, sv << bits
    kept_right = [b for b in right if not ((b | guards) - tu) & gu]
    kept = []
    for a in left:
        ag = a | guards
        if (ag - tv) & gv and any((ag - b) & guards == guards for b in kept_right):
            continue
        kept.append(a)
    kept += kept_right
    return tuple(kept)


def is_m_unmixed_ideal(ideal: MonomialIdeal) -> bool:
    """All components of the irredundant decomposition have equal support size."""
    if ideal.is_unit:
        raise ValueError("unit ideal has no irreducible decomposition")
    return len(split_decompose(ideal).support_sizes()) == 1
