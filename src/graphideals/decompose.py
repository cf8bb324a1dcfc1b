"""Irredundant decompositions of monomial ideals into irreducible parts.

An ideal generated by pure powers of distinct variables is m-irreducible.
:func:`split_decompose` writes any monomial ideal as a finite intersection
of such ideals by splitting it on one variable c at all of c's exponents
at once, the label split of Roune's slice algorithm (J. Symbolic Comput.
44, 2009).  A component holding x_c^a, and no lower power of c, contains
I exactly when its other powers contain the ideal J_a of the cofactors m
of the generators x_c^b * m with b < a.  The J_a grow with a, and a
component of one J_a gives a redundant component of I exactly when it is
a component of the next J_a as well, so pruning is an equality test
(cf. E. Miller & B. Sturmfels, Combinatorial Commutative Algebra, 2005,
ch. 5).  After the slice algorithm too, a lone pure power, one on a
variable that no mixed generator raises, is peeled off as a fixed factor
of every component, and generators on pairwise disjoint sets of variables
are decomposed apart and their components combined, an independence split
between parts that each hold a mixed generator.  A star node, whose mixed
generators all join one hub variable to distinct other variables, is a
base case with a closed-form decomposition.  Containment between
irreducible components reduces to a support/exponent comparison
(``kernels.powers_leq``): an intersection of m-irreducible ideals inside
an m-irreducible ideal forces one factor inside it (lcm argument), so
irredundant lists are unique and route-independent.  Generators and
components are packed into one integer each, so that divisibility is one
subtraction (packed-vector divisibility after Bachmann & Schönemann,
ISSAC 1998) and equal components are equal ints.
"""

from __future__ import annotations

from . import kernels
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

    A value is checked once, where it enters: this constructor checks and
    sorts pairs from outside the library and verify's candidate covers.
    Every component the library builds (the covers route,
    ``minimize_cover``, the CLI's ``--cover``) goes through
    :meth:`_of_powers`, and the split route's decode
    (:meth:`_PowersCodec.decode`) makes the same two field stores.
    """

    _fields = ("context", "powers")

    def __init__(self, context: VariableContext, powers: tuple[tuple[int, int], ...]):
        try:
            powers = tuple(powers)
        except TypeError:
            raise ValueError(
                f"component powers must be a sequence of pairs, got {powers!r}"
            ) from None
        pairs = []
        for pair in powers:
            try:
                i, e = pair
            except (TypeError, ValueError):
                raise ValueError(
                    f"a component power must be an (index, exponent) pair, got {pair!r}"
                ) from None
            if (
                isinstance(i, bool)
                or isinstance(e, bool)
                or not isinstance(i, int)
                or not isinstance(e, int)
            ):
                raise ValueError("component indices and exponents must be ints")
            if e < 1:
                raise ValueError("component exponents must be at least 1")
            pairs.append((i, e))
        powers = tuple(sorted(pairs))
        for (i, _), (j, _) in zip(powers, powers[1:]):
            if i == j:
                raise ValueError("component variables must be distinct")
        # sorted and distinct: the end indices bound all the others
        for i in (powers[0][0], powers[-1][0]) if powers else ():
            if not 0 <= i < context.dimension:
                raise ValueError(f"variable index {i} out of range")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "powers", powers)

    @classmethod
    def _of_powers(cls, context: VariableContext, powers) -> "IrreducibleComponent":
        """Trusted: sorted int pairs, distinct indices in range, exponents >= 1."""
        component = object.__new__(cls)
        object.__setattr__(component, "context", context)
        object.__setattr__(component, "powers", powers)
        return component

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.powers)

    @property
    def m_height(self) -> int:
        return len(self.powers)

    def powers_dict(self) -> dict[int, int]:
        return dict(self.powers)

    def ideal(self) -> MonomialIdeal:
        # pure powers of distinct variables: an antichain as they stand, in
        # graded-lex order by ascending exponent, then falling index
        d = self.context.dimension
        masked = []
        for i, e in sorted(self.powers, key=lambda p: (p[1], -p[0])):
            row = [0] * d
            row[i] = e
            masked.append((1 << i, tuple(row)))
        return MonomialIdeal._of_masked(self.context, masked)

    def contains(self, other: "IrreducibleComponent") -> bool:
        """other's ideal is contained in this one.

        P(V'', d'') lies inside P(V', d') exactly when V'' is a subset of
        V' and d'(v) <= d''(v) for every v in V'': smaller components carry
        larger exponents.
        """
        _same_context(self, other)
        return kernels.powers_leq(other.powers, self.powers)

    def __str__(self) -> str:
        if not self.powers:
            return "(0)"
        names = self.context.names
        parts = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in self.powers]
        return "(" + ", ".join(parts) + ")"


class Decomposition(FrozenRecord):
    """A list of irreducible components in canonical order.

    Both routes build it irredundant.
    """

    _fields = ("context", "components")

    def __init__(
        self, context: VariableContext, components: tuple[IrreducibleComponent, ...]
    ):
        try:
            components = tuple(components)
        except TypeError:
            raise ValueError(
                f"components must be a sequence of components, got {components!r}"
            ) from None
        object.__setattr__(self, "context", context)
        for c in components:
            if not isinstance(c, IrreducibleComponent):
                raise ValueError(f"not an irreducible component: {c!r}")
            _same_context(c, self)
        ordered = tuple(sorted(components, key=lambda c: c.powers))
        object.__setattr__(self, "components", ordered)

    @classmethod
    def _of_sorted(cls, context: VariableContext, components) -> "Decomposition":
        """Trusted: a tuple of components on ``context``, in canonical order."""
        decomposition = object.__new__(cls)
        object.__setattr__(decomposition, "context", context)
        object.__setattr__(decomposition, "components", components)
        return decomposition

    def intersection(self) -> MonomialIdeal:
        """Intersect all components; recovers the decomposed ideal.

        Folds the components, in reverse canonical order, into the
        (support mask, row) pairs of their intersection, starting from the
        unit ideal's row 1.  Any order gives the same rows, but on the 6602
        components of C20 (weights 1 + i % 3) the reverse one held at
        most 32 rows in between against 240 in forward order, and took
        about a third of the time.  Against P = (x_i^e_i : i in V'), a row
        r with some r_i >= e_i on V' lies in P and passes alone: every other
        lcm it makes is a multiple of it.  Any other r gives, for each i in
        V', r with r_i raised to e_i and bit i set in its mask; then one
        ``kernels.sweep`` keeps the minimal rows.  A zero component leaves
        the zero ideal, no components the unit ideal.  Neither route is
        called, so the result checks both.
        """
        context = self.context
        rows = [(0, (0,) * context.dimension)]
        for c in reversed(self.components):
            powers = c.powers
            candidates = []
            for mask, r in rows:
                for i, e in powers:
                    if r[i] >= e:
                        candidates.append((mask, r))
                        break
                else:
                    for i, e in powers:
                        candidates.append((mask | 1 << i, r[:i] + (e,) + r[i + 1 :]))
            rows = kernels.sweep(candidates)
        return MonomialIdeal._of_masked(context, rows)

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
    memoized on its sorted tuple of packed rows.  The rows enter packed
    from their support masks (:func:`_pack_masked`), so the entry costs
    O(support) per generator, not O(dimension).  Before a subproblem is
    looked up, its lone pure powers x_i^e (no mixed row raises x_i) are
    peeled off: each is a fixed factor of every component, so the fields
    of them all form one packed offset that the parent adds to each of the
    subproblem's components.  Rows left empty are the zero ideal, the one
    component P(empty).  Otherwise some mixed row is left, and at the node:

    - if every mixed row is x_c^a_k * y_k^b_k, through one hub c to
      distinct y_k, it is a star node (the peel leaves only pure powers
      x_c^p and y_k^q_k, p above every a_k and q_k above b_k), decomposed
      in closed form: one component
      P_a = (x_c^a) + (y_k^b_k : a_k < a) + (y_k^q_k : a_k >= a) for each
      distinct a_k, and P_inf = (x_c^p) + (y_k^b_k : every k), each pure
      power only where that row exists.  None contains another: for
      a < a' (a' possibly inf), y_k^b_k with a_k = a lies in P_a' and not
      in P_a, and x_c^a lies in P_a and not in P_a';
    - if the generators fall into parts on pairwise disjoint variables
      (an independence split), each part holds a mixed row and is
      decomposed on its own, and the components are the cartesian
      product of the parts' lists, which is irredundant as it stands;
    - otherwise it is a variable split on a variable c that the most
      mixed rows raise: the lowest such variable of the first mixed row,
      in row order, that raises one.  Write each row that raises c as
      x_c^a_k * m_k.  The levels are the distinct a_k of the mixed rows
      and a top level: the cap p if x_c^p is a row, inf otherwise.  An
      ideal Q = (x_c^a) + P, with P free of c, contains I exactly when P
      contains the child J_a = (rows without c) + (m_k : a_k < a), and
      Q = P (a = inf) exactly when P contains every m_k.  J_a is the
      same between two levels, where a higher a makes Q smaller, and is
      the unit ideal past p, so each component of I is a candidate
      x_c^a + P, a a level and P a component of J_a.  A candidate is a
      component exactly when P is not a component of the next level's
      child J_b too.  Proof: another candidate Q' = x_c^a' + P' lies
      inside Q only if a' >= a and P' lies inside P.  At a' = a, P' = P,
      as J_a's list is irredundant.  At a' > a, P contains P', hence
      J_a', hence J_b; P is minimal over J_a, which J_b contains, so P
      is a component of J_b.  Conversely, if it is, x_c^b + P contains
      I and lies strictly inside Q.  So the node keeps x_c^a + P for P
      in J_a's list and not in J_b's, a set lookup of packed ints, and
      no kept candidate lies inside another.

    The children J_a1, ..., J_top form a chain, each the one below plus
    one level's m_k.  No row of the one below divides such an m_k (it
    would divide x_c^a_k * m_k), so adjoining the m_k drops their
    multiples and inserts them, and the peel needs the supports of the
    rows left: one pass of :func:`child` builds each child from the one
    below.  A pure m_k = x_i^e divides a row exactly when the row's
    field i is at least e, so the pure m_k are indexed by variable and
    a row tests only those on its own support; the mixed m_k are tested
    by guarded subtraction, and only against rows whose support meets
    theirs.  Every cofactor of an edge ideal is pure, so a hub split of
    K_{2,n} costs O(1) tests per row and level, not O(n).  Each
    monomial's degree and support are computed once, when it enters: as
    an input row, or as a cofactor m_k; the peel and the nodes read the
    supports from that table.  A child is decided where it is built
    when it is a star, and memoized at once; only the other children
    are pushed as frames, with the support masks already read, and only
    they look for an independence split.  The recursion runs on that
    explicit stack, so its depth is not bounded by Python's recursion
    limit.  The top node's list is irredundant, so sorting its packed
    ints descending puts it in canonical order (the argument is in
    :class:`_PowersCodec`); then one pass of :meth:`_PowersCodec.decode`
    reads each component, whole chunks of fields through the codec's
    table, and builds it, and no tuple keys are compared.  Past
    ``max_components`` components at any star, variable split or product
    node, including while a split's levels or a product are being
    combined, raises DecompositionLimitError.  The zero ideal decomposes
    as the single component P(empty); the unit ideal is refused, since an
    intersection of proper monomial ideals is never the whole ring.
    """
    if ideal.is_unit:
        raise ValueError("unit ideal has no irreducible decomposition")
    context = ideal.context
    codec, support = _pack_masked(context.dimension, ideal._masked_rows)
    guards, field, degree_unit = codec.guards, codec.field, 1 << codec.fields_bits
    fields = degree_unit - 1
    top_rows = tuple(support)

    def child(rows, new):
        # adjoin the rows of new, none of which a row of rows divides, and
        # drop their multiples; the same pass ORs the supports of the
        # mixed and of the pure rows for the peel: a pure power on a
        # variable no mixed row raises is a factor of every component,
        # field k of the offset top - e_k on its support.  The rows before
        # the peel are the next child's base.  A row of new can divide a
        # row only when its support lies inside the row's, so the pure
        # rows of new are indexed by their one support bit: a row tests
        # only the pure rows on its own support, and all of new only if
        # its support meets a mixed row's
        pures, pure_reach, mixed_reach = {}, 0, 0
        for m in new:
            s = support[m]
            if s & (s - 1):
                mixed_reach |= s
            else:
                pure_reach |= s
                pures[s] = m
        mixed, pure, reach = mixed_reach, pure_reach, mixed_reach | pure_reach
        kept = []
        for r in rows:
            s = support[r]
            if s & reach:
                rg = r | guards
                hits = s & pure_reach
                while hits:
                    b = hits & -hits
                    if (rg - pures[b]) & guards == guards:
                        break
                    hits ^= b
                if hits:
                    continue
                if s & mixed_reach and any((rg - m) & guards == guards for m in new):
                    continue
            kept.append(r)
            if s & (s - 1):
                mixed |= s
            else:
                pure |= s
        if new:
            kept += new
            kept.sort()
        lone = pure & ~mixed
        if not lone:
            return kept, tuple(kept), 0
        rest = tuple([r for r in kept if support[r] & mixed])
        return kept, rest, codec.top * lone - ((sum(kept) - sum(rest)) & fields)

    def star(rows, masks):
        # the closed form of a star node, or None: every mixed row is
        # x_c^a_k * y_k^b_k through one hub c, the y_k distinct: the mixed
        # rows raise one variable each besides c
        hub, spokes, count = -1, 0, 1
        for s in masks:
            t = s & (s - 1)
            if t:
                hub &= s
                if not hub or t & (t - 1):
                    return None
                spokes |= s
                count += 1
        if spokes.bit_count() != count:
            return None
        # one mixed row shares both its variables: either is a hub
        shift = hub.bit_length() - 1
        hub, top = 1 << shift, codec.top
        leaves = fields - (field << shift)
        pure = {s: r & fields for r, s in zip(rows, masks) if not s & (s - 1)}
        cap = pure.pop(hub, 0)
        # P_a = (x_c^a) + (y_k^b_k : a_k < a) + (y_k^q_k : a_k >= a), one
        # for each distinct a_k, in ascending a_k: past a, the rows with
        # a_k = a swap their y_k^q_k fields (or nothing) for y_k^b_k
        running = sum(top * s - q for s, q in pure.items())
        steps = {}
        for r, s in zip(rows, masks):
            if s & (s - 1):
                a = (r >> shift) & field
                y = s - hub
                steps[a] = steps.get(a, 0) + pure.get(y, top * y) - (r & leaves)
        comps = []
        for a in sorted(steps):
            comps.append(running + ((top - a) << shift))
            running += steps[a]
        # P_inf: x_c^p if that row exists, and every y_k^b_k
        comps.append(running + (top * hub - cap if cap else 0))
        return tuple(comps)

    def levels(rows, masks):
        # the children J_a of the variable split, bottom level first, as
        # (rows, peel, lift) triples: the peeled rows, their peeled
        # offset, and x_c^a's field top - a (0 at the level inf).  The
        # count of mixed rows that raise each variable is kept in binary:
        # plane k holds bit k of every count, and adding a row ripples
        # its support up the planes as a carry
        planes, raised = [0] * len(masks).bit_length(), 0
        for s in masks:
            if s & (s - 1):
                raised |= s
                k = 0
                while s:
                    p = planes[k]
                    planes[k] = p ^ s
                    s &= p
                    k += 1
        # the highest count left in raised, plane by plane from the top
        for p in reversed(planes):
            if raised & p:
                raised &= p
        # the first mixed row that raises such a variable, and of those
        # it raises the lowest one, in the highest field
        hit = next(s & raised for s in masks if s & raised and s & (s - 1))
        shift = hit.bit_length() - 1
        bit = 1 << shift
        base, cofactors, cap = [], {}, 0
        for r, s in zip(rows, masks):
            if not s & bit:
                base.append(r)
            elif s == bit:
                cap = r & fields
            else:
                a = (r >> shift) & field
                m = r - (a << shift) - a * degree_unit
                support[m] = s - bit
                level = cofactors.get(a)
                if level is None:
                    cofactors[a] = [m]
                else:
                    level.append(m)
        top = codec.top << shift
        children, new = [], ()
        for a in sorted(cofactors):
            base, c, peel = child(base, new)
            children.append((c, peel, top - (a << shift)))
            new = cofactors[a]
        _, c, peel = child(base, new)
        children.append((c, peel, top - cap if cap else 0))
        return children

    def over_cap():
        return DecompositionLimitError(
            f"decomposition exceeded {max_components} components"
        )

    memo: dict[tuple, tuple] = {(): (0,)}
    # a frame is (rows, masks, None) until expanded, then (rows, children,
    # split): a product's children are rows, a variable split's are level
    # triples, bottom level first; every child pushed above a frame is
    # done by the time the frame is back on top.  Peeled rows hold a
    # mixed row unless they are empty.
    stack = []

    def enter(rows):
        # a node not in the memo: a star is decided, and memoized, where
        # it is built; any other node is pushed with its masks
        masks = list(map(support.__getitem__, rows))
        comps = star(rows, masks)
        if comps is None:
            stack.append((rows, masks, None))
        elif len(comps) > max_components:
            raise over_cap()
        else:
            memo[rows] = comps

    # adjoining every row to none drops none of them: a peel
    _, top_rows, offset = child((), top_rows)
    if top_rows not in memo:
        enter(top_rows)
    while stack:
        rows, children, split = stack[-1]
        if split is None:
            if rows in memo:
                # a child pushed twice, done by its other frame
                stack.pop()
                continue
            # a pure power left here shares its variable with a mixed row
            masks = children
            parts = _independent_parts(masks)
            if len(parts) > 1:
                children = [
                    tuple(r for r, m in zip(rows, masks) if m & part) for part in parts
                ]
                stack[-1] = (rows, children, False)
                for c in children:
                    if c not in memo:
                        enter(c)
            else:
                children = levels(rows, masks)
                stack[-1] = (rows, children, True)
                for c, _, _ in children:
                    if c not in memo:
                        enter(c)
            continue
        if split:
            # top level down: x_c^a + P stays unless P is a component of
            # the level above too, there p + peel - (that level's peel)
            comps, above = [], None
            for c, peel, lift in reversed(children):
                sub = memo[c]
                lift += peel
                if above is None:
                    comps += map(lift.__add__, sub)
                else:
                    above, delta = set(above), peel - above_peel
                    comps += [p + lift for p in sub if p + delta not in above]
                if len(comps) > max_components:
                    raise over_cap()
                above, above_peel = sub, peel
            comps = tuple(comps)
        else:
            comps = (0,)
            for c in children:
                sub = memo[c]
                if len(comps) * len(sub) > max_components:
                    raise over_cap()
                # disjoint variables: adding packed fields merges them
                comps = tuple([a + b for a in comps for b in sub])
        memo[rows] = comps
        stack.pop()

    # the list is irredundant, so descending packed order is canonical
    # order (see _PowersCodec); adding the peeled offset keeps the order
    components = codec.decode(context, sorted(memo[top_rows], reverse=True), offset)
    return Decomposition._of_sorted(context, components)


def _pack_masked(dimension, masked_rows):
    """The codec of (support mask, row) pairs, and a dict from each row,
    packed with its degree above the fields, to its packed support (the
    lowest bit of each nonzero field), in row order.

    Only the exponents at each mask's set bits are read, in one pass that
    also finds the largest exponent, which sizes the fields; the packing
    reuses the pairs it read: O(support) per row, whatever the dimension.
    """
    sparse, top = [], 0
    for mask, row in masked_rows:
        powers = []
        while mask:
            i = mask.bit_length() - 1
            mask ^= 1 << i
            e = row[i]
            if e > top:
                top = e
            powers.append((i, e))
        sparse.append(powers)
    codec = _PowersCodec(dimension, top)
    shifts, degree_shift = codec.shifts, codec.fields_bits
    packed = {}
    for powers in sparse:
        degree = fields = units = 0
        for i, e in powers:
            s = shifts[i]
            degree += e
            fields |= e << s
            units |= 1 << s
        packed[(degree << degree_shift) | fields] = units
    return codec, packed


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
    their exponent tuples do.  A packed row (:func:`_pack_masked`) carries
    its degree above all the fields, so packed rows compare as their
    (degree, exponents) keys: graded-lex order.  Each field has a guard
    bit above it, so ``((a | G) - b) & G == G`` holds exactly when every
    field of a is at least b's: no field borrows from the next, and the
    degree above the fields does not touch the bits below it.  For
    monomials that is b divides a.  A component P(V', d') fills field i
    with M - d'(i) on V', where M exceeds every exponent, and leaves the
    others 0; then the same test on components is
    ``kernels.powers_leq(b, a)``, and fields on disjoint variables add
    without carries.

    Packed components sort descending in canonical ``powers`` order when
    no one of them contains another.  At the first variable where two
    differ, a present field (M - e >= 1) lies above an absent one (0),
    and a larger field is a smaller exponent, just as the pair tuples
    compare.  The orders part only when one component's pairs are a
    prefix of the other's, and then the longer one contains the shorter.

    The shifts run down from variable 0's field by one width each, and
    the guards, one bit above each field, are the closed form
    ``(2^(d*w) - 1) / (2^w - 1)`` (a 1 at the bottom of every field)
    shifted up by the field's bits, so setting a codec up costs O(1)
    whatever the dimension d.

    :meth:`decode` reads components in chunks of whole fields, about 24
    bits each (one field when a field is wider), from variable 0's down.
    A chunk's pairs come from a table kept per codec, filled on a miss,
    so the components of one decomposition, which share most of their
    chunks, decode each distinct chunk once.
    """

    def __init__(self, dimension, max_exponent):
        self.top = max_exponent + 1
        self.bits = self.top.bit_length()
        width = self.width = self.bits + 1
        self.field = (1 << self.bits) - 1
        self.fields_bits = dimension * width
        self.shifts = range(self.fields_bits - width, -1, -width)
        self.guards = ((1 << self.fields_bits) - 1) // ((1 << width) - 1) << self.bits
        step = self.chunk_bits = max(1, 24 // width) * width
        # chunks start at bit 0, so the one holding variable 0 may be short
        self.top_chunk = ((1 << step) - 1) << (self.fields_bits - 1) // step * step
        self.chunks = {}

    def decode(self, context, packed, offset) -> tuple[IrreducibleComponent, ...]:
        """The components on ``context`` of the packed ints of ``packed``,
        each plus ``offset``, in the same order.

        One pass: each int is read chunk by chunk through the table, and
        its component is built in place, as ``_of_powers`` builds one.
        """
        chunks, step, mask, masks = self.chunks, self.chunk_bits, self.top_chunk, []
        while mask:
            masks.append(mask)
            mask >>= step
        top, width, last = self.top, self.width, len(self.shifts) - 1
        new, store, cls = object.__new__, object.__setattr__, IrreducibleComponent
        components = []
        for p in packed:
            p += offset
            powers = ()
            for mask in masks:
                chunk = p & mask
                if chunk:
                    pairs = chunks.get(chunk)
                    if pairs is None:
                        # a miss: read the chunk's highest nonzero field k
                        # from the bottom, variable last - k, and clear it
                        pairs, rest = [], chunk
                        while rest:
                            k = (rest.bit_length() - 1) // width
                            f = rest >> k * width
                            rest -= f << k * width
                            pairs.append((last - k, top - f))
                        pairs = chunks[chunk] = tuple(pairs)
                    powers += pairs
            component = new(cls)
            store(component, "context", context)
            store(component, "powers", powers)
            components.append(component)
        return tuple(components)


def is_m_unmixed_ideal(ideal: MonomialIdeal) -> bool:
    """All components of the irredundant decomposition have equal support size."""
    if ideal.is_unit:
        raise ValueError("unit ideal has no irreducible decomposition")
    return len(split_decompose(ideal).support_sizes()) == 1
