"""Monomials and monomial ideals over a fixed list of variables.

A :class:`VariableContext` fixes the ambient polynomial ring: an ordered
tuple of distinct variable names (coefficients never enter any computation
here, so no base ring is represented).  A :class:`Monomial` is a dense
exponent vector over one context, and a :class:`MonomialIdeal` stores the
exponent rows of its unique minimal generating set in graded-lexicographic
order; construction canonicalizes, so structural equality is ideal equality.
Construction also keeps each row's support mask (``kernels.support_mask``)
in a private attribute; :func:`member` and :func:`ideal_leq` test masks
before exponents, since a divisor's support lies inside its multiple's.

Conventions: the zero ideal is the empty generator list, the unit ideal is
generated by the monomial 1 (the zero row).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from . import kernels
from ._records import FrozenRecord


class ContextMismatchError(ValueError):
    """Operands live over different variable contexts."""


def _same_context(a, b):
    if a.context is not b.context and a.context != b.context:
        raise ContextMismatchError(
            f"operands use different variable contexts: {a.context.names} vs {b.context.names}"
        )


def _exponent_row(exps, dimension: int) -> tuple[int, ...]:
    """exps as a tuple, checked to be ``dimension`` nonnegative ints."""
    try:
        row = tuple(exps)
    except TypeError:
        raise ValueError(f"an exponent row must be a sequence, got {exps!r}") from None
    if len(row) != dimension:
        raise ValueError(f"expected {dimension} exponents, got {len(row)}")
    for e in row:
        if isinstance(e, bool) or not isinstance(e, int) or e < 0:
            raise ValueError("exponents must be nonnegative integers")
    return row


class VariableContext(FrozenRecord):
    """An ordered tuple of distinct variable names."""

    _fields = ("names",)

    def __init__(self, names: tuple[str, ...]):
        try:
            names = tuple(names)
        except TypeError:
            raise ValueError("variable names must be a sequence") from None
        object.__setattr__(self, "names", names)
        if len(names) < 1:
            raise ValueError("a context needs at least one variable")
        # types first: an unhashable name would break the distinctness test
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError("variable names must be nonempty strings")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")

    @classmethod
    def of_dimension(cls, dimension: int) -> "VariableContext":
        """Context with the default names X1 .. XN."""
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        return cls(tuple(f"X{i + 1}" for i in range(dimension)))

    @property
    def dimension(self) -> int:
        return len(self.names)

    def monomial(self, exponents: Iterable[int]) -> "Monomial":
        return Monomial(self, tuple(exponents))

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * self.dimension)


class Monomial(FrozenRecord):
    """A dense exponent vector over a context."""

    _fields = ("context", "exponents")

    def __init__(self, context: VariableContext, exponents: tuple[int, ...]):
        exponents = _exponent_row(exponents, context.dimension)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "exponents", exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_one(self) -> bool:
        return not any(self.exponents)

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = []
        for name, e in zip(self.context.names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


class MonomialIdeal(FrozenRecord):
    """A monomial ideal held as its canonical minimal generator rows.

    Any exponent rows may be passed in; construction validates each one,
    deduplicates, removes divisible rows and sorts graded-lexicographically.
    The zero ideal has no rows, the unit ideal exactly the zero row.
    Rows the library builds as an antichain by construction (edge ideals,
    component ideals, intersections, bracket powers) go through
    :meth:`_of_antichain` instead, which skips the validation and the
    sweep and only sorts.
    """

    _fields = ("context", "rows")

    def __init__(self, context: VariableContext, rows: tuple[tuple[int, ...], ...]):
        d = context.dimension
        try:
            checked = [_exponent_row(r, d) for r in rows]
        except TypeError:
            raise ValueError(
                f"ideal rows must be a sequence of exponent rows, got {rows!r}"
            ) from None
        object.__setattr__(self, "context", context)
        self._set_rows(kernels.minimalize(checked))

    @classmethod
    def _of_antichain(cls, context: VariableContext, rows) -> "MonomialIdeal":
        """The ideal of rows that library code built as an antichain.

        The caller guarantees that each row is a tuple of
        ``context.dimension`` nonnegative ints and that no row divides
        another (so no two are equal).  The rows are only sorted
        graded-lexicographically: no validation, no sweep.
        """
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "context", context)
        ideal._set_rows(sorted(rows, key=kernels.grlex_key))
        return ideal

    def _set_rows(self, rows) -> None:
        rows = tuple(rows)
        object.__setattr__(self, "rows", rows)
        # not a field: equality, hashing and repr see only (context, rows)
        masks = map(kernels.support_mask, rows)
        object.__setattr__(self, "_masked_rows", tuple(zip(masks, rows)))

    @classmethod
    def zero(cls, context: VariableContext) -> "MonomialIdeal":
        return cls(context, ())

    @classmethod
    def unit(cls, context: VariableContext) -> "MonomialIdeal":
        return cls(context, ((0,) * context.dimension,))

    @property
    def generators(self) -> tuple[Monomial, ...]:
        """The minimal generators as monomials, built on each access."""
        return tuple(Monomial(self.context, r) for r in self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_unit(self) -> bool:
        return len(self.rows) == 1 and not any(self.rows[0])

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def divides(m: Monomial, n: Monomial) -> bool:
    """True when m divides n (componentwise on exponents)."""
    _same_context(m, n)
    return kernels.divides(m.exponents, n.exponents)


def _all_divided(ideal: MonomialIdeal, masked_rows) -> bool:
    """Every row has a divisor among the ideal's generators.

    Rows come as (support mask, row) pairs.  A divisor's mask lies inside
    its multiple's, so only generators passing that int test are compared
    exponent by exponent.
    """
    gens = ideal._masked_rows
    for mask, row in masked_rows:
        outside = ~mask
        for t, g in gens:
            if not t & outside and kernels.divides(g, row):
                break
        else:
            return False
    return True


def member(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Ideal membership: some generator divides m.

    The zero ideal contains no monomials (every monomial is nonzero).
    """
    _same_context(ideal, m)
    row = m.exponents
    return _all_divided(ideal, ((kernels.support_mask(row), row),))


def ideal_leq(smaller: MonomialIdeal, larger: MonomialIdeal) -> bool:
    """Containment smaller <= larger, decided on generators."""
    _same_context(smaller, larger)
    return _all_divided(larger, smaller._masked_rows)


def ideal_eq(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Equality of ideals; canonical forms make this structural."""
    _same_context(a, b)
    return a.rows == b.rows


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection, generated by pairwise lcms of the generators."""
    _same_context(a, b)
    return MonomialIdeal(a.context, kernels.intersect_rows(a.rows, b.rows))


def m_radical(ideal: MonomialIdeal) -> MonomialIdeal:
    """Monomial radical: flatten every positive exponent to 1."""
    rows = [tuple(1 if e > 0 else 0 for e in r) for r in ideal.rows]
    return MonomialIdeal(ideal.context, rows)


def bracket_power(ideal: MonomialIdeal, a: int) -> MonomialIdeal:
    """The power that multiplies every generator exponent by a."""
    if isinstance(a, bool) or not isinstance(a, int) or a < 1:
        raise ValueError("bracket power exponent must be a positive integer")
    # scaling by a >= 1 keeps divisibility, the order and the supports
    rows = [tuple(e * a for e in r) for r in ideal.rows]
    return MonomialIdeal._of_antichain(ideal.context, rows)


def polarize(
    ideal: MonomialIdeal,
) -> tuple[VariableContext, MonomialIdeal, dict[int, int]]:
    """Replace each power x**e by a product of e fresh squarefree variables.

    Returns (new context, squarefree ideal, substitution map).  The fresh
    variable for copy j of variable i is named ``{names[i]}_{j}`` with j
    starting at 1, and the substitution map sends each new variable index
    back to i, so :func:`depolarize` recovers the input exactly.  The zero
    and unit ideals are fixed points with an empty substitution map.
    """
    if ideal.is_zero or ideal.is_unit:
        return ideal.context, ideal, {}
    rows = ideal.rows
    dim = ideal.context.dimension
    copies = [max(r[i] for r in rows) for i in range(dim)]
    names: list[str] = []
    origin: dict[int, int] = {}
    offset = {}
    for i in range(dim):
        offset[i] = len(names)
        for j in range(copies[i]):
            origin[len(names)] = i
            names.append(f"{ideal.context.names[i]}_{j + 1}")
    polar_context = VariableContext(tuple(names))
    polar_rows = []
    for r in rows:
        vec = [0] * len(names)
        for i, e in enumerate(r):
            for j in range(e):
                vec[offset[i] + j] = 1
        polar_rows.append(tuple(vec))
    return polar_context, MonomialIdeal(polar_context, polar_rows), origin


def depolarize(
    polar_ideal: MonomialIdeal,
    origin: Mapping[int, int],
    context: VariableContext,
) -> MonomialIdeal:
    """Undo :func:`polarize` by collapsing the fresh variables again."""
    rows = []
    for r in polar_ideal.rows:
        vec = [0] * context.dimension
        for j, e in enumerate(r):
            if e:
                vec[origin[j]] += e
        rows.append(tuple(vec))
    return MonomialIdeal(context, rows)
