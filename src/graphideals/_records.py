"""Equality, hashing and repr shared by the package's value classes.

A value class lists its field names in ``_fields`` and writes only its
own ``__init__``.  Two instances are equal when they are of exactly the
same class and their field tuples are equal; a frozen class hashes as
that tuple, and a mutable one is unhashable.  The ``repr`` has the form
``Cls(field=value, ...)``, and a frozen class raises ``AttributeError``
on assignment or deletion; it stores its fields with
``object.__setattr__`` in ``__init__``, since writing to
``self.__dict__`` instead would be quicker there but would slow every
later attribute read.

None of this is hot.  One pass of perfbench's verify-corpus (240
graphs of 3-6 vertices, seed 7, through ``verify.run_suite``) calls
``__eq__`` 3,886 times, all on components, and one pass of
decompose-scaling makes no call inside the library.  Neither hashes a
value.  The context checks (8,226 a verify pass) meet the one
cached context of their dimension, so ``monomials._same_context`` and
``graphs.is_weighted_cover`` test identity before calling ``__eq__``,
which also tests it first.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A value class compared, and shown, by its ``_fields`` in order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        # read only through the class: an instance would bind the lambda
        super().__init_subclass__(**kwargs)
        if len(cls._fields) == 1:
            get = attrgetter(cls._fields[0])
            cls._field_values = lambda obj: (get(obj),)
        elif cls._fields:
            cls._field_values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other is self:
            return True
        cls = self.__class__
        if other.__class__ is cls:
            values = cls._field_values
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class FrozenRecord(Record):
    """A :class:`Record` that cannot be changed, hashed as its field tuple."""

    __slots__ = ()

    def __hash__(self):
        return hash(self.__class__._field_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
