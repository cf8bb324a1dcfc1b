"""The cold methods shared by the package's value classes.

Each value class writes its own ``__init__``, ``__eq__`` and, when
frozen, ``__hash__`` over its own fields: components, contexts and
ideals are built, hashed and compared in inner loops.  What is shared
here runs only on display or misuse: a ``repr`` of the form
``Cls(field=value, ...)`` over the class's ``_fields``, and for frozen
classes an ``AttributeError`` on assignment or deletion.  A frozen
class stores its fields with ``object.__setattr__`` in ``__init__``;
writing to ``self.__dict__`` instead would be quicker there but would
slow every later attribute read.
"""

from __future__ import annotations


class Record:
    """A value class whose ``repr`` lists ``_fields`` in order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class FrozenRecord(Record):
    """A :class:`Record` whose attributes cannot be assigned or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
