"""Bases of the package's value classes: fields in ``__slots__``, compared,
hashed and shown field by field.

A subclass lists its fields, in order, in ``__slots__`` and sets them in
its own ``__init__``.  Equality holds between instances of the same class
with equal fields, in order; the repr is ``Name(field=value, ...)``.  A
:class:`FrozenRecord` hashes as the tuple of its fields and refuses every
assignment and deletion with AttributeError, so its ``__init__`` sets
fields through ``object.__setattr__``; a :class:`Record` is mutable and
unhashable.  ``__match_args__`` names the fields, so a class's fields can
be read from it.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Mutable value object; a ``"__dict__"`` entry of ``__slots__`` adds
    an instance dict and is no field."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls.__match_args__ = fields
        if fields:
            get = attrgetter(*fields)
            # the fields as one tuple, also for a class with one field
            cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"


class FrozenRecord(Record):
    """Immutable, hashable value object."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as setattr is refused
        return type(self), self._values(self)
