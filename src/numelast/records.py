"""Base of the package's value classes: fields in ``__slots__``, compared,
hashed and shown field by field, and immutable.

A subclass lists its fields, in order, in ``__slots__`` and sets them in
its own ``__init__`` through ``object.__setattr__``, as every assignment
and deletion raises AttributeError.  Equality holds between instances of
the same class with equal fields, in order; the hash is that of the tuple
of the fields; the repr is ``Name(field=value, ...)``.  ``__match_args__``
names the fields, so a class's fields can be read from it.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecord:
    """Immutable value object, hashable when its fields are."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        cls.__match_args__ = fields
        if fields:
            get = attrgetter(*fields)
            # the fields as one tuple, also for a class with one field
            cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as setattr is refused
        return type(self), self._values(self)
