"""Slotted record classes whose methods are written out once, here.

A ``@dataclass`` generates its ``__init__``, ``__repr__``, ``__eq__`` and
friends from source text in every process that defines the class, about a
millisecond per class, and ``import dataclasses`` loads ``inspect`` and
``ast`` besides.  The package's plain records are ``typing.NamedTuple``
classes; the ones that validate or derive a field, or must compare unequal
to another record type holding the same values, subclass :class:`Record` or
:class:`FrozenRecord` and write their own ``__init__``.
"""

from __future__ import annotations


class Record:
    """A record whose fields are slots.

    A subclass lists its slots in ``__slots__`` and the fields that make up
    its value in ``_fields`` (the slots unless some are private state).  Two
    records are equal when they have the same type and equal fields, and a
    record prints as ``Name(field=value, ...)``, as a dataclass does.  A
    record that compares by value is not hashable unless it is frozen.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def _assign(self, *values: object) -> None:
        """Set the slots, in ``__slots__`` order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    # copy and pickle go through these, which set no attribute by name
    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        self._assign(*state)


class FrozenRecord(Record):
    """A :class:`Record` that refuses assignment and deletion with
    ``AttributeError`` and hashes by its fields; its ``__init__`` fills the
    slots with :meth:`_assign`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
