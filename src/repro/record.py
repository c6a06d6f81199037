"""Tuple-backed records: immutable, validated and cheap to build.

A record class here is a :class:`~typing.NamedTuple` of fields plus a
subclass whose ``__new__`` validates them.  Building one is a single
``tuple.__new__`` — a frozen dataclass pays one ``object.__setattr__`` per
field — and it is smaller in memory, while :class:`TypedRecord` keeps the
dataclass semantics callers rely on: equality by class and fields, the
``Name(field=value, ...)`` repr, and no assignment to fields.
"""

from __future__ import annotations


class TypedRecord:
    """Record semantics for a tuple-backed record class.

    Mixed in ahead of a :class:`~typing.NamedTuple` of fields whose
    subclass validates in ``__new__``.  A record equals only a record of
    its own class with equal fields, never a plain tuple (nor a record of
    another class that happens to hold the same values), as a frozen
    dataclass would; it hashes as the tuple of its fields.  A copy made
    with NamedTuple's ``_replace`` (or ``_make``) is validated like any
    other record.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make, which _replace calls, would build the tuple
        # directly and skip the validating __new__.
        return cls(*iterable)

    # Any other tuple is unequal outright: NotImplemented would hand the
    # comparison to tuple's own, which compares the fields.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__
