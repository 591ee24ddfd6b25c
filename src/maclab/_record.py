"""Immutable slotted records: the parameter and result types of the closed forms.

A record lists its fields in `__slots__`, validates its arguments in
its own `__init__` and stores them with `_fill`. The base adds what a
frozen dataclass would: the field-wise repr, equality and hash,
pattern-matching positions, `replace`, pickling and copying, and
`dataclasses.FrozenInstanceError` on assignment.
`dataclasses` (and the `inspect` it loads) is imported only when an
assignment fails.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes):
        """A copy with `changes` applied, validated as the constructor validates."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
