"""The base of the package's immutable records.

A record lists its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``: it validates the arguments and stores the
fields with ``Record._fill``, or with ``_set`` one by one where
construction is hot, the only way past the guard below.  The base
gives every record equality with records of its own type, a hash that
agrees with it, a ``repr`` that lists the fields, pickling and copying
through the constructor, and an ``AttributeError`` on any assignment or
deletion.  Records have no instance ``__dict__``.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """Equality, hash, repr and immutability keyed on ``__slots__``."""

    __slots__ = ()

    def _fill(self, *values: object) -> None:
        """Store the fields in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")
