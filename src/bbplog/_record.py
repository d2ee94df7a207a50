"""The base of the package's immutable records.

A record lists its fields in ``__slots__``, in constructor order.  The
base's constructor binds positional and keyword arguments to them, every
one required, and raises ``TypeError`` for a missing, extra or unknown
argument.  A record that validates or normalises its arguments, or has a
default, writes its own ``__init__`` and stores the fields with
``Record._fill``, or with ``_set`` one by one where construction is hot,
the only way past the guard below.  The base gives every record equality
with records of its own type, a hash that agrees with it, a ``repr`` that
lists the fields (an int too long for ``str`` in hex), pickling and
copying through the constructor, and an ``AttributeError`` on any
assignment or deletion.  Records have no instance ``__dict__``.
"""

from __future__ import annotations

_set = object.__setattr__


def _show(value: object) -> str:
    """``repr(value)``, with every int too long for ``str`` (the int/str
    digit limit) written in hex, which has no such limit.  Of a record's
    field values only an int, a tuple of ints and a ``Fraction`` can hit
    the limit; a record's own repr never does."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return hex(value)
        if isinstance(value, tuple):
            return f"({', '.join(map(_show, value))}{',' if len(value) == 1 else ''})"
        return f"Fraction({_show(value.numerator)}, {_show(value.denominator)})"


class Record:
    """Equality, hash, repr and immutability keyed on ``__slots__``."""

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields, name = self.__slots__, self.__class__.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        for field, value in zip(fields, args):
            _set(self, field, value)
        for field in fields[len(args) :]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing required argument: {field!r}")
            _set(self, field, kwargs.pop(field))
        for key in kwargs:
            why = "multiple values for" if key in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {why} argument {key!r}")

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
        fields = ", ".join(f"{name}={_show(getattr(self, name))}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")
