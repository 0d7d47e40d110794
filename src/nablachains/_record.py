"""Immutable value records without the dataclasses module.

Importing dataclasses also imports inspect, ast, dis and tokenize, about a
third of the package's start-up; the records need only the few methods below.
"""

from __future__ import annotations


class Record:
    """Base of the package's immutable records.

    A subclass names its fields, in order, in __match_args__, and sets them
    in __init__ with object.__setattr__.  Records compare and hash by their
    field tuple, print as Name(field=value, ...) and refuse assignment, as
    frozen dataclasses do.  Instances keep a __dict__, so pickle and copy
    restore them without calling __setattr__.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
