"""One rule for every value type: a value is the fields named in `__slots__`.

Fields, matrices, forms, form spaces, subspaces, binary forms, kernel
elements and the result records all derive from `_Record`, so equality
("same class, equal fields") and hashing are written once.  Classes whose
repr is printed output define their own `__repr__`.  `dataclasses` would
cost every CLI start its import.  A record holding a list is unhashable,
as its fields are.
"""

from __future__ import annotations


class _Record:
    """Equality, hash and repr over the fields named in `__slots__`."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"
