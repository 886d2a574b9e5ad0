"""The one base of the package's value classes, from term nodes to lattice
elements. It loads no numpy, which whoever holds an array has loaded."""

from __future__ import annotations

import sys
from itertools import repeat


def _numpy_if_arrays(items: tuple):
    """numpy, found in ``sys.modules``, if an item is an ndarray; else None."""
    np = sys.modules.get("numpy")
    return np if np is not None and any(map(isinstance, items, repeat(np.ndarray))) else None


class Record:
    """Immutable once constructed: the constructor sets every slot, and no
    slot is filled in later. The default constructor takes the fields that
    ``__slots__`` names, in order, positionally or by name; a class that
    checks its input passes the converted values of all its slots to it, and
    one whose slots are not its constructor's arguments defines ``_key``, those
    arguments. Equal to an object of its class with equal ``_key()`` items
    (arrays by ``np.array_equal``), hashed alike (an array by its bytes),
    pickled and shown as ``type(self)(*self._key())``. A class declared with
    ``eq=False`` compares and hashes by identity."""

    __slots__ = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named:
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._key(), other._key()
        np = _numpy_if_arrays(a)
        if np is None:
            return a == b
        return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b))

    def __hash__(self):
        key = self._key()
        np = _numpy_if_arrays(key)
        if np is None:
            return hash(key)
        # + 0.0 turns -0.0, which equals 0.0, into 0.0
        return hash(tuple((x + 0.0).tobytes() if isinstance(x, np.ndarray) else x for x in key))

    def __reduce__(self):
        return (type(self), self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"
