"""Base of the package's small immutable value classes.

A subclass lists its fields in _fields, keeps them in __slots__ (with
any cache slots after them) and sets them in __init__ through
object.__setattr__. Equality, hash and repr come from the field tuple;
writes and deletes raise AttributeError.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...]  # set by every subclass

    def __init_subclass__(cls):
        # the field tuple, read in one C call (every subclass has two or
        # more fields, so attrgetter returns a tuple)
        cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self._fields, self._values)))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copies and pickles rebuild through __init__, which revalidates
        return type(self), self._values
