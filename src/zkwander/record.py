"""Immutable value records, the one home of their value semantics.

A record class names its fields (two or more) in ``__slots__``; ``__init__``
sets each by its own ``store`` call, or by a ``slot_setters`` setter in a
record built once per operation or search point (a slot loop costs more).
``Record`` gives equality and hashing over the fields, the dataclass repr,
refusal of assignment and deletion, and ``__reduce__`` through ``__init__``
for copy and pickle.  It generates no code, so ``import zkwander`` is cheap.
"""

from operator import attrgetter

store = object.__setattr__      # past Record.__setattr__, one lookup less


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each slot of cls, in ``__slots__`` order: half the
    cost of ``store``, for a record built per operation or search point."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)    # record -> field tuple

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
