"""The behaviour every circomp value class shares, without ``dataclasses``.

It serves the four public value classes, ``Composition``,
``ConnectionSet``, ``CirculantDigraph`` and ``CountRow``. Internal
records, such as ``counting._Family`` and ``verify.SuiteResult``, are
``collections.namedtuple`` classes instead.

A value class names its fields in ``_fields`` and stores them in its own
``__init__`` once its checks pass: through each field's slot descriptor,
as ``Cls.field.__set__(self, value)`` bound once at module level, or
through the instance ``__dict__`` of a class that keeps one. Neither
route passes through ``Value.__setattr__``, which refuses every
assignment. A slot setter skips the lookup by name that
``object.__setattr__`` makes, so it stores a field in less time. Importing
``dataclasses`` would add about 10 ms to the start of every command
(median of 21 fresh starts, Python 3.11, 2-vCPU Xeon), since it pulls in
``inspect``, ``ast`` and ``dis``.
"""

from __future__ import annotations

from operator import attrgetter

# The one element type the value classes accept, tested as
# ``INTS.issuperset(map(type, items))``; built once, not once per value.
INTS = frozenset((int,))


class Value:
    """An immutable record of the fields named in ``_fields``.

    A value equals only a value of the same class whose fields are
    equal, never a plain tuple; equal values hash equal. Its repr shows
    every field by name, as in ``Composition(parts=(1, 2))``. Pickling and
    copying rebuild it through the class's validating constructor.
    Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # The fields as one C-level call: the value itself for a single field,
        # else their tuple. Not a function, so it is never bound to the instance.
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
