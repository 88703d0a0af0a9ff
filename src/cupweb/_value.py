"""The one base class of the package's read-only public types."""

from __future__ import annotations

from operator import attrgetter
from types import MappingProxyType

_new = object.__new__


def _read_only(obj, *_):
    """``__setattr__`` and ``__delattr__`` of a type whose values never change."""
    raise AttributeError(f"{type(obj).__name__} is read-only")


def _builder(cls, stores):
    """A function of one value per slot that stores them in a new ``cls``.

    Its source names each setter, so a call runs no loop.
    """
    args = ", ".join(f"v{k}" for k in range(len(stores)))
    body = "".join(f"    s{k}(value, v{k})\n" for k in range(len(stores)))
    scope = {f"s{k}": store for k, store in enumerate(stores)}
    scope.update(new=_new, cls=cls)
    exec(f"def _trusted({args}):\n    value = new(cls)\n{body}    return value\n", scope)
    build = scope["_trusted"]
    build.__qualname__ = f"{cls.__qualname__}._trusted"
    return build


class Value:
    """A read-only value with named fields.

    A subclass names its constructor arguments in ``_fields``; its
    ``__slots__`` list them, then any slots derived from them.  ``__init__``
    and ``_trusted`` take one value per slot, in slot order: a subclass's
    own ``__init__`` checks its arguments first, and ``_trusted`` stores
    values that the caller has checked.  Kernels build many values through
    ``_trusted``, so each subclass gets ``_build``, made with the class:
    one setter call per slot, no loop.  ``_build`` is the subclass's
    ``_trusted`` unless a class below ``Value`` on its way up defines its
    own, which then reaches ``_build`` through ``super()._trusted``.  As
    for a frozen dataclass, two values are equal when they have the same
    type and equal public slots (names without a leading underscore), the
    hash is that of the tuple of those slots, and the repr lists the
    fields.  A copy or a pickle rebuilds the value through the public
    constructor on its fields, a read-only mapping passed as a dict.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        slots = [name for k in reversed(cls.__mro__)
                 for name in k.__dict__.get("__slots__", ())]
        # The slots' own setters, past the refusing ``__setattr__``.
        cls._stores = tuple(getattr(cls, name).__set__ for name in slots)
        cls._build = build = staticmethod(_builder(cls, cls._stores))
        # The nearest class that defines ``_trusted``: Value, one whose
        # ``_trusted`` is the ``_build`` set here, or one with its own, kept.
        owner = next(k for k in cls.__mro__ if "_trusted" in k.__dict__)
        if owner is Value or owner.__dict__["_trusted"] is owner.__dict__["_build"]:
            cls._trusted = build
        public = [name for name in slots if name[0] != "_"]
        get = attrgetter(*public)
        # The tuple of the public slots' values, also when there is one.
        cls._values = staticmethod(
            get if len(public) > 1 else lambda value: (get(value),))

    def __init__(self, *slot_values):
        for store, value in zip(self._stores, slot_values):
            store(self, value)

    @classmethod
    def _trusted(cls, *slot_values):
        """``cls`` on ``slot_values`` as given, without the checks of its ``__init__``."""
        return cls._build(*slot_values)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        values = (getattr(self, name) for name in self._fields)
        return type(self), tuple(
            dict(v) if type(v) is MappingProxyType else v for v in values)
