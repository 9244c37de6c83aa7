"""The base of synchro's immutable value records.

A record's fields are the names in its ``__slots__`` (``__weakref__``
aside), set once by ``__init__``, by position or by name; setting or
deleting one later raises ``AttributeError``. Records of one class compare
by their fields, hash as the tuple of their fields, print as
``Name(field=value, ...)`` and pickle by calling their class on their
fields. Being plain classes, they generate no code when a module loads.
"""
from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = names = cls._fields + tuple(name for name in own if name != "__weakref__")
        # ``_values``, the tuple of the fields, is read in C: attrgetter of
        # two or more names gives their tuple, of one name the bare value
        if len(names) == 1:
            get = attrgetter(names[0])
            cls._values = property(lambda self: (get(self),))
        else:
            cls._values = property(attrgetter(*names) if names else lambda self: ())

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            _set(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"the fields of {type(self).__name__} are read-only: {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values
