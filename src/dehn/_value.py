"""The base of the package's immutable value classes."""

# Fields are stored through object.__setattr__, not written into `__dict__`:
# on CPython 3.11 and 3.12 an instance whose `__dict__` was never read keeps
# its attributes inline, where reads are two to three times as fast.
_set = object.__setattr__


class Value:
    """An immutable record. A subclass lists its fields as class annotations,
    in order, and is built from all of them, positionally: `__init__` takes
    one argument per field and checks only their count. A subclass that
    normalizes its arguments first has its own `__init__`, which stores the
    fields through `_set` or by calling this one. Every field holds an
    immutable value, tuples rather than lists or dicts, so every value
    hashes: `==` compares the fields within one class, `hash` hashes their
    tuple and `repr` is `Name(field=value, ...)`. Instances keep a
    `__dict__`, so `functools.cached_property`, `copy` and `pickle` work on
    them."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes its {len(fields)} fields "
                            f"{fields} positionally, got {len(args)} arguments")
        for f, v in zip(fields, args):
            _set(self, f, v)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{f}={v!r}" for f, v in zip(self._fields, self._values())))
