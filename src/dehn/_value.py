"""The base of the package's immutable value classes."""

# Fields are stored through object.__setattr__, not written into `__dict__`:
# on CPython 3.11 and 3.12 an instance whose `__dict__` was never read keeps
# its attributes inline, where reads are two to three times as fast.
_set = object.__setattr__


class Value:
    """An immutable record. A subclass lists its fields as class annotations,
    in order; a class attribute of a field's name is that field's default.
    `__init__` sets the fields once, positionally or by keyword; a subclass
    that normalizes its arguments first has its own `__init__`, which stores
    the fields through `_set` or by calling this one. `==`
    compares them within one class, `hash` hashes their tuple and `repr` is
    `Name(field=value, ...)`; so `KnotDiagram` and `PipelineRun`, whose
    fields include dicts, do not hash. Instances keep a `__dict__`, so
    `functools.cached_property`, `copy` and `pickle` work on them."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for f, v in zip(fields, args):
            _set(self, f, v)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call by keyword or with defaults left out; a
        missing, unknown or repeated field is a TypeError."""
        fields, n = cls._fields, len(args)
        if n > len(fields) or not kwargs.keys() <= set(fields[n:]):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}, once each")
        values = list(args)
        for f in fields[n:]:
            if f in kwargs:
                values.append(kwargs[f])
            elif hasattr(cls, f):
                values.append(getattr(cls, f))
            else:
                raise TypeError(f"{cls.__name__}() is missing the field {f!r}")
        return values

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
