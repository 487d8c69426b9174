"""Records: classes of named fields that share one set of methods, so that
defining one compiles no code.  That takes about 0.02 ms per class, against
about 0.8 ms for a decorator that writes each class its own ``__init__``,
``__eq__``, ``__hash__`` and ``__repr__``: 16-18 ms on each import of egdeg."""


class Factory:
    """A default made afresh per record: read from the class, it is ``make()``."""

    def __init__(self, make):
        self.make = make

    def __get__(self, record, cls):
        return self.make()


class Record:
    """Fields and defaults come from the class annotations.  Records of one
    class compare by field tuple; they are frozen and hash as that tuple unless
    the class says ``frozen=False``.  ``__post_init__`` runs after the fields
    are set."""

    def __init_subclass__(cls, frozen=True):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None
        if hasattr(cls, "__post_init__"):  # only these pay for the call
            def __init__(self, *args, **kwargs):
                Record.__init__(self, *args, **kwargs)
                self.__post_init__()
            cls.__init__ = __init__

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            cls, rest = type(self), names[len(args):]
            if len(args) > len(names) or not kwargs.keys() <= set(rest) <= {*kwargs, *vars(cls)}:
                raise TypeError(f"{cls.__name__} takes the fields {names}")
            args = [*args, *(kwargs[n] if n in kwargs else getattr(cls, n) for n in rest)]
        self.__dict__.update(zip(names, args))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    __delattr__ = __setattr__


def replace(record: Record, **changes) -> Record:
    """A new record of the same class with the given fields changed."""
    return type(record)(**dict(zip(record._fields, record._values()), **changes))
