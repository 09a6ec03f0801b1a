"""The package's immutable value types: one small base, driven by ``__slots__``."""


class Record:
    """A frozen record whose fields are its class's ``__slots__``, in order.

    Two records are equal when they are of the same type with equal fields,
    and equal records hash equal. The repr is ``Name(field=value, ...)``.
    ``__init__`` sets every field once, by position; after it, setting or
    deleting an attribute raises AttributeError. Copies and pickles carry
    the fields and restore them without calling ``__init__``. A subclass whose
    constructor takes other arguments normalizes them in its own
    ``__init__`` and passes the fields on (or, where construction is hot,
    sets them itself with ``object.__setattr__``).
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __getstate__(self) -> tuple:  # copy and pickle store the fields
        return self._values()

    def __setstate__(self, values: tuple) -> None:  # and restore them here, not by setattr
        Record.__init__(self, *values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
