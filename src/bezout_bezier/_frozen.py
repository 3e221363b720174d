"""The base class of the package's immutable value types, their
integer field check, and the row chunks that streamed output is
written in.

This module imports nothing heavy, so a command that writes rows in
chunks without building an envelope (neighbors) gets ``chunked``
without loading envelope, geometry or io_render.
"""

from operator import attrgetter

from .errors import DomainError

# Rows per chunk of streamed output: about 240 KB of CSV.
CHUNK_ROWS = 2048

# Sets a field past Frozen.__setattr__: for the types' own __init__, and
# for objects built from data that is already verified.
setfield = object.__setattr__


def require_int(owner: str, name: str, value) -> None:
    """Raise DomainError, naming the field and value, unless `value` is
    an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{owner} needs an integer {name} (got {name} = {value!r})")


def chunked(rows):
    """Yield the sequence `rows` in slices of at most CHUNK_ROWS items."""
    for start in range(0, len(rows), CHUNK_ROWS):
        yield rows[start:start + CHUNK_ROWS]


class Frozen:
    """An immutable record whose fields are its ``_fields``, in order.

    A subclass lists its fields (two or more) in ``__slots__`` and sets
    them in its own ``__init__`` with ``setfield``; one that derives
    them from other slots names them in ``_fields``.  Instances compare
    equal only to instances of the same class with equal fields, hash
    as the tuple of their fields, print as ``Name(field=value, ...)``,
    refuse assignment and deletion with AttributeError, and pickle and
    copy through their constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._astuple = attrgetter(*cls._fields)
        cls.__match_args__ = cls._fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._astuple(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple(self)
