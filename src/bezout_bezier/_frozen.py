"""The base class of the package's immutable value types, the one store
of their fields, their integer field check with its floor, its ceiling and
the supported range, their real-number field check, their check that a
field is an instance of its class, the one check that a disk of
neighbors stays in the supported range, the text their error messages
give a value, and the row chunks that streamed output is written in.

This module imports nothing heavy, so a command that writes rows in
chunks without building an envelope (neighbors) gets ``chunked``
without loading envelope, geometry or io_render.
"""

from operator import attrgetter

from .errors import DomainError

# Rows per chunk of streamed output: about 240 KB of CSV.
CHUNK_ROWS = 2048

# The documented supported range: the integer fields that opt in
# (Center, CoprimePair, QuadBezier, RenderOptions.width_px) refuse
# values beyond it, and EnvelopeParams and coprime_neighbors a disk
# that reaches beyond it (require_disk).
INT_RANGE = 2**31


def setfields(obj, *values) -> None:
    """Set the fields of `obj` to `values`, in ``__slots__`` order, through
    the slots' own setters, past the frozen __setattr__.  A count of
    values other than the count of slots raises ValueError."""
    for setter, value in zip(obj._setters, values, strict=True):
        setter(obj, value)


def show(*values, text=str) -> str:
    """`values` as an error message prints them, joined by ", ": `text`
    (str, or repr) of each, or for an int too long for text its sign and
    size, so that a message about it does not fail."""
    return ", ".join([_show(value, text) for value in values])


def _show(value, text) -> str:
    try:
        return text(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


def require_int(
    owner: str, name: str, value, minimum: int | None = None,
    maximum: int | None = None, in_range: bool = False,
) -> None:
    """Raise DomainError, naming the field and value, unless `value` is
    an int and not a bool, is at least `minimum` and at most `maximum`
    when they are given, and is at most INT_RANGE when `in_range` is
    set."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{owner} needs an integer {name} (got {name} = {value!r})")
    if minimum is not None and value < minimum:
        raise DomainError(
            f"{owner} needs {name} >= {minimum} (got {name} = {show(value)})"
        )
    if maximum is not None and value > maximum:
        raise DomainError(
            f"{owner} needs {name} <= {maximum} (got {name} = {show(value)})"
        )
    if in_range and value > INT_RANGE:
        raise DomainError(f"{name} = {show(value)} exceeds the supported range 2**31")


def require_disk(p: int, q: int, radius, name: str) -> None:
    """Raise DomainError unless p + radius <= INT_RANGE and
    q + radius <= INT_RANGE, so that every lattice point of the disk of
    `radius` around (p, q) stays in the supported range.  The message
    names p, q and the radius by the caller's own `name` for it."""
    if p + radius > INT_RANGE or q + radius > INT_RANGE:
        raise DomainError(
            f"requires p + {name} <= 2**31 and q + {name} <= 2**31 so that every "
            "neighbor stays in the supported range "
            f"(got p = {show(p)}, q = {show(q)} and {name} = {show(radius)})"
        )


def require_instance(owner: str, name: str, value, cls: type) -> None:
    """Raise DomainError, naming the field and value, unless `value` is
    an instance of `cls`."""
    if not isinstance(value, cls):
        raise DomainError(
            f"{owner} needs {name} of type {cls.__name__} "
            f"(got {name} = {show(value, text=repr)})"
        )


def require_number(name: str, value) -> None:
    """Raise DomainError, naming the field and value, unless `value` is
    an int or a float and not a bool."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DomainError(f"{name} must be a number (got {show(value, text=repr)})")


def chunked(rows):
    """Yield the sequence `rows` in slices of at most CHUNK_ROWS items."""
    for start in range(0, len(rows), CHUNK_ROWS):
        yield rows[start:start + CHUNK_ROWS]


class Frozen:
    """An immutable record whose fields are its ``_fields``, in order.

    A subclass lists its fields in ``__slots__``, and its
    ``__init__`` takes them in that order and stores them with one
    ``setfields`` call; one whose slots are not its fields (a slot that
    its fields are read from, or one derived from them) names them, in
    the order its ``__init__`` takes them, in ``_fields``.
    That order is the constructor's contract: pickling and copying
    rebuild an instance as ``cls(*fields)``.  A slot outside ``_fields``
    holds a derived value: the constructor computes it from the fields
    and sets it once, in the same ``setfields`` call, and it is as
    read-only as a field.  Only EnvelopeRecord derives values on read,
    from its kernel row.  Instances compare
    equal only to instances of the same class with equal fields, hash
    as the tuple of their fields, print as ``Name(field=value, ...)``,
    refuse assignment and deletion with AttributeError, and pickle and
    copy through their constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        get = attrgetter(*fields)
        # for one name attrgetter returns the bare value, not a 1-tuple
        cls._astuple = get if len(fields) > 1 else staticmethod(lambda o: (get(o),))
        cls._setters = [getattr(cls, name).__set__ for name in cls.__slots__]
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
