"""Shared exception type, how a refusal names an input, the int check
that parameters share, and the base of the immutable value classes.

Every rejection of mathematically invalid input raises KnotError, so the
command line layer can distinguish domain errors (exit code 1) from bugs.
"""


class KnotError(ValueError):
    """Raised when an input fails a documented validity check."""


def value_text(value) -> str:
    """An input as a refusal names it, so that formatting the refusal
    never fails.  An int is its digits up to 64 bits and ``<N bits>``
    past that, since the decimal text of a huge int can pass the
    interpreter's int-to-text digit limit; any other value is its repr,
    cut to 200 characters; a value whose repr raises (a tuple holding a
    huge int) is ``<unprintable T>``, T its type's name."""
    if type(value) is int:
        bits = value.bit_length()
        return str(value) if bits <= 64 else f"<{bits} bits>"
    try:
        text = repr(value)
    except Exception:  # a foreign __repr__ may raise anything
        return f"<unprintable {type(value).__name__}>"
    return text if len(text) <= 200 else text[:197] + "..."


def check_int(value, name: str) -> int:
    """``value`` when it is an int; KnotError naming it otherwise.  A
    bool is refused, not taken as 0 or 1.  ``name`` leads the message,
    as in ``"lambda: n must be an int, got 3.0"``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise KnotError(f"{name} must be an int, got {value_text(value)}")
    return value


class Value:
    """Base of the immutable value classes.

    A subclass lists its slots in ``__slots__``, sets each once in its
    constructor with ``object.__setattr__``, and then refuses every
    assignment and deletion.  Equality, hash, repr and pickling all read
    one tuple of fields, named by ``_fields`` (the class's ``__slots__``
    unless it says otherwise): two values are equal when they are of the
    same class and their fields are, the hash is the hash of the field
    tuple, the repr is ``Name(field=value, ...)``, and a value pickles
    and copies as its class called with its fields.  ``PlanarDiagram``
    names only its crossings and signs, so the arc table it derives from
    them stays out of equality, hash and repr; it pickles as its
    crossings alone, all its constructor takes.  ``LaurentPoly`` keeps its
    own hash, since its field is a dict, and its text repr.
    """

    __slots__ = ()

    @property
    def _fields(self) -> tuple[str, ...]:
        return self.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
