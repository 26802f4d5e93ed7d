"""Shared exception type, and the base of the immutable value classes.

Every rejection of mathematically invalid input raises KnotError, so the
command line layer can distinguish domain errors (exit code 1) from bugs.
"""


class KnotError(ValueError):
    """Raised when an input fails a documented validity check."""


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
