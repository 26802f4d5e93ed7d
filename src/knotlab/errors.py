"""Shared exception type, and the guard of the immutable value classes.

Every rejection of mathematically invalid input raises KnotError, so the
command line layer can distinguish domain errors (exit code 1) from bugs.
"""


class KnotError(ValueError):
    """Raised when an input fails a documented validity check."""


def immutable(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of the value classes: each sets
    its slots once, with ``object.__setattr__``, and refuses every later
    assignment or deletion."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")
