"""Integer Laurent polynomials in one variable.

Coefficients and exponents are arbitrary-precision Python ints, so every
operation here is exact; nothing in this package ever touches floating
point when computing an invariant.  A polynomial is stored as a mapping
exponent -> nonzero coefficient.  Instances are immutable value objects:
arithmetic returns new objects and never mutates, which makes them safe
to share between threads.

The text form orders terms by ascending exponent and writes the variable
as ``t`` with caret powers, e.g. ``t^-2 - 3 + 2t``.  ``parse_poly`` accepts
the same grammar (any amount of whitespace, ``^`` powers, an optional
variable letter chosen by the caller).
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping

from .errors import KnotError, Value, value_text


class LaurentPoly(Value):
    """An element of Z[t, t^-1].

    >>> p = LaurentPoly({0: 1, 1: -1})
    >>> p * p
    LaurentPoly('1 - 2t + t^2')
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean = {}
        if coeffs is not None:
            if not isinstance(coeffs, Mapping):
                raise KnotError(
                    f"laurent: coefficients must be a mapping exponent -> coefficient, "
                    f"got {type(coeffs).__name__}"
                )
            for exp, c in coeffs.items():
                if (
                    not (isinstance(exp, int) and isinstance(c, int))
                    or isinstance(exp, bool)
                    or isinstance(c, bool)
                ):
                    raise KnotError("laurent: exponents and coefficients must be ints")
                if c:
                    clean[exp] = c
        object.__setattr__(self, "_coeffs", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exp: int) -> "LaurentPoly":
        """The monomial coeff * t^exp."""
        return cls({exp: coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._coeffs.items()))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __hash__(self) -> int:
        # the field is a dict, which has no hash
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- the operations the rest of the package needs -----------------------

    def normalize_units(self) -> "LaurentPoly":
        """Canonical representative modulo units +-t^k: lowest exponent 0 and
        lowest coefficient positive.  Used to compare Alexander polynomials."""
        if not self._coeffs:
            return self
        low = min(self._coeffs)
        sign = 1 if self._coeffs[low] > 0 else -1
        return LaurentPoly({e - low: sign * c for e, c in self._coeffs.items()})

    # -- text form -----------------------------------------------------------

    def format(self, var: str = "t") -> str:
        if not isinstance(var, str):
            raise TypeError(f"laurent: the variable must be a str, got {type(var).__name__}")
        if not self._coeffs:
            return "0"
        parts = []
        for exp, c in sorted(self._coeffs.items()):
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                power = var if exp == 1 else f"{var}^{exp}"
                body = head + power
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        """The text form; past the interpreter's int-to-text digit limit,
        where ``str()`` raises ValueError as ``str(int)`` does, the
        mapping with each int named by ``value_text``."""
        try:
            return f"LaurentPoly({self.format()!r})"
        except ValueError:
            terms = ", ".join(f"{value_text(e)}: {value_text(c)}" for e, c in self.items())
            return f"LaurentPoly({{{terms}}})"


_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<coeff>\d+)\s*(?:\*?\s*(?P<var1>[A-Za-z])(?:\^(?P<exp1>-?\d+))?)?"
    r"|(?P<var2>[A-Za-z])(?:\^(?P<exp2>-?\d+))?"
    r")\s*"
)


def parse_poly(text: str, var: str = "t") -> LaurentPoly:
    """Parse the text form produced by :meth:`LaurentPoly.format`.

    >>> parse_poly("t^-1 - 2 + t")
    LaurentPoly('t^-1 - 2 + t')
    """
    s = text.strip()
    if not s:
        raise KnotError("laurent: empty polynomial text")
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise KnotError(f"laurent: cannot parse {value_text(s[pos:])}")
        sign = m.group("sign")
        if sign is None and not first:
            raise KnotError(f"laurent: missing +/- before {value_text(s[pos:])}")
        name = m.group("var1") or m.group("var2")
        if name is not None and name != var:
            raise KnotError(f"laurent: unexpected variable {name!r}, want {value_text(var)}")
        raw = m.group("exp1") or m.group("exp2")
        try:
            coeff = int(m.group("coeff") or 1)
            exp = int(raw) if raw is not None else (1 if name else 0)
        except ValueError as e:  # past the interpreter's int-conversion digit limit
            raise KnotError(f"laurent: number too long ({e})") from None
        if sign == "-":
            coeff = -coeff
        coeffs[exp] = coeffs.get(exp, 0) + coeff
        pos = m.end()
        first = False
    return LaurentPoly(coeffs)
