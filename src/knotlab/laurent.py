"""Integer Laurent polynomials in one variable.

Coefficients and exponents are arbitrary-precision Python ints, so every
operation here is exact; nothing in this package ever touches floating
point when computing an invariant.  A polynomial is stored as a mapping
exponent -> nonzero coefficient.  Instances are immutable value objects:
arithmetic returns new objects and never mutates, which makes them safe
to share between threads.

The text form orders terms by ascending exponent and writes the variable
as ``t`` with caret powers, e.g. ``t^-2 - 3 + 2t``.  ``parse`` accepts
the same grammar (any amount of whitespace, ``^`` powers, an optional
variable letter chosen by the caller).
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping

from .errors import KnotError, Value, value_text

# the most 64-bit words (terms times words per coefficient) the result of
# p ** n may take.  Squaring S words costs about S^2 / 4 coefficient
# products: at the limit a dense 256-term polynomial to the 4th takes 0.5 s
# (2-vCPU Xeon).
POW_WORDS = 1_024


class LaurentPoly(Value):
    """An element of Z[t, t^-1].

    >>> p = LaurentPoly({0: 1, 1: -1})
    >>> p * p
    LaurentPoly('1 - 2t + t^2')
    >>> p.evaluate(2)
    Fraction(-1, 1)
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
    def zero(cls) -> "LaurentPoly":
        return cls()

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

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise KnotError("laurent: zero polynomial has no degree")
        return min(self._coeffs)

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

    def __pow__(self, n: int) -> "LaurentPoly":
        """The n-th power, n an int >= 0 (not a bool), by repeated squaring.

        A power whose result could pass POW_WORDS 64-bit words is refused
        before the first multiplication.  The result spans at most
        n * span + 1 exponents, span = max - min exponent of self, and its
        coefficients have at most n * ceil(log2(sum |c|)) bits, since the
        sum of |c| of a product is at most the product of the sums."""
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise KnotError("laurent: only nonnegative integer powers")
        if self._coeffs:
            span = max(self._coeffs) - self.min_exp
            bits = n * (sum(map(abs, self._coeffs.values())) - 1).bit_length()
            words = (n * span + 1) * (bits // 64 + 1)
            if words > POW_WORDS:
                raise KnotError(
                    f"laurent: power {value_text(n)} could take {value_text(words)} "
                    f"words, over the limit of {POW_WORDS}"
                )
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __hash__(self) -> int:
        # the field is a dict, which has no hash
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- the operations the rest of the package needs -----------------------

    def substitute_inverse(self) -> "LaurentPoly":
        """The image under t -> t^-1 (mirror image on Jones polynomials)."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def evaluate(self, x):
        """Exact evaluation at a nonzero rational point (an int or a
        ``Fraction``), as a ``Fraction``.  A bool, a float, text, or a
        point ``Fraction`` cannot take (a ``Decimal`` NaN or infinity)
        raises KnotError; a value of a type ``Fraction`` does not take,
        TypeError."""
        if isinstance(x, (bool, float, str)):
            raise KnotError(f"laurent: cannot evaluate at {value_text(x)}")
        from fractions import Fraction  # imports decimal; nothing else needs it

        try:
            x = Fraction(x)
        except (ValueError, OverflowError):
            raise KnotError(f"laurent: cannot evaluate at {value_text(x)}") from None
        if x == 0:
            raise KnotError("laurent: cannot evaluate at 0")
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * x ** e
        return total

    def normalize_units(self) -> "LaurentPoly":
        """Canonical representative modulo units +-t^k: lowest exponent 0 and
        lowest coefficient positive.  Used to compare Alexander polynomials."""
        if not self._coeffs:
            return self
        low = self.min_exp
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
