"""Deciding first S-equivalence after a band twist.

Setting: a genus-one Seifert matrix M = ((a11, a12), (a21, a22)) with
|a12 - a21| = 1, and the knot obtained by giving one of the two bands
ell extra full twists.  Twisting the first band replaces a11 by
a11 - ell; twisting the second replaces a22 by a22 - ell.  Write
s = a12 + a21 (odd, so never zero).

The twisted form is congruent to M by a unimodular basis change -- i.e.
the two matrices are "first S-equivalent", S-equivalent without any
enlargement moves -- precisely when the *other* band is untwisted
(a22 = 0 for a first-band twist, a11 = 0 for a second-band twist) and
s divides ell.  In that case an explicit certificate is

    first band:   T = ((1, -ell/s), (0, 1))
    second band:  T = ((1, 0), (-ell/s, 1))

and one checks T M T^T recovers the twisted matrix.  A positive answer
implies the knots are S-equivalent outright; a negative answer only
says no genus-preserving congruence exists, it does not decide full
S-equivalence.

``brute_force_congruence`` is an exhaustive search for a congruence
with bounded entries.  A row r of T must satisfy r M r^T = target[i][i],
a quadratic in r's last entry once the others are fixed, so the search
tries every choice of the other entries and solves for the last one
exactly instead of trying each value.  It then builds T one row at a
time and drops a partial T as soon as one off-diagonal entry misses, so
it returns the lexicographically first witness without visiting every
matrix.  Its arithmetic is exact on Python ints.  It exists to
cross-check the decision procedure above and shares no code with it.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import isqrt
from operator import mul

from .errors import KnotError, Value, value_text
from .seifert import CongruenceCertificate, SeifertMatrix, int_det

__all__ = [
    "twist_form",
    "first_sequiv_condition",
    "decide_first_sequiv",
    "verify_certificate",
    "brute_force_congruence",
    "connected_sum_certificate",
]

POSITIVE_NOTE = "first S-equivalence implies S-equivalence of the two forms"
NEGATIVE_NOTE = (
    "no genus-preserving congruence exists; full S-equivalence is not decided"
)

# the most candidate rows, (2*bound + 1)^n, one oracle search may consider;
# it bounds the rows the search keeps.  At that count (bound 499) a 2x2
# search takes about 1 ms when each row's last entry has at most two
# solutions, and up to 1.5 s when M = ((0, 1), (0, 0)) admits every last
# entry of the rows starting with 0 and the depth-first search tries
# about 2,000 x 2,000 row pairs (2-vCPU Xeon).  A larger bound is refused
# before the search starts.
ORACLE_ROWS = 1_000_000


def _check_band(band: str) -> str:
    if band not in ("first", "second"):
        raise KnotError(f"band must be 'first' or 'second', got {value_text(band)}")
    return band


def _check_genus_one(m: SeifertMatrix) -> None:
    if m.genus != 1:
        raise KnotError("twist: genus-one matrix required")
    if abs(m.rows[0][1] - m.rows[1][0]) != 1:
        raise KnotError("twist: |a12 - a21| must be 1")


def twist_form(m: SeifertMatrix, ell: int, band: str = "first") -> SeifertMatrix:
    """Seifert matrix after ell extra full twists in one band."""
    _check_genus_one(m)
    band = _check_band(band)
    (a, b), (c, d) = m.rows
    if band == "first":
        return SeifertMatrix(((a - ell, b), (c, d)))
    return SeifertMatrix(((a, b), (c, d - ell)))


def _first_sequiv_rule(m: SeifertMatrix, ell: int, band: str) -> tuple[bool, str]:
    """(equivalent, reason) for a checked genus-one M: the ell-twisted form
    is congruent to M exactly when ell = 0, or the other band's diagonal
    entry is 0 and s divides ell."""
    s = m.s
    other_name, other = ("a22", m.rows[1][1]) if band == "first" else ("a11", m.rows[0][0])
    if ell == 0:
        return True, "ell = 0, forms are equal"
    if other != 0:
        return False, f"{other_name} = {value_text(other)} != 0"
    if ell % abs(s) != 0:
        return False, f"s = {value_text(s)} does not divide ell = {value_text(ell)}"
    return True, f"{other_name} = 0 and s = {value_text(s)} divides ell = {value_text(ell)}"


def first_sequiv_condition(m: SeifertMatrix, ell: int, band: str = "first") -> bool:
    """True iff the twisted form is congruent to M over the integers."""
    _check_genus_one(m)
    return _first_sequiv_rule(m, ell, _check_band(band))[0]


class SEquivReport(Value):
    """Outcome of the decision procedure, with a witness when positive."""

    __slots__ = ("matrix", "twisted", "ell", "band", "equivalent", "certificate",
                 "reason", "note")

    def __init__(self, matrix: SeifertMatrix, twisted: SeifertMatrix, ell: int, band: str,
                 equivalent: bool, certificate: CongruenceCertificate | None,
                 reason: str, note: str):
        values = (matrix, twisted, ell, band, equivalent, certificate, reason, note)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict:
        return {
            "matrix": [list(r) for r in self.matrix.rows],
            "twisted": [list(r) for r in self.twisted.rows],
            "ell": self.ell,
            "band": self.band,
            "first_s_equivalent": self.equivalent,
            "certificate": [list(r) for r in self.certificate.rows]
            if self.certificate
            else None,
            "reason": self.reason,
            "note": self.note,
        }


def decide_first_sequiv(m: SeifertMatrix, ell: int, band: str = "first") -> SEquivReport:
    """Decide first S-equivalence of M and its ell-twisted form, and
    produce the unimodular certificate when the answer is positive."""
    _check_genus_one(m)
    band = _check_band(band)
    twisted = twist_form(m, ell, band)
    equivalent, reason = _first_sequiv_rule(m, ell, band)
    cert = None
    if equivalent:
        # ell = 0 gives k = 0, and so the identity, on either band
        k = ell // m.s
        rows = ((1, -k), (0, 1)) if band == "first" else ((1, 0), (-k, 1))
        cert = CongruenceCertificate(rows)
        if cert.apply(m) != twisted:
            raise AssertionError("decide: certificate does not reproduce the twisted form")
    note = POSITIVE_NOTE if equivalent else NEGATIVE_NOTE
    return SEquivReport(m, twisted, ell, band, equivalent, cert, reason, note)


def verify_certificate(
    m: SeifertMatrix, target: SeifertMatrix, t: CongruenceCertificate
) -> bool:
    """True iff det(T) = +-1 and T M T^T equals the target exactly."""
    if t.size != m.size or m.size != target.size:
        raise KnotError("verify: size mismatch")
    if int_det(t.rows) not in (1, -1):
        return False
    return t.apply(m) == target


# -- exhaustive oracle ---------------------------------------------------------


def _integer_roots(a: int, b: int, c: int, bound: int) -> Sequence[int]:
    """The integers x in [-bound, bound] with a x^2 + b x + c = 0, ascending."""
    if a == 0:
        if b == 0:
            return range(-bound, bound + 1) if c == 0 else ()
        x, r = divmod(-c, b)
        return (x,) if r == 0 and -bound <= x <= bound else ()
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    s = isqrt(disc)
    if s * s != disc:
        return ()
    # negating the equation keeps its roots and makes a > 0, so that
    # (-b - s) / 2a <= (-b + s) / 2a
    if a < 0:
        a, b = -a, -b
    lo, r = divmod(-b - s, 2 * a)
    roots = (lo,) if r == 0 and -bound <= lo <= bound else ()
    if s:
        hi, r = divmod(-b + s, 2 * a)
        if r == 0 and -bound <= hi <= bound:
            roots += (hi,)
    return roots


def brute_force_congruence(
    m: SeifertMatrix, target: SeifertMatrix, bound: int
) -> CongruenceCertificate | None:
    """Search every integer matrix T with entries in [-bound, bound] for
    T M T^T = target, returning the first witness in lexicographic entry
    order (row-major, entries ascending), or None.

    Independent of the decision procedure by construction: it knows
    nothing about twists.  Row i of T must satisfy r M r^T = target[i][i].
    With its first n - 1 entries fixed, of value q under the form, and
    last entry x, r M r^T = a x^2 + lin x + q, where a = M[n-1][n-1] and
    lin is linear in the fixed entries.  So every choice of the first
    n - 1 entries is tried, and for each distinct diagonal value t the
    last entry is solved exactly (an integer square root when a != 0)
    and kept when it lies in [-bound, bound]; the rows kept come out in
    ascending order.  A depth-first search then picks rows in order,
    dropping a row r as soon as r . (r_j M) or r . (r_j M^T) misses the
    target against an earlier row j, and accepts the first complete T
    with det T = +-1.  Row-major entry order is lexicographic order on
    the sequence of rows, so that first leaf is the lexicographically
    first witness.  All arithmetic is on Python ints and therefore
    exact for entries of any size.  Matrices larger than 4x4 are
    rejected, and so is a bound giving more than ORACLE_ROWS candidate
    rows, (2*bound+1)^n.
    """
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise KnotError("oracle: bound must be an int >= 0")
    n = m.size
    if n != target.size:
        raise KnotError("oracle: size mismatch")
    if n > 4:
        raise KnotError("oracle: matrices larger than 4x4 are not supported")
    rows = (2 * bound + 1) ** n
    if rows > ORACLE_ROWS:
        raise KnotError(
            f"oracle: bound {value_text(bound)} gives {value_text(rows)} candidate rows, "
            f"over the limit of {ORACLE_ROWS}"
        )
    if n == 0:
        return CongruenceCertificate(())

    mm, tt = m.rows, target.rows
    last = n - 1
    sym = [[mm[i][j] + mm[j][i] for j in range(n)] for i in range(n)]
    # Grow the first n - 1 entries of every row, carrying each prefix's
    # value under the form and the coefficient lin of the last entry.
    # Ascending entries at every step keep the prefixes in lexicographic
    # order.
    prefixes: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
    for i in range(last):
        grown = []
        for p, q, lin in prefixes:
            step = sum(map(mul, p, sym[i]))
            for x in range(-bound, bound + 1):
                grown.append((p + (x,), q + x * (step + mm[i][i] * x), lin + x * sym[i][last]))
        prefixes = grown
    # value of r M r^T -> rows r ascending; the last entry is solved for
    rows_by_value: dict[int, list[tuple[int, ...]]] = {tt[i][i]: [] for i in range(n)}
    a = mm[last][last]
    for p, q, lin in prefixes:
        for t, kept in rows_by_value.items():
            for x in _integer_roots(a, lin, q - t, bound):
                kept.append(p + (x,))
    choices = [rows_by_value[tt[i][i]] for i in range(n)]
    columns = tuple(zip(*mm))

    # each chosen row r above the last, with r M and r M^T
    chosen: list[tuple[tuple[int, ...], list[int], list[int]]] = []

    def extend(i: int) -> tuple[tuple[int, ...], ...] | None:
        for r in choices[i]:
            for j, (_, rm, rmt) in enumerate(chosen):
                if sum(map(mul, r, rm)) != tt[j][i] or sum(map(mul, r, rmt)) != tt[i][j]:
                    break
            else:
                if i == last:
                    rows = tuple(c[0] for c in chosen) + (r,)
                    if int_det(rows) in (1, -1):
                        return rows
                    continue
                chosen.append((r, [sum(map(mul, r, c)) for c in columns],
                               [sum(map(mul, r, row)) for row in mm]))
                found = extend(i + 1)
                chosen.pop()
                if found is not None:
                    return found
        return None

    found = extend(0)
    return None if found is None else CongruenceCertificate(found)


def connected_sum_certificate(
    t: CongruenceCertificate, pad: int
) -> CongruenceCertificate:
    """Lift a certificate along connected sum with a fixed summand:
    T (+) I_pad."""
    return t.direct_sum(CongruenceCertificate.identity(pad))
