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
with bounded entries.  It builds T one row at a time, keeps only rows
whose value under the form matches the target's diagonal, and drops a
partial T as soon as one off-diagonal entry misses, so it returns the
lexicographically first witness without visiting every matrix.  Its
arithmetic is exact on Python ints.  It exists to cross-check the
decision procedure above and shares no code with it.
"""

from __future__ import annotations

from operator import mul

from .errors import KnotError, Value
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

# the most candidate rows, (2*bound + 1)^n, one oracle search may try.  At
# that count a 2x2 search takes about half a second; a larger bound is
# refused before the search starts.
ORACLE_ROWS = 1_000_000


def _check_band(band: str) -> str:
    if band not in ("first", "second"):
        raise KnotError(f"band must be 'first' or 'second', got {band!r}")
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
        return False, f"{other_name} = {other} != 0"
    if ell % abs(s) != 0:
        return False, f"s = {s} does not divide ell = {ell}"
    return True, f"{other_name} = 0 and s = {s} divides ell = {ell}"


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


def brute_force_congruence(
    m: SeifertMatrix, target: SeifertMatrix, bound: int
) -> CongruenceCertificate | None:
    """Search every integer matrix T with entries in [-bound, bound] for
    T M T^T = target, returning the first witness in lexicographic entry
    order (row-major, entries ascending), or None.

    Independent of the decision procedure by construction: it knows
    nothing about twists.  Row i of T must satisfy r M r^T = target[i][i],
    so only the (2*bound+1)^n candidate rows passing that test are kept,
    in ascending order.  A depth-first search then picks rows in order,
    dropping a row as soon as r_j M r_i^T or r_i M r_j^T misses the
    target against an earlier row j, and accepts the first complete T
    with det T = +-1.  Row-major entry order is lexicographic order on
    the sequence of rows, so that first leaf is the lexicographically
    first witness.  All arithmetic is on Python ints and therefore
    exact for entries of any size.  Matrices larger than 4x4 are
    rejected, and so is a bound giving more than ORACLE_ROWS candidate
    rows.
    """
    if bound < 0:
        raise KnotError("oracle: bound must be >= 0")
    n = m.size
    if n != target.size:
        raise KnotError("oracle: size mismatch")
    if n > 4:
        raise KnotError("oracle: matrices larger than 4x4 are not supported")
    rows = (2 * bound + 1) ** n
    if rows > ORACLE_ROWS:
        # past 64 bits the bound is named by its size: the decimal text of
        # a huge int can pass the interpreter's int-to-text digit limit
        if bound.bit_length() > 64:
            raise KnotError(
                f"oracle: a bound of {bound.bit_length()} bits gives over "
                f"{ORACLE_ROWS} candidate rows"
            )
        raise KnotError(
            f"oracle: bound {bound} gives {rows} candidate rows, over the limit of {ORACLE_ROWS}"
        )
    if n == 0:
        return CongruenceCertificate(())

    mm, tt = m.rows, target.rows
    diagonal = {tt[i][i] for i in range(n)}
    sym = [[mm[i][j] + mm[j][i] for j in range(n)] for i in range(n)]
    # Grow candidate rows one entry at a time, carrying each prefix's value
    # under the form; complete rows are kept only when that value is on the
    # target's diagonal.  Ascending entries at every step keep the rows in
    # lexicographic order.
    grown: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for i in range(n):
        prefixes, grown = grown, []
        last = i == n - 1
        for p, q in prefixes:
            lin = sum(map(mul, p, sym[i]))
            for x in range(-bound, bound + 1):
                value = q + x * (lin + mm[i][i] * x)
                if not last or value in diagonal:
                    grown.append((p + (x,), value))
    # value of r M r^T -> [(r, r M)], r ascending
    columns = list(zip(*mm))
    rows_by_value: dict[int, list[tuple[tuple[int, ...], list[int]]]] = {}
    for r, value in grown:
        v = [sum(map(mul, r, c)) for c in columns]
        rows_by_value.setdefault(value, []).append((r, v))
    choices = [rows_by_value.get(tt[i][i], []) for i in range(n)]

    chosen: list[tuple[tuple[int, ...], list[int]]] = []

    def extend(i: int) -> tuple[tuple[int, ...], ...] | None:
        if i == n:
            rows = tuple(r for r, _ in chosen)
            return rows if int_det(rows) in (1, -1) else None
        for r, v in choices[i]:
            for j, (rj, vj) in enumerate(chosen):
                if sum(map(mul, vj, r)) != tt[j][i] or sum(map(mul, v, rj)) != tt[i][j]:
                    break
            else:
                chosen.append((r, v))
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
    if pad < 0:
        raise KnotError("pad must be >= 0")
    return t.direct_sum(CongruenceCertificate.identity(pad))
