"""Deciding first S-equivalence after a band twist.

Setting: a genus-one Seifert matrix M = ((a11, a12), (a21, a22)), and
the knot obtained by giving one of the two bands ell extra full twists.
Twisting the first band replaces a11 by a11 - ell; twisting the second
replaces a22 by a22 - ell.  M - M^T = ((0, a12 - a21), (a21 - a12, 0))
has determinant (a12 - a21)^2, and a SeifertMatrix has det(M - M^T) = 1,
so |a12 - a21| = 1 and s = a12 + a21 = (a12 - a21) + 2 a21 is odd, so
never zero.

The twisted form is congruent to M by a unimodular basis change -- i.e.
the two matrices are "first S-equivalent", S-equivalent without any
enlargement moves -- precisely when ell = 0, or the *other* band is
untwisted (a22 = 0 for a first-band twist, a11 = 0 for a second-band
twist) and s divides ell.  In that case an explicit certificate is

    first band:   T = ((1, -ell/s), (0, 1))
    second band:  T = ((1, 0), (-ell/s, 1))

and one checks T M T^T recovers the twisted matrix.  A positive answer
implies the knots are S-equivalent outright; a negative answer only
says no genus-preserving congruence exists, it does not decide full
S-equivalence.  ``decide_first_sequiv`` is the one place that applies
this rule; its report's ``equivalent`` is the yes/no answer.

``brute_force_congruence`` is an exhaustive search for a congruence
with bounded entries.  A row r of T must satisfy r M r^T = target[i][i],
a quadratic in r's last entry once the others are fixed, so the search
tries every choice of the other entries and solves for the last one
exactly instead of trying each value.  For a 2x2 form the second row
is solved for too, in O(1): the skew parts of two Seifert forms fix
det T, so a first row has at most one completion.  A 4x4 search builds
T one row at a time and drops a partial T as soon as one off-diagonal
entry misses; it counts the rows it checks and is refused past
``ORACLE_CHECKS`` of them.  Both return the lexicographically first
witness without visiting every matrix.  The arithmetic is exact on
Python ints.  The search exists to cross-check the decision procedure
above and shares no code with it.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import isqrt
from operator import mul

from .errors import KnotError, Value, check_int, value_text
from .seifert import CongruenceCertificate, SeifertMatrix

POSITIVE_NOTE = "first S-equivalence implies S-equivalence of the two forms"
NEGATIVE_NOTE = (
    "no genus-preserving congruence exists; full S-equivalence is not decided"
)

# the most candidate rows, (2*bound + 1)^n, one oracle search may consider;
# it bounds the rows the search keeps.  A 2x2 search solves the first
# row's last entry once per value x of its first entry, and then does
# O(1) work per first row it keeps: at that count (bound 499) it takes
# about 1 ms on the forms measured, ((0, 1), (0, 0)) against
# ((0, 2), (1, 0)) included (2-vCPU Xeon).  A larger bound is refused
# before the search starts.
ORACLE_ROWS = 1_000_000

# the most rows a 4x4 search may check against the rows chosen above them,
# summed over the rows it tries at each depth.  The search pairs the rows
# it keeps depth-first, so its cost follows this count, not the bound: the
# block sum of ((0, 1), (0, 0)) with itself against its sum with
# ((0, 2), (1, 0)), to which it is not congruent, checks 331,530 rows in
# 0.3 s at bound 2 and 2,143,802 in 1.8 s at bound 3 (2-vCPU Xeon), and
# would check tens of millions at bound 5.  Past the limit the search
# stops with a KnotError naming the count, after about a second.
ORACLE_CHECKS = 1_000_000


def _check_band(band: str) -> str:
    if band not in ("first", "second"):
        raise KnotError(f"band must be 'first' or 'second', got {value_text(band)}")
    return band


def twist_form(m: SeifertMatrix, ell: int, band: str = "first") -> SeifertMatrix:
    """Seifert matrix after ell extra full twists in one band."""
    if m.genus != 1:
        raise KnotError("twist: genus-one matrix required")
    check_int(ell, "twist: ell")
    (a, b), (c, d) = m.rows
    if _check_band(band) == "first":
        return SeifertMatrix(((a - ell, b), (c, d)))
    return SeifertMatrix(((a, b), (c, d - ell)))


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
    produce the unimodular certificate when the answer is positive: the
    twisted form is congruent to M exactly when ell = 0, or the other
    band's diagonal entry is 0 and s divides ell."""
    twisted = twist_form(m, ell, band)  # checks M, ell and band
    (a11, a12), (a21, a22) = m.rows
    s = a12 + a21
    name, other = ("a22", a22) if band == "first" else ("a11", a11)
    if ell == 0:
        equivalent, reason = True, "ell = 0, forms are equal"
    elif other != 0:
        equivalent, reason = False, f"{name} = {value_text(other)} != 0"
    elif ell % s != 0:
        equivalent, reason = False, f"s = {value_text(s)} does not divide ell = {value_text(ell)}"
    else:
        equivalent, reason = True, f"{name} = 0 and s = {value_text(s)} divides ell = {value_text(ell)}"
    cert = None
    if equivalent:
        # ell = 0 gives k = 0, and so the identity, on either band
        k = ell // s
        rows = ((1, -k), (0, 1)) if band == "first" else ((1, 0), (-k, 1))
        cert = CongruenceCertificate(rows)
        if cert.apply(m) != twisted:
            raise AssertionError("decide: certificate does not reproduce the twisted form")
    note = POSITIVE_NOTE if equivalent else NEGATIVE_NOTE
    return SEquivReport(m, twisted, ell, band, equivalent, cert, reason, note)


def verify_certificate(
    m: SeifertMatrix, target: SeifertMatrix, t: CongruenceCertificate
) -> bool:
    """True iff T M T^T equals the target exactly.  det T = +-1 is the
    certificate's own invariant: ``CongruenceCertificate`` refuses any
    other matrix when it is built, and it pickles through that check."""
    if t.size != m.size or m.size != target.size:
        raise KnotError("verify: size mismatch")
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


def _bezout(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with u x + v y = g = gcd(x, y) >= 0, by extended Euclid."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return (x, u0, v0) if x >= 0 else (-x, -u0, -v0)


def _second_row(mm: Sequence[Sequence[int]], tt: Sequence[Sequence[int]],
                r0: tuple[int, int], bound: int) -> tuple[int, int] | None:
    """The one r1 in [-bound, bound]^2 that completes the first row r0
    (r0 M r0^T = target[0][0] already) to a witness T = (r0, r1) of a
    2x2 search, or None; see brute_force_congruence."""
    x, y = r0
    g, u, v = _bezout(x, y)
    if g != 1:  # no T with det +-1 has r0 as a row
        return None
    (m00, m01), (m10, m11) = mm
    (t00, t01), (t10, t11) = tt
    eps = (m01 - m10) * (t01 - t10)  # det T of every witness
    w0, w1 = -eps * v, eps * u  # det (r0, w) = eps, and r1 = w + k r0
    sw = x * (2 * m00 * w0 + (m01 + m10) * w1) + y * ((m01 + m10) * w0 + 2 * m11 * w1)  # r0 S w^T
    c = w0 * (m00 * w0 + m01 * w1) + w1 * (m10 * w0 + m11 * w1)  # w M w^T
    # r0 S r1^T = sw + 2 k t00 must be t01 + t10
    if t00:
        k, rem = divmod(t01 + t10 - sw, 2 * t00)
    elif sw == t01 + t10:
        # then r1 M r1^T = c + k (t01 + t10), and t01 + t10 is odd
        k, rem = divmod(t11 - c, t01 + t10)
    else:
        return None
    if rem:
        return None
    r1 = (w0 + k * x, w1 + k * y)
    if (-bound <= r1[0] <= bound and -bound <= r1[1] <= bound
            and r1[0] * (m00 * r1[0] + m01 * r1[1]) + r1[1] * (m10 * r1[0] + m11 * r1[1]) == t11):
        return r1
    return None


def _congruence_2x2(mm: Sequence[Sequence[int]], tt: Sequence[Sequence[int]],
                    bound: int) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The 2x2 search of brute_force_congruence on plain rows: the first
    rows r0 = (x, y) with x <= 0 in ascending order, y solved for, each
    completed by _second_row.  Both forms must be Seifert forms."""
    (m00, m01), (m10, m11) = mm
    for x in range(-bound, 1):
        for y in _integer_roots(m11, x * (m01 + m10), m00 * x * x - tt[0][0], bound):
            r1 = _second_row(mm, tt, (x, y), bound)
            if r1 is not None:
                return (x, y), r1
    return None


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
    ascending order.  Row-major entry order is lexicographic order on
    the sequence of rows, so the first row that can be completed,
    completed by the least rows that do it, gives the lexicographically
    first witness.

    A 2x2 search solves for the second row, using what Seifert forms
    fix: M - M^T = e J with J = ((0, 1), (-1, 0)) and e = m01 - m10 = +-1,
    and T J T^T = det T J, so a witness has det T = eps = e e', where
    e' = t01 - t10, and the antisymmetric half of its off-diagonal
    equations holds by itself.  With T, -T is a witness too, so the first
    witness's first row r0 = (x, y) has x < 0 or is (0, -1), and only the
    rows with x <= 0 are tried.  A first row that is not primitive is
    skipped.  Otherwise extended Euclid gives u x + v y = 1, and every r1
    with det T = eps is w + k r0, where w = eps (-v, u).  The symmetric
    half, r0 S r1^T = r0 S w^T + 2 k t00 = t01 + t10 with S = M + M^T,
    fixes k by one exact division when t00 != 0.  When t00 = 0 it must
    hold as it is, and r1 M r1^T = w M w^T + k (t01 + t10) fixes k by one
    exact division by t01 + t10 = 2 t10 + e', which is odd.  The box and
    r1 M r1^T = target[1][1] are then checked: O(1) work per first row.

    A 4x4 search picks rows depth-first in order, dropping a row r as
    soon as r . (r_j M) or r . (r_j M^T) misses the target against an
    earlier row j, and returns the first complete T, whose det is +-1
    because det(M - M^T) = det(target - target^T) = 1.  Each time it
    tries the rows of one depth it counts them all, and it is refused
    once that count passes ORACLE_CHECKS.
    All arithmetic is on Python ints and therefore exact for entries of
    any size.  Matrices larger than 4x4 are rejected, and so is a bound
    giving more than ORACLE_ROWS candidate rows, (2*bound+1)^n.
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
    if n == 2:
        found = _congruence_2x2(mm, tt, bound)
        return None if found is None else CongruenceCertificate(found)

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

    work = 0

    def extend(i: int) -> tuple[tuple[int, ...], ...] | None:
        nonlocal work
        work += len(choices[i])
        if work > ORACLE_CHECKS:
            raise KnotError(
                f"oracle: search reached {work} row checks, over the limit of {ORACLE_CHECKS}"
            )
        for r in choices[i]:
            for j, (_, rm, rmt) in enumerate(chosen):
                if sum(map(mul, r, rm)) != tt[j][i] or sum(map(mul, r, rmt)) != tt[i][j]:
                    break
            else:
                if i == last:
                    return tuple(c[0] for c in chosen) + (r,)
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
