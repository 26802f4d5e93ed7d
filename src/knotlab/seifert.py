"""Seifert matrices and the moves that generate S-equivalence.

A Seifert matrix here is a square integer matrix M of even size 2g with
det(M - M^T) = 1.  That determinant condition says the associated
surface has one boundary component, and it is exactly what the
enlargement moves below must preserve.

Two moves and their inverses generate S-equivalence of Seifert matrices:

  * congruence by a unimodular integer matrix T:  M -> T M T^T,
  * enlargement of a 2g x 2g matrix to a (2g+2) x (2g+2) one by a new
    trivial row/column pair (in two mirror-image shapes, below).

The first enlargement shape appends, after the rows of M, a row of
zeros and then a row q_1 .. q_n, with corner block ((0,1),(0,0)) and
zero columns above it.  The second appends a zero column and then a
column q_1 .. q_n to the rows of M, with corner block ((0,0),(1,0)) and
zero rows below.  ``enlarge_first``/``enlarge_second`` build these.

Also here: the Alexander polynomial det(M - t M^T) normalized modulo
units, the signature of M + M^T, and the knot determinant
|det(M + M^T)|, all on Python ints through one exact path.

The Alexander polynomial takes g + 1 determinants (``int_det``).  Put
V = M - M^T, so det V = 1, and s = t / (1 - t); then
M - t M^T = (1 - t)(M + s V).  q(s) = det(M + s V) is unchanged by
s -> -1 - s, because M - V = M^T, so q(s) = R(s(s + 1)) for an integer
polynomial R of degree g with leading coefficient det V = 1.  Newton
interpolation on the integer nodes k(k + 1), k = 0 .. g, recovers R,
and as s(s + 1) = t / (1 - t)^2,
det(M - t M^T) = sum_j r_j t^j (1 - t)^(2(g - j)).  With
z^2 = t - 2 + t^-1 = t^-1 (1 - t)^2 this reads
t^-g det(M - t M^T) = sum_j r_j z^(2(g - j)), the Conway form: R's
coefficients, reversed, are the Conway coefficients, so a genus-one
form has a_2 = r_0 = q(0) = det M.

The signature takes one fraction-free symmetric (Bareiss) elimination
of S = M + M^T and no determinant.  Its pivots are the leading
principal minors D_k of S, so by Sylvester's law of inertia the
signature is sum_k sign(D_(k-1) D_k).  A zero pivot is repaired by a
congruence on the trailing block only, and the last pivot, det S, must
be odd, since det S = det(M - M^T) = 1 mod 2.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from .errors import KnotError, Value, value_text
from .laurent import LaurentPoly

Rows = Sequence[Sequence[int]]

# the most rows a SeifertMatrix or CongruenceCertificate may have, checked
# before its determinant.
# alexander takes g + 1 determinants, about n^4 steps, and signature one
# elimination, about n^3: at 64 rows (genus 32) alexander takes 0.3 s on a
# sparse block sum and 1.8 s on a dense congruent form, and signature 0.01 s
# and 0.03 s (2-vCPU Xeon), while a 1 MiB @file could hold a 724-row matrix.
MAX_SIZE = 64


def int_det(rows: Rows) -> int:
    """Exact determinant of an integer matrix: ad - bc for a 2x2 matrix,
    Bareiss elimination for a larger one.  Entries must be ints; a bool,
    float or string raises KnotError instead of being converted."""
    n = _int_square(rows, "int_det")
    if n == 0:
        return 1
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _int_square(rows: Rows, what: str) -> int:
    """The size of the square matrix ``rows``; KnotError unless it is a
    sequence of that many rows of that many ints each."""
    try:
        n = len(rows)
        square = all(len(r) == n for r in rows)
    except TypeError:  # the matrix or a row has no length
        raise KnotError(f"{what}: a matrix must be a sequence of rows") from None
    if not square:
        raise KnotError(f"{what}: matrix must be square")
    for row in rows:
        for x in row:
            # the type() test lets plain ints skip both isinstance calls
            if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
                raise KnotError(f"{what}: entries must be ints, got {value_text(x)}")
    return n


def _as_int_rows(rows: Rows, what: str) -> tuple[tuple[int, ...], ...]:
    _int_square(rows, what)
    return tuple(map(tuple, rows))


def _mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][x] * b[x][j] for x in range(k)) for j in range(m))
        for i in range(n)
    )


def _transpose(a):
    return tuple(zip(*a)) if a else ()


def _block_sum(a: Rows, b: Rows) -> tuple[tuple[int, ...], ...]:
    """The block-diagonal matrix a (+) b."""
    n, m = len(a), len(b)
    return tuple(tuple(r) + (0,) * m for r in a) + tuple((0,) * n + tuple(r) for r in b)


class CongruenceCertificate(Value):
    """A unimodular integer matrix T, witnessing M' = T M T^T.

    Construction rejects non-square and non-unimodular matrices, so any
    certificate object in circulation is a valid basis change.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Rows):
        rows = _as_int_rows(rows, "certificate")
        object.__setattr__(self, "rows", rows)
        if len(rows) > MAX_SIZE:
            raise KnotError(f"certificate: {len(rows)} rows, over the limit of {MAX_SIZE}")
        if int_det(rows) not in (1, -1):
            raise KnotError("certificate: matrix is not unimodular")

    @property
    def size(self) -> int:
        return len(self.rows)

    def apply(self, m: "SeifertMatrix") -> "SeifertMatrix":
        """The congruent matrix T M T^T."""
        if self.size != m.size:
            raise KnotError("certificate: size mismatch with matrix")
        return SeifertMatrix(_mat_mul(_mat_mul(self.rows, m.rows), _transpose(self.rows)))

    @classmethod
    def identity(cls, size: int) -> "CongruenceCertificate":
        if isinstance(size, bool) or not isinstance(size, int) or size < 0:
            raise KnotError("certificate: the size of an identity must be an int >= 0")
        if size > MAX_SIZE:
            raise KnotError(f"certificate: {value_text(size)} rows, over the limit of {MAX_SIZE}")
        return cls(tuple(tuple(int(i == j) for j in range(size)) for i in range(size)))

    def direct_sum(self, other: "CongruenceCertificate") -> "CongruenceCertificate":
        return CongruenceCertificate(_block_sum(self.rows, other.rows))

    def __str__(self) -> str:
        return format_matrix(self.rows)


class SeifertMatrix(Value):
    """Square integer matrix of even size with det(M - M^T) = 1.

    ``__init__`` stores the rows and ``__post_init__`` normalises and
    checks them; the check is looked up on the class at every
    construction, so a wrapper set there (``perfbench/spans.py`` counts
    matrix builds this way) sees each one.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Rows):
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):
        rows = _as_int_rows(self.rows, "seifert")
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n % 2:
            raise KnotError("seifert: size must be even")
        if n > MAX_SIZE:
            raise KnotError(f"seifert: {n} rows, over the limit of {MAX_SIZE}")
        skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
        d = int_det(skew)
        if d != 1:
            raise KnotError(f"seifert: det(M - M^T) = {value_text(d)}, must be 1")

    # -- basics -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def genus(self) -> int:
        return self.size // 2

    def __str__(self) -> str:
        return format_matrix(self.rows)


def format_matrix(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in r) + "]" for r in rows) + "]"


def parse_matrix(text: str) -> list[list[int]]:
    """Accept either the inline form [[0,2],[1,0]] or one row per line of
    whitespace-separated integers."""
    s = text.strip()
    if not s:
        raise KnotError("matrix: empty text")
    if s.startswith("["):
        import ast

        try:
            obj = ast.literal_eval(s)
        except SyntaxError as e:
            raise KnotError(f"matrix: bad literal ({e})") from None
        except (ValueError, TypeError, RecursionError):
            # literal_eval names the offending syntax node by its address,
            # which differs from run to run, and a long chain of unary
            # signs exhausts the parser's recursion
            raise KnotError("matrix: bad literal (expected rows of integers)") from None
        if not isinstance(obj, (list, tuple)) or not all(
            isinstance(r, (list, tuple)) for r in obj
        ):
            raise KnotError("matrix: expected a list of rows")
        rows = [list(r) for r in _as_int_rows(obj, "matrix")]
    else:
        rows = []
        for line in s.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([int(tok) for tok in line.replace(",", " ").split()])
            except ValueError:
                raise KnotError(f"matrix: bad row {value_text(line)}") from None
    if not rows or any(len(r) != len(rows) for r in rows):
        raise KnotError("matrix: rows must form a square matrix")
    return rows


# -- invariants of the form ---------------------------------------------------


def alexander(m: SeifertMatrix) -> LaurentPoly:
    """Alexander polynomial det(M - t M^T), normalized so the lowest
    exponent is 0 and the lowest coefficient is positive.

    The normalization makes the result a genuine S-equivalence invariant:
    det(M - t M^T) itself is only well defined up to units +-t^k.

    With V = M - M^T and s = t / (1 - t), M - t M^T = (1 - t)(M + s V).
    q(s) = det(M + s V) is unchanged by s -> -1 - s, because M - V = M^T,
    so q(s) = R(s(s + 1)) for an integer polynomial R of degree g whose
    leading coefficient is det V = 1.  R is interpolated from ``int_det``
    at the g + 1 nodes s = 0 .. g, where s(s + 1) = 0, 2, 6, ..; Newton's
    divided differences of an integer polynomial at integer nodes are
    integers, so a remainder, or a leading coefficient other than 1,
    means a wrong determinant and raises.  s(s + 1) = t / (1 - t)^2 then
    gives det(M - t M^T) = sum_j r_j t^j (1 - t)^(2(g - j)).  R's
    coefficients, reversed, are the Conway coefficients: for genus one
    a_2 = r_0 = det M.

    >>> trefoil = SeifertMatrix(((-1, 1), (0, -1)))
    >>> alexander(trefoil)
    LaurentPoly('1 - t + t^2')
    >>> alexander(enlarge_first(trefoil, (2, 3)))
    LaurentPoly('1 - t + t^2')
    """
    g = m.genus
    skew = [[x - y for x, y in zip(row, col)] for row, col in zip(m.rows, zip(*m.rows))]
    level = [
        int_det([[x + k * v for x, v in zip(row, vrow)] for row, vrow in zip(m.rows, skew)])
        for k in range(g + 1)
    ]
    newton = [level[0]]
    for order in range(1, g + 1):
        quotients = []
        for i, (lo, hi) in enumerate(zip(level, level[1:])):
            # the nodes (i + order)(i + order + 1) and i(i + 1) differ by this
            q, r = divmod(hi - lo, order * (2 * i + order + 1))
            if r:
                raise AssertionError(
                    f"alexander: divided difference of order {order} is not an integer")
            quotients.append(q)
        level = quotients
        newton.append(level[0])
    if newton[g] != 1:
        raise AssertionError(
            f"alexander: leading coefficient {value_text(newton[g])}, must be det(M - M^T) = 1")
    rs = [1]
    for k in reversed(range(g)):
        # rs * (u - k(k + 1)) + newton[k], Horner's rule on the Newton form
        node = k * (k + 1)
        rs = [newton[k] - node * rs[0]] + [lo - node * hi for lo, hi in zip(rs, rs[1:])] + [rs[-1]]
    coeffs = [0] * (2 * g + 1)
    for j, rj in enumerate(rs):
        e = 2 * (g - j)
        for i in range(e + 1):
            coeffs[j + i] += (-1) ** i * comb(e, i) * rj
    return LaurentPoly(dict(enumerate(coeffs))).normalize_units()


def _symmetrized(m: SeifertMatrix) -> list[list[int]]:
    n = m.size
    return [[m.rows[i][j] + m.rows[j][i] for j in range(n)] for i in range(n)]


def knot_determinant(m: SeifertMatrix) -> int:
    """|det(M + M^T)|, i.e. |Alexander at t = -1|."""
    return abs(int_det(_symmetrized(m)))


def signature(m: SeifertMatrix) -> int:
    """Signature of the symmetrized form S = M + M^T, from one
    fraction-free symmetric elimination of S and no determinant.

    The elimination's pivots D_1 .. D_n are the leading principal minors
    of S, so by Sylvester's law of inertia the signature is
    sum_k sign(D_(k-1) D_k) with D_0 = 1.  A zero pivot is repaired by a
    congruence on the trailing block, which changes neither the earlier
    minors nor the signature.  The last pivot is det S, which is odd
    because det S = det(M - M^T) = 1 mod 2; an even one raises.

    >>> trefoil = SeifertMatrix(((-1, 1), (0, -1)))
    >>> signature(trefoil)
    -2
    >>> signature(enlarge_first(trefoil, (2, 3)))
    -2
    """
    return _symmetric_signature(_symmetrized(m))


def _symmetric_signature(rows: Rows) -> int:
    """Signature of a symmetric integer matrix S with odd det S.

    Bareiss elimination: after step k the trailing block holds the minors
    of S bordered by its first k rows and columns, the pivot of step k is
    the leading principal minor D_k, and each division by D_(k-1) is
    exact.  ``_repair_pivot`` changes only rows and columns from k on,
    and the bordered minors follow it, as they are linear in each row
    and column of S.  A singular S, or an even det S, raises
    AssertionError.
    """
    a = [list(r) for r in rows]
    sig, prev = 0, 1
    while a:
        if not a[0][0]:
            _repair_pivot(a)
        p, top = a[0][0], a[0]
        sig += 1 if (p > 0) == (prev > 0) else -1
        a = [[(x * p - r[0] * y) // prev for x, y in zip(r[1:], top[1:])] for r in a[1:]]
        prev = p
    if not prev % 2:
        raise AssertionError(f"signature: det S = {value_text(prev)}, must be odd")
    return sig


def _repair_pivot(a: list[list[int]]) -> None:
    """Make a[0][0] nonzero by a congruence of the symmetric matrix a.

    Swap in a later nonzero diagonal entry, rows and columns together;
    with the whole diagonal zero, add row and column j to row and column
    0 for some a[0][j] != 0, which puts 2 a[0][j] on the diagonal.
    """
    for i in range(1, len(a)):
        if a[i][i]:
            a[0], a[i] = a[i], a[0]
            for row in a:
                row[0], row[i] = row[i], row[0]
            return
    for j in range(1, len(a)):
        if a[0][j]:
            a[0] = [x + y for x, y in zip(a[0], a[j])]
            for row in a:
                row[0] += row[j]
            return
    raise AssertionError("signature: a zero row, so the symmetric form is singular")


# -- enlargement --------------------------------------------------------------


def enlarge_first(m: SeifertMatrix, q: Sequence[int]) -> SeifertMatrix:
    """Enlarge by a new row pair below: a zero row, then the row q.

    The result E has E[i] = row i of M padded with (0, 0); row n is all
    zeros except E[n][n+1] = 1; row n+1 is q_1 .. q_n followed by (0, 0).
    """
    n = m.size
    if len(q) != n:
        raise KnotError(f"enlarge: need {n} twist entries, got {len(q)}")
    rows = [list(r) + [0, 0] for r in m.rows]
    rows.append([0] * n + [0, 1])
    rows.append(list(q) + [0, 0])
    return SeifertMatrix(tuple(tuple(r) for r in rows))


def enlarge_second(m: SeifertMatrix, q: Sequence[int]) -> SeifertMatrix:
    """Enlarge by a new column pair at the right: a zero column, then the
    column q, with corner block ((0,0),(1,0)) and zero rows below.  The
    transpose of :func:`enlarge_first` on M^T.
    """
    e = enlarge_first(SeifertMatrix(_transpose(m.rows)), q)
    return SeifertMatrix(_transpose(e.rows))


def connected_sum(a: SeifertMatrix, b: SeifertMatrix) -> SeifertMatrix:
    """Block sum M_a (+) M_b, the Seifert matrix of the connected sum."""
    return SeifertMatrix(_block_sum(a.rows, b.rows))
