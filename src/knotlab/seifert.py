"""Seifert matrices and the moves that generate S-equivalence.

A Seifert matrix here is a square integer matrix M of even size 2g with
det(M - M^T) = 1.  That determinant condition says the associated
surface has one boundary component, and it is exactly what the
enlargement moves below must preserve.

Three moves generate S-equivalence of Seifert matrices:

  * congruence by a unimodular integer matrix T:  M -> T M T^T,
  * enlargement of a 2g x 2g matrix to a (2g+2) x (2g+2) one by a new
    trivial row/column pair (in two mirror-image shapes, below),
  * the inverse reduction.

The first enlargement shape appends, after the rows of M, a row of
zeros and then a row q_1 .. q_n, with corner block ((0,1),(0,0)) and
zero columns above it.  The second appends a zero column and then a
column q_1 .. q_n to the rows of M, with corner block ((0,0),(1,0)) and
zero rows below.  ``enlarge_first``/``enlarge_second`` build these and
``try_reduce`` inverts them when the pattern is present.

Also here: the Alexander polynomial det(M - t M^T) normalized modulo
units, the signature of M + M^T, and the knot determinant
|det(M + M^T)|.  Both polynomial invariants come from one exact path:
``int_det`` at the integer points x = 0 .. n, then Newton interpolation
on the integers.  The signature counts the positive and negative roots
of the characteristic polynomial of M + M^T by Descartes' rule of
signs, which is exact because a symmetric matrix has only real
eigenvalues.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import KnotError, Value, value_text
from .laurent import LaurentPoly

Rows = Sequence[Sequence[int]]

# the most rows a SeifertMatrix or CongruenceCertificate may have, checked
# before its determinant.
# alexander and signature take about n^4 steps: at 64 rows (genus 32) each
# takes 0.6 s on a sparse block sum and 2 s on a dense congruent form
# (2-vCPU Xeon), while a 1 MiB @file could hold a 724-row matrix.
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


def _det_poly(a: Rows, b: Rows) -> list[int]:
    """Integer coefficients of det(a + x b), lowest degree first.

    Evaluates ``int_det`` at x = 0 .. n and interpolates.  Row k of the
    difference table holds Delta^k p(x) / k! at x = 0 .. n - k, which is
    an integer for an integer polynomial p, so each row divides the
    differences of the row before exactly by k; a remainder means a
    wrong determinant and raises.  Horner's rule then expands the Newton
    form p(x) = sum_k (Delta^k p(0) / k!) x (x-1) .. (x-k+1).
    """
    n = len(a)
    level = [
        int_det([[a[i][j] + x * b[i][j] for j in range(n)] for i in range(n)])
        for x in range(n + 1)
    ]
    newton = [level[0]]
    for k in range(1, n + 1):
        quotients = []
        for lo, hi in zip(level, level[1:]):
            q, r = divmod(hi - lo, k)
            if r:
                raise AssertionError(f"det_poly: difference of order {k} not divisible by {k}")
            quotients.append(q)
        level = quotients
        newton.append(level[0])
    coeffs = [newton[n]]
    for k in reversed(range(n)):
        # coeffs * (x - k) + newton[k]
        coeffs = (
            [newton[k] - k * coeffs[0]]
            + [lo - k * hi for lo, hi in zip(coeffs, coeffs[1:])]
            + [coeffs[-1]]
        )
    return coeffs


def alexander(m: SeifertMatrix) -> LaurentPoly:
    """Alexander polynomial det(M - t M^T), normalized so the lowest
    exponent is 0 and the lowest coefficient is positive.

    The normalization makes the result a genuine S-equivalence invariant:
    det(M - t M^T) itself is only well defined up to units +-t^k.
    """
    minus_t = [[-x for x in col] for col in zip(*m.rows)]
    coeffs = _det_poly(m.rows, minus_t)
    return LaurentPoly(dict(enumerate(coeffs))).normalize_units()


def _symmetrized(m: SeifertMatrix) -> list[list[int]]:
    n = m.size
    return [[m.rows[i][j] + m.rows[j][i] for j in range(n)] for i in range(n)]


def knot_determinant(m: SeifertMatrix) -> int:
    """|det(M + M^T)|, i.e. |Alexander at t = -1|."""
    return abs(int_det(_symmetrized(m)))


def _sign_changes(coeffs: list[int]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def signature(m: SeifertMatrix) -> int:
    """Signature of the symmetrized form S = M + M^T.

    The characteristic polynomial det(x I - S) has only real roots, so
    Descartes' rule of signs counts them exactly: its sign changes give
    the positive roots, those of p(-x) the negative ones.  det S is odd
    (it is det(M - M^T) = 1 mod 2), so no root is zero.
    """
    n = m.size
    minus_s = [[-x for x in row] for row in _symmetrized(m)]
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    charpoly = _det_poly(minus_s, identity)
    mirrored = [-c if k % 2 else c for k, c in enumerate(charpoly)]
    return _sign_changes(charpoly) - _sign_changes(mirrored)


# -- enlargement and reduction -------------------------------------------------


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


def _has_first_template(r: Rows) -> bool:
    """The last two rows are (0..0, 0, 1) and (q, 0, 0), with zero
    columns above them."""
    n = len(r) - 2
    return (
        all(x == 0 for x in r[n][:n])
        and r[n][n:] == (0, 1)
        and r[n + 1][n:] == (0, 0)
        and all(r[i][n] == 0 and r[i][n + 1] == 0 for i in range(n))
    )


def try_reduce(m: SeifertMatrix) -> tuple[SeifertMatrix, str] | None:
    """Undo one enlargement if the last two rows/columns match either
    template exactly.  Returns (inner matrix, "first" | "second"), or
    None when neither template is present.  The second template is the
    first one on M^T.
    """
    n = m.size - 2
    if n < 0:
        return None
    for band, rows in (("first", m.rows), ("second", _transpose(m.rows))):
        if _has_first_template(rows):
            return SeifertMatrix(tuple(r[:n] for r in m.rows[:n])), band
    return None


def connected_sum(a: SeifertMatrix, b: SeifertMatrix) -> SeifertMatrix:
    """Block sum M_a (+) M_b, the Seifert matrix of the connected sum."""
    return SeifertMatrix(_block_sum(a.rows, b.rows))
