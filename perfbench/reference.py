"""Reference answers for the benchmark's correctness gate.

Nothing here imports knotlab.  Every check the benchmark makes compares
the package's output against a value computed in this file by a
different route: closed forms for genus-one Seifert forms, small-matrix
arithmetic on plain lists, and a parser for the package's polynomial
text that shares no code with ``knotlab.laurent``.
"""

from __future__ import annotations

import re

# -- polynomials as {exponent: coefficient} dicts -------------------------------


def poly_mul(p: dict, q: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def normalize(p: dict) -> dict:
    """Lowest exponent 0 and lowest coefficient positive."""
    if not p:
        return {}
    low = min(p)
    sign = 1 if p[low] > 0 else -1
    return {e - low: sign * c for e, c in p.items()}


def at_one(p: dict) -> int:
    return sum(p.values())


def at_minus_one(p: dict) -> int:
    return sum(c if e % 2 == 0 else -c for e, c in p.items())


def invert(p: dict) -> dict:
    """Substitute t -> 1/t."""
    return {-e: c for e, c in p.items()}


_TERM = re.compile(r"^([+-]?)(\d*)(t(?:\^(-?\d+))?)?$")


def parse_poly_text(text: str) -> dict:
    """Read the text form the command line prints, e.g. ``-t^-4 + t^-3 + 2``."""
    tokens = text.replace("+ ", "+").replace("- ", "-").split()
    out: dict[int, int] = {}
    for tok in tokens:
        m = _TERM.match(tok)
        if not m or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad polynomial term {tok!r}")
        coeff = int(m.group(2)) if m.group(2) else 1
        if m.group(1) == "-":
            coeff = -coeff
        exp = 0 if not m.group(3) else int(m.group(4)) if m.group(4) else 1
        out[exp] = out.get(exp, 0) + coeff
    return {e: c for e, c in out.items() if c}


# -- genus-one Seifert forms -----------------------------------------------------


def lambda_matrix(n: int, m: int, p: int) -> tuple:
    """The closed-form Seifert matrix of lambda(n, m, p)."""
    return ((-n // 2, (p + 1) // 2), ((p - 1) // 2, -m // 2))


def genus_one_invariants(rows) -> tuple[dict, int, int]:
    """(normalized Alexander polynomial, signature, determinant) of a
    genus-one form ((a, b), (c, d)) with |b - c| = 1.

    With D = ad - bc: det(M - tM^T) = D - (2D - 1) t + D t^2, and
    M + M^T = ((2a, b + c), (b + c, 2d)) has determinant 4D - 1.
    """
    (a, b), (c, d) = rows
    big_d = a * d - b * c
    alex = {0: 1} if big_d == 0 else normalize({0: big_d, 1: 1 - 2 * big_d, 2: big_d})
    sym_det = 4 * big_d - 1
    sig = 0 if sym_det < 0 else (2 if a > 0 else -2)
    return alex, sig, abs(sym_det)


def twist(rows, ell: int, band: str) -> tuple:
    (a, b), (c, d) = rows
    if band == "first":
        return ((a - ell, b), (c, d))
    return ((a, b), (c, d - ell))


def first_sequiv_expected(rows, ell: int, band: str) -> bool:
    """The published criterion: ell = 0, or the other diagonal entry is 0
    and s = a12 + a21 divides ell."""
    (a, b), (c, d) = rows
    other = d if band == "first" else a
    return ell == 0 or (other == 0 and ell % abs(b + c) == 0)


# -- small integer matrices --------------------------------------------------------


def matmul(x, y) -> tuple:
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0])))
        for i in range(len(x))
    )


def transpose(x) -> tuple:
    return tuple(zip(*x))


def det(x) -> int:
    """Laplace expansion along the first row; meant for n <= 4."""
    n = len(x)
    if n == 1:
        return x[0][0]
    total = 0
    for j in range(n):
        if x[0][j]:
            minor = [row[:j] + row[j + 1:] for row in x[1:]]
            total += (-1) ** j * x[0][j] * det(minor)
    return total


def is_congruence(t, m, target) -> bool:
    """det T = +-1 and T M T^T = target, on plain tuples."""
    t = tuple(tuple(r) for r in t)
    return abs(det(t)) == 1 and matmul(matmul(t, m), transpose(t)) == tuple(
        tuple(r) for r in target
    )


def block_sum(blocks) -> tuple:
    size = sum(len(b) for b in blocks)
    rows = []
    off = 0
    for b in blocks:
        for r in b:
            rows.append((0,) * off + tuple(r) + (0,) * (size - off - len(b)))
        off += len(b)
    return tuple(rows)
