"""Independent reference implementations used only by the tests.

Nothing here imports knotlab, and nothing shares algorithmic code with
it.  A polynomial is a plain ``{exponent: coefficient}`` dict with no
zero entries; a matrix is a tuple of rows.  What each oracle takes and
returns:

- ``naive_bracket(crossings)``: the bracket <D> of PD crossings, a dict
  in A, by enumerating all 2^c Kauffman states and counting loops with
  a union-find;
- ``tl_bracket(strands, word)``: the bracket of a braid closure, a dict
  in A, as a Markov trace in the Temperley-Lieb algebra;
- ``naive_contraction_order(crossings)``: the bracket sweep's order, a
  list of crossing indices, by rescanning every remaining crossing at
  each step of both its greedy runs;
- ``naive_step(key, state, smoothing)``: what one smoothing of one
  crossing of the bracket sweep does to one partial state, the
  successor matching (a tuple) and the loops it closes, by a union-find
  over the state's ends, the fresh ends and the crossing's four slots;
- ``convolve(p, q)``: the product of two dicts, by direct convolution
  on dense coefficient lists; ``normalized(p)``: p times the unit
  +-t^k that makes its lowest exponent 0 and lowest coefficient
  positive; ``invert(p)``: p(1/t); ``at_minus_one(p)``: p(-1), an int;
- ``lambda_jones(n, m, p)``: the Jones polynomial of lambda(n, m, p), a
  dict in t, from the family's closed form;
- ``parse_poly_text(text)``: the dict a polynomial's printed text form
  names, read token by token;
- ``naive_congruence`` and ``scan_congruence``: the first congruence
  witness, a tuple of rows or None, trying every bounded integer matrix
  or scanning every value of every row entry, with the Leibniz
  determinant ``leibniz_det`` (an int);
- ``published_rule(rows, ell, band)``: the first S-equivalence rule, a
  bool read off a form's four entries;
- ``naive_alexander(rows)``: det(M - t M^T), unnormalized, a dict in t,
  by a Leibniz expansion over polynomial entries;
- ``naive_signature(rows)``: the signature, an int, by rational pivoting
  on Schur complements;
- ``charpoly_signature(rows)``: the signature, an int, by Descartes' rule
  of signs on the characteristic polynomial of M + M^T, which the
  Faddeev-LeVerrier recurrence computes on ints.

Slow on purpose; keep inputs small.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from operator import mul


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _nonzero(p: dict[int, int]) -> dict[int, int]:
    return {e: c for e, c in p.items() if c}


def naive_bracket(crossings) -> dict[int, int]:
    """<D> by brute force over all smoothings, as {exponent: coefficient}
    in A."""
    if not crossings:
        return {0: 1}
    arcs = {a for x in crossings for a in x}
    total: dict[int, int] = {}
    for choice in itertools.product((0, 1), repeat=len(crossings)):
        uf = UnionFind(arcs)
        exponent = 0
        for pick, (a, b, c, d) in zip(choice, crossings):
            if pick == 0:  # A-smoothing joins (a,b) and (c,d)
                exponent += 1
                uf.union(a, b)
                uf.union(c, d)
            else:  # B-smoothing joins (a,d) and (b,c)
                exponent -= 1
                uf.union(a, d)
                uf.union(b, c)
        loops = len({uf.find(a) for a in arcs})
        _accumulate(total, {exponent: 1}, 0, loops - 1)
    return _nonzero(total)


def naive_contraction_order(crossings) -> list[int]:
    """The bracket sweep's order, found by rescanning every remaining
    crossing at each step.  The greedy runs twice.  Each step takes a
    crossing after which the fewest arcs are open; a tie goes to the
    lowest index in the first run, and in the second to the crossing
    whose count last changed longest ago (never changed first, by
    index).  The run kept is the one whose open-arc counts after each
    step have the lower peak, then the lower sum, the first on a full
    tie.  O(c^2) set work."""
    runs = [_naive_greedy(crossings, waited) for waited in (False, True)]
    profiles = [(max(counts), sum(counts)) for _, counts in runs]
    return runs[1][0] if profiles[1] < profiles[0] else runs[0][0]


def _naive_greedy(crossings, waited: bool) -> tuple[list[int], list[int]]:
    """One greedy run: the order and the open-arc count after each step."""
    remaining = set(range(len(crossings)))
    open_arcs: set[int] = set()
    pending: dict[int, int] = {}
    at: dict[int, list[int]] = {}
    for ci, x in enumerate(crossings):
        for a in x:
            pending[a] = pending.get(a, 0) + 1
            at.setdefault(a, []).append(ci)
    # when each crossing's count last changed: never, or the n-th change
    since = {ci: (0, ci) for ci in remaining}
    changes = 0
    order, counts = [], []
    while remaining:
        best = best_key = None
        for ci in sorted(remaining):
            touched = set(crossings[ci])
            closed = sum(
                1 for a in touched if pending[a] - crossings[ci].count(a) == 0
            )
            cost = len(open_arcs | touched) - closed
            key = (cost, since[ci]) if waited else (cost,)
            if best_key is None or key < best_key:
                best, best_key = ci, key
        order.append(best)
        counts.append(best_key[0])
        remaining.discard(best)
        for a in crossings[best]:
            pending[a] -= 1
            # the count of the crossing at the arc's other end falls by 2
            for cj in at[a]:
                if cj != best and cj in remaining:
                    changes += 1
                    since[cj] = (1, changes)
        open_arcs |= set(crossings[best])
        open_arcs = {a for a in open_arcs if pending[a] > 0}
    return order, counts


def naive_step(key, state, smoothing: int) -> tuple[tuple[int, ...], int]:
    """One smoothing (0 for A, 1 for B) of one crossing of the bracket
    sweep, applied to one partial state: the successor matching and the
    number of loops closed.

    ``key`` is ``(size, e0, e1, e2, e3)``: the boundary length and, for
    each slot of the crossing, the boundary position of its arc's open
    end (a swept end), size + j when the arc's far end becomes the j-th
    fresh end, or -1 - d when the arc runs to slot (slot + d) mod 4 of
    the same crossing.  ``state[k]`` is the position matched with
    position k.  The new boundary keeps the old positions that are not
    swept, in order, with the fresh ends put in place of the first swept
    one (at the end when none is).  Every piece of string is one set of
    a union-find over the old positions, the fresh ends and the slots;
    a set that holds no end of the new boundary is a closed loop."""
    size, shape = key[0], key[1:]
    swept = sorted(k for k in shape if 0 <= k < size)
    fresh = sorted(k - size for k in shape if k >= size)
    uf = UnionFind([("old", k) for k in range(size)] + [("fresh", j) for j in fresh]
                   + [("slot", s) for s in range(4)])
    for k in range(size):
        uf.union(("old", k), ("old", state[k]))
    for s, k in enumerate(shape):
        if k >= size:
            uf.union(("slot", s), ("fresh", k - size))
        elif k >= 0:
            uf.union(("slot", s), ("old", k))
        else:
            uf.union(("slot", s), ("slot", (s - 1 - k) % 4))
    ties = ((0, 1), (2, 3)) if smoothing == 0 else ((0, 3), (1, 2))
    for s, t in ties:
        uf.union(("slot", s), ("slot", t))
    kept = [("old", k) for k in range(size) if k not in swept]
    at = swept[0] if swept else size
    boundary = kept[:at] + [("fresh", j) for j in fresh] + kept[at:]
    ends: dict = {}
    for position, end in enumerate(boundary):
        ends.setdefault(uf.find(end), []).append(position)
    successor = [0] * len(boundary)
    for pair in ends.values():
        if len(pair) != 2:
            raise AssertionError(f"naive_step: a piece of string with {len(pair)} ends")
        successor[pair[0]], successor[pair[1]] = pair[1], pair[0]
    loops = {uf.find(x) for x in uf.parent} - set(ends)
    return tuple(successor), len(loops)


def convolve(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """Product via dense coefficient lists."""
    if not p or not q:
        return {}
    plo, qlo = min(p), min(q)
    pa = [p.get(plo + i, 0) for i in range(max(p) - plo + 1)]
    qa = [q.get(qlo + i, 0) for i in range(max(q) - qlo + 1)]
    out = [0] * (len(pa) + len(qa) - 1)
    for i, ci in enumerate(pa):
        for j, cj in enumerate(qa):
            out[i + j] += ci * cj
    return {plo + qlo + k: c for k, c in enumerate(out) if c}


def normalized(p: dict[int, int]) -> dict[int, int]:
    """p times the unit +-t^k that makes its lowest exponent 0 and its
    lowest coefficient positive; {} stays {}."""
    if not p:
        return {}
    low = min(p)
    sign = 1 if p[low] > 0 else -1
    return {e - low: sign * c for e, c in p.items()}


def invert(p: dict[int, int]) -> dict[int, int]:
    """Substitute t -> 1/t."""
    return {-e: c for e, c in p.items()}


def at_minus_one(p: dict[int, int]) -> int:
    return sum(c if e % 2 == 0 else -c for e, c in p.items())


def lambda_jones(n: int, m: int, p: int) -> dict[int, int]:
    """The Jones polynomial of lambda(n, m, p), as {exponent: coefficient}
    in t, from the family's closed form: for p > 0,

        (t+1)^2 V = t + (t^2+t+1)(t^n + t^m) - (t^2+1)(t^2+t+1) t^(n+m-p-1)
                    + (t^2+t+1) t^(n+m-2p),

    divided exactly by t + 1 twice; for p < 0, V(lambda(n, m, p))(t) =
    V(lambda(-n, -m, -p))(1/t), the mirror.  Raises ArithmeticError on a
    remainder."""
    if p < 0:
        return {-e: c for e, c in lambda_jones(-n, -m, -p).items()}
    q = {0: 1, 1: 1, 2: 1}
    rhs: dict[int, int] = {1: 1}
    for term in (convolve(q, {n: 1}), convolve(q, {m: 1}),
                 convolve({0: -1, 2: -1}, convolve(q, {n + m - p - 1: 1})),
                 convolve(q, {n + m - 2 * p: 1})):
        for e, c in term.items():
            rhs[e] = rhs.get(e, 0) + c
    return _over_t_plus_one(_over_t_plus_one(_nonzero(rhs)))


def _over_t_plus_one(r: dict[int, int]) -> dict[int, int]:
    """r / (t + 1), by synthetic division from the lowest exponent up:
    q_e = r_e - q_(e-1), and the top coefficient must be the last q."""
    if not r:
        return {}
    low, high = min(r), max(r)
    out, carry = {}, 0
    for e in range(low, high):
        carry = r.get(e, 0) - carry
        if carry:
            out[e] = carry
    if r[high] != carry:
        raise ArithmeticError("lambda_jones: not divisible by t + 1")
    return out


_TERM = re.compile(r"([+-]?)(\d*)(t(?:\^(-?\d+))?)?")


def parse_poly_text(text: str) -> dict[int, int]:
    """The {exponent: coefficient} dict that the printed text form of a
    polynomial in t names, e.g. ``-t^-4 + t^-3 + 2``: split into signed
    terms, each ``[digits][t[^exponent]]``.  Raises ValueError on a term
    of another shape."""
    tokens = text.replace("+ ", "+").replace("- ", "-").split()
    out: dict[int, int] = {}
    for token in tokens:
        found = _TERM.fullmatch(token)
        if not found or not (found[2] or found[3]):
            raise ValueError(f"parse_poly_text: bad term {token!r}")
        sign, digits, var, power = found.groups()
        coeff = int(digits or 1) * (-1 if sign == "-" else 1)
        exp = int(power) if power else 1 if var else 0
        out[exp] = out.get(exp, 0) + coeff
    return _nonzero(out)


def _perm_sign(perm) -> int:
    n = len(perm)
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    return -1 if inversions % 2 else 1


def leibniz_det(a) -> int:
    """Determinant as the signed sum over all permutations."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = _perm_sign(perm)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def naive_congruence(m, target, bound: int):
    """First T in row-major lexicographic order with entries in
    [-bound, bound], det T = +-1 and T M T^T = target, or None.  Takes
    and returns plain tuples of rows; tries all (2b+1)^(n^2) matrices."""
    n = len(m)
    for entries in itertools.product(range(-bound, bound + 1), repeat=n * n):
        t = [entries[i * n:(i + 1) * n] for i in range(n)]
        if leibniz_det(t) not in (1, -1):
            continue
        if all(
            sum(t[i][k] * m[k][l] * t[j][l] for k in range(n) for l in range(n))
            == target[i][j]
            for i in range(n)
            for j in range(n)
        ):
            return tuple(tuple(r) for r in t)
    return None


def published_rule(rows, ell: int, band: str) -> bool:
    """The published first-S-equivalence rule, read off the four entries
    of a genus-one form given as plain rows: its ell-twist on ``band`` is
    congruent to it exactly when ell = 0, or the other band's diagonal
    entry is 0 and s = a12 + a21 divides ell."""
    (a11, a12), (a21, a22) = rows
    other = a22 if band == "first" else a11
    return ell == 0 or (other == 0 and ell % (a12 + a21) == 0)


def scan_congruence(m, target, bound: int):
    """The same first witness as ``naive_congruence``, found by a
    row-pruned search: grow every candidate row entry by entry, scanning
    all 2b+1 values of each, keep the rows r with r M r^T on the
    target's diagonal, and pick rows depth-first, dropping one as soon as
    it misses an off-diagonal target entry against an earlier row.  Takes
    and returns plain tuples of rows; (2b+1)^n rows."""
    n = len(m)
    if n == 0:
        return ()
    diagonal = {target[i][i] for i in range(n)}
    sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    grown = [((), 0)]
    for i in range(n):
        prefixes, grown = grown, []
        last = i == n - 1
        for p, q in prefixes:
            lin = sum(map(mul, p, sym[i]))
            for x in range(-bound, bound + 1):
                value = q + x * (lin + m[i][i] * x)
                if not last or value in diagonal:
                    grown.append((p + (x,), value))
    columns = list(zip(*m))
    rows_by_value = {}
    for r, value in grown:
        v = [sum(map(mul, r, c)) for c in columns]
        rows_by_value.setdefault(value, []).append((r, v))
    choices = [rows_by_value.get(target[i][i], []) for i in range(n)]

    chosen = []

    def extend(i):
        if i == n:
            rows = tuple(r for r, _ in chosen)
            return rows if leibniz_det(rows) in (1, -1) else None
        for r, v in choices[i]:
            for j, (rj, vj) in enumerate(chosen):
                if sum(map(mul, vj, r)) != target[j][i] or sum(map(mul, v, rj)) != target[i][j]:
                    break
            else:
                chosen.append((r, v))
                found = extend(i + 1)
                chosen.pop()
                if found is not None:
                    return found
        return None

    return extend(0)


def naive_alexander(m) -> dict[int, int]:
    """det(M - t M^T) for a tuple of rows M, unnormalized, as {exponent:
    coefficient} in t: the signed sum over all permutations, each term a
    product of linear entries taken with ``convolve``.  n! terms."""
    n = len(m)
    entries = [[_nonzero({0: m[i][j], 1: -m[j][i]}) for j in range(n)] for i in range(n)]
    total: dict[int, int] = {}
    for perm in itertools.permutations(range(n)):
        term = {0: _perm_sign(perm)}
        for i, j in enumerate(perm):
            term = convolve(term, entries[i][j])
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return _nonzero(total)


def naive_signature(m) -> int:
    """Signature of M + M^T for a tuple of rows M.  Pick a nonzero
    diagonal pivot (if the diagonal is zero, first change basis
    e_i -> e_i + e_j for a nonzero off-diagonal entry, which puts
    2 s_ij on the diagonal), count its sign, and recurse on the
    rational Schur complement."""
    n = len(m)
    s = [[Fraction(m[i][j] + m[j][i]) for j in range(n)] for i in range(n)]
    sig = 0
    while s:
        size = len(s)
        p = next((i for i in range(size) if s[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in range(size) for j in range(size) if s[i][j]), None)
            if pair is None:
                break
            p, j = pair
            s[p] = [x + y for x, y in zip(s[p], s[j])]
            for row in s:
                row[p] += row[j]
        d = s[p][p]
        sig += 1 if d > 0 else -1
        s = [
            [s[i][j] - s[i][p] * s[p][j] / d for j in range(size) if j != p]
            for i in range(size)
            if i != p
        ]
    return sig


def charpoly_signature(m) -> int:
    """Signature of S = M + M^T for a tuple of rows M.  The
    Faddeev-LeVerrier recurrence gives det(x I - S): with N_0 = 0 and
    c_n = 1, N_k = S N_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(S N_k) / k,
    a division that is exact for an integer matrix (a remainder raises).
    Every root is real, so Descartes' rule is exact: the sign changes of
    p(x) count the positive roots and those of p(-x) the negative ones."""
    n = len(m)
    s = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    high_first = [1]
    prod = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        prod = [
            [sum(s[i][x] * prod[x][j] for x in range(n)) + (high_first[-1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        trace = sum(s[i][x] * prod[x][i] for i in range(n) for x in range(n))
        c, r = divmod(-trace, k)
        if r:
            raise AssertionError(f"charpoly: trace {trace} at step {k} is not divisible by {k}")
        high_first.append(c)
    coeffs = high_first[::-1]

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return sign_changes(coeffs) - sign_changes([-c if k % 2 else c for k, c in enumerate(coeffs)])


def tl_bracket(strands: int, word) -> dict[int, int]:
    """<closure of a braid> as the Markov trace in the Temperley-Lieb
    algebra TL_n (Jones, Bull. AMS 1985), for a word of
    ``(generator, over)`` letters, over in {"L", "R"}.

    An element is a dict from non-crossing matchings of the 2n points
    (top 0..n-1, bottom n..2n-1, as a tuple of partners) to polynomials
    in A, kept as {exponent: coefficient}.  It starts at the identity and
    is multiplied on the bottom by sigma_i = A 1 + A^-1 e_i for "L" and
    sigma_i^-1 = A^-1 1 + A e_i for "R".  Multiplying a matching by e_i
    joins its bottom points i and i+1 through a cap and gives it a new
    cup there: when they were partners that closes a loop, a factor
    delta = -A^2 - A^-2.  The trace joins top j to bottom j and takes
    delta^(loops - 1).  Dimension Catalan(n); keep n small."""
    n = strands
    element = {tuple(range(n, 2 * n)) + tuple(range(n)): {0: 1}}
    for g, over in word:
        one, cup = (1, -1) if over == "L" else (-1, 1)
        i, j = n + g, n + g + 1
        out: dict = {}
        for m, poly in element.items():
            _accumulate(out.setdefault(m, {}), poly, one, 0)
            if m[i] == j:
                _accumulate(out[m], poly, cup, 1)
            else:
                joined = list(m)
                a, b = m[i], m[j]
                joined[a], joined[b] = b, a
                joined[i], joined[j] = j, i
                _accumulate(out.setdefault(tuple(joined), {}), poly, cup, 0)
        element = out

    total: dict[int, int] = {}
    for m, poly in element.items():
        seen = [False] * (2 * n)
        loops = 0
        for start in range(n):
            if not seen[start]:
                loops += 1
                p = start
                while not seen[p]:
                    seen[p] = True
                    q = m[p]
                    seen[q] = True
                    p = q - n if q >= n else q + n
        _accumulate(total, poly, 0, loops - 1)
    return _nonzero(total)


def _accumulate(into: dict[int, int], poly: dict[int, int], shift: int, loops: int) -> None:
    """into += poly * A^shift * (-A^2 - A^-2)^loops, the power expanded by
    the binomial theorem; all as {exponent: coefficient}."""
    factor = {2 * loops - 4 * k: (-1) ** loops * math.comb(loops, k) for k in range(loops + 1)}
    for e, c in poly.items():
        for de, dc in factor.items():
            into[e + shift + de] = into.get(e + shift + de, 0) + c * dc
