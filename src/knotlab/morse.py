"""Bottom-up diagram assembly from caps, cups and crossings.

A builder keeps a left-to-right frontier of open strand ends and grows
the picture one tile at a time:

  * ``cap(i)``     inserts a local minimum (two new ends) at position i,
  * ``cup(i)``     joins the ends at positions i and i+1 over a maximum,
  * ``crossing(i)`` crosses the strands at positions i and i+1, with
                    ``over="L"`` when the strand entering from the lower
                    left passes over, ``over="R"`` otherwise.

Arc bookkeeping matches planar-diagram conventions: only crossings cut
arcs, so a cap is one arc and a cup merges two.  Strand directions are
solved globally: every cap introduces one orientation bit, cups force
opposite directions where ends meet, and any bit still free after
propagation is fixed arbitrarily (for a knot the choice cannot affect
any invariant computed here).  A cap may pin its bit via ``flow``:
``"lr"`` runs through the bottom of the cap left to right, ``"rl"`` the
reverse.  Caps also carry a curve label so multi-curve pictures can be
built; ``linking_number`` counts signed crossings between two labels.

``to_pd`` emits standard ``X[a,b,c,d]`` quadruples (counterclockwise
from the incoming under-strand) for single-curve pictures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import KnotError

__all__ = ["MorseBuilder"]

UP, DOWN = 0, 1

# direction of travel at each port, for crossing signs
_IN_VECTOR = {
    "BL": (1, 1),
    "AR": (-1, -1),
    "BR": (-1, 1),
    "AL": (1, -1),
}
_CCW = {"BL": ("BL", "BR", "AR", "AL"),
        "BR": ("BR", "AR", "AL", "BL"),
        "AR": ("AR", "AL", "BL", "BR"),
        "AL": ("AL", "BL", "BR", "AR")}


@dataclass
class _Slot:
    arc: int
    var: int      # orientation bit
    parity: int   # direction = value(var) XOR parity; 0 means up
    label: str


@dataclass
class _Record:
    ports: dict  # port name -> arc id (pre-merge)
    over: str    # "L": BL-AR strand is over; "R": BR-AL strand is over
    left_ref: tuple[int, int]   # (var, parity) of the lower-left strand
    right_ref: tuple[int, int]
    left_label: str
    right_label: str


class _Parity:
    """Union-find tracking XOR relations between bits."""

    def __init__(self):
        self.parent: list[int] = []
        self.rel: list[int] = []

    def make(self) -> int:
        self.parent.append(len(self.parent))
        self.rel.append(0)
        return len(self.parent) - 1

    def find(self, v: int) -> tuple[int, int]:
        """(root, parity of v relative to the root); points every bit on
        the way straight at the root."""
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        p = 0
        for u in reversed(path):
            p ^= self.rel[u]
            self.parent[u] = v
            self.rel[u] = p
        return v, p

    def union(self, a: int, b: int, parity: int) -> None:
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        want = pa ^ pb ^ parity
        if ra == rb:
            if want:
                raise KnotError("morse: strand orientations conflict")
            return
        self.parent[ra] = rb
        self.rel[ra] = want


class _ArcSets:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def make(self) -> int:
        i = len(self.parent)
        self.parent[i] = i
        return i

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # keep the smaller id so numbering follows creation order
        lo, hi = min(ra, rb), max(ra, rb)
        self.parent[hi] = lo
        return True


class MorseBuilder:
    def __init__(self):
        self._front: list[_Slot] = []
        self._arcs = _ArcSets()
        self._bits = _Parity()
        self._pins: list[tuple[int, int]] = []  # (var, value)
        self._records: list[_Record] = []
        self.free_circles = 0
        self._finished = False

    # -- tiles -------------------------------------------------------------

    def cap(self, i: int, flow: str | None = None, label: str = "K") -> None:
        self._check_open(i, insert=True)
        arc = self._arcs.make()
        var = self._bits.make()
        if flow is not None:
            if flow not in ("lr", "rl"):
                raise KnotError(f"morse: flow must be 'lr' or 'rl', got {flow!r}")
            # value 1 makes the left end flow down, i.e. travel left-to-right
            self._pins.append((var, 1 if flow == "lr" else 0))
        self._front[i:i] = [_Slot(arc, var, 0, label), _Slot(arc, var, 1, label)]

    def cup(self, i: int) -> None:
        self._check_open(i, width=2)
        a, b = self._front[i], self._front[i + 1]
        self._bits.union(a.var, b.var, a.parity ^ b.parity ^ 1)
        if not self._arcs.union(a.arc, b.arc):
            self.free_circles += 1
        del self._front[i:i + 2]

    def crossing(self, i: int, over: str = "L") -> None:
        if over not in ("L", "R"):
            raise KnotError(f"morse: over must be 'L' or 'R', got {over!r}")
        self._check_open(i, width=2)
        left, right = self._front[i], self._front[i + 1]
        al = self._arcs.make()
        ar = self._arcs.make()
        self._records.append(
            _Record(
                ports={"BL": left.arc, "BR": right.arc, "AL": al, "AR": ar},
                over=over,
                left_ref=(left.var, left.parity),
                right_ref=(right.var, right.parity),
                left_label=left.label,
                right_label=right.label,
            )
        )
        # lower-left strand exits upper-right and vice versa
        self._front[i] = _Slot(al, right.var, right.parity, right.label)
        self._front[i + 1] = _Slot(ar, left.var, left.parity, left.label)

    def _check_open(self, i: int, width: int = 1, insert: bool = False) -> None:
        if self._finished:
            raise KnotError("morse: builder already finished")
        if insert:
            if not 0 <= i <= len(self._front):
                raise KnotError(f"morse: cap position {i} out of range")
        elif not 0 <= i <= len(self._front) - width:
            raise KnotError(f"morse: position {i} out of range")

    # -- resolution ----------------------------------------------------------

    def finish(self) -> list[dict]:
        """Close the build and return one dict per crossing with resolved
        arcs, the under-entry port, the sign, and the two curve labels."""
        if self._front:
            raise KnotError(f"morse: {len(self._front)} strand ends still open")
        self._finished = True
        values: dict[int, int] = {}
        for var, val in self._pins:
            root, p = self._bits.find(var)
            want = val ^ p
            if values.setdefault(root, want) != want:
                raise KnotError("morse: orientation pins conflict")

        def direction(ref: tuple[int, int]) -> int:
            root, p = self._bits.find(ref[0])
            return values.get(root, 0) ^ p ^ ref[1]

        out = []
        for rec in self._records:
            dl = direction(rec.left_ref)
            dr = direction(rec.right_ref)
            left_in = "BL" if dl == UP else "AR"
            right_in = "BR" if dr == UP else "AL"
            if rec.over == "L":
                over_in, under_in = left_in, right_in
            else:
                over_in, under_in = right_in, left_in
            vo = _IN_VECTOR[over_in]
            vu = _IN_VECTOR[under_in]
            sign = 1 if vo[0] * vu[1] - vo[1] * vu[0] > 0 else -1
            out.append(
                {
                    "arcs": {k: self._arcs.find(v) for k, v in rec.ports.items()},
                    "under_in": under_in,
                    "sign": sign,
                    "labels": (rec.left_label, rec.right_label),
                }
            )
        return out

    def to_pd(self) -> list[tuple[int, int, int, int]]:
        """PD quadruples for a single-curve picture, arcs renumbered 1..2c."""
        records = self.finish()
        if self.free_circles:
            raise KnotError("morse: picture contains crossing-free circles")
        ids = sorted({a for rec in records for a in rec["arcs"].values()})
        number = {a: i + 1 for i, a in enumerate(ids)}
        quads = []
        for rec in records:
            order = _CCW[rec["under_in"]]
            quads.append(tuple(number[rec["arcs"][port]] for port in order))
        return quads

    def linking_number(self, label1: str, label2: str) -> int:
        """Half the signed count of crossings between two labeled curves."""
        records = self.finish()
        total = 0
        for rec in records:
            if set(rec["labels"]) == {label1, label2} and label1 != label2:
                total += rec["sign"]
        if total % 2:
            raise AssertionError("linking number is not an integer")
        return total // 2
