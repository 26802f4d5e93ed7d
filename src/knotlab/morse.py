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
built; a cup refuses to join two labels, and ``linking_number`` counts
signed crossings between two labels.

Arcs and bits are kept in one kind of union-find, ``_Sets``, which holds
each element's parity relative to its root.  Arcs join at parity 0,
bits with the parity a cup forces.  ``finish`` checks the pins against
the bits' parities, reads an unpinned set's value at its root, and
names each arc by the smallest arc of its set, so arc labels follow the
order the tiles made them.

A frontier end is the tuple ``(arc, bit, parity, label)``, and each
crossing is kept as one tuple: its arcs at the lower-left, lower-right,
upper-right and upper-left ports (BL, BR, AR, AL, counterclockwise from
the lower left), ``over``, and the ends of its lower-left and
lower-right strands.  The lower-left strand runs BL-AR and the
lower-right one BR-AL.  Once ``finish`` has fixed every bit, each strand
runs up or down, and two rules give what a PD code needs:

  * the turn, the port where the under-strand comes in, is 1 (BR) or
    3 (AL) when ``over == "L"``: 1 if the lower-right strand runs up;
    it is 0 (BL) or 2 (AR) when ``over == "R"``: 0 if the lower-left
    strand runs up;
  * the sign is +1 for ``over == "L"`` and -1 for ``"R"``, negated when
    the two strands run opposite ways: with both running up, an
    over-strand from lower left to upper right is right-handed, and
    reversing either strand flips the sign.

``to_pd`` emits standard ``X[a,b,c,d]`` quadruples (counterclockwise
from the incoming under-strand) for single-curve pictures.
"""

from __future__ import annotations

from .errors import KnotError, check_int, value_text

# a frontier end: (arc, orientation bit, parity, curve label); the strand
# there runs down when the bit's value XOR the parity is 1
_End = tuple[int, int, int, str]


class _Sets:
    """Union-find with each element's parity relative to its root.  A
    builder keeps one for arcs, which join at parity 0 and so never
    conflict, and one for orientation bits, where a join that contradicts
    the parities already implied raises."""

    def __init__(self):
        self.parent: list[int] = []
        self.rel: list[int] = []

    def make(self) -> int:
        v = len(self.parent)
        self.parent.append(v)
        self.rel.append(0)
        return v

    def find(self, v: int) -> tuple[int, int]:
        """(root, parity of v relative to the root); points every element
        on the way straight at the root."""
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

    def union(self, a: int, b: int, parity: int) -> bool:
        """Relate a and b by parity, the root of a's set going under the
        root of b's; False if they were already one set."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        want = pa ^ pb ^ parity
        if ra == rb:
            if want:
                raise KnotError("morse: strand orientations conflict")
            return False
        self.parent[ra] = rb
        self.rel[ra] = want
        return True


class MorseBuilder:
    def __init__(self):
        self._front: list[_End] = []
        self._arcs = _Sets()
        self._bits = _Sets()
        self._pins: list[tuple[int, int]] = []  # (bit, value)
        self._cupped: list[int] = []  # arcs a cup joined, the only ones in shared sets
        # ((BL, BR, AR, AL) arcs, over, lower-left end, lower-right end)
        self._crossings: list[tuple[tuple[int, int, int, int], str, _End, _End]] = []
        self.free_circles = 0
        self._finished = False

    # -- tiles -------------------------------------------------------------

    def cap(self, i: int, flow: str | None = None, label: str = "K") -> None:
        self._check_open(i, width=0)
        arc = self._arcs.make()
        bit = self._bits.make()
        if flow is not None:
            if flow not in ("lr", "rl"):
                raise KnotError(f"morse: flow must be 'lr' or 'rl', got {value_text(flow)}")
            # value 1 makes the left end flow down, i.e. travel left-to-right
            self._pins.append((bit, 1 if flow == "lr" else 0))
        self._front[i:i] = [(arc, bit, 0, label), (arc, bit, 1, label)]

    def cup(self, i: int) -> None:
        self._check_open(i, width=2)
        (arc_a, bit_a, par_a, label_a), (arc_b, bit_b, par_b, label_b) = self._front[i:i + 2]
        if label_a != label_b:
            raise KnotError(f"morse: cup joins curves {value_text(label_a)} and {value_text(label_b)}")
        self._bits.union(bit_a, bit_b, par_a ^ par_b ^ 1)
        if not self._arcs.union(arc_a, arc_b, 0):
            self.free_circles += 1
        self._cupped += arc_a, arc_b
        del self._front[i:i + 2]

    def crossing(self, i: int, over: str = "L") -> None:
        if over not in ("L", "R"):
            raise KnotError(f"morse: over must be 'L' or 'R', got {value_text(over)}")
        self._check_open(i, width=2)
        left, right = self._front[i], self._front[i + 1]
        al = self._arcs.make()
        ar = self._arcs.make()
        self._crossings.append(((left[0], right[0], ar, al), over, left, right))
        # lower-left strand exits upper-right and vice versa
        self._front[i] = (al, *right[1:])
        self._front[i + 1] = (ar, *left[1:])

    def _check_open(self, i: int, width: int) -> None:
        if self._finished:
            raise KnotError("morse: builder already finished")
        what = "morse: cap position" if width == 0 else "morse: position"
        if not 0 <= check_int(i, what) <= len(self._front) - width:
            raise KnotError(f"{what} {value_text(i)} out of range")

    # -- resolution ----------------------------------------------------------

    def finish(self) -> list[tuple[tuple[int, int, int, int], int, tuple[str, str]]]:
        """Close the build and return, per crossing, its arcs counterclockwise
        from the incoming under-strand, its sign, and the curve labels of
        the lower-left and lower-right strands."""
        if self._front:
            raise KnotError(f"morse: {len(self._front)} strand ends still open")
        self._finished = True
        # every bit and every arc is resolved once, not once per crossing end
        found = [self._bits.find(bit) for bit in range(len(self._bits.parent))]
        values: dict[int, int] = {}
        for bit, val in self._pins:
            root, p = found[bit]
            want = val ^ p
            if values.setdefault(root, want) != want:
                raise KnotError("morse: orientation pins conflict")
        # bit -> its value, so an end runs down when flow[bit] ^ parity is 1
        flow = [values.get(root, 0) ^ p for root, p in found]
        # arc -> the smallest arc of its set, the first an ascending pass meets
        names = list(range(len(self._arcs.parent)))
        smallest: dict[int, int] = {}
        for a in sorted(self._cupped):
            names[a] = smallest.setdefault(self._arcs.find(a)[0], a)

        out = []
        for arcs, over, left, right in self._crossings:
            dl, dr = flow[left[1]] ^ left[2], flow[right[1]] ^ right[2]
            turn = 1 + 2 * dr if over == "L" else 2 * dl
            sign = (1 if over == "L" else -1) * (1 if dl == dr else -1)
            arcs = tuple(map(names.__getitem__, arcs[turn:] + arcs[:turn]))
            out.append((arcs, sign, (left[3], right[3])))
        return out

    def to_pd(self) -> list[tuple[int, int, int, int]]:
        """PD quadruples for a single-curve picture, arcs renumbered 1..2c."""
        crossings = self.finish()
        if self.free_circles:
            raise KnotError("morse: picture contains crossing-free circles")
        ids = sorted({a for arcs, _, _ in crossings for a in arcs})
        number = {a: i + 1 for i, a in enumerate(ids)}
        return [tuple(number[a] for a in arcs) for arcs, _, _ in crossings]

    def linking_number(self, label1: str, label2: str) -> int:
        """Half the signed count of crossings between two labeled curves."""
        total = 0
        for _, sign, labels in self.finish():
            if set(labels) == {label1, label2} and label1 != label2:
                total += sign
        # cups join equal labels only, and two closed curves cross evenly
        if total % 2:
            raise AssertionError("linking number is not an integer")
        return total // 2
