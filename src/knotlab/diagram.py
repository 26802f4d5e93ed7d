"""Planar diagrams, the Kauffman bracket, and the Jones polynomial.

A diagram is a list of crossings ``X[a,b,c,d]``: the four arc labels
around a crossing, read counterclockwise starting from the incoming
under-strand.  So ``a`` is the under-strand entering, ``c`` is it
leaving, and the over-strand occupies ``b`` and ``d``.  Arc labels are
positive integers, and every label must occur exactly twice overall.
The code must also describe a diagram in the plane: a code whose slot
order traces fewer than c + 2 faces is refused.

Worked example, the left-handed trefoil::

    X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]

At the first crossing the under-strand runs 1 -> 2 while arc 4 and
arc 5 pass over.  Orientation, signs and the single-component check
all come from one walk of the strand, from crossing 0's incoming
under-strand straight through every crossing: 1 -> 2 under, 2 -> 3
over (entering the third crossing at b), 3 -> 4 under, 4 -> 5 over,
5 -> 6 under, 6 -> 1 over, and back at the start with every arc
passed.  Each over-passage runs b -> d, so all three crossings are
negative (writhe -3), and the Jones polynomial below is
-t^-4 + t^-3 + t^-1.

Bracket conventions: an A-smoothing joins (a,b) and (c,d), a
B-smoothing joins (a,d) and (b,c),

    <L> = A <L_A> + A^-1 <L_B>,    <unknot> = 1,
    closed loop factor delta = -A^2 - A^-2,

and the Jones polynomial is V(t) = (-A)^(-3w) <D> with t = A^-4, read
off the bracket term by term.  For a knot every exponent of <D> is 3w
mod 4, so V has integer powers of t.

The bracket is computed by sweeping crossings one at a time, in a
greedy order that keeps few arcs open, and keeping the set of partial
states (matchings on the open strand ends), so cost is driven by the
width of the sweep, not 2^crossings.  The greedy runs twice, breaking
ties by the lowest index and by the crossing that has waited longest,
and the order whose open-arc counts peak lower, then sum lower, is kept
(see ``_contraction_order``); every lambda(n, m, p) with n, m in
[-8, 8] and |p| <= 37 then sweeps at 5 partial states.  Slot s of
crossing i is the integer token 4*i + s.  Before each crossing the open
ends form one list, the boundary, which is the same for every state; a
state is the tuple of each boundary position's partner position, so
that tuple is already canonical.

Positional states let the sweep work out a crossing's effect once and
then replay it.  A crossing's shape is the boundary length and, for
each of its four slots, one of: the slot's boundary position, when its
arc was opened earlier (a swept end); size + j, when the arc is met for
the first time and its far end becomes the j-th fresh end; or the slot
it is tied to, when both ends of the arc sit at this crossing (a
curl).  Tokens, labels and signs never enter it.  A state's successor
under either smoothing depends only on the shape and the state: the
swept positions leave the boundary, the fresh ends take the place of
the first swept one, every other end keeps its partner and only moves,
and the smoothing's joins run through the four slots, along a table of
where each slot's arc leads once it leaves the crossing: to a slot of
the same crossing, or to an outside end.  So what a crossing does to
the whole set of states the sweep holds (which successors it makes,
and which states feed each one, through which smoothing and closing
how many loops) depends only on the shape and the set.  The sweep
keeps its states sorted, with their exponents and
polynomials in two lists beside them, and compiles that map once per
(state set, shape) pair into a step: the successor set, a growth factor
(below), and a program of one small int per feed, grouped successor by
successor.  Replaying a step is the packed arithmetic below and nothing
else: no dictionary lookup and no state tuple per state.  Each
successor's sum is built from its feeds in turn and closed at its last
feed, where it joins the new lists, with its digit count, or leaves the
set when it is 0.  Within one sweep the whole set repeats from crossing
to crossing; lambda(0, 0, 1001) compiles 10 steps for its 4,004
crossings.  Turning a crossing by one slot swaps its A- and
B-smoothings, and turning it by two changes nothing, so a step is keyed
by the shape turned to start at its largest entry and the replay reads
each feed's exponent shift from the table of the turn's parity; a
positive and a negative crossing of one shape share a step.
Putting the fresh ends where the first swept end was, rather than at
the end, keeps a braid's boundary in the order its strands lie in, so
the shapes of each sigma_i repeat with every period of the word.

Every sweep in the process shares one memo of compiled steps, keyed by
(state set, shape) like the call's own table of the steps it has used.
A call reads the memo only when that table misses, and compiles a step
only when the memo misses too; ``_learn`` compiles it, working out the
successors of every state of its set, and stores it in the memo at
once.  A sorted set is one object in the memo however a sweep reached
it, so a diagram swept again compiles nothing, and its mirror, a curl
added to it, or another braid on as many strands compiles only the
steps it does not share.  The call charges each step the first time
its table misses it to the sweep limit below, whether or not the memo
had it, so the work a sweep counts, and the point where it is refused,
do not depend on what earlier sweeps left; a refused sweep keeps the
steps it compiled.  The memo counts the ints it holds as the sweep
charged them, and is emptied all at once before a step would take that
count past SWEEP_LIMIT; a step the sweep was charged for fits in an
empty memo, so every step compiled is stored.

The sweep cuts the knot open at slot 0 of the last crossing in its
order and ties the cut arc's two ends to sentinel tokens.  The cut
point acts as a puncture: had it sat beside the first crossing swept,
it would lie inside the swept region for the whole sweep, and the
states would match open ends around an annulus instead of a disc.  On
a 9-strand, 4-sweep braid closure both cuts leave 8 open arcs at every
step, but the first gives 70 = C(8,4) states per step and the last
14 = Catalan(4).

After k crossings every A-exponent of one state lies in one class mod
4.  Close the swept part with any fixed smoothing of the unswept
crossings: in a closed planar diagram, flipping one smoothing changes
the loop count by exactly 1, so #B + loops is constant mod 2, and the
closure adds a loop count that depends only on the state's matching.
A term A^(#A-#B) delta^L of the state, with #A + #B = k, therefore has
exponent k + 2(#B + L) mod 4.  So a state's polynomial is its lowest
exponent and its coefficients in steps of A^4, and those coefficients
are packed into one Python int, N = sum of c_k 2^(Bk), whose digits in
base 2^B (B = 64 to start with) are the c_k, each taken in
[-2^(B-1), 2^(B-1)).  Every step is exact integer arithmetic done in C:
the factor A^(+-1) of a smoothing moves only the exponent, the loop
factor delta = -A^-2 (1 + A^4) is N -> -(N + N * 2^B), two states that
meet add as N1 + N2 * 2^(B * offset), and a state whose sum is 0 is
dropped; a sum that cancels to 0 partway starts again from the next
state that meets it.  A crossing therefore costs about the number of states times
the packed length, in machine words rather than Python objects.

The digits are the coefficients only while each coefficient is below
2^(B-1) in absolute value, so the sweep keeps one bound on the sum over
its states of their largest coefficient, 1 to start.  A state feeds two
successors, each times delta once per loop it closes, so a step's
successors have their sum at most its growth factor, the largest
2^(A-loops) + 2^(B-loops) over its states, times the sum before it;
with at most two loops each that factor is at most 8, and the bound is
multiplied by it after each crossing.  Before a crossing where 8 times
the bound could reach 2^(B-1), every state is decoded and the bound set
to the exact sum; if 8 times that then needs more than half a digit, B
doubles and every state is repacked, so the next renormalisation is
B/2 - 1 doublings of the sum away.  lambda(0, 0, 1001) renormalises
once every 33 crossings or so.  Under that bound the digits are read
back exactly and cheaply: the lowest digit is zero iff the low B bits
of N are, so the zero digits a merge leaves at the low end are trimmed
by one shift; the top end needs no trimming, since N has no leading
zero digits; and a state has (bit length of N + B) // B digits, a
count that does not depend on B.  The digits themselves are read only
when renormalising and at the end, from the bytes of N plus 2^(B-1) in
every digit.

The sweep limits itself by the cost of a crossing.  It keeps one
running count, the ints its partial states hold, summed over
crossings: before each crossing, the number of states times the
boundary length (the states) plus the digit counts of all their packed
coefficients; and for each step the call uses for the first time,
twice the new boundary length for each of its states (the two
successors it works out for each), so the limit bounds the call's
steps, and the memo, too.  When the count passes SWEEP_LIMIT the sweep
raises a KnotError naming the count reached.  The count follows both
ways a sweep gets expensive: wide sweeps with many states, and long
narrow ones whose coefficients spread over more A^4 steps with the
crossings swept.
"""

from __future__ import annotations

import heapq
import re
import threading
from collections.abc import Sequence
from itertools import compress
from operator import ne

from .errors import KnotError, Value, check_int, value_text
from .laurent import LaurentPoly

# the most partial-state and step ints one bracket sweep may hold, summed
# over its crossings, and the most the memo of compiled steps keeps (see
# the module docstring).
# lambda(-2, -6, -121), 492 crossings, reaches 218,765 and an 8-strand,
# 5-sweep braid closure 32,578, while lambda(0, 0, 1001), 4,004
# crossings, reaches 13.2 million, and lambda(2, -2, 1001) 13.24 million.
# A 12-strand, 13-sweep closure passes it after a second or two.
SWEEP_LIMIT = 15_000_000

# the digit width, in bits, that a bracket sweep packs coefficients in
# (see the module docstring); a multiple of 8, so digits are whole bytes
_RADIX = 64

Crossing = tuple[int, int, int, int]
# a partial state of the bracket sweep, or a crossing's shape key
State = tuple[int, ...]


class PlanarDiagram(Value):
    """A single-component oriented planar diagram, checked on
    construction.

    Only the crossings are given.  Construction checks their shape and
    labels, then walks the strand once (see ``_strand``), which orients
    the diagram, refuses links, unorientable and non-planar codes with
    ``KnotError``, and fixes ``signs``: ``signs[i]`` is the sign of
    crossing i, +1 when the over-strand runs from slot d to slot b
    (counterclockwise frame), -1 the other way.  So every instance in
    circulation is a valid diagram whose signs match its crossings.
    Operations below return new diagrams.
    """

    # _mate[t] is the other end of slot token t's arc; the bracket sweep
    # reads it instead of walking the strand again.  It follows from the
    # crossings, so it is not a field.
    __slots__ = ("crossings", "signs", "_mate")
    _fields = ("crossings", "signs")

    def __init__(self, crossings: Sequence[Sequence[int]]):
        if not isinstance(crossings, Sequence):
            raise KnotError(f"pd: crossings must be a sequence, got {value_text(crossings)}")
        quads = []
        for q in crossings:
            if not isinstance(q, Sequence) or len(q) != 4:
                raise KnotError(f"pd: crossing needs 4 arcs, got {value_text(q)}")
            if not all(type(v) is int and v > 0 for v in q):
                raise KnotError("pd: arc labels must be positive integers")
            quads.append(tuple(q))
        mate, signs = _strand(quads) if quads else ([], [])
        object.__setattr__(self, "crossings", tuple(quads))
        object.__setattr__(self, "signs", tuple(signs))
        object.__setattr__(self, "_mate", tuple(mate))

    def __reduce__(self):
        # the constructor takes only the crossings and derives the rest
        return PlanarDiagram, (self.crossings,)

    @property
    def arcs(self) -> tuple[int, ...]:
        seen = sorted({a for x in self.crossings for a in x})
        return tuple(seen)

    def writhe(self) -> int:
        return sum(self.signs)

    def __str__(self) -> str:
        if not self.crossings:
            return "unknot"
        return " ".join("X[%d,%d,%d,%d]" % x for x in self.crossings)


_X_TOKEN = re.compile(r"[Xx]\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_pd(text: str) -> PlanarDiagram:
    """Parse ``X[a,b,c,d]`` tokens separated by whitespace or commas and
    validate the result.  An empty string (or ``PD[]``) is the
    zero-crossing unknot."""
    s = text.strip()
    if s.upper().startswith("PD[") and s.endswith("]"):
        s = s[3:-1]
    leftovers = _X_TOKEN.sub(" ", s)
    if leftovers.strip(" \t\n,;"):
        raise KnotError(f"pd: unrecognized text {value_text(leftovers.strip())}")
    try:
        quads = [tuple(int(g) for g in m.groups()) for m in _X_TOKEN.finditer(s)]
    except ValueError as e:  # past the interpreter's int-conversion digit limit
        raise KnotError(f"pd: arc label too long ({e})") from None
    return validate(quads)


def validate(quads: Sequence[Sequence[int]]) -> PlanarDiagram:
    """The diagram with these crossings; ``PlanarDiagram`` checks them."""
    return PlanarDiagram(quads)


def _strand(crossings: Sequence[Crossing]) -> tuple[list[int], list[int]]:
    """Walk the one strand of a nonempty diagram, check that it is planar
    and return ``(mate, signs)``.

    Slot s of crossing i is the token 4*i + s, and ``mate[t]`` is the
    other end of t's arc.  The walk fixes no cut: the bracket sweep cuts
    open the arc at slot 0 of the last crossing in its own order, which
    keeps the cut point outside the swept disc (see the module
    docstring).  The walk enters crossing 0 at slot 0, its incoming
    under-strand, leaves each crossing straight through at ``t ^ 2`` and
    enters the next one at the mate of that token.  Entering at slot 2
    means an under-strand runs backwards; entering at slot 3 makes the
    over-strand run d -> b, a positive crossing, and slot 1 a negative
    one.  The walk never passes a token twice before it is back at token
    0: a token met twice would make it retrace its steps and turn round
    on a token that ``t ^ 2`` or ``mate`` fixes, and neither fixes one.
    So a walk that passes all 4c tokens has entered every crossing once
    under and once over; a shorter one leaves another component behind.

    A face is an orbit of ``t -> next slot after mate[t]``: follow the
    arc to its other end, then turn counterclockwise to the next slot of
    that crossing.  The diagram is a connected 4-valent graph with c
    vertices and 2c edges, so by Euler's formula the slot order embeds
    it in the sphere exactly when it has c + 2 faces.  Fewer faces means
    a surface of higher genus; the sweep's mod-4 argument assumes a
    plane, so such a code is refused here rather than left to fail
    there.
    """
    ends: dict[int, list[int]] = {}
    for i, x in enumerate(crossings):
        for s, arc in enumerate(x):
            ends.setdefault(arc, []).append(4 * i + s)
    mate = [0] * (4 * len(crossings))
    for arc, pair in sorted(ends.items()):
        if len(pair) != 2:
            raise KnotError(f"pd: arc {value_text(arc)} appears {len(pair)} times, must be 2")
        t, u = pair
        mate[t], mate[u] = u, t

    signs = [0] * len(crossings)
    t, passed = 0, 2
    while t := mate[t ^ 2]:
        slot = t & 3
        if slot == 2:
            raise KnotError(f"pd: inconsistent orientation at arc {value_text(crossings[t >> 2][2])}")
        if slot:
            signs[t >> 2] = 1 if slot == 3 else -1
        passed += 2
    if passed != len(mate):
        raise KnotError("pd: diagram has more than one component")

    seen = [False] * len(mate)
    faces = 0
    for start in range(len(mate)):
        if not seen[start]:
            faces += 1
            t = start
            while not seen[t]:
                seen[t] = True
                m = mate[t]
                t = (m & ~3) | ((m + 1) & 3)
    if faces != len(crossings) + 2:
        raise KnotError(
            f"pd: not a planar diagram ({faces} faces, a planar diagram with "
            f"{len(crossings)} crossings has {len(crossings) + 2})"
        )
    return mate, signs


# -- bracket -------------------------------------------------------------------

def _contraction_order(mate: Sequence[int]) -> list[int]:
    """Greedy order keeping the set of open arcs small, read off the
    diagram's ``mate`` table.

    An arc is open when one of its two ends has been swept.  Each step
    takes the crossing after which the fewest arcs are open.  The change
    a crossing makes to that count, its score, is a sum over its four
    slot tokens t: +1 when the crossing at the arc's other end,
    ``mate[t] >> 2``, is unswept (the arc opens), -1 when it is swept
    (the arc closes), and 0 when it is the crossing itself (a curl, whose
    arc opens and closes at once).  So a crossing starts at the number of
    its slots whose arc leads to another crossing, one entry of its list
    of outside neighbours each, and loses 2 for each entry when that
    neighbour is swept.

    Ties between crossings of one score are broken two ways, and the
    greedy runs once with each (see ``_greedy``): by the lowest index,
    or by the crossing that has waited longest at its score.  On
    lambda(n, m, p) with n != 0 the first starts on the cable, jumps
    back to the twists, whose indices are lower, and leaves two fronts
    open (8 arcs at the peak on lambda(2, -2, 5)), where the second goes
    on along the cable (6 arcs); with both, every lambda with n, m in
    [-8, 8] and |p| <= 37 sweeps at 5 partial states, where the first
    alone held 720 of those 891 at 13.  The order kept is the one whose
    open-arc counts after each step have the lower peak, then the lower
    sum, the lowest-index one on a full tie.  The scores give those
    counts as the greedy runs, so choosing sweeps nothing.  The order
    fixes the bracket sweep's boundary before each crossing, and so the
    length of every state tuple there.
    """
    count = len(mate) // 4
    neighbours = [[m >> 2 for m in mate[4 * ci:4 * ci + 4] if m >> 2 != ci] for ci in range(count)]
    # the waiting run first, since it wins on most lambdas with a twist
    # (792 of the 880 above): the lowest-index run then stops once its
    # peak passes the waiting run's, a few crossings in.  No order opens
    # more arcs than there are.
    waited, peak, total = _greedy(neighbours, True, len(mate))
    lowest = _greedy(neighbours, False, peak)
    return lowest[0] if lowest and lowest[1:] <= (peak, total) else waited


def _greedy(neighbours: list[list[int]], fifo: bool, cap: int) -> tuple[list[int], int, int] | None:
    """One greedy run of ``_contraction_order``: the order, the peak of
    its open-arc counts and their sum, or None once the peak passes
    ``cap``.

    A heap holds one int per entry, its score, a tie and the crossing's
    index from the high bits down, and skips a popped entry whose score
    is no longer current: a score only falls, so the current entry is
    the one with the current score.  The tie is 0, or, with ``fifo``, a
    count of the entries made so far, so that among crossings of one
    score the one that reached it first comes first; the index decides
    among the rest.  Either gives the same order as rescanning every
    remaining crossing at each step, in O(c log c) instead of O(c^2)."""
    count = len(neighbours)
    index_bits = count.bit_length()
    # at most 4 entries are made per crossing swept
    shift = index_bits + (4 * count).bit_length()
    mask = (1 << index_bits) - 1
    step = 1 << index_bits if fifo else 0
    current = list(map(len, neighbours))
    heap = [s << shift | ci for ci, s in enumerate(current)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order = []
    arcs = peak = total = tie = 0
    while heap:
        key = pop(heap)
        s, ci = key >> shift, key & mask
        if s != current[ci]:
            continue
        current[ci] = None  # swept
        order.append(ci)
        arcs += s
        total += arcs
        if arcs > peak:
            if arcs > cap:
                return None
            peak = arcs
        for cj in neighbours[ci]:
            score = current[cj]
            if score is not None:
                score = current[cj] = score - 2
                tie += step
                push(heap, score << shift | tie | cj)
    return order, peak, total


def kauffman_bracket(diagram: PlanarDiagram) -> LaurentPoly:
    """The bracket <D> as a Laurent polynomial in A."""
    crossings = diagram.crossings
    if not crossings:
        return LaurentPoly.one()

    mate = diagram._mate
    order = _contraction_order(mate)

    # cut open the arc at slot 0 of the last crossing swept: its two ends
    # are tied to sentinels at boundary positions 0 and 1, so every
    # complete state ends as the same single strand and the loop count
    # comes out right without a final division by delta; the sentinels
    # are tokens that no slot uses, so they are never swept.  The cut
    # point is a puncture, and beside the last crossing it stays outside
    # the swept disc until the final step, so states are planar matchings
    # (14 per step on a 9-strand, 4-sweep closure, where a cut at the
    # first crossing swept gives 70; see the module docstring)
    t0 = 4 * order[-1]
    boundary = [-1, -2, t0, mate[t0]]
    states = _state_set(((2, 3, 0, 1),))
    # each state's lowest A-exponent and packed coefficients, in the order
    # of states.states; the digit count of those, and a bound on the sum
    # over the states of their largest coefficient
    los, packs = [0], [1]
    digits = bound = 1
    # (state set, shape key) -> step: the steps this call has used
    table: dict[tuple[_StateSet, State], Step] = {}
    radix = _RADIX

    work = 0
    for ci in order:
        size = len(boundary)
        work = _charge(work, len(los) * size + digits)
        # no coefficient after this crossing can exceed 8 times the bound,
        # and each must stay below 2^(radix-1) to be read back
        if 8 * bound >= 1 << (radix - 1):
            radix, bound = _repack(packs, radix)
        # the crossing's shape: each slot's boundary position, size + j
        # for the j-th fresh end, or -1 - (offset to the slot it is tied
        # to) for a curl.  The fresh ends take the place of the first swept
        # end, numbered clockwise from it, which on a braid keeps the
        # boundary in the order the strands lie in
        here = 4 * ci
        shape = [-1] * 4
        for k, t in enumerate(boundary):
            if here <= t < here + 4:
                shape[t - here] = k
        swept = [k for k in shape if k >= 0]
        ins = min(swept) if swept else size
        start = shape.index(ins) if swept else 0
        fresh = []
        for s in (start, start - 1, start - 2, start - 3):
            s &= 3
            if shape[s] < 0:
                m = mate[here + s]
                if m >> 2 == ci:
                    shape[s] = -1 - ((m - s) & 3)
                else:
                    shape[s] = size + len(fresh)
                    fresh.append(m)
        boundary[ins:] = fresh + [t for t in boundary[ins:] if not here <= t < here + 4]

        # keyed by the shape turned to start at its largest entry; an odd
        # turn swaps the A- and B-smoothings
        r = shape.index(max(shape))
        key = (size, *shape[r:], *shape[:r])
        step = table.get((states, key))
        if step is None:
            # charge a step the first time the call uses it, whether or not
            # the memo had it: two successors of the new boundary per state
            ints = 2 * len(boundary) * len(states.states)
            work = _charge(work, ints)
            step = table[states, key] = _STEPS.get((states, key)) or _learn(states, key, ints)
        states, growth, program = step
        bound *= growth
        los, packs, digits, dropped = _replay(program, los, packs, _SHIFTS[r & 1], radix)
        if dropped:
            gone = set(dropped)
            states = _state_set(tuple(s for k, s in enumerate(states.states) if k not in gone))

    if states.states != ((1, 0),):
        raise AssertionError("bracket: contraction did not close the diagram")
    return LaurentPoly({los[0] + 4 * k: c for k, c in enumerate(_digits(packs[0], radix)) if c})


def _charge(work: int, ints: int) -> int:
    """The sweep work after ``ints`` more; past SWEEP_LIMIT, raises."""
    work += ints
    if work > SWEEP_LIMIT:
        raise KnotError(
            f"bracket: sweep work reached {work} partial-state ints, "
            f"over the limit of {SWEEP_LIMIT}"
        )
    return work


class _StateSet:
    """The partial states a sweep holds before a crossing, sorted.  The
    memo is keyed by these objects, so finding a compiled step hashes no
    state; ``_learn`` keeps one object for each set it compiles a step
    of, and ``_state_set`` finds it again."""

    __slots__ = ("states",)

    def __init__(self, states: tuple[State, ...]):
        self.states = states


# a compiled step: the successor set, the growth factor and the program
# (see _compile)
Step = tuple[_StateSet, int, tuple[int, ...]]


def _state_set(states: tuple[State, ...]) -> _StateSet:
    """The memo's state set with these states, else a new one."""
    return _SETS.get(states) or _StateSet(states)


# the memo of compiled steps that every bracket sweep in the process
# shares (see the module docstring): (state set, shape key) -> step, and
# each state set it names, by its states.
# Only _learn writes them, and the steps hold at most SWEEP_LIMIT ints,
# counted in _memo_ints as the sweep charges them.
_STEPS: dict[tuple[_StateSet, State], Step] = {}
_SETS: dict[tuple[State, ...], _StateSet] = {}
_memo_ints = 0
_memo_lock = threading.Lock()


def _learn(states: _StateSet, key: State, ints: int) -> Step:
    """Compile the step of shape ``key`` for ``states`` and add it to the
    memo, first emptying the memo when the step's ``ints``, as the sweep
    charged them, would take it past SWEEP_LIMIT.  The set and its
    successor become the memo's objects for their states, so the sweep
    meets each again as the same object."""
    nxt, growth, program = _compile(key, states.states)
    global _memo_ints
    with _memo_lock:
        if _memo_ints + ints > SWEEP_LIMIT:
            # a sweep still holding one of the memo's sets finds its
            # steps gone, and compiles them again
            _STEPS.clear()
            _SETS.clear()
            _memo_ints = 0
        # another thread may have stored this step since the caller looked
        states = _SETS.setdefault(states.states, states)
        step = _STEPS.get((states, key))
        if step is None:
            step = _STEPS[states, key] = _SETS.setdefault(nxt, _StateSet(nxt)), growth, program
            _memo_ints += ints
    return step


def _compile(key: State, states: tuple[State, ...]) -> tuple[tuple[State, ...], int, tuple[int, ...]]:
    """The step of a crossing of shape ``key`` for a sorted state set:
    its successor states, sorted, its growth factor and its program.

    ``key`` is ``(size, e0, e1, e2, e3)``: the boundary length and the
    entries of slots 0 to 3 of the turned crossing (see
    ``kauffman_bracket``).  The new boundary drops the swept positions
    and puts the fresh ends, in order, where the first swept end was (at
    the end when nothing is swept); every other end keeps its partner
    and only moves.

    A state's lead table says, for each slot, where the slot's arc goes
    once it leaves the crossing.  It comes back to slot t, the entry
    ``~t``, when the slot is a curl tied to t or a swept end whose
    partner is the swept end at t.  Otherwise it reaches an outside
    end, and the entry is the old position whose partner that end is:
    a swept end's own position, or size + j for the j-th fresh end,
    which counts as its own partner.  So the state's partners, with the
    fresh ends appended, and ``remap`` resolve each outside entry to a
    new position.  The table carries exactly which swept ends the state
    pairs with each other, and ``_joins`` walks a table only the first
    time a state of the set has it, about twice a step.

    State i of ``states`` feeds its A-successor and its B-successor,
    for the smoothings of the turned crossing.  The program lists the
    feeds successor by successor, and a successor's feeds in the order
    of i, A before B.  A feed's code is 16 i + 8 (1 for B) + 2 times
    the loops it closes, plus 1 on the last feed of its successor.
    The growth factor is the largest 2^(A-loops) + 2^(B-loops) of a
    state: the sum over the successors of their largest coefficient
    is at most that times the same sum over the states."""
    size, *shape = key
    tie = {k: ~s for s, k in enumerate(shape) if 0 <= k < size}
    ins = min(tie, default=size)
    # the fresh ends' old positions, none when every entry is below size
    fresh = tuple(range(size, max(shape) + 1))
    # the old position behind each new one, and the other way.  A swept
    # position maps to -1 and a fresh end is its own partner; the joins
    # overwrite every partner there
    back = [k for k in range(size) if k not in tie]
    back[ins:ins] = fresh
    remap = [-1] * (size + len(fresh))
    for new, k in enumerate(back):
        remap[k] = new
    # each slot's entry in the lead table, or for a swept end its position
    fixed = [~((s - 1 - k) & 3) if k < 0 else k for s, k in enumerate(shape)]
    joined: dict[State, tuple] = {}
    # feed k = 2i + (1 for B): its successor and the loops it closes
    succ: list[State] = []
    loops: list[int] = []
    for state in states:
        # the state's partners, each fresh end its own
        ext = state + fresh
        lead = tuple([tie.get(ext[k], k) if k >= 0 else k for k in fixed])
        smoothings = joined.get(lead)
        if smoothings is None:
            smoothings = joined[lead] = _joins(lead)
        base = [remap[ext[k]] for k in back]
        for pairs, closed in smoothings:
            partners = base.copy()
            for u, v in pairs:
                u, v = remap[ext[u]], remap[ext[v]]
                partners[u] = v
                partners[v] = u
            succ.append(tuple(partners))
            loops.append(closed)
    # a stable sort by successor keeps each one's feeds in order
    order = sorted(range(len(succ)), key=succ.__getitem__)
    ordered = list(map(succ.__getitem__, order))
    ordered.append(None)
    last = list(map(ne, ordered, ordered[1:]))
    program = tuple([8 * k + 2 * loops[k] + end for k, end in zip(order, last)])
    growth = max((1 << a) + (1 << b) for (_, a), (_, b) in joined.values())
    return tuple(compress(ordered, last)), growth, program


def _joins(lead: State) -> tuple:
    """For the A- and then the B-smoothing of the turned crossing, the
    pairs of outside entries of the lead table ``lead`` (see
    ``_compile``) it joins and the loops it closes.  A smoothing ties
    the four slots in two pairs.  A walk from a slot that leads outside
    alternates the smoothing's tie and the slot's lead until it leads
    outside again, and pairs the two entries; a walk from a slot that
    no such walk passed comes back to it, and closes a loop."""
    out = []
    # the slots that lead outside first
    order = sorted(range(4), key=lead.__getitem__, reverse=True)
    for joins in ((1, 0, 3, 2), (3, 2, 1, 0)):  # A: ab cd, B: ad bc
        seen = [False] * 4
        pairs = []
        loops = 0
        for s in order:
            t = s
            while not seen[t]:
                u = joins[t]
                seen[t] = seen[u] = True
                if lead[u] >= 0:
                    pairs.append((lead[s], lead[u]))
                    break
                t = ~lead[u]
                loops += t == s
        out.append((tuple(pairs), loops))
    return tuple(out)


# the A-exponent a feed adds, by the smoothing and the loops it closes
# (the code's bits 3 to 1), for an even and an odd turn of the crossing:
# A^(+-1) for the smoothing and A^-2 from each delta
_SHIFTS = tuple(tuple((-turn if smoothing else turn) - 2 * loops
                      for smoothing in (0, 1) for loops in range(4))
                for turn in (1, -1))


def _replay(
    program: tuple[int, ...], los: list[int], packs: list[int], shifts: tuple[int, ...], radix: int
) -> tuple[list[int], list[int], int, list[int]]:
    """Replay a compiled step on the states' lowest exponents and packed
    polynomials; return the successors' exponents and polynomials, their
    digit count, and the indices of the successors whose sum is 0, which
    leave the set.

    A feed sends state ``code >> 4``'s polynomial through one smoothing,
    times delta = -A^-2 (1 + A^4), N -> -(N + N * 2^radix), once per loop
    it closes, into the running sum of its successor; the code's low bit
    closes that sum.  A sum that cancels to 0 starts again from the
    successor's next feed.  Two polynomials of one partial state have
    lowest exponents in one class mod 4 (see the module docstring); any
    other difference means the sweep is wrong, and raises.  A sum needs
    no trimming at the top end, and at the low end only when both start
    at one exponent, since a packed polynomial's lowest digit is never
    zero.  The caller keeps every digit below 2^(radix-1) in absolute
    value, so a digit is zero exactly when its bits are, and the low
    zero digits are the whole digits among the sum's trailing zero
    bits."""
    out_los, out_packs, dropped = [], [], []
    put_lo, put_pack = out_los.append, out_packs.append
    digits = acc = lo = 0
    for code in program:
        src = code >> 4
        e = los[src] + shifts[code >> 1 & 7]
        n = packs[src]
        if code & 6:
            n = -(n + (n << radix))
            if code & 4:
                n = -(n + (n << radix))
        if not acc:
            lo, acc = e, n
        else:
            d = e - lo
            if d & 3:
                raise AssertionError("bracket: partial state exponents differ mod 4")
            if d > 0:
                acc += n << radix * (d >> 2)
            elif d:
                lo, acc = e, n + (acc << radix * (-d >> 2))
            else:
                acc += n
                if acc:
                    # the zero digits at the low end: acc & -acc is its
                    # lowest set bit
                    low = ((acc & -acc).bit_length() - 1) // radix
                    if low:
                        acc >>= radix * low
                        lo += 4 * low
        if code & 1:
            if acc:
                put_lo(lo)
                put_pack(acc)
                digits += (acc.bit_length() + radix) // radix
                acc = 0
            else:
                dropped.append(len(out_los) + len(dropped))
    return out_los, out_packs, digits, dropped


def _repack(packs: list[int], radix: int) -> tuple[int, int]:
    """Decode each packed polynomial, in place, and return the digit
    width to go on with and the sum of their largest coefficients.

    The width doubles until 8 times that sum fits in half a digit, so
    the next renormalisation is at least radix/2 - 1 doublings of the sum
    away; each polynomial is then repacked at the new width."""
    half = 1 << (radix - 1)
    bound = 0
    for n in packs:
        chunks = _chunks(n, radix)
        high, low = int.from_bytes(max(chunks), "big"), int.from_bytes(min(chunks), "big")
        bound += max(high - half, half - low)
    wide = radix
    while (8 * bound).bit_length() > wide // 2:
        wide *= 2
    if wide != radix:
        for k, n in enumerate(packs):
            packs[k] = sum(c << (wide * j) for j, c in enumerate(_digits(n, radix)))
    return wide, bound


def _chunks(n: int, radix: int) -> list[bytes]:
    """The base-2^radix digits of nonzero ``n``, highest first, each
    taken in [-2^(radix-1), 2^(radix-1)) and raised by 2^(radix-1), as
    big-endian bytes.  Raised so, they are the bytes of a nonnegative
    int, and they compare as the digits do."""
    width = radix // 8
    count = (n.bit_length() + radix) // radix
    offset = int.from_bytes((b"\x80" + bytes(width - 1)) * count, "big")
    raw = (n + offset).to_bytes(width * count, "big")
    return [raw[k:k + width] for k in range(0, len(raw), width)]


def _digits(n: int, radix: int) -> list[int]:
    """The coefficients packed in nonzero ``n``, lowest first.  They are
    its digits in base 2^radix only while each lies in
    [-2^(radix-1), 2^(radix-1)), which the sweep's bounds guarantee."""
    half = 1 << (radix - 1)
    return [int.from_bytes(c, "big") - half for c in reversed(_chunks(n, radix))]


# -- Jones ---------------------------------------------------------------------


def jones(diagram: PlanarDiagram) -> LaurentPoly:
    """Jones polynomial in t."""
    return _jones_from_bracket(kauffman_bracket(diagram), diagram.writhe())


def _jones_from_bracket(bracket: LaurentPoly, writhe: int) -> LaurentPoly:
    """V(t) = (-A)^(-3w) <D> with t = A^-4: the bracket's term c A^e
    becomes (-1)^w c t^(-(e - 3w)/4).  For a knot every e - 3w is a
    multiple of 4; any other exponent means the bracket is wrong, not
    the input, and raises.

    V then checks itself against four identities that hold for the Jones
    polynomial of every knot (Jones 1985; Murasugi 1986; Lickorish and
    Millett 1986), each an exact sum over its coefficients c_k: V(1) = 1,
    so the c_k sum to 1; V'(1) = 0, so the k c_k sum to 0;
    V(e^(2 pi i/3)) = 1, so with S_r the sum of the c_k with k = r mod 3,
    S_1 = S_2 and S_0 - S_2 = 1; and V(i) = (-1)^Arf, so with T_r the sum
    with k = r mod 4, T_1 = T_3 and T_0 - T_2 is +1 when |V(-1)| is 1 or
    7 mod 8 (Arf invariant 0) and -1 when it is 3 or 5.  A failed
    identity is a fault of the sweep and raises.  An error that swaps A
    and A^-1 throughout passes all four, so these do not replace the
    tests' second paths."""
    sign = -1 if writhe % 2 else 1
    out = {}
    by3, by4, moment = [0, 0, 0], [0, 0, 0, 0], 0
    for e, c in bracket.items():
        k, r = divmod(3 * writhe - e, 4)
        if r:
            raise AssertionError("jones: bracket exponent not 3 * writhe mod 4")
        c *= sign
        out[k] = c
        by3[k % 3] += c
        by4[k % 4] += c
        moment += k * c
    at_minus_one = by4[0] - by4[1] + by4[2] - by4[3]
    arf_sign = 1 if abs(at_minus_one) % 8 in (1, 7) else -1
    checks = (("V(1) = 1", sum(by4) == 1),
              ("V'(1) = 0", moment == 0),
              ("V(e^(2 pi i/3)) = 1", by3[1] == by3[2] and by3[0] - by3[2] == 1),
              ("V(i) = (-1)^Arf", by4[1] == by4[3] and by4[0] - by4[2] == arf_sign))
    failed = [name for name, holds in checks if not holds]
    if failed:
        raise AssertionError(f"jones: V(t) fails {', '.join(failed)}")
    return LaurentPoly(out)


def jones_twist(v: LaurentPoly, ell: int) -> LaurentPoly:
    """Jones polynomial after ell extra full twists in one band of a
    two-band surface whose *other* band is untwisted:

        V_ell(t) = t^(2 ell) V(t) + 1 - t^(2 ell).

    For lambda(n, m, p) that is m = 0 when band 1 is twisted and n = 0
    when band 2 is; the band cores may link, as they do there.  The
    condition is needed: twisting band 1 of lambda(0, 2, 3) once gives
    lambda(2, 2, 3), whose V = t^-2 - t^-1 + 1 - t + t^2 differs from
    this formula's value.  Valid for either sign of ell; iterating the
    one-twist case gives the same closed form.
    """
    factor = LaurentPoly.term(1, 2 * check_int(ell, "jones: ell"))
    return factor * v + LaurentPoly.one() - factor


# -- diagram surgery -----------------------------------------------------------


def mirror(diagram: PlanarDiagram) -> PlanarDiagram:
    """Swap every crossing.  Kauffman bracket maps A -> A^-1; Jones maps
    t -> t^-1."""
    out = []
    for x, sign in zip(diagram.crossings, diagram.signs):
        a, b, c, d = x
        if sign > 0:
            out.append((d, a, b, c))
        else:
            out.append((b, c, d, a))
    return validate(out)


def _sink_slot(diagram: PlanarDiagram, arc: int) -> tuple[int, int]:
    """(crossing index, slot) where the arc enters a crossing."""
    for ci, x in enumerate(diagram.crossings):
        over_in = 3 if diagram.signs[ci] > 0 else 1
        for slot, val in enumerate(x):
            if val == arc and type(arc) is int and (slot == 0 or slot == over_in):
                return ci, slot
    raise KnotError(f"pd: unknown arc {value_text(arc)}")


def add_kink(diagram: PlanarDiagram, arc: int, sign: int) -> PlanarDiagram:
    """Insert a single curl of the given sign on an arc (a Reidemeister I
    move).  Writhe changes by sign; Jones is unchanged."""
    if check_int(sign, "kink sign") not in (1, -1):
        raise KnotError("kink sign must be +1 or -1")
    if not diagram.crossings:
        raise KnotError("pd: cannot kink the zero-crossing unknot")
    ci, slot = _sink_slot(diagram, arc)
    top = max(diagram.arcs)
    z, w = top + 1, top + 2  # z continues the arc, w is the little loop
    out = [list(x) for x in diagram.crossings]
    out[ci][slot] = z
    if sign > 0:
        out.append([arc, z, w, w])
    else:
        out.append([arc, w, w, z])
    return validate(out)


def connect_sum(d1: PlanarDiagram, arc1: int | None, d2: PlanarDiagram,
                arc2: int | None) -> PlanarDiagram:
    """Splice two diagrams head-to-tail at the chosen arcs.

    Either summand may be the zero-crossing unknot, in which case the
    other diagram is returned unchanged."""
    if not d2.crossings:
        return d1
    if not d1.crossings:
        return d2
    if arc1 is None or arc2 is None:
        raise KnotError("pd: connect sum needs an arc in each diagram")
    # both sinks first, so an unknown arc is refused before any label is
    # shifted; shifting the labels moves no slot
    c1, s1 = _sink_slot(d1, arc1)
    c2, s2 = _sink_slot(d2, arc2)
    offset = max(d1.arcs)
    rows1 = [list(x) for x in d1.crossings]
    rows2 = [[a + offset for a in x] for x in d2.crossings]
    rows1[c1][s1] = arc2 + offset
    rows2[c2][s2] = arc1
    return validate(rows1 + rows2)
