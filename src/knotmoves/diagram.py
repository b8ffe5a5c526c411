"""Planar knot-diagram core.

A diagram is stored as PD-style crossing records.  Each crossing holds the
four incident edge ids in counterclockwise order; by convention the strand
passing through slots (0, 2) is the under strand and the strand through
slots (1, 3) is the over strand.  Rotating a record by two slots is a
representational gauge and leaves the diagram unchanged.

Orientation is not stored: for knots, crossing signs are independent of the
traversal direction, so signs, writhe and Gauss data are derived from a
deterministic traversal that starts at the basepoint edge.

Edge ids are arbitrary non-negative integers.  A 0-crossing unknot is the
fragment with no crossings and ``free_loops == 1``; its single circle is
addressable as edge 0 for attachment purposes.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence


class MalformedDiagram(ValueError):
    """Raised when text input or crossing data fails validation."""


class NotRealizable(ValueError):
    """Raised when a DT or PD code admits no planar realization."""


class Crossing(NamedTuple):
    """One crossing: edge ids at slots 0..3 ccw; slots (0,2) carry the under strand."""

    ends: tuple[int, int, int, int]

    def rotated(self, r: int) -> "Crossing":
        e = self.ends
        return Crossing((e[r % 4], e[(r + 1) % 4], e[(r + 2) % 4], e[(r + 3) % 4]))

    def mirrored(self) -> "Crossing":
        # Swapping over/under keeps the ccw order and moves the under pair to (1,3).
        return self.rotated(1)

    def relabeled(self, mapping: dict[int, int]) -> "Crossing":
        return Crossing(tuple(mapping.get(e, e) for e in self.ends))  # type: ignore[arg-type]


# A dart (e, dir) travels edge e away from its lower slot code when dir is 0,
# from its higher one when dir is 1.
Dart = tuple[int, int]


class _lazy:
    """``cached_property`` without the RLock that Python 3.10 and 3.11 take
    on each first read: the value goes into the instance ``__dict__``, which
    later reads find before this non-data descriptor.  For the private
    caches; ``canonical_key`` stays a ``cached_property``."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Fragment:
    """Crossing soup with optional boundary legs and free (crossing-less) loops.

    Immutable after construction.  ``legs`` lists the edge ids that end on
    the boundary, in ccw order around the boundary circle.

    The walks run on flat tables over slot codes (``_slots``): slot s of
    crossing ci is code ``4*ci + s`` and leg li is code ``4*n + li``, for
    n crossings.  ``mate[p]`` is the code at the other end of p's edge,
    ``dart[p]`` the dart leaving from p, and ``order`` lists the codes by
    dart.  So ``q ^ 2`` is the slot across the crossing from q, and
    ``(q & ~3) | ((q + 1) & 3)`` the next slot ccw.
    """

    def __init__(self, crossings: Iterable[Crossing] = (), legs: Sequence[int] = (),
                 free_loops: int = 0):
        self.crossings: tuple[Crossing, ...] = tuple(
            c if isinstance(c, Crossing) else Crossing(tuple(c)) for c in crossings)
        self.legs: tuple[int, ...] = tuple(legs)
        self.free_loops = int(free_loops)

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def edges(self) -> list[int]:
        """The edge ids in increasing order."""
        _, dart, order = self._slots
        return [dart[p][0] for p in order[0::2]]

    @_lazy
    def _slots(self) -> tuple[list[int], list[Dart], list[int]]:
        """(mate, dart, order): the slot tables and the codes sorted by dart.

        Raises MalformedDiagram unless every edge has exactly two ends.
        """
        ends = [e for c in self.crossings for e in c.ends]
        ends.extend(self.legs)
        # A stable sort puts the two ends of each edge side by side, in code order.
        order = sorted(range(len(ends)), key=ends.__getitem__)
        tails, heads = order[0::2], order[1::2]
        edges = list(map(ends.__getitem__, tails))
        if edges != list(map(ends.__getitem__, heads)) or len(set(edges)) != len(edges):
            counts = Counter(ends)
            e = next(e for e, k in counts.items() if k != 2)
            raise MalformedDiagram(
                f"edge {e} occurs {counts[e]} times (expected exactly 2)")
        mate = [0] * len(ends)
        dart: list[Dart] = [(0, 0)] * len(ends)
        for p, q, e in zip(tails, heads, edges):
            mate[p] = q
            mate[q] = p
            dart[p] = (e, 0)
            dart[q] = (e, 1)
        return mate, dart, order

    def _code(self, d: Dart) -> int:
        """The slot code that dart d leaves from; ValueError if d is absent."""
        _, dart, order = self._slots
        i = bisect_left(order, d, key=dart.__getitem__)
        if i == len(order) or dart[order[i]] != d:
            raise ValueError(f"no dart {d}")
        return order[i]

    def check_edge_pairing(self) -> None:
        self._slots  # building the tables checks the pairing

    def _with_ends(self, new: dict[int, int]) -> tuple[list[Crossing], list[int]]:
        """Copies of the crossing records and legs with the edge id at each
        slot code of ``new`` replaced by its value."""
        crossings, legs = list(self.crossings), list(self.legs)
        legs_from = 4 * len(crossings)
        for q, e in new.items():
            if q >= legs_from:
                legs[q - legs_from] = e
            else:
                ends = list(crossings[q >> 2].ends)
                ends[q & 3] = e
                crossings[q >> 2] = Crossing(tuple(ends))  # type: ignore[arg-type]
        return crossings, legs

    # -- traversal -------------------------------------------------------

    def _strand_walk(self, start: int) -> list[int]:
        """Codes left from along the strand from ``start``, to a leg or back to it."""
        mate = self._slots[0]
        legs_from = 4 * len(self.crossings)
        walk = [start]
        q = mate[start]
        while q < legs_from:
            q ^= 2
            if q == start:
                break
            walk.append(q)
            q = mate[q]
        return walk

    def boundary_strands(self) -> list[list[int]]:
        """Strand walks (as codes) from each leg to its partner leg, in leg order."""
        mate = self._slots[0]
        legs_from = 4 * len(self.crossings)
        strands = []
        ends: set[int] = set()
        for li in range(len(self.legs)):
            if li not in ends:
                walk = self._strand_walk(legs_from + li)
                ends.add(mate[walk[-1]] - legs_from)
                strands.append(walk)
        return strands

    def closed_components(self) -> list[list[int]]:
        """Strand walks (as codes) of the closed components.

        Each starts in dir 0 at the smallest edge that no boundary strand or
        earlier walk has visited.
        """
        mate, _, order = self._slots
        seen = bytearray(len(mate))
        comps = []
        for walk in self.boundary_strands():
            for p in walk:
                seen[p] = seen[mate[p]] = 1
        for start in order:
            if not seen[start]:
                walk = self._strand_walk(start)
                for p in walk:
                    seen[p] = seen[mate[p]] = 1
                comps.append(walk)
        return comps

    def component_count(self) -> int:
        return len(self.closed_components()) + len(self.boundary_strands()) + self.free_loops

    # -- faces -----------------------------------------------------------

    def face_walks(self) -> list[list[Dart]]:
        """Orbits of the left-turn dart map; each walk keeps its face on the right.

        Computed once per fragment (fragments are immutable); callers share
        the returned lists and must not mutate them.
        """
        return self._face_darts

    @_lazy
    def _face_darts(self) -> list[list[Dart]]:
        if not self.crossings and self.free_loops == 1 and not self.legs:
            return [[(0, 0)], [(0, 1)]]
        dart = self._slots[1]
        return [[dart[p] for p in walk] for walk in self._face_walks]

    @_lazy
    def _face_walks(self) -> list[list[int]]:
        """The face walks as the codes they leave from (none for a bare circle)."""
        mate, _, order = self._slots
        legs_from = 4 * len(self.crossings)
        seen = bytearray(len(mate))
        walks = []
        for p in order:
            if seen[p]:
                continue
            walk = []
            while not seen[p]:
                seen[p] = 1
                walk.append(p)
                q = mate[p]
                # A leg turns the walk back along its own edge.
                p = q if q >= legs_from else (q & ~3) | ((q + 1) & 3)
            walks.append(walk)
        return walks

    def is_planar(self) -> bool:
        """Euler test for a closed connected diagram (V - E + F == 2)."""
        if not self.crossings:
            return True
        if self.legs or self.free_loops:
            raise ValueError("planarity test applies to closed connected fragments")
        return len(self._face_walks) == self.n_crossings + 2

    def max_edge_id(self) -> int:
        _, dart, order = self._slots
        return dart[order[-1]][0] if order else 0

    def relabeled(self, mapping: dict[int, int]) -> "Fragment":
        return type(self)([c.relabeled(mapping) for c in self.crossings],
                          [mapping.get(e, e) for e in self.legs], self.free_loops)

    def shifted(self, delta: int):
        """Add ``delta`` to every edge id; subclasses keep their class."""
        return self.relabeled({e: e + delta for e in self.edges()})


class _IdJoiner:
    """Union-find over edge ids used when splicing strands.

    ``join(u, v)`` fuses one stub end of u with one stub end of v; fusing the
    two ends of what is already a single edge closes a free loop.
    """

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        self.loops = 0

    def find(self, x: int) -> int:
        path = []
        while x in self.parent:
            path.append(x)
            x = self.parent[x]
        for p in path:
            self.parent[p] = x
        return x

    def join(self, u: int, v: int) -> None:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            self.loops += 1
        else:
            self.parent[rv] = ru

    def apply(self, crossings: Iterable[Crossing]) -> list[Crossing]:
        root = {x: self.find(x) for x in self.parent}.get
        # A Crossing is the 1-tuple of its ends.
        return [Crossing((root(a, a), root(b, b), root(c, c), root(d, d)))
                for (a, b, c, d), in crossings]


@lru_cache(maxsize=128)
def _token_ranks(n: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Ranks in string order of the key tokens ``str(label) + tail``, indexed
    by ``4*label + tail``, and the token strings by rank."""
    words = [str(k // 4) + ("o+", "o-", "u+", "u-")[k % 4] for k in range(4 * n)]
    order = sorted(range(4 * n), key=words.__getitem__)
    rank = [0] * (4 * n)
    for r, k in enumerate(order):
        rank[k] = r
    return tuple(rank), tuple(words[k] for k in order)


def _least_rotation(codes: list[int]) -> list[int]:
    """The least rotation of ``codes``; only a start on the least code can win."""
    low = min(codes)
    m = len(codes)
    twice = codes * 2
    return min([twice[i:i + m] for i in range(m) if codes[i] == low])


# Distinct Gauss patterns whose key is kept; a search or an invariants run
# meets a few hundred.
_KEY_MEMO = 4096


@lru_cache(maxsize=_KEY_MEMO)
def _pattern_key(pattern: tuple[int, ...]) -> str:
    """``canonical_key`` of the diagrams with this Gauss pattern."""
    if not pattern:
        return "unknot"
    # The pattern is one rotation of the passage codes 4*b + t; a passage
    # whose partner lies b steps back in it names the crossing by the
    # partner's position, else by its own.
    seq = [(i - (c >> 2) if c >> 2 <= i else i, c & 3) for i, c in enumerate(pattern)]
    # A passage is (crossing, tail), tails numbered in string order
    # "o+" < "o-" < "u+" < "u-".  Every rotation labels its first
    # passage 0, so only rotations starting on the minimal tail can win.
    # Candidates are lists of token ranks, which order like the token
    # strings; no token is a proper prefix of another (each ends in a
    # sign), so the joined strings compare the same way.  All candidates
    # have the same length, so a candidate is dropped at its first token
    # above the best, and once below it is finished without compares.
    rank, words = _token_ranks(len(seq) // 2)
    m = len(seq)
    best: list[int] = []
    for walk in (seq, seq[::-1]):
        head = min(t for _, t in walk)
        twice = walk * 2
        for r in range(m):
            if walk[r][1] != head:
                continue
            label: dict[int, int] = {}
            cand: list[int] = []
            tied = bool(best)
            for ci, t in twice[r:r + m]:
                tok = rank[4 * label.setdefault(ci, len(label)) + t]
                if tied and tok != best[len(cand)]:
                    if tok > best[len(cand)]:
                        break
                    tied = False
                cand.append(tok)
            else:
                if not tied:
                    best = cand
    return ";".join(words[k] for k in best)


class Diagram(Fragment):
    """A closed single-component (knot) diagram with a marked basepoint edge."""

    def __init__(self, crossings: Iterable[Crossing] = (), free_loops: int = 0,
                 basepoint: int | None = None, check: bool = True):
        super().__init__(crossings, (), free_loops)
        if basepoint is not None:
            self.basepoint = basepoint
        if check:
            self.validate()

    @_lazy
    def basepoint(self) -> int:
        """The basepoint edge: the one given, else the least edge id."""
        if not self.crossings:
            return 0
        _, dart, order = self._slots
        return dart[order[0]][0]

    @classmethod
    def unknot(cls) -> "Diagram":
        return cls((), free_loops=1)

    def validate(self) -> None:
        if self.legs:
            raise MalformedDiagram("knot diagram cannot have boundary legs")
        if not self.crossings:
            if self.free_loops != 1:
                raise MalformedDiagram("crossing-free diagram must be a single circle")
            return
        if self.free_loops:
            raise MalformedDiagram("knot diagram with crossings cannot carry free loops")
        # The slot tables check the edge pairing, first, since their
        # MalformedDiagram is a ValueError too.  knot_walk starts on the
        # basepoint edge, so it fails when that edge is absent; strand walks
        # partition the edges, so it covers all 2n exactly when it is the
        # only one.
        self.check_edge_pairing()
        try:
            covered = len(self.knot_walk)
        except ValueError:
            covered = -1
        if covered != 2 * self.n_crossings:
            count = len(self.closed_components())
            if count != 1:
                raise MalformedDiagram(f"diagram has {count} components (expected 1)")
            raise MalformedDiagram(f"basepoint edge {self.basepoint} not present")

    # -- derived orientation data ---------------------------------------

    @_lazy
    def knot_walk(self) -> list[int]:
        """Canonical traversal, as the slot codes it leaves from.

        It starts at the basepoint edge with dir 0.  When the basepoint edge
        is a kink loop, both of its ends sit at one crossing and dir 0 is
        arbitrary; the walk then follows the PD convention instead, arriving
        at an under end in slot 0 or leaving one in slot 2.
        """
        if not self.crossings:
            return []
        mate = self._slots[0]
        p = self._code((self.basepoint, 0))
        q = mate[p]
        if p >> 2 == q >> 2:
            under, other = (p, q) if p % 2 == 0 else (q, p)
            p = other if under & 3 == 0 else under
        return self._strand_walk(p)

    @_lazy
    def passages(self) -> list[tuple[int, int]]:
        """(crossing index, arrival slot) at each traversal step."""
        mate = self._slots[0]
        return [divmod(mate[p], 4) for p in self.knot_walk]

    @_lazy
    def gauss_chords(self) -> list[tuple[int, int, bool, int]]:
        """The Gauss chord table: ``(f, g, over, sign)`` per crossing, in
        order of its first passage.

        The crossing is passed at steps f < g of the knot walk, ``over``
        says the passage at f goes over (it is the arrow's tail), and the
        sign is +1 iff the two arrival slots sum to 3 mod 4 (the under
        strand arrives in an even slot).
        """
        mate = self._slots[0]
        row = [-1] * self.n_crossings
        chords: list = []
        for g, p in enumerate(self.knot_walk):
            a = mate[p]
            j = row[a >> 2]
            if j < 0:
                # The first passage holds the row: its step and arrival slot.
                row[a >> 2] = len(chords)
                chords.append((g, a))
                continue
            f, a0 = chords[j]
            chords[j] = (f, g, a0 % 2 == 1, 1 if (a + a0) & 3 == 3 else -1)
        return chords

    @_lazy
    def signs(self) -> tuple[int, ...]:
        """Crossing signs, read off the Gauss chord table."""
        signs = [0] * self.n_crossings
        for f, _, _, sign in self.gauss_chords:
            signs[self.passages[f][0]] = sign
        return tuple(signs)

    def writhe(self) -> int:
        return sum(self.signs)

    @_lazy
    def gauss_pattern(self) -> tuple[int, ...]:
        """The signed Gauss word up to rotation, reversal and relabelling.

        Passage i of the knot walk gets the code ``4*b + t``, read off
        ``gauss_chords``: b is the number of steps back (cyclically) to the
        other passage of its crossing, and t the tail rank of the key,
        ``under*2 + (sign < 0)``.  The pattern is the least rotation of
        this list, over both directions; reversal maps b to ``m - b`` for m
        passages.

        Complete: one rotation of the codes gives the Gauss word with its
        crossings labelled by first passage (a passage starts a new label
        when b reaches back past the first position, and repeats the label
        of the passage b steps back otherwise), and that word gives the
        codes back.  So two diagrams have equal patterns exactly when their
        signed Gauss words agree up to rotation, reversal and relabelling,
        which is when their canonical keys agree.
        """
        if not self.crossings:
            return ()
        m = 2 * self.n_crossings
        fwd = [0] * m
        for f, g, over, sign in self.gauss_chords:
            neg = sign < 0
            fwd[f] = 4 * (m - g + f) + 2 * (not over) + neg
            fwd[g] = 4 * (g - f) + 2 * over + neg
        back = [4 * (m - (c >> 2)) + (c & 3) for c in reversed(fwd)]
        return tuple(min(_least_rotation(fwd), _least_rotation(back)))

    @cached_property
    def canonical_key(self) -> str:
        """Minimal labeled Gauss string over basepoint rotations and reversal.

        Equal for diagrams differing by relabeling or basepoint moves; this
        is a diagram-level fingerprint, not a knot invariant.  It is a
        function of ``gauss_pattern``, computed once per pattern.
        """
        return _pattern_key(self.gauss_pattern)

    @property
    def key(self) -> str:
        """What the explorer compares for a knot diagram: ``canonical_key``."""
        return self.canonical_key

    # -- basic operations -------------------------------------------------

    def mirror(self) -> "Diagram":
        """Flip every over/under assignment."""
        return Diagram([c.mirrored() for c in self.crossings], self.free_loops,
                       self.basepoint, check=False)

    def relabeled(self, mapping: dict[int, int]) -> "Diagram":
        return Diagram([c.relabeled(mapping) for c in self.crossings], self.free_loops,
                       mapping.get(self.basepoint, self.basepoint), check=False)

    def connected_sum(self, other: "Diagram") -> "Diagram":
        """Connected sum taken at the basepoint edges of both diagrams."""
        if not self.crossings:
            return other
        if not other.crossings:
            return self
        shift = self.max_edge_id() + 1
        d2 = other.shifted(shift)
        e1 = self.basepoint
        e2 = d2.basepoint
        # Cut both basepoint edges and reconnect crosswise along the dir-0
        # darts: e1 now flows into the end where e2 arrived, and e2 into e1's.
        cr1, _ = self._with_ends({self._code((e1, 1)): e2})
        cr2, _ = d2._with_ends({d2._code((e2, 1)): e1})
        return Diagram(cr1 + cr2, 0, self.basepoint)


# -- PD text format -------------------------------------------------------

_PD_TOKEN = re.compile(r"X\s*[\(\[]\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*[\)\]]")


# Gauss patterns of diagrams that passed the Euler test, cleared when it
# holds _KEY_MEMO of them.
_PLANAR_PATTERNS: set[tuple[int, ...]] = set()


def parse_pd(text: str) -> Diagram:
    """Parse ``X(a,b,c,d)`` tuples (ccw from the incoming under-strand).

    The empty string gives the 0-crossing unknot.  The basepoint is the
    lowest-numbered edge.  Codes that fail the Euler test raise NotRealizable.

    The Euler test runs once per Gauss pattern in a process
    (``_PLANAR_PATTERNS``).  That is sound because the signed Gauss word
    fixes the ribbon graph: at each crossing, over/under and the sign fix
    the ccw order of the four edge ends (the under strand arrives in slot 0,
    the over strand in slot 3 when positive and in slot 1 when negative, up
    to the two-slot gauge), and consecutive passages share an edge, so the
    word fixes the face walks.  Relabelling and rotation rename the walks;
    reversal swaps each strand's in and out ends, which is the two-slot
    gauge, and keeps the signs.  Only a diagram that passed the test adds
    its pattern, so a code without a planar realization always raises.
    """
    stripped = text.strip()
    if not stripped:
        return Diagram.unknot()
    # One split: the gaps around the tuples, each followed by its tuple's ends.
    parts = _PD_TOKEN.split(stripped)
    step = _PD_TOKEN.groups + 1
    for gap in parts[::step]:
        if gap.strip(" ,;\t\n"):
            raise MalformedDiagram(f"unexpected text in PD code: {gap!r}")
    del parts[::step]
    if not parts:
        raise MalformedDiagram("no X(a,b,c,d) tuples found")
    ends = iter(map(int, parts))
    crossings = list(map(Crossing, zip(ends, ends, ends, ends)))
    d = Diagram(crossings)
    if d.gauss_pattern not in _PLANAR_PATTERNS:
        if not d.is_planar():
            raise NotRealizable(f"PD code {text!r} has no planar realization")
        if len(_PLANAR_PATTERNS) >= _KEY_MEMO:
            _PLANAR_PATTERNS.clear()
        _PLANAR_PATTERNS.add(d.gauss_pattern)
    return d


def emit_pd(d: Diagram) -> str:
    """Emit PD text with edges renumbered 1..2n along the canonical traversal.

    One tuple per row of ``gauss_chords``, in order of first passage, each
    starting at the arrival slot of its crossing's under passage."""
    if not d.crossings:
        return ""
    mate, dart, _ = d._slots
    walk = d.knot_walk
    number = {dart[p][0]: i + 1 for i, p in enumerate(walk)}
    parts = []
    for f, g, over, _ in d.gauss_chords:
        q = mate[walk[g if over else f]]
        parts.append("X(%d,%d,%d,%d)" % tuple(
            number[e] for e in d.crossings[q >> 2].rotated(q & 3).ends))
    return " ".join(parts)


# -- DT format ------------------------------------------------------------

_DT_TOKEN = re.compile(r"[+-]?[0-9]+")


def parse_dt(text: str) -> Diagram:
    """Parse a Dowker-Thistlethwaite code (space-separated even integers).

    Entry ``a_i`` pairs odd position 2i-1 with even position ``|a_i|``; the
    passage at the even position goes over exactly when the entry is
    positive.  Codes without a planar realization raise NotRealizable.

    Each crossing has an orientation bit.  By the realizability criterion of
    Dowker-Thistlethwaite (Topology Appl. 16, 1983), in the form of
    Rosenstiehl's characterization of Gauss codes as proved by de Fraysseix
    and Ossona de Mendez (Discrete Comput. Geom. 22, 1999), any two
    interlaced crossings a, b of a planar realization satisfy

        bit_a ^ bit_b == 1 ^ |N(a) & N(b)| ^ neg(a) ^ neg(b)  (mod 2),

    with N(x) the crossings interlaced with x and neg(x) a negative entry.
    The least crossing of each interlacement component gets bit 0 and a walk
    carries the rule across the component.  That is the first planar pattern
    in product order; a contradiction, or a result that fails the Euler
    test, means there is none.
    """
    stripped = text.strip()
    if not stripped:
        return Diagram.unknot()
    tokens = stripped.replace(",", " ").split()
    if not all(map(_DT_TOKEN.fullmatch, tokens)):
        raise MalformedDiagram(f"bad DT token in {text!r}")
    entries = [int(tok) for tok in tokens]
    n = len(entries)
    if any(a == 0 or a % 2 for a in entries):
        raise MalformedDiagram("DT entries must be nonzero even integers")
    evens = [abs(a) for a in entries]
    if sorted(evens) != list(range(2, 2 * n + 1, 2)):
        raise MalformedDiagram("DT even entries must be 2,4,...,2n in some order")

    # Positions 1..2n around the circle; edge j runs from position j to j+1.
    # Crossing i has one record per orientation bit: bit 0 puts the outgoing
    # over edge at slot 1, bit 1 the incoming one.
    def edge_before(p: int) -> int:
        return 2 * n if p == 1 else p - 1

    ends = []
    for i, a in enumerate(entries):
        odd = 2 * i + 1
        even = abs(a)
        over, under = (even, odd) if a > 0 else (odd, even)
        u_in, u_out = edge_before(under), under
        o_in, o_out = edge_before(over), over
        ends.append(((u_in, o_out, u_out, o_in), (u_in, o_in, u_out, o_out)))

    # N(x) as a bit mask: the crossings passed once strictly between the
    # two passages of x.  prefix[p] marks those passed once in 1..p.
    prefix = [0] * (2 * n + 1)
    for i, even in enumerate(evens):
        prefix[2 * i + 1] = prefix[even] = 1 << i
    for p in range(1, 2 * n + 1):
        prefix[p] ^= prefix[p - 1]
    nbrs = [prefix[2 * i + 1] ^ prefix[even] ^ (1 << i) for i, even in enumerate(evens)]
    neg = [a < 0 for a in entries]
    bits = [-1] * n
    consistent = True
    for root in range(n):
        if bits[root] >= 0:
            continue
        bits[root] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            for b in (b for b in range(n) if nbrs[a] >> b & 1):
                bit = (bits[a] ^ 1 ^ (nbrs[a] & nbrs[b]).bit_count() ^ neg[a] ^ neg[b]) & 1
                if bits[b] < 0:
                    bits[b] = bit
                    stack.append(b)
                consistent = consistent and bits[b] == bit
    if consistent:
        d = Diagram([Crossing(ends[i][bit]) for i, bit in enumerate(bits)], basepoint=1)
        if d.is_planar():
            return d
    raise NotRealizable(f"DT code {text!r} has no planar realization")


def emit_dt(d: Diagram) -> str:
    """Emit the DT code along the canonical traversal from the basepoint."""
    if not d.crossings:
        return ""
    m = 2 * d.n_crossings
    entries = {}
    # The basepoint edge leaves DT position 1, so the arrival at step i is
    # position i+2 (cyclically), which has the parity of i.
    for f, g, over, _ in d.gauss_chords:
        if (g - f) % 2 == 0:
            raise MalformedDiagram("diagram admits no odd/even DT labelling")
        odd, even, even_over = (f, g, not over) if f % 2 else (g, f, over)
        entries[(odd + 1) % m + 1] = ((even + 1) % m + 1) * (1 if even_over else -1)
    return " ".join(str(entries[p]) for p in sorted(entries))
