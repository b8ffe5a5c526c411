"""Brunnian-type local move templates, chords, and singular families.

A template holds the canonical tangle pair (before, after) in through form
plus finger-form insertion blobs realizing the same move relative to k
trivially embedded hairpins:

* order 2: crossing change; insertion blob = a two-crossing clasp hook;
* order 3: the triangle-flip move; insertion blob = the compiled pure-braid
  commutator of two clasps on three hairpins (Borromean pattern);
* order 4: the pass move exchanging two interleaved clasps; insertion blob
  = the compiled commutator of the two clasps on four hairpins.

Deleting any one strand from an insertion blob leaves a tangle that reduces
to the crossing-free hairpins; the reduction scripts are the Brunnian
certificates, computed once per template and replayed on demand.

A chord attaches a template to a host diagram: either by rewriting matched
structure (a crossing switch, a triangle flip) or by cutting the host at k
co-facial sites and gluing a finger blob into the face.  Sites are
(edge, offset, side) triples listed in the cyclic order in which the face
walk visits them; the side flag names the face via the dart (edge, side).
Every chord goes through one pipeline, ``_glue_many``: it checks that no two
chords of a family clash, applies the rewrites through ``apply_move``, cuts
the host and numbers the new edges once, and returns the member that holds
every chord with two builders: one splices any member from that plan, the
other reads any member's Gauss chord table off the full member.  That full
member is the family's one planarity gate: it is validated and must pass the
Euler test.  A ``family`` keeps one such plan: its 2^l members are spliced
unchecked from the cut of the full chord set, with left-out insertions
rejoined and left-out rewrites swapped back; ``band_sum`` is the full
member, and ``apply_chord`` the band sum of one chord.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations, groupby, islice
from typing import Callable, Container, Iterable, Sequence

from .diagram import Crossing, Diagram, Fragment, _IdJoiner
from .moves import (InapplicableMove, Script, _Explorer, _r3_steps, _rewrite_steps, _rewrites,
                    apply_move, greedy_reduce, replay, simplify)
from .search import CAP_EXTRA
from .tangles import Builder, Tangle, clasp_word, commutator

_ID_BLOCK = 4096
_R3_BUDGET = 400  # R3 expansions per tangle simplification
_CERT_R3_BUDGET = 800  # R3 expansions per strand-deletion reduction


class InvalidSite(InapplicableMove):
    pass


# -- templates -----------------------------------------------------------------

@dataclass(frozen=True)
class MoveTemplate:
    k: int
    name: str
    before: Tangle
    after: Tangle
    insertions: tuple[Tangle, ...]

    def insertion(self, variant: int = 0) -> Tangle:
        if not 0 <= variant < len(self.insertions):
            raise InvalidSite(f"no insertion variant {variant} of {self.name}")
        return self.insertions[variant]

    def inverse(self) -> "MoveTemplate":
        return MoveTemplate(self.k, self.name + "~inv", self.after, self.before,
                            self.insertions)

    @lru_cache(maxsize=None)
    def brunnian_certificates(self) -> dict:
        """Reduction scripts witnessing triviality of every strand deletion,
        computed once per template; callers must not change them."""
        pair: dict[int, tuple[Script, Script]] = {}
        for s in range(self.k):
            db, scr_b = simplify(self.before.delete_strand(s), _CERT_R3_BUDGET)
            da, scr_a = simplify(self.after.delete_strand(s), _CERT_R3_BUDGET)
            if db.key != da.key:
                raise AssertionError(
                    f"{self.name}: strand {s} deletion is not a trivial move")
            pair[s] = (scr_b, scr_a)
        blobs: dict[int, dict[int, Script]] = {}
        for v, blob in enumerate(self.insertions):
            per = {}
            for s in range(self.k):
                reduced, script = simplify(blob.delete_strand(s), _CERT_R3_BUDGET)
                if reduced.n_crossings != 0:
                    raise AssertionError(
                        f"{self.name}: insertion variant {v} strand {s} "
                        "does not reduce to trivial hairpins")
                per[s] = script
            blobs[v] = per
        return {"pair": pair, "insertion": blobs}

    def verify_certificates(self, certs: dict) -> bool:
        """Replay certificates; True iff every reduction checks out."""
        for s, (scr_b, scr_a) in certs["pair"].items():
            db = replay(self.before.delete_strand(s), scr_b)
            da = replay(self.after.delete_strand(s), scr_a)
            if db.key != da.key:
                return False
        for v, per in certs["insertion"].items():
            blob = self.insertions[v]
            for s, script in per.items():
                reduced = replay(blob.delete_strand(s), script)
                if reduced.n_crossings != 0:
                    return False
        return True


def _hook_tangle() -> Tangle:
    """Two-crossing clasp of two hairpin fingers."""
    y = Crossing((2, 5, 1, 4))
    x = Crossing((6, 3, 5, 2))
    return Tangle([y, x], legs=(4, 6, 3, 1))


@lru_cache(maxsize=None)
def builtin_templates() -> dict[int, MoveTemplate]:
    """Validated templates for orders 2 (crossing change), 3, 4."""
    x_plus = Builder(2).cross(0, True).through()
    x_minus = Builder(2).cross(0, False).through()
    hook = _hook_tangle()
    t2 = MoveTemplate(2, "crossing-change", x_plus, x_minus,
                      (hook, hook.mirrored()))

    tri1 = Builder(3).cross(0, True).cross(1, False).cross(0, True).through()
    tri2 = Builder(3).cross(1, True).cross(0, False).cross(1, True).through()
    blob3 = Builder(6).word(
        commutator(clasp_word(6, 0, 2, True), clasp_word(6, 0, 4, True))).fingers()
    t3 = MoveTemplate(3, "triangle-flip", tri1, tri2,
                      (blob3, blob3.mirrored()))

    pass1 = Builder(4).word(
        clasp_word(4, 0, 2, True) + clasp_word(4, 1, 3, True)).through()
    pass2 = Builder(4).word(
        clasp_word(4, 1, 3, True) + clasp_word(4, 0, 2, True)).through()
    blob4 = Builder(8).word(
        commutator(clasp_word(8, 0, 4, True), clasp_word(8, 2, 6, True))).fingers()
    t4 = MoveTemplate(4, "clasp-pass", pass1, pass2,
                      (blob4, blob4.mirrored()))

    out = {2: t2, 3: t3, 4: t4}
    for tpl in out.values():
        if not all(blob.is_finger_form() for blob in tpl.insertions):
            raise AssertionError(f"{tpl.name}: insertion blob is not in finger form")
        certs = tpl.brunnian_certificates()
        if not tpl.verify_certificates(certs):
            raise AssertionError(f"certificates for {tpl.name} failed to replay")
    return out


# -- chords ---------------------------------------------------------------------

Site = tuple[int, int, int]  # (edge, offset, side-dart)


@dataclass(frozen=True)
class Chord:
    """An attachment of an order-k template to a host diagram."""

    k: int
    kind: str              # "insert" | "switch" | "delta"
    sites: tuple
    variant: int = 0

    def touched(self, d: Diagram) -> tuple[set[int], set[int]]:
        """(edge ids, crossing indices) used anywhere by this chord."""
        if self.kind == "insert":
            return {s[0] for s in self.sites}, set()
        if self.kind not in ("switch", "delta"):
            raise InvalidSite(f"unknown chord kind {self.kind!r}")
        cis = self.sites[:1 if self.kind == "switch" else 3]
        for ci in cis:
            if not 0 <= ci < d.n_crossings:
                raise InvalidSite(f"no crossing {ci}")
        return {e for ci in cis for e in d.crossings[ci].ends}, set(cis)

    def to_json(self) -> dict:
        return {"template_k": self.k, "kind": self.kind,
                "variant": self.variant, "sites": [list(s) if isinstance(s, tuple)
                                                   else s for s in self.sites]}

    @classmethod
    def from_json(cls, obj: dict) -> "Chord":
        """The chord of ``to_json``; malformed fields raise InvalidSite."""
        k, kind, sites = obj.get("template_k"), obj.get("kind"), obj.get("sites")
        variant = obj.get("variant", 0)

        def index(x) -> bool:  # a bool is an int, but not an index
            return type(x) is int and x >= 0

        # kind -> (order, site count, whether a site is an [edge, offset, side] list)
        shape = {"switch": (2, 1, False), "delta": (3, 6, False), "insert": (k, k, True)}.get(kind)
        if shape is None or not index(k) or k not in builtin_templates() or k != shape[0] \
                or not index(variant) or variant >= len(builtin_templates()[k].insertions) \
                or not isinstance(sites, list) or len(sites) != shape[1] or not all(
                    isinstance(s, list) and len(s) == 3 and all(map(index, s)) and s[2] < 2
                    if shape[2] else index(s) for s in sites):
            raise InvalidSite(f"malformed chord {obj!r}")
        return cls(k, kind, tuple(tuple(s) if shape[2] else s for s in sites), variant)


def _clash(d: Diagram, a: Chord, b: Chord) -> str | None:
    """What two chords of one family share that they may not, or None.

    Crossing regions must be disjoint.  Switching or sliding a crossing
    rotates its record, which scrambles the face darts used to address
    insertion sites, so insertion edges must avoid rewrite chords' edges;
    insertions may share an edge with each other (the glue rejects
    coincident cut points, and the full member's Euler test interleaved
    site groups).
    """
    (ea, xa), (eb, xb) = a.touched(d), b.touched(d)
    if xa & xb:
        return "a crossing"
    if (a.kind == "insert") != (b.kind == "insert") and ea & eb:
        return "an edge"
    return None


Table = list[tuple[int, int, bool, int]]  # a Gauss chord table, as ``Diagram.gauss_chords``


@lru_cache(maxsize=1024)
def _shifted_insertion(k: int, variant: int, delta: int) -> Tangle:
    """Insertion blob ``variant`` of the order-k template with ``delta`` added
    to every edge id, built once per process; callers must not change it."""
    return builtin_templates()[k].insertion(variant).shifted(delta)


def _glue_many(d: Diagram, chords: Sequence[Chord]) -> tuple[
        Diagram, Callable[[Container[int]], Diagram], Callable[[Container[int]], Table]]:
    """The one chord pipeline: check a family's chords, apply its rewrites,
    cut the host and shift every blob, once; return ``(full, member,
    table)``, the member holding every chord and two builders:
    ``member(subset)`` splices the member holding the chords whose indices
    are in ``subset``, and ``table(subset)`` gives that member's Gauss chord
    table with nothing spliced (``_member_tables``).

    No two chords may clash (``_clash``).  Each rewrite (a switch or a flip
    on d's own crossings) applies through ``apply_move``, whose refusal is
    reported as ``InvalidSite``.  Rewrites keep every edge id and change only
    their own crossings' records, which insertion edges avoid, so the host
    takes every rewrite before it is cut and a member swaps back the base
    records of the rewrites it leaves out.  The insertions, sorted by their
    sites, are glued into the host's faces: a member joins the blob legs of
    each insertion it holds to the flanks of its sites, and joins each
    finger's two flanks back together for any other.

    Planarity has one gate: the full member is validated and passes the
    Euler test, or the family is refused, also when it glues nothing.  Every
    other member is the full one with some blobs rejoined or some rewrites
    undone, so it is spliced with no check.  Sites must also have distinct
    cut points and be listed in the cyclic order of their face walk, which
    is the order the glue reads them in.

    New edge ids lie above the host's, in blocks of ``_ID_BLOCK``: the first
    block names the piece after each cut point, in cut-point order, and
    block j + 1 holds the blob of the j-th insertion in site order.  So host
    edges < cut pieces < blobs, in that order; a rejoined piece keeps the id
    of the piece it starts from, so a member's ids rank as if only its
    chords were glued.

    A member's crossings are laid out as the host's, with every rewrite
    applied or swapped back in place, then each blob's it holds, blob after
    blob in glue order.  So in the full member crossing ci < n is host
    crossing ci, for a host of n crossings, and the blob crossings follow
    in glue order, each blob's in its own record order.
    """
    for (i, a), (j, b) in combinations(enumerate(chords), 2):
        shared = _clash(d, a, b)
        if shared:
            raise InvalidSite(f"chords {i} and {j} share {shared}")
    host, undo = d, {}
    for i, c in enumerate(chords):
        if c.kind != "insert":
            try:
                host = apply_move(host, (c.kind, *c.sites))  # type: ignore[assignment]
            except InapplicableMove as exc:
                raise InvalidSite(str(exc)) from None
            undo[i] = {ci: d.crossings[ci] for ci in c.touched(d)[1]}
    # the canonical chord order, which numbers the blobs
    glue_order = sorted((i for i, c in enumerate(chords) if c.kind == "insert"),
                        key=lambda i: chords[i].sites)
    inserts = [chords[i] for i in glue_order]
    templates = builtin_templates()
    for c in inserts:
        if c.k not in templates:
            raise InvalidSite(f"no template of order {c.k}: builtin templates exist "
                              f"for k in {sorted(templates)}")
    for c in inserts:
        if len(c.sites) != templates[c.k].insertion(c.variant).finger_count():
            raise InvalidSite("site count does not match tangle fingers")
    all_sites = [(ci, i, site) for ci, c in enumerate(inserts)
                 for i, site in enumerate(c.sites)]
    cut_points = sorted((s[0], s[1]) for _, _, s in all_sites)
    if len(set(cut_points)) != len(cut_points):
        raise InvalidSite("duplicate cut points")
    base = (host.max_edge_id() // _ID_BLOCK + 1) * _ID_BLOCK
    piece_ids = {pt: base + 1 + i for i, pt in enumerate(cut_points)}
    # dart -> its place in the face walks, one walk after another
    where = {dart: pos for pos, dart in enumerate(chain.from_iterable(host.face_walks()))}

    def walk_key(entry):
        _, _, (edge, off, side) = entry
        if (edge, side) not in where:
            raise InvalidSite(f"no dart for site {(edge, off, side)}")
        return where[(edge, side)], off if side == 0 else -off

    keyed = sorted(all_sites, key=walk_key)
    groups = [[entry for entry in keyed if entry[0] == ci] for ci in range(len(inserts))]
    for group in groups:
        order = [entry[1] for entry in group]
        anchor = order.index(0)
        if order[anchor:] + order[:anchor] != list(range(len(order))):
            raise InvalidSite("sites are not listed in face-walk cyclic order")

    new_ends: dict[int, int] = {}
    # site -> (piece before it, piece after it), in the order of the host edge
    flanks: dict[tuple[int, int], tuple[int, int]] = {}
    for edge, run in groupby(sorted(all_sites, key=lambda e: e[2][:2]), lambda e: e[2][0]):
        entries = list(run)
        pieces = [piece_ids[(edge, site[1])] for _, _, site in entries]
        if host.crossings:
            # The edge keeps the end that dart (edge, 0) leaves from; the last
            # piece takes the end that it arrives at.
            new_ends[host._code((edge, 1))] = pieces[-1]
        pieces.insert(0, edge if host.crossings else pieces[-1])
        for j, (ci, i, _site) in enumerate(entries):
            flanks[(ci, i)] = (pieces[j], pieces[j + 1])

    cut, _ = host._with_ends(new_ends)
    blobs = [_shifted_insertion(c.k, c.variant, base + (ci + 1) * _ID_BLOCK)
             for ci, c in enumerate(inserts)]

    def member(subset: Container[int]) -> Diagram:
        present = [i in subset for i in glue_order]
        swaps = [records for i, records in undo.items() if i not in subset]
        if not any(present) and not swaps:
            return host
        crossings = list(cut)
        for records in swaps:
            for ci, record in records.items():
                crossings[ci] = record
        joiner = _IdJoiner()
        for blob, group, glued in zip(blobs, groups, present):
            if not glued:
                for ci, i, _site in group:
                    joiner.join(*flanks[(ci, i)])
                continue
            crossings.extend(blob.crossings)
            # Fingers attach to the walk-ordered sites in reversed order, each
            # with its legs swapped; fixed by the planarity calibration in the
            # test suite.
            for finger, (ci, i, site) in enumerate(reversed(group)):
                first, second = flanks[(ci, i)] if site[2] == 0 else flanks[(ci, i)][::-1]
                joiner.join(first, blob.legs[2 * finger + 1])
                joiner.join(second, blob.legs[2 * finger])
        crossings = joiner.apply(crossings)
        # Host ids < pieces < blobs: the default basepoint is the host's lowest edge.
        return Diagram(crossings, joiner.loops if not crossings else 0, check=False)

    full = member(range(len(chords)))
    full.validate()
    if not full.is_planar():
        raise InvalidSite("insertion would leave the plane" if inserts else "diagram is not planar")
    owners = [-1] * host.n_crossings
    for i, blob in zip(glue_order, blobs):
        owners.extend([i] * blob.n_crossings)
    return full, member, _member_tables(full, chords, owners)


def _member_tables(full: Diagram, chords: Sequence[Chord], owners: Sequence[int]
                   ) -> Callable[[Container[int]], Table]:
    """The builder ``table(subset)``: the Gauss chord table of the member
    holding the chords in ``subset``, read off the full member's rows.

    ``owners[ci]`` is the insertion that glued crossing ci of ``full``, or
    -1 for a host crossing (``_glue_many``'s layout).  Each chord the member
    leaves out edits the full walk:

    * insertion: its blob's steps are dropped; its fingers retract onto the
      host edges, and blob crossings involve only blob strands.
    * switch: its crossing's steps swap over and under, and its sign flips.
    * flip: the two steps at the ends of each side edge of the triangle
      trade places, since a triangle slide reverses the order in which each
      strand meets its two corners and keeps each crossing's strands,
      over/under and sign.  Side edges are host edges, which insertions
      never cut, so the two steps are neighbours in every member, or the
      walk's ends m - 1 and 0 when it starts on that edge.

    The kept steps are then numbered afresh in walk order; after a flip,
    each row is set to f < g with the over flag at f and the rows are
    sorted by f, since a swap across the walk's start can change which
    step of a corner comes first.  The member's own walk may start
    elsewhere or run the other way, so the table is the member's up to
    rotation and reversal: the same ``gauss_pattern``, v2 and v3.
    """
    rows, walk = full.gauss_chords, full.knot_walk
    mate, dart, _ = full._slots
    m = len(walk)
    row_at = [0] * m  # step -> the row of the crossing passed there
    for r, (f, g, _, _) in enumerate(rows):
        row_at[f] = row_at[g] = r
    crossing = [mate[walk[f]] >> 2 for f, _, _, _ in rows]  # per row
    glued = [owners[ci] for ci in crossing]
    glued_at = [glued[r] for r in row_at]  # per step
    # chord index -> what its absence edits: the switched crossing's row, or
    # the step after each side edge of a flip
    edits = {i: crossing.index(c.sites[0]) if c.kind == "switch"
             else [s for s, p in enumerate(walk) if dart[p][0] in c.sites[3:]]
             for i, c in enumerate(chords) if c.kind != "insert"}

    def table(subset: Container[int]) -> Table:
        absent = {i for i in range(len(chords)) if i not in subset}
        out = rows
        edited = absent & edits.keys()
        if edited:
            out = list(rows)
        flipped = False
        for i in edited:
            if chords[i].kind == "switch":
                f, g, over, sign = out[edits[i]]
                out[edits[i]] = f, g, not over, -sign
                continue
            flipped = True
            for s in edits[i]:
                for step, to in ((s - 1) % m, s), (s, (s - 1) % m):
                    f, g, over, sign = out[row_at[step]]
                    out[row_at[step]] = (to, g, over, sign) if f == step else (f, to, over, sign)
        if len(edited) < len(absent):  # an insertion is left out
            at = list(accumulate([i not in absent for i in glued_at], initial=0))
            out = [(at[f], at[g], over, sign)
                   for (f, g, over, sign), i in zip(out, glued) if i not in absent]
        if flipped:
            out = sorted((f, g, over, sign) if f < g else (g, f, not over, sign)
                         for f, g, over, sign in out)
        return out

    return table


def apply_chord(d: Diagram, chord: Chord) -> Diagram:
    """Apply one chord; the diagram is changed only at the chord's sites."""
    return band_sum(d, [chord])


def band_sum(d: Diagram, chords: Iterable[Chord]) -> Diagram:
    """Apply pairwise disjoint chords; the order of application is immaterial.

    This is K_full of the chords' family, the member of ``_glue_many``'s plan
    that holds every chord.
    """
    return SingularFamily(d, tuple(chords))._plan[0]


# -- singular families -----------------------------------------------------------

@dataclass(frozen=True)
class SingularFamily:
    """Base knot plus l disjoint chords; realizes the 2^l knots K_P."""

    base: Diagram
    chords: tuple[Chord, ...]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(c.k for c in self.chords)

    @cached_property
    def _plan(self) -> tuple[Diagram, Callable[[Container[int]], Diagram],
                             Callable[[Container[int]], Table]]:
        """(K_full, member, table): the full band sum, glued and checked
        once, and ``_glue_many``'s builders of K_P and of its Gauss chord
        table for any subset P."""
        return _glue_many(self.base, self.chords)

    def to_json(self) -> dict:
        # raw records: chord sites refer to these edge ids, so the base must
        # not be renumbered on the way through
        return {"base": {"crossings": [list(c.ends) for c in self.base.crossings],
                         "free_loops": self.base.free_loops,
                         "basepoint": self.base.basepoint},
                "chords": [c.to_json() for c in self.chords]}

    @classmethod
    def from_json(cls, obj: dict) -> "SingularFamily":
        b = obj["base"]
        base = Diagram([Crossing(tuple(e)) for e in b["crossings"]],
                       b["free_loops"], b["basepoint"])
        return cls(base, tuple(Chord.from_json(c) for c in obj["chords"]))


def family(fam: SingularFamily) -> dict[frozenset, Diagram]:
    """All 2^l diagrams K_P, each spliced from the family's one glue plan."""
    full, member, _ = fam._plan
    out: dict[frozenset, Diagram] = {}
    n = len(fam.chords)
    for mask in range(1 << n):
        subset = frozenset(i for i in range(n) if mask >> i & 1)
        out[subset] = full if len(subset) == n else member(subset)
    return out


# -- site enumeration -------------------------------------------------------------

def _face_slots(walk: Sequence[tuple[int, int]], skip: Iterable[int] = (),
                offset_base: int = 0) -> list[Site]:
    """Cut sites on one face walk, in walk order.

    Each edge not in ``skip`` gets three sites at its first visit, at
    offsets ``offset_base`` + 1, 2, 3 along the edge, listed in the
    direction the walk runs.
    """
    slots: list[Site] = []
    seen = set(skip)
    for edge, side in walk:
        if edge in seen:
            continue
        seen.add(edge)
        offs = (1, 2, 3) if side == 0 else (3, 2, 1)
        slots.extend((edge, offset_base + off, side) for off in offs)
    return slots


def rewrite_chords(d: Diagram, k: int) -> list[Chord]:
    """The order-k chords that rewrite d's own crossings, one per entry of
    ``moves._rewrites`` (switches for k = 2, flips for k = 3), in its order."""
    return [Chord(k, e[0], e[1:]) for e in _rewrites(d, k)]


def enumerate_sites(d: Diagram, k: int, cap: int = 512) -> list[Chord]:
    """Deterministic bounded enumeration of order-k chords on d.

    Includes rewrite sites (crossing switches for k=2, triangle flips for
    k=3) and insertion site tuples on each face, capped per call.
    """
    if k not in builtin_templates():
        raise ValueError(f"builtin templates exist for k in {sorted(builtin_templates())}")
    chords = rewrite_chords(d, k)
    budget_left = cap
    for walk in d.face_walks():
        if budget_left <= 0:
            break
        slots = _face_slots(walk)
        for combo in combinations(slots, k):
            chords.append(Chord(k, "insert", combo))
            budget_left -= 1
            if budget_left <= 0:
                break
    return chords


def random_insert_chord(d: Diagram, k: int, rng: random.Random,
                        used_edges: set[int] | None = None,
                        offset_base: int = 0) -> Chord | None:
    """Seeded single-chord sampler; returns None if no room is found.

    A draw is k sites of one face walk, taken from ``_face_slots`` in walk
    order, each edge cut only at its first visit; so the site checks of
    ``_glue_many`` hold by construction (cyclic order, distinct cut points),
    and a finger blob glued into one face keeps the diagram planar and in
    one piece.  The draw is therefore returned unglued: the one planarity
    gate of the caller's glue, the Euler test of the full member, checks
    the diagram it keeps.

    `offset_base` shifts the subdivision offsets so several chords can cut
    the same edge at distinct points.
    """
    template = builtin_templates().get(k)
    if template is None:
        raise ValueError(f"builtin templates exist for k in {sorted(builtin_templates())}")
    used_edges = used_edges or set()
    walks = [w for w in d.face_walks()
             if any(e not in used_edges for e, _ in w)]
    if not walks:
        return None
    for _ in range(40):
        walk = walks[rng.randrange(len(walks))]
        slots = _face_slots(walk, used_edges, offset_base)
        if len(slots) < k:
            continue
        picks = sorted(rng.sample(range(len(slots)), k))
        return Chord(k, "insert", tuple(slots[i] for i in picks),
                     rng.randrange(len(template.insertions)))
    return None


# -- realizability by lower-order moves --------------------------------------------

def realize_by_lower(template: MoveTemplate, l: int, budget: int = 100_000):
    """Search for order-l chord rewrites turning `before` into `after`.

    Returns a replayable script of switches / triangle flips interleaved
    with Reidemeister moves, or None when the budget or the moves under the
    crossing cap are exhausted (which is never a disproof).  Raises
    ValueError unless 2 <= l < template.k.
    """
    if not 2 <= l < template.k:
        raise ValueError("l must be at least 2 and below the template order")
    goal_key = simplify(template.after, _R3_BUDGET)[0].key
    start, start_script = simplify(template.before, _R3_BUDGET)

    def steps(t: Fragment):
        yield from _rewrite_steps(t, l)
        yield from _r3_steps(t)

    walk = _Explorer(start, list(start_script), steps, greedy_reduce, budget,
                     template.before.n_crossings + CAP_EXTRA)
    # The start is skipped, never tested against the goal.
    for _, key, script in islice(walk, 1, None):
        if key == goal_key:
            return script
    return None


def replay_tangle_script(template: MoveTemplate, script: Script) -> bool:
    """Check a realize_by_lower certificate: before + script ~ after."""
    goal, _ = simplify(template.after, _R3_BUDGET)
    final, _ = simplify(replay(template.before, script), _R3_BUDGET)
    return final.key == goal.key
