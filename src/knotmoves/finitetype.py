"""Finite-type checks on singular families and move-invariance reports.

The alternating sum of an invariant over the 2^l knots of a singular family
is the central quantity: it vanishes exactly when the invariant is finite
type for the family's order vector.  All sums here are exact integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import gauss
from .diagram import Diagram, MalformedDiagram
from .moves import InapplicableMove
from .templates import (Chord, InvalidSite, SingularFamily, _clash, apply_chord,
                        random_insert_chord, rewrite_chords)

# phi -> its Gauss-diagram count on a Gauss chord table
INVARIANTS = {"v2": gauss._v2_count, "v3": gauss._v3_count}
REWRITE_CHANCE = {2: 0.5, 3: 0.25}  # a chord's chance to be a switch or a flip


def alternating_sum(fam: SingularFamily, phi: str) -> int:
    """Sum of (-1)^|P| phi(K_P) over all subsets P of the chords.

    phi is counted on each member's Gauss chord table, read off the full
    member's walk with no member built (``templates._member_tables``): a
    left-out insertion drops its blob's passages, a left-out switch swaps
    over and under at its crossing and negates its sign, and a left-out
    flip swaps the two consecutive passages across each side edge of its
    triangle.  A side edge that the walk starts on puts its two passages at
    steps m - 1 and 0, so each table is numbered afresh (f < g, the over
    flag at f, rows sorted by f).  A refused family raises InvalidSite.
    """
    count = INVARIANTS[phi]
    _, _, table = fam._plan
    n = len(fam.chords)
    total = 0
    for mask in range(1 << n):
        subset = {i for i in range(n) if mask >> i & 1}
        total += (-1) ** len(subset) * count(table(subset))
    return total


def random_family(base: Diagram, orders: tuple[int, ...],
                  rng: random.Random) -> SingularFamily | None:
    """Sample disjoint chords of the given orders on `base`; None on failure.

    An order-2 chord is a free switch with chance 1/2, an order-3 chord a
    free flip with chance 1/4, else an insertion.  A rewrite is drawn from
    those that clash with no chord drawn before (``templates._clash``), and
    an insertion's sites avoid the rewrites' edges.
    """
    chords: list[Chord] = []
    for idx, k in enumerate(orders):
        chord = None
        chance = REWRITE_CHANCE.get(k, 0)
        if chance and base.n_crossings and rng.random() < chance:
            free = [c for c in rewrite_chords(base, k)
                    if not any(_clash(base, c, o) for o in chords)]
            if free:
                chord = free[rng.randrange(len(free))]
        if chord is None:
            rewrite_edges = {e for o in chords if o.kind != "insert" for e in o.touched(base)[0]}
            chord = random_insert_chord(base, k, rng, rewrite_edges, offset_base=4 * idx)
        if chord is None:
            return None
        chords.append(chord)
    fam = SingularFamily(base, tuple(chords))
    try:
        # Insertions sharing a face can interleave and leave the plane; the
        # glue plan's one gate, the full member's Euler test, refuses them.
        fam._plan
    except (InvalidSite, InapplicableMove, MalformedDiagram):
        return None
    return fam


@dataclass
class TrialRecord:
    trial: int
    base: str
    orders: tuple[int, ...]
    sum: int | None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.sum == 0

    def to_json(self) -> dict:
        return {"trial": self.trial, "base": self.base, "orders": list(self.orders),
                "sum": self.sum, "note": self.note}


def verify_type(phi: str, orders: tuple[int, ...], trials: int, seed: int,
                bases: dict[str, Diagram]) -> list[TrialRecord]:
    """Seeded random families of the given type; records every alternating sum.

    A draw that ``random_family`` refuses (site exhaustion, a plan off the
    plane) is drawn again, up to ``trials * 20`` draws in all.
    """
    rng = random.Random(seed)
    names = sorted(bases)
    records = []
    attempts = 0
    while len(records) < trials and attempts < trials * 20:
        attempts += 1
        name = names[rng.randrange(len(names))]
        fam = random_family(bases[name], orders, rng)
        if fam is not None:
            records.append(TrialRecord(len(records), name, orders,
                                       alternating_sum(fam, phi)))
    return records


def move_invariance_report(d: Diagram, l: int, n_moves: int, seed: int) -> dict:
    """Apply random order-(l+1) chords sequentially; track v_j for j <= l-1.

    For l = 3 this checks that order-4 moves never change v2; orders below
    2 have only constant invariants, so for l = 2 the report instead
    exhibits how order-3 moves do move v2 (sharpness), and passes only
    when some move changed it.
    """
    rng = random.Random(seed)
    k = l + 1
    if k not in (3, 4):
        raise ValueError("supported orders are l in {2, 3}")
    current = d
    steps = []
    v2_before = gauss.v2(current)
    for step in range(n_moves):
        chord = random_insert_chord(current, k, rng)
        if chord is None:
            steps.append({"step": step, "note": "site exhaustion"})
            break
        current = apply_chord(current, chord)
        v2_after = gauss.v2(current)
        steps.append({"step": step, "v2_before": v2_before, "v2_after": v2_after,
                      "delta": v2_after - v2_before})
        v2_before = v2_after
    deltas = [s["delta"] for s in steps if "delta" in s]
    return {"l": l, "steps": steps, "v2_deltas_seen": sorted(set(deltas)),
            "pass": not any(deltas) if l == 3 else any(deltas)}


def delta_v2_witness(bases: dict[str, Diagram], seed: int = 7) -> dict | None:
    """A concrete order-3 chord application with |delta v2| = 1, in 200 draws."""
    rng = random.Random(seed)
    names = sorted(bases)
    for _ in range(200):
        base = bases[names[rng.randrange(len(names))]]
        chord = random_insert_chord(base, 3, rng)
        if chord is None:
            continue
        d2 = apply_chord(base, chord)
        dv = gauss.v2(d2) - gauss.v2(base)
        if abs(dv) == 1:
            return {"base_key": base.canonical_key, "chord": chord.to_json(),
                    "delta_v2": dv}
    return None


def group_checks(bases: dict[str, Diagram], pairs: int = 50, seed: int = 3) -> dict:
    """Abelian-group behaviour of connected sum through the (v2, v3) proxy.

    ``pass`` says that (v2, v3) adds up over ``pairs`` random sums, that 10
    random sums commute and 5 random triple sums associate, and that the
    unknot is an identity for the first 10 bases.  ``inverses`` lists the
    ordered pairs of bases whose v2 (``v2_level``) or (v2, v3)
    (``v2v3_level``) sum to zero.
    """
    rng = random.Random(seed)
    names = sorted(bases)

    def vv(d: Diagram) -> tuple[int, int]:
        return gauss.v2(d), gauss.v3(d)

    tup = {n: vv(d) for n, d in bases.items()}
    ok = True
    for _ in range(pairs):
        a, b = rng.choice(names), rng.choice(names)
        want = (tup[a][0] + tup[b][0], tup[a][1] + tup[b][1])
        ok &= vv(bases[a].connected_sum(bases[b])) == want
    for _ in range(10):
        a, b = bases[rng.choice(names)], bases[rng.choice(names)]
        ok &= vv(a.connected_sum(b)) == vv(b.connected_sum(a))
    for _ in range(5):
        a, b, c = bases[rng.choice(names)], bases[rng.choice(names)], bases[rng.choice(names)]
        ok &= vv(a.connected_sum(b).connected_sum(c)) == vv(a.connected_sum(b.connected_sum(c)))
    unknot = Diagram.unknot()
    ok &= all(vv(unknot.connected_sum(bases[n])) == tup[n] for n in names[:10])

    inverses = {"v2_level": [], "v2v3_level": []}
    for a in names:
        for b in names:
            if tup[a][0] + tup[b][0] == 0:
                inverses["v2_level"].append([a, b])
            if (tup[a][0] + tup[b][0], tup[a][1] + tup[b][1]) == (0, 0):
                inverses["v2v3_level"].append([a, b])
    return {"pass": ok, "inverses": inverses}
