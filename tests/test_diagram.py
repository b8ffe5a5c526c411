import functools
import hashlib
import itertools
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from knotmoves import diagram, gauss
from knotmoves.corpus import _COMPOSITES, _PRIME_DT, _named, corpus
from knotmoves.diagram import (Crossing, Diagram, Fragment, MalformedDiagram, NotRealizable,
                               _pattern_key, emit_dt, emit_pd, parse_dt, parse_pd)
from knotmoves.finitetype import random_family
from knotmoves.gauss import to_gauss
from knotmoves.invariants import v2_conway, v2_jones, v3_jones
from knotmoves.moves import r1_add, random_perturb
from knotmoves.templates import family


def _gauss_sequence(self, reverse: bool = False) -> list[tuple[int, bool, int]]:
    """(crossing, is_over, sign) per passage, optionally reversed traversal."""
    seq = [(ci, slot in (1, 3), self.signs[ci]) for ci, slot in self.passages]
    if reverse:
        seq = seq[::-1]
    return seq


def reference_key(d: Diagram) -> str:
    """The unpruned O(m^2) key: every rotation in both directions, as strings."""
    if not d.crossings:
        return "unknot"
    best = None
    for reverse in (False, True):
        seq = _gauss_sequence(d, reverse)
        m = len(seq)
        for r in range(m):
            label: dict[int, int] = {}
            parts = []
            for i in range(m):
                ci, over, sign = seq[(r + i) % m]
                lab = label.setdefault(ci, len(label))
                parts.append(f"{lab}{'o' if over else 'u'}{'+' if sign > 0 else '-'}")
            cand = ";".join(parts)
            if best is None or cand < best:
                best = cand
    return best


def _dt_records(text: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The two crossing records (bit 0, bit 1) of each entry of a nonempty code."""
    try:
        entries = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise MalformedDiagram(f"bad DT token in {text!r}") from exc
    n = len(entries)
    if any(a == 0 or a % 2 for a in entries):
        raise MalformedDiagram("DT entries must be nonzero even integers")
    if sorted(map(abs, entries)) != list(range(2, 2 * n + 1, 2)):
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
    return ends


def reference_parse_dt(text: str) -> Diagram:
    """The product enumerator over all 2^(n-1) orientation patterns."""
    if not text.strip():
        return Diagram.unknot()
    ends = _dt_records(text)
    n = len(ends)
    assert n <= 14, "the product enumerator is exponential"

    # Faces are the orbits of the left-turn map on the 4n slot positions: a
    # slot goes to the other end of its edge, then one slot ccw.
    m = 4 * n
    ccw = [p - p % 4 + (p + 1) % 4 for p in range(m)]

    def n_faces(flat: list[int]) -> int:
        first = [-1] * (2 * n + 1)
        turn = [0] * m
        for p, e in enumerate(flat):
            q = first[e]
            if q < 0:
                first[e] = p
            else:
                turn[p], turn[q] = ccw[q], ccw[p]
        seen = bytearray(m)
        faces = 0
        for p in range(m):
            if not seen[p]:
                faces += 1
                while not seen[p]:
                    seen[p] = 1
                    p = turn[p]
        return faces

    for bits in product((0, 1), repeat=n - 1):
        records = [ends[0][0]] + [e[bit] for e, bit in zip(ends[1:], bits)]
        if n_faces([e for rec in records for e in rec]) == n + 2:
            return Diagram([Crossing(rec) for rec in records], basepoint=1)
    raise NotRealizable(f"DT code {text!r} has no planar realization")


def reference_search_parse_dt(text: str) -> Diagram:
    """Depth-first search over the orientation bits in product order.

    A prefix is dropped as soon as the crossings fixed so far span a
    sub-diagram of positive genus, since deleting edges never raises genus.
    The first leaf reached is the first planar pattern of the product
    enumeration.  Exponential in the worst case, but uncapped.
    """
    if not text.strip():
        return Diagram.unknot()
    ends = _dt_records(text)
    n = len(ends)

    # Edge e joins the owners of positions e and e % 2n + 1 whatever the
    # bits, so it is inside the sub-diagram on crossings 0..k-1 from depth
    # born[e] on.  At depth k that sub-ribbon graph, isolated crossings left
    # out, has V vertices, E edges and C components; it is planar exactly
    # when it has need[k] = 2C - V + E faces, and fewer faces means genus.
    # The out edges of a crossing (slots 1 and 2 at bit 0) are its positions.
    owner = [0] * (2 * n + 1)
    for i, rec in enumerate(ends):
        owner[rec[0][1]] = owner[rec[0][2]] = i
    born = [0] + [max(owner[e], owner[e % (2 * n) + 1]) + 1
                  for e in range(1, 2 * n + 1)]
    label = list(range(n))
    used: set[int] = set()
    need = [0] * (n + 1)
    edges = 0
    for k in range(1, n + 1):
        for e in range(1, 2 * n + 1):
            if born[e] == k:
                a, b = owner[e], owner[e % (2 * n) + 1]
                used.update((a, b))
                label = [label[b] if x == label[a] else x for x in label]
                edges += 1
        comps = len({label[x] for x in used})
        need[k] = 2 * comps - len(used) + edges

    # Faces are the orbits of the left-turn map on the inside slots: a slot
    # goes to the other end of its edge, then to the next inside slot ccw.
    flat = [0] * (4 * n)

    def n_faces(k: int) -> int:
        m = 4 * k
        first = [-1] * (2 * n + 1)
        other = [-1] * m
        for p in range(m):
            e = flat[p]
            if born[e] <= k:
                q = first[e]
                if q < 0:
                    first[e] = p
                else:
                    other[p], other[q] = q, p
        seen = bytearray(m)
        faces = 0
        for p in range(m):
            if other[p] >= 0 and not seen[p]:
                faces += 1
                while not seen[p]:
                    seen[p] = 1
                    q = other[p]
                    base = q - q % 4
                    p = base + (q + 1) % 4
                    while other[p] < 0:
                        p = base + (p + 1) % 4
        return faces

    flat[0:4] = ends[0][0]
    bits = [0] * n
    k = 1
    while k:
        if n_faces(k) >= need[k]:
            if k == n:
                return Diagram([Crossing(tuple(flat[4 * i:4 * i + 4]))
                                for i in range(n)], basepoint=1)
            bits[k] = 0
            flat[4 * k:4 * k + 4] = ends[k][0]
            k += 1
            continue
        # Backtrack to the deepest crossing still on bit 0 and flip it.
        k -= 1
        while k and bits[k]:
            k -= 1
        if k:
            bits[k] = 1
            flat[4 * k:4 * k + 4] = ends[k][1]
            k += 1
    raise NotRealizable(f"DT code {text!r} has no planar realization")


@pytest.fixture(scope="module")
def perturbed(knots) -> list[Diagram]:
    """Corpus knots, R-perturbed copies up to 17 crossings, and all mirrors."""
    out = []
    for d in knots.values():
        out.append(d)
        for seed in range(4):
            out.append(random_perturb(d, 14, seed=seed, max_extra=8))
    return out + [d.mirror() for d in out]


def test_empty_code_is_unknot():
    d = parse_pd("")
    assert d.n_crossings == 0 and d.free_loops == 1
    assert d.canonical_key == "unknot"
    assert parse_dt("").canonical_key == "unknot"


def test_kink_parses():
    d = parse_pd("X(1,1,2,2)")
    assert d.n_crossings == 1
    assert d.is_planar()


NONPLANAR_PD = ("X(14,2,1,1) X(12,2,13,3) X(4,4,5,3) X(5,7,6,6) X(10,8,11,7) "
                "X(9,8,10,9) X(13,11,14,12)")


def test_parse_pd_errors():
    with pytest.raises(MalformedDiagram):
        parse_pd("X(1,2,3)")
    with pytest.raises(MalformedDiagram):
        parse_pd("X(1,4,2,5) X(3,6,4,1)")  # edges 2,5 appear once
    with pytest.raises(MalformedDiagram):
        parse_pd("garbage")
    # two disjoint kinks: two components
    with pytest.raises(MalformedDiagram, match="diagram has 2 components"):
        parse_pd("X(1,1,2,2) X(3,3,4,4)")
    # one component, every edge twice, but 7 crossings with 7 faces, not 9
    with pytest.raises(NotRealizable, match="no planar realization"):
        parse_pd(NONPLANAR_PD)


@pytest.mark.parametrize("text, message", [
    ("abc X(1,1,2,2)", "unexpected text in PD code: 'abc '"),
    ("X(1,1,2,2) junk X(3,3,4,4)", "unexpected text in PD code: ' junk '"),
    ("X(1,1,2,2) tail", "unexpected text in PD code: ' tail'"),
    ("X(1,1,2,2)\xa0X(3,3,4,4)", "unexpected text in PD code: '\\xa0'"),
    (" , ; ", "no X(a,b,c,d) tuples found"),
    ("X(1,2,3)", "unexpected text in PD code: 'X(1,2,3)'"),
    ("X(1,1,2,2) X(1,2,3)", "unexpected text in PD code: ' X(1,2,3)'"),
    ("garbage", "unexpected text in PD code: 'garbage'"),
])
def test_parse_pd_error_messages(text, message):
    # Each message names the first gap that is not a separator, as written.
    with pytest.raises(MalformedDiagram) as err:
        parse_pd(text)
    assert str(err.value) == message


def test_gauss_pattern_fixes_planarity(knots):
    # Reflecting the cyclic order at some crossings, X(a,b,c,d) -> X(a,d,c,b),
    # keeps the strands and flips those crossings' signs; most results are
    # not planar.  parse_pd runs the Euler test once per Gauss pattern, which
    # is sound only if no pattern belongs to a planar and a non-planar diagram.
    rng = random.Random(1)
    seen: dict[tuple, list[bool]] = {}
    for _, d in sorted(knots.items()):
        for _ in range(40 if d.crossings else 0):
            flip = set(rng.sample(range(d.n_crossings), rng.randint(0, d.n_crossings)))
            r = Diagram([Crossing((a, e, c, b) if i in flip else (a, b, c, e))
                         for i, ((a, b, c, e),) in enumerate(d.crossings)])
            seen.setdefault(r.gauss_pattern, []).append(r.is_planar())
    assert [p for p, verdicts in seen.items() if len(set(verdicts)) > 1] == []
    verdicts = [v for vs in seen.values() for v in vs]
    assert len(verdicts) >= 1000 and verdicts.count(False) >= 500 and verdicts.count(True) >= 100
    assert len(seen) < 0.8 * len(verdicts)  # many patterns met more than once


def _records(text: str) -> list[tuple[int, ...]]:
    return [tuple(map(int, t.strip("X()").split(","))) for t in text.split()]


def test_planar_memo_cannot_vouch_for_a_nonplanar_code(monkeypatch):
    # The non-planar code and two relabelled copies of it share one pattern;
    # with the memo cold and then warm, each raises with the exact message.
    monkeypatch.setattr(diagram, "_PLANAR_PATTERNS", set())
    planar = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
    records = _records(NONPLANAR_PD)
    copies = [NONPLANAR_PD,
              " ".join("X(%d,%d,%d,%d)" % tuple(e + 20 for e in c) for c in records),
              " ".join(f"X({c},{d},{a},{b})" for a, b, c, d in reversed(records))]
    assert len({Diagram(map(Crossing, _records(t))).gauss_pattern for t in copies}) == 1
    for _ in ("cold", "warm"):
        parse_pd(planar)
        for text in copies:
            with pytest.raises(NotRealizable) as err:
                parse_pd(text)
            assert str(err.value) == f"PD code {text!r} has no planar realization"
    assert diagram._PLANAR_PATTERNS == {parse_pd(planar).gauss_pattern}
    # A relabelled copy of a planar code skips the face walk.
    assert "_face_walks" not in vars(parse_pd("X(11,14,12,15) X(13,16,14,11) X(15,12,16,13)"))


def test_planar_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(diagram, "_PLANAR_PATTERNS", set())
    monkeypatch.setattr(diagram, "_KEY_MEMO", 2)
    for text in ("X(1,1,2,2)", "X(1,2,2,1)", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"):
        parse_pd(text)
    assert len(diagram._PLANAR_PATTERNS) == 1


def test_parse_pd_reads_unicode_digits_and_separators():
    # \d matches any Unicode decimal digit and int() reads it; the gaps
    # may hold only spaces, commas, semicolons, tabs and newlines, and the
    # ends of the text any whitespace.
    for text in ("X(１,１,２,２)", "X(١,١,٢,٢)", "X(1,1,2,2);;", "\x0bX(1,1,2,2)\x0b"):
        d = parse_pd(text)
        assert d.crossings == (Crossing((1, 1, 2, 2)),)
        assert d.canonical_key == "0o+;0u+"


def test_trefoil_structure(left_trefoil):
    assert left_trefoil.n_crossings == 3
    assert left_trefoil.writhe() == -3
    assert left_trefoil.is_planar()
    assert len(left_trefoil.face_walks()) == 5


def test_pd_round_trip(left_trefoil, knots):
    for d in [left_trefoil] + [k for k in knots.values() if k.crossings][:6]:
        again = parse_pd(emit_pd(d))
        assert again.canonical_key == d.canonical_key


def test_emit_pd_text_is_pinned(knots):
    # A round trip holds for any writer that keeps the diagram; this pins the
    # text itself, so the tuple order and the edge numbering cannot drift.
    # The 29 corpus entries with five R-perturbed copies of each, and the 20
    # members of five seeded (3, 2) families: 194 diagrams of up to 31
    # crossings.
    diagrams = []
    for _, d in sorted(knots.items()):
        diagrams += [d] + [random_perturb(d, 12, s) for s in range(5)]
    rng = random.Random(34)
    for name in ("3_1", "4_1", "5_2", "7_4", "granny"):
        members = family(random_family(knots[name], (3, 2), rng))
        diagrams += [members[s] for s in sorted(members, key=sorted)]
    assert len(diagrams) == 194
    text = "\n".join(emit_pd(d) for d in diagrams)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "fbb2b3e3decdbb0736682b37e1635901e072a9f2d42cdaaa56c08117ab85e265"


def test_basepoint_lowest_edge():
    d = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    assert d.basepoint == 1


def eager_init(self, crossings=(), free_loops=0, basepoint=None, check=True):
    """``Diagram.__init__`` as it was when the least edge id was found on build."""
    Fragment.__init__(self, crossings, (), free_loops)
    if basepoint is None:
        basepoint = min(min(c.ends) for c in self.crossings) if self.crossings else 0
    self.basepoint = basepoint
    if check:
        self.validate()


def basepoint_cases() -> list[Diagram]:
    """Diagrams built every way the package builds one, with and without a
    basepoint: corpus knots (DT, connected sums), R-perturbed and PD-parsed
    copies, relabelings, mirrors, sums, glued family members, the unknot."""
    out = []
    knots = corpus(include_unknot=True)
    rng = random.Random(5)
    for i, d in enumerate(knots.values()):
        p = random_perturb(d, 6, seed=i)
        out += [d, p, Diagram(p.crossings, p.free_loops), d.mirror(), p.mirror()]
        if d.crossings:
            out.append(parse_pd(emit_pd(p)))
            out.append(p.relabeled({e: 3 * e + 7 for e in reversed(p.edges())}))
            out.append(p.connected_sum(knots["3_1"]))
        fam = random_family(d, (2, 3), rng)
        if fam is not None:
            out += [m for _, m in sorted(family(fam).items(), key=lambda kv: sorted(kv[0]))]
    return out


def test_lazy_basepoint_matches_eager(monkeypatch):
    # The key is read first, so a lazy basepoint is first found by knot_walk.
    def values(ds):
        return [(d.canonical_key, d.knot_walk, d.basepoint) for d in ds]

    lazy = values(basepoint_cases())
    with monkeypatch.context() as m:
        m.setattr(Diagram, "__init__", eager_init)
        _named.cache_clear()  # the corpus is built once per process
        eager = values(basepoint_cases())
    _named.cache_clear()
    assert len(lazy) > 300
    assert lazy == eager


def test_corpus_is_built_once_and_handed_out_fresh():
    """Each call returns a new dict of the same diagram objects, so an edit
    to one caller's dict leaks into no later call."""
    names = list(_PRIME_DT) + list(_COMPOSITES)
    whole = corpus(include_unknot=True)
    assert list(whole) == ["unknot"] + names
    for kwargs in ({}, {"include_unknot": True}, {"max_crossings": 7},
                   {"max_crossings": 7, "include_unknot": True}, {"max_crossings": 0}):
        first, second = corpus(**kwargs), corpus(**kwargs)
        want = [name for name, d in whole.items()
                if (kwargs.get("include_unknot") or name != "unknot")
                and d.n_crossings <= kwargs.get("max_crossings", d.n_crossings)]
        assert first is not second and list(first) == list(second) == want, kwargs
        assert all(first[name] is second[name] is whole[name] for name in want)
        first["3_1"] = whole["4_1"]
        first.pop("4_1", None)
        first["extra"] = whole["unknot"]
        assert corpus(**kwargs) == second, kwargs
    assert corpus(max_crossings=0) == {}
    assert list(corpus(max_crossings=3, include_unknot=True)) == ["unknot", "3_1"]


def test_canonical_key_invariances(left_trefoil):
    # relabeling
    mapping = {e: e + 50 for e in left_trefoil.edges()}
    relabeled = left_trefoil.relabeled(mapping)
    assert relabeled.canonical_key == left_trefoil.canonical_key
    # basepoint rotation
    for e in left_trefoil.edges():
        rotated = Diagram(left_trefoil.crossings, basepoint=e, check=False)
        assert rotated.canonical_key == left_trefoil.canonical_key


def _fresh(d: Diagram) -> Diagram:
    """A copy of d with nothing cached on it."""
    return Diagram(d.crossings, d.free_loops, d.basepoint, check=False)


def test_canonical_key_matches_reference(perturbed):
    # Multi-digit labels ("10u+" sorts before "1o+") must be covered.
    assert max(d.n_crossings for d in perturbed) >= 15
    ds = list(perturbed) + basepoint_cases()
    want = [reference_key(d) for d in ds]
    # The key of a pattern is memoized per process, so a key must not depend
    # on which diagram filled the memo: each order runs cold, then warm
    # after the other order filled it.
    for order in (range(len(ds)), range(len(ds) - 1, -1, -1)):
        _pattern_key.cache_clear()
        for i in order:
            assert _fresh(ds[i]).canonical_key == want[i], ds[i].crossings
        for i in reversed(order):
            assert _fresh(ds[i]).canonical_key == want[i], ds[i].crossings
    assert _pattern_key.cache_info().hits > 0


def _pd_copy(d: Diagram, rng: random.Random) -> Diagram:
    """d under random edge labels and record order, each record maybe
    rotated by two slots (the PD gauge), read back from PD text."""
    edges = d.edges()
    mapping = dict(zip(edges, rng.sample(range(1, 10 * len(edges) + 2), len(edges))))
    records = [c.relabeled(mapping).rotated(rng.choice((0, 2))) for c in d.crossings]
    rng.shuffle(records)
    return parse_pd(" ".join("X(%d,%d,%d,%d)" % c.ends for c in records))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gauss_pattern_ignores_relabelling_and_basepoint(perturbed, data):
    d = data.draw(st.sampled_from(perturbed))
    copies = [d.shifted(data.draw(st.integers(1, 500))),
              _pd_copy(d, random.Random(data.draw(st.integers(0, 2**32))))]
    if d.crossings:
        copies.append(parse_pd(emit_pd(d)))
        copies.append(Diagram(d.crossings, d.free_loops,
                              basepoint=data.draw(st.sampled_from(d.edges())), check=False))
    for c in copies:
        assert c.gauss_pattern == d.gauss_pattern


def test_gauss_pattern_separates_exactly_as_the_reference_key(perturbed):
    # Patterns and reference keys induce the same partition: each key has
    # one pattern and each pattern one key, which decides every pair.
    ds = basepoint_cases() + list(perturbed)
    patterns: dict[str, set] = {}
    keys: dict[tuple, set] = {}
    for d in ds:
        k, p = reference_key(d), d.gauss_pattern
        patterns.setdefault(k, set()).add(p)
        keys.setdefault(p, set()).add(k)
    assert all(len(v) == 1 for v in patterns.values())
    assert all(len(v) == 1 for v in keys.values())
    assert len(keys) > 100


def test_gauss_pattern_of_kinks():
    # One crossing: both passages are one step apart (b = 1), so a code is
    # 4 + tail; the two kinks differ only in the sign.
    for text, pattern, key in (("X(1,1,2,2)", (4, 6), "0o+;0u+"),
                               ("X(2,2,1,1)", (4, 6), "0o+;0u+"),
                               ("X(1,2,2,1)", (5, 7), "0o-;0u-"),
                               ("X(2,1,1,2)", (5, 7), "0o-;0u-")):
        d = parse_pd(text)
        assert d.gauss_pattern == pattern
        assert d.canonical_key == key == reference_key(d)
    # A kink added to a larger diagram shows as a code with b = 1.
    trefoil = parse_dt("4 6 2")
    for e in trefoil.edges():
        for chirality in (1, -1):
            kinked = r1_add(trefoil, e, chirality)
            assert 1 in [c >> 2 for c in kinked.gauss_pattern]
            assert kinked.canonical_key == reference_key(kinked)


def test_canonical_key_stays_a_cached_property():
    # perfbench/spans.py books key time by rewrapping
    # Diagram.canonical_key.func; a plain property has no .func, and every
    # traced benchmark run then fails.  The memo helper stays private, so
    # the tracer does not give it a span of its own and its time stays in
    # diagram.canonical_key.
    assert isinstance(Diagram.__dict__["canonical_key"], functools.cached_property)
    assert _pattern_key.__name__.startswith("_")


def test_private_caches_are_computed_once_into_the_instance():
    d = parse_dt("4 6 2")
    for name in ("_slots", "_face_walks", "_face_darts", "basepoint", "knot_walk", "passages",
                 "gauss_chords", "signs", "gauss_pattern"):
        assert isinstance(vars(Diagram).get(name) or vars(Fragment)[name], diagram._lazy)
        value = getattr(d, name)
        assert vars(d)[name] is value and getattr(d, name) is value
    assert Diagram(d.crossings, basepoint=3).basepoint == 3  # a given basepoint wins


def test_validate_reports_components_before_a_missing_basepoint():
    with pytest.raises(MalformedDiagram, match="diagram has 2 components"):
        Diagram([Crossing((1, 1, 2, 2)), Crossing((3, 3, 4, 4))], basepoint=9)
    with pytest.raises(MalformedDiagram, match="^basepoint edge 9 not present$"):
        Diagram(parse_dt("4 6 2").crossings, basepoint=9)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_canonical_key_relabel_and_basepoint(perturbed, data):
    d = data.draw(st.sampled_from(perturbed))
    shifted = d.shifted(data.draw(st.integers(1, 500)))
    assert shifted.canonical_key == d.canonical_key
    if d.crossings:
        e = data.draw(st.sampled_from(d.edges()))
        rebased = Diagram(d.crossings, d.free_loops, basepoint=e, check=False)
        assert rebased.canonical_key == d.canonical_key


def test_canonical_key_separates(left_trefoil):
    fig8 = parse_dt("4 6 8 2")
    assert fig8.canonical_key != left_trefoil.canonical_key
    assert left_trefoil.mirror().canonical_key != left_trefoil.canonical_key


def test_mirror_is_involution(knots):
    # double mirror returns the same diagram (records may be gauge-rotated)
    for d in list(knots.values())[:8]:
        dd = d.mirror().mirror()
        assert dd.canonical_key == d.canonical_key
        assert [c.rotated(2) for c in dd.crossings] == list(d.crossings)


def test_connected_sum_counts(left_trefoil, unknot):
    fig8 = parse_dt("4 6 8 2")
    s = left_trefoil.connected_sum(fig8)
    assert s.n_crossings == 7
    assert s.is_planar()
    assert unknot.connected_sum(left_trefoil).canonical_key == left_trefoil.canonical_key
    assert left_trefoil.connected_sum(unknot).canonical_key == left_trefoil.canonical_key


def test_unknot_sum_is_identity_after_simplify(knots):
    from knotmoves.moves import simplify

    unknot = Diagram.unknot()
    for name, d in knots.items():
        if d.n_crossings > 8:
            continue
        s = unknot.connected_sum(d)
        assert simplify(s)[0].canonical_key == simplify(d)[0].canonical_key, name


def test_dt_round_trips():
    # The last code has a kink at its basepoint edge.
    for code in ["4 6 2", "4 6 8 2", "6 8 10 2 4", "4 8 12 2 14 6 10",
                 "-2 10 4 14 12 -6 -8"]:
        d = parse_dt(code)
        assert emit_dt(d) == code
        assert d.is_planar()


def test_dt_errors():
    with pytest.raises(MalformedDiagram):
        parse_dt("3 6 2")  # odd entry
    with pytest.raises(MalformedDiagram):
        parse_dt("4 4 2")  # repeated value
    with pytest.raises(MalformedDiagram):
        parse_dt("4 6 10")  # not a permutation of 2..2n
    # int() reads both as integers, but neither is an ASCII DT entry.
    with pytest.raises(MalformedDiagram, match="bad DT token"):
        parse_dt("4 6 0_2")
    with pytest.raises(MalformedDiagram, match="bad DT token"):
        parse_dt("\uff14 6 2")  # full-width digit four
    with pytest.raises(NotRealizable):
        parse_dt("4 10 12 16 14 2 8 6")


def test_dt_cap_is_not_a_realizability_verdict(knots):
    # Emitted from diagrams of 15 and 193 crossings (the connected sum of
    # the whole corpus), so both codes are realizable and parse.
    chain = Diagram.unknot()
    for _, d in sorted(knots.items()):
        chain = chain.connected_sum(d)
    sizes = []
    for d in (knots["7_1"].connected_sum(knots["dt8a"]), chain):
        code = emit_dt(d)
        parsed = parse_dt(code)
        assert emit_dt(parsed) == code
        assert parsed.is_planar()
        sizes.append(parsed.n_crossings)
    assert sizes == [15, 193]


def _dt_outcome(parse, code: str):
    try:
        d = parse(code)
    except NotRealizable:
        return "not realizable"
    return d.basepoint, [c.ends for c in d.crossings]


def test_parse_dt_matches_reference_on_random_codes(knots):
    # Random signed codes are mostly realizable up to 7 crossings and mostly
    # not from 10 on; signed emitted codes of perturbed copies add realizable
    # codes of 8-12 crossings.
    rng = random.Random(77)
    codes = []
    for n in range(3, 13):
        for _ in range(25):
            evens = list(range(2, 2 * n + 1, 2))
            rng.shuffle(evens)
            codes.append([rng.choice((e, -e)) for e in evens])
    for _, d in sorted(knots.items()):
        p = random_perturb(d, 8, seed=8, max_extra=5)
        if 8 <= p.n_crossings <= 12:
            codes.append([rng.choice((a, -a)) for a in map(int, emit_dt(p).split())])
    seen = {False: set(), True: set()}
    for entries in codes:
        code = " ".join(map(str, entries))
        want = _dt_outcome(reference_parse_dt, code)
        assert _dt_outcome(parse_dt, code) == want, code
        seen[want != "not realizable"].add(len(entries))
    assert seen[True] == set(range(3, 13))
    assert seen[False] == set(range(5, 13))


def test_census_of_every_signed_dt_code_up_to_5_crossings():
    # Every knot diagram has a signed DT code, so the n! orders of the even
    # entries times the 2^n signs, for n = 1..5, give every knot diagram of
    # up to 5 crossings: 4,282 codes, 342 diagrams up to relabelling.
    codes = [" ".join(str(sign * even) for sign, even in zip(signs, evens))
             for n in range(1, 6)
             for evens in itertools.permutations(range(2, 2 * n + 1, 2))
             for signs in product((1, -1), repeat=n)]
    assert len(codes) == 4282
    realizable, diagrams = 0, {}
    for code in codes:
        want = _dt_outcome(reference_parse_dt, code)
        assert _dt_outcome(parse_dt, code) == want, code
        if want != "not realizable":
            realizable += 1
            d = parse_dt(code)
            diagrams.setdefault(d.canonical_key, d)
    assert (realizable, len(diagrams)) == (4058, 342)
    for key, d in diagrams.items():
        assert parse_pd(emit_pd(d)).canonical_key == key
        assert parse_dt(emit_dt(d)).canonical_key == key
        assert gauss.v2(d) == v2_conway(d) == v2_jones(d), key
        assert gauss.v3(d) == v3_jones(d), key


def test_parse_dt_matches_search_on_long_codes(knots):
    # Emitted codes of R-perturbed corpus knots and mirrors (15-19
    # crossings) and of perturbed connected sums of three (up to 24).
    diagrams = [d for _, d in sorted(knots.items())]
    diagrams += [d.mirror() for d in diagrams]
    perturbed = [random_perturb(d, 10, seed=seed, max_extra=9)
                 for d in diagrams for seed in range(4)]
    for i, d in enumerate(diagrams):
        triple = d.connected_sum(diagrams[(i + 5) % len(diagrams)])
        triple = triple.connected_sum(diagrams[(i + 11) % len(diagrams)])
        perturbed.append(random_perturb(triple, 4, seed=i, max_extra=3))
    codes = [emit_dt(p) for p in perturbed if 15 <= p.n_crossings <= 24]
    assert len(codes) == 192
    assert max(len(code.split()) for code in codes) == 24
    for code in codes:
        assert _dt_outcome(parse_dt, code) == _dt_outcome(reference_search_parse_dt, code), code


def test_parse_dt_golden_on_perturbed_codes(knots):
    # Recorded with the product enumerator: emitted codes of 9-14 crossings.
    lines = []
    for name, d in sorted(knots.items()):
        for seed in range(3):
            p = random_perturb(d, 10, seed=seed, max_extra=6)
            if 9 <= p.n_crossings <= 14:
                code = emit_dt(p)
                basepoint, ends = _dt_outcome(parse_dt, code)
                lines.append(f"{name}~{seed} {p.n_crossings} {code} | {basepoint} {ends}")
    assert len(lines) == 66
    assert sum(line.split()[1] == "14" for line in lines) == 22
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "0cd55397771d1d0f15a0f72397c66ac5ce44ea8cf2b981df9f9c601309c717e0"


def test_gauss_of_trefoil(left_trefoil):
    g = to_gauss(left_trefoil)
    assert g.length == 6 and len(g.arrows) == 3
    assert len({a.sign for a in g.arrows}) == 1
    # brute check: all three chords pairwise interleaved
    for a, b in itertools.combinations(g.arrows, 2):
        pa, pb = sorted((a.over, a.under)), sorted((b.over, b.under))
        assert pa[0] < pb[0] < pa[1] < pb[1] or pb[0] < pa[0] < pb[1] < pa[1]


def test_gauss_of_unknot_and_kink(unknot):
    assert to_gauss(unknot).length == 0
    kink = parse_pd("X(1,1,2,2)")
    g = to_gauss(kink)
    assert len(g.arrows) == 1
    a = g.arrows[0]
    assert abs(a.over - a.under) == 1  # endpoints adjacent


def test_component_count(unknot, left_trefoil):
    assert unknot.component_count() == 1
    assert left_trefoil.component_count() == 1
    from knotmoves.diagram import Fragment
    # two stacked kink circles as a raw fragment
    two = Fragment(parse_pd("X(1,1,2,2)").crossings
                   + tuple(c.relabeled({1: 11, 2: 12})
                           for c in parse_pd("X(1,1,2,2)").crossings))
    assert two.component_count() == 2


def test_pd_parser_accepts_whitespace_and_brackets():
    a = parse_pd("X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)")
    b = parse_pd("X[1, 4, 2, 5]\nX[3, 6, 4, 1]\nX[5, 2, 6, 3]")
    assert a.canonical_key == b.canonical_key


def test_dt_parser_accepts_commas():
    assert parse_dt("4, 6, 2").canonical_key == parse_dt("4 6 2").canonical_key
