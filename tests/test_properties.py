"""Property tests: random R-moves keep the invariants, codecs keep the key."""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from knotmoves.corpus import corpus
from knotmoves.diagram import emit_dt, emit_pd, parse_dt, parse_pd
from knotmoves.gauss import v2, v3
from knotmoves.invariants import conway, jones
from knotmoves.moves import random_perturb
from knotmoves.tangles import tangle_key
from knotmoves.templates import builtin_templates

SMALL = corpus(max_crossings=7, include_unknot=True)
ALL = corpus(include_unknot=True)


@lru_cache(maxsize=None)
def invariants_of(name: str) -> tuple:
    d = SMALL[name]
    return jones(d), conway(d), v2(d), v3(d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(0, 10 ** 6), st.integers(1, 16))
def test_random_r_moves_preserve_invariants(name, seed, steps):
    p = random_perturb(SMALL[name], steps, seed=seed)
    assert (jones(p), conway(p), v2(p), v3(p)) == invariants_of(name)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ALL)), st.integers(0, 10 ** 6), st.integers(0, 14))
def test_pd_round_trip_preserves_key(name, seed, steps):
    p = random_perturb(ALL[name], steps, seed=seed)
    assert parse_pd(emit_pd(p)).canonical_key == p.canonical_key


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(0, 10 ** 6), st.integers(0, 10))
def test_dt_round_trip_preserves_key(name, seed, steps):
    # max_extra=2 keeps p at <= 10 crossings: parse_dt tries every
    # orientation pattern, 2^(n-1) of them.
    p = random_perturb(SMALL[name], steps, seed=seed, max_extra=2)
    q = parse_dt(emit_dt(p))
    # A DT code fixes a diagram only up to reflecting the parts on either
    # side of a two-point cut (a kink, a summand), so p itself may come back
    # with a different key, mirrored in those parts.  What the code carries
    # survives: the mirror-blind invariants, and a diagram realized from a
    # code reproduces its key exactly.
    assert (v2(q), conway(q)) == (v2(p), conway(p))
    assert parse_dt(emit_dt(q)).canonical_key == q.canonical_key


@lru_cache(maxsize=None)
def template_tangles() -> tuple:
    out = []
    for k, tpl in sorted(builtin_templates().items()):
        for t in (tpl.before, tpl.after) + tpl.insertions:
            out += [t] + [t.delete_strand(s) for s in range(k)]
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 10 ** 4), st.randoms())
def test_tangle_key_ignores_edge_labels(data, delta, rng):
    # Every component of these tangles touches a leg, so the legs anchor
    # every walk and the key must not see the edge ids.
    t = data.draw(st.sampled_from(template_tangles()))
    edges = t.edges()
    fresh = rng.sample(range(10 * len(edges) + 10), len(edges))
    assert tangle_key(t.shifted(delta)) == tangle_key(t)
    assert tangle_key(t.relabeled(dict(zip(edges, fresh)))) == tangle_key(t)
