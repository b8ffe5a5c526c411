"""Spans around the public functions of knotmoves, installed from outside.

Every public module-level function of each knotmoves module is replaced,
in every knotmoves namespace that holds it, by a wrapper that records a
span: a name, a start, an end and the index of the enclosing span.  Spans
stay in memory as four arrays and are written out by `write` when the run
ends.  Self time is a span's duration minus the time its child spans cover.

Besides spans, a few wrappers count outcomes that the per-layer metrics
need, such as the expansions a search reports or how often a cache lookup
hits.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from functools import cached_property

MODULES = ["diagram", "moves", "invariants", "gauss", "tangles", "templates",
           "finitetype", "search", "corpus", "cli"]

# Functions without a span of their own; their time counts to the caller,
# so that the caller's self time is the layer's cost.  simplify_fragment
# holds the R3 exploration of simplify and simplify_tangle, kauffman_bracket
# is the whole cost of jones, and the Gauss-diagram arrow counts are the
# cost of v2 and v3.  poly is left out above: its calls are too fine to
# wrap from outside.
UNSPANNED = {"moves.simplify_fragment", "invariants.kauffman_bracket",
             "gauss.to_gauss", "gauss.pair_counts", "gauss.triple_counts"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the knotmoves functions and rebind every reference to them."""
        mods = {m: importlib.import_module(f"knotmoves.{m}") for m in MODULES}
        hooks = self._hooks()
        swaps = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or name in UNSPANNED):
                    continue
                swaps[id(obj)] = self.wrap(name, obj, hooks.get(name))
        namespaces = [vars(m) for m in sys.modules.values()
                      if m is not None and m.__name__.split(".")[0] == "knotmoves"]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in swaps:
                    ns[attr] = swaps[id(obj)]
                elif isinstance(obj, dict):
                    # Dispatch tables such as finitetype.INVARIANTS.
                    for k, v in list(obj.items()):
                        if id(v) in swaps:
                            obj[k] = swaps[id(v)]
        diagram, cli = mods["diagram"], mods["cli"]
        frag = diagram.Fragment
        frag.face_walks = self.wrap("diagram.face_walks", frag.face_walks)
        key = cached_property(self.wrap("diagram.canonical_key",
                                        diagram.Diagram.canonical_key.func))
        key.__set_name__(diagram.Diagram, "canonical_key")
        diagram.Diagram.canonical_key = key
        cli.Cache.__init__ = self.wrap("cli.cache.load", cli.Cache.__init__)
        cli.Cache.get = self.wrap("cli.cache.get", cli.Cache.get, self._count_hit)

    def _hooks(self) -> dict:
        counts = self.counts

        def search(args, kwargs, res):
            counts["search.searches"] += 1
            counts["search.found"] += bool(res.found)
            counts["search.expansions"] += res.expansions

        def useful(prefix):
            def hook(args, kwargs, res):
                counts[prefix + ".useful"] += res is not None
            return hook

        def verify_type(args, kwargs, records):
            trials = args[2] if len(args) > 2 else kwargs["trials"]
            counts["finitetype.verify_type.requested"] += trials
            counts["finitetype.verify_type.achieved"] += sum(
                r.sum is not None for r in records)

        return {"search.delta_unknot": search, "search.bfs_path": search,
                "templates.random_insert_chord": useful("templates.random_insert_chord"),
                "finitetype.random_family": useful("finitetype.random_family"),
                "finitetype.verify_type": verify_type}

    def _count_hit(self, args, kwargs, res) -> None:
        self.counts["cli.cache.hits"] += res is not None

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "spans": len(self.span_start)}

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four arrays in binary."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "columns": [["name", "i"], ["parent", "i"], ["start", "d"],
                              ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                col.tofile(fh)
