"""Command-line workbench: invariants, verification suites, families, search.

All output is JSONL with a single header record carrying the version, seed
and config hash; timestamps appear only in the header so reruns are
byte-comparable below it.  Exit codes: 0 = all hard assertions passed,
1 = an assertion failed, 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

from . import __version__, gauss
from .corpus import corpus
from .diagram import Diagram, parse_dt, parse_pd
from .finitetype import (INVARIANTS, delta_v2_witness, group_checks, move_invariance_report,
                         random_family, verify_type)
from .invariants import BRACKET_CROSSING_LIMIT, vassiliev_report
from .moves import greedy_reduce, replay
from .search import DEFAULT_BUDGET, MOVE_KINDS, bfs_path, delta_unknot, replay_path
from .templates import builtin_templates, family, realize_by_lower, replay_tangle_script


def _parse_code(code: str) -> Diagram:
    if "X" in code or "x" in code:
        return parse_pd(code)
    return parse_dt(code)


def _emit(out, record: dict) -> None:
    out.write(json.dumps(record, sort_keys=True) + "\n")


def _header(out, seed=None, config_text: str | None = None) -> None:
    rec = {"record": "header", "version": __version__,
           "timestamp": int(time.time())}
    if seed is not None:
        rec["seed"] = seed
    if config_text is not None:
        rec["config_hash"] = hashlib.sha256(config_text.encode()).hexdigest()[:16]
    _emit(out, rec)


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Cache:
    """Append-only JSONL cache keyed by canonical key, checksummed per record.

    Records carry the schema version they were written under; records of
    another version (or none) are ignored, so a changed formula or key
    format cannot serve stale payloads.  A file cut short in its last record
    gets a newline before the next one, which stays readable.  Close it, or
    use it as a context manager, to release the append handle.
    """

    SCHEMA = 1

    def __init__(self, path: str | None):
        self.path = path
        self.data: dict[str, dict] = {}
        self._fh = None
        if path:
            line = "\n"
            try:
                with open(path) as fh:
                    for line in fh:
                        try:
                            rec = json.loads(line)
                            payload = rec["payload"]
                            if _digest(payload) == rec["sha"] and rec.get("schema") == self.SCHEMA:
                                self.data[rec["key"]] = payload
                        except (KeyError, TypeError, ValueError):
                            continue
            except FileNotFoundError:
                pass
            self._fh = open(path, "a")
            if not line.endswith("\n"):
                self._fh.write("\n")

    def close(self) -> None:
        if self._fh:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Cache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def get(self, key: str):
        return self.data.get(key)

    def put(self, key: str, payload: dict) -> None:
        if key in self.data:
            return
        self.data[key] = payload
        if self._fh:
            self._fh.write(json.dumps(
                {"key": key, "payload": payload, "schema": self.SCHEMA, "sha": _digest(payload)},
                sort_keys=True) + "\n")
            self._fh.flush()


def _knot_payload(d: Diagram, n_crossings: int) -> dict:
    """The invariants of d, a reduced diagram of an n_crossings-crossing input."""
    rep = vassiliev_report(d, n_crossings=n_crossings)
    return {"v2": rep["v2"], "v3": rep["v3"], "crosschecks": rep["crosschecks"],
            "conway": rep["conway"].to_pairs(),
            "jones": None if rep["jones"] is None else rep["jones"].to_pairs()}


def cmd_invariants(args, out) -> int:
    try:
        cache = Cache(args.cache)
    except OSError as exc:
        print(f"cannot use cache {args.cache}: {exc}", file=sys.stderr)
        return 2
    with cache:
        _header(out)
        if args.input == "-":
            lines = sys.stdin.read().splitlines()
        else:
            try:
                with open(args.input) as fh:
                    lines = fh.read().splitlines()
            except OSError as exc:
                print(f"cannot read {args.input}: {exc}", file=sys.stderr)
                return 2
        # (reduced key, Jones in range) -> payload computed in this run;
        # cache hits stay out, so it never serves a cached payload.
        computed: dict[tuple[str, bool], dict] = {}
        successes = 0
        for lineno, line in enumerate(lines, 1):
            if not line.strip() or line.startswith("#"):
                continue
            name, sep, code = line.partition("\t")
            if not sep:
                name, sep, code = line.partition(" ")
            name = name.strip()
            try:
                if not sep:
                    raise ValueError("no code field: expected name<TAB>code")
                d = _parse_code(code)
                key = d.canonical_key
                payload = cache.get(key)
                if payload is None:
                    # Every field is an isotopy invariant, so the R1/R2-reduced
                    # diagram gives the input's values in less time.
                    reduced, _ = greedy_reduce(d)
                    memo = (reduced.canonical_key, d.n_crossings <= BRACKET_CROSSING_LIMIT)
                    if memo not in computed:
                        computed[memo] = _knot_payload(reduced, d.n_crossings)
                    payload = computed[memo]
                    cache.put(key, payload)
                _emit(out, {"record": "knot", "name": name, "key": key, **payload})
                successes += 1
            except ValueError as exc:
                _emit(out, {"record": "error", "name": name, "line": lineno,
                            "error": str(exc)})
        return 0 if successes else 2


def _bases(spec: dict) -> dict[str, Diagram]:
    return corpus(max_crossings=spec["max_crossings"], include_unknot=True)


def _suite_verify_type(spec: dict, out) -> bool:
    bases = _bases(spec)
    records = verify_type(spec["phi"], tuple(spec["orders"]), spec["trials"],
                          spec["seed"], bases)
    ok = True
    for rec in records:
        _emit(out, {"record": "trial", "suite": "verify_type",
                    "phi": spec["phi"], **rec.to_json(), "pass": rec.ok})
        ok = ok and rec.ok
    # verify_type gives up after trials * 20 attempts; a shortfall fails.
    achieved = sum(rec.sum is not None for rec in records)
    return ok and achieved >= spec["trials"]


def _suite_move_invariance(spec: dict, out) -> bool:
    bases = _bases(spec)
    names = sorted(bases)
    total, per, seed = spec["moves"], spec["chain"], spec["seed"]
    done = 0
    ok = True
    idx = 0
    while done < total:
        name = names[idx % len(names)]
        idx += 1
        rep = move_invariance_report(bases[name], spec["l"],
                                 min(per, total - done), seed + idx)
        made = sum("delta" in s for s in rep["steps"])
        done += made or 1  # a chain that made no move still counts, or it could stall
        ok = ok and rep["pass"]
        _emit(out, {"record": "move-invariance", "base": name, "l": rep["l"],
                    "deltas": rep["v2_deltas_seen"], "pass": rep["pass"]})
    witness = delta_v2_witness(bases)
    _emit(out, {"record": "order3-witness", "found": witness is not None,
                **({"witness": witness} if witness else {})})
    return ok and witness is not None


def _suite_group(spec: dict, out) -> bool:
    bases = _bases(spec)
    rep = group_checks(bases, pairs=spec["pairs"], seed=spec["seed"])
    _emit(out, {"record": "group_checks", "pass": rep["pass"],
                "v2_inverse_pairs": len(rep["inverses"]["v2_level"]),
                "v2v3_inverse_pairs": len(rep["inverses"]["v2v3_level"])})
    return rep["pass"]


def _suite_searches(spec: dict, out) -> bool:
    bases = _bases(spec)
    budget = spec["budget"]
    trefoil = bases["3_1"]
    res = bfs_path(trefoil, Diagram.unknot(), {"B2"}, budget)
    ok = res.found and res.moves_used == 1
    _emit(out, {"record": "search", "case": "trefoil-unknot-B2",
                **res.to_json(), "pass": ok})
    hits = 0
    for name, d in sorted(bases.items()):
        r = delta_unknot(d, budget)
        hits += r.found
        _emit(out, {"record": "search", "case": f"delta-unknot:{name}",
                    "found": r.found, "moves_used": r.moves_used,
                    "expansions": r.expansions, "note": r.note})
    rate = hits / len(bases) if bases else 1.0
    need = spec["require_rate"]
    _emit(out, {"record": "search-summary", "delta_unknot_rate": rate,
                "required": need, "pass": rate >= need and ok})
    return ok and rate >= need


def _suite_certificates(spec: dict, out) -> bool:
    templates = builtin_templates()
    ok = True
    for k, tpl in sorted(templates.items()):
        certs = tpl.brunnian_certificates()
        good = tpl.verify_certificates(certs)
        _emit(out, {"record": "certificate", "template": tpl.name, "k": k,
                    "brunnian": good})
        ok = ok and good
    script = realize_by_lower(templates[3], 2, spec["budget"])
    good = script is not None and replay_tangle_script(templates[3], script)
    _emit(out, {"record": "certificate", "template": "triangle-flip-by-order-2",
                "found": script is not None, "replays": good})
    return ok and good


def _among(x, options) -> bool:
    """x equals one of options and has its type: no bool or float passes for an int."""
    return any(type(x) is type(o) and x == o for o in options)


def _int(least: int) -> tuple:
    """(test, message) of a field that must be an int >= least."""
    return lambda x: type(x) is int and x >= least, f"an integer >= {least}"


_MAX_CROSSINGS = {"max_crossings": (7, *_int(0))}

# suite -> (runner, {field: (default, test, message)}); a field whose default
# is None must be given.  "{orders}" in a message names the template orders.
_SUITES = {
    "verify_type": (_suite_verify_type, {
        "phi": (None, lambda x: _among(x, INVARIANTS), f"one of {sorted(INVARIANTS)}"),
        "orders": (None, lambda x: isinstance(x, list) and all(
            _among(k, builtin_templates()) for k in x), "a list of template orders {orders}"),
        "trials": (None, *_int(0)), **_MAX_CROSSINGS}),
    "move_invariance_report": (_suite_move_invariance, {
        "l": (3, lambda x: _among(x, (2, 3)), "2 or 3"),
        "moves": (100, *_int(0)), "chain": (5, *_int(1)), **_MAX_CROSSINGS}),
    "group_checks": (_suite_group, {"pairs": (50, *_int(0)), **_MAX_CROSSINGS}),
    "searches": (_suite_searches, {
        "budget": (DEFAULT_BUDGET, *_int(0)),
        "require_rate": (0.8, lambda x: type(x) in (int, float) and 0 <= x <= 1,
                         "a number from 0 to 1"),
        "max_crossings": (7, *_int(3))}),  # the B2 case starts from the trefoil
    "certificates": (_suite_certificates, {"budget": (50_000, *_int(0))}),
}


def _suite_spec(spec, seed) -> tuple[dict, str | None]:
    """The spec with every field its suite reads, defaults filled in (the
    seed from the config's), and why it cannot run, or None; a field the
    suite does not read is refused, so a misspelt one is not defaulted."""
    if not isinstance(spec, dict) or not _among(spec.get("suite"), _SUITES):
        return {}, f"suite must be one of {sorted(_SUITES)}"
    filled = {"suite": spec["suite"]}
    fields = {"seed": (seed, lambda x: type(x) is int, "an integer"), **_SUITES[spec["suite"]][1]}
    unknown = sorted(set(spec) - {"suite", *fields})
    if unknown:
        return {}, f"unknown fields {unknown} for suite {spec['suite']}"
    for field, (default, test, message) in fields.items():
        filled[field] = spec.get(field, default)
        if not test(filled[field]):
            return {}, f"{field} must be " + message.format(orders=sorted(builtin_templates()))
    return filled, None


def cmd_verify(args, out) -> int:
    try:
        with open(args.config) as fh:
            config_text = fh.read()
        config = json.loads(config_text)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    suites = config.get("suites") if isinstance(config, dict) else None
    if not isinstance(suites, list):
        print("config must be an object with a list under 'suites'", file=sys.stderr)
        return 2
    specs = []
    for spec in suites:
        filled, problem = _suite_spec(spec, config.get("seed", 0))
        if problem:
            print(f"bad suite spec {spec!r}: {problem}", file=sys.stderr)
            return 2
        specs.append(filled)
    _header(out, seed=config.get("seed"), config_text=config_text)
    all_ok = True
    for spec in specs:
        ok = _SUITES[spec["suite"]][0](spec, out)
        _emit(out, {"record": "suite-result", "suite": spec["suite"], "pass": ok})
        all_ok = all_ok and ok
    _emit(out, {"record": "verdict", "pass": all_ok})
    return 0 if all_ok else 1


def cmd_family(args, out) -> int:
    try:
        base = _parse_code(args.base)
        orders = tuple(int(x) for x in args.orders.split(",")) if args.orders else ()
        if not set(orders) <= builtin_templates().keys():
            raise ValueError(f"orders must be template orders {sorted(builtin_templates())}, "
                             f"got {args.orders}")
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    _header(out, seed=args.seed)
    rng = random.Random(args.seed)
    fam = None
    for _ in range(50):
        fam = random_family(base, orders, rng)
        if fam is not None:
            break
    if fam is None:
        print("site exhaustion: no family of that type found", file=sys.stderr)
        return 1
    s2 = s3 = 0
    for subset, diagram in sorted(family(fam).items(), key=lambda kv: sorted(kv[0])):
        a, b = gauss.v2(diagram), gauss.v3(diagram)
        sign = (-1) ** len(subset)
        s2 += sign * a
        s3 += sign * b
        _emit(out, {"record": "family-member", "subset": sorted(subset),
                    "v2": a, "v3": b, "key": diagram.canonical_key})
    _emit(out, {"record": "family-sums", "orders": list(orders),
                "v2_sum": s2, "v3_sum": s3})
    return 0


def cmd_search(args, out) -> int:
    try:
        d1 = _parse_code(getattr(args, "from"))
    except ValueError as exc:
        print(f"bad diagram: {exc}", file=sys.stderr)
        return 2
    try:
        if args.budget < 0:
            raise ValueError(f"budget must be non-negative, got {args.budget}")
        if not args.delta_unknot:
            d2 = _parse_code(args.to if args.to is not None else "")
            kinds = set(args.movekinds.split(",")) if args.movekinds else {"B2"}
            if not kinds <= MOVE_KINDS:
                raise ValueError(f"unsupported move kinds: {sorted(kinds - MOVE_KINDS)}")
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    _header(out, seed=None)
    if args.delta_unknot:
        res = delta_unknot(d1, args.budget)
        _emit(out, {"record": "search", "case": "delta-unknot", **res.to_json()})
        return 0 if res.found else 1
    res = bfs_path(d1, d2, kinds, args.budget)
    _emit(out, {"record": "search", "case": "bfs", **res.to_json()})
    return 0 if res.found else 1


def cmd_path_replay(args, out) -> int:
    try:
        d = _parse_code(args.diagram)
        with open(args.script) as fh:
            script = [tuple(e) for e in json.load(fh)]
    except (OSError, TypeError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    _header(out)
    try:
        target = args.target
        if target is None:
            _emit(out, {"record": "replay", "ok": True,
                        "final_key": replay(d, script).canonical_key})
            return 0
        ok = replay_path(d, script, target)
        _emit(out, {"record": "replay", "ok": ok, "target": target})
        return 0 if ok else 1
    except (IndexError, TypeError, ValueError) as exc:
        _emit(out, {"record": "replay", "ok": False, "error": str(exc)})
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="knotmoves",
        description="Knot diagrams, local-move search, and finite-type checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="invariants for a name<TAB>code corpus file")
    p.add_argument("input", help="corpus file path, or - for stdin")
    p.add_argument("--cache", default=None, help="append-only JSONL cache file")

    p = sub.add_parser("verify", help="run verification suites from a JSON config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("family", help="expand a random singular family over a base knot")
    p.add_argument("--base", default="", help="DT or PD code (empty = unknot)")
    p.add_argument("--orders", default="", help="comma-separated chord orders, e.g. 2,2,2")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("search", help="bounded move search between diagrams")
    p.add_argument("--from", required=True)
    p.add_argument("--to", default=None)
    p.add_argument("--movekinds", default="B2")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--delta-unknot", action="store_true")

    p = sub.add_parser("path-replay", help="replay a move script and check the result")
    p.add_argument("--diagram", required=True)
    p.add_argument("--script", required=True)
    p.add_argument("--target", default=None, help="expected canonical key")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    out = sys.stdout
    handlers = {"invariants": cmd_invariants, "verify": cmd_verify,
                "family": cmd_family, "search": cmd_search,
                "path-replay": cmd_path_replay}
    return handlers[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
