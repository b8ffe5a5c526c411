"""Regenerate the frozen inputs and expected outputs in data/.

    python3 perfbench/make_data.py            # from the repository root

The benchmark never runs this.  It draws R-perturbed corpus diagrams with
the program's own perturbation and emitters once, freezes their text in
data/pool.tsv, and records in data/expected.json what the program printed
for every pool line, search case and verify-suite seed.  The benchmark
compares each run against these records, so rerun this only when a change
to the program's output is intended, and say so where the change is made.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from knotmoves import cli  # noqa: E402
from knotmoves.corpus import _PRIME_DT, corpus  # noqa: E402
from knotmoves.diagram import (MalformedDiagram, NotRealizable, emit_dt,  # noqa: E402
                               emit_pd, parse_dt, parse_pd)
from knotmoves.moves import random_perturb  # noqa: E402

import inputs  # noqa: E402

N_RANGE = range(3, 18)
DT_MAX = 14
PER_BIN_POOL = 6
FAMILY_SEEDS = 24
FAMILY_KINDS = [
    {"suite": "verify_type", "phi": "v2", "orders": [2, 2, 2], "trials": 200},
    {"suite": "verify_type", "phi": "v3", "orders": [2, 2, 2, 2], "trials": 100},
    {"suite": "verify_type", "phi": "v2", "orders": [3, 2], "trials": 100},
    {"suite": "move_invariance_report", "l": 3, "moves": 100, "chain": 5},
    {"suite": "group_checks", "pairs": 50},
    {"suite": "certificates", "budget": 50000},
]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def raw_pd(d) -> str:
    return " ".join("X(%d,%d,%d,%d)" % c.ends for c in d.crossings)


def run_cli(argv: list[str]) -> list[str]:
    out = io.StringIO()
    saved, sys.stdout = sys.stdout, out
    try:
        cli.main(argv)
    finally:
        sys.stdout = saved
    return out.getvalue().splitlines()[1:]


def make_pool(seed: int = 20040412) -> list[dict]:
    rng = random.Random(seed)
    bases = corpus(include_unknot=True)
    names = sorted(bases)
    bins = {(fmt, n): [] for n in N_RANGE for fmt in ("PD", "DT")
            if fmt == "PD" or n <= DT_MAX}
    keys: set[str] = set()
    for _ in range(30_000):
        if all(len(v) >= PER_BIN_POOL for v in bins.values()):
            break
        d = random_perturb(bases[rng.choice(names)], rng.randrange(1, 30),
                           rng.randrange(1 << 30), max_extra=rng.randrange(1, 13))
        for fmt in ("PD", "DT"):
            slot = bins.get((fmt, d.n_crossings))
            if slot is None or len(slot) >= PER_BIN_POOL:
                continue
            try:
                code = emit_pd(d) if fmt == "PD" else emit_dt(d)
                parsed = parse_pd(code) if fmt == "PD" else parse_dt(code)
            except (MalformedDiagram, NotRealizable):
                continue
            if parsed.n_crossings != d.n_crossings or parsed.canonical_key in keys:
                continue
            keys.add(parsed.canonical_key)
            slot.append({"fmt": fmt, "n": d.n_crossings, "code": code,
                         "pd": code if fmt == "PD" else raw_pd(parsed),
                         "key": parsed.canonical_key})
    pool = []
    for (fmt, n), rows in sorted(bins.items()):
        print(f"bin {fmt} n={n}: {len(rows)} diagrams", file=sys.stderr)
        if len(rows) < PER_BIN_POOL:
            raise SystemExit(f"bin {fmt} n={n} has only {len(rows)} diagrams")
        for i, row in enumerate(rows):
            pool.append({"id": f"{fmt.lower()}{n}-{i}", **row})
    return pool


def expect_pool(pool: list[dict]) -> list[dict]:
    """Record the program's output line for every pool diagram."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pool.tsv")
        with open(path, "w") as fh:
            fh.write(inputs.invariants_text(pool))
        lines = run_cli(["invariants", path])
    kept = []
    for row, line in zip(pool, lines, strict=True):
        rec = json.loads(line)
        if rec["record"] != "knot":
            print(f"dropped {row['id']}: {rec.get('error')}", file=sys.stderr)
            continue
        if rec["key"] != row["key"]:
            raise SystemExit(f"{row['id']}: key changed on reparse")
        # Every copy of this diagram must hit the same cache key.
        rng = random.Random(row["id"])
        for _ in range(3):
            if parse_pd(inputs.pd_copy(row["pd"], rng)).canonical_key != row["key"]:
                raise SystemExit(f"{row['id']}: relabelled copy has another key")
        rec.pop("name")
        kept.append({**row, "sha": sha(json.dumps(rec, sort_keys=True))})
    return kept


def expect_search() -> list[dict]:
    """Record every search case, and deal the cases to parts of equal cost.

    Each case is timed once here and the cases are dealt, longest first, to
    the part with the least time so far; the parts are then frozen.
    """
    bases = corpus(max_crossings=7, include_unknot=True)
    cases = [{"case": "trefoil-unknot-B2", "code": "4 6 2", "n": 3}]
    for name, d in sorted(bases.items()):
        code = _PRIME_DT.get(name, raw_pd(d) if d.crossings else "")
        cases.append({"case": f"delta-unknot:{name}", "code": code,
                      "n": d.n_crossings})
    for case in cases:
        started = time.perf_counter()
        (line,) = run_cli(inputs.search_argv(case))
        case["cost"] = time.perf_counter() - started
        rec = json.loads(line)
        case.update(found=rec["found"], expansions=rec["expansions"], sha=sha(line))
    loads = [0.0] * inputs.PARTS
    for case in sorted(cases, key=lambda c: -c["cost"]):
        case["part"] = loads.index(min(loads))
        loads[case["part"]] += case.pop("cost")
    return cases


def expect_families() -> list[dict]:
    kinds = []
    for spec in FAMILY_KINDS:
        seeds = [0] if spec["suite"] == "certificates" else range(1, FAMILY_SEEDS + 1)
        digests = {}
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "config.json")
                with open(path, "w") as fh:
                    json.dump({"seed": seed, "suites": [{**spec, "seed": seed}]}, fh)
                lines = run_cli(["verify", "--config", path])[:-1]
            digests[str(seed)] = {"sha": sha("\n".join(lines)),
                                  "pass": json.loads(lines[-1])["pass"]}
            print(spec["suite"], seed, file=sys.stderr)
        kinds.append({"spec": spec, "digests": digests})
    return kinds


def main() -> None:
    pool = expect_pool(make_pool())
    cols = ["id", "fmt", "n", "key", "sha", "code", "pd"]
    with open(inputs.POOL_FILE, "w") as fh:
        fh.write("\t".join(cols) + "\n")
        for row in pool:
            fh.write("\t".join(str(row[c]) for c in cols) + "\n")
    expected = {"search": expect_search(), "families": expect_families()}
    with open(inputs.EXPECTED_FILE, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
