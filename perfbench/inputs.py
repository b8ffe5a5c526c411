"""Workload inputs, made from the benchmark seed and the frozen tables in data/.

Nothing here imports knotmoves: the diagram texts, the search cases and the
verify-suite seeds are frozen in data/, and the relabelled PD copies are
made by the text rewrite below, so a change to the program cannot change
what a workload measures.  Only the expected outputs in data/ came from the
program (see make_data.py).
"""

from __future__ import annotations

import json
import os
import random
import re
from collections import Counter

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
POOL_FILE = os.path.join(DATA, "pool.tsv")
EXPECTED_FILE = os.path.join(DATA, "expected.json")

# Relabelled PD copies of each cold line in one invariants_cached item set.
COPIES = 10
SEARCH_BUDGET = 4000
# The search cases and the cold pool are split into this many fixed parts,
# one part per item set, so that a run holds many short item sets.
PARTS = 3

_X = re.compile(r"X\((\d+),(\d+),(\d+),(\d+)\)")


def load_pool() -> list[dict]:
    """Frozen R-perturbed corpus diagrams, one distinct canonical key each."""
    rows = []
    with open(POOL_FILE) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        for line in fh:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            row["n"] = int(row["n"])
            rows.append(row)
    return rows


def load_expected() -> dict:
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)


def cold_items(pool: list[dict], seed: int, rnd: int) -> list[dict]:
    """Part rnd % PARTS of the pool, in an order drawn from the seed.

    The pool holds the same number of diagrams of each format and size, and
    the cost of one line varies tenfold within a size, so a sample of the
    pool would make the measured work depend on the seed.  Instead the
    parts are fixed, each with a third of every (format, size) bin, and the
    seed sets only the order of the lines.
    """
    index: dict[tuple[str, int], int] = {}
    items = []
    for row in pool:
        i = index[row["fmt"], row["n"]] = index.get((row["fmt"], row["n"]), -1) + 1
        if i % PARTS == rnd % PARTS:
            items.append(row)
    random.Random(f"cold:{seed}:{rnd}").shuffle(items)
    return items


def pd_copy(pd: str, rng: random.Random) -> str:
    """The same diagram under new edge labels, crossing order and gauge.

    Labels are drawn at random, so the lowest label (the PD basepoint) lands
    on a random edge; each record may also be rotated by two slots, which
    the PD convention treats as the same crossing.
    """
    crossings = [tuple(int(g) for g in m) for m in _X.findall(pd)]
    labels = sorted({e for c in crossings for e in c})
    mapping = dict(zip(labels, rng.sample(range(1, 10 * len(labels)), len(labels))))
    out = []
    for c in crossings:
        c = tuple(mapping[e] for e in c)
        if rng.random() < 0.5:
            c = c[2:] + c[:2]
        out.append(c)
    rng.shuffle(out)
    return " ".join("X(%d,%d,%d,%d)" % c for c in out)


def cached_items(cold: list[dict], seed: int, rnd: int) -> list[dict]:
    """COPIES relabelled PD copies of every cold line, shuffled."""
    rng = random.Random(f"cached:{seed}:{rnd}")
    items = []
    for row in cold:
        for j in range(COPIES):
            items.append({**row, "fmt": "PD", "code": pd_copy(row["pd"], rng),
                          "id": f"{row['id']}.{j}"})
    rng.shuffle(items)
    return items


def invariants_text(items: list[dict]) -> str:
    return "".join(f"{row['id']}\t{row['code']}\n" for row in items)


def search_cases(expected: dict, seed: int, rnd: int) -> list[tuple[str, list[str]]]:
    """Part rnd % PARTS of the acceptance `searches` suite, as CLI calls.

    The suite is a B2 path for the trefoil and delta_unknot on every corpus
    entry of at most seven crossings, all at budget 4000.  The parts are
    frozen in data/ and cost about the same.  The seed sets only the order
    of the calls, which the results do not depend on, so every seed
    measures the same work.
    """
    calls = [(case["case"], search_argv(case)) for case in expected["search"]
             if case["part"] == rnd % PARTS]
    random.Random(f"search:{seed}:{rnd}").shuffle(calls)
    return calls


def search_argv(case: dict) -> list[str]:
    if case["case"] == "trefoil-unknot-B2":
        kind = ["--to", "", "--movekinds", "B2"]
    else:
        kind = ["--delta-unknot"]
    return ["search", "--from", case["code"], *kind, "--budget", str(SEARCH_BUDGET)]


def families_config(expected: dict, seed: int, rnd: int) -> dict:
    """A verify config with one suite of every family kind.

    Each suite's seed is drawn from the frozen seeds of its kind, whose
    outputs were recorded, so the digest of every suite can be checked.
    """
    rng = random.Random(f"families:{seed}:{rnd}")
    suites = []
    for kind in expected["families"]:
        seeds = sorted(kind["digests"], key=int)
        suites.append({**kind["spec"], "seed": int(rng.choice(seeds))})
    return {"seed": seed, "suites": suites}


def input_properties(items: list[dict]) -> dict:
    """Crossing histogram, DT/PD share and repeated-key share of a line set."""
    keys = Counter(row["key"] for row in items)
    hist = Counter(row["n"] for row in items)
    total = len(items)
    return {
        "lines": total,
        "crossings": [[n, hist[n]] for n in sorted(hist)],
        "dt_share": sum(row["fmt"] == "DT" for row in items) / total,
        "pd_share": sum(row["fmt"] == "PD" for row in items) / total,
        "repeated_key_share": sum(c for c in keys.values() if c > 1) / total,
    }
