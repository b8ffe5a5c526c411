"""One-off calibration of the v2/v3 arrow-pattern tables.

Builds a training set of diagrams with exact polynomial targets, solves for
cyclic-pattern coefficients by exact Gaussian elimination, validates on a
held-out set, and prints the tables that get frozen into knotmoves.gauss.
It also reports the held-out failures of the tables shipped in
knotmoves.gauss.  Run it as ``PYTHONPATH=src python scripts/calibrate_patterns.py``.
"""

from __future__ import annotations

import zlib
from fractions import Fraction

from knotmoves.corpus import corpus
from knotmoves.diagram import Diagram
from knotmoves.gauss import (V2_TERMS, V3_TERMS_PAIR, V3_TERMS_TRIPLE, pair_counts,
                             to_gauss, triple_counts)
from knotmoves.invariants import v2_conway, v3_jones
from knotmoves.moves import random_perturb

# Triple codes carry this prefix inside one joint solve, so that they stay
# apart from pair codes; split_solution strips it again.
TRIPLE = "T"


def rebased(d: Diagram) -> list[Diagram]:
    """The same diagram with every possible basepoint edge."""
    return [Diagram(d.crossings, d.free_loops, basepoint=e, check=False)
            for e in d.edges()]


def build_set(seeds: range, all_basepoints: bool = False) -> list[tuple[Diagram, int, int]]:
    rows = []
    base = corpus(include_unknot=True)
    diagrams: list[Diagram] = []
    for name, d in base.items():
        diagrams.append(d)
        diagrams.append(d.mirror())
        for s in seeds:
            p = random_perturb(d, 12, seed=s * 1000 + zlib.crc32(name.encode()) % 997)
            diagrams.append(p)
            if all_basepoints and s == seeds[0]:
                diagrams.extend(rebased(p)[:6])
    for d in diagrams:
        rows.append((d, v2_conway(d), v3_jones(d)))
    return rows


def feature_rows(rows, with_triples: bool):
    codes: dict[str, int] = {}
    mat: list[dict[int, Fraction]] = []
    targets: list[Fraction] = []
    for d, t2, t3 in rows:
        g = to_gauss(d)
        feats = dict(pair_counts(g))
        if with_triples:
            for k, v in triple_counts(g).items():
                feats[TRIPLE + k] = v
        row: dict[int, Fraction] = {}
        for k, v in feats.items():
            idx = codes.setdefault(k, len(codes))
            row[idx] = Fraction(v)
        mat.append(row)
        targets.append(Fraction(t3 if with_triples else t2))
    return codes, mat, targets


def solve(codes, mat, targets):
    ncols = len(codes)
    dense = [[row.get(j, Fraction(0)) for j in range(ncols)] + [t]
             for row, t in zip(mat, targets)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(dense)) if dense[i][c] != 0), None)
        if pr is None:
            continue
        dense[r], dense[pr] = dense[pr], dense[r]
        pv = dense[r][c]
        dense[r] = [x / pv for x in dense[r]]
        for i in range(len(dense)):
            if i != r and dense[i][c] != 0:
                f = dense[i][c]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[r])]
        pivots.append((r, c))
        r += 1
        if r == len(dense):
            break
    for i in range(r, len(dense)):
        if dense[i][ncols] != 0:
            raise SystemExit("inconsistent system: no exact pattern formula")
    sol = {c: dense[rr][ncols] for rr, c in pivots}
    inv = {v: k for k, v in codes.items()}
    return {inv[c]: v for c, v in sol.items() if v != 0}


def split_solution(sol: dict[str, Fraction]) -> tuple[dict, dict]:
    """Pair part and triple part of a joint solution, keyed as in knotmoves.gauss."""
    pair = {k: v for k, v in sol.items() if not k.startswith(TRIPLE)}
    triple = {k[len(TRIPLE):]: v for k, v in sol.items() if k.startswith(TRIPLE)}
    return pair, triple


def check(rows, order: int, table_pair, table_triple) -> int:
    """Number of rows whose order-2 or order-3 target the tables miss."""
    bad = 0
    for d, t2, t3 in rows:
        g = to_gauss(d)
        pc = pair_counts(g)
        val = sum(coef * pc.get(code, 0) for code, coef in table_pair.items())
        if table_triple:
            tc = triple_counts(g)
            val += sum(coef * tc.get(code, 0) for code, coef in table_triple.items())
        if val != (t2 if order == 2 else t3):
            bad += 1
    return bad


def main() -> None:
    train = build_set(range(3), all_basepoints=True)
    held = build_set(range(3, 6), all_basepoints=True)
    print(f"train rows: {len(train)}, held-out rows: {len(held)}")

    codes2, mat2, t2 = feature_rows(train, with_triples=False)
    sol2 = solve(codes2, mat2, t2)
    print("v2 solution:", sol2)
    print("v2 held-out failures:", check(held, 2, sol2, {}))

    codes3, mat3, t3 = feature_rows(train, with_triples=True)
    pair_part, trip_part = split_solution(solve(codes3, mat3, t3))
    print(f"v3 solution: {len(pair_part) + len(trip_part)} terms")
    print("  pair part:", pair_part)
    print("  triple part:", trip_part)
    print("v3 held-out failures:", check(held, 3, pair_part, trip_part))

    print("shipped V2_TERMS held-out failures:", check(held, 2, V2_TERMS, {}))
    print("shipped V3_TERMS_* held-out failures:",
          check(held, 3, V3_TERMS_PAIR, V3_TERMS_TRIPLE))


if __name__ == "__main__":
    main()
