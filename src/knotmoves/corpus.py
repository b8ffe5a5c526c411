"""Built-in knot corpus used by verification suites and the CLI.

Prime knots are given by DT codes; composites are assembled by connected
sum so that every entry is reproducible from the table alone.  Names follow
the usual table order for the primes; chirality of DT realizations is only
fixed up to mirror image, which none of the shipped checks depend on.
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import Diagram, parse_dt

_PRIME_DT = {
    "3_1": "4 6 2",
    "4_1": "4 6 8 2",
    "5_1": "6 8 10 2 4",
    "5_2": "4 8 10 2 6",
    "6_1": "4 8 12 10 2 6",
    "6_2": "4 8 10 12 2 6",
    "6_3": "4 8 10 2 12 6",
    "7_1": "8 10 12 14 2 4 6",
    "7_2": "4 10 14 12 2 8 6",
    "7_3": "6 10 12 14 2 4 8",
    "7_4": "6 10 12 14 4 2 8",
    "7_5": "4 10 12 14 2 8 6",
    "7_6": "4 8 12 2 14 6 10",
    "7_7": "4 8 10 12 2 14 6",
    # 8-crossing entries named by code: realizable table-style DT codes whose
    # precise table identity we do not certify.
    "dt8a": "4 10 16 14 12 2 8 6",
    "dt8b": "4 10 12 14 16 2 6 8",
    "dt8c": "4 10 12 14 16 2 8 6",
    "dt8d": "4 8 10 14 2 16 6 12",
    "dt8e": "4 8 12 2 16 14 6 10",
    "dt8f": "6 10 14 16 2 4 12 8",
}

_COMPOSITES = {
    "granny": ("3_1", "3_1", False),
    "square": ("3_1", "3_1", True),
    "3_1+4_1": ("3_1", "4_1", False),
    "4_1+4_1": ("4_1", "4_1", False),
    "3_1+5_1": ("3_1", "5_1", False),
    "3_1+5_2": ("3_1", "5_2", False),
    "3_1+6_1": ("3_1", "6_1", False),
    "4_1+5_2": ("4_1", "5_2", False),
}


@lru_cache(maxsize=None)
def _named() -> dict[str, Diagram]:
    """Every corpus entry, the unknot first, built once per process."""
    out = {"unknot": Diagram.unknot()}
    for name, code in _PRIME_DT.items():
        out[name] = parse_dt(code)
    for name, (a, b, mirror_b) in _COMPOSITES.items():
        d2 = out[b].mirror() if mirror_b else out[b]
        out[name] = out[a].connected_sum(d2)
    return out


def corpus(max_crossings: int | None = None, include_unknot: bool = False,
           ) -> dict[str, Diagram]:
    """Named corpus diagrams, optionally filtered by crossing count.

    Each call returns a fresh dict, in table order, of diagrams built once
    per process: they are immutable, so their face walks and Gauss chord
    tables are shared by every caller.
    """
    return {name: d for name, d in _named().items()
            if (include_unknot or name != "unknot")
            and (max_crossings is None or d.n_crossings <= max_crossings)}
