import random

import pytest

from knotmoves.corpus import corpus
from knotmoves.diagram import Diagram, parse_pd
from knotmoves.finitetype import random_family
from knotmoves.templates import family

# Knot Atlas 3_1 code; this chirality has writhe -3 (left-handed).
LEFT_TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


@pytest.fixture(scope="session")
def left_trefoil() -> Diagram:
    return parse_pd(LEFT_TREFOIL_PD)


@pytest.fixture(scope="session")
def right_trefoil(left_trefoil) -> Diagram:
    return left_trefoil.mirror()


@pytest.fixture(scope="session")
def unknot() -> Diagram:
    return Diagram.unknot()


@pytest.fixture(scope="session")
def knots() -> dict:
    return corpus(include_unknot=True)


@pytest.fixture(scope="session")
def small_knots() -> dict:
    return corpus(max_crossings=7, include_unknot=True)


@pytest.fixture(scope="session")
def large_family_members(knots) -> list:
    """(base name, subset, member) for the 58 members of 30-37 crossings of
    seeded (3, 2, 2) families of the corpus."""
    rng = random.Random(31)
    out = []
    for name, d in sorted(knots.items()):
        fam = random_family(d, (3, 2, 2), rng)
        if fam is None:
            continue
        out += [(name, subset, m) for subset, m in family(fam).items() if m.n_crossings >= 30]
    return out
