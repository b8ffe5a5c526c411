"""knotmoves: knot diagrams, Brunnian-type local moves, and finite-type invariants."""

from .diagram import (
    Crossing,
    Diagram,
    Fragment,
    MalformedDiagram,
    NotRealizable,
    emit_dt,
    emit_pd,
    parse_dt,
    parse_pd,
)
from .gauss import GaussDiagram, to_gauss, v2, v3
from .invariants import conway, jones, kauffman_bracket, vassiliev_report
from .moves import apply_move, simplify
from .poly import LaurentPolynomial
from .templates import Chord, MoveTemplate, SingularFamily, builtin_templates

__all__ = [
    "Chord",
    "Crossing",
    "Diagram",
    "Fragment",
    "GaussDiagram",
    "LaurentPolynomial",
    "MalformedDiagram",
    "MoveTemplate",
    "NotRealizable",
    "SingularFamily",
    "apply_move",
    "builtin_templates",
    "conway",
    "emit_dt",
    "emit_pd",
    "jones",
    "kauffman_bracket",
    "parse_dt",
    "parse_pd",
    "simplify",
    "to_gauss",
    "v2",
    "v3",
    "vassiliev_report",
]

__version__ = "0.1.0"
